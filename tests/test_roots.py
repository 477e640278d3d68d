"""Univariate root finder: spec'd examples, reconstruction oracle, clustering."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deformkit import (
    RootConvergenceError,
    UniPoly,
    cluster_multiplicities,
    find_roots,
)
from deformkit.roots import solve_batch


def expand_ascending(lead, roots):
    """Independent reconstruction oracle: expand lead * prod (t - r)."""
    coeffs = np.array([lead], dtype=np.complex128)
    for r in roots:
        # multiply by (t - r): ascending convolution with [-r, 1]
        coeffs = np.convolve(coeffs, np.array([-r, 1.0], dtype=np.complex128))
    return coeffs


def test_difference_of_squares():
    r = find_roots(UniPoly([-1, 0, 1]))
    vals = sorted(r.values(), key=lambda z: z.real)
    assert abs(vals[0] + 1) < 1e-12 and abs(vals[1] - 1) < 1e-12
    assert r.residual_bound < 1e-12


def test_purely_imaginary_pair():
    vals = sorted(find_roots(UniPoly([1, 0, 1])).values(), key=lambda z: z.imag)
    assert abs(vals[0] + 1j) < 1e-12 and abs(vals[1] - 1j) < 1e-12


def test_nearby_square_verified_by_squaring():
    c = 1 + 1e-8
    vals = find_roots(UniPoly([-c, 0, 1])).values()
    for z in vals:
        assert abs(z * z - c) < 1e-13
    near_one = [z for z in vals if z.real > 0][0]
    assert abs(near_one - (1 + 5e-9)) < 1e-12


def test_root_count_matches_degree():
    rng = np.random.default_rng(5)
    for _ in range(25):
        deg = int(rng.integers(1, 9))
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        coeffs[-1] += 3.0  # keep the lead well away from zero
        r = find_roots(UniPoly(coeffs))
        assert r.total_multiplicity == deg


def test_product_reconstruction_oracle():
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 40:
        deg = int(rng.integers(1, 9))
        coeffs = rng.uniform(-1, 1, deg + 1) + 1j * rng.uniform(-1, 1, deg + 1)
        if abs(coeffs[-1]) < 0.2:
            continue
        poly = UniPoly(coeffs)
        found = find_roots(poly)
        vals = found.values()
        sep = min(
            (abs(a - b) for i, a in enumerate(vals) for b in vals[i + 1 :]),
            default=1.0,
        )
        if sep < 0.1:
            continue
        rebuilt = expand_ascending(coeffs[-1], vals)
        err = np.max(np.abs(rebuilt - coeffs)) / np.max(np.abs(coeffs))
        assert err <= 1e-8
        checked += 1


def test_conjugate_symmetry_for_real_coefficients():
    rng = np.random.default_rng(23)
    for _ in range(20):
        deg = int(rng.integers(2, 8))
        coeffs = rng.uniform(-1, 1, deg + 1)
        if abs(coeffs[-1]) < 0.2:
            coeffs[-1] = 0.5
        vals = find_roots(UniPoly(coeffs)).values()
        for z in vals:
            assert min(abs(z.conjugate() - w) for w in vals) < 1e-9


def test_degenerate_inputs_rejected():
    with pytest.raises(ValueError):
        UniPoly([1.0])  # degree 0
    with pytest.raises(ValueError):
        UniPoly([1.0, 0.0])  # zero lead
    with pytest.raises(ValueError):
        UniPoly(np.ones(70))  # beyond the degree cap
    with pytest.raises(ValueError):
        find_roots(UniPoly([1, 1]), tol=0.0)


def test_convergence_error_carries_iterate(monkeypatch):
    # An unreachable sweep budget forces the explicit failure path.
    from deformkit import roots as roots_mod

    monkeypatch.setattr(roots_mod, "MAX_SWEEPS", 1)
    with pytest.raises(RootConvergenceError) as exc:
        find_roots(UniPoly([-1, 0, 0, 0, 0, 1]))
    assert len(exc.value.best_roots) == 5
    assert exc.value.residual > 0



def collide_iterates_3_and_0(monkeypatch):
    from deformkit import roots as roots_mod

    original = roots_mod._initial_points_batch

    def collided(coeffs):
        z0 = original(coeffs).copy()
        z0[:, 3] = z0[:, 0]
        return z0

    monkeypatch.setattr(roots_mod, "_initial_points_batch", collided)


def test_collided_iterates_do_not_certify_a_root_twice(monkeypatch):
    # Two iterates started on one point move together: the row lists one
    # root twice, misses another, and its residual is still tiny.
    rng = np.random.default_rng(0)
    coeffs = rng.normal(size=11) + 1j * rng.normal(size=11)
    collide_iterates_3_and_0(monkeypatch)
    roots, res, converged = solve_batch(coeffs[None, :])
    assert np.max(res) < 1e-12
    assert not converged[0]
    with pytest.raises(RootConvergenceError, match="10 distinct roots") as exc:
        find_roots(UniPoly(coeffs))
    assert len(exc.value.best_roots) == 10


def test_multiple_roots_never_come_out_equal():
    # Exact multiple roots are found as distinct nearby values, so the
    # equal-roots rule does not refuse them.
    rows = []
    for k in range(1, 33):
        rows += [expand_ascending(1.0, [0.0] * k), expand_ascending(1.0, [0.3 + 0.7j] * k),
                 expand_ascending(1.0, [-2.5] * k)]
        if k < 32:
            rows.append(expand_ascending(1.0, [0.0] * k + [1.0]))
    for coeffs in rows:
        roots, _, _ = solve_batch(coeffs[None, :])
        ordered = np.sort(roots[0])
        assert not (ordered[1:] == ordered[:-1]).any(), len(coeffs) - 1


# -- multiplicity clustering -------------------------------------------------------


def test_cluster_double_root():
    r = find_roots(UniPoly([1, -2, 1]))  # (t-1)^2
    assert all(abs(v - 1) < 1e-6 for v, _ in r.roots)
    merged = cluster_multiplicities(r, 1e-4)
    assert len(merged.roots) == 1
    value, mult = merged.roots[0]
    assert mult == 2 and abs(value - 1) < 1e-7


def test_cluster_keeps_separated_roots():
    r = find_roots(UniPoly([-1, 0, 1]))
    merged = cluster_multiplicities(r, 1e-4)
    assert len(merged.roots) == 2
    assert merged.total_multiplicity == 2


def test_cluster_mixed_example():
    from deformkit.roots import RootMultiset

    r = RootMultiset(
        roots=((0.1 + 0j, 1), (0.1 + 1e-6j, 1), (5 + 0j, 1)),
        residual_bound=0.0,
    )
    merged = cluster_multiplicities(r, 1e-4)
    assert sorted(m for _, m in merged.roots) == [1, 2]
    pair = [v for v, m in merged.roots if m == 2][0]
    assert abs(pair - 0.1) < 1e-5
    assert merged.total_multiplicity == 3


def union_find_clusters(r, radius):
    """Oracle: the single-linkage union-find that ``cluster_multiplicities``
    used before its reachability matrix, with its centroid sums."""
    entries = list(r.roots)
    n = len(entries)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(entries[i][0] - entries[j][0]) <= radius:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(entries[i])
    merged = []
    for members in groups.values():
        total = sum(m for _, m in members)
        merged.append((sum(v * m for v, m in members) / total, total))
    merged.sort(key=lambda vm: (vm[0].real, vm[0].imag))
    return tuple(merged)


# Dyadic coordinates on a 1/8 lattice: differences are exact, so pairs sit
# exactly at the radius and chains of linked roots are common.
_lattice = st.integers(-6, 6).map(lambda k: k / 8)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(_lattice, _lattice, st.integers(1, 3)), max_size=12),
    st.sampled_from([0.125, 0.25, 0.3125, 0.5]),
)
def test_cluster_matches_union_find_oracle(entries, radius):
    from deformkit.roots import RootMultiset

    r = RootMultiset(
        roots=tuple((complex(a, b), m) for a, b, m in entries), residual_bound=0.0
    )
    merged = cluster_multiplicities(r, radius)
    assert merged.roots == union_find_clusters(r, radius)
    assert merged.total_multiplicity == r.total_multiplicity


def test_cluster_chains_and_exact_radius():
    from deformkit.roots import RootMultiset

    # 0 - 0.25 - 0.5 - 0.75 is one chain at radius 0.25 (every link exactly
    # at the radius) although its ends are 0.75 apart; 2 is alone.
    roots = ((0.75 + 0j, 1), (0j, 2), (2 + 0j, 1), (0.5 + 0j, 3), (0.25 + 0j, 1))
    r = RootMultiset(roots=roots, residual_bound=0.0)
    merged = cluster_multiplicities(r, 0.25)
    assert merged.roots == union_find_clusters(r, 0.25)
    assert [m for _, m in merged.roots] == [7, 1]
    assert cluster_multiplicities(r, 0.2).roots == union_find_clusters(r, 0.2)
    assert len(cluster_multiplicities(r, 0.2).roots) == 5
    empty = RootMultiset(roots=(), residual_bound=0.0)
    assert cluster_multiplicities(empty, 0.25).roots == ()


def test_cluster_rejects_bad_radius():
    r = find_roots(UniPoly([-1, 0, 1]))
    with pytest.raises(ValueError):
        cluster_multiplicities(r, 0.0)


def test_residual_bound_definition():
    p = UniPoly([-2, 0, 0, 7])
    r = find_roots(p)
    scale = max(1.0, float(np.max(np.abs(p.coeffs))))
    expected = max(abs(p(v)) for v, _ in r.roots) / scale
    assert r.residual_bound == pytest.approx(expected, abs=1e-18)


def test_infinite_residual_is_not_a_result():
    # Horner overflows at |z| ~ 1e200, so the residual bound is infinite;
    # the roots cannot be certified and must not be returned.
    with np.errstate(all="ignore"):
        with pytest.raises(RootConvergenceError) as exc:
            find_roots(UniPoly([1e200, 0, 1]))
    assert "not finite" in str(exc.value)
    assert len(exc.value.best_roots) == 2


# -- batched rows ------------------------------------------------------------------


def assert_rows_equal_one_row_solves(coeffs, roots, res, converged, rows):
    for i, b in enumerate(rows):
        r1, s1, c1 = solve_batch(coeffs[b : b + 1])
        assert roots[i].tobytes() == r1[0].tobytes(), b
        assert res[i].tobytes() == s1[0].tobytes(), b
        assert converged[i] == c1[0], b


@settings(max_examples=25, deadline=None)
@given(
    deg=st.integers(1, 32),
    size=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_batched_rows_do_not_depend_on_their_batch(deg, size, seed, data):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3, 3, size=(size, 1))
    coeffs = scale * (rng.normal(size=(size, deg + 1)) + 1j * rng.normal(size=(size, deg + 1)))
    order = data.draw(st.permutations(range(size)))
    roots, res, converged = solve_batch(coeffs[order])
    assert_rows_equal_one_row_solves(coeffs, roots, res, converged, order)


def test_mixed_scale_batches():
    rng = np.random.default_rng(23)

    def unit_rows(deg):
        return rng.normal(size=(4, deg + 1)) + 1j * rng.normal(size=(4, deg + 1))

    wilkinson10 = np.poly(np.arange(1, 11) / 10.0)[::-1]
    # t^2 + 1e200 and t^10 + 1e35: the iterates overflow and lock on an
    # infinite residual.  t^10 + 1e200: the iterates become NaN.
    huge2 = [1e200, 0, 1]
    huge10 = [[1e35] + [0] * 9 + [1], [1e200] + [0] * 9 + [1]]
    for coeffs, n_huge in (
        (np.vstack([unit_rows(2), [huge2], unit_rows(2)]), 1),
        (np.vstack([unit_rows(10), [wilkinson10], huge10, unit_rows(10)]), 2),
    ):
        coeffs = coeffs.astype(np.complex128)
        with np.errstate(all="ignore"):
            roots, res, converged = solve_batch(coeffs)
        huge = np.abs(coeffs).max(axis=1) > 1e30
        assert huge.sum() == n_huge
        assert not converged[huge].any()
        assert converged[~huge].all()
        rows = np.nonzero(~huge)[0]
        assert_rows_equal_one_row_solves(coeffs, roots[rows], res[rows], converged[rows], rows)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 0.0, -1e-3])
def test_root_parameters_must_be_positive(bad):
    r = find_roots(UniPoly([-1, 0, 1]))
    with pytest.raises(ValueError, match="radius must be positive"):
        cluster_multiplicities(r, bad)
    with pytest.raises(ValueError, match="tol must be positive"):
        find_roots(UniPoly([-1, 0, 1]), bad)


def test_unipoly_is_the_shared_horner():
    from deformkit import _kernels

    rng = np.random.default_rng(44)
    for deg in (1, 2, 7, 16, 33):
        c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        poly = UniPoly(c)
        for z in 1.3 * (rng.normal(size=5) + 1j * rng.normal(size=5)):
            p, dp = _kernels.horner(c[None, :], np.array([[z]]))
            assert poly(z) == p[0, 0]
            assert poly.deriv_at(z) == dp[0, 0]
            assert type(poly(z)) is complex and type(poly.deriv_at(z)) is complex


# -- inclusion discs against exactly known roots -----------------------------------


def exact_coeffs(roots):
    """Ascending coefficients of prod (t - r) over roots given as (re, im)
    pairs of Fractions, computed exactly; each must be exact in float."""
    from fractions import Fraction

    coeffs = [(Fraction(1), Fraction(0))]
    for rr, ri in roots:
        shifted = [(Fraction(0), Fraction(0))] + coeffs  # t * p
        for k, (cr, ci) in enumerate(coeffs):  # minus r * p
            sr, si = shifted[k]
            shifted[k] = (sr - (rr * cr - ri * ci), si - (rr * ci + ri * cr))
        coeffs = shifted
    out = np.array([complex(float(cr), float(ci)) for cr, ci in coeffs])
    exact = [(Fraction(z.real), Fraction(z.imag)) for z in out]
    assert exact == coeffs
    return out


def gaussian(*pairs, scale=1):
    from fractions import Fraction

    return [(Fraction(a) * scale, Fraction(b) * scale) for a, b in pairs]


EXACT_ROOTS = {
    "integers": gaussian((1, 0), (-2, 0), (3, 0), (0, 0), (-1, 0)),
    "gaussian": gaussian((1, 1), (-2, 1), (0, -3), (2, -1), (-1, -2), (3, 2)),
    # four roots 2**-10 (about 1e-3) around 1, and a near-double pair 2**-13
    # (about 1.2e-4) apart; dyadic, so the coefficients stay exact
    "cluster": gaussian((1, 0), (1025, 0), (1024, 1), (1024, -1), scale=2**-10)
    + gaussian((-2, 1), (0, -1)),
    "near-double": gaussian((8192, 0), (8193, 0), scale=2**-13) + gaussian((-1, 1), (0, 2)),
}


@pytest.mark.parametrize("name", EXACT_ROOTS)
def test_inclusion_discs_hold_the_exact_roots(name):
    from deformkit.roots import inclusion_radii

    true = np.array([complex(float(a), float(b)) for a, b in EXACT_ROOTS[name]])
    coeffs = exact_coeffs(EXACT_ROOTS[name])[None, :]
    m = true.size
    solved, _, converged = solve_batch(coeffs)
    assert converged[0]
    # the solved roots, and coarser approximations whose discs are wide
    phases = np.exp(2j * np.pi * np.arange(m) / m + 0.3j)
    for shift in (0.0, 1e-9, 1e-6, 1e-4):
        z = solved + shift * phases
        rho = inclusion_radii(coeffs, z)[0]
        assert np.isfinite(rho).all()
        inside = np.abs(true[:, None] - z[0][None, :]) <= rho[None, :]
        assert inside.any(axis=1).all(), (name, shift)  # every root is covered
        gaps = np.abs(z[0][:, None] - z[0][None, :]) + np.diag(np.full(m, np.inf))
        isolated = (gaps > rho[:, None] + rho[None, :]).all()
        # a shift near the pair's gap of 1.2e-4 merges the near-double discs
        assert isolated == (shift <= 1e-6 or name != "near-double"), (name, shift)
        if isolated:  # each disc holds exactly one root
            assert (inside.sum(axis=0) == 1).all(), (name, shift)
    rho = inclusion_radii(coeffs, solved)[0]
    assert rho.max() < 1e-6  # the solved roots' discs are isolated and tight


def test_inclusion_radii_are_infinite_at_equal_or_non_finite_iterates():
    from deformkit.roots import inclusion_radii

    coeffs = np.array([[-1, 0, 1], [-1, 0, 1]], dtype=np.complex128)
    z = np.array([[0.5, 0.5], [np.nan, 1.0]], dtype=np.complex128)
    assert np.isinf(inclusion_radii(coeffs, z)).all()


def test_solve_batch_from_given_starts():
    coeffs = np.array([[-1, 0, 1], [6, -5, 1]], dtype=np.complex128)
    cold = solve_batch(coeffs)
    roots, res, converged = solve_batch(coeffs, z0=np.array([[-0.9, 1.1], [2.1, 2.9]]))
    assert converged.all()
    assert np.allclose(np.sort_complex(roots), np.sort_complex(cold[0]))
    # the default start is the rotated Cauchy circle, bit for bit
    from deformkit.roots import _initial_points_batch

    again = solve_batch(coeffs, z0=_initial_points_batch(coeffs))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(again, cold))


@pytest.mark.parametrize("coeffs", [[1.0, 5e-324], [1e308, -1.0, 1e-300]])
def test_overflowing_cauchy_radius_warns_nothing(coeffs):
    # The start circle's radius overflows to inf; the row comes out
    # unconverged, and no RuntimeWarning reaches the caller.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, converged = solve_batch(np.array([coeffs], dtype=np.complex128))
    assert not converged[0]


def test_cluster_bound_of_a_huge_coefficient_warns_nothing():
    # Horner at the centroids of 1e308 t^2 - 1 overflows; the check then
    # sees an inf bound, and no RuntimeWarning reaches the caller.
    r = find_roots(UniPoly([-1.0, 0.0, 1e308]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        merged = cluster_multiplicities(r)
    assert sorted(m for _, m in merged.roots) == [1, 1]
