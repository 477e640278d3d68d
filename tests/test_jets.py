"""Jet arithmetic, standard parts, homomorphism laws, and root lifting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deformkit import (
    INFINITE,
    Jet,
    JetPoly,
    MultipleRootError,
    SparsePoly,
    UniPoly,
    approx,
    approx_poly,
    coeff_sup_distance,
    find_roots,
    hensel_lift_root,
    jet_align_roots,
    jet_arith,
    st_poly,
    standard_part,
)

K = 8


def jet(*coeffs, min_exp=0, order=K):
    arr = np.zeros(order - min_exp + 1, dtype=np.complex128)
    arr[: len(coeffs)] = coeffs
    return Jet(min_exp, arr, order)


def sqrt_series(x0, order):
    """Oracle: Taylor coefficients of sqrt(x0 + e) via the binomial recurrence."""
    out = [complex(np.sqrt(x0))]
    for k in range(1, order + 1):
        out.append(out[-1] * (0.5 - (k - 1)) / (k * x0))
    return out


# -- arithmetic ----------------------------------------------------------------


def test_product_expands_and_truncates():
    a = jet(2, 1)  # 2 + e
    b = jet(3, -1)  # 3 - e
    c = a * b
    assert c.coeff(0) == 6 and c.coeff(1) == 1 and c.coeff(2) == -1
    assert all(c.coeff(k) == 0 for k in range(3, K + 1))


def test_inverse_of_eps_is_infinite():
    inv = jet_arith(Jet.constant(1), Jet.eps(), "div")
    assert inv.min_exp == -1
    assert inv.coeff(-1) == 1
    assert standard_part(inv) is INFINITE


def test_additive_identity():
    a = jet(1.5, -2.0, 0.25)
    assert a + Jet.zero() == a
    assert jet_arith(a, Jet.zero(), "add") == a


def test_subtraction_and_negation():
    a, b = jet(1, 2), jet(0.5, 2)
    assert (a - b).coeff(0) == 0.5
    assert (a - b).coeff(1) == 0
    assert (-a).coeff(0) == -1


def test_division_round_trips():
    rng = np.random.default_rng(12)
    for _ in range(40):
        a_coeffs = rng.normal(size=K + 1) + 1j * rng.normal(size=K + 1)
        b_coeffs = rng.normal(size=K + 1) + 1j * rng.normal(size=K + 1)
        b_coeffs[0] += 2.0  # keep the divisor a unit
        a, b = jet(*a_coeffs), jet(*b_coeffs)
        q = a / b
        back = q * b
        assert max(abs(back.coeff(k) - a.coeff(k)) for k in range(K + 1)) < 1e-10


def test_division_by_infinitesimal_shifts_down():
    one = Jet.constant(1)
    e2 = Jet.eps() * Jet.eps()
    q = one / e2
    assert q.min_exp == -2
    assert (q * e2).coeff(0) == 1


def test_division_by_zero_jet_rejected():
    with pytest.raises(ZeroDivisionError):
        Jet.constant(1) / Jet.zero()


def test_mixed_orders_truncate_to_smaller():
    a = Jet.constant(1, order=8)
    b = Jet.eps(order=4)
    assert (a + b).order == 4
    assert (a * b).order == 4


def test_high_powers_truncate_to_zero():
    e = Jet.eps(order=4)
    assert (e**5).is_zero()


def test_order_bounds_validated():
    with pytest.raises(ValueError):
        Jet.constant(1, order=0)
    with pytest.raises(ValueError):
        Jet.constant(1, order=33)


def test_fractional_order_is_refused_not_truncated():
    f = UniPoly([-1, 0, 1])
    g = JetPoly(1, {(0,): Jet(0, [-1, 1], 1), (2,): Jet.constant(1, 1)}, 1)
    with pytest.raises(TypeError):
        jet_align_roots(f, g, order=1.9)
    with pytest.raises(TypeError):
        Jet.constant(1, order=2.0)
    assert Jet.constant(1, order=np.int64(2)).order == 2


# -- standard part and closeness ---------------------------------------------------


def test_standard_part_reads_constant_term():
    assert standard_part(jet(3, 5, -1)) == 3


def test_standard_part_of_infinitesimal_is_zero():
    assert standard_part(Jet.eps()) == 0


def test_standard_part_of_infinite_is_marker():
    assert standard_part(Jet.eps(power=-1)) is INFINITE


def test_standard_part_identity_on_constants():
    c = 2.5 - 1.5j
    assert standard_part(Jet.constant(c)) == c


def test_approx_examples():
    assert approx(jet(1, 1), jet(1, 0, 0, 3))  # 1+e vs 1+3e^2
    assert not approx(Jet.constant(1), Jet.constant(2))
    assert approx(Jet.eps(), Jet.eps() * Jet.eps())


def test_approx_rejects_infinite_operands():
    with pytest.raises(ValueError):
        approx(Jet.eps(power=-1), Jet.constant(0))


finite_jets = st.builds(
    lambda cs: jet(*[complex(a, b) for a, b in cs]),
    st.lists(
        st.tuples(
            st.floats(-10, 10, allow_nan=False),
            st.floats(-10, 10, allow_nan=False),
        ),
        min_size=1,
        max_size=K + 1,
    ),
)


@settings(max_examples=200, deadline=None)
@given(finite_jets, finite_jets)
def test_standard_part_is_a_ring_homomorphism(a, b):
    assert standard_part(a + b) == standard_part(a) + standard_part(b)
    prod = standard_part(a * b)
    assert abs(prod - standard_part(a) * standard_part(b)) <= 1e-12 * (1 + abs(prod))


# -- jet polynomials ------------------------------------------------------------------


def deformed_poly(rng, base: SparsePoly, scale=0.5) -> JetPoly:
    """Base polynomial with random infinitesimal tails on each coefficient."""
    terms = {}
    for idx, c in base.terms.items():
        tail = scale * (rng.normal(size=K) + 1j * rng.normal(size=K)) / 8
        terms[idx] = Jet(0, np.concatenate(([c], tail)), K)
    return JetPoly(base.nvars, terms, K)


def test_st_poly_examples():
    e = Jet.eps()
    g = JetPoly(1, {(2,): Jet.constant(1) + e, (0,): -(Jet.constant(2) - e**3)})
    assert st_poly(g) == SparsePoly(1, {(2,): 1, (0,): -2})

    base = SparsePoly(2, {(1, 1): 2.0, (0, 0): 1.5j})
    assert st_poly(JetPoly.from_sparse(base)) == base

    tiny = JetPoly(1, {(1,): e})
    assert st_poly(tiny).is_zero()


def test_st_poly_rejects_infinite_coefficients():
    g = JetPoly(1, {(1,): Jet.eps(power=-1)})
    with pytest.raises(ValueError):
        st_poly(g)


def test_st_poly_is_a_ring_homomorphism():
    rng = np.random.default_rng(77)
    for _ in range(60):
        n = int(rng.integers(1, 3))
        base1 = SparsePoly(
            n,
            {
                tuple(int(x) for x in rng.integers(0, 3, n)): complex(
                    *rng.uniform(-1, 1, 2)
                )
                for _ in range(int(rng.integers(1, 4)))
            },
        )
        base2 = SparsePoly(
            n,
            {
                tuple(int(x) for x in rng.integers(0, 3, n)): complex(
                    *rng.uniform(-1, 1, 2)
                )
                for _ in range(int(rng.integers(1, 4)))
            },
        )
        g, h = deformed_poly(rng, base1), deformed_poly(rng, base2)
        assert coeff_sup_distance(st_poly(g + h), st_poly(g) + st_poly(h)) <= 1e-12
        assert coeff_sup_distance(st_poly(g * h), st_poly(g) * st_poly(h)) <= 1e-12


def test_poly_closeness_iff_equal_standard_parts():
    rng = np.random.default_rng(41)
    base = SparsePoly(2, {(1, 0): 1.0, (0, 2): -2.0, (0, 0): 0.5j})
    g = deformed_poly(rng, base)
    h = deformed_poly(rng, base)
    assert approx_poly(g, h)
    assert st_poly(g) == st_poly(h)

    shifted = JetPoly.from_sparse(base + SparsePoly.constant(2, 0.25), K)
    assert not approx_poly(g, shifted)
    assert st_poly(g) != st_poly(shifted)


def test_poly_closeness_across_orders():
    # Orders 3 and 20 compare by standard parts; the (1,) term of ``high``
    # is infinitesimal, so it matches the zero jet that ``low`` lacks.
    low = JetPoly.from_sparse(SparsePoly(1, {(2,): 1.0, (0,): -1.0}), 3)
    one, eps = Jet.constant(1.0, 20), Jet.eps(20)
    high = JetPoly(1, {(2,): one + eps**15, (1,): eps, (0,): -one}, 20)
    assert approx_poly(low, high) and approx_poly(high, low)
    moved = JetPoly(1, {(2,): one, (1,): 1e-6 * one, (0,): -one}, 20)
    assert not approx_poly(low, moved) and not approx_poly(moved, low)


def test_poly_closeness_refuses_an_infinite_coefficient():
    # Whatever coefficient the comparison reaches first, an infinite one
    # raises: (1,) differs by 1, so a scan could stop before (0,).
    g = JetPoly(1, {(1,): Jet.constant(1.0), (0,): 1 / Jet.eps()})
    h = JetPoly(1, {(0,): 1 / Jet.eps()})
    for a, b in ((g, h), (h, g), (g, g)):
        with pytest.raises(ValueError, match="infinite"):
            approx_poly(a, b)


def test_closeness_respects_sums_and_products():
    rng = np.random.default_rng(55)
    for _ in range(25):
        b1 = SparsePoly(1, {(2,): 1.0, (0,): complex(*rng.uniform(-1, 1, 2))})
        b2 = SparsePoly(1, {(1,): -0.5, (0,): complex(*rng.uniform(-1, 1, 2))})
        g1, h1 = deformed_poly(rng, b1), deformed_poly(rng, b1)
        g2, h2 = deformed_poly(rng, b2), deformed_poly(rng, b2)
        assert approx_poly(g1 + g2, h1 + h2)
        assert approx_poly(g1 * g2, h1 * h2)


def test_jetpoly_evaluate_at_mixed_point():
    # t1*t2 - 1 at (e, 1/e) vanishes identically in the model
    g = JetPoly.from_sparse(SparsePoly(2, {(1, 1): 1.0, (0, 0): -1.0}))
    val = g.evaluate([Jet.eps(), 1 / Jet.eps()])
    assert val.is_zero()


def test_jet_json_round_trip():
    a = Jet(-2, np.arange(1, K + 4) * (1 + 0.5j), K)
    assert Jet.from_json_dict(a.to_json_dict()) == a
    g = JetPoly(1, {(2,): jet(1, 0.25), (0,): jet(-1, 0, 0.125)})
    assert JetPoly.from_json_dict(g.to_json_dict()) == g


def test_jet_json_rejects_a_duplicate_exponent_tuple():
    data = JetPoly(1, {(2,): jet(1), (0,): jet(-1)}).to_json_dict()
    data["terms"].append({"exps": [2], "jet": jet(5).to_json_dict()})
    with pytest.raises(ValueError, match="duplicate exponent tuple"):
        JetPoly.from_json_dict(data)


def test_jetpoly_rejects_a_non_integral_nvars():
    with pytest.raises(TypeError):
        JetPoly(1.9, {(2,): jet(1)})
    assert JetPoly(np.int64(1), {(2,): jet(1)}).nvars == 1


# -- lifting ---------------------------------------------------------------------------


def shifted_square(order=K) -> JetPoly:
    """t**2 - (1 + e)."""
    return JetPoly(
        1,
        {(2,): Jet.constant(1, order), (0,): -(Jet.constant(1, order) + Jet.eps(order))},
        order,
    )


def test_lift_matches_binomial_series():
    w = hensel_lift_root(UniPoly([-1, 0, 1]), 1.0, shifted_square())
    oracle = sqrt_series(1.0, K)
    for k in range(K + 1):
        assert abs(w.coeff(k) - oracle[k]) < 1e-10
    residual = shifted_square().evaluate([w])
    assert all(abs(residual.coeff(k)) <= 1e-9 for k in range(K + 1))


def test_lift_linear_case_is_exact():
    a = 0.7 - 0.2j
    f = UniPoly([-a, 1])
    g = JetPoly(1, {(1,): Jet.constant(1), (0,): -(Jet.constant(a) + Jet.eps())})
    w = hensel_lift_root(f, a, g)
    assert w.coeff(0) == a and w.coeff(1) == 1
    assert all(w.coeff(k) == 0 for k in range(2, K + 1))


def test_lift_rejects_multiple_roots():
    f = UniPoly([1, -2, 1])
    g = JetPoly.from_sparse(f.to_sparse())
    with pytest.raises(MultipleRootError):
        hensel_lift_root(f, 1.0, g)


def test_lift_rejects_standard_part_mismatch():
    f = UniPoly([-1, 0, 1])
    wrong = JetPoly.from_sparse(SparsePoly(1, {(2,): 1.0, (0,): -1.5}))
    with pytest.raises(ValueError):
        hensel_lift_root(f, 1.0, wrong)


def test_lift_rejects_non_roots():
    # 1 + 1e-12 gives |f| = 2e-12, 15 times the rounding bound
    # 100 u (1 + 1 + (1 + 1) 2).
    f = UniPoly([-1, 0, 1])
    for zeta in (0.5, 1.0 + 1e-6, 1.0 + 1e-12):
        with pytest.raises(ValueError, match="is not a root of the base polynomial"):
            hensel_lift_root(f, zeta, shifted_square())


def test_lift_truncation_consistency():
    w8 = hensel_lift_root(UniPoly([-1, 0, 1]), 1.0, shifted_square(8))
    w5 = hensel_lift_root(UniPoly([-1, 0, 1]), 1.0, shifted_square(5))
    for k in range(6):
        assert abs(w8.coeff(k) - w5.coeff(k)) < 1e-10


def test_standard_part_of_lift_is_the_root():
    w = hensel_lift_root(UniPoly([-1, 0, 1]), -1.0, shifted_square())
    assert standard_part(w) == -1.0


def tail_jet(f: UniPoly, order: int, seed: int = 0) -> JetPoly:
    """f + e * h with a seeded first-order tail h of size 0.1."""
    rng = np.random.default_rng(seed)
    terms = {}
    for k, a in enumerate(f.coeffs):
        coeffs = np.zeros(order + 1, dtype=np.complex128)
        coeffs[0] = a
        coeffs[1] = 0.1 * complex(*rng.normal(size=2))
        terms[(k,)] = Jet(0, coeffs, order)
    return JetPoly(1, terms, order)


def test_lift_accepts_a_root_whose_residual_is_rounding_noise():
    # 15 roots on the unit circle and one at -4.3: |f| at the computed far
    # root is 7e-7, rounding noise of sum |a_k| |zeta|^k ~ 1e10, though
    # above 1e-8 max|a_k|.
    theta = 2 * np.pi * (np.arange(15) + 0.1) / 15
    f = UniPoly(np.poly(np.append(np.exp(1j * theta), -4.3))[::-1])
    far = min((z for z, _ in find_roots(f).roots), key=lambda z: z.real)
    assert abs(f(far)) > 1e-8 * max(1.0, np.abs(f.coeffs).max())
    w = hensel_lift_root(f, far, tail_jet(f, 8))
    assert standard_part(w) == far and w.coeff(1) != 0


def test_lift_accepts_a_tiny_root_where_the_root_is_zero():
    # The solver returns 3.8e-65 for the root 0 of 1e-5 t: |f| is all of
    # sum |a_k| |zeta|^k, yet zeta is 3.8e-65 from the root.
    f = UniPoly([0, 1e-5])
    (zeta, _), = find_roots(f).roots
    assert 0 < abs(zeta) < 1e-60
    e = Jet.eps()
    w = hensel_lift_root(f, zeta, JetPoly(1, {(1,): Jet.constant(1e-5), (0,): e}))
    assert w.coeff(0) == zeta and abs(w.coeff(1) + 1e5) < 1e-9


def test_lift_accepts_huge_coefficients_at_their_rounding_scale():
    # Roots k/10 of Wilkinson's polynomial: the order-8 lift coefficients
    # reach 1e41, so its residual is far above any absolute tolerance.
    f = UniPoly(np.poly(np.arange(1, 11) / 10.0)[::-1])
    alignment = jet_align_roots(f, tail_jet(f, 8))
    assert len(alignment.pairs) == 10 and not alignment.skipped
    assert max(np.abs(w.coeffs).max() for _, w in alignment.pairs) > 1e40


def test_lift_of_an_array_returns_a_tuple_in_order():
    lifts = hensel_lift_root(UniPoly([-1, 0, 1]), np.array([1.0, -1.0]), shifted_square())
    assert isinstance(lifts, tuple) and len(lifts) == 2
    assert lifts == (
        hensel_lift_root(UniPoly([-1, 0, 1]), 1.0, shifted_square()),
        hensel_lift_root(UniPoly([-1, 0, 1]), -1.0, shifted_square()),
    )
    assert hensel_lift_root(UniPoly([-1, 0, 1]), np.array([]), shifted_square()) == ()


@settings(max_examples=40, deadline=None)
@given(
    degree=st.integers(1, 32),
    order=st.integers(1, 32),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_lifts_are_bit_identical_to_one_root_lifts(degree, order, seed):
    rng = np.random.default_rng(seed)
    theta = 2 * np.pi * (np.arange(degree) + rng.uniform(-0.2, 0.2, degree)) / degree
    roots = rng.uniform(0.9, 1.1, degree) * np.exp(1j * theta)
    f = UniPoly(np.poly(roots)[::-1])
    g = tail_jet(f, order, seed=int(rng.integers(2**31)))
    zetas = np.array([z for z, _ in find_roots(f).roots])[rng.permutation(degree)]
    batch = hensel_lift_root(f, zetas, g)
    for i in rng.choice(degree, size=min(degree, 2), replace=False):
        one = hensel_lift_root(f, zetas[i], g)
        assert one.min_exp == batch[i].min_exp
        assert one.coeffs.tobytes() == batch[i].coeffs.tobytes()


def test_lift_rows_give_the_shared_row_lift():
    # One coefficient row per root, as the variety check builds them, lifts
    # each root exactly as the one row shared by all roots does, Newton
    # derivative included.
    from deformkit.jets import _lift_simple_roots

    rng = np.random.default_rng(8)
    f = UniPoly(np.poly(rng.normal(size=5) + 1j * rng.normal(size=5))[::-1])
    g = tail_jet(f, 12, seed=3)
    zetas = np.array([z for z, _ in find_roots(f).roots])
    shared = np.array([g.terms[(i,)]._window(0, 12) for i in range(6)])[None]
    W1, res1, bound1, ok1 = _lift_simple_roots(shared, zetas)
    rows = np.repeat(shared, zetas.size, axis=0)
    W2, res2, bound2, ok2 = _lift_simple_roots(rows, zetas)
    assert W1.tobytes() == W2.tobytes() and ok1.all() and ok2.all()
    assert res1.tobytes() == res2.tobytes() and bound1.tobytes() == bound2.tobytes()
    lifts = hensel_lift_root(f, zetas, g)
    assert all(w.coeffs.tobytes() == row.tobytes() for w, row in zip(lifts, W1))


def lift_by_full_horner(G, z):
    """Reference: the earlier lift, one full ``_series_horner`` per order."""
    from deformkit.jets import _ZERO_TOL, _kernels, _series_horner

    K = G.shape[2] - 1
    with np.errstate(over="ignore", invalid="ignore"):
        dp = _kernels.horner(G[:, :, 0], z[:, None])[1][:, 0]
        W = np.zeros((z.size, K + 1), dtype=np.complex128)
        W[:, 0] = z
        for k in range(1, K + 1):
            W[:, k] -= _series_horner(G, W[:, : k + 1])[:, k] / dp
        res = np.abs(_series_horner(G, W)[:, 1:])
        bound = _ZERO_TOL * _series_horner(np.abs(G), np.abs(W))[:, 1:]
    ok = (res <= bound) & np.isfinite(bound) & np.isfinite(W[:, 1:])
    return W, res, bound, ok


@settings(max_examples=60, deadline=None)
@given(
    degree=st.integers(1, 32),
    order=st.integers(1, 32),
    per_row=st.booleans(),
    infinite=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_cached_column_lift_is_bit_identical_to_full_horner(
    degree, order, per_row, infinite, seed
):
    from deformkit.jets import _lift_simple_roots

    rng = np.random.default_rng(seed)
    theta = 2 * np.pi * (np.arange(degree) + rng.uniform(-0.2, 0.2, degree)) / degree
    z = rng.uniform(0.9, 1.1, degree) * np.exp(1j * theta)
    rows = degree if per_row or infinite else 1
    G = np.zeros((rows, degree + 1, order + 1), dtype=np.complex128)
    G[:, :, 0] = np.poly(z)[::-1]
    G[:, :, 1:] = rng.normal(size=(rows, degree + 1, order)) + 1j * rng.normal(
        size=(rows, degree + 1, order)
    )
    if infinite:  # an infinite coefficient in one row
        G[rng.integers(rows), rng.integers(degree + 1), rng.integers(1, order + 1)] = np.inf
    got = _lift_simple_roots(G, z)
    want = lift_by_full_horner(G, z)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


# -- alignment of whole root sets ----------------------------------------------------


def test_align_square_pair_is_symmetric():
    alignment = jet_align_roots(UniPoly([-1, 0, 1]), shifted_square())
    assert not alignment.skipped
    lifts = {round(z.real): w for z, w in alignment.pairs}
    plus, minus = lifts[1], lifts[-1]
    for k in range(K + 1):
        assert abs(plus.coeff(k) + minus.coeff(k)) < 1e-10


def test_align_trivial_shift():
    f = UniPoly([0, 1])
    g = JetPoly(1, {(1,): Jet.constant(1), (0,): -Jet.eps()})
    alignment = jet_align_roots(f, g)
    assert len(alignment.pairs) == 1
    z, w = alignment.pairs[0]
    assert abs(z) < 1e-12
    assert w.coeff(1) == 1 and standard_part(w) == 0


def test_align_skips_multiple_roots():
    # (t-1)^2 (t+2) = t^3 - 3t + 2
    f = UniPoly([2, -3, 0, 1])
    e = Jet.eps()
    g = JetPoly(
        1,
        {
            (3,): Jet.constant(1),
            (1,): Jet.constant(-3),
            (0,): Jet.constant(2) + e,
        },
    )
    alignment = jet_align_roots(f, g)
    assert len(alignment.pairs) == 1
    z, w = alignment.pairs[0]
    assert abs(z + 2) < 1e-8
    assert standard_part(w) == z
    assert len(alignment.skipped) == 1
    zskip, mult, _ = alignment.skipped[0]
    assert abs(zskip - 1) < 1e-6 and mult == 2


def test_align_keeps_derivative_skips_of_a_cluster():
    # Four roots within 1e-3 of 0.5 keep |f'| below 1e-6 without merging.
    cluster = 0.5 + 1e-3 * np.exp(2j * np.pi * (np.arange(4) / 4 + 0.1))
    others = 1.5 * np.exp(2j * np.pi * np.arange(5) / 5)
    f = UniPoly(np.poly(np.append(others, cluster))[::-1])
    alignment = jet_align_roots(f, tail_jet(f, 8))
    assert len(alignment.pairs) == 5
    assert sorted(m for _, m, _ in alignment.skipped) == [1, 1, 1, 1]
    assert {why for _, _, why in alignment.skipped} == {
        "derivative below simple-root threshold"
    }
    for z, _, _ in alignment.skipped:
        assert min(abs(z - cluster)) < 1e-6


def test_align_makes_one_lift_call(monkeypatch):
    # The benchmark tracer wraps ``deformkit.jets.hensel_lift_root`` and the
    # CLI's binding of it, and requires calls through them.
    import deformkit.cli as cli_mod
    import deformkit.jets as jets_mod

    assert cli_mod.hensel_lift_root is jets_mod.hensel_lift_root
    calls = []
    lift = jets_mod.hensel_lift_root

    def counted(*args, **kwargs):
        calls.append(args[1])
        return lift(*args, **kwargs)

    monkeypatch.setattr(jets_mod, "hensel_lift_root", counted)
    assert len(jet_align_roots(UniPoly([-1, 0, 1]), shifted_square()).pairs) == 2
    assert len(calls) == 1 and len(calls[0]) == 2
    double = UniPoly([1, -2, 1])
    assert not jet_align_roots(double, JetPoly.from_sparse(double.to_sparse())).pairs
    assert len(calls) == 2 and len(calls[1]) == 0


def test_alignment_serialization():
    alignment = jet_align_roots(UniPoly([-1, 0, 1]), shifted_square())
    data = alignment.to_json_dict()
    assert len(data["pairs"]) == 2 and data["skipped"] == []


def test_jet_arith_rejects_unknown_op():
    with pytest.raises(ValueError):
        jet_arith(Jet.constant(1), Jet.constant(1), "mod")


def test_jet_values_are_immutable():
    a = Jet.constant(1)
    with pytest.raises(AttributeError):
        a.order = 4
    with pytest.raises(ValueError):
        a.coeffs[0] = 2.0  # the buffer is read-only
