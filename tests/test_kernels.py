"""The NumPy kernels against independent oracles: a brute-force grid
supremum, per-point evaluation, ``numpy.polynomial`` and ``numpy.roots``."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from deformkit import _kernels, delta_bound, random_deformation
from deformkit.polynomials import SparsePoly
from deformkit.roots import UniPoly, _initial_points_batch
from deformkit.varieties import _term_arrays, complex_grid_axis, eval_at_points

EPS = float(np.finfo(np.float64).eps)


def random_problem(rng):
    n = int(rng.integers(1, 4))
    nterms = int(rng.integers(1, 9))
    exps = rng.integers(0, 5, size=(nterms, n)).astype(np.int64)
    coeffs = (rng.normal(size=nterms) + 1j * rng.normal(size=nterms)).astype(
        np.complex128
    )
    axes = [
        np.ascontiguousarray(
            rng.normal(size=int(rng.integers(2, 25)))
            + 1j * rng.normal(size=1) * rng.normal()
        ).astype(np.complex128)
        for _ in range(n)
    ]
    return exps, coeffs, axes


def brute_sup(exps, coeffs, axes):
    worst, arg = -1.0, -1
    for flat, ks in enumerate(itertools.product(*[range(a.size) for a in axes])):
        total = 0j
        for t in range(coeffs.size):
            v = coeffs[t]
            for j, k in enumerate(ks):
                v *= axes[j][k] ** exps[t, j]
            total += v
        if abs(total) > worst:
            worst, arg = abs(total), flat
    return worst, arg


def grid_values(exps, coeffs, axes):
    """The product-grid evaluator that ``fiber_split`` absorbed, kept as an
    oracle: ``sum_t coeffs[t] * prod_j x_j**exps[t, j]`` over the product
    of ``axes``, in C order (last axis fastest), summed in term order."""
    vals = np.zeros(math.prod(a.size for a in axes), dtype=np.complex128)
    for t in range(coeffs.size):
        vec = np.asarray(coeffs[t])
        for j, a in enumerate(axes):
            vec = np.multiply.outer(vec, a ** exps[t, j])
        vals += vec.ravel()
    return vals


def test_grid_sup_matches_bruteforce():
    rng = np.random.default_rng(101)
    for _ in range(25):
        exps, coeffs, axes = random_problem(rng)
        s, _ = _kernels.grid_sup_abs(exps, coeffs, axes)
        b, _ = brute_sup(exps, coeffs, axes)
        assert s == pytest.approx(b, rel=1e-9, abs=1e-11)


def test_grid_sup_matches_bruteforce_small():
    rng = np.random.default_rng(7)
    for _ in range(10):
        exps, coeffs, axes = random_problem(rng)
        axes = [a[:5] for a in axes]
        s, flat = _kernels.grid_sup_abs(exps, coeffs, axes)
        b, bflat = brute_sup(exps, coeffs, axes)
        assert s == pytest.approx(b, rel=1e-11)
        assert flat == bflat


def test_grid_sup_empty_cases():
    exps = np.zeros((0, 2), dtype=np.int64)
    coeffs = np.zeros(0, dtype=np.complex128)
    axes = [np.ones(3, dtype=np.complex128)] * 2
    assert _kernels.grid_sup_abs(exps, coeffs, axes) == (0.0, 0)
    axes = [np.zeros(0, dtype=np.complex128), np.ones(3, dtype=np.complex128)]
    exps = np.ones((1, 2), dtype=np.int64)
    coeffs = np.ones(1, dtype=np.complex128)
    assert _kernels.grid_sup_abs(exps, coeffs, axes) == (0.0, -1)


def test_grid_sup_survives_overflowing_squares(monkeypatch):
    # |value|**2 overflows above ~1.3e154; the supremum and its argmax must
    # still be the brute-force ones.  A small chunk size puts overflowed and
    # finite chunks side by side, and overflowed chunks next to each other.
    monkeypatch.setattr(_kernels, "_CHUNK_ELEMS", 16)
    rng = np.random.default_rng(1601)
    for scale in (1e160, 1e200, 1e300):
        for _ in range(6):
            exps, coeffs, axes = random_problem(rng)
            axes = [a[:9] for a in axes]
            coeffs = coeffs * scale
            s, flat = _kernels.grid_sup_abs(exps, coeffs, axes)
            b, bflat = brute_sup(exps, coeffs, axes)
            assert s == pytest.approx(b, rel=1e-11)
            assert flat == bflat
    # Values from 1e135 to 1e156 along one axis: the first chunk of 16 stays
    # below the overflow, the later ones pass it.
    axis = np.linspace(0.001, 1.0, 50).astype(np.complex128)
    exps = np.array([[7]], dtype=np.int64)
    coeffs = np.array([1e156 + 0j])
    s, flat = _kernels.grid_sup_abs(exps, coeffs, [axis])
    assert (s, flat) == (1e156, 49)


def full_scan_sup(exps, coeffs, axes):
    """The full scan that the pruned one replaced: every grid point, in
    blocks of last-axis rows, ranked by ``(sup**2, sup)``; ties go to the
    smallest last-axis index, then the smallest outer index."""
    exps = np.asarray(exps, dtype=np.int64)
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    last, outer_axes = axes[-1], axes[:-1]
    g_last = np.unique(exps[:, -1])
    rows = np.searchsorted(g_last, exps[:, -1])
    outer = math.prod(a.size for a in outer_axes)
    partial = np.empty((g_last.size, outer), dtype=np.complex128)
    for r in range(g_last.size):
        sel = rows == r
        partial[r] = grid_values(exps[sel, :-1], coeffs[sel], outer_axes)
    pow_last = last[:, None] ** g_last[None, :]
    best, best_flat = (-1.0, math.nan), 0
    chunk = max(1, (1 << 20) // outer)
    for start in range(0, last.size, chunk):
        vals = pow_last[start : start + chunk] @ partial
        with np.errstate(over="ignore"):
            mag2 = vals.real**2
            mag2 += vals.imag**2
        top = float(mag2.max())
        if top == np.inf:
            mag2 = np.abs(vals)
            key = (top, float(mag2.max()))
        else:
            key = (top, math.sqrt(top))
        if key > best:
            best = key
            kk, m = divmod(int(np.argmax(mag2)), outer)
            best_flat = m * last.size + (start + kk)
    return best[1], best_flat


def test_pruned_scan_matches_the_full_scan():
    rng = np.random.default_rng(1501)
    for i in range(120):
        exps, coeffs, axes = random_problem(rng)
        if i % 2:
            axes = [complex_grid_axis(float(rng.choice([1.0, 2.0])), 9)] * len(axes)
        s, flat = _kernels.grid_sup_abs(exps, coeffs, axes)
        want, want_flat = full_scan_sup(exps, coeffs, axes)
        assert abs(s - want) <= 1e-15 * want
        assert flat == want_flat


@pytest.mark.parametrize(
    "exps, coeffs",
    [
        ([[2, 0, 1]], [0.5 + 0.25j]),  # monomials: ties under the axes' symmetry
        ([[1, 1, 1]], [1.0]),
        ([[0, 0, 4]], [-0.5j]),
        ([[0, 0, 0]], [0.3]),  # constant: every point ties
        ([[1, 0, 2], [0, 0, 0]], [0.5j, 0.25]),  # no t_2
        ([[3, 1, 0], [1, 0, 0]], [0.25, -1.0]),  # no t_3
        ([[0, 2, 1], [0, 0, 3]], [1.0, 0.5 - 0.5j]),  # no t_1
    ],
)
@pytest.mark.parametrize("T", [1.0, 2.0])
def test_pruned_scan_breaks_ties_like_the_full_scan(exps, coeffs, T):
    # Axis values and coefficients are dyadic, so every product and sum is
    # exact and the ties are exact ties, whatever the block shapes.
    axes = [complex_grid_axis(T, 5)] * 3
    got = _kernels.grid_sup_abs(exps, coeffs, axes)
    assert got == full_scan_sup(exps, coeffs, axes)
    b, _ = brute_sup(np.array(exps), np.array(coeffs, dtype=np.complex128), axes)
    assert got[0] == b


def test_a_nan_anywhere_gives_a_nan_supremum():
    axes = [np.array([1.0, 2.0, 3.0], dtype=np.complex128)] * 2
    s, flat = _kernels.grid_sup_abs([[1, 1]], [math.nan], axes)
    assert math.isnan(s) and flat == 0
    # One outer point only: (1e308 + 0j)**2 is not finite.
    axes = [np.array([1.0, 1e308, 3.0], dtype=np.complex128), axes[1]]
    with np.errstate(over="ignore", invalid="ignore"):
        s, flat = _kernels.grid_sup_abs([[2, 1], [0, 1]], [1.0, 1.0], axes)
    assert math.isnan(s) and flat == 0


@pytest.mark.parametrize("n", [3, 4])
def test_peeled_grids_prune_and_match_bruteforce(monkeypatch, n):
    # A small outer limit peels the first axis (twice at n = 4); every slice
    # prunes against the suprema of the slices before it.
    monkeypatch.setattr(_kernels, "_OUTER_LIMIT", 4)
    evaluated = []
    block_max = _kernels._block_max

    def counting(a, b, scratch):
        evaluated.append(a.shape[0] * b.shape[1])
        return block_max(a, b, scratch)

    monkeypatch.setattr(_kernels, "_block_max", counting)
    rng = np.random.default_rng(1502 + n)
    total = 0
    for _ in range(12):
        exps = rng.integers(0, 4, size=(int(rng.integers(1, 6)), n))
        coeffs = rng.normal(size=len(exps)) + 1j * rng.normal(size=len(exps))
        axes = [rng.normal(size=5) + 1j * rng.normal(size=5) for _ in range(n)]
        s, flat = _kernels.grid_sup_abs(exps, coeffs, axes)
        b, bflat = brute_sup(exps, coeffs, axes)
        assert s == pytest.approx(b, rel=1e-12)
        assert flat == bflat
        total += 5**n
    assert sum(evaluated) < total / 2


@pytest.mark.parametrize("scale", [1.0, 1e-160, 1e-300, 1e160, 1e200, 1e250, 1e300])
def test_fiber_bounds_cover_every_computed_value(scale):
    rng = np.random.default_rng(1503)
    for _ in range(30):
        exps, coeffs, axes = random_problem(rng)
        powers, partial = _kernels.fiber_split(exps, coeffs * scale, axes[:-1])
        pow_last = axes[-1][:, None] ** powers
        col, row = _kernels._fiber_bounds(partial, pow_last)
        for rows, cols in ((slice(None), slice(None)), (slice(None, None, 2), slice(1, None, 3))):
            vals = pow_last[rows] @ partial[:, cols]
            # The ranked value: sqrt(re**2 + im**2), or |value| past its overflow.
            with np.errstate(over="ignore"):
                mag2 = vals.real**2 + vals.imag**2
            ranked = np.where(np.isinf(mag2), np.abs(vals), np.sqrt(mag2))
            c, r = col[cols][None, :], row[rows][:, None]
            for v in (np.abs(vals), ranked):
                assert not (v > c).any() and not (v > r).any()
            # A finite bound also rules out NaN values.
            assert not (np.isnan(vals) & np.isfinite(c)).any()
            assert not (np.isnan(vals) & np.isfinite(r)).any()


def test_pruned_scan_never_holds_a_full_block():
    # A lemma deformation with three variables at grid 21 (seed 11).  Beside
    # the fiber split ``partial``, the full scan held a block of 2**20
    # values (16 MiB) and two moduli arrays of half that (41 MiB in all).
    rng = np.random.default_rng(11)
    while True:
        terms = {}
        for _ in range(5):
            idx = tuple(int(x) for x in rng.integers(0, 5, 3))
            if sum(idx) <= 4:
                terms[idx] = complex(*rng.uniform(-1, 1, 2))
        f = SparsePoly(3, terms)
        if len({i[-1] for i in terms}) >= 3:
            break
    limit = delta_bound(0.1, 1.0, f.total_degree(), f.support_size())
    exps, coeffs = _term_arrays(random_deformation(f, 0.9 * limit, seed=11) - f)
    axes = [complex_grid_axis(1.0, 21)] * 3
    _kernels.grid_sup_abs(exps, coeffs, [a[:9] for a in axes])  # first-use imports
    tracemalloc.start()
    try:
        got = _kernels.grid_sup_abs(exps, coeffs, axes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _, partial = _kernels.fiber_split(exps, coeffs, axes[:-1])
    block = (1 << 20) * np.dtype(np.complex128).itemsize
    assert peak - partial.nbytes < block / 4
    assert got == full_scan_sup(exps, coeffs, axes)


def per_exponent_fibers(f, j, fiber_axes):
    """The fiber coefficients that sampling built before it shared the fiber
    split: one ``grid_values`` call per exponent k of variable j, over the
    terms with that exponent, and a plain sum when there is no other axis."""
    other = [k for k in range(f.nvars) if k != j]
    C = np.zeros((math.prod(a.size for a in fiber_axes), f.degree_in(j) + 1), complex)
    for k in range(C.shape[1]):
        sel = [(idx, c) for idx, c in f.sorted_terms() if idx[j] == k]
        if not sel:
            continue
        if other:
            exps = np.array([[idx[o] for o in other] for idx, _ in sel], dtype=np.int64)
            coeffs = np.array([c for _, c in sel], dtype=np.complex128)
            C[:, k] = grid_values(exps, coeffs, fiber_axes)
        else:
            C[:, k] = sum(c for _, c in sel)
    return C


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fiber_split_matches_the_per_exponent_loop(n):
    rng = np.random.default_rng(1600 + n)
    for _ in range(10):
        terms = {
            tuple(int(x) for x in rng.integers(0, 4, n)): complex(*rng.normal(size=2))
            for _ in range(int(rng.integers(1, 9)))
        }
        f = SparsePoly(n, terms)
        exps, coeffs = _term_arrays(f)
        for j in range(n):  # split by each variable in turn
            other = [k for k in range(n) if k != j]
            fiber_axes = [complex_grid_axis(1.5, 7)] * len(other)
            powers, partial = _kernels.fiber_split(exps[:, other + [j]], coeffs, fiber_axes)
            C = np.zeros((partial.shape[1], f.degree_in(j) + 1), complex)
            C[:, powers] = partial.T
            assert C.tobytes() == per_exponent_fibers(f, j, fiber_axes).tobytes()


def test_grid_evaluator_matches_pointwise_evaluation():
    rng = np.random.default_rng(13)
    for _ in range(10):
        exps, coeffs, axes = random_problem(rng)
        terms = {}
        for e, c in zip(exps, coeffs):
            idx = tuple(int(k) for k in e)
            terms[idx] = terms.get(idx, 0j) + c
        poly = SparsePoly(exps.shape[1], terms)
        points = np.array(list(itertools.product(*axes)), dtype=np.complex128)
        powers, partial = _kernels.fiber_split(exps, coeffs, axes[:-1])
        got = ((axes[-1][:, None] ** powers) @ partial).T.ravel()  # last axis fastest
        want = eval_at_points(poly, points)
        scale = np.abs(coeffs).sum() * max(1.0, np.abs(points).max()) ** exps.sum(axis=1).max()
        assert np.abs(got - want).max() <= 64 * EPS * scale


def test_horner_matches_unipoly():
    # ``UniPoly`` evaluates through ``horner``, so the oracle is NumPy's own
    # power-series evaluation and differentiation.
    P = np.polynomial.polynomial
    rng = np.random.default_rng(21)
    for deg in (1, 3, 8, 20):
        coeffs = rng.normal(size=(6, deg + 1)) + 1j * rng.normal(size=(6, deg + 1))
        z = 1.5 * (rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4)))
        p, dp = _kernels.horner(coeffs, z)
        for b in range(coeffs.shape[0]):
            poly = UniPoly(coeffs[b])
            powers = np.arange(deg + 1)
            for k in range(z.shape[1]):
                az = abs(z[b, k])
                # Horner's forward error is at most ~2*deg*eps times the
                # absolute-value polynomial; allow a factor for complex ops.
                p_scale = float(np.sum(np.abs(coeffs[b]) * az**powers))
                dp_scale = float(np.sum(powers[1:] * np.abs(coeffs[b, 1:]) * az ** powers[:-1]))
                want_p = P.polyval(z[b, k], coeffs[b])
                want_dp = P.polyval(z[b, k], P.polyder(coeffs[b]))
                batched, single = (p[b, k], dp[b, k]), (poly(z[b, k]), poly.deriv_at(z[b, k]))
                for got_p, got_dp in (batched, single):
                    assert abs(got_p - want_p) <= 8 * deg * EPS * p_scale
                    assert abs(got_dp - want_dp) <= 8 * deg * EPS * dp_scale


def test_noise_scale_has_the_bits_of_horner_on_moduli():
    rng = np.random.default_rng(8)
    for deg in (1, 4, 12, 32):
        abs_coeffs = np.abs(rng.normal(size=(5, deg + 1))) * 10.0 ** rng.uniform(-8, 8, (5, 1))
        r = np.abs(rng.normal(size=(5, 3))) * 2.0
        want = _kernels.horner(abs_coeffs, r)[0]
        assert _kernels.noise_scale(abs_coeffs, r).tobytes() == want.tobytes()
        one = _kernels.noise_scale(abs_coeffs, 1.5)  # one modulus for every row
        assert one.shape == (5, 1)
        assert one.tobytes() == _kernels.horner(abs_coeffs, np.full((5, 1), 1.5))[0].tobytes()


def batch_problem(rng, B, deg):
    coeffs = rng.normal(size=(B, deg + 1)) + 1j * rng.normal(size=(B, deg + 1))
    coeffs[:, -1] += 2.5
    return np.ascontiguousarray(coeffs), _initial_points_batch(coeffs)


def multiset_close(a, b, tol):
    a = sorted(a, key=lambda z: (z.real, z.imag))
    b = sorted(b, key=lambda z: (z.real, z.imag))
    return len(a) == len(b) and all(abs(x - y) <= tol for x, y in zip(a, b))


def test_aberth_matches_numpy_roots():
    rng = np.random.default_rng(55)
    for deg in (1, 2, 4, 7):
        coeffs, z0 = batch_problem(rng, 32, deg)
        roots, _, converged = _kernels.aberth_batch(coeffs, z0, 1e-12, 200)
        assert bool(converged.all())
        for row in range(coeffs.shape[0]):
            oracle = np.roots(coeffs[row, ::-1])
            assert multiset_close(roots[row], oracle, 1e-9)


def test_aberth_is_deterministic():
    rng = np.random.default_rng(77)
    coeffs, z0 = batch_problem(rng, 8, 5)
    a = _kernels.aberth_batch(coeffs, z0, 1e-12, 200)
    b = _kernels.aberth_batch(coeffs, z0, 1e-12, 200)
    assert np.array_equal(a[0], b[0])


def test_aberth_respects_sweep_cap():
    rng = np.random.default_rng(3)
    coeffs, z0 = batch_problem(rng, 4, 6)
    roots, sweeps, converged = _kernels.aberth_batch(coeffs, z0, 1e-12, 1)
    assert not converged.any()
    assert (sweeps == 1).all()


def aberth_reference(coeffs, z0, tol, max_sweeps):
    """Reference: the earlier ``aberth_batch``, verbatim, with fresh
    pairwise arrays every sweep and the ``np.where`` repulsion."""
    coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
    z = np.array(z0, dtype=np.complex128, copy=True)
    B, m = z.shape
    abs_coeffs = np.abs(coeffs)
    locked = np.zeros((B, m), dtype=bool)
    sweeps = np.full(B, max_sweeps, dtype=np.int64)
    active_rows = np.arange(B)
    for sweep in range(max_sweeps):
        if active_rows.size == 0:
            break
        zc = z[active_rows]
        lc = locked[active_rows]
        ca = coeffs[active_rows]
        aa = abs_coeffs[active_rows]
        p, dp = _kernels.horner(ca, zc)
        az = np.abs(zc)
        s = np.broadcast_to(aa[:, m : m + 1], zc.shape).copy()
        for k in range(m - 1, -1, -1):
            s = s * az + aa[:, k : k + 1]
        res_lock = ~lc & (np.abs(p) <= _kernels._RES_FACTOR * _kernels._EPS * s)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            diff = zc[:, :, None] - zc[:, None, :]
            inv = np.where(diff != 0, 1.0 / diff, 0.0)
            inv[:, np.arange(m), np.arange(m)] = 0.0
            repulse = inv.sum(axis=2)
            newton = np.where(dp != 0, p / np.where(dp != 0, dp, 1.0), p)
            denom = 1.0 - newton * repulse
            w = np.where(denom != 0, newton / np.where(denom != 0, denom, 1.0), newton)
        step_lock = ~lc & ~res_lock & (np.abs(w) <= tol * (1.0 + np.abs(zc)))
        move = ~lc & ~res_lock
        zc = np.where(move, zc - w, zc)
        lc = lc | res_lock | step_lock
        z[active_rows] = zc
        locked[active_rows] = lc
        done = lc.all(axis=1)
        sweeps[active_rows[done]] = sweep + 1
        active_rows = active_rows[~done]
    return z, sweeps, locked.all(axis=1)


def test_aberth_rows_equal_their_one_row_calls_and_the_reference():
    rng = np.random.default_rng(31)
    scale = 10.0 ** rng.uniform(-3, 3, size=(6, 1))
    random_rows = scale * (rng.normal(size=(6, 11)) + 1j * rng.normal(size=(6, 11)))
    wilkinson10 = np.poly(np.arange(1, 11) / 10.0)[::-1]
    huge = [1e40] + [0] * 9 + [1]  # t^10 + 1e40: the iterates become NaN
    coeffs = np.vstack([random_rows[:3], wilkinson10, huge, random_rows[3:]]).astype(complex)
    z0 = _initial_points_batch(coeffs)
    z0[1, 3] = z0[1, 0]  # two equal iterates: diff == 0 off the diagonal
    z0[5, 7] = z0[5, 2] = z0[5, 9]
    with np.errstate(all="ignore"):
        got = _kernels.aberth_batch(coeffs, z0, 1e-12, 200)
        want = aberth_reference(coeffs, z0, 1e-12, 200)
        ones = [_kernels.aberth_batch(coeffs[b : b + 1], z0[b : b + 1], 1e-12, 200)
                for b in range(len(coeffs))]
    assert np.unique(got[1]).size >= 4  # rows retire at different sweeps
    assert not got[2][4] and np.isnan(got[0][4]).any()
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()
    for row, one in enumerate(ones):
        for a, b in zip(got, one):
            assert a[row].tobytes() == b[0].tobytes(), row


@pytest.mark.parametrize("deg", [3, 10])
def test_rows_retiring_at_different_sweeps_keep_their_one_row_results(deg):
    # An easy row, a clustered row (Wilkinson-10 at degree 10), 3 t^deg (40
    # sweeps at degree 3), t^deg + 1e40 (at degree 10 its iterates become
    # NaN and it runs to the cap) and a row with collided iterates: in every row order each row returns
    # exactly its one-row roots, sweeps and converged flag.
    rng = np.random.default_rng(deg)
    easy = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
    easy[-1] += 2.5
    clustered = np.poly(np.arange(1, deg + 1) / 10.0)[::-1]
    slow = [0] * deg + [3]
    huge = [1e40] + [0] * (deg - 1) + [1]
    collided = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
    coeffs = np.vstack([easy, clustered, slow, huge, collided]).astype(complex)
    z0 = _initial_points_batch(coeffs)
    z0[4, 2] = z0[4, 0]
    with np.errstate(all="ignore"):
        ones = [_kernels.aberth_batch(coeffs[b : b + 1], z0[b : b + 1], 1e-12, 200)
                for b in range(len(coeffs))]
        sweeps = [int(one[1][0]) for one in ones]
        assert len(set(sweeps)) >= 4  # rows retire at different sweeps
        if deg == 3:
            assert sweeps[2] == 40
        else:
            assert sweeps[3] == 200 and not ones[3][2][0] and np.isnan(ones[3][0]).any()
        for order in itertools.permutations(range(len(coeffs))):
            got = _kernels.aberth_batch(coeffs[list(order)], z0[list(order)], 1e-12, 200)
            for row, b in enumerate(order):
                for a, want in zip(got, ones[b]):
                    assert a[row].tobytes() == want[0].tobytes(), (order, b)
