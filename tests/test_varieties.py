"""Hypercube windows, the deformation bound, sampling, and containment."""

import csv
import io
import itertools
import struct
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from deformkit import (
    Hypercube,
    Jet,
    JetPoly,
    PolySystem,
    SampleCloud,
    SparsePoly,
    classify_jet_point,
    complex_grid_axis,
    containment_check,
    delta_bound,
    lemma_check,
    random_deformation,
    sample_hypersurface,
    system_residual,
    v_eps_member,
    variety_jet_check,
)
from deformkit import _kernels, varieties
from deformkit.jets import (
    INFINITE,
    hensel_lift_root,
    jet_align_roots,
    lift_fibers,
    standard_part,
)
from deformkit.polynomials import degree_and_support
from deformkit.roots import UniPoly, find_roots, solve_batch
from deformkit.varieties import (
    DEGENERATE_LEAD_TOL,
    _grid_points,
    _term_arrays,
    eval_at_points,
)


def sp(nvars, terms):
    return SparsePoly(nvars, terms)


HYPERBOLA = sp(2, {(1, 1): 1.0, (0, 0): -1.0})  # t1*t2 - 1
DIAGONAL = sp(2, {(1, 0): 1.0, (0, 1): -1.0})  # t1 - t2
ANTIDIAGONAL = sp(2, {(1, 0): 1.0, (0, 1): 1.0})  # t1 + t2


# -- membership ----------------------------------------------------------------


def test_member_on_exact_zero():
    assert v_eps_member(HYPERBOLA, (1, 1), 1e-12)


def test_member_strictness():
    assert not v_eps_member(HYPERBOLA, (0, 0), 0.5)  # |g| = 1
    assert not v_eps_member(sp(1, {(0,): 0.5}), (0,), 0.5)  # boundary excluded


def test_member_near_zero():
    g = sp(2, {(0, 1): 1.0, (1, 0): -1.001})
    assert v_eps_member(g, (1, 1), 0.01)


def test_member_monotone_in_eps():
    rng = np.random.default_rng(4)
    for _ in range(30):
        w = tuple(complex(*rng.uniform(-1, 1, 2)) for _ in range(2))
        e1, e2 = sorted(rng.uniform(0.01, 2.0, 2))
        if v_eps_member(HYPERBOLA, w, e1):
            assert v_eps_member(HYPERBOLA, w, e2)


@st.composite
def polys_and_points(draw):
    """A 2-variable polynomial of degree at most 3 in each variable, and 1-8 points."""
    part = st.floats(-2, 2, allow_nan=False)
    cnum = st.builds(complex, part, part)
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
    terms = draw(st.dictionaries(exps, cnum, min_size=1, max_size=6))
    pts = draw(st.lists(st.tuples(cnum, cnum), min_size=1, max_size=8))
    return SparsePoly(2, terms), np.array(pts, dtype=np.complex128)


@settings(max_examples=150, deadline=None)
@given(polys_and_points())
def test_member_gives_one_answer_alone_and_in_an_array(case):
    # A point alone took Python's complex abs, an array NumPy's; they differ in
    # the last bit, so at eps = |g(p)| a point alone could pass the strict test.
    g, pts = case
    vals = np.abs(g.evaluate(pts))
    for k, p in enumerate(pts):
        value = float(vals[k])
        for eps in (value, float(np.nextafter(value, np.inf))):
            if eps <= 0:
                continue
            batch = v_eps_member(g, pts, eps)
            assert batch.tolist() == (vals < eps).tolist()
            assert v_eps_member(g, p, eps) is v_eps_member(g, tuple(p), eps) is (eps > value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(0, np.inf)])
@pytest.mark.parametrize("pos", [0, 1])
def test_member_rejects_non_finite_points(bad, pos):
    # v_eps_member(g, (nan, 0), 1.0) returned False instead of raising.
    point = [0.5, 0.5j]
    point[pos] = bad
    with pytest.raises(ValueError, match=r"^non-finite coordinate in point: \["):
        v_eps_member(HYPERBOLA, point, 1.0)
    with pytest.raises(ValueError, match=r"^non-finite coordinate in point 1: \["):
        v_eps_member(HYPERBOLA, np.array([[0.5, 0.5], point]), 1.0)


def test_point_checks_name_the_point():
    with pytest.raises(ValueError) as exc:
        Hypercube(T=1.5, n=2).contains((np.nan, 0))
    assert str(exc.value) == "non-finite coordinate in point: [(nan+0j), 0j]"
    with pytest.raises(ValueError, match=r"^point has shape \(2, 2\), expected \(2,\)$"):
        Hypercube(T=1.5, n=2).contains(np.zeros((2, 2)))
    with pytest.raises(ValueError) as exc:
        SampleCloud(np.array([[0.0, 1.0], [2.0, complex(0.0, np.inf)]]))
    assert str(exc.value) == "non-finite coordinate in sample point 1: [(2+0j), infj]"


# -- the coefficient budget -----------------------------------------------------


def test_budget_examples():
    assert delta_bound(0.3, 1, 2, 3) == pytest.approx(0.1, rel=1e-15)
    assert delta_bound(1.0, 2, 3, 4) == 0.03125
    assert delta_bound(0.5, 1, 0, 1) == 0.5


def test_budget_requires_unit_window():
    with pytest.raises(ValueError):
        delta_bound(0.1, 0.5, 1, 1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_entry_points_reject_non_finite_parameters(bad):
    f = sp(1, {(1,): 1.0})
    with pytest.raises(ValueError, match="eps must be positive"):
        delta_bound(bad, 1.0, 1, 1)
    with pytest.raises(ValueError, match="eps must be positive"):
        lemma_check(f, f, T=1.0, eps=bad)
    with pytest.raises(ValueError, match="eps must be positive"):
        containment_check(f, f, T=1.0, eps=bad)
    with pytest.raises(ValueError, match="eps must be positive"):
        v_eps_member(f, [0j], bad)
    with pytest.raises(ValueError, match="T must be positive"):
        complex_grid_axis(bad, 5)
    with pytest.raises(ValueError, match="T must be positive"):
        Hypercube(bad, 1)
    if bad > 0:  # +inf passes T >= 1; the grid axis above rejects it
        return
    with pytest.raises(ValueError, match="requires T >= 1"):
        delta_bound(0.1, bad, 1, 1)
    with pytest.raises(ValueError, match="requires T >= 1"):
        lemma_check(f, f, T=bad, eps=0.1)
    with pytest.raises(ValueError, match="requires T >= 1"):
        containment_check(f, f, T=bad, eps=0.1)


@pytest.mark.parametrize("bad", [float("nan"), -1.0, 0.0])
def test_sampling_entry_points_reject_a_non_positive_tol(bad):
    # A NaN or negative tol kept no sample, so containment passed over 0 samples.
    g = JetPoly.from_sparse(DIAGONAL)
    pts = np.array([[0.5, 0.5]], dtype=np.complex128)
    with pytest.raises(ValueError, match="tol must be positive"):
        sample_hypersurface(DIAGONAL, 1.0, 1, grid=5, tol=bad)
    with pytest.raises(ValueError, match="tol must be positive"):
        containment_check(DIAGONAL, DIAGONAL, T=1.0, eps=0.5, grid=5, tol=bad)
    with pytest.raises(ValueError, match="tol must be positive"):
        variety_jet_check(DIAGONAL, g, SampleCloud(pts), tol=bad)


def test_budget_monotonicity():
    base = delta_bound(0.5, 2, 2, 3)
    assert delta_bound(0.6, 2, 2, 3) > base
    assert delta_bound(0.5, 3, 2, 3) < base
    assert delta_bound(0.5, 2, 3, 3) < base
    assert delta_bound(0.5, 2, 2, 4) < base


# -- grid geometry ------------------------------------------------------------------


def test_grid_axis_stays_in_disc():
    axis = complex_grid_axis(2.0, 21)
    assert np.all(np.abs(axis) <= 2.0 * (1 + 1e-12))
    assert (2.0 + 0j) in axis and (-2.0 + 0j) in axis
    assert (2.0 + 2.0j) not in axis  # corner lies outside the disc


def test_hypercube_contains():
    cube = Hypercube(T=1.5, n=2)
    assert cube.contains((1.5, 0.5j))
    assert not cube.contains((1.6, 0))
    with pytest.raises(ValueError):
        cube.contains((1.0,))


def test_hypercube_contains_every_grid_axis_point():
    # contains tested max|z| <= T without the window's 1e-12 relative slack,
    # and refused 76 points of these axes, this one among them.
    z = complex_grid_axis(1.5, 31)
    assert -1.2 + 0.9000000000000004j in z
    assert Hypercube(1.5, 1).contains((-1.2 + 0.9000000000000004j,))
    for T in (0.5, 0.7, 1, 1.5, 2, 3, 12):
        for grid in range(3, 80):
            axis = complex_grid_axis(T, grid)
            assert Hypercube(T, axis.size).contains(axis)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(0, np.inf)])
@pytest.mark.parametrize("pos", [0, 1])
def test_hypercube_rejects_non_finite_points(bad, pos):
    point = [0.5, 0.5j]
    point[pos] = bad
    with pytest.raises(ValueError, match="non-finite coordinate"):
        Hypercube(T=1.5, n=2).contains(point)


@pytest.mark.parametrize("resolution", [-1, 0, 1, 2])
def test_grid_axis_without_disk_points_is_rejected(resolution):
    # At 2 the axis values are the corners +-T +-iT, all outside the disk.
    with pytest.raises(ValueError, match="resolution must be >= 3"):
        complex_grid_axis(1.0, resolution)
    assert complex_grid_axis(1.0, 3).size == 5


def test_grid_axis_over_the_grid_limit_is_rejected(monkeypatch):
    # An axis of resolution**2 points past the limit used to be built first.
    from deformkit import _kernels

    monkeypatch.setattr(_kernels, "_GRID_LIMIT", 100)
    assert complex_grid_axis(1.0, 10).size > 0
    with pytest.raises(ValueError, match="grid of 121 points is too large"):
        complex_grid_axis(1.0, 11)


def test_grid_points_match_unravel_index():
    rng = np.random.default_rng(16)
    for n in (1, 2, 3):
        axes = [rng.normal(size=int(rng.integers(1, 6))) + 1j for _ in range(n)]
        shape = tuple(a.size for a in axes)
        flat = rng.integers(0, int(np.prod(shape)), size=17)
        multi = np.unravel_index(flat, shape)
        want = np.stack([a[k] for a, k in zip(axes, multi)], axis=1)
        assert _grid_points(flat, axes).tobytes() == want.tobytes()
        one = int(flat[0])
        want_one = tuple(a[k] for a, k in zip(axes, np.unravel_index(one, shape)))
        assert tuple(_grid_points(one, axes)) == want_one
    assert _grid_points(np.arange(3), []).shape == (3, 0)


# -- sup deviation on the window -----------------------------------------------------


def brute_sup(diff, axis_values, nvars):
    worst, arg = -1.0, None
    for pt in itertools.product(axis_values, repeat=nvars):
        v = abs(diff.evaluate(pt))
        if v > worst:
            worst, arg = v, pt
    return worst, arg


def test_lemma_shifted_hyperbola():
    g = sp(2, {(1, 1): 1.04, (0, 0): -0.96})
    rep = lemma_check(HYPERBOLA, g, T=1, eps=0.1, grid=21)
    assert rep.passed
    assert rep.sup_deviation <= 0.08 + 1e-12
    assert rep.delta_limit == pytest.approx(0.05, rel=1e-15)
    # the attained point reproduces the reported supremum
    diff = g - HYPERBOLA
    assert abs(diff.evaluate(rep.argmax_point)) == pytest.approx(
        rep.sup_deviation, rel=1e-12
    )


def test_lemma_sup_beyond_squared_overflow():
    # sup |g - f| = 1e160 squares past the float64 range; the report must
    # carry the finite supremum, and the deformation is within its bound.
    t1 = sp(1, {(1,): 1.0})
    g = sp(1, {(1,): 1.0, (0,): 1e160})
    rep = lemma_check(t1, g, T=1, eps=1e300)
    assert rep.coeff_distance == 1e160 and rep.coeff_distance < rep.delta_limit
    assert rep.sup_deviation == 1e160
    assert rep.passed


def test_lemma_sees_a_deformation_below_the_prune_tolerance():
    # g - f is the constant 5e-15; arithmetic used to prune it to zero.
    f = sp(1, {(1,): 1.0})
    g = sp(1, {(1,): 1.0, (0,): 5e-15})
    rep = lemma_check(f, g, T=1, eps=1e-13)
    assert rep.coeff_distance == 5e-15
    assert rep.sup_deviation == 5e-15
    assert rep.passed


def test_lemma_identical_pair():
    rep = lemma_check(HYPERBOLA, HYPERBOLA, T=1, eps=0.1, grid=9)
    assert rep.sup_deviation == 0.0 and rep.passed


def test_lemma_rejects_oversized_deformation():
    f = sp(1, {(2,): 1.0})
    g = sp(1, {(2,): 1.0, (0,): 0.2})
    with pytest.raises(ValueError) as exc:
        lemma_check(f, g, T=1, eps=0.1, grid=9)
    assert "(0,)" in str(exc.value)  # names the offending coefficient


def test_lemma_agrees_with_bruteforce_grid():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(1, 3))
        terms = {
            tuple(int(x) for x in rng.integers(0, 3, n)): complex(*rng.uniform(-1, 1, 2))
            for _ in range(int(rng.integers(1, 5)))
        }
        f = SparsePoly(n, terms)
        if f.is_zero():
            continue
        from deformkit import degree_and_support

        d, s = degree_and_support(f)
        g = random_deformation(f, 0.9 * delta_bound(0.5, 1, d, s), seed=7)
        rep = lemma_check(f, g, T=1, eps=0.5, grid=7)
        axis = complex_grid_axis(1.0, 7)
        worst, _ = brute_sup(g - f, list(axis), n)
        assert rep.sup_deviation == pytest.approx(worst, rel=1e-10, abs=1e-14)


@pytest.mark.parametrize("n, outer_limit", [(3, None), (4, 1 << 10)])
def test_lemma_reports_a_grid_point_attaining_the_grid_supremum(monkeypatch, n, outer_limit):
    # The pruned scan evaluates few of the grid points; the reported
    # supremum and point must still be those of every point's value.  At
    # n = 4 a lower outer limit peels the first axis, slice by slice.
    if outer_limit is not None:
        monkeypatch.setattr(_kernels, "_OUTER_LIMIT", outer_limit)
    from deformkit import degree_and_support

    rng = np.random.default_rng(1500 + n)
    axis = complex_grid_axis(1.0, 7)
    points = np.array(list(itertools.product(axis, repeat=n)), dtype=np.complex128)
    for _ in range(4):
        terms = {}
        while len(terms) < 4:
            idx = tuple(int(x) for x in rng.integers(0, 5, n))
            if sum(idx) <= 4:
                terms[idx] = complex(*rng.uniform(-1, 1, 2))
        f = SparsePoly(n, terms)
        d, s = degree_and_support(f)
        g = random_deformation(f, 0.9 * delta_bound(0.5, 1, d, s), seed=int(rng.integers(99)))
        rep = lemma_check(f, g, T=1, eps=0.5, grid=7)
        values = np.abs(eval_at_points(g - f, points))
        assert rep.points_checked == len(points)
        assert rep.sup_deviation == pytest.approx(values.max(), rel=1e-13)
        at = abs((g - f).evaluate(rep.argmax_point))
        assert at == pytest.approx(values.max(), rel=1e-13)


def test_lemma_guarantee_random_sweep():
    rng = np.random.default_rng(99)
    for case in range(20):
        n = int(rng.integers(1, 4))
        terms = {}
        for _ in range(int(rng.integers(1, 5))):
            idx = tuple(int(x) for x in rng.integers(0, 3, n))
            if sum(idx) <= 4:
                terms[idx] = complex(*rng.uniform(-1, 1, 2))
        f = SparsePoly(n, terms)
        if f.is_zero():
            continue
        from deformkit import degree_and_support

        d, s = degree_and_support(f)
        T = float(rng.choice([1.0, 2.0]))
        eps = float(rng.choice([0.1, 1.0]))
        g = random_deformation(f, 0.9 * delta_bound(eps, T, d, s), seed=case)
        rep = lemma_check(f, g, T=T, eps=eps, grid=9)
        assert rep.passed, f"case {case}: sup {rep.sup_deviation} vs eps {eps}"


# -- sampling the zero set -------------------------------------------------------------


def test_sample_diagonal():
    cloud = sample_hypersurface(DIAGONAL, T=1.0, axis=2, grid=9)
    assert len(cloud) > 0
    assert np.allclose(cloud.points[:, 0], cloud.points[:, 1], atol=1e-10)
    assert np.all(np.abs(cloud.points) <= 1.0 + 1e-9)


def test_sample_hyperbola_needs_unit_modulus():
    cloud = sample_hypersurface(HYPERBOLA, T=1.0, axis=2, grid=21)
    # |z * (1/z)| forces |z| = 1 when both coordinates stay in the window
    assert len(cloud) > 0
    assert np.allclose(np.abs(cloud.points[:, 0]), 1.0, atol=1e-9)
    prods = cloud.points[:, 0] * cloud.points[:, 1]
    assert np.allclose(prods, 1.0, atol=1e-8)
    assert cloud.meta["fibers_degenerate"] >= 1  # the t1 = 0 fiber degenerates


def test_sample_univariate():
    f = sp(1, {(2,): 1.0, (0,): -1.0})
    cloud = sample_hypersurface(f, T=2.0, axis=1, grid=5)
    got = sorted(cloud.points[:, 0], key=lambda z: z.real)
    assert len(got) == 2
    assert abs(got[0] + 1) < 1e-10 and abs(got[1] - 1) < 1e-10


def test_sample_residual_scale_invariant():
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = int(rng.integers(1, 3))
        terms = {
            tuple(int(x) for x in rng.integers(0, 3, n)): complex(*rng.uniform(-1, 1, 2))
            for _ in range(int(rng.integers(2, 5)))
        }
        f = SparsePoly(n, terms)
        axis = next((k + 1 for k in range(n) if f.degree_in(k) > 0), None)
        if axis is None:
            continue
        cloud = sample_hypersurface(f, T=1.0, axis=axis, grid=7)
        if not len(cloud):
            continue
        from deformkit import degree_and_support

        d, s = degree_and_support(f)
        scale = 1 + f.coeff_inf_norm() * s * 1.0**d
        vals = np.abs(eval_at_points(f, cloud.points))
        assert np.all(vals <= 1e-8 * scale)


@pytest.mark.parametrize(
    "f", [sp(2, {(1, 0): 1e-13, (0, 1): 1.0}), sp(1, {(1,): 1e-13, (0,): 1.0})]
)
def test_sample_with_only_degenerate_fibers_is_empty(f):
    # Along t1 every fiber's leading coefficient is 1e-13, below the
    # degree-drop threshold, so no fiber is solved.
    cloud = sample_hypersurface(f, T=1.0, axis=1, grid=5)
    assert len(cloud) == 0 and cloud.points.shape == (0, f.nvars)
    assert cloud.meta["fibers_total"] == (13 if f.nvars == 2 else 1)
    assert cloud.meta["fibers_degenerate"] == cloud.meta["fibers_total"]
    assert cloud.meta["points_kept"] == 0 and cloud.meta["max_residual"] == 0.0
    assert cloud.meta["fibers_unconverged"] == 0


def test_sample_rejects_constant_axis():
    f = sp(2, {(1, 0): 1.0})
    with pytest.raises(ValueError):
        sample_hypersurface(f, T=1.0, axis=2, grid=5)
    with pytest.raises(ValueError):
        sample_hypersurface(f, T=1.0, axis=3, grid=5)


def sample_every_fiber(f, T, axis, grid, tol):
    """Oracle: ``sample_hypersurface`` as it was before fibers certified
    root-free were skipped, solving every non-degenerate fiber."""
    n, j = f.nvars, axis - 1
    m = f.degree_in(j)
    d, support = degree_and_support(f)
    scale = 1.0 + f.coeff_inf_norm() * support * float(max(T, 1.0)) ** d
    other = [k for k in range(n) if k != j]
    fiber_axes = [complex_grid_axis(T, grid)] * len(other)
    exps, coeffs = _term_arrays(f)
    powers, partial = _kernels.fiber_split(exps[:, other + [j]], coeffs, fiber_axes)
    C = np.zeros((partial.shape[1], m + 1), dtype=np.complex128)
    C[:, powers] = partial.T
    good = np.flatnonzero(np.abs(C[:, m]) >= DEGENERATE_LEAD_TOL)
    roots, res, converged = solve_batch(C[good])
    keep = (np.abs(roots) <= T * (1.0 + 1e-12)) & (res <= tol * scale)
    rows, cols = np.nonzero(keep)
    points = np.empty((rows.size, n), dtype=np.complex128)
    points[:, other] = _grid_points(good[rows], fiber_axes)
    points[:, j] = roots[rows, cols]
    meta = {
        "fibers_total": len(C),
        "fibers_degenerate": len(C) - good.size,
        "fibers_unconverged": int((~converged).sum()),
        "points_kept": rows.size,
        "max_residual": float(res[rows, cols].max(initial=0.0)),
        "residual_scale": scale,
        "tol": tol,
    }
    return points, meta


@st.composite
def sampling_cases(draw):
    """A polynomial in 1-3 variables (total degree <= 4, coefficients of one
    scale from 1e-13 to 1e3), a sampled variable and the sampling options.
    A constant term of up to 8 moves many fibers' roots out of the window."""
    n = draw(st.integers(1, 3))
    part = st.floats(-1, 1, allow_nan=False)
    exps = st.tuples(*[st.integers(0, 4)] * n).filter(lambda e: sum(e) <= 4)
    terms = draw(st.dictionaries(exps, st.builds(complex, part, part), min_size=1, max_size=6))
    zero = (0,) * n
    terms[zero] = terms.get(zero, 0j) + draw(st.sampled_from([0.0, 1.0, 2.0, 8.0]))
    scale = 10.0 ** draw(st.floats(-13, 3))
    f = SparsePoly(n, {e: c * scale for e, c in terms.items()})
    live = [k + 1 for k in range(n) if f.degree_in(k) > 0]
    assume(live)
    axis = draw(st.sampled_from(live))
    T = draw(st.floats(0.5, 3))
    grid = draw(st.integers(3, 7 if n == 3 else 13))
    tol = 10.0 ** draw(st.floats(-12, -1))
    return f, T, axis, grid, tol


@settings(max_examples=200, deadline=None)
@given(sampling_cases())
def test_skipped_fibers_change_no_point_and_no_meta(case):
    f, T, axis, grid, tol = case
    cloud = sample_hypersurface(f, T, axis, grid, tol)
    points, meta = sample_every_fiber(f, T, axis, grid, tol)
    assert cloud.points.tobytes() == points.tobytes()
    assert cloud.meta == meta


def solved_rows(monkeypatch):
    """Record the fiber rows ``sample_hypersurface`` hands to the solver."""
    seen = []

    def spy(C, *args, **kwargs):
        seen.extend(map(tuple, C))
        return solve_batch(C, *args, **kwargs)

    monkeypatch.setattr(varieties, "solve_batch", spy)
    return seen


@pytest.mark.parametrize("T", [0.5, 1.0, 3.0])
def test_fiber_with_a_root_on_the_window_edge_is_solved_and_kept(monkeypatch, T):
    # t2 - t1 on the fiber t1 = T has its root at t2 = T, and t^2 + T^2 has
    # both roots on the circle |t| = T.
    seen = solved_rows(monkeypatch)
    cloud = sample_hypersurface(DIAGONAL, T, axis=2, grid=3)
    edge = cloud.points[cloud.points[:, 0] == T]
    assert len(edge) == 1 and abs(edge[0, 1] - T) <= 1e-15 * T
    cloud = sample_hypersurface(sp(1, {(2,): 1.0, (0,): T * T}), T, axis=1, grid=3)
    assert len(seen) == 5 + 1 and len(cloud) == 2
    assert np.allclose(np.abs(cloud.points), T)


def test_fiber_just_under_the_skip_threshold_is_solved_and_just_over_is_skipped(monkeypatch):
    # One fiber, a0 + t with a0 >= 1 (n = 1, T = 1): the rule skips it when
    # 2 a0 - S - 8 (m + 2) u S - sqrt(tiny) > tol * scale, with
    # S = a0 + R, R = 1 + 2e-12, m = 1 and scale = 1 + 2 a0.
    u, tol, R = float(np.finfo(np.float64).eps) / 2, 1e-3, 1.0 + 2e-12
    c = 24 * u
    a0 = (tol + R * (1 + c)) / (1 - c - 2 * tol)  # where both sides are equal
    for factor, solved in ((1 - 1e-12, True), (1 + 1e-12, False)):
        seen = solved_rows(monkeypatch)
        f = sp(1, {(1,): 1.0, (0,): a0 * factor})
        cloud = sample_hypersurface(f, 1.0, axis=1, grid=3, tol=tol)
        assert (len(seen) == 1) == solved
        assert len(cloud) == 0 and cloud.meta["fibers_unconverged"] == 0
        # Solving the skipped fiber anyway keeps no point either.
        assert len(sample_every_fiber(f, 1.0, 1, 3, tol)[0]) == 0


# -- containment ---------------------------------------------------------------------


def test_containment_shifted_diagonal():
    g = DIAGONAL + SparsePoly.constant(2, 0.03)
    rep = containment_check(DIAGONAL, g, T=1, eps=0.1, grid=9)
    assert rep.violations == 0
    assert rep.max_residual == pytest.approx(0.03, abs=1e-9)
    # union support {t1, t2, 1} drives the budget
    assert rep.delta_limit == pytest.approx(0.1 / 3, rel=1e-15)


def test_containment_identical_pair():
    rep = containment_check(DIAGONAL, DIAGONAL, T=1, eps=0.1, grid=9)
    assert rep.violations == 0
    assert rep.max_residual <= 1e-10


def test_containment_univariate():
    f = sp(1, {(2,): 1.0, (0,): -1.0})
    g = sp(1, {(2,): 1.0, (0,): -1.0 + 1e-3})
    rep = containment_check(f, g, T=1, eps=0.01, grid=5)
    assert rep.violations == 0
    assert rep.max_residual == pytest.approx(1e-3, rel=1e-6)


def test_containment_rejects_oversized_deformation():
    g = DIAGONAL + SparsePoly.constant(2, 0.2)
    with pytest.raises(ValueError):
        containment_check(DIAGONAL, g, T=1, eps=0.1, grid=5)


def test_containment_guarantee_random_sweep():
    rng = np.random.default_rng(123)
    done = 0
    while done < 15:
        n = int(rng.integers(1, 3))
        terms = {
            tuple(int(x) for x in rng.integers(0, 3, n)): complex(*rng.uniform(-1, 1, 2))
            for _ in range(int(rng.integers(2, 5)))
        }
        f = SparsePoly(n, terms)
        if f.is_zero() or f.total_degree() < 1:
            continue
        from deformkit import degree_and_support

        d, s = degree_and_support(f)
        eps = float(rng.choice([0.1, 1.0]))
        g = random_deformation(f, 0.9 * delta_bound(eps, 1.0, d, s), seed=done)
        rep = containment_check(f, g, T=1.0, eps=eps, grid=9)
        assert rep.violations == 0
        assert rep.max_residual < eps
        done += 1


# -- systems and jet witnesses ----------------------------------------------------------


def test_system_residual_examples():
    F = PolySystem([DIAGONAL, sp(2, {(1, 0): 1.0, (0, 1): 1.0})])
    assert system_residual(F, (0, 0)) == 0.0
    assert system_residual(F, (1, 1)) == 2.0
    single = PolySystem([HYPERBOLA])
    assert system_residual(single, (1, 1)) == abs(HYPERBOLA.evaluate((1, 1)))


def test_system_residual_on_point_arrays():
    F = PolySystem([DIAGONAL, HYPERBOLA, sp(2, {(2, 0): 0.5j, (0, 0): 0.25})])
    rng = np.random.default_rng(12)
    pts = rng.normal(size=(40, 2)) + 1j * rng.normal(size=(40, 2))
    res = system_residual(F, pts)
    assert res.shape == (40,) and res.dtype == np.float64
    # The array residual is the elementwise max of the per-polynomial moduli.
    moduli = np.stack([np.abs(p.evaluate(pts)) for p in F])
    assert np.array_equal(res, moduli.max(axis=0))
    for m in range(len(pts)):
        one = system_residual(F, pts[m])
        assert type(one) is float
        assert one == pytest.approx(res[m], rel=1e-14)
    assert system_residual(F, np.zeros((0, 2))).shape == (0,)


def test_eval_at_points_is_the_shared_evaluator():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(25, 2)) + 1j * rng.normal(size=(25, 2))
    for p in (HYPERBOLA, DIAGONAL, sp(2, {(3, 2): 1 - 1j, (0, 1): 2.0})):
        assert np.array_equal(eval_at_points(p, pts), p.evaluate(pts))
    with pytest.raises(ValueError, match=r"shape \(M, 2\)"):
        eval_at_points(HYPERBOLA, pts[0])
    with pytest.raises(ValueError, match=r"shape \(M, 2\)"):
        eval_at_points(HYPERBOLA, pts[:, :1])


def test_jet_witnesses_on_diagonal():
    e2 = Jet.eps() * Jet.eps()
    g = JetPoly(
        2,
        {(1, 0): Jet.constant(1), (0, 1): Jet.constant(-1), (0, 0): e2},
    )
    pts = np.array([[z, z] for z in np.linspace(-1, 1, 9)], dtype=np.complex128)
    rep = variety_jet_check(DIAGONAL, g, SampleCloud(pts, "diag"))
    assert rep.witnesses == rep.backward_checked == len(pts)
    assert rep.passed
    # Points off the diagonal are not witnesses.
    off = np.array([[0.5, -0.5], [1j, 0.0]], dtype=np.complex128)
    rep = variety_jet_check(DIAGONAL, g, SampleCloud(np.vstack([off, pts])))
    assert rep.witnesses == rep.forward_checked == rep.backward_checked == len(pts)
    assert rep.passed


def test_fiber_lift_of_shifted_diagonal_is_exact():
    # t1 - t2 + eps^2 vanishes at (z - eps^2, z): the lift along t1 is exact.
    g = JetPoly(
        2,
        {(1, 0): Jet.constant(1), (0, 1): Jet.constant(-1), (0, 0): Jet.eps(power=2)},
    )
    z = np.array([[w, w] for w in (0.5, -0.25 + 1j, 2j)], dtype=np.complex128)
    lifted, W, _, _, ok = lift_fibers(DIAGONAL, g, 0, z, 8)
    assert lifted.all() and ok.all()
    want = np.zeros((3, 9), dtype=np.complex128)
    want[:, 0] = z[:, 0]
    want[:, 2] = -1
    assert np.array_equal(W, want)


def test_jet_witnesses_constant_system():
    F = PolySystem([DIAGONAL, ANTIDIAGONAL])
    G = [JetPoly.from_sparse(p) for p in F]
    pts = np.zeros((3, 2), dtype=np.complex128)
    rep = variety_jet_check(F, G, SampleCloud(pts, "origin"))
    assert rep.passed
    # No fiber lift exists for a system of two polynomials.
    assert rep.witnesses == 3 and rep.backward_checked == 0


def tail_jets(f, order, rng, extra=None):
    """f + eps * h + eps**2 * h2 with seeded random tails of size 0.1, plus an
    optional purely infinitesimal term at the exponent tuple ``extra``."""
    terms = {}
    for idx, c in f.sorted_terms():
        coeffs = np.zeros(order + 1, dtype=np.complex128)
        coeffs[0] = c
        coeffs[1 : min(order, 2) + 1] = 0.1 * (
            rng.normal(size=min(order, 2)) + 1j * rng.normal(size=min(order, 2))
        )
        terms[idx] = Jet(0, coeffs, order)
    if extra is not None:
        terms[extra] = Jet.eps(order) * complex(*rng.normal(size=2))
    return JetPoly(f.nvars, terms, order)


def test_jet_witnesses_univariate_crosscheck():
    # For one variable the fiber is f itself: the backward lift of each
    # witness is the jet-lift of that root, bit for bit.
    rng = np.random.default_rng(4)
    roots = rng.uniform(0.5, 1.0, 6) * np.exp(2j * np.pi * (np.arange(6) + 0.3) / 6)
    f = UniPoly(np.poly(roots)[::-1])
    zetas = np.array([z for z, _ in find_roots(f).roots])
    for K in (1, 8, 32):
        g = tail_jets(f.to_sparse(), K, rng)
        lifted, W, _, _, ok = lift_fibers(f.to_sparse(), g, 0, zetas[:, None], K)
        assert lifted.all() and ok.all()
        batch = hensel_lift_root(f, zetas, g, K)
        for i, z in enumerate(zetas):
            one = hensel_lift_root(f, z, g, K)
            assert one.min_exp == 0 and one.coeffs.tobytes() == W[i].tobytes()
            assert batch[i].coeffs.tobytes() == W[i].tobytes()
        rep = variety_jet_check(f.to_sparse(), g, SampleCloud(zetas[:, None], "roots"))
        assert rep.passed and rep.backward_checked == rep.witnesses == 6


def test_zero_jet_polynomial_lifts_nothing_and_does_not_crash():
    # st(0) matches f = 1e-13 t1 + 1e-13 t2 within ST_MATCH_TOL; the fiber
    # root has |f'| = 1e-13, so nothing is lifted, and g's empty term list
    # builds no fiber rows.
    f = sp(2, {(1, 0): 1e-13, (0, 1): 1e-13})
    rep = variety_jet_check(f, JetPoly(2, {}), SampleCloud(np.zeros((2, 2), complex)))
    assert rep.witnesses == 2 and rep.backward_checked == 0 and rep.passed
    alignment = jet_align_roots(UniPoly([0, 1e-13]), JetPoly(1, {}))
    assert alignment.pairs == () and len(alignment.skipped) == 1


def test_overflowing_lift_is_a_counted_failure():
    # t1^2 - t2 + 1e200 eps: the eps^2 coefficient of the t1 lift overflows.
    f = sp(2, {(2, 0): 1.0, (0, 1): -1.0})
    g = JetPoly(
        2,
        {(2, 0): Jet.constant(1), (0, 1): Jet.constant(-1), (0, 0): 1e200 * Jet.eps()},
    )
    pts = np.array([[1.0, 1.0], [1j, -1.0]], dtype=np.complex128)
    rep = variety_jet_check(f, g, SampleCloud(pts))
    assert rep.forward_failures == 0
    assert rep.backward_checked == rep.backward_failures == 2
    assert not rep.passed
    assert rep.to_json_dict()["passed"] is False


def test_fiber_lift_divides_by_the_derivative_of_the_standard_part():
    # st(g) = t1^2 - t2 + 5e-13 t1 is within ST_MATCH_TOL of f: the Newton
    # step along t1 must divide by the st(g) fiber's derivative, not f's.
    f = sp(2, {(2, 0): 1.0, (0, 1): -1.0})
    g = JetPoly(
        2,
        {
            (2, 0): Jet.constant(1),
            (1, 0): Jet.constant(5e-13),
            (0, 1): Jet.constant(-1),
            (0, 0): Jet.eps() * 0.3j,
        },
    )
    pts = np.array([[1.0, 1.0], [-1.0, 1.0], [1j, -1.0], [2.0, 4.0]], dtype=np.complex128)
    rep = variety_jet_check(f, g, SampleCloud(pts))
    assert rep.backward_checked == 4 and rep.backward_failures == 0 and rep.passed


def test_degree_dropping_fibers_are_checked_and_multiple_roots_are_not():
    # t1^2 t2 + t1 along t1: at t2 = 0 the fiber drops degree to t1, whose
    # root 0 is simple, so it lifts like the simple root at (-1, 1).
    f = sp(2, {(2, 1): 1.0, (1, 0): 1.0})
    pts = np.array([[0.0, 0.0], [-1.0, 1.0]], dtype=np.complex128)
    rep = variety_jet_check(f, tail_jets(f, 8, np.random.default_rng(1)), SampleCloud(pts))
    assert rep.witnesses == 2 and rep.backward_checked == 2 and rep.passed
    # t1^2 - t2 at the origin: the fiber t1^2 has a double root.
    f = sp(2, {(2, 0): 1.0, (0, 1): -1.0})
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [-1j, -1.0]], dtype=np.complex128)
    lifted, W, _, _, ok = lift_fibers(f, tail_jets(f, 8, np.random.default_rng(2)), 0, pts, 8)
    assert lifted.tolist() == [False, True, True] and W.shape == (2, 9) and ok.all()


def test_block_with_no_lifted_witness_checks_nothing(monkeypatch):
    # t1^2 - t2 at t2 = 0 has the double fiber root 0, so no witness of the
    # cloud, or of its last lift block, is lifted.
    import deformkit.varieties as varieties_mod

    f = sp(2, {(2, 0): 1.0, (0, 1): -1.0})
    g = tail_jets(f, 8, np.random.default_rng(3))
    lifted, W, _, _, ok = lift_fibers(f, g, 0, np.zeros((2, 2), dtype=np.complex128), 8)
    assert not lifted.any() and W.shape == (0, 9) and ok.shape == (0, 8)
    rep = variety_jet_check(f, g, SampleCloud(np.zeros((1, 2), dtype=np.complex128)))
    assert rep.witnesses == 1 and rep.backward_checked == 0 and rep.passed
    pts = np.array([[1.0, 1.0], [-1.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
    monkeypatch.setattr(varieties_mod, "_LIFT_BLOCK", 2)
    rep = variety_jet_check(f, g, SampleCloud(pts))
    assert rep.witnesses == 3 and rep.backward_checked == 2 and rep.passed


def jet_loop_forward_failures(F, G, points, threshold, tol, K):
    """The per-witness reference: evaluate each g at constant jets."""
    fails = 0
    for z in points[system_residual(F, points) <= tol].tolist():
        w = [Jet.constant(c, K) for c in z]
        for g in G:
            sp_ = standard_part(g.evaluate(w))
            if sp_ is INFINITE or abs(sp_) > threshold:
                fails += 1
                break
    return fails


def random_case(rng):
    n = int(rng.integers(1, 4))
    terms = {}
    for _ in range(int(rng.integers(2, 6))):
        idx = tuple(int(e) for e in rng.integers(0, 3, n))
        terms[idx] = complex(*rng.uniform(-1, 1, 2))
    terms[(1,) + (0,) * (n - 1)] = 1.0
    return sp(n, terms)


def test_forward_failures_match_the_per_witness_jet_loop():
    rng = np.random.default_rng(13)
    cases = [
        (PolySystem([DIAGONAL]), [tail_jets(DIAGONAL, 4, rng)], 1e-8),
        (
            PolySystem([DIAGONAL, ANTIDIAGONAL]),
            [JetPoly.from_sparse(DIAGONAL), tail_jets(ANTIDIAGONAL, 4, rng)],
            1e-8,
        ),
    ]
    for case in range(30):
        f = random_case(rng)
        n = f.nvars
        g = tail_jets(f, 4, rng, extra=(3,) + (0,) * (n - 1))
        # A perturbation of the standard part inside the match tolerance.
        terms = g.terms
        idx = next(iter(terms))
        terms[idx] = terms[idx] + Jet.constant(5e-13 * (1 + 1j), 4)
        cases.append((PolySystem([f]), [JetPoly(n, terms, 4)], 1e-6 if case % 2 else 1e-8))
    for F, G, tol in cases:
        f = F.polys[0]
        cloud = sample_hypersurface(f, 1.0, 1, grid=5 if f.nvars > 1 else 9, tol=tol)
        jittered = cloud.points + 1e-9 * rng.normal(size=cloud.points.shape)
        samples = SampleCloud(np.vstack([cloud.points, jittered]))
        rep = variety_jet_check(F, G, samples, tol=tol)
        K = min(g.order for g in G)
        want = jet_loop_forward_failures(F, G, samples.points, rep.threshold, tol, K)
        assert rep.forward_failures == want
        assert rep.forward_checked == rep.witnesses


def test_lift_blocks_do_not_change_the_report(monkeypatch):
    import deformkit.varieties as varieties_mod

    f = sp(2, {(2, 0): 1.0, (0, 1): -1.0})
    cloud = sample_hypersurface(f, 1.0, 1, grid=5)
    g = tail_jets(f, 8, np.random.default_rng(6))
    whole = variety_jet_check(f, g, cloud)
    monkeypatch.setattr(varieties_mod, "_LIFT_BLOCK", 3)
    assert variety_jet_check(f, g, cloud) == whole
    # Only the double root of the fiber t1^2 at t2 = 0 is not lifted.
    assert whole.witnesses > 3 and whole.backward_checked == whole.witnesses - 2


def test_jet_witnesses_reject_standard_part_mismatch():
    g = JetPoly.from_sparse(DIAGONAL + SparsePoly.constant(2, 0.5))
    pts = np.zeros((1, 2), dtype=np.complex128)
    with pytest.raises(ValueError):
        variety_jet_check(DIAGONAL, g, SampleCloud(pts))


def test_classify_jet_point():
    e = Jet.eps()
    assert classify_jet_point([e, 1 / e]) == "mixed"
    assert classify_jet_point([e, Jet.constant(2)]) == "finite"
    assert classify_jet_point([1 / e, 1 / (e * e)]) == "infinite"


# -- sample cloud serialization -----------------------------------------------------------


def test_cloud_csv_round_trip():
    pts = np.array([[1 + 2j, -0.5j], [0.25, 3 - 1j]], dtype=np.complex128)
    cloud = SampleCloud(pts, label="demo")
    text = cloud.to_csv()
    assert text.splitlines()[0] == "re_1,im_1,re_2,im_2"
    back = SampleCloud.from_csv(text)
    assert np.array_equal(back.points, cloud.points)


def loop_writer_csv(cloud):
    """Reference: the csv.writer encoding, one repr per coordinate."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = []
    for j in range(cloud.n):
        header += [f"re_{j + 1}", f"im_{j + 1}"]
    writer.writerow(header)
    for row in cloud.points:
        flat = []
        for z in row:
            flat += [repr(float(z.real)), repr(float(z.imag))]
        writer.writerow(flat)
    return buf.getvalue()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cloud_csv_bytes_match_the_loop_writer(n):
    special = [-0.0, 5e-324, -5e-324, 1e16, -1e16, 1e-5, 0.1, 1 / 3, 0.0, 2.5e-7, 1e300]
    rng = np.random.default_rng(n)
    re = rng.choice(special, size=(17, n))
    im = rng.choice(special, size=(17, n))
    re[:4] = rng.normal(size=(4, n)) * 10.0 ** rng.integers(-20, 20, size=(4, n))
    cloud = SampleCloud(re + 1j * im)
    text = cloud.to_csv()
    assert text == loop_writer_csv(cloud)
    back = SampleCloud.from_csv(text)
    assert back.points.shape == cloud.points.shape
    # Bit-exact round trip, signed zeros and subnormals included.
    assert back.points.tobytes() == cloud.points.tobytes()


def test_cloud_csv_formats_repeated_grid_values_once_by_bits():
    # Grid columns repeat a few values, signed zeros among them, so each is
    # formatted once per bit pattern; the last column is all distinct.
    rng = np.random.default_rng(4)
    grid = np.concatenate([np.linspace(-1.0, 1.0, 21), [-0.0, 0.0, 5e-324, -5e-324]])
    rows = 300
    re = rng.choice(grid, size=(rows, 3))
    im = rng.choice(grid, size=(rows, 3))
    re[:, 2] = rng.normal(size=rows)
    im[:, 2] = rng.normal(size=rows) * 1e-300
    cloud = SampleCloud(re + 1j * im)
    zeros = cloud.points.real[:, :2] == 0
    assert (zeros & np.signbit(cloud.points.real[:, :2])).any() and (zeros & ~np.signbit(cloud.points.real[:, :2])).any()
    text = cloud.to_csv()
    assert text == loop_writer_csv(cloud)
    assert "-0.0" in text and ",0.0," in text
    assert SampleCloud.from_csv(text).points.tobytes() == cloud.points.tobytes()


def test_cloud_csv_empty_and_header_only():
    empty = SampleCloud(np.zeros((0, 2), dtype=np.complex128))
    assert empty.to_csv() == loop_writer_csv(empty) == "re_1,im_1,re_2,im_2\n"
    back = SampleCloud.from_csv(empty.to_csv())
    assert back.points.shape == (0, 2)
    with pytest.raises(ValueError, match="empty CSV"):
        SampleCloud.from_csv("")
    with pytest.raises(ValueError, match="unexpected CSV header"):
        SampleCloud.from_csv("x_1,im_1\n1.0,2.0\n")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cloud_rejects_non_finite_points(bad):
    with pytest.raises(ValueError, match="non-finite"):
        SampleCloud(np.array([[0.0, 1.0], [complex(bad, 0.0), 2.0]]))
    with pytest.raises(ValueError, match="non-finite"):
        SampleCloud(np.array([[complex(0.0, bad)]]))
    text = f"re_1,im_1\n0.0,1.0\n{bad!r},0.0\n"
    with pytest.raises(ValueError, match="non-finite"):
        SampleCloud.from_csv(text)


def test_cloud_is_read_only_without_freezing_the_callers_array():
    a = np.zeros((2, 2), dtype=np.complex128)
    cloud = SampleCloud(a)
    a[0, 0] = 1  # the caller's array stays writable
    assert cloud.points[0, 0] == 1  # a view, not a copy
    with pytest.raises(ValueError, match="read-only"):
        cloud.points[0, 0] = 2


def test_cloud_csv_rejects_bad_width():
    with pytest.raises(ValueError):
        SampleCloud.from_csv("re_1,im_1\n1.0,2.0,3.0\n")


# Every finite float64, drawn by bit pattern, plus the edge values named.
EDGE_DOUBLES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]


def bit_pattern_double(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


finite_doubles = st.one_of(
    st.integers(0, 2**64 - 1).map(bit_pattern_double),
    st.sampled_from(EDGE_DOUBLES + [-x for x in EDGE_DOUBLES]),
).filter(np.isfinite)


@st.composite
def flat_clouds(draw):
    """(rows, 2n) float64 arrays, n in 1..3, 0..50 rows."""
    n = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(finite_doubles, min_size=2 * n, max_size=2 * n), max_size=50))
    return np.array(rows, dtype=np.float64).reshape(len(rows), 2 * n)


@settings(max_examples=150, deadline=None)
@given(flat_clouds())
def test_cloud_csv_round_trip_is_bit_exact(flat):
    cloud = SampleCloud(flat.view(np.complex128))
    back = SampleCloud.from_csv(cloud.to_csv())
    assert back.points.shape == cloud.points.shape
    assert back.points.tobytes() == cloud.points.tobytes()


def test_cloud_csv_reader_cases():
    expected = np.array([[1.5 - 2j], [0.25 + 0j]])
    crlf = SampleCloud.from_csv("re_1,im_1\r\n1.5,-2.0\r\n0.25,0.0\r\n")
    quoted = SampleCloud.from_csv('re_1,im_1\n"1.5",-2.0\n0.25,"0.0"\n')
    for cloud in (crlf, quoted):
        assert cloud.points.tobytes() == expected.tobytes()
    # '#' is not a comment: a row holding one is malformed, not shortened.
    for text in ("re_1,im_1\n1.5,-2.0 # note\n", "re_1,im_1\n# note\n1.5,-2.0\n"):
        with pytest.raises(ValueError):
            SampleCloud.from_csv(text)
    with pytest.raises(ValueError, match="row of width 4, expected 2"):
        SampleCloud.from_csv("re_1,im_1\n1,2,3,4\n")


@pytest.mark.parametrize("text", ["re_1,im_1", "re_1,im_1\n", "re_1,im_1\r\n\r\n\n"])
def test_header_only_cloud_reads_without_a_warning(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cloud = SampleCloud.from_csv(text)
    assert cloud.points.shape == (0, 1)
