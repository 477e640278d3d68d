"""Sup-norm set distances and the tilted-line escape certificate."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deformkit import metrics as metrics_mod
from deformkit.varieties import complex_grid_axis

from deformkit import (
    SampleCloud,
    coeff_sup_distance,
    containment_check,
    counterexample_pair,
    counterexample_report,
    hausdorff,
    is_eps_set_deformation,
    point_set_distance,
    sup_norm_dist,
)
from deformkit.cli import main


def cloud(rows):
    return SampleCloud(np.asarray(rows, dtype=np.complex128))


def test_sup_norm_examples():
    assert sup_norm_dist((0, 0), (1, 2)) == 2.0
    assert sup_norm_dist((1.5j, -2), (1.5j, -2)) == 0.0
    assert sup_norm_dist((1 + 1j, 0), (1, 0)) == 1.0
    with pytest.raises(ValueError):
        sup_norm_dist((1,), (1, 2))


def test_point_to_cloud():
    Z = cloud([[1, 1], [3, 3]])
    assert point_set_distance((1, 1), Z) == 0.0
    assert point_set_distance((0, 0), Z) == 1.0
    with pytest.raises(ValueError):
        point_set_distance((0, 0), SampleCloud(np.zeros((0, 2))))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(0, -np.inf)])
@pytest.mark.parametrize("pos", [0, 1])
def test_distances_reject_non_finite_points(bad, pos):
    # max() drops a NaN that follows a number, so these returned 0.0.
    point = [0j, 0j]
    point[pos] = bad
    for args in ((point, (0, 0)), ((0, 0), point)):
        with pytest.raises(ValueError, match="non-finite coordinate"):
            sup_norm_dist(*args)
    with pytest.raises(ValueError, match="non-finite coordinate"):
        point_set_distance(point, cloud([[0, 0], [1, 1]]))


def test_distance_point_checks_name_the_point():
    with pytest.raises(ValueError) as exc:
        sup_norm_dist((0, 0), (np.nan, 1j))
    assert str(exc.value) == "non-finite coordinate in z: [(nan+0j), 1j]"
    with pytest.raises(ValueError) as exc:
        point_set_distance((0, -np.inf), cloud([[0, 0]]))
    assert str(exc.value) == "non-finite coordinate in w: [0j, (-inf+0j)]"
    # An array of points is not one point: it must raise, not broadcast.
    row = np.array([[0, 0]])
    with pytest.raises(ValueError, match=r"^w has shape \(1, 2\), expected \(2,\)$"):
        point_set_distance(row, cloud([[1, 1], [3, 3]]))
    with pytest.raises(ValueError, match=r"^z has shape \(1, 2\), expected \(2,\)$"):
        sup_norm_dist((0, 0), row)


@st.composite
def point_pairs(draw):
    n = draw(st.integers(1, 4))
    part = st.floats(-1e6, 1e6, allow_nan=False)
    cnum = st.builds(complex, part, part)
    point = st.lists(cnum, min_size=n, max_size=n)
    return draw(point), draw(point)


@settings(max_examples=200, deadline=None)
@given(point_pairs())
def test_pair_distance_is_one_value(pair):
    # sup_norm_dist took Python's complex abs and the cloud distances NumPy's,
    # which differ in the last bit on about a third of pairs.
    w, z = pair
    d = sup_norm_dist(w, z)
    assert d == point_set_distance(w, cloud([z])) == hausdorff(cloud([w]), cloud([z]))
    assert d == sup_norm_dist(z, w)


def test_hausdorff_examples():
    W = cloud([[0, 0]])
    Z = cloud([[1, 2]])
    assert hausdorff(W, W) == 0.0
    assert hausdorff(W, Z) == 2.0
    # the asymmetric sup matters
    A = cloud([[0], [10]])
    B = cloud([[0]])
    assert hausdorff(A, B) == 10.0
    assert hausdorff(B, A) == 10.0


def test_hausdorff_pseudometric_properties():
    rng = np.random.default_rng(8)
    for _ in range(25):
        n = int(rng.integers(1, 3))
        A = cloud(rng.normal(size=(rng.integers(1, 6), n)) * (1 + 1j))
        B = cloud(rng.normal(size=(rng.integers(1, 6), n)) * (1 + 1j))
        C = cloud(rng.normal(size=(rng.integers(1, 6), n)) * (1 + 1j))
        dab = hausdorff(A, B)
        assert dab == hausdorff(B, A)
        assert dab <= hausdorff(A, C) + hausdorff(C, B) + 1e-12
    # zero iff equal as sets (duplicates and order are immaterial)
    A = cloud([[1, 2], [3, 4], [1, 2]])
    B = cloud([[3, 4], [1, 2]])
    assert hausdorff(A, B) == 0.0
    assert hausdorff(A, cloud([[3, 4], [1, 2.5]])) > 0


def test_set_deformation_is_strict_and_symmetric():
    W = cloud([[0, 0]])
    Z = cloud([[1, 2]])
    assert not is_eps_set_deformation(W, Z, 2.0)
    assert is_eps_set_deformation(W, Z, 2.5)
    assert is_eps_set_deformation(Z, W, 2.5)
    assert is_eps_set_deformation(W, W, 1e-12)


# -- the escape certificate ---------------------------------------------------------


def test_pair_coefficient_distance_is_the_tilt():
    f, g = counterexample_pair(0.1)
    assert coeff_sup_distance(f, g) == pytest.approx(0.1, rel=1e-12)


def test_certificate_at_reference_parameters():
    rep = counterexample_report(0.1, 0.5, 12.0, grid=25, measure_grid=241)
    assert rep.status == "certified"
    assert rep.witness_threshold == pytest.approx(10.0, abs=1e-12)
    # the on-axis witness: |w| = 10 exactly, distance exactly tilt*|w|/2
    best = [w for w in rep.witnesses if abs(abs(w.w) - 10.0) < 1e-9]
    assert best
    for w in best:
        assert w.analytic_distance == pytest.approx(0.5, abs=1e-12)
        assert abs(w.measured_distance - 0.5) <= 0.01  # within 2 percent
    assert all(w.measured_distance >= 0.5 * (1 - 1e-12) for w in rep.witnesses)


def test_origin_lies_on_both_lines():
    diag = cloud([[z, z] for z in np.linspace(-2, 2, 81)])
    assert point_set_distance((0, 0), diag) == 0.0


def test_midpoint_bound_holds_against_every_sample():
    # For each diagonal sample z and witness point (w, (1+d)w):
    # max(|w - z|, |(1+d)w - z|) >= d |w| / 2, independent of density.
    rng = np.random.default_rng(19)
    d = 0.07
    zs = rng.normal(size=40) + 1j * rng.normal(size=40)
    for _ in range(20):
        w = complex(*rng.uniform(-30, 30, 2))
        bound = d * abs(w) / 2
        for z in zs:
            measured = max(abs(w - z), abs((1 + d) * w - z))
            assert measured >= bound * (1 - 1e-12)


def test_deviation_grows_linearly_with_window():
    rep = counterexample_report(0.1, 0.5, 12.0, grid=25, measure_grid=241)
    growth = rep.growth
    assert growth["analytic_ratio"] >= 2.0 * (1 - 1e-12)
    assert growth["measured_ratio"] >= 2.0 * (1 - 1e-9)
    assert growth["max_analytic_distance"] >= rep.max_analytic_distance * 2 * (1 - 1e-12)


def test_small_window_has_no_witness():
    rep = counterexample_report(0.1, 0.5, 5.0, grid=25, measure_grid=81)
    assert rep.status == "no witness in window"
    assert rep.witnesses == ()


def test_bounded_window_containment_still_passes():
    # The same pair escapes globally yet satisfies containment on H(1).
    f, g = counterexample_pair(0.1)
    rep = containment_check(f, g, T=1.0, eps=0.5, grid=9)
    assert rep.violations == 0


def test_certificate_parameter_validation():
    with pytest.raises(ValueError):
        counterexample_report(0.0, 0.5, 12.0)
    with pytest.raises(ValueError):
        counterexample_report(0.1, -1.0, 12.0)
    with pytest.raises(ValueError):
        counterexample_report(0.1, 0.5, 0.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_certificate_rejects_non_finite_parameters(bad):
    with pytest.raises(ValueError, match="delta_prime must be positive"):
        counterexample_report(bad, 0.5, 12.0)
    with pytest.raises(ValueError, match="eps must be positive"):
        counterexample_report(0.1, bad, 12.0)
    with pytest.raises(ValueError, match="T must be positive"):
        counterexample_report(0.1, 0.5, bad)
    w = cloud([[0j, 0j]])
    with pytest.raises(ValueError, match="eps must be positive"):
        is_eps_set_deformation(w, w, bad)


def test_lattice_without_disk_points_is_rejected():
    # The 2-point lattice has its corners at T*sqrt(2), outside the disk, so
    # no witness has a measured distance: that is not a certificate.
    with pytest.raises(ValueError, match="measure_grid"):
        counterexample_report(0.1, 0.5, 12.0, 25, 2)
    assert counterexample_report(0.1, 0.5, 12.0, 25, 3).certified


def full_scan_distances(rep):
    """Each witness measured against the whole clipped diagonal lattice."""
    diag = complex_grid_axis(rep.T, rep.measure_grid)
    return [
        float(np.minimum.reduce(
            np.maximum(np.abs(x.point[0] - diag), np.abs(x.point[1] - diag))
        ))
        for x in rep.witnesses
    ]


# (delta', eps, T, grid, measure_grid)
SCAN_CASES = [
    # the two `bound` benchmark configurations, at T and at 2T
    (0.1, 0.5, 12.0, 25, 1201),
    (0.1, 0.5, 24.0, 25, 1201),
    (0.05, 0.25, 12.0, 25, 1201),
    (0.05, 0.25, 24.0, 25, 1201),
    # odd and even lattices
    (0.1, 0.5, 12.0, 25, 241),
    (0.1, 0.5, 12.0, 24, 240),
    # coarse lattices: the step exceeds delta' |w| / 2
    (0.1, 0.5, 12.0, 25, 7),
    (0.1, 0.5, 12.0, 25, 4),
    # small tilt: midpoints within one lattice step of the disk edge
    (1e-3, 0.005, 12.0, 25, 25),
    (1e-3, 0.005, 12.0, 25, 24),
    (1e-3, 0.005, 12.0, 31, 3),
    # large tilt
    (2.0, 1.0, 12.0, 25, 241),
    (2.0, 1.0, 12.0, 25, 10),
]


@pytest.mark.parametrize("case", SCAN_CASES, ids=lambda c: "-".join(map(str, c)))
def test_witness_scan_matches_full_lattice_scan(case):
    rep = counterexample_report(*case)
    assert rep.witnesses
    assert [x.measured_distance for x in rep.witnesses] == full_scan_distances(rep)


def test_small_tilt_cases_reach_the_disk_edge():
    for dp, eps, T, grid, mgrid in SCAN_CASES:
        if dp != 1e-3:
            continue
        step = 2.0 * T / (mgrid - 1)
        rep = counterexample_report(dp, eps, T, grid, mgrid)
        mids = [abs(x.point[0] + x.point[1]) / 2 for x in rep.witnesses]
        assert max(mids) > T - step


def test_witness_scan_is_lattice_local():
    # The whole lattice at 1201 is about 1.13M complex points (18 MB), and
    # scanning it held about 63 MB at once.
    tracemalloc.start()
    try:
        rep = counterexample_report(0.1, 0.5, 12.0, 25, 1201)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.certified
    assert peak < 8 * 2**20


def brute_hausdorff(W, Z):
    """All |W| x |Z| sup-norm distances at once, then both directed sups."""
    d = np.abs(W[:, None, :] - Z[None, :, :]).max(axis=2)
    return max(float(d.min(axis=1).max()), float(d.min(axis=0).max()))


def test_hausdorff_blocks_match_bruteforce(monkeypatch):
    rng = np.random.default_rng(8)
    W = cloud(rng.normal(size=(37, 2)) + 1j * rng.normal(size=(37, 2)))
    Z = cloud(rng.normal(size=(23, 2)) + 1j * rng.normal(size=(23, 2)))
    want = brute_hausdorff(W.points, Z.points)
    assert hausdorff(W, Z) == want
    # A block of 2 rows holds far fewer rows than either cloud.
    monkeypatch.setattr(metrics_mod, "MAX_BLOCK_DIFFS", 2 * 23 * 2)
    assert hausdorff(W, Z) == want
    assert hausdorff(Z, W) == want
    monkeypatch.setattr(metrics_mod, "MAX_BLOCK_DIFFS", 1)
    assert hausdorff(W, Z) == want
    for w in W.points[:5]:
        assert point_set_distance(w, Z) == float(np.abs(Z.points - w).max(axis=1).min())


def brute_directed(A, B):
    return float(np.abs(A[:, None, :] - B[None, :, :]).max(axis=2).min(axis=1).max())


@st.composite
def cloud_pairs(draw):
    """Two clouds in C^n: random, a shifted copy, lattice points full of
    duplicates and tied distances, one point against many, or two clouds
    apart so that no point has a cell-mate."""
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["random", "shifted", "ties", "one_point", "apart"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, b = draw(st.integers(1, 150)), draw(st.integers(1, 150))

    def pts(k, scale=1.0):
        return scale * (rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n)))

    if kind == "random":
        W, Z = pts(a), pts(b)
    elif kind == "shifted":
        W = pts(a)
        Z = W + pts(1, 10.0 ** draw(st.integers(-12, 0)))
    elif kind == "ties":
        W = 0.5 * (rng.integers(-2, 3, (a, n)) + 1j * rng.integers(-2, 3, (a, n)))
        Z = 0.5 * (rng.integers(-2, 3, (b, n)) + 1j * rng.integers(-2, 3, (b, n)))
    elif kind == "one_point":
        W, Z = pts(1), pts(b)
    else:
        W, Z = pts(a), pts(b) + 100.0
    return (W, Z) if draw(st.booleans()) else (Z, W)


@settings(max_examples=200, deadline=None)
@given(cloud_pairs())
def test_pruned_hausdorff_equals_all_pairs_bit_for_bit(pair):
    W, Z = pair
    want = brute_hausdorff(W, Z)
    assert hausdorff(cloud(W), cloud(Z)) == want
    # Each finite cell bound is one of the row's computed distances.
    u = metrics_mod._cell_bounds(W, Z)
    fin = np.isfinite(u)
    d = np.abs(W[:, None, :] - Z[None, :, :]).max(axis=2)
    assert (d[fin] == u[fin, None]).any(axis=1).all()
    # Small pairs are scanned in full; without that rule every pair is pruned.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics_mod, "_FULL_SCAN_PAIRS", 0)
        assert metrics_mod._directed_sup(W, Z) == brute_directed(W, Z)
        assert metrics_mod._directed_sup(Z, W) == brute_directed(Z, W)
        assert hausdorff(cloud(W), cloud(Z)) == want


def test_pruning_evaluates_few_rows_of_a_shifted_copy(monkeypatch):
    rng = np.random.default_rng(5)
    W = rng.normal(size=(600, 2)) + 1j * rng.normal(size=(600, 2))
    Z = W + 1e-3 * (1 - 2j)
    rows = []
    row_dists = metrics_mod._row_dists

    def counted(blk, B):
        rows.append(blk.shape[0])
        return row_dists(blk, B)

    monkeypatch.setattr(metrics_mod, "_row_dists", counted)
    assert hausdorff(cloud(W), cloud(Z)) == brute_hausdorff(W, Z)
    # Both directions hold 1,200 rows; the cell bounds rule out all but a few.
    assert 0 < sum(rows) <= 64


@pytest.mark.parametrize("span_finite", [False, True])
def test_overflowing_distances_give_inf_and_exit_two(span_finite, tmp_path):
    # Past 1.8e308 a real-coordinate span is inf and the pair is scanned in
    # full; below it, re and im differences of 1.6e308 still overflow |.|.
    rng = np.random.default_rng(3)
    noise = 1e300 * (rng.normal(size=(80, 1)) + 1j * rng.normal(size=(80, 1)))
    far = 1e308 if not span_finite else 0.8e308 * (1 + 1j)
    W, Z = far + noise, -far + noise[::-1]
    with np.errstate(over="ignore"):
        assert np.isinf(brute_hausdorff(W, Z))
    assert hausdorff(cloud(W), cloud(Z)) == np.inf
    wp, zp = tmp_path / "W.csv", tmp_path / "Z.csv"
    wp.write_text(cloud(W).to_csv())
    zp.write_text(cloud(Z).to_csv())
    assert main(["hausdorff", "--W", str(wp), "--Z", str(zp)]) == 2


def test_hausdorff_dimension_mismatch():
    with pytest.raises(ValueError):
        hausdorff(cloud([[0, 0]]), cloud([[0]]))
    with pytest.raises(ValueError):
        hausdorff(cloud([[0]]), SampleCloud(np.zeros((0, 1))))
