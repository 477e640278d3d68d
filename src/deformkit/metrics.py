"""Sup-norm distances between points and sampled zero sets.

Includes the line-pair counterexample showing that coefficient closeness
does not bound Hausdorff distance on unbounded zero sets: however small the
tilt ``delta'`` of ``t2 - (1 + delta') t1`` against ``t2 - t1``, any point
of the tilted line with first coordinate of modulus at least
``2 eps / delta'`` sits at sup-norm distance at least eps from the diagonal
(exactly ``delta' |w| / 2``, attained at the midpoint), so the deviation
grows linearly with the window radius.  That analytic bound is computed
alongside the sampled one on purpose: the negative result must not hinge on
sampling density.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .polynomials import SparsePoly, _json_cnum, _require_positive, coeff_sup_distance
from .varieties import SampleCloud, _finite_points, _in_window, complex_grid_axis

__all__ = [
    "sup_norm_dist",
    "point_set_distance",
    "hausdorff",
    "is_eps_set_deformation",
    "counterexample_report",
    "CounterexampleReport",
    "counterexample_pair",
]


def sup_norm_dist(w: Sequence[complex], z: Sequence[complex]) -> float:
    wv = _finite_points(w, "w", (len(w),))  # one point: a 1-D array
    return float(_row_dists(wv[None, :], _finite_points(z, "z", wv.shape)[None, :])[0])


def point_set_distance(w: Sequence[complex], Z: SampleCloud) -> float:
    """Min sup-norm distance from the point to the (finite, nonempty) cloud."""
    if len(Z) == 0:
        raise ValueError("distance to an empty cloud is undefined")
    return _directed_sup(_finite_points(w, "w", (Z.n,))[None, :], Z.points)


# The most complex differences ``_directed_sup`` holds at once.
MAX_BLOCK_DIFFS = 1 << 20
# ``_directed_sup`` scans pairs of clouds with at most this many point pairs
# in full: below it the cell bounds cost more than they save.
_FULL_SCAN_PAIRS = 4096
# Rows per block of the pruned scan: the stop test runs between blocks.
_PRUNED_BLOCK_ROWS = 16


def _row_dists(blk: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Min sup-norm distance from each row of ``blk`` to the rows of ``B``."""
    # A difference past 1.8e308 is inf, which the report refuses (exit 2).
    with np.errstate(over="ignore"):
        return np.abs(blk[:, None, :] - B[None, :, :]).max(axis=2).min(axis=1)


def _cell_bounds(A: np.ndarray, B: np.ndarray) -> np.ndarray | None:
    """Per row ``a`` of ``A``, the computed sup-norm distance to a row of ``B``
    that shares a cell with it (inf without one), or None when a real
    coordinate's span is not finite.

    Three hash grids of 32 cells per real-coordinate span, shifted by
    thirds of a cell, each pair ``a`` with one row of ``B`` in its cell;
    the bound is the least of the three distances.  Each is the elementwise
    expression of ``_row_dists``, so it has the same bits as that pair's
    distance there, and bounds ``a``'s computed minimum.
    """
    X = np.concatenate([A, B]).view(np.float64)
    lo = X.min(axis=0)
    with np.errstate(over="ignore"):
        width = (X.max(axis=0) - lo) / 32
    if not np.isfinite(width).all():
        return None
    width[width == 0] = 1.0
    scaled = (X - lo) / width
    # A cell row (entries 0..32) as one base-34 integer; past 6 complex
    # coordinates it wraps, which merges cells and only weakens the bounds.
    radix = 34 ** np.arange(X.shape[1], dtype=np.int64)
    u = np.full(A.shape[0], np.inf)
    for shift in (0.0, 1 / 3, 2 / 3):
        key = np.floor(scaled + shift).astype(np.int64) @ radix
        _, cell = np.unique(key, return_inverse=True)
        mate = np.full(cell.max() + 1, -1)
        mate[cell[A.shape[0]:]] = np.arange(B.shape[0])
        mate = mate[cell[: A.shape[0]]]
        has = np.flatnonzero(mate >= 0)
        with np.errstate(over="ignore"):
            d = np.abs(A[has] - B[mate[has]]).max(axis=1)
        u[has] = np.minimum(u[has], d)
    return u


def _directed_sup(A: np.ndarray, B: np.ndarray) -> float:
    """Max over rows of ``A`` of the min sup-norm distance to the rows of ``B``.

    Exact, but evaluates only the rows of ``A`` that can raise the maximum:
    each row's cell bound ``u`` (``_cell_bounds``) is a computed distance to
    one row of ``B``, so its minimum over ``B`` is at most ``u``.  Rows go in
    descending ``u``, and the scan stops once ``u`` is at most the running
    maximum, which is itself a computed distance.  The worst case still
    evaluates every pair.  Clouds with at most ``_FULL_SCAN_PAIRS`` point
    pairs, or with a coordinate span that is not finite, are scanned in full.

    Rows are scanned in blocks sized so that a block's differences against
    all of ``B`` stay within ``MAX_BLOCK_DIFFS`` (a block is one row when
    ``B`` alone exceeds it).
    """
    rows = max(1, MAX_BLOCK_DIFFS // max(1, B.shape[0] * B.shape[1]))
    u = None
    if A.shape[0] * B.shape[0] > _FULL_SCAN_PAIRS:
        u = _cell_bounds(A, B)
    if u is None:
        order, u = np.arange(A.shape[0]), np.full(A.shape[0], np.inf)
    else:
        order = np.argsort(-u, kind="stable")
        u = u[order]
        rows = min(rows, _PRUNED_BLOCK_ROWS)
    worst = 0.0
    for start in range(0, A.shape[0], rows):
        stop = start + int(np.count_nonzero(u[start : start + rows] > worst))
        if stop == start:
            break
        worst = max(worst, float(_row_dists(A[order[start:stop]], B).max()))
    return worst


def hausdorff(W: SampleCloud, Z: SampleCloud) -> float:
    """Max of the two directed sup-inf sup-norm distances."""
    if len(W) == 0 or len(Z) == 0:
        raise ValueError("Hausdorff distance needs nonempty clouds")
    if W.n != Z.n:
        raise ValueError(f"dimension mismatch: {W.n} vs {Z.n}")
    return max(_directed_sup(W.points, Z.points), _directed_sup(Z.points, W.points))


def is_eps_set_deformation(W: SampleCloud, Z: SampleCloud, eps: float) -> bool:
    """True iff the Hausdorff distance is strictly below eps (symmetric)."""
    _require_positive("eps", eps)
    return hausdorff(W, Z) < eps


def counterexample_pair(delta_prime: float) -> tuple[SparsePoly, SparsePoly]:
    """The line pair: f = t2 - t1 and its tilt g = t2 - (1 + delta') t1."""
    f = SparsePoly(2, {(0, 1): 1.0, (1, 0): -1.0})
    g = SparsePoly(2, {(0, 1): 1.0, (1, 0): -(1.0 + delta_prime)})
    return f, g


@dataclass(frozen=True)
class Witness:
    w: complex
    point: tuple[complex, complex]
    analytic_distance: float
    measured_distance: float

    def to_json_dict(self) -> dict:
        return {
            "w": _json_cnum(self.w),
            "point": [_json_cnum(z) for z in self.point],
            "analytic_distance": self.analytic_distance,
            "measured_distance": self.measured_distance,
        }


@dataclass(frozen=True)
class CounterexampleReport:
    delta_prime: float
    eps: float
    T: float
    grid: int
    measure_grid: int
    coeff_distance: float
    witness_threshold: float
    witnesses: tuple[Witness, ...]
    max_analytic_distance: float
    max_measured_distance: float
    certified: bool
    status: str
    growth: dict

    def to_json_dict(self) -> dict:
        return {
            "delta_prime": self.delta_prime,
            "eps": self.eps,
            "T": self.T,
            "grid": self.grid,
            "measure_grid": self.measure_grid,
            "coeff_distance": self.coeff_distance,
            "witness_threshold": self.witness_threshold,
            "witness_count": len(self.witnesses),
            "witnesses": [w.to_json_dict() for w in self.witnesses[:200]],
            "max_analytic_distance": self.max_analytic_distance,
            "max_measured_distance": self.max_measured_distance,
            "certified": self.certified,
            "status": self.status,
            "growth": self.growth,
        }


def _witness_scan(delta_prime, eps, T, grid, measure_grid):
    """Witnesses of the tilted line in H(T) plus their diagonal distances.

    A witness ``(w, w2)``, ``w2 = (1 + delta') w``, is measured against the
    diagonal points of the clipped ``measure_grid`` lattice, but only against
    those that can attain the minimum.  With ``m`` the midpoint,
    ``max(|w - d|, |w2 - d|) >= |m - d|`` for every ``d``, so a minimiser lies
    within ``U`` of ``m`` in each coordinate, where ``U`` is the value at any
    lattice point of the disk.  That point is ``m`` truncated toward zero
    coordinatewise, and it lies in the disk because ``|m| < |w2| <= T``.
    Where no lattice value lies between 0 and a coordinate (even lattices)
    the innermost value, at most half a step ``h``, is taken; the other
    coordinate is then at most ``T - h``, and ``(h/2)^2 + (T - h)^2 <= T^2``
    for ``h <= T``, that is for 3 or more lattice points per axis.  One
    lattice step of margin on ``U`` absorbs rounding, so the minimum is the
    one over the whole lattice.
    """
    wgrid = complex_grid_axis(T, grid)
    scale = 1.0 + delta_prime
    on_window = _in_window(wgrid * scale, T)
    threshold = 2.0 * eps / delta_prime
    far = np.abs(wgrid) >= threshold
    ws = wgrid[on_window & far]

    axis = np.linspace(-T, T, measure_grid)
    step = axis[1] - axis[0]

    def toward_zero(x):
        if x >= 0:
            return axis[max(np.searchsorted(axis, x, "right") - 1, measure_grid // 2)]
        return axis[min(np.searchsorted(axis, x, "left"), (measure_grid - 1) // 2)]

    def near(x, half):
        lo = np.searchsorted(axis, x - half, "left")
        return axis[lo:np.searchsorted(axis, x + half, "right")]

    witnesses = []
    for w in ws:
        w2 = scale * w
        m = (w + w2) / 2.0
        d0 = complex(toward_zero(m.real), toward_zero(m.imag))
        half = max(abs(w - d0), abs(w2 - d0)) + step
        diag = near(m.real, half)[:, None] + 1j * near(m.imag, half)[None, :]
        diag = diag[_in_window(diag, T)]
        measured = float(np.minimum.reduce(
            np.maximum(np.abs(w - diag), np.abs(w2 - diag))
        ))
        analytic = float(delta_prime * abs(w) / 2.0)
        witnesses.append(
            Witness(
                w=complex(w),
                point=(complex(w), complex(w2)),
                analytic_distance=analytic,
                measured_distance=measured,
            )
        )
    witnesses.sort(key=lambda x: (-x.analytic_distance, x.w.real, x.w.imag))
    return witnesses


def counterexample_report(
    delta_prime: float,
    eps: float,
    T: float,
    grid: int = 25,
    measure_grid: int | None = None,
) -> CounterexampleReport:
    """Certify that the tilted-line zero set escapes every eps-neighborhood.

    Samples both lines on H(T); for every sampled point of the tilted line
    with ``|w| >= 2 eps / delta_prime`` it reports the exact midpoint bound
    ``delta_prime |w| / 2`` and the measured distance to a dense diagonal
    sample.  Measured distances can only overestimate (the samples are a
    subset of the diagonal), so ``measured >= eps`` certifies the escape.
    Each witness is measured only against the lattice points near its
    midpoint ``m``: every diagonal point ``d`` has
    ``max(|w - d|, |w2 - d|) >= |m - d|``, so no point farther from ``m``
    than the value at a nearby lattice point can be closer, and the measured
    distance is the one over the whole lattice, bit for bit.  A
    ``measure_grid`` below 3 has no lattice point in the disk and is
    rejected.  The growth section repeats the scan at ``2 T`` with
    proportionally scaled grids, exhibiting the linear growth of the
    deviation.

    A window too small to contain any witness yields status
    ``"no witness in window"``, not an error.
    """
    _require_positive("delta_prime", delta_prime)
    _require_positive("eps", eps)
    _require_positive("T", T)
    if measure_grid is None:
        measure_grid = 8 * grid + 1
    if measure_grid < 3:
        raise ValueError(
            f"measure_grid must be >= 3, got {measure_grid}: "
            "coarser lattices have no point in the disk"
        )

    f, g = counterexample_pair(delta_prime)
    dist = coeff_sup_distance(f, g)

    witnesses = _witness_scan(delta_prime, eps, T, grid, measure_grid)
    witnesses2 = _witness_scan(delta_prime, eps, 2.0 * T, grid, measure_grid)

    def summarize(ws):
        if not ws:
            return 0.0, 0.0
        return (
            max(x.analytic_distance for x in ws),
            max(x.measured_distance for x in ws),
        )

    max_a, max_m = summarize(witnesses)
    max_a2, max_m2 = summarize(witnesses2)

    growth = {
        "T_doubled": 2.0 * T,
        "max_analytic_distance": max_a2,
        "max_measured_distance": max_m2,
        "analytic_ratio": (max_a2 / max_a) if max_a else None,
        "measured_ratio": (max_m2 / max_m) if max_m else None,
    }

    # One-ulp slack: the midpoint bound makes every witness distance >= eps
    # in exact arithmetic; float rounding must not flip the certificate.
    floor = eps * (1.0 - 1e-12)
    certified = bool(witnesses) and all(
        x.measured_distance >= floor and x.analytic_distance >= floor
        for x in witnesses
    )
    if not witnesses:
        status = "no witness in window"
    elif certified:
        status = "certified"
    else:
        status = "certification failed"
    return CounterexampleReport(
        delta_prime=delta_prime,
        eps=eps,
        T=T,
        grid=grid,
        measure_grid=measure_grid,
        coeff_distance=dist,
        witness_threshold=2.0 * eps / delta_prime,
        witnesses=tuple(witnesses),
        max_analytic_distance=max_a,
        max_measured_distance=max_m,
        certified=certified,
        status=status,
        growth=growth,
    )
