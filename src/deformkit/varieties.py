"""Zero sets of polynomials on a bounded window, and their deformations.

The window is the complex hypercube ``H(T)`` of sup-norm radius ``T``.  A
complex grid axis is the Cartesian product of uniform real grids on the
real and imaginary parts over ``[-T, T]`` (``resolution`` points per real
axis), restricted to modulus at most ``T``; full grids are products of such
axes, so membership in ``H(T)`` factors per coordinate.

Quantitative deformation bound: if every coefficient of ``g`` is strictly
within ``delta_bound(eps, T, d, support_size)`` of ``f``'s, then
``|g - f| < eps`` everywhere on ``H(T)`` (``lemma_check`` verifies the
supremum numerically), and consequently the zero set of ``f`` inside
``H(T)`` stays inside the eps-sublevel set of ``g`` (``containment_check``).

Zero sets are sampled fiberwise: fixing all coordinates but one on a grid
leaves a univariate polynomial per fiber, split off by ``_kernels.fiber_split``
as in ``lemma_check``'s grid supremum and solved in one batched sweep.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import _kernels
from .jets import ST_MATCH_TOL, Jet, JetPoly, _check_st_match, _lift_order, lift_fibers
from .polynomials import (
    PolySystem,
    SparsePoly,
    _json_cnum,
    _require_positive,
    coeff_sup_distance,
    degree_and_support,
)
from .roots import solve_batch

__all__ = [
    "Hypercube",
    "SampleCloud",
    "complex_grid_axis",
    "v_eps_member",
    "delta_bound",
    "lemma_check",
    "LemmaReport",
    "sample_hypersurface",
    "containment_check",
    "ContainmentReport",
    "system_residual",
    "variety_jet_check",
    "VarietyJetReport",
    "classify_jet_point",
    "lipschitz_bound",
    "eval_at_points",
    "default_axis",
    "DEGENERATE_LEAD_TOL",
]

# A fiber's leading coefficient below this is treated as a degree drop and
# the fiber is skipped (and counted), never interpolated.
DEGENERATE_LEAD_TOL = 1e-12
_LIFT_BLOCK = 4096  # witnesses lifted at once: bounds the (rows, d+1, K+1) arrays


@dataclass(frozen=True)
class Hypercube:
    """Closed sup-norm ball of radius T in n complex dimensions."""

    T: float
    n: int

    def __post_init__(self):
        _require_positive("T", self.T)
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")

    def contains(self, point: Sequence[complex]) -> bool:
        return bool(_in_window(_finite_points(point, shape=(self.n,)), self.T).all())


def _finite_points(points, name: str = "point", shape: tuple | None = None) -> np.ndarray:
    """One point or an (M, n) array of points as complex128; a shape other
    than ``shape`` (if given), NaN or inf raises ValueError."""
    arr = np.asarray(points, dtype=np.complex128)
    if shape is not None and arr.shape != shape:
        raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
    if not np.isfinite(arr).all():
        rows = arr.reshape(-1, arr.shape[-1] if arr.ndim else 1)
        i = int(np.argmin(np.isfinite(rows).all(axis=1)))
        where = f"{name} {i}" if arr.ndim >= 2 else name
        raise ValueError(f"non-finite coordinate in {where}: {rows[i].tolist()}")
    return arr


def _in_window(z, T: float):
    """Whether ``|z| <= T``, with one part in 1e12 of slack for rounding."""
    return np.abs(z) <= T * (1.0 + 1e-12)


def complex_grid_axis(T: float, resolution: int) -> np.ndarray:
    """Grid values for one complex coordinate, C-ordered by (re, im) index."""
    _require_positive("T", T)
    if resolution < 3:  # 2 points per real axis give only the corners +-T +-iT
        raise ValueError(f"resolution must be >= 3 to reach the disk, got {resolution}")
    _kernels.check_grid_size(resolution**2)
    g = np.linspace(-T, T, resolution)
    re, im = np.meshgrid(g, g, indexing="ij")
    vals = (re + 1j * im).ravel()
    return vals[_in_window(vals, T)]


class SampleCloud:
    """Finite set of points in C^n with provenance."""

    __slots__ = ("points", "label", "meta")

    def __init__(self, points, label: str = "", meta: dict | None = None):
        arr = np.asarray(points, dtype=np.complex128)
        if arr.ndim != 2:
            raise ValueError("points must be a 2-D array of shape (count, n)")
        _finite_points(arr, "sample point")
        arr = arr.view()  # read-only without freezing the caller's array
        arr.setflags(write=False)
        object.__setattr__(self, "points", arr)
        object.__setattr__(self, "label", str(label))
        object.__setattr__(self, "meta", dict(meta or {}))

    def __setattr__(self, name, value):
        raise AttributeError("SampleCloud is immutable")

    @property
    def n(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]

    def to_csv(self) -> str:
        """Header ``re_1,im_1,...`` then one row per point, each float by
        ``repr`` so that ``from_csv`` reads back the same bits (see
        ``_repr_column``)."""
        header = ",".join(f"{part}_{j + 1}" for j in range(self.n) for part in ("re", "im"))
        flat = np.ascontiguousarray(self.points).view(np.float64)
        cols = [_repr_column(col) for col in flat.reshape(len(self), 2 * self.n).T]
        return "\n".join([header, *map(",".join, zip(*cols))]) + "\n"

    @classmethod
    def from_csv(cls, text: str, label: str = "") -> "SampleCloud":
        first, _, body = text.partition("\n")
        header = first.strip().split(",")
        if header == [""]:
            raise ValueError("empty CSV")
        if len(header) % 2 or header[0] != "re_1":
            raise ValueError(f"unexpected CSV header {header!r}")
        flat = np.empty((0, len(header)))
        if body.strip("\r\n"):  # loadtxt warns on input without rows
            flat = np.loadtxt(
                io.StringIO(body), delimiter=",", ndmin=2, comments=None, quotechar='"'
            )
        if flat.shape[1] != len(header):
            raise ValueError(f"row of width {flat.shape[1]}, expected {len(header)}")
        return cls(flat.view(np.complex128), label=label)


def _repr_column(col: np.ndarray) -> list[str]:
    """``repr`` of each float of ``col``.

    A column of 64 or more rows with at most half its bit patterns distinct
    (a grid coordinate of a sampled zero set) formats each pattern once;
    keying on bits keeps ``0.0`` and ``-0.0`` apart.  On fewer rows
    ``np.unique`` costs more than the formatting it saves.
    """
    if col.size >= 64:
        bits, where = np.unique(col.view(np.int64), return_inverse=True)
        if 2 * bits.size <= col.size:
            text = np.array([repr(x) for x in bits.view(np.float64).tolist()], dtype=object)
            return text[where].tolist()
    return list(map(repr, col.tolist()))


# -- pointwise membership and the quantitative bound -------------------------


def v_eps_member(g: SparsePoly, w, eps: float) -> bool | np.ndarray:
    """True iff |g(w)| < eps (strict); one answer per point of an (M, n) array."""
    _require_positive("eps", eps)
    member = np.abs(g.evaluate(_finite_points(w))) < eps
    return bool(member) if member.ndim == 0 else member


def delta_bound(eps: float, T: float, d: int, support_size: int) -> float:
    """Exclusive coefficient budget eps / (T**d * support_size).

    Any deformation strictly below this bound moves values on the radius-T
    hypercube by less than eps: each of the ``support_size`` monomials is
    bounded by ``T**d`` there.  Requires ``T >= 1`` (so lower-degree
    monomials are also covered by ``T**d``).
    """
    _require_positive("eps", eps)
    if not T >= 1:  # also false for NaN
        raise ValueError(f"the bound requires T >= 1, got {T}")
    if d < 0:
        raise ValueError(f"degree must be >= 0, got {d}")
    if support_size < 1:
        raise ValueError(f"support_size must be >= 1, got {support_size}")
    return eps / (float(T) ** d * support_size)


def _deformation_precondition(
    f: SparsePoly, g: SparsePoly, eps: float, T: float
) -> tuple[float, float]:
    """``(limit, dist)``: the pair's ``delta_bound`` and g's coefficient distance.

    The quantitative bound indexes both polynomials by one support set, so
    its degree and support size come from the union support of the pair,
    with zero-filled missing coefficients.  Raises unless ``f`` is nonzero
    and every coefficient of ``g`` deviates strictly below the bound, naming
    the worst offender.
    """
    if f.is_zero():
        raise ValueError("the base polynomial must be nonzero")
    ft, gt = f.terms, g.terms
    idxs = ft.keys() | gt.keys()
    limit = delta_bound(eps, T, max(sum(i) for i in idxs), len(idxs))
    dist = coeff_sup_distance(f, g)  # raises on a variable count mismatch
    if dist >= limit:
        worst = max(idxs, key=lambda i: abs(gt.get(i, 0j) - ft.get(i, 0j)))
        raise ValueError(
            f"coefficient at {worst} deviates by {dist:.6g}, "
            f"not strictly below the bound {limit:.6g}"
        )
    return limit, dist


def _term_arrays(p: SparsePoly):
    items = p.sorted_terms()
    exps = np.array([idx for idx, _ in items], dtype=np.int64).reshape(len(items), p.nvars)
    return exps, np.array([c for _, c in items], dtype=np.complex128)


def _grid_points(flat, axes: list[np.ndarray]) -> np.ndarray:
    """Points of the product grid of ``axes`` at the C-order (last axis
    fastest) indices ``flat``, a scalar or an array: shape
    ``np.shape(flat) + (len(axes),)``."""
    out = np.empty(np.shape(flat) + (len(axes),), dtype=np.complex128)
    for q in reversed(range(len(axes))):
        flat, k = np.divmod(flat, axes[q].size)
        out[..., q] = axes[q][k]
    return out


@dataclass(frozen=True)
class LemmaReport:
    eps: float
    T: float
    grid: int
    delta_limit: float
    coeff_distance: float
    sup_deviation: float
    argmax_point: tuple[complex, ...]
    points_checked: int
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "eps": self.eps,
            "T": self.T,
            "grid": self.grid,
            "delta_limit": self.delta_limit,
            "coeff_distance": self.coeff_distance,
            "sup_deviation": self.sup_deviation,
            "argmax_point": [_json_cnum(z) for z in self.argmax_point],
            "points_checked": self.points_checked,
            "passed": self.passed,
        }


def lemma_check(
    f: SparsePoly, g: SparsePoly, T: float, eps: float, grid: int = 21
) -> LemmaReport:
    """Measure sup |g - f| over the gridded hypercube and compare with eps.

    Requires ``g`` to deviate strictly below ``delta_bound`` per coefficient
    (violations raise, naming the offending term); under that hypothesis the
    reported supremum is guaranteed below eps.  The bound's degree and
    support size come from the union support of the pair.
    """
    limit, dist = _deformation_precondition(f, g, eps, T)
    diff = g - f
    axis = complex_grid_axis(T, grid)
    axes = [axis] * f.nvars
    exps, coeffs = _term_arrays(diff)
    sup, flat = _kernels.grid_sup_abs(exps, coeffs, axes)
    point = tuple(_grid_points(max(flat, 0), axes))
    total = axis.size**f.nvars
    return LemmaReport(
        eps=eps,
        T=T,
        grid=grid,
        delta_limit=limit,
        coeff_distance=dist,
        sup_deviation=sup,
        argmax_point=point,
        points_checked=total,
        passed=sup < eps,
    )


# -- zero-set sampling ---------------------------------------------------------


def eval_at_points(p: SparsePoly, points: np.ndarray) -> np.ndarray:
    """Values of ``p`` at an (M, n) array of points (``SparsePoly.evaluate``)."""
    pts = np.asarray(points, dtype=np.complex128)
    if pts.ndim != 2 or pts.shape[1] != p.nvars:
        raise ValueError(f"points must have shape (M, {p.nvars})")
    return p.evaluate(pts)


def default_axis(f: SparsePoly) -> int:
    """The 1-based index of the first variable ``f`` depends on."""
    for k in range(f.nvars):
        if f.degree_in(k) > 0:
            return k + 1
    raise ValueError("polynomial is constant; its zero set is empty")


def _sampling_grid(nvars: int, T: float, axis: int | None, grid: int, tol: float) -> np.ndarray:
    """The grid axis of each fiber coordinate of ``sample_hypersurface``;
    raises ValueError on an option sampling refuses.  An ``axis`` of None
    is resolved later, from the polynomial."""
    _require_positive("tol", tol)
    if axis is not None and not 1 <= axis <= nvars:
        raise ValueError(f"axis must be in 1..{nvars}, got {axis}")
    return complex_grid_axis(T, grid)


def _root_free(rows: np.ndarray, T: float, limit: float) -> np.ndarray:
    """Per fiber row ``a`` (ascending coefficients, degree m): whether every
    root the solver could return fails ``sample_hypersurface``'s keep rule,
    so that solving the row cannot add a point.

    A kept root z has a computed ``|z| <= T (1 + 1e-12)``; the rounding of
    that test is far below the extra 1e-12 in ``R = T (1 + 2e-12)``, so
    ``|z| <= R``, and there
    ``|p(z)| >= A_0 - sum_{k>=1} A_k |z|^k >= 2 A_0 - S`` with ``A_k = |a_k|``
    and ``S = sum_k A_k R^k`` (``_kernels.noise_scale``).  The row is
    root-free when ``2 A_0 - S - 8 (m + 2) u S - sqrt(tiny) > limit``:

    - Horner's computed p(z) lies within ``(1 + sqrt(2) gamma_2)^m (1 + u)^m
      - 1 ~ 3.83 m u`` times S of p(z) (Higham 2002, §3.6 and §5.1), and
      the computed modulus adds 2u;
    - the computed S and ``2 A_0`` lie within ``(2m + 2) u S`` and
      ``4 u S`` of their values, and the three subtractions and the margin's
      product add ``3 u S``;

    together at most ``(5.83 m + 11.1) u S < 8 (m + 2) u S``, so every
    computed residual exceeds ``limit``.  ``sqrt(tiny)`` covers underflow:
    a row with ``S`` below it is never skipped, and above it the absolute
    error of underflowing products is far below the relative margin's
    slack.  ``2 A_0 - S`` is formed as ``A_0 - (S - A_0)``, which cannot
    overflow while S is finite; a NaN or inf in the bound compares false,
    so such a row is solved.
    """
    A = np.abs(rows)
    margin = 8 * (rows.shape[1] + 1) * _kernels._UNIT
    with np.errstate(over="ignore", invalid="ignore"):
        S = _kernels.noise_scale(A, T * (1.0 + 2e-12))[:, 0]
        bound = A[:, 0] - (S - A[:, 0]) - (margin * S + _kernels._TINY_SQRT)
    return bound > limit


def sample_hypersurface(
    f: SparsePoly,
    T: float,
    axis: int | None = None,
    grid: int = 21,
    tol: float = 1e-8,
) -> SampleCloud:
    """Finite stand-in for the zero set of ``f`` inside the radius-T hypercube.

    For every grid assignment of the other coordinates, the polynomial is
    specialized to the 1-based ``axis`` variable (``default_axis(f)`` if
    None) and solved; roots of modulus
    at most ``T`` whose full residual ``|f(z)|`` stays within ``tol`` times
    the documented scale are kept.  Fibers whose leading coefficient
    collapses (degree drop) are skipped and counted in ``meta``.  Fibers
    that ``_root_free`` certifies to keep no point are not solved, so
    ``meta["fibers_unconverged"]`` counts the solved fibers where the solver
    failed to converge.
    """
    if f.is_zero():
        raise ValueError("cannot sample the zero polynomial")
    grid_axis = _sampling_grid(f.nvars, T, axis, grid, tol)
    n = f.nvars
    if axis is None:
        axis = default_axis(f)
    j = axis - 1
    m = f.degree_in(j)
    if m < 1:
        raise ValueError(f"polynomial is constant in axis {axis}")
    d, support = degree_and_support(f)
    scale = 1.0 + f.coeff_inf_norm() * support * float(max(T, 1.0)) ** d

    other = [k for k in range(n) if k != j]
    fiber_axes = [grid_axis] * len(other)

    # Row b of C holds the coefficients in the axis variable at fiber b.
    exps, coeffs = _term_arrays(f)
    powers, partial = _kernels.fiber_split(exps[:, other + [j]], coeffs, fiber_axes)
    C = np.zeros((partial.shape[1], m + 1), dtype=np.complex128)
    C[:, powers] = partial.T

    good = np.flatnonzero(np.abs(C[:, m]) >= DEGENERATE_LEAD_TOL)
    limit = tol * scale
    solved = good[~_root_free(C[good], T, limit)]
    roots, res, converged = solve_batch(C[solved])
    keep = _in_window(roots, T) & (res <= limit)
    rows, cols = np.nonzero(keep)
    points = np.empty((rows.size, n), dtype=np.complex128)
    points[:, other] = _grid_points(solved[rows], fiber_axes)
    points[:, j] = roots[rows, cols]

    return SampleCloud(
        points,
        label=f"sampled zero set (axis={axis}, T={T}, grid={grid})",
        meta={
            "fibers_total": len(C),
            "fibers_degenerate": len(C) - good.size,
            "fibers_unconverged": int((~converged).sum()),
            "points_kept": rows.size,
            "max_residual": float(res[rows, cols].max(initial=0.0)),
            "residual_scale": scale,
            "tol": tol,
        },
    )


def lipschitz_bound(g: SparsePoly, T: float) -> float:
    """Bound on |g(w) - g(z)| / ||w - z||_inf over the radius-T hypercube."""
    total = 0.0
    for idx, c in g.terms.items():
        deg = sum(idx)
        if deg:
            total += abs(c) * deg * float(max(T, 1.0)) ** (deg - 1)
    return total


@dataclass(frozen=True)
class ContainmentReport:
    eps: float
    T: float
    grid: int
    delta_limit: float
    coeff_distance: float
    violations: int
    max_residual: float
    eps_effective: float
    samples: int
    sample_meta: dict = field(compare=False)
    violation_list: tuple = ()
    # The sampled zero set itself, kept for export; not part of the report.
    cloud: SampleCloud | None = field(default=None, compare=False, repr=False)

    def to_json_dict(self) -> dict:
        return {
            "eps": self.eps,
            "T": self.T,
            "grid": self.grid,
            "delta_limit": self.delta_limit,
            "coeff_distance": self.coeff_distance,
            "violations": self.violations,
            "max_residual": self.max_residual,
            "eps_effective": self.eps_effective,
            "samples": self.samples,
            "sample_meta": self.sample_meta,
            "violation_list": [
                {"point": [_json_cnum(z) for z in pt], "residual": r}
                for pt, r in self.violation_list
            ],
        }


def containment_check(
    f: SparsePoly,
    g: SparsePoly,
    T: float,
    eps: float,
    grid: int = 21,
    tol: float = 1e-8,
    axis: int | None = None,
) -> ContainmentReport:
    """Sample the zero set of ``f`` in H(T) and test |g| < eps at each point.

    Under the coefficient precondition the sampled containment has no
    violations; sampling error is accounted for by reporting
    ``eps_effective = eps - lipschitz_bound(g, T) * tol``.
    """
    limit, dist = _deformation_precondition(f, g, eps, T)
    cloud = sample_hypersurface(f, T, axis, grid, tol)

    vals = np.abs(eval_at_points(g, cloud.points))
    bad = np.nonzero(vals >= eps)[0]
    max_residual = float(vals.max()) if vals.size else 0.0

    listed = tuple(
        (tuple(complex(z) for z in cloud.points[i]), float(vals[i]))
        for i in bad[:20]
    )
    return ContainmentReport(
        eps=eps,
        T=T,
        grid=grid,
        delta_limit=limit,
        coeff_distance=dist,
        violations=int(bad.size),
        max_residual=max_residual,
        eps_effective=eps - lipschitz_bound(g, T) * tol,
        samples=len(cloud),
        sample_meta=cloud.meta,
        violation_list=listed,
        cloud=cloud,
    )


def system_residual(F: PolySystem, z) -> float | np.ndarray:
    """Max of |f(z)| over the system: < eps means eps-membership in the variety.

    ``z`` is one point (the result is a float) or an (M, n) array of points
    (the result is an array of M residuals).
    """
    res = np.abs(F.polys[0].evaluate(z))
    for p in F.polys[1:]:
        res = np.maximum(res, np.abs(p.evaluate(z)))
    return float(res) if np.ndim(res) == 0 else res


def classify_jet_point(point: Sequence[Jet]) -> str:
    """'finite', 'infinite', or 'mixed' by coordinate finiteness."""
    flags = [w.is_finite() for w in point]
    if all(flags):
        return "finite"
    if not any(flags):
        return "infinite"
    return "mixed"


@dataclass(frozen=True)
class VarietyJetReport:
    samples_total: int
    witnesses: int
    forward_checked: int
    forward_failures: int
    backward_checked: int
    backward_failures: int
    threshold: float

    @property
    def passed(self) -> bool:
        return self.forward_failures == 0 and self.backward_failures == 0

    def to_json_dict(self) -> dict:
        return {
            "samples_total": self.samples_total,
            "witnesses": self.witnesses,
            "forward_checked": self.forward_checked,
            "forward_failures": self.forward_failures,
            "backward_checked": self.backward_checked,
            "backward_failures": self.backward_failures,
            "threshold": self.threshold,
            "passed": self.passed,
        }


def variety_jet_check(
    system: PolySystem | SparsePoly,
    jet_system: Sequence[JetPoly] | JetPoly,
    samples: SampleCloud,
    order: int | None = None,
    tol: float = 1e-8,
) -> VarietyJetReport:
    """Check on sampled witnesses that V(F) is the standard part of *V(G).

    Witnesses are the samples with system residual within ``tol``.  Forward:
    every ``st(g)`` is within ``threshold`` of 0 at every witness.  Backward,
    for a single polynomial: every witness whose fiber root along
    ``default_axis(f)`` is simple is lifted to a point of *V(g)
    (``jets.lift_fibers``), and a lift that fails its certificate is a
    failure.  Systems of two or more polynomials have no fiber lift and
    report ``backward_checked = 0``.
    """
    _require_positive("tol", tol)
    F = PolySystem([system]) if isinstance(system, SparsePoly) else system
    G = [jet_system] if isinstance(jet_system, JetPoly) else list(jet_system)
    if len(G) != len(F):
        raise ValueError(f"system sizes differ: {len(F)} vs {len(G)}")
    sts = [_check_st_match(f, g) for f, g in zip(F, G)]
    if samples.n != F.nvars:
        raise ValueError("sample cloud dimension mismatch")
    K = _lift_order(G[0], order)

    # Slack for float rounding between evaluating f and the standard part of g.
    scale = max(1.0, float(np.abs(samples.points).max(initial=0.0)))
    try:
        slack = max(ST_MATCH_TOL * f.support_size() * scale ** max(f.total_degree(), 0) for f in F)
    except OverflowError:  # float ** int raises past the float range
        slack = np.inf
    threshold = tol + 10.0 * slack

    witnesses = samples.points[system_residual(F, samples.points) <= tol]

    bad = [~(np.abs(s.evaluate(witnesses)) <= threshold) for s in sts]

    backward_checked = backward_failures = 0
    f = F.polys[0]
    if len(F) == 1 and f.total_degree() >= 1:
        j = default_axis(f) - 1
        for s in range(0, len(witnesses), _LIFT_BLOCK):
            lifted, _, _, _, ok = lift_fibers(f, G[0], j, witnesses[s : s + _LIFT_BLOCK], K)
            backward_checked += int(lifted.sum())
            backward_failures += int((~ok.all(axis=1)).sum())

    return VarietyJetReport(
        samples_total=len(samples),
        witnesses=len(witnesses),
        forward_checked=len(witnesses),
        forward_failures=int(np.any(bad, axis=0).sum()),
        backward_checked=backward_checked,
        backward_failures=backward_failures,
        threshold=threshold,
    )
