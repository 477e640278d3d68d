"""All roots of a univariate complex polynomial, with residual certificates.

The solver runs simultaneous Aberth-Ehrlich sweeps from initial points on a
circle of radius one plus the Cauchy bound, rotated by a fixed irrational
angle to break the symmetry of polynomials like ``t**n - c``.  Roots lock
either when their correction is relatively tiny or when the residual falls
below the double-precision evaluation noise floor (which is as far as a
repeated root can be resolved).  A Newton polish pass follows; steps are
kept only when they reduce the residual.

Degrees above 64 are out of scope and rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import _kernels
from .polynomials import SparsePoly, _require_positive

__all__ = [
    "UniPoly",
    "RootMultiset",
    "RootConvergenceError",
    "find_roots",
    "cluster_multiplicities",
    "inclusion_radii",
    "MAX_DEGREE",
    "MAX_SWEEPS",
    "CLUSTER_RADIUS",
]

MAX_DEGREE = 64
MAX_SWEEPS = 200
# Fixed rotation (radians) applied to the initial circle of estimates.
INIT_ANGLE = math.sqrt(2.0)
# Newton steps tried on every root after the Aberth sweeps.
POLISH_STEPS = 2
# Roots closer than this are one multiple root (``cluster_multiplicities``).
CLUSTER_RADIUS = 1e-6
# Unit roundoff of double precision.
_UNIT_ROUNDOFF = 2.0**-53


class RootConvergenceError(RuntimeError):
    """Raised when the iteration cap is hit; carries the best iterate."""

    def __init__(self, message: str, best_roots, residual: float):
        super().__init__(message)
        self.best_roots = best_roots
        self.residual = residual


class UniPoly:
    """Univariate polynomial ``sum_i coeffs[i] * t**i`` with nonzero lead."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Sequence[complex]):
        arr = np.asarray(list(coeffs), dtype=np.complex128)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("a univariate polynomial needs degree >= 1")
        if arr[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise ValueError("coefficients must be finite")
        if arr.size - 1 > MAX_DEGREE:
            raise ValueError(f"degree {arr.size - 1} exceeds the supported cap {MAX_DEGREE}")
        arr.setflags(write=False)
        object.__setattr__(self, "_coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    @property
    def coeffs(self) -> np.ndarray:
        return self._coeffs

    @property
    def degree(self) -> int:
        return self._coeffs.size - 1

    def _horner(self, z: complex) -> tuple[complex, complex]:
        p, dp = _kernels.horner(self._coeffs[None, :], np.full((1, 1), z, dtype=np.complex128))
        return complex(p[0, 0]), complex(dp[0, 0])

    def __call__(self, z: complex) -> complex:
        return self._horner(z)[0]

    def deriv_at(self, z: complex) -> complex:
        return self._horner(z)[1]

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and np.array_equal(self._coeffs, other._coeffs)

    def __repr__(self) -> str:
        return f"UniPoly({list(self._coeffs)})"

    # Serializes as the single-variable case of the sparse-polynomial format.
    def to_sparse(self) -> SparsePoly:
        return SparsePoly(1, {(i,): c for i, c in enumerate(self._coeffs) if c != 0})

    @classmethod
    def from_sparse(cls, p: SparsePoly) -> "UniPoly":
        if p.nvars != 1:
            raise ValueError(f"expected a univariate polynomial, got nvars={p.nvars}")
        if p.is_zero():
            raise ValueError("zero polynomial has no roots to find")
        deg = p.total_degree()
        if deg < 1:
            raise ValueError("degree must be >= 1")
        coeffs = [0j] * (deg + 1)
        for (i,), c in p.terms.items():
            coeffs[i] = c
        return cls(coeffs)

    def to_json_dict(self) -> dict:
        return self.to_sparse().to_json_dict()

    @classmethod
    def from_json_dict(cls, data) -> "UniPoly":
        return cls.from_sparse(SparsePoly.from_json_dict(data))


@dataclass(frozen=True)
class RootMultiset:
    """Roots of a polynomial, counted with multiplicity.

    ``residual_bound`` is the max of the computed ``|p(root)|`` over the
    listed values, scaled by ``max(1, max|coeff|)``.  It is not a bound on
    the exact residual: the float Horner value can round low, and no
    rounding term is added.  On the scaled Wilkinson-10 it is 3.68e-17,
    while the exact scaled residual of one listed root is 8.20e-17.
    """

    roots: tuple[tuple[complex, int], ...]
    residual_bound: float
    poly: UniPoly | None = field(default=None, compare=False)

    def __post_init__(self):
        if any(m < 1 for _, m in self.roots):
            raise ValueError("multiplicities must be positive")

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.roots)

    def values(self) -> list[complex]:
        """Roots expanded by multiplicity."""
        out: list[complex] = []
        for v, m in self.roots:
            out.extend([v] * m)
        return out


def _start_phases(m: int) -> np.ndarray:
    """The m unit phases of the initial circle, rotated by ``INIT_ANGLE``."""
    return np.exp(1j * (2.0 * np.pi * np.arange(m) / m + INIT_ANGLE))


def _initial_points_batch(coeffs: np.ndarray) -> np.ndarray:
    """Perturbed-circle estimates: Cauchy-bound radius, fixed rotation."""
    m = coeffs.shape[1] - 1
    # A tiny lead or a huge coefficient makes the radius inf; the row then
    # fails to converge, so the warnings carry nothing.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratios = np.abs(coeffs[:, :-1] / coeffs[:, -1:])
    cauchy = 1.0 + ratios.max(axis=1)
    return cauchy[:, None] * _start_phases(m)[None, :]


def _polish_batch(coeffs: np.ndarray, roots: np.ndarray):
    """Newton steps kept only when they reduce |p|; returns roots, |p(root)|."""
    p, dp = _kernels.horner(coeffs, roots)
    res = np.abs(p)
    for _ in range(POLISH_STEPS):
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(dp != 0, p / np.where(dp != 0, dp, 1.0), 0.0)
        cand = roots - step
        cand_p, cand_dp = _kernels.horner(coeffs, cand)
        cand_res = np.abs(cand_p)
        better = cand_res < res
        roots = np.where(better, cand, roots)
        p = np.where(better, cand_p, p)
        dp = np.where(better, cand_dp, dp)
        res = np.where(better, cand_res, res)
    return roots, res


def solve_batch(coeffs: np.ndarray, tol: float = 1e-12, z0: np.ndarray | None = None):
    """Root-find a batch of same-degree polynomials (ascending coefficients).

    Returns ``(roots (B, m), residuals (B, m), converged (B,))``.  Rows are
    independent: each row's values are those of its one-row solve.  A row
    whose roots or residuals are not all finite counts as unconverged, and so
    does a row holding two equal roots: two iterates that collided certify
    one root twice and miss another.

    ``z0`` (B, m) gives the initial estimates; by default they lie on the
    rotated Cauchy circle.  Different starts can give different last bits.
    """
    coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
    if z0 is None:
        z0 = _initial_points_batch(coeffs)
    # Horner overflows on rows with a huge coefficient; those rows come out
    # non-finite and are reported unconverged, so the warnings carry nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        roots, _, converged = _kernels.aberth_batch(coeffs, z0, tol, MAX_SWEEPS)
        roots, res = _polish_batch(coeffs, roots)
    converged &= np.isfinite(roots).all(axis=1) & np.isfinite(res).all(axis=1)
    ordered = np.sort(roots, axis=1)
    converged &= ~(ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    return roots, res, converged


def inclusion_radii(coeffs: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Radii (B, m) of discs around a batch's approximate roots that hold its
    true roots.

    Row b's disc j is centred at ``z_j = roots[b, j]`` with radius
    ``m (|p(z_j)| + gamma sum_k |a_k| |z_j|^k) / (|a_m| prod_{k != j} |z_j - z_k|)``,
    where ``gamma = 4 (m + 1) u`` bounds the rounding of the computed
    ``p(z_j)``; the radius is inflated by ``1 + 1e-6`` for the rounding of
    the product and quotient.  These are ``m`` times the Weierstrass
    corrections: the discs cover every root of p, and a connected union of
    k discs holds exactly k roots (Carstensen 1991, Numer. Math. 59), so
    where the discs of a row are pairwise disjoint each holds exactly one
    root.  Equal or non-finite iterates give a radius that is not finite.
    """
    return _radii_and_gaps(coeffs, roots)[0]


def _radii_and_gaps(coeffs: np.ndarray, roots: np.ndarray):
    """``inclusion_radii`` and the (B, m, m) pairwise gaps ``|z_j - z_k|``
    it divides by, with 1 on the diagonal."""
    coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
    roots = np.asarray(roots, dtype=np.complex128)
    m = roots.shape[1]
    gamma = 4 * (m + 1) * _UNIT_ROUNDOFF
    diag = np.arange(m)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p, _ = _kernels.horner(coeffs, roots)
        noise = _kernels.noise_scale(np.abs(coeffs), np.abs(roots))
        gaps = np.abs(roots[:, :, None] - roots[:, None, :])
        gaps[:, diag, diag] = 1.0
        lead = np.abs(coeffs[:, -1:])
        rho = m * (np.abs(p) + gamma * noise) / (lead * gaps.prod(axis=2))
        rho *= 1.0 + 1e-6
    return np.where(np.isnan(rho), np.inf, rho), gaps


def _certify_row(
    p: UniPoly, roots: np.ndarray, res: np.ndarray, converged: bool
) -> RootMultiset:
    """One ``solve_batch`` row of ``p`` as a certified ``RootMultiset``.

    Raises ``RootConvergenceError`` (see ``find_roots``) for an unconverged
    row; the message says when its residual bound is not finite.
    """
    scale = max(1.0, float(np.max(np.abs(p.coeffs))))
    residual_bound = float(np.max(res)) / scale
    if not converged:
        why = "has a residual bound that is not finite"
        if math.isfinite(residual_bound):
            why = f"did not converge to {len(roots)} distinct roots within {MAX_SWEEPS} sweeps"
            why += f" (residual {residual_bound:.3e})"
        raise RootConvergenceError(
            f"root iteration {why}",
            best_roots=[complex(z) for z in roots],
            residual=residual_bound,
        )
    # Deterministic presentation order: by (real, imag).
    order = np.lexsort((roots.imag, roots.real))
    listed = tuple((complex(roots[i]), 1) for i in order)
    return RootMultiset(roots=listed, residual_bound=residual_bound, poly=p)


def find_roots(p: UniPoly, tol: float = 1e-12) -> RootMultiset:
    """All ``degree`` roots of ``p``, each with multiplicity 1.

    Raises
    ------
    RootConvergenceError
        If some root is still moving after the sweep cap, or the residual
        bound is not finite; the exception carries the best iterate and its
        residual.
    """
    _require_positive("tol", tol)
    roots, res, converged = solve_batch(p.coeffs[None, :], tol)
    return _certify_row(p, roots[0], res[0], converged[0])


def cluster_multiplicities(r: RootMultiset, radius: float = CLUSTER_RADIUS) -> RootMultiset:
    """Merge single-linkage clusters of roots within ``radius``.

    Each cluster becomes one root at the multiplicity-weighted centroid with
    multiplicity equal to the cluster's total; the overall multiplicity is
    preserved.  The clustering radius is caller-controlled because the right
    value depends on how strongly repeated roots split under rounding.
    """
    _require_positive("radius", radius)
    entries = r.roots
    n = len(entries)
    z = np.array([v for v, _ in entries], dtype=np.complex128)
    # Linked pairs, then paths of up to 2**k links after k squarings: row i
    # marks i's cluster.  ``hypot`` rounds as Python's complex ``abs`` does;
    # NumPy's complex ``abs`` can differ in the last bit at the radius.
    d = z[:, None] - z[None, :]
    reach = np.hypot(d.real, d.imag) <= radius
    np.fill_diagonal(reach, True)  # a non-finite root is its own cluster
    for _ in range(n.bit_length()):
        reach = reach @ reach

    merged = []
    seen = np.zeros(n, dtype=bool)
    for i in range(n):
        if seen[i]:
            continue
        seen |= reach[i]
        members = [entries[k] for k in np.flatnonzero(reach[i]).tolist()]
        total = sum(m for _, m in members)
        centroid = sum(v * m for v, m in members) / total
        merged.append((centroid, total))
    merged.sort(key=lambda vm: (vm[0].real, vm[0].imag))

    if r.poly is not None:
        scale = max(1.0, float(np.max(np.abs(r.poly.coeffs))))
        centroids = np.array([[v for v, _ in merged]], dtype=np.complex128)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is an inf bound
            values, _ = _kernels.horner(r.poly.coeffs[None, :], centroids)
        bound = float(np.abs(values).max(initial=0.0)) / scale
    else:
        bound = r.residual_bound
    return RootMultiset(roots=tuple(merged), residual_bound=bound, poly=r.poly)
