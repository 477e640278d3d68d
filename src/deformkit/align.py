"""Bottleneck (min-max) alignment of two equal-size root multisets.

Two root sequences are eps-aligned when some ordering pairs every root of
one strictly within eps of a root of the other.  The optimal such pairing
minimizes the largest matched distance, which is a bottleneck assignment:
binary-search the sorted n*n pairwise distances, testing each threshold
with an augmenting-path bipartite matching.  The optimum is exact because
it is always one of the pairwise distances.  Whether two sequences are
eps-aligned is a single such matching, on the pairs strictly closer than eps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .polynomials import _STRICT, _require_positive
from .roots import (
    RootConvergenceError,
    RootMultiset,
    UniPoly,
    _certify_row,
    _radii_and_gaps,
    _start_phases,
    find_roots,
    solve_batch,
)

__all__ = ["Matching", "bottleneck_match", "is_eps_aligned", "empirical_modulus"]

# Halvings of the log-scale delta interval in ``empirical_modulus``.
BISECTION_STEPS = 40
# Distance of each trial's warm start from a root of f, relative to
# ``max(1, max|root|)``.
WARM_OFFSET = 1e-7


@dataclass(frozen=True)
class Matching:
    """Optimal pairing: entry ``perm[i]`` of B is matched with entry i of A."""

    perm: tuple[int, ...]
    bottleneck: float

    def to_json_dict(self) -> dict:
        return {"perm": list(self.perm), "bottleneck": self.bottleneck}


def _expand(values) -> list[complex]:
    if isinstance(values, RootMultiset):
        return values.values()
    return [complex(v) for v in values]


def _distances(a, b) -> np.ndarray:
    """The n*n matrix of |a_i - b_j| between two equal-size, nonempty multisets."""
    av, bv = _expand(a), _expand(b)
    if len(av) != len(bv):
        raise ValueError(f"size mismatch: {len(av)} vs {len(bv)}")
    if not av:
        raise ValueError("cannot match empty multisets")
    A = np.asarray(av, dtype=np.complex128)
    B = np.asarray(bv, dtype=np.complex128)
    return np.abs(A[:, None] - B[None, :])


def _perfect_matching(adj: np.ndarray) -> list[int] | None:
    """Row i's column ``perm[i]`` in a perfect matching along ``adj``, or None.

    Kuhn's augmenting-path search: each row in turn starts a depth-first
    search that tries its columns in increasing order and passes a matched
    column on to that column's row.  The search path is an explicit stack,
    so its length is not bounded by the interpreter's recursion limit.
    """
    n = adj.shape[0]
    rows, cols = np.nonzero(adj)  # row-major, so each row's columns ascend
    bounds = np.searchsorted(rows, np.arange(n + 1)).tolist()
    cols = cols.tolist()
    nbrs = [cols[bounds[i] : bounds[i + 1]] for i in range(n)]
    match_of_b = [-1] * n
    for root in range(n):
        seen = [False] * n
        path = [(root, iter(nbrs[root]), -1)]  # (row, untried columns, column in)
        while path:
            for j in path[-1][1]:
                if not seen[j]:
                    break
            else:  # no augmenting path through this row: back up
                path.pop()
                continue
            if match_of_b[j] >= 0:
                seen[j] = True
                path.append((match_of_b[j], iter(nbrs[match_of_b[j]]), j))
            else:  # a free column: flip the path onto it
                for i, _, j_in in reversed(path):
                    match_of_b[j] = i
                    j = j_in
                break
        else:
            return None
    return np.argsort(match_of_b).tolist()  # the inverse permutation


def bottleneck_match(a, b) -> Matching:
    """Bijection between two equal-size multisets minimizing the max distance.

    Accepts ``RootMultiset`` instances (expanded by multiplicity) or plain
    sequences of complex numbers.
    """
    dist = _distances(a, b)
    thresholds = np.unique(dist)
    lo, hi = 0, thresholds.size - 1
    best_perm = None
    while lo <= hi:
        mid = (lo + hi) // 2
        perm = _perfect_matching(dist <= thresholds[mid])
        if perm is not None:
            best_perm = perm
            hi = mid - 1
        else:
            lo = mid + 1
    assert best_perm is not None  # full threshold always feasible
    value = float(dist[np.arange(len(best_perm)), best_perm].max())
    return Matching(perm=tuple(best_perm), bottleneck=value)


def is_eps_aligned(a, b, eps: float) -> bool:
    """True iff some pairing keeps every pair strictly within eps, which is
    exactly when the optimal pairing's bottleneck is below eps."""
    _require_positive("eps", eps)
    return _perfect_matching(_distances(a, b) < eps) is not None


def _unit_noise(n_coeffs: int, seed: int, trial: int) -> np.ndarray:
    """Unit-disc noise per coefficient, fixed by (seed, trial)."""
    rng = np.random.default_rng([seed, trial])
    u = rng.random(n_coeffs)
    v = rng.random(n_coeffs)
    return np.sqrt(u) * np.exp(2j * np.pi * v)


def _deform(f: UniPoly, noise: np.ndarray, delta: float) -> np.ndarray:
    """Coefficient rows ``f + eta``, one per row of ``noise`` (``(trials,
    degree + 1)``), with ``eta = noise * delta * _STRICT``."""
    eta = noise * (delta * _STRICT)
    # Cap the leading perturbation so the degree cannot drop.
    lead = abs(f.coeffs[-1])
    with np.errstate(over="ignore"):  # a quotient past the float range caps at 1
        cap = min(1.0, 0.5 * lead / (delta * _STRICT))
    eta[..., -1] *= cap
    return f.coeffs + eta


def _nearest_is_matching(dist: np.ndarray, eps: float) -> np.ndarray:
    """Per (m, m) slice of ``dist``: whether sending every row to its
    nearest column is a bijection with every distance below eps.  Where it
    is, a perfect matching along ``dist < eps`` exists."""
    nearest = dist.argmin(axis=-1)
    within = np.take_along_axis(dist, nearest[..., None], axis=-1)[..., 0] < eps
    ordered = np.sort(nearest, axis=-1)
    distinct = (ordered[..., 1:] != ordered[..., :-1]).all(axis=-1)
    return within.all(axis=-1) & distinct


def _warm_start(base: np.ndarray, trials: int) -> np.ndarray:
    """Initial estimates (trials, m) for small deformations of f: each root
    of f in ``base``, moved ``WARM_OFFSET * max(1, max|base|)`` along its own
    start phase, so that roots of f closer than that still start apart."""
    offset = WARM_OFFSET * max(1.0, float(np.abs(base).max()))
    return np.broadcast_to(base + offset * _start_phases(base.size), (trials, base.size))


def _settled(rows, roots, converged, dist, eps) -> np.ndarray:
    """Per trial: whether every roots array inside the trial's inclusion
    discs has the adjacency ``dist < eps`` of ``roots``.

    That holds when the solve converged, the discs are pairwise disjoint
    (so each holds exactly one true root), and every distance to a base
    root clears eps by more than four radii of its trial root.
    """
    rho, gaps = _radii_and_gaps(rows, roots)
    with np.errstate(invalid="ignore"):  # unconverged rows may hold NaN
        apart = gaps > rho[:, :, None] + rho[:, None, :]
        diag = np.arange(roots.shape[1])
        apart[:, diag, diag] = True
        clear = np.abs(dist - eps) > 4.0 * rho[:, None, :] + 1e-15 * eps
    isolated = np.isfinite(rho).all(axis=1) & apart.all(axis=(1, 2))
    return converged & isolated & clear.all(axis=(1, 2))


def empirical_modulus(f: UniPoly, eps: float, trials: int = 20, seed: int = 0) -> float:
    """Estimate the largest delta keeping random delta-deformations eps-aligned.

    Bisects (on a log scale) over delta in [1e-12, eps].  A candidate passes
    when every one of ``trials`` random deformations of ``f`` has roots
    eps-aligned with ``f``'s.  Trial noise is drawn once per (seed, trial)
    and scaled by the candidate delta, so trials are schedule-independent
    and the whole estimate is deterministic per seed.  The returned value is
    the largest tested delta that passed.

    Each candidate solves all its trials in one ``solve_batch`` call.  Roots
    move continuously with the coefficients, so every trial starts from its
    own roots at the previous step, whose delta is one end of the current
    bracket; the first step (delta = 1e-12), and a trial whose previous
    roots did not converge, start a little off ``f``'s roots instead.  A
    trial's verdict is taken from these warm roots only where inclusion
    discs settle it (``_settled``): the discs are disjoint and every root
    distance clears eps by four radii, so every roots array inside the
    discs has the same ``dist < eps`` adjacency.  That the cold solve's
    roots lie inside them is not proved, and from a previous step's roots
    it can fail for a tight cluster, whose warm roots are then the more
    accurate; agreement of the verdicts with cold solves is checked by
    tests, not proved.  The other trials are solved again from the default
    cold start in one batch (rows are independent, so each equals its
    one-row solve), and those cold solves decide them.  Trials are then
    judged in trial order: the first unconverged trial raises, the first
    unaligned one fails the candidate, and later trials are not judged.  A
    trial raises ``RootConvergenceError`` only when its cold solve fails, so
    a settled trial never raises.  A trial whose nearest-root assignment is
    a bijection within eps is aligned; any other one runs the matching of
    ``is_eps_aligned``.
    """
    _require_positive("eps", eps)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    base = np.array(find_roots(f).values(), dtype=np.complex128)
    noises = np.stack([_unit_noise(f.coeffs.size, seed, t) for t in range(trials)])
    fallback = _warm_start(base, trials)
    start = fallback

    def passes(delta: float) -> bool:
        nonlocal start
        rows = _deform(f, noises, delta)
        if not np.isfinite(rows.view(np.float64)).all():  # as UniPoly(row) rejects it
            raise ValueError("coefficients must be finite")
        roots, res, converged = solve_batch(rows, z0=start)
        with np.errstate(invalid="ignore"):  # unconverged rows may hold NaN
            dist = np.abs(base[None, :, None] - roots[:, None, :])
        cold = np.flatnonzero(~_settled(rows, roots, converged, dist, eps))
        if cold.size:
            roots[cold], res[cold], converged[cold] = solve_batch(rows[cold])
            with np.errstate(invalid="ignore"):
                dist[cold] = np.abs(base[None, :, None] - roots[cold][:, None, :])
        aligned = _nearest_is_matching(dist, eps)
        # solve_batch flags non-finite and collided roots as unconverged.
        start = np.where(converged[:, None], roots, fallback)
        for trial in np.flatnonzero(~(converged & aligned)).tolist():
            if not converged[trial]:  # _certify_row raises; name the trial
                try:
                    _certify_row(UniPoly(rows[trial]), roots[trial], res[trial], False)
                except RootConvergenceError as exc:
                    raise RootConvergenceError(
                        f"trial {trial} at delta={delta:.3e}: {exc}",
                        best_roots=exc.best_roots,
                        residual=exc.residual,
                    ) from exc
            if _perfect_matching(dist[trial] < eps) is None:
                return False
        return True

    lo, hi = np.log10(1e-12), np.log10(eps)
    if not passes(10.0**lo):
        raise ArithmeticError(
            "no feasible delta found down to 1e-12; "
            "the polynomial's roots are too sensitive for this eps"
        )
    best = 10.0**lo
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        delta = 10.0**mid
        if passes(delta):
            best = delta
            lo = mid
        else:
            hi = mid
    return float(best)
