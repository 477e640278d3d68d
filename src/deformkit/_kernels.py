"""The hot kernels, in NumPy: grid suprema, product-grid values, batched
Horner evaluation and batched Aberth sweeps.

``BACKEND`` names this implementation; every CLI report records it.
"""

import math

import numpy as np

BACKEND = "python"

_EPS = float(np.finfo(np.float64).eps)
# Residual lock: accept a root once |p(z)| is below this multiple of the
# evaluation noise floor sum_k |a_k| |z|^k * eps.
_RES_FACTOR = 100.0
# Max number of grid points materialized at once by grid_sup_abs.
_OUTER_LIMIT = 1 << 21
# Per-chunk value count: ~16 MB of complex128 keeps the gemm/abs passes in cache.
_CHUNK_ELEMS = 1 << 20
# Largest product grid grid_values will materialize.
_GRID_LIMIT = 50_000_000


def grid_values(exps, coeffs, axes):
    """Values of ``sum_t coeffs[t] * prod_j x_j**exps[t, j]`` over the
    Cartesian product of the axis value arrays, flattened in C order (last
    axis fastest).  With no axes the result is the one-element constant sum.
    """
    M = 1
    for a in axes:
        M *= a.size
    if M > _GRID_LIMIT:
        raise ValueError(f"grid of {M} points is too large; lower the resolution")
    vals = np.zeros(M, dtype=np.complex128)
    for t in range(coeffs.size):
        vec = np.asarray(coeffs[t])
        for j, a in enumerate(axes):
            vec = np.multiply.outer(vec, a ** exps[t, j])
        vals += vec.ravel()
    return vals


def grid_sup_abs(exps, coeffs, axes):
    """Supremum of |sum_t coeffs[t] * prod_j axes[j][k_j]**exps[t, j]| over
    the Cartesian product of the axis value arrays.

    Returns ``(sup, flat_index)`` where ``flat_index`` is a C-order index
    over ``(k_0, ..., k_{L-1})`` (last axis fastest) attaining the supremum,
    or ``-1`` when the grid is empty.
    """
    exps = np.ascontiguousarray(exps, dtype=np.int64)
    coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
    axes = [np.ascontiguousarray(a, dtype=np.complex128) for a in axes]
    if any(a.size == 0 for a in axes):
        return 0.0, -1
    if coeffs.size == 0:
        return 0.0, 0
    (_, sup), flat = _sup_recurse(exps, coeffs, axes)
    return sup, int(flat)


def _sup_recurse(exps, coeffs, axes):
    """``((sup**2, sup), flat)``; the pair is the ranking key of a supremum."""
    sizes = [a.size for a in axes]
    outer = 1
    for s in sizes[:-1]:
        outer *= s
    if len(axes) > 1 and outer > _OUTER_LIMIT:
        # Peel the first axis and recurse so the materialized outer grid
        # stays bounded.
        tail = int(np.prod(sizes[1:], dtype=np.int64))
        best = ((-1.0, math.nan), -1)
        for k, v in enumerate(axes[0]):
            sub_coeffs = coeffs * v ** exps[:, 0]
            key, flat = _sup_recurse(exps[:, 1:], sub_coeffs, axes[1:])
            if key > best[0]:
                best = (key, k * tail + flat)
        return best
    return _sup_gemm(exps, coeffs, axes)


def _sup_gemm(exps, coeffs, axes):
    last = axes[-1]
    n_last = last.size
    g_last = np.unique(exps[:, -1])
    rows = np.searchsorted(g_last, exps[:, -1])

    outer_axes = axes[:-1]
    outer = 1
    for a in outer_axes:
        outer *= a.size

    # partial[r, m] = sum of coeffs[t] * outer-monomial(t, m) over terms t
    # whose last-axis exponent is g_last[r].
    partial = np.empty((g_last.size, outer), dtype=np.complex128)
    for r in range(g_last.size):
        sel = rows == r
        partial[r] = grid_values(exps[sel, :-1], coeffs[sel], outer_axes)

    pow_last = last[:, None] ** g_last[None, :]

    # Chunks rank by (sup**2, sup): the squares decide unless both overflowed.
    best = (-1.0, math.nan)  # a grid of NaN values reports a NaN supremum
    best_flat = 0
    chunk = max(1, _CHUNK_ELEMS // max(outer, 1))
    for start in range(0, n_last, chunk):
        vals = pow_last[start : start + chunk] @ partial
        with np.errstate(over="ignore"):
            mag2 = vals.real**2
            mag2 += vals.imag**2
        top = float(mag2.max())
        if top == np.inf:
            # A value above ~1.3e154 squared to inf: rank this chunk by |value|.
            mag2 = np.abs(vals)
            key = (top, float(mag2.max()))
        else:
            key = (top, math.sqrt(top))
        if key > best:
            best = key
            kk, m = divmod(int(np.argmax(mag2)), outer)
            best_flat = m * n_last + (start + kk)
    return best, best_flat


def horner(coeffs, z):
    """Values ``p`` and derivatives ``dp`` of a batch of polynomials.

    ``coeffs`` is (B, m+1) with ascending coefficients (index = power) and
    ``z`` is (B, k); row b of ``z`` is evaluated with row b of ``coeffs``.
    Returns two complex (B, k) arrays.
    """
    deg = coeffs.shape[1] - 1
    p = np.broadcast_to(coeffs[:, deg : deg + 1], z.shape).copy()
    dp = np.zeros_like(z)
    for k in range(deg - 1, -1, -1):
        dp = dp * z + p
        p = p * z + coeffs[:, k : k + 1]
    return p, dp


def aberth_batch(coeffs, z0, tol, max_sweeps):
    """Simultaneous root iteration for a batch of same-degree polynomials.

    Parameters
    ----------
    coeffs : (B, m+1) complex128
        Ascending coefficients (index = power), leading entries nonzero.
    z0 : (B, m) complex128
        Initial root estimates.
    tol : float
        Relative correction tolerance for locking a root.
    max_sweeps : int
        Iteration cap; rows still moving afterwards report unconverged.

    Returns
    -------
    roots : (B, m) complex128
    sweeps : (B,) int64   sweeps used per row
    converged : (B,) bool
    """
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

        p, dp = horner(ca, zc)
        # Evaluation noise scale sum_k |a_k| |z|^k, in its own loop: the
        # bit-identical ``horner(aa, az)`` also builds an unused derivative
        # and ran 18-34% slower (m = 12, 32 on one row; 4,000 rows at m = 4).
        az = np.abs(zc)
        s = np.broadcast_to(aa[:, m : m + 1], zc.shape).copy()
        for k in range(m - 1, -1, -1):
            s = s * az + aa[:, k : k + 1]

        res_lock = ~lc & (np.abs(p) <= _RES_FACTOR * _EPS * s)

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

    converged = locked.all(axis=1)
    return z, sweeps, converged
