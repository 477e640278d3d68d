"""The hot kernels, in NumPy: grid suprema, the fiber split of a polynomial
over a product grid, batched Horner evaluation and batched Aberth sweeps.

``BACKEND`` names this implementation; every CLI report records it.
"""

import math

import numpy as np

BACKEND = "python"

_EPS = float(np.finfo(np.float64).eps)
_UNIT = _EPS / 2
# Absolute and overflow guards of the fiber bounds (``_fiber_bounds``).
_TINY_SQRT = math.sqrt(float(np.finfo(np.float64).tiny))
_HUGE = float(np.finfo(np.float64).max) / 4
# Residual lock: accept a root once |p(z)| is below this multiple of the
# evaluation noise floor sum_k |a_k| |z|^k * eps.
_RES_FACTOR = 100.0
# The "is zero" rule of the residual lock (Higham 2002, §5.1): a value passes
# when it is at most this multiple of its rounding scale.
_ZERO_TOL = _RES_FACTOR * _EPS
# Max number of grid points materialized at once by grid_sup_abs.
_OUTER_LIMIT = 1 << 21
# Per-block value count: ~16 MB of complex128 keeps the gemm/abs passes in cache.
_CHUNK_ELEMS = 1 << 20
# Columns (outer grid points) with the highest fiber bounds, scanned first
# to seed the running supremum of grid_sup_abs.
_SEED_COLS = 64
# Largest product grid fiber_split will materialize.
_GRID_LIMIT = 50_000_000


def grid_sup_abs(exps, coeffs, axes):
    """Supremum of |sum_t coeffs[t] * prod_j axes[j][k_j]**exps[t, j]| over
    the Cartesian product of the axis value arrays.

    Returns ``(sup, flat_index)`` where ``flat_index`` is a C-order index
    over ``(k_0, ..., k_{L-1})`` (last axis fastest) attaining the supremum,
    or ``-1`` when the grid is empty.  Values rank by ``(|v|**2, |v|)`` with
    ``|v|**2 = re**2 + im**2`` (a square past the float range ranks by the
    modulus).  Ties go to the smallest last-axis index, then the smallest
    index over the other axes; on a peeled grid (``_sup_recurse``) the
    smallest first-axis index goes first.  A NaN value anywhere gives
    ``(nan, 0)``.  The scan is exact but evaluates only the points whose
    fiber bounds (``_fiber_bounds``) reach the running supremum.
    """
    exps = np.ascontiguousarray(exps, dtype=np.int64)
    coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
    axes = [np.ascontiguousarray(a, dtype=np.complex128) for a in axes]
    if any(a.size == 0 for a in axes):
        return 0.0, -1
    if coeffs.size == 0:
        return 0.0, 0
    (_, sup), flat = _sup_recurse(exps, coeffs, axes, (-1.0, math.nan))
    return sup, int(flat)


def _sup_recurse(exps, coeffs, axes, best):
    """``(key, flat)`` of the grid's supremum, where ``key = (sup**2, sup)``
    ranks suprema, if it beats the key ``best`` of an earlier slice (a tie
    keeps ``best``); otherwise ``(best, -1)``.  A NaN value gives
    ``((nan, nan), 0)``."""
    sizes = [a.size for a in axes]
    outer = math.prod(sizes[:-1])
    if len(axes) > 1 and outer > _OUTER_LIMIT:
        # Peel the first axis and recurse so the materialized outer grid
        # stays bounded; each slice prunes against the slices before it.
        tail = math.prod(sizes[1:])
        best_flat = -1
        for k, v in enumerate(axes[0]):
            sub_coeffs = coeffs * v ** exps[:, 0]
            key, flat = _sup_recurse(exps[:, 1:], sub_coeffs, axes[1:], best)
            if math.isnan(key[0]):
                return key, 0
            if flat >= 0:
                best, best_flat = key, k * tail + flat
        return best, best_flat
    return _sup_gemm(exps, coeffs, axes, best)


def check_grid_size(M):
    """Refuse, as bad input, a grid of more than ``_GRID_LIMIT`` points."""
    if M > _GRID_LIMIT:
        raise ValueError(f"grid of {M} points is too large; lower the resolution")


def fiber_split(exps, coeffs, outer_axes):
    """Split ``h = sum_t coeffs[t] * prod_j x_j**exps[t, j]`` by the powers
    of its last variable z: ``h = sum_r P_r * z**powers[r]``.

    ``powers`` are the distinct last-column exponents, ascending, and
    ``partial[r, m]`` is ``P_r`` at point m of the product grid of
    ``outer_axes`` (one axis per other column, C order): each term's outer
    product of axis powers is added into its row, in term order.
    """
    M = math.prod(a.size for a in outer_axes)
    check_grid_size(M)
    powers, rows = np.unique(exps[:, -1], return_inverse=True)
    partial = np.zeros((powers.size, M), dtype=np.complex128)
    for t in range(coeffs.size):
        vec = np.asarray(coeffs[t])
        for j, a in enumerate(outer_axes):
            vec = np.multiply.outer(vec, a ** exps[t, j])
        partial[rows[t]] += vec.ravel()
    return powers, partial


def _fiber_bounds(partial, pow_last):
    """``(col, row)``: bounds on every computed |value| (and its rounded
    ``sqrt(re**2 + im**2)``) of ``pow_last @ partial`` in column m and in
    row k, from ``|sum_r a_r b_r| <= sum_r |a_r| |b_r|``:
    ``col[m] = sum_r max_k |pow_last[k, r]| |partial[r, m]|`` and
    ``row[k] = sum_r |pow_last[k, r]| max_m |partial[r, m]|``.

    Both are inflated by ``4 (G + 2) u`` relatively, which covers the
    rounding of the G-term complex products, of the modulus and of the
    bound itself, plus ``sqrt(tiny)`` absolutely, which covers underflowing
    products and squares.  A bound within a factor 4 of the float range
    becomes inf, since the product's parts may overflow below it.  A NaN
    bound marks a fiber that may hold NaN values.
    """
    G = partial.shape[0]
    abs_pow = np.abs(pow_last)
    pow_max = abs_pow.max(axis=0)
    part_max = np.empty(G)
    col = np.zeros(partial.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(G):
            mod = np.abs(partial[r])
            part_max[r] = mod.max()
            mod *= pow_max[r]
            col += mod
        row = abs_pow @ part_max
        grow = 1.0 + 4 * (G + 2) * _UNIT
        for ub in (col, row):
            ub *= grow
            ub += _TINY_SQRT
            ub[ub > _HUGE] = np.inf
    return col, row


def _sup_gemm(exps, coeffs, axes, best):
    """``_sup_recurse`` on one ``pow_last @ partial`` product.

    Branch and bound over the fibers: the ``_SEED_COLS`` columns with the
    highest bounds go first, then, in descending bound order and in blocks
    of at most ``_CHUNK_ELEMS`` values, the columns and rows whose bounds
    still reach the running supremum.  A block's rows and columns ascend,
    so its first argmax is its tie winner; blocks tie-break by (k, m).
    """
    powers, partial = fiber_split(exps, coeffs, axes[:-1])
    pow_last = axes[-1][:, None] ** powers
    col_ub, row_ub = _fiber_bounds(partial, pow_last)
    n_last = pow_last.shape[0]
    best_k = best_m = -1  # a key from an earlier slice wins its ties

    seed = np.arange(col_ub.size)
    if seed.size > _SEED_COLS:
        seed = np.argpartition(col_ub, -_SEED_COLS)[-_SEED_COLS:].copy()
    for group in (seed, None):
        if group is None:  # the rest, pruned by the seed's supremum
            todo = ~(col_ub < best[1])
            todo[seed] = False
            group = np.flatnonzero(todo)
        group = group[~(col_ub[group] < best[1])]
        group = group[np.argsort(col_ub[group])[::-1]]  # descending, NaN first
        rows = np.flatnonzero(~(row_ub < best[1]))
        # One scratch set per group, reused by its blocks: fresh block-sized
        # arrays each time ran 1.7x slower on page faults.
        size = min(_CHUNK_ELEMS, rows.size * group.size)
        scratch = (np.empty(size, np.complex128), np.empty(size), np.empty(size))
        start = 0
        while start < group.size:
            rows = np.flatnonzero(~(row_ub < best[1]))
            width = max(1, _CHUNK_ELEMS // max(rows.size, 1))
            block = group[start : start + width]
            start += width
            block = np.sort(block[~(col_ub[block] < best[1])])
            if not (rows.size and block.size):
                break  # the later columns' bounds are lower still
            sub_partial = partial[:, block]
            for r0 in range(0, rows.size, _CHUNK_ELEMS):
                sub_rows = rows[r0 : r0 + _CHUNK_ELEMS]
                key, kk, mm = _block_max(pow_last[sub_rows], sub_partial, scratch)
                if math.isnan(key[0]):
                    return key, 0
                k, m = int(sub_rows[kk]), int(block[mm])
                if key > best or (key == best and (k, m) < (best_k, best_m)):
                    best, best_k, best_m = key, k, m
    return best, (-1 if best_k < 0 else best_m * n_last + best_k)


def _block_max(a, b, scratch):
    """``(key, i, j)``: the ranking key ``(sup**2, sup)`` of the block
    ``a @ b`` and the first (C-order) position attaining it.  ``scratch``
    holds flat complex, float and float arrays of at least the block's size.
    """
    shape = (a.shape[0], b.shape[1])
    n = shape[0] * shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.matmul(a, b, out=scratch[0][:n].reshape(shape))
        mag2 = np.square(vals.real, out=scratch[1][:n].reshape(shape))
        mag2 += np.square(vals.imag, out=scratch[2][:n].reshape(shape))
    top = float(mag2.max())
    if top == np.inf:
        # A value above ~1.3e154 squared to inf: rank this block by |value|.
        mag2 = np.abs(vals, out=mag2)
        key = (top, float(mag2.max()))
    else:
        key = (top, math.sqrt(top))  # NaN when the block holds a NaN
    i, j = divmod(int(np.argmax(mag2)), shape[1])
    return key, i, j


def horner(coeffs, z):
    """Values ``p`` and derivatives ``dp`` of a batch of polynomials.

    ``coeffs`` is (B, m+1) with ascending coefficients (index = power) and
    ``z`` is (B, k); row b of ``z`` is evaluated with row b of ``coeffs``
    (one shared row broadcasts).  Returns two (B, k) arrays.

    Each step writes a product into one scratch array and its sum into
    ``p`` or ``dp``; no ufunc reads the array it writes, since in-place
    ``dp *= z`` gave different bits for one row than inside a batch.
    """
    deg = coeffs.shape[1] - 1
    dtype = np.result_type(coeffs, z)
    p = np.empty(z.shape, dtype)
    p[...] = coeffs[:, deg : deg + 1]
    dp = np.zeros(z.shape, dtype)
    tmp = np.empty(z.shape, dtype)
    for k in range(deg - 1, -1, -1):
        np.multiply(dp, z, out=tmp)
        np.add(tmp, p, out=dp)
        np.multiply(p, z, out=tmp)
        np.add(tmp, coeffs[:, k : k + 1], out=p)
    return p, dp


def noise_scale(abs_coeffs, r):
    """Horner's rounding scale ``sum_k |a_k| r**k`` (Higham 2002, §5.1).

    ``abs_coeffs`` is (B, m+1) with ascending |coefficients| and ``r``
    holds moduli that broadcast against (B, 1); row b of ``r`` is evaluated
    with row b of ``abs_coeffs``.  The sum runs from the top degree down,
    as Horner's rule does, in real arithmetic, so it has the bits of
    ``horner(abs_coeffs, r)[0]``; that call also builds an unused
    derivative and ran 18-34% slower (m = 12, 32 on one row; 4,000 rows at
    m = 4).
    """
    m = abs_coeffs.shape[1] - 1
    r = np.asarray(r, dtype=np.float64)
    s = np.empty(np.broadcast_shapes((abs_coeffs.shape[0], 1), r.shape))
    s[...] = abs_coeffs[:, m : m + 1]
    for k in range(m - 1, -1, -1):
        np.multiply(s, r, out=s)
        np.add(s, abs_coeffs[:, k : k + 1], out=s)
    return s


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

    The active rows' iterates, lock masks and coefficients are held as
    compacted arrays; a row retires (is written back and dropped from them)
    on the sweep where its last root locks.
    """
    ca = np.ascontiguousarray(coeffs, dtype=np.complex128)
    z = np.array(z0, dtype=np.complex128, copy=True)
    B, m = z.shape
    aa = np.abs(ca)

    sweeps = np.full(B, max_sweeps, dtype=np.int64)
    converged = np.zeros(B, dtype=bool)
    active_rows = np.arange(B)
    zc, lc = z, np.zeros((B, m), dtype=bool)
    # The (rows, m, m) pairwise arrays, allocated once and used through
    # their first ``b`` rows as rows retire: fresh ones every sweep took
    # 0.71 against 0.43 ms per sweep even in a tight loop (B = 20, m = 32).
    diff_buf = np.empty((B, m, m), dtype=np.complex128)
    inv_buf = np.empty((B, m, m), dtype=np.complex128)
    nz_buf = np.empty((B, m, m), dtype=bool)
    diag = np.arange(m)

    for sweep in range(max_sweeps):
        b = active_rows.size
        if b == 0:
            break

        p, dp = horner(ca, zc)
        az = np.abs(zc)
        res_lock = ~lc & (np.abs(p) <= _ZERO_TOL * noise_scale(aa, az))

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # sum_{j != i, z_j != z_i} 1 / (z_i - z_j); the diagonal is
            # masked too, since it is NaN, not 0, at a non-finite iterate.
            diff = np.subtract(zc[:, :, None], zc[:, None, :], out=diff_buf[:b])
            nz = np.not_equal(diff, 0, out=nz_buf[:b])
            nz[:, diag, diag] = False
            inv = inv_buf[:b]
            inv.fill(0)
            np.divide(1.0, diff, out=inv, where=nz)
            repulse = inv.sum(axis=2)
            # Newton and Aberth quotients; a zero divisor leaves the numerator.
            newton = p.copy()
            np.divide(p, dp, out=newton, where=dp != 0)
            denom = 1.0 - newton * repulse
            w = newton.copy()
            np.divide(newton, denom, out=w, where=denom != 0)

        step_lock = ~lc & ~res_lock & (np.abs(w) <= tol * (1.0 + az))
        move = ~lc & ~res_lock
        zc = np.where(move, zc - w, zc)
        lc = lc | res_lock | step_lock

        done = lc.all(axis=1)
        if done.any():
            retired = active_rows[done]
            z[retired] = zc[done]
            sweeps[retired] = sweep + 1
            converged[retired] = True
            stay = ~done
            active_rows = active_rows[stay]
            zc, lc, ca, aa = zc[stay], lc[stay], ca[stay], aa[stay]

    z[active_rows] = zc
    return z, sweeps, converged
