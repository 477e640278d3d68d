"""The NumPy kernels against independent oracles: a brute-force grid
supremum, per-point evaluation, ``numpy.polynomial`` and ``numpy.roots``."""

import itertools

import numpy as np
import pytest

from deformkit import _kernels
from deformkit.polynomials import SparsePoly
from deformkit.roots import UniPoly, _initial_points_batch
from deformkit.varieties import eval_at_points

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
        got = _kernels.grid_values(exps, coeffs, axes)
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
