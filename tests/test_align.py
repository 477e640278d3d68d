"""Bottleneck matching against brute force, and the empirical modulus."""

import itertools
import math
import os
import warnings
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from deformkit import (
    UniPoly,
    bottleneck_match,
    empirical_modulus,
    find_roots,
    is_eps_aligned,
    random_deformation,
)
from deformkit.align import _deform, _unit_noise


def brute_force_bottleneck(a, b):
    """Oracle: minimum over all n! orderings of the max pairwise distance.

    Scores with the same vectorized distance matrix the matcher sees (so
    exact float equality is meaningful) but searches by full enumeration.
    """
    A = np.asarray([complex(x) for x in a], dtype=np.complex128)
    B = np.asarray([complex(x) for x in b], dtype=np.complex128)
    dist = np.abs(A[:, None] - B[None, :])
    best = math.inf
    for perm in itertools.permutations(range(len(b))):
        worst = max(float(dist[i, j]) for i, j in enumerate(perm))
        best = min(best, worst)
    return best


def test_identity_pairing_beats_crossing():
    m = bottleneck_match([0, 1], [0.1, 1.05])
    assert m.bottleneck == pytest.approx(0.1, abs=0)
    assert m.perm == (0, 1)


def test_self_match_is_zero():
    vals = [0.3 + 1j, -2, 5j]
    assert bottleneck_match(vals, vals).bottleneck == 0.0


def test_symmetric_square_example():
    m = bottleneck_match([1, -1], [1j, -1j])
    assert m.bottleneck == pytest.approx(math.sqrt(2), rel=1e-15)


def test_matches_brute_force_exactly():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        fast = bottleneck_match(a, b).bottleneck
        slow = brute_force_bottleneck(a, b)
        assert fast == slow  # the optimum is one of the shared distances


def test_matching_is_a_valid_bijection():
    rng = np.random.default_rng(9)
    a = rng.normal(size=5) + 1j * rng.normal(size=5)
    b = rng.normal(size=5) + 1j * rng.normal(size=5)
    m = bottleneck_match(a, b)
    assert sorted(m.perm) == list(range(5))
    assert m.bottleneck == max(abs(a[i] - b[m.perm[i]]) for i in range(5))


def test_bottleneck_is_symmetric():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert (
            bottleneck_match(a, b).bottleneck == bottleneck_match(b, a).bottleneck
        )


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        bottleneck_match([0, 1], [0])
    with pytest.raises(ValueError):
        bottleneck_match([], [])


def test_eps_alignment_strictness_and_monotonicity():
    a, b = [0, 1], [0.1, 1.05]
    assert is_eps_aligned(a, b, 0.2)
    assert not is_eps_aligned(a, b, 0.1)  # strict at the boundary
    assert is_eps_aligned(a, a, 1e-12)
    eps_values = [0.05, 0.1000001, 0.2, 1.0]
    flags = [is_eps_aligned(a, b, e) for e in eps_values]
    assert flags == sorted(flags)  # once aligned, stays aligned


def test_multiset_expansion_by_multiplicity():
    r = find_roots(UniPoly([1, -2, 1]))  # double root at 1
    m = bottleneck_match(r, [1.0, 1.0])
    assert m.bottleneck < 1e-6


def test_deformation_bottleneck_shrinks_with_delta():
    f = UniPoly([-6j, (-2 - 3j), (1 - 3j), 1])  # (t-1)(t+2)(t-3i)
    base = find_roots(f)
    prev = None
    for k in range(3, 9):
        delta = 10.0**-k
        g = UniPoly.from_sparse(
            random_deformation(f.to_sparse(), delta, seed=100 + k)
        )
        b = bottleneck_match(base, find_roots(g)).bottleneck
        assert b < 10 * delta
        if prev is not None:
            assert b <= 2 * prev
        prev = b
    assert prev < 1e-4


# -- empirical eps-to-delta modulus ------------------------------------------------


def deform_one(f, noise, delta):
    """Reference: the earlier one-trial ``_deform``, verbatim."""
    eta = noise * (delta * (1.0 - 1e-9))
    lead = abs(f.coeffs[-1])
    cap = min(1.0, 0.5 * lead / (delta * (1.0 - 1e-9)))
    eta[-1] *= cap
    return UniPoly(f.coeffs + eta)


def modulus_grid_oracle(f, eps, trials, seed, grid):
    """Independent estimate: dense delta grid with brute-force alignment."""
    base = find_roots(f).values()
    best = None
    for delta in grid:
        ok = True
        for t in range(trials):
            g = deform_one(f, _unit_noise(f.coeffs.size, seed, t), delta)
            if brute_force_bottleneck(base, find_roots(g).values()) >= eps:
                ok = False
                break
        if ok:
            best = delta
    return best


def test_modulus_simple_roots():
    f = UniPoly([-1, 0, 1])
    delta = empirical_modulus(f, eps=0.01, trials=8, seed=5)
    assert 1e-4 <= delta <= 1e-2
    grid = np.logspace(-5, -2, 16)
    oracle = modulus_grid_oracle(f, 0.01, trials=8, seed=5, grid=grid)
    assert oracle is not None
    # same order of magnitude as the independent grid estimate
    assert oracle / 4 <= delta <= oracle * 4


def test_modulus_double_root_needs_smaller_delta():
    f = UniPoly([1, -2, 1])
    delta = empirical_modulus(f, eps=0.01, trials=8, seed=5)
    assert delta <= 1e-4


def test_modulus_preserves_degree():
    f = UniPoly([0, 1e-6])  # tiny leading coefficient
    noise = np.stack([_unit_noise(2, 0, t) for t in range(3)])
    rows = _deform(f, noise, 0.5)
    assert rows.shape == (3, 2)
    assert all(UniPoly(row).degree == f.degree for row in rows)


def test_deform_rows_equal_one_trial_deformations():
    f = UniPoly([1 - 2j, 0.5, -3, 1e-3])
    noise = np.stack([_unit_noise(4, 7, t) for t in range(5)])
    for delta in (1e-12, 1e-4, 0.37, 2.0):
        rows = _deform(f, noise, delta)
        for row, one in zip(rows, noise):
            assert row.tobytes() == deform_one(f, one.copy(), delta).coeffs.tobytes()


def test_modulus_rejects_bad_arguments():
    f = UniPoly([-1, 0, 1])
    with pytest.raises(ValueError):
        empirical_modulus(f, eps=0.01, trials=0)
    with pytest.raises(ValueError):
        empirical_modulus(f, eps=-1.0, trials=2)


def test_matching_serialization():
    m = bottleneck_match([0, 1], [0.1, 1.05])
    assert m.to_json_dict() == {"perm": [0, 1], "bottleneck": m.bottleneck}


def record_solves(monkeypatch, tamper=None):
    """Route align's batched solves through the real one and record them:
    whether each was warm, its trial numbers, rows, initial estimates, its
    bisection step (0 for the feasibility check at 1e-12) and its output.
    ``tamper(call, roots, residuals, converged)`` may change the output in
    place before it is recorded and returned."""
    from types import SimpleNamespace

    from deformkit import align as align_mod

    real = align_mod.solve_batch
    calls = []

    def recorded(coeffs, tol=1e-12, z0=None):
        roots, res, converged = real(coeffs, tol, z0=z0)
        if z0 is not None:  # a warm batch of all trials opens each step
            trials = np.arange(len(coeffs))
        else:
            step_rows = next(c.coeffs for c in reversed(calls) if c.warm)
            trials = np.array([np.flatnonzero((step_rows == row).all(axis=1))[0] for row in coeffs])
        call = SimpleNamespace(
            warm=z0 is not None, trials=trials, coeffs=coeffs.copy(),
            z0=None if z0 is None else np.array(z0),
            step=sum(c.warm for c in calls) + (z0 is not None) - 1,
        )
        if tamper is not None:
            tamper(call, roots, res, converged)
        call.out = (roots.copy(), res.copy(), converged.copy())
        calls.append(call)
        return roots, res, converged

    monkeypatch.setattr(align_mod, "solve_batch", recorded)
    return calls


def tamper_first_batch(monkeypatch, unaligned=None, unconverged=None, trial0=None):
    """Record align's batched solves (``record_solves``), but in every solve
    of the first bisection step (the warm batch of all trials and the cold
    batch of the unsettled ones) move trial ``unaligned`` far away, flag
    trial ``unconverged`` and give trial 0 the roots ``trial0``."""

    def tamper(call, roots, res, converged):
        for k, trial in enumerate(call.trials.tolist()):
            if call.step == 0 and trial == unaligned:
                roots[k] += 10.0
            if call.step == 0 and trial == unconverged:
                converged[k] = False
            if call.step == 0 and trial == 0 and trial0 is not None:
                roots[k] = trial0

    return record_solves(monkeypatch, tamper)


def check_steps(calls, base, eps):
    """Check the recorded solves of one ``empirical_modulus`` run, step by
    step, against its rules, and return them as (warm call, cold trials).

    Each step opens with one warm batch of all trials.  The first starts
    from ``_warm_start``; each later one starts every trial from its roots
    at the step before (the cold roots, for a trial solved cold), or from
    ``_warm_start`` where those did not converge.  Then, where the warm
    roots leave trials unsettled before the first settled trial with no
    matching, comes exactly one cold batch of those trials in trial order;
    otherwise none."""
    from deformkit.align import _perfect_matching, _settled, _warm_start

    steps = []
    for call in calls:
        if call.warm:
            steps.append([call])
        else:
            steps[-1].append(call)
    trials = len(calls[0].coeffs)
    fallback = _warm_start(base, trials)
    start = fallback
    out = []
    for warm, *cold in steps:
        assert warm.trials.tolist() == list(range(trials))
        assert warm.z0.tobytes() == start.tobytes()
        roots, _, converged = (a.copy() for a in warm.out)
        with np.errstate(invalid="ignore"):
            dist = np.abs(base[None, :, None] - roots[:, None, :])
        settled = _settled(warm.coeffs, roots, converged, dist, eps)
        failing = [t for t in np.flatnonzero(settled) if _perfect_matching(dist[t] < eps) is None]
        judged = np.flatnonzero(~settled[: failing[0] if failing else trials])
        assert len(cold) == (judged.size > 0)
        if cold:
            assert cold[0].trials.tolist() == judged.tolist()
            assert cold[0].coeffs.tobytes() == warm.coeffs[judged].tobytes()
            roots[judged], _, converged[judged] = cold[0].out
        start = np.where(converged[:, None], roots, fallback)
        out.append((warm, judged))
    return out


def test_modulus_propagates_solver_failure_with_context(monkeypatch):
    from deformkit.roots import RootConvergenceError

    tamper_first_batch(monkeypatch, unconverged=0)  # base solve succeeds, first trial fails
    with pytest.raises(RootConvergenceError) as exc:
        empirical_modulus(UniPoly([-1, 0, 1]), eps=0.01, trials=2)
    assert "trial 0" in str(exc.value)


def test_modulus_unaligned_trial_decides_before_a_later_unconverged_one(monkeypatch):
    # Trial 2 fails the first candidate (delta = 1e-12), so trial 5 is never
    # judged: no RootConvergenceError, just no feasible delta.
    tamper_first_batch(monkeypatch, unaligned=2, unconverged=5)
    with pytest.raises(ArithmeticError, match="no feasible delta"):
        empirical_modulus(UniPoly([-1, 0, 1]), eps=0.01, trials=8)


def test_modulus_unconverged_trial_raises_before_a_later_unaligned_one(monkeypatch):
    from deformkit.roots import RootConvergenceError

    tamper_first_batch(monkeypatch, unaligned=5, unconverged=2)
    with pytest.raises(RootConvergenceError) as exc:
        empirical_modulus(UniPoly([-1, 0, 1]), eps=0.01, trials=8)
    assert str(exc.value).startswith("trial 2 at delta=1.000e-12: ")


# Base roots 0 and 0.004 at eps = 0.01: both base roots are nearest to the
# trial root 0.002, so the nearest-root assignment is not a bijection.
CLOSE_PAIR = UniPoly([0, -0.004, 1])


def test_modulus_matches_a_trial_whose_nearest_roots_collide(monkeypatch):
    from deformkit.align import _nearest_is_matching

    want = empirical_modulus(CLOSE_PAIR, eps=0.01, trials=3)
    trial0 = np.array([0.002, 0.009])  # 0 -> 0.009 and 0.004 -> 0.002 match
    dist = np.abs(np.array([0, 0.004])[:, None] - trial0[None, :])
    assert not _nearest_is_matching(dist, 0.01)
    tamper_first_batch(monkeypatch, trial0=trial0)
    assert empirical_modulus(CLOSE_PAIR, eps=0.01, trials=3) == want


def test_modulus_fails_a_trial_with_no_matching(monkeypatch):
    tamper_first_batch(monkeypatch, trial0=np.array([0.002, 0.015]))
    with pytest.raises(ArithmeticError, match="no feasible delta"):
        empirical_modulus(CLOSE_PAIR, eps=0.01, trials=3)


def test_modulus_solves_each_bisection_step_in_one_batch(monkeypatch):
    # One warm batch of all trials per step, started from the previous
    # step's roots, then at most one cold batch that holds exactly the
    # trials the warm roots left unsettled before the step's first failing
    # settled trial, in trial order (check_steps).
    from deformkit import align as align_mod
    from deformkit import roots as roots_mod

    f = UniPoly(np.poly(np.arange(1, 11) / 10.0)[::-1])  # Wilkinson-10, scaled
    want = sequential_modulus(f, 0.01, trials=7, seed=0)
    calls = record_solves(monkeypatch)  # records align's batches only
    real = roots_mod.solve_batch
    base = []

    def counted(coeffs, tol=1e-12, z0=None):
        base.append(len(coeffs))
        return real(coeffs, tol, z0=z0)

    monkeypatch.setattr(roots_mod, "solve_batch", counted)
    assert empirical_modulus(f, eps=0.01, trials=7).hex() == want.hex()
    assert base == [1]  # the base solve, through find_roots
    steps = check_steps(calls, np.array(find_roots(f).values()), 0.01)
    # The feasibility check at 1e-12, then one step per halving.
    assert len(steps) == align_mod.BISECTION_STEPS + 1
    assert any(judged.size for _, judged in steps)  # some steps fell back to cold solves


# -- batched trials against the earlier sequential bisection -----------------------


def sequential_modulus(f, eps, trials, seed):
    """Reference: the earlier ``empirical_modulus``, one ``find_roots`` per
    trial, judged in trial order with an exit at the first unaligned one."""
    from deformkit.align import BISECTION_STEPS
    from deformkit.roots import RootConvergenceError

    base_roots = find_roots(f)
    noises = [_unit_noise(f.coeffs.size, seed, t) for t in range(trials)]

    def passes(delta):
        for trial, noise in enumerate(noises):
            g = deform_one(f, noise, delta)
            try:
                deformed = find_roots(g)
            except RootConvergenceError as exc:
                raise RootConvergenceError(
                    f"trial {trial} at delta={delta:.3e}: {exc}",
                    best_roots=exc.best_roots,
                    residual=exc.residual,
                ) from exc
            if not is_eps_aligned(base_roots, deformed, eps):
                return False
        return True

    lo, hi = np.log10(1e-12), np.log10(eps)
    if not passes(10.0**lo):
        raise ArithmeticError("no feasible delta found down to 1e-12")
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


def modulus_shapes(rng):
    """Degree 8-32: well-conditioned ones where every step passes, and ones
    where the bisection is binding (an escaping root, a near-double pair, a
    4-cluster and the scaled Wilkinson-10)."""

    def spread(n):
        theta = 2.0 * np.pi * (np.arange(n) + rng.uniform(-0.2, 0.2, n)) / n
        return rng.uniform(0.9, 1.1, n) * np.exp(1j * theta)

    def from_roots(roots, lead=1.0):
        return UniPoly((lead * np.poly(roots))[::-1])

    shapes = {f"wellcond{d}": from_roots(spread(d), 10.0) for d in (8, 12, 32)}
    far = -rng.uniform(4.2, 4.4) * np.exp(1j * rng.uniform(-0.05, 0.05))
    shapes["escape16"] = from_roots(np.append(spread(15), far))
    r = spread(9)
    pair = r[0] + 1e-4 * np.exp(2j * np.pi * rng.random())
    shapes["neardouble10"] = from_roots(np.append(r, pair))
    r = spread(8)
    cluster = r[0] + 1e-3 * np.exp(2j * np.pi * (np.arange(4) / 4 + rng.random()))
    shapes["cluster12"] = from_roots(np.append(r[1:], cluster))
    shapes["wilkinson10"] = from_roots(np.arange(1, 11) / 10.0)
    return shapes


def test_batched_modulus_equals_sequential_bit_for_bit():
    for name, f in modulus_shapes(np.random.default_rng(11)).items():
        want = sequential_modulus(f, 0.01, trials=20, seed=11)
        got = empirical_modulus(f, 0.01, trials=20, seed=11)
        assert got.hex() == want.hex(), name


def test_modulus_falls_back_to_a_cold_solve_when_a_warm_solve_fails(monkeypatch):
    from deformkit import align as align_mod

    f = UniPoly([0.3 - 0.2j, -1, 0.5j, 1])
    want = sequential_modulus(f, 0.01, trials=5, seed=3)

    def fail_trial3(call, roots, res, converged):
        if call.warm:  # trial 3's warm solve fails at every step
            roots[3] = np.nan
            converged[3] = False

    calls = record_solves(monkeypatch, fail_trial3)
    got = empirical_modulus(f, 0.01, trials=5, seed=3)
    assert got.hex() == want.hex()
    base = np.array(find_roots(f).values())
    steps = check_steps(calls, base, 0.01)
    assert len(steps) == align_mod.BISECTION_STEPS + 1
    # Trial 3 is judged by its cold solve unless a settled trial before it
    # fails the step first.
    judged = [3 in cold.tolist() for _, cold in steps]
    assert sum(judged) >= align_mod.BISECTION_STEPS // 2


def test_modulus_starts_a_trial_without_converged_roots_from_the_warm_start(monkeypatch):
    # Trial 6's warm solve fails at every step.  Where a settled trial
    # before it fails the step, trial 6 is not solved cold and keeps its NaN
    # roots, so the next step starts it from _warm_start.
    from deformkit.align import _warm_start

    f = UniPoly(np.poly(np.arange(1, 11) / 10.0)[::-1])  # Wilkinson-10, scaled
    want = sequential_modulus(f, 0.01, trials=7, seed=0)

    def fail_trial6(call, roots, res, converged):
        if call.warm:
            roots[6] = np.nan
            converged[6] = False

    calls = record_solves(monkeypatch, fail_trial6)
    assert empirical_modulus(f, 0.01, trials=7).hex() == want.hex()
    base = np.array(find_roots(f).values())
    steps = check_steps(calls, base, 0.01)
    fallback = _warm_start(base, 7)[6]
    unjudged = [nxt for (_, cold), (nxt, _) in zip(steps, steps[1:]) if 6 not in cold.tolist()]
    assert unjudged
    for nxt in unjudged:
        assert nxt.z0[6].tobytes() == fallback.tobytes()


def clustered_poly(degree, gap, seed):
    """Degree ``degree`` with random roots, up to three of them ``gap`` apart."""
    rng = np.random.default_rng(seed)
    want = rng.normal(size=degree) + 1j * rng.normal(size=degree)
    k = min(degree, 3)
    want[1:k] = want[0] + gap * np.exp(2j * np.pi * rng.random(k - 1))
    return UniPoly(np.poly(want)[::-1])


GAPS = [1.0, 1e-2, 1e-3, 1e-4]


@settings(max_examples=25, deadline=None)
@given(
    f=st.builds(clustered_poly, st.integers(2, 8), st.sampled_from(GAPS), st.integers(0, 2**31 - 1)),
    trials=st.integers(2, 6),
    eps=st.sampled_from([1e-3, 1e-2, 1e-1]),
    seed=st.integers(0, 2**31 - 1),
)
# The cold roots of this cluster lie outside the discs of its warm roots
# (see test_settled_trials_have_the_cold_solves_adjacency).
@example(f=clustered_poly(8, 1e-4, 496176), trials=6, eps=1e-3, seed=496176)
def test_modulus_equals_sequential_on_random_polynomials(f, trials, eps, seed):
    from deformkit.roots import RootConvergenceError

    def outcome(modulus):
        try:
            return modulus(f, eps, trials=trials, seed=seed).hex()
        except (ArithmeticError, RootConvergenceError) as exc:
            return type(exc)

    assert outcome(empirical_modulus) == outcome(sequential_modulus)


@settings(max_examples=60, deadline=None)
@given(
    degree=st.integers(2, 10),
    gap=st.sampled_from(GAPS),
    log_delta=st.floats(-12.0, -2.0),
    shift=st.floats(-2.0, 2.0),
    eps=st.sampled_from([1e-3, 1e-2, 1e-1]),
    seed=st.integers(0, 2**31 - 1),
)
@example(degree=8, gap=1e-4, log_delta=-12.0, shift=1.0, eps=1e-3, seed=496176)
def test_settled_trials_have_the_cold_solves_adjacency(degree, gap, log_delta, shift, eps, seed):
    """Where the discs settle a trial, its cold solve gives the same
    ``dist < eps`` adjacency, column for column through the discs, for warm
    solves started off f's roots.  Started from the trials' roots at a
    neighbouring delta (``10**(log_delta + shift)``), as bisection steps
    are, a settled trial's cold solve gives its verdict: the cold roots of
    a tight cluster can lie outside the discs of more accurate warm roots
    (the explicit example)."""
    from deformkit.align import _perfect_matching, _settled, _warm_start
    from deformkit.roots import RootConvergenceError, solve_batch

    f = clustered_poly(degree, gap, seed)
    try:
        base = np.array(find_roots(f).values())
    except RootConvergenceError:
        assume(False)
    trials = 8
    noises = np.stack([_unit_noise(f.coeffs.size, seed, t) for t in range(trials)])
    rows = _deform(f, noises, 10.0**log_delta)
    fallback = _warm_start(base, trials)
    near, _, near_ok = solve_batch(_deform(f, noises, 10.0 ** (log_delta + shift)), z0=fallback)
    cold, _, cold_ok = solve_batch(rows)
    for start in (fallback, np.where(near_ok[:, None], near, fallback)):
        warm, _, warm_ok = solve_batch(rows, z0=start)
        with np.errstate(invalid="ignore"):
            dist = np.abs(base[None, :, None] - warm[:, None, :])
        settled = _settled(rows, warm, warm_ok, dist, eps)
        for t in np.flatnonzero(settled).tolist():
            assert cold_ok[t]
            cold_dist = np.abs(base[:, None] - cold[t][None, :])
            if start is fallback:
                owner = np.abs(cold[t][:, None] - warm[t][None, :]).argmin(axis=1)
                assert sorted(owner.tolist()) == list(range(degree))  # one cold root per disc
                assert ((cold_dist < eps) == (dist[t][:, owner] < eps)).all()
            aligned = _perfect_matching(dist[t] < eps) is not None
            assert aligned == (_perfect_matching(cold_dist < eps) is not None)


# -- the iterative matching against the earlier recursive search -------------------


def recursive_bottleneck(a, b):
    """Reference: the earlier recursive augmenting-path search, verbatim in
    its visiting order, inside the same binary search over the distances."""
    A = np.asarray([complex(x) for x in a], dtype=np.complex128)
    B = np.asarray([complex(x) for x in b], dtype=np.complex128)
    dist = np.abs(A[:, None] - B[None, :])
    n = dist.shape[0]

    def feasible(threshold):
        adj = dist <= threshold
        match_of_b = [-1] * n

        def augment(i, seen):
            for j in range(n):
                if adj[i, j] and not seen[j]:
                    seen[j] = True
                    if match_of_b[j] < 0 or augment(match_of_b[j], seen):
                        match_of_b[j] = i
                        return True
            return False

        for i in range(n):
            if not augment(i, [False] * n):
                return None
        perm = [-1] * n
        for j, i in enumerate(match_of_b):
            perm[i] = j
        return perm

    thresholds = np.unique(dist)
    lo, hi = 0, thresholds.size - 1
    best = None
    while lo <= hi:
        mid = (lo + hi) // 2
        perm = feasible(float(thresholds[mid]))
        if perm is not None:
            best, hi = perm, mid - 1
        else:
            lo = mid + 1
    return tuple(best), max(float(dist[i, best[i]]) for i in range(n))


def staircase(n):
    """The one optimal pairing sends a_i to b_{i+1} and the last a to b_0, so
    the last row's augmenting path runs back through every earlier row."""
    return list(range(n - 1)) + [-1], [j - 0.5 for j in range(n)]


def test_matches_recursive_search_perm_and_bottleneck():
    rng = np.random.default_rng(808)
    cases = []
    for _ in range(120):
        n = int(rng.integers(1, 33))
        cases.append((rng.normal(size=n) + 1j * rng.normal(size=n),
                      rng.normal(size=n) + 1j * rng.normal(size=n)))
    # Ties: repeated values and integer lattices share many distances.
    for _ in range(40):
        n = int(rng.integers(1, 17))
        cases.append((rng.integers(-2, 3, size=n) + 1j * rng.integers(-2, 3, size=n),
                      rng.integers(-2, 3, size=n) + 1j * rng.integers(-2, 3, size=n)))
    cases.append(staircase(40))
    for a, b in cases:
        m = bottleneck_match(a, b)
        assert (m.perm, m.bottleneck) == recursive_bottleneck(a, b)


def test_staircase_needs_no_recursion():
    # The augmenting path at threshold 0.5 is n rows long; a recursive search
    # needs a frame per row and overflows the lowered limit.
    code = (
        "import sys\n"
        "from deformkit import bottleneck_match\n"
        "sys.setrecursionlimit(150)\n"
        "n = 400\n"
        "a = list(range(n - 1)) + [-1]\n"
        "b = [j - 0.5 for j in range(n)]\n"
        "m = bottleneck_match(a, b)\n"
        "assert m.perm == tuple(range(1, n)) + (0,), m.perm[:5]\n"
        "assert m.bottleneck == 0.5, m.bottleneck\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_eps_alignment_agrees_with_bottleneck():
    rng = np.random.default_rng(77)
    for _ in range(60):
        n = int(rng.integers(1, 13))
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        value = bottleneck_match(a, b).bottleneck
        dist = np.abs(a[:, None] - b[None, :])
        # Every pairwise distance is a boundary case, the optimum among them.
        probes = [float(d) for d in np.unique(dist)]
        probes += [np.nextafter(value, np.inf), np.nextafter(value, 0), 2 * value]
        for eps in probes:
            if eps > 0:
                assert is_eps_aligned(a, b, eps) == (value < eps), (n, eps)


def test_eps_alignment_runs_one_matching(monkeypatch):
    from deformkit import align as align_mod

    real = align_mod._perfect_matching
    calls = []

    def counted(adj):
        calls.append(adj.shape)
        return real(adj)

    monkeypatch.setattr(align_mod, "_perfect_matching", counted)
    rng = np.random.default_rng(5)
    a = rng.normal(size=12) + 1j * rng.normal(size=12)
    b = a + 0.01 * rng.normal(size=12)
    assert is_eps_aligned(a, b, 0.5)
    assert calls == [(12, 12)]


def test_modulus_of_a_huge_lead_warns_nothing():
    # 0.5 * |lead| / delta overflows for |lead| near 1e308; the cap is then 1.
    f = UniPoly([1.0, -1.0, 1.7e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        delta = empirical_modulus(f, 0.01, trials=3, seed=1729)
    assert math.isfinite(delta)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
def test_alignment_rejects_non_positive_eps(bad):
    with pytest.raises(ValueError, match="eps must be positive"):
        is_eps_aligned([0, 1], [0, 1], bad)
    with pytest.raises(ValueError, match="eps must be positive"):
        empirical_modulus(UniPoly([-1, 0, 1]), bad, trials=1)
