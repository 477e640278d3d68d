"""Bottleneck matching against brute force, and the empirical modulus."""

import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
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


def tamper_first_batch(monkeypatch, unaligned=None, unconverged=None, trial0=None):
    """Route align's batched solves through the real one, but in every solve
    of the first bisection step (the warm batch of all trials and the cold
    batch of the unsettled ones) move trial ``unaligned`` far away, flag
    trial ``unconverged`` and give trial 0 the roots ``trial0``.  Returns
    the solves seen: whether each was warm, its trial numbers, rows and output."""
    from types import SimpleNamespace

    from deformkit import align as align_mod

    real = align_mod.solve_batch
    calls = []

    def tampered(coeffs, tol=1e-12, z0=None):
        roots, res, converged = real(coeffs, tol, z0=z0)
        if z0 is not None:  # a warm batch of all trials opens each step
            step_rows = coeffs
            trials = np.arange(len(coeffs))
        else:
            step_rows = next(c.coeffs for c in reversed(calls) if c.warm)
            trials = np.array([np.flatnonzero((step_rows == row).all(axis=1))[0] for row in coeffs])
        first_step = sum(c.warm for c in calls) + (z0 is not None) == 1
        for k, trial in enumerate(trials.tolist()):
            if first_step and trial == unaligned:
                roots[k] += 10.0
            if first_step and trial == unconverged:
                converged[k] = False
            if first_step and trial == 0 and trial0 is not None:
                roots[k] = trial0
        calls.append(
            SimpleNamespace(warm=z0 is not None, trials=trials, coeffs=coeffs.copy(),
                            out=(roots.copy(), res.copy(), converged.copy()))
        )
        return roots, res, converged

    monkeypatch.setattr(align_mod, "solve_batch", tampered)
    return calls


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
    # One warm batch of all trials per step, then at most one cold batch
    # that holds only trials the warm roots left unsettled, in trial order.
    from deformkit import align as align_mod
    from deformkit import roots as roots_mod

    calls = tamper_first_batch(monkeypatch)  # records align's batches only
    real = roots_mod.solve_batch
    base = []

    def counted(coeffs, tol=1e-12, z0=None):
        base.append(len(coeffs))
        return real(coeffs, tol, z0=z0)

    monkeypatch.setattr(roots_mod, "solve_batch", counted)
    f = UniPoly(np.poly(np.arange(1, 11) / 10.0)[::-1])  # Wilkinson-10, scaled
    empirical_modulus(f, eps=0.01, trials=7)
    assert base == [1]  # the base solve, through find_roots
    roots = np.array(find_roots(f).values())
    steps = []
    for call in calls:
        if call.warm:
            steps.append([call])
        else:
            steps[-1].append(call)
    # The feasibility check at 1e-12, then one step per halving.
    assert len(steps) == align_mod.BISECTION_STEPS + 1
    for warm, *cold in steps:
        assert warm.trials.tolist() == list(range(7))
        assert len(cold) <= 1
        if cold:
            trials = cold[0].trials
            assert trials.size and (np.diff(trials) > 0).all()
            got, _, converged = warm.out
            dist = np.abs(roots[None, :, None] - got[:, None, :])
            settled = align_mod._settled(warm.coeffs, got, converged, dist, 0.01)
            assert not settled[trials].any()
    assert any(cold for _, *cold in steps)  # some steps fell back to cold solves


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
    real = align_mod.solve_batch
    steps = []

    def failing_warm(coeffs, tol=1e-12, z0=None):
        roots, res, converged = real(coeffs, tol, z0=z0)
        if z0 is not None:  # trial 3's warm solve fails at every step
            roots[3] = np.nan
            converged[3] = False
            steps.append((coeffs.copy(), []))
        else:
            steps[-1][1].append(coeffs.copy())
        return roots, res, converged

    monkeypatch.setattr(align_mod, "solve_batch", failing_warm)
    got = empirical_modulus(f, 0.01, trials=5, seed=3)
    assert got.hex() == want.hex()
    # Each step re-solves at most one batch, of its own trials; trial 3 is
    # among them unless a settled trial before it fails the step first.
    assert len(steps) == align_mod.BISECTION_STEPS + 1
    with_trial3 = 0
    for warm, cold in steps:
        assert len(cold) <= 1
        for rows in cold:
            assert all((warm == row).all(axis=1).any() for row in rows)
            with_trial3 += (rows == warm[3]).all(axis=1).any()
    assert with_trial3 >= align_mod.BISECTION_STEPS // 2


@settings(max_examples=60, deadline=None)
@given(
    degree=st.integers(2, 10),
    gap=st.sampled_from([1.0, 1e-2, 1e-3, 1e-4]),
    log_delta=st.floats(-12.0, -2.0),
    eps=st.sampled_from([1e-3, 1e-2, 1e-1]),
    seed=st.integers(0, 2**31 - 1),
)
def test_settled_trials_have_the_cold_solves_adjacency(degree, gap, log_delta, eps, seed):
    """Where the discs settle a trial, its cold solve gives the same
    ``dist < eps`` adjacency, column for column through the discs."""
    from deformkit.align import _settled, _warm_start
    from deformkit.roots import RootConvergenceError, solve_batch

    rng = np.random.default_rng(seed)
    want = rng.normal(size=degree) + 1j * rng.normal(size=degree)
    k = min(degree, 3)  # a cluster of up to three roots ``gap`` apart
    want[1:k] = want[0] + gap * np.exp(2j * np.pi * rng.random(k - 1))
    f = UniPoly(np.poly(want)[::-1])
    try:
        base = np.array(find_roots(f).values())
    except RootConvergenceError:
        assume(False)
    trials = 8
    noises = np.stack([_unit_noise(f.coeffs.size, seed, t) for t in range(trials)])
    rows = _deform(f, noises, 10.0**log_delta)
    warm, _, warm_ok = solve_batch(rows, z0=_warm_start(base, trials))
    with np.errstate(invalid="ignore"):
        dist = np.abs(base[None, :, None] - warm[:, None, :])
    settled = _settled(rows, warm, warm_ok, dist, eps)
    cold, _, cold_ok = solve_batch(rows)
    for t in np.flatnonzero(settled).tolist():
        assert cold_ok[t]
        owner = np.abs(cold[t][:, None] - warm[t][None, :]).argmin(axis=1)
        assert sorted(owner.tolist()) == list(range(degree))  # one cold root per disc
        cold_dist = np.abs(base[:, None] - cold[t][None, :])
        assert ((cold_dist < eps) == (dist[t][:, owner] < eps)).all()


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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
def test_alignment_rejects_non_positive_eps(bad):
    with pytest.raises(ValueError, match="eps must be positive"):
        is_eps_aligned([0, 1], [0, 1], bad)
    with pytest.raises(ValueError, match="eps must be positive"):
        empirical_modulus(UniPoly([-1, 0, 1]), bad, trials=1)
