"""Sparse polynomial core: evaluation, coefficient metric, deformations, JSON."""

import json

import numpy as np
import pytest

from deformkit import (
    SparsePoly,
    coeff_sup_distance,
    degree_and_support,
    is_delta_deformation,
    random_deformation,
)


def sp(nvars, terms):
    return SparsePoly(nvars, terms)


# -- evaluation ----------------------------------------------------------------


def test_eval_diagonal_line_vanishes():
    f = sp(2, {(0, 1): 1, (1, 0): -1})  # t2 - t1
    assert f.evaluate([5, 5]) == 0


def test_eval_hyperbola_point():
    f = sp(2, {(1, 1): 1, (0, 0): -1})  # t1*t2 - 1
    assert f.evaluate([1, 1]) == 0


def test_eval_constant():
    f = SparsePoly.constant(1, 3)
    assert f.evaluate([7 + 2j]) == 3


def test_eval_dimension_mismatch():
    f = sp(2, {(1, 0): 1})
    with pytest.raises(ValueError):
        f.evaluate([1.0])


def rand_poly(rng, nvars, max_deg=3, max_terms=5):
    terms = {}
    for _ in range(rng.integers(1, max_terms + 1)):
        idx = tuple(int(e) for e in rng.integers(0, max_deg + 1, nvars))
        terms[idx] = complex(*rng.uniform(-1, 1, 2))
    return SparsePoly(nvars, terms)


def test_eval_is_linear_and_multiplicative():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        p, q = rand_poly(rng, n), rand_poly(rng, n)
        z = [complex(*rng.uniform(-0.7, 0.7, 2)) for _ in range(n)]
        lhs = (p + q).evaluate(z)
        rhs = p.evaluate(z) + q.evaluate(z)
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))
        lhs = (p * q).evaluate(z)
        rhs = p.evaluate(z) * q.evaluate(z)
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))


EPS = float(np.finfo(np.float64).eps)


def scalar_loop_evaluate(p, point):
    """Reference: the term-by-term scalar loop, one Python complex at a time."""
    zs = [complex(z) for z in point]
    total = 0j
    for idx, coeff in p.sorted_terms():
        mono = 1 + 0j
        for z, e in zip(zs, idx):
            if e:
                mono *= z**e
        total += coeff * mono
    return total


def abs_scale(p, point):
    """The absolute-value polynomial: sum_t |c_t| prod_j |z_j|^e_tj."""
    az = np.abs(np.asarray(point, dtype=np.complex128))
    return sum(abs(c) * float(np.prod(az ** np.array(idx))) for idx, c in p.sorted_terms())


def test_evaluate_matches_scalar_loop_on_points_and_arrays():
    rng = np.random.default_rng(29)
    for _ in range(60):
        n = int(rng.integers(1, 4))
        p = rand_poly(rng, n, max_deg=6, max_terms=8)
        deg = max(p.total_degree(), 1)
        pts = 1.3 * (rng.normal(size=(7, n)) + 1j * rng.normal(size=(7, n)))
        vals = p.evaluate(pts)
        assert isinstance(vals, np.ndarray)
        assert vals.shape == (7,) and vals.dtype == np.complex128
        for m in range(pts.shape[0]):
            want = scalar_loop_evaluate(p, pts[m])
            tol = 8 * deg * EPS * abs_scale(p, pts[m])
            one = p.evaluate(list(pts[m]))
            assert type(one) is complex
            assert abs(one - want) <= tol
            assert abs(vals[m] - want) <= tol


@pytest.mark.parametrize("n", [1, 2, 3])
def test_evaluate_bits_do_not_depend_on_position(n):
    # NumPy's complex multiply picks its inner loop by length and layout, so
    # a point alone and the same point inside a batch can round differently.
    rng = np.random.default_rng(100 + n)
    p = rand_poly(rng, n, max_deg=4, max_terms=8)
    pts = rng.normal(size=(1000, n)) + 1j * rng.normal(size=(1000, n))
    batch = p.evaluate(pts)
    for m in range(pts.shape[0]):
        assert batch[m].tobytes() == np.complex128(p.evaluate(pts[m])).tobytes()


def test_evaluate_keeps_leading_axes():
    p = sp(2, {(2, 1): 1.5 - 0.5j, (0, 0): -1.0, (1, 0): 0.25j})
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(3, 4, 2)) + 1j * rng.normal(size=(3, 4, 2))
    vals = p.evaluate(pts)
    assert vals.shape == (3, 4)
    assert np.array_equal(vals.reshape(-1), p.evaluate(pts.reshape(-1, 2)))
    assert p.evaluate(np.zeros((0, 2))).shape == (0,)
    assert p(pts[0, 0]) == p.evaluate(pts[0, 0].reshape(1, 2))[0]
    with pytest.raises(ValueError):
        p.evaluate(np.zeros((5, 3)))
    with pytest.raises(ValueError):
        p.evaluate(1.0)


# -- coefficient distance --------------------------------------------------------


def test_distance_identical():
    p = sp(1, {(2,): 1, (0,): 1})
    assert coeff_sup_distance(p, p) == 0.0


def test_distance_simple_pair():
    p = sp(1, {(2,): 1, (0,): 1})
    q = sp(1, {(2,): 1.01, (0,): 0.98})
    assert coeff_sup_distance(p, q) == pytest.approx(0.02, rel=1e-12)


def test_distance_disjoint_supports():
    p = sp(2, {(1, 0): 1})
    q = sp(2, {(0, 1): 1})
    assert coeff_sup_distance(p, q) == 1.0


def test_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        coeff_sup_distance(sp(1, {(1,): 1}), sp(2, {(1, 0): 1}))


def test_distance_is_a_metric_on_random_triples():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 3))
        a, b, c = (rand_poly(rng, n) for _ in range(3))
        dab, dba = coeff_sup_distance(a, b), coeff_sup_distance(b, a)
        assert dab == dba
        assert coeff_sup_distance(a, a) == 0.0
        dac, dcb = coeff_sup_distance(a, c), coeff_sup_distance(c, b)
        assert dab <= dac + dcb + 1e-15


# -- strict deformation predicate -------------------------------------------------


def test_deformation_strictly_inside():
    p = sp(1, {(2,): 1, (0,): 1})
    q = sp(1, {(2,): 1.01, (0,): 0.98})
    assert is_delta_deformation(p, q, 0.05)


def test_deformation_self():
    p = sp(1, {(2,): 1, (0,): 1})
    assert is_delta_deformation(p, p, 1e-300)


def test_deformation_boundary_is_excluded():
    p = sp(1, {(2,): 1, (0,): 1})
    q = sp(1, {(2,): 1.01, (0,): 0.98})
    assert not is_delta_deformation(p, q, 0.02)


def test_deformation_rejects_bad_delta():
    p = sp(1, {(1,): 1})
    with pytest.raises(ValueError):
        is_delta_deformation(p, p, 0.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_deformation_rejects_non_finite_delta(bad):
    p = sp(1, {(1,): 1})
    with pytest.raises(ValueError, match="delta must be positive"):
        is_delta_deformation(p, p, bad)
    with pytest.raises(ValueError, match="delta must be positive"):
        random_deformation(p, bad, seed=0)


# -- degree and support ------------------------------------------------------------


def test_degree_and_support_examples():
    assert degree_and_support(sp(2, {(2, 1): 1, (1, 0): 1})) == (3, 2)
    assert degree_and_support(SparsePoly.constant(1, 5)) == (0, 1)
    assert degree_and_support(sp(2, {(1, 1): 1, (0, 0): -1})) == (2, 2)


def test_degree_of_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        degree_and_support(SparsePoly.zero(2))


# -- random deformations -------------------------------------------------------------


def test_random_deformation_deterministic():
    p = sp(2, {(1, 1): 1, (0, 0): -1})
    a = random_deformation(p, 0.1, seed=42)
    b = random_deformation(p, 0.1, seed=42)
    assert a == b
    assert a != random_deformation(p, 0.1, seed=43)


def test_random_deformation_is_strict():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = rand_poly(rng, int(rng.integers(1, 4)))
        delta = float(10.0 ** rng.uniform(-8, 0))
        q = random_deformation(p, delta, seed=int(rng.integers(0, 2**31)))
        assert is_delta_deformation(p, q, delta)
        assert set(q.terms) == set(p.terms)


def test_random_deformation_tiny_delta():
    p = sp(1, {(2,): 1, (0,): -1})
    q = random_deformation(p, 1e-6, seed=0)
    assert coeff_sup_distance(p, q) < 1e-6


# -- construction invariants -----------------------------------------------------------


def test_zero_coefficients_dropped():
    p = sp(2, {(1, 0): 0.0, (0, 1): 2.0})
    assert p.support_size() == 1


def test_duplicate_indices_rejected():
    with pytest.raises(ValueError):
        SparsePoly.from_json_dict(
            {
                "nvars": 1,
                "terms": [
                    {"exps": [1], "re": 1.0, "im": 0.0},
                    {"exps": [1], "re": 2.0, "im": 0.0},
                ],
            }
        )


def test_non_integral_nvars_rejected():
    with pytest.raises(TypeError):
        SparsePoly(1.9, {(2,): 1.0})
    with pytest.raises(TypeError):
        SparsePoly(np.float64(2.0))
    p = SparsePoly(np.int64(2), {(1, 0): 1.0})
    assert p.nvars == 2 and type(p.nvars) is int


def test_wrong_length_index_rejected():
    with pytest.raises(ValueError):
        sp(2, {(1,): 1.0})


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        sp(1, {(-1,): 1.0})


def test_nonfinite_coefficient_rejected():
    with pytest.raises(ValueError):
        sp(1, {(1,): complex(float("nan"), 0)})


def test_arithmetic_prunes_tiny_coefficients():
    p = sp(1, {(1,): 1.0, (0,): 1e-16})
    q = sp(1, {(0,): -1e-16})
    assert (p + q).support_size() == 1
    assert p.prune(1e-15).support_size() == 1


def test_arithmetic_keeps_tiny_nonzero_coefficients():
    t = sp(1, {(1,): 1.0})
    assert (t * 1e-8) * (t * 1e-7) == sp(1, {(2,): 1e-8 * 1e-7})
    assert (t + 5e-15) - t == sp(1, {(0,): 5e-15})
    assert ((t + 5e-15) - t).prune().is_zero()  # pruning stays an explicit call


# -- JSON round trip ----------------------------------------------------------------------


def test_json_round_trip_is_bit_exact():
    awkward = sp(
        3,
        {
            (0, 0, 0): complex(0.1, -1 / 3),
            (2, 1, 0): complex(1e-300, 7.1),
            (0, 0, 4): complex(np.nextafter(1.0, 2.0), 0.25),
        },
    )
    text = awkward.to_json()
    back = SparsePoly.from_json(text)
    assert back == awkward
    assert back.to_json() == text
    # coefficients are identical at the bit level
    for idx, c in awkward.terms.items():
        assert back.terms[idx] == c


def test_json_format_shape():
    p = sp(2, {(1, 1): complex(1, -2)})
    data = p.to_json_dict()
    assert data == {"nvars": 2, "terms": [{"exps": [1, 1], "re": 1.0, "im": -2.0}]}


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        SparsePoly.from_json(json.dumps({"terms": []}))
    with pytest.raises(ValueError):
        SparsePoly.from_json(
            json.dumps({"nvars": 2, "terms": [{"exps": [1], "re": 1.0, "im": 0.0}]})
        )
