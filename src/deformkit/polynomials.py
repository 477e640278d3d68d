"""Sparse multivariate complex polynomials and coefficient-space geometry.

A polynomial in ``n`` variables is stored as a finite map from exponent
tuples to nonzero complex coefficients::

    t1**2 * t2 - 1   ->   SparsePoly(2, {(2, 1): 1.0, (0, 0): -1.0})

Exact zeros are never stored, so ``support_size`` counts the terms that are
actually present.  All values are immutable after construction and every
operation is a pure function, so instances can be shared freely between
threads.

Coefficient-space distance is the sup norm over the union of the two
supports (absent terms count as zero), and ``q`` is a delta-deformation of
``p`` when that distance is strictly below delta.
"""

from __future__ import annotations

import json
import math
import operator
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "SparsePoly",
    "PolySystem",
    "PRUNE_TOL",
    "coeff_sup_distance",
    "is_delta_deformation",
    "degree_and_support",
    "random_deformation",
]

# Default magnitude below which ``SparsePoly.prune`` drops coefficients;
# arithmetic drops only exact zeros.
PRUNE_TOL = 1e-14
# Scale of a delta that makes a random perturbation a strict delta-deformation.
_STRICT = 1.0 - 1e-9


def _require_finite(c: complex, where: str) -> complex:
    c = complex(c)
    if not (math.isfinite(c.real) and math.isfinite(c.imag)):
        raise ValueError(f"non-finite coefficient in {where}: {c!r}")
    return c


def _require_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):  # NaN and infinities fail
        raise ValueError(f"{name} must be positive, got {value}")


def _json_int(value, field: str) -> int:
    """``value`` if it is an integer (``operator.index``), else ``ValueError``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{field} must be an integer, got {value!r}") from None


def _json_complex(entry: Mapping) -> complex:
    """``re + i*im`` of a JSON coefficient; strings, booleans and null are refused."""
    for key in ("re", "im"):
        if isinstance(entry[key], (str, bool)) or entry[key] is None:
            raise ValueError(f"{key} must be a number, got {entry[key]!r}")
    return complex(float(entry["re"]), float(entry["im"]))


def _json_cnum(z: complex) -> dict:
    """``z`` as the JSON pair that ``_json_complex`` reads back."""
    return {"re": float(z.real), "im": float(z.imag)}


def _check_index(exps: Sequence[int], nvars: int) -> tuple[int, ...]:
    try:
        idx = tuple(map(operator.index, exps))
    except TypeError:
        raise ValueError(f"exponents must be integers, got {exps!r}") from None
    if len(idx) != nvars:
        raise ValueError(
            f"exponent tuple {idx} has length {len(idx)}, expected {nvars}"
        )
    if any(e < 0 for e in idx):
        raise ValueError(f"negative exponent in {idx}")
    return idx


class SparsePoly:
    """Immutable sparse polynomial over the complex numbers.

    Parameters
    ----------
    nvars : int
        Number of variables (>= 1).
    terms : mapping from exponent tuple to complex, optional
        Coefficients; exact zeros are dropped.  Omit for the zero
        polynomial.
    """

    __slots__ = ("_nvars", "_terms")

    def __init__(self, nvars: int, terms: Mapping[Sequence[int], complex] | None = None):
        nvars = operator.index(nvars)
        if nvars < 1:
            raise ValueError(f"nvars must be >= 1, got {nvars}")
        clean: dict[tuple[int, ...], complex] = {}
        if terms:
            for exps, coeff in terms.items():
                idx = _check_index(exps, nvars)
                if idx in clean:
                    raise ValueError(f"duplicate exponent tuple {idx}")
                c = _require_finite(coeff, f"term {idx}")
                if c != 0:
                    clean[idx] = c
        object.__setattr__(self, "_nvars", nvars)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("SparsePoly is immutable")

    # -- basic accessors ---------------------------------------------------

    @property
    def nvars(self) -> int:
        return self._nvars

    @property
    def terms(self) -> dict[tuple[int, ...], complex]:
        """Copy of the coefficient map."""
        return dict(self._terms)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], complex]]:
        """Terms in lexicographic exponent order (the canonical order)."""
        return sorted(self._terms.items(), key=lambda kv: kv[0])

    def coeff(self, exps: Sequence[int]) -> complex:
        return self._terms.get(_check_index(exps, self._nvars), 0j)

    def is_zero(self) -> bool:
        return not self._terms

    def support_size(self) -> int:
        return len(self._terms)

    def total_degree(self) -> int:
        """Max total degree over the support; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(idx) for idx in self._terms)

    def degree_in(self, var: int) -> int:
        """Max exponent of variable ``var`` (0-based); -1 if zero."""
        if not self._terms:
            return -1
        return max(idx[var] for idx in self._terms)

    def coeff_inf_norm(self) -> float:
        return max((abs(c) for c in self._terms.values()), default=0.0)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "SparsePoly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value: complex) -> "SparsePoly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, var: int) -> "SparsePoly":
        """The monomial ``t_var`` (0-based index)."""
        if not 0 <= var < nvars:
            raise ValueError(f"variable index {var} out of range for nvars={nvars}")
        exps = [0] * nvars
        exps[var] = 1
        return cls(nvars, {tuple(exps): 1.0 + 0j})

    # -- evaluation --------------------------------------------------------

    def evaluate(self, point) -> complex | np.ndarray:
        """Evaluate at one point of length ``nvars``, or at an array of points.

        An array whose last axis has length ``nvars`` gives an array of
        values over the leading axes; a single point gives a ``complex``.
        Each term is its coefficient times one coordinate at a time, in
        float64 real and imaginary parts (NumPy's complex multiply rounds by
        operand layout), and terms are summed in lexicographic exponent
        order, so a point gets the same bits alone as inside an array.
        """
        pts = np.asarray(point, dtype=np.complex128)
        dim = pts.shape[-1] if pts.ndim else 0
        if dim != self._nvars:
            raise ValueError(f"point has dimension {dim}, polynomial has {self._nvars}")
        rows = pts.reshape(-1, dim)
        coords = [(x.real.copy(), x.imag.copy()) for x in rows.T]
        vals = np.zeros(rows.shape[0], dtype=np.complex128)
        # A value past the float range becomes inf or NaN, which the
        # strict-JSON reports refuse; it is not worth a warning on stderr.
        with np.errstate(over="ignore", invalid="ignore"):
            for idx, coeff in self.sorted_terms():
                re, im = coeff.real, coeff.imag
                for (xr, xi), e in zip(coords, idx):
                    for _ in range(e):
                        re, im = re * xr - im * xi, re * xi + im * xr
                vals.real += re
                vals.imag += im
        if pts.ndim == 1:
            return complex(vals[0])
        return vals.reshape(pts.shape[:-1])

    __call__ = evaluate

    # -- arithmetic (plumbing for jets and tests) --------------------------

    def _coerce(self, other) -> "SparsePoly":
        if isinstance(other, SparsePoly):
            if other._nvars != self._nvars:
                raise ValueError(
                    f"variable count mismatch: {self._nvars} vs {other._nvars}"
                )
            return other
        return SparsePoly.constant(self._nvars, other)

    def __add__(self, other) -> "SparsePoly":
        other = self._coerce(other)
        out = dict(self._terms)
        for idx, c in other._terms.items():
            out[idx] = out.get(idx, 0j) + c
        return SparsePoly(self._nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "SparsePoly":
        return SparsePoly(self._nvars, {i: -c for i, c in self._terms.items()})

    def __sub__(self, other) -> "SparsePoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "SparsePoly":
        return (-self) + other

    def __mul__(self, other) -> "SparsePoly":
        other = self._coerce(other)
        out: dict[tuple[int, ...], complex] = {}
        for ia, ca in self._terms.items():
            for ib, cb in other._terms.items():
                idx = tuple(a + b for a, b in zip(ia, ib))
                out[idx] = out.get(idx, 0j) + ca * cb
        return SparsePoly(self._nvars, out)

    __rmul__ = __mul__

    def prune(self, tol: float = PRUNE_TOL) -> "SparsePoly":
        """Drop coefficients of magnitude below ``tol``."""
        return SparsePoly(
            self._nvars, {i: c for i, c in self._terms.items() if abs(c) >= tol}
        )

    # -- comparison --------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparsePoly)
            and self._nvars == other._nvars
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self._nvars, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        body = ", ".join(f"{idx}: {c}" for idx, c in self.sorted_terms())
        return f"SparsePoly({self._nvars}, {{{body}}})"

    # -- JSON (bit-exact round trip) ----------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "nvars": self._nvars,
            "terms": [
                {"exps": list(idx), "re": c.real, "im": c.imag}
                for idx, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "SparsePoly":
        try:
            nvars = _json_int(data["nvars"], "nvars")
            raw_terms = data["terms"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed polynomial JSON: {exc}") from exc
        terms: dict[tuple[int, ...], complex] = {}
        for entry in raw_terms:
            idx = _check_index(entry["exps"], nvars)
            if idx in terms:
                raise ValueError(f"duplicate exponent tuple {idx}")
            terms[idx] = _json_complex(entry)
        return cls(nvars, terms)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "SparsePoly":
        return cls.from_json_dict(json.loads(text))


class PolySystem:
    """Finite family of polynomials sharing a variable count."""

    __slots__ = ("_polys",)

    def __init__(self, polys: Iterable[SparsePoly]):
        polys = tuple(polys)
        if not polys:
            raise ValueError("a polynomial system must be nonempty")
        nvars = polys[0].nvars
        for p in polys:
            if p.nvars != nvars:
                raise ValueError("all polynomials in a system must share nvars")
        object.__setattr__(self, "_polys", polys)

    def __setattr__(self, name, value):
        raise AttributeError("PolySystem is immutable")

    @property
    def polys(self) -> tuple[SparsePoly, ...]:
        return self._polys

    @property
    def nvars(self) -> int:
        return self._polys[0].nvars

    def __len__(self) -> int:
        return len(self._polys)

    def __iter__(self):
        return iter(self._polys)


# -- coefficient-space operations -------------------------------------------


def coeff_sup_distance(p: SparsePoly, q: SparsePoly) -> float:
    """Sup norm of the coefficient difference over the support union.

    Terms absent from one polynomial are treated as zero, so polynomials
    with different supports are compared on the zero-filled union.
    Restricted to a fixed support this is a metric.
    """
    if p.nvars != q.nvars:
        raise ValueError(f"variable count mismatch: {p.nvars} vs {q.nvars}")
    pt, qt = p.terms, q.terms
    best = 0.0
    for idx in pt.keys() | qt.keys():
        d = abs(qt.get(idx, 0j) - pt.get(idx, 0j))
        if d > best:
            best = d
    return best


def is_delta_deformation(p: SparsePoly, q: SparsePoly, delta: float) -> bool:
    """True iff every coefficient of ``q`` is strictly within ``delta`` of ``p``'s."""
    _require_positive("delta", delta)
    return coeff_sup_distance(p, q) < delta


def degree_and_support(p: SparsePoly) -> tuple[int, int]:
    """Total degree and number of present terms of a nonzero polynomial."""
    if p.is_zero():
        raise ValueError("degree_and_support requires a nonzero polynomial")
    return p.total_degree(), p.support_size()


def random_deformation(p: SparsePoly, delta: float, seed: int) -> SparsePoly:
    """Perturb every coefficient by an independent draw from the open disc.

    The perturbations are uniform on the disc of radius ``delta * _STRICT``,
    so the output is always a strict delta-deformation with the same support.
    Deterministic for a fixed seed.
    """
    _require_positive("delta", delta)
    rng = np.random.default_rng(seed)
    radius = delta * _STRICT
    out: dict[tuple[int, ...], complex] = {}
    for idx, coeff in p.sorted_terms():
        u, v = rng.random(), rng.random()
        angle = 2 * math.pi * v
        eta = radius * math.sqrt(u) * complex(math.cos(angle), math.sin(angle))
        out[idx] = coeff + eta
    return SparsePoly(p.nvars, out)
