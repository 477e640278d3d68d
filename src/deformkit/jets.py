"""Truncated Laurent series in a formal infinitesimal, with standard parts.

A ``Jet`` stores complex coefficients for powers ``eps**min_exp`` through
``eps**order`` of a formal symbol ``eps``.  Jets with ``min_exp >= 0`` model
finite quantities; a nonzero coefficient at a negative power marks an
infinite one, for which the standard part is the ``INFINITE`` sentinel
rather than a number.  A finite jet with zero constant term is
infinitesimal.  Taking standard parts coefficientwise turns a jet-coefficient
polynomial into an ordinary one, and that map is a ring homomorphism (the
property tests pin this down).

Arithmetic is exact within the model: addition, multiplication, and division
are Laurent arithmetic truncated at the common order, and mixed-order
operands are truncated to the smaller order first.  Division by a jet whose
leading term sits at power ``l`` shifts ``min_exp`` down by ``l``, which is
how infinite values such as ``1/eps`` arise.

``hensel_lift_root`` realizes infinitesimal root alignment constructively:
above the simple roots of the standard-part polynomial it builds, order by
order and for all roots at once, jet roots of the deformed polynomial whose
standard parts are the original roots, and certifies each coefficient by the
root solver's noise-floor rule.  Repeated roots would need fractional powers
of ``eps`` (the roots of ``t**2 - eps`` are ``±eps**0.5``), which this
representation cannot express, so they are reported as skipped rather than
guessed.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import _kernels
from .polynomials import (
    SparsePoly,
    _check_index,
    _json_cnum,
    _json_complex,
    _json_int,
    coeff_sup_distance,
)
from .roots import CLUSTER_RADIUS, UniPoly, cluster_multiplicities, find_roots

__all__ = [
    "Jet",
    "JetPoly",
    "INFINITE",
    "DEFAULT_ORDER",
    "MAX_ORDER",
    "MultipleRootError",
    "jet_arith",
    "standard_part",
    "approx",
    "st_poly",
    "approx_poly",
    "hensel_lift_root",
    "jet_align_roots",
    "JetAlignment",
    "APPROX_TOL",
]

DEFAULT_ORDER = 8
MAX_ORDER = 32
# Two finite jets are infinitely close when their standard parts agree to
# this absolute tolerance (coefficients are floating point).
APPROX_TOL = 1e-12


class _Infinite:
    """Marker for the standard part of an infinite quantity."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITE"


INFINITE = _Infinite()


class MultipleRootError(ValueError):
    """Lifting was asked for at a root where the derivative vanishes."""


def _check_order(order: int) -> int:
    order = operator.index(order)  # a float order is a TypeError, not truncated
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ORDER}, got {order}")
    return order


class Jet:
    """Truncated Laurent series ``sum_k coeffs[k - min_exp] * eps**k``.

    Coefficients cover powers ``min_exp .. order`` inclusive.  Construction
    normalizes away exactly-zero leading coefficients; the zero jet is
    canonically stored with ``min_exp == 0``.
    """

    __slots__ = ("_min_exp", "_coeffs", "_order")

    def __init__(self, min_exp: int, coeffs: Sequence[complex], order: int = DEFAULT_ORDER):
        order = _check_order(order)
        min_exp = int(min_exp)
        arr = np.asarray(list(coeffs), dtype=np.complex128)
        if arr.ndim != 1 or arr.size != order - min_exp + 1:
            raise ValueError(
                f"need {order - min_exp + 1} coefficients for powers "
                f"{min_exp}..{order}, got {arr.size}"
            )
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise ValueError("jet coefficients must be finite")
        # Normalize: advance past exact leading zeros.
        nz = np.nonzero(arr)[0]
        if nz.size == 0:
            min_exp = 0
            arr = np.zeros(order + 1, dtype=np.complex128)
        else:
            min_exp += int(nz[0])
            arr = arr[nz[0] :].copy()
        arr.setflags(write=False)
        object.__setattr__(self, "_min_exp", min_exp)
        object.__setattr__(self, "_coeffs", arr)
        object.__setattr__(self, "_order", order)

    def __setattr__(self, name, value):
        raise AttributeError("Jet is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, value: complex, order: int = DEFAULT_ORDER) -> "Jet":
        order = _check_order(order)
        c = np.zeros(order + 1, dtype=np.complex128)
        c[0] = value
        return cls(0, c, order)

    @classmethod
    def eps(cls, order: int = DEFAULT_ORDER, power: int = 1) -> "Jet":
        """The monomial ``eps**power`` (power may be negative)."""
        order = _check_order(order)
        power = int(power)
        if power > order:
            return cls.zero(order)
        c = np.zeros(order - power + 1, dtype=np.complex128)
        c[0] = 1.0
        return cls(power, c, order)

    @classmethod
    def zero(cls, order: int = DEFAULT_ORDER) -> "Jet":
        order = _check_order(order)
        return cls(0, np.zeros(order + 1), order)

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[complex], order: int = DEFAULT_ORDER) -> "Jet":
        """Jet from coefficients starting at power 0 (padded/truncated)."""
        order = _check_order(order)
        c = np.zeros(order + 1, dtype=np.complex128)
        src = list(coeffs)[: order + 1]
        c[: len(src)] = src
        return cls(0, c, order)

    # -- accessors -----------------------------------------------------------

    @property
    def min_exp(self) -> int:
        return self._min_exp

    @property
    def order(self) -> int:
        return self._order

    @property
    def coeffs(self) -> np.ndarray:
        return self._coeffs

    def coeff(self, power: int) -> complex:
        """Coefficient of ``eps**power`` (0 outside the stored window)."""
        i = power - self._min_exp
        if 0 <= i < self._coeffs.size:
            return complex(self._coeffs[i])
        return 0j

    def is_zero(self) -> bool:
        return not np.any(self._coeffs)

    def is_finite(self) -> bool:
        return self._min_exp >= 0

    def is_infinitesimal(self) -> bool:
        return self.is_finite() and self.coeff(0) == 0

    def truncate(self, order: int) -> "Jet":
        order = _check_order(order)
        if order >= self._order:
            if order == self._order:
                return self
            raise ValueError("cannot extend a jet to a higher order")
        if self._min_exp > order:
            return Jet.zero(order)
        return Jet(self._min_exp, self._coeffs[: order - self._min_exp + 1], order)

    def _window(self, min_exp: int, order: int) -> np.ndarray:
        """Coefficients for powers min_exp..order, zero-filled outside."""
        out = np.zeros(order - min_exp + 1, dtype=np.complex128)
        lo = max(min_exp, self._min_exp)
        hi = min(order, self._order)
        if lo <= hi:
            out[lo - min_exp : hi - min_exp + 1] = self._coeffs[
                lo - self._min_exp : hi - self._min_exp + 1
            ]
        return out

    # -- arithmetic ------------------------------------------------------------

    def _coerce(self, other) -> "Jet":
        if isinstance(other, Jet):
            return other
        return Jet.constant(complex(other), self._order)

    def __add__(self, other) -> "Jet":
        other = self._coerce(other)
        order = min(self._order, other._order)
        m = min(self._min_exp, other._min_exp, order)
        return Jet(m, self._window(m, order) + other._window(m, order), order)

    __radd__ = __add__

    def __neg__(self) -> "Jet":
        return Jet(self._min_exp, -self._coeffs, self._order)

    def __sub__(self, other) -> "Jet":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Jet":
        return (-self) + other

    def __mul__(self, other) -> "Jet":
        other = self._coerce(other)
        order = min(self._order, other._order)
        a = self.truncate(order)
        b = other.truncate(order)
        if a.is_zero() or b.is_zero():
            return Jet.zero(order)
        m = a._min_exp + b._min_exp
        if m > order:
            return Jet.zero(order)
        conv = np.convolve(a._coeffs, b._coeffs)[: order - m + 1]
        if conv.size < order - m + 1:
            conv = np.pad(conv, (0, order - m + 1 - conv.size))
        return Jet(m, conv, order)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet":
        other = self._coerce(other)
        order = min(self._order, other._order)
        a = self.truncate(order)
        b = other.truncate(order)
        if b.is_zero():
            raise ZeroDivisionError("division by the zero jet")
        if a.is_zero():
            return Jet.zero(order)
        ell = b._min_exp
        q_min = a._min_exp - ell
        count = order - q_min + 1
        if count <= 0:
            return Jet.zero(order)
        num = np.zeros(count, dtype=np.complex128)
        src = a._coeffs[:count]
        num[: src.size] = src
        den = b._coeffs
        q = np.zeros(count, dtype=np.complex128)
        for k in range(count):
            acc = num[k]
            for j in range(1, min(k, den.size - 1) + 1):
                acc -= den[j] * q[k - j]
            q[k] = acc / den[0]
        return Jet(q_min, q, order)

    def __rtruediv__(self, other) -> "Jet":
        return Jet.constant(complex(other), self._order) / self

    def __pow__(self, n: int) -> "Jet":
        if not isinstance(n, int) or n < 0:
            raise ValueError("jet powers must be nonnegative integers")
        result = Jet.constant(1.0, self._order)
        base = self
        k = n
        while k:
            if k & 1:
                result = result * base
            base = base * base if k >> 1 else base
            k >>= 1
        return result

    # -- comparison and serialization -------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Jet)
            and self._order == other._order
            and self._min_exp == other._min_exp
            and np.array_equal(self._coeffs, other._coeffs)
        )

    def __repr__(self) -> str:
        parts = []
        for i, c in enumerate(self._coeffs):
            if c != 0:
                parts.append(f"({c:g})e{self._min_exp + i}")
        return "Jet[" + (" + ".join(parts) or "0") + f"; K={self._order}]"

    def to_json_dict(self) -> dict:
        return {
            "min_exp": self._min_exp,
            "order": self._order,
            "coeffs": [_json_cnum(c) for c in self._coeffs],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "Jet":
        coeffs = [_json_complex(c) for c in data["coeffs"]]
        min_exp = _json_int(data["min_exp"], "min_exp")
        return cls(min_exp, coeffs, _json_int(data["order"], "order"))


def jet_arith(a: Jet, b: Jet, op: str) -> Jet:
    """Dispatch table for the four ring operations on jets."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown op {op!r}; expected add/sub/mul/div")


def standard_part(a: Jet):
    """Constant-term coefficient, or ``INFINITE`` for an infinite jet."""
    if not a.is_finite():
        return INFINITE
    return a.coeff(0)


def approx(a: Jet, b: Jet) -> bool:
    """True iff ``a - b`` is infinitesimal.  Defined for finite jets only."""
    if not (a.is_finite() and b.is_finite()):
        raise ValueError("infinitely close is only defined between finite jets")
    return abs(standard_part(a - b)) <= APPROX_TOL


class JetPoly:
    """Polynomial whose coefficients are jets sharing one truncation order."""

    __slots__ = ("_nvars", "_terms", "_order")

    def __init__(self, nvars: int, terms: Mapping[Sequence[int], Jet], order: int = DEFAULT_ORDER):
        nvars = operator.index(nvars)
        if nvars < 1:
            raise ValueError(f"nvars must be >= 1, got {nvars}")
        order = _check_order(order)
        clean: dict[tuple[int, ...], Jet] = {}
        for exps, jet in terms.items():
            idx = _check_index(exps, nvars)
            if idx in clean:
                raise ValueError(f"duplicate exponent tuple {idx}")
            if not isinstance(jet, Jet):
                jet = Jet.constant(complex(jet), order)
            if jet.order != order:
                raise ValueError(
                    f"coefficient at {idx} has order {jet.order}, expected {order}"
                )
            if not jet.is_zero():
                clean[idx] = jet
        object.__setattr__(self, "_nvars", nvars)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_order", order)

    def __setattr__(self, name, value):
        raise AttributeError("JetPoly is immutable")

    @property
    def nvars(self) -> int:
        return self._nvars

    @property
    def order(self) -> int:
        return self._order

    @property
    def terms(self) -> dict[tuple[int, ...], Jet]:
        return dict(self._terms)

    def sorted_terms(self):
        return sorted(self._terms.items(), key=lambda kv: kv[0])

    @classmethod
    def from_sparse(cls, p: SparsePoly, order: int = DEFAULT_ORDER) -> "JetPoly":
        return cls(
            p.nvars,
            {idx: Jet.constant(c, order) for idx, c in p.terms.items()},
            order,
        )

    def truncate(self, order: int) -> "JetPoly":
        if order == self._order:
            return self
        return JetPoly(
            self._nvars,
            {idx: j.truncate(order) for idx, j in self._terms.items()},
            order,
        )

    def __add__(self, other: "JetPoly") -> "JetPoly":
        if self._nvars != other._nvars:
            raise ValueError("variable count mismatch")
        order = min(self._order, other._order)
        a, b = self.truncate(order), other.truncate(order)
        out = dict(a._terms)
        for idx, jet in b._terms.items():
            out[idx] = out[idx] + jet if idx in out else jet
        return JetPoly(self._nvars, out, order)

    def __mul__(self, other: "JetPoly") -> "JetPoly":
        if self._nvars != other._nvars:
            raise ValueError("variable count mismatch")
        order = min(self._order, other._order)
        a, b = self.truncate(order), other.truncate(order)
        out: dict[tuple[int, ...], Jet] = {}
        for ia, ja in a._terms.items():
            for ib, jb in b._terms.items():
                idx = tuple(x + y for x, y in zip(ia, ib))
                prod = ja * jb
                out[idx] = out[idx] + prod if idx in out else prod
        return JetPoly(self._nvars, out, order)

    def evaluate(self, point: Sequence[Jet]) -> Jet:
        """Evaluate at a point whose coordinates are jets."""
        if len(point) != self._nvars:
            raise ValueError(
                f"point has dimension {len(point)}, polynomial has {self._nvars}"
            )
        order = min([self._order] + [w.order for w in point])
        pt = [w.truncate(order) for w in point]
        total = Jet.zero(order)
        for idx, coeff in self.sorted_terms():
            mono = coeff.truncate(order)
            for w, e in zip(pt, idx):
                if e:
                    mono = mono * w**e
            total = total + mono
        return total

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, JetPoly)
            and self._nvars == other._nvars
            and self._order == other._order
            and self._terms == other._terms
        )

    def __repr__(self) -> str:
        body = ", ".join(f"{idx}: {jet!r}" for idx, jet in self.sorted_terms())
        return f"JetPoly({self._nvars}, {{{body}}}, K={self._order})"

    def to_json_dict(self) -> dict:
        return {
            "nvars": self._nvars,
            "order": self._order,
            "terms": [
                {"exps": list(idx), "jet": jet.to_json_dict()}
                for idx, jet in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "JetPoly":
        nvars = _json_int(data["nvars"], "nvars")
        order = _json_int(data["order"], "order")
        terms: dict[tuple[int, ...], Jet] = {}
        for entry in data["terms"]:
            idx = _check_index(entry["exps"], nvars)
            if idx in terms:
                raise ValueError(f"duplicate exponent tuple {idx}")
            terms[idx] = Jet.from_json_dict(entry["jet"])
        return cls(nvars, terms, order)


def approx_poly(g: JetPoly, h: JetPoly) -> bool:
    """True iff corresponding coefficients differ by infinitesimals only,
    that is iff the standard-part polynomials agree to ``APPROX_TOL``.

    Coefficients are compared over the union of the supports with the zero
    jet filling gaps; an infinite coefficient raises ``ValueError``.
    """
    return coeff_sup_distance(st_poly(g), st_poly(h)) <= APPROX_TOL


def st_poly(g: JetPoly) -> SparsePoly:
    """Coefficientwise standard part; requires every coefficient finite."""
    out: dict[tuple[int, ...], complex] = {}
    for idx, jet in g.terms.items():
        sp = standard_part(jet)
        if sp is INFINITE:
            raise ValueError(f"coefficient at {idx} is infinite; no standard part")
        out[idx] = sp
    return SparsePoly(g.nvars, out)


ST_MATCH_TOL = 1e-12
SIMPLE_ROOT_MIN_DERIV = 1e-6
_ZERO_TOL = _kernels._ZERO_TOL


def _check_st_match(f: SparsePoly, g: JetPoly) -> SparsePoly:
    """``st(g)``; raises ``ValueError`` unless it is ``f``."""
    if g.nvars != f.nvars:
        raise ValueError(
            f"jet polynomial has {g.nvars} variables, its base polynomial {f.nvars}"
        )
    st = st_poly(g)
    if coeff_sup_distance(st, f) > ST_MATCH_TOL:
        raise ValueError(
            "standard part of the jet polynomial does not match the base polynomial"
        )
    return st


def _series_horner(G: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Rows of ``g(W)`` truncated at the width n of ``W``, which is (R, n).

    ``G[r, i]`` holds row r's series coefficient of ``t**i``; a ``G`` of one
    row is shared by all rows.  Each truncated product is a sum of shifted
    elementwise products, so a row's values do not depend on the other rows.
    """
    n = W.shape[1]
    r = np.broadcast_to(G[:, -1, :n], (W.shape[0], n)).copy()
    for i in range(G.shape[1] - 2, -1, -1):
        prod = r * W[:, :1]
        for j in range(1, n):
            prod[:, j:] += r[:, :-j] * W[:, j : j + 1]
        r = prod + G[:, i, :n]
    return r


def _lift_simple_roots(G: np.ndarray, z: np.ndarray):
    """The (R, K+1) lifts above the simple roots ``z`` of the standard rows
    of ``G``, and per order 1..K their residuals, rounding bounds and pass
    flags (``hensel_lift_root`` has the rule).  Each Newton step divides by
    the derivative of the standard row at its root.

    ``C[i]`` caches level i of the series Horner of ``g(W)``, so ``C[0]``
    is ``g(W)``.  Column k of a level depends only on ``W[:, :k+1]``, so
    order k computes column k of every level: once with ``W[:, k] = 0`` to
    get ``[g(W)]_k``, and again with the new ``W[:, k]``.  ``accumulate``
    sums each column's products in the order of ``_series_horner``, so the
    values are the same bits.
    """
    deg, K = G.shape[1] - 1, G.shape[2] - 1
    with np.errstate(over="ignore", invalid="ignore"):
        dp = _kernels.horner(G[:, :, 0], z[:, None])[1][:, 0]  # G may hold one shared row
        W = np.zeros((z.size, K + 1), dtype=np.complex128)
        W[:, 0] = z
        C = np.empty((deg + 1, z.size, K + 1), dtype=np.complex128)
        C[deg] = G[:, deg]

        def column(k):
            for i in range(deg - 1, -1, -1):
                terms = C[i + 1][:, k::-1] * W[:, : k + 1]
                C[i][:, k] = np.add.accumulate(terms, axis=1)[:, -1] + G[:, i, k]

        column(0)
        for k in range(1, K + 1):
            column(k)
            W[:, k] -= C[0][:, k] / dp
            column(k)
        res = np.abs(C[0][:, 1:])
        bound = _ZERO_TOL * _series_horner(np.abs(G), np.abs(W))[:, 1:]
    ok = (res <= bound) & np.isfinite(bound) & np.isfinite(W[:, 1:])
    return W, res, bound, ok


def _lift_order(g: JetPoly, order: int | None) -> int:
    """``order`` (1..MAX_ORDER) capped at ``g``'s order; ``g``'s order if None."""
    return g.order if order is None else min(_check_order(order), g.order)


def _fiber_rows(terms, j: int, z: np.ndarray) -> np.ndarray:
    """(R, d+1, L) coefficients in ``t_j`` at the R points ``z`` of the terms
    ``(exponents, coefficient row of length L)``: slot k sums, in term order,
    the rows of exponent k in ``t_j`` times their monomials in the other
    coordinates, and a row without other coordinates enters unchanged."""
    out = np.zeros((len(z), max(i[j] for i, _ in terms) + 1, len(terms[0][1])), complex)
    filled = set()
    for idx, c in terms:
        rest = idx[:j] + (0,) + idx[j + 1 :]
        if any(rest):
            c = SparsePoly(len(idx), {rest: 1.0}).evaluate(z)[:, None] * c
        k = idx[j]
        out[:, k] = out[:, k] + c if k in filled else c
        filled.add(k)
    return out


def lift_fibers(f: SparsePoly, g: JetPoly, j: int, z: np.ndarray, K: int):
    """Lift the (R, n) points ``z`` of V(f) along their fibers in ``t_j`` to
    points of *V(g) through ``eps**K``.  A point lifts when its fiber root is
    simple, ``|df/dt_j| >= SIMPLE_ROOT_MIN_DERIV``: Hensel's lemma needs no
    more.  Returns the (R,) lifted mask and, for the lifted points, the
    lifts, residuals, bounds and flags of ``_lift_simple_roots``."""
    C = _fiber_rows([(idx, np.array([c])) for idx, c in f.sorted_terms()], j, z)[:, :, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        lifted = np.abs(_kernels.horner(C, z[:, j : j + 1])[1][:, 0]) >= SIMPLE_ROOT_MIN_DERIV
    # Terms zero through eps**K drop out, as in g.truncate(K); none left gives zero rows.
    rows = [(i, w) for i, jet in g.sorted_terms() if (w := jet._window(0, K)).any()]
    G = _fiber_rows(rows or [((0,) * g.nvars, np.zeros(K + 1))], j, z[lifted])
    return (lifted, *_lift_simple_roots(G, z[lifted, j]))


def hensel_lift_root(
    f: UniPoly, zeta, g: JetPoly, order: int | None = None
) -> Jet | tuple[Jet, ...]:
    """Jet roots of ``g`` above simple roots ``zeta`` of ``f``.

    ``zeta`` is one root (returns a ``Jet``) or a 1-D array of roots
    (returns a tuple of ``Jet``, in the same order).  Each lift is
    ``w = zeta + c_1 eps + ... + c_K eps**K`` with ``c_k = -[g(w)]_k /
    st(g)'(zeta)``, where ``[g(w)]_k`` is coefficient k of one power-series
    Horner over all roots at once, taken while ``w`` stops at order k - 1.
    The standard part of each lift is exactly its ``zeta``.  This is
    ``lift_fibers`` in one variable, where the fiber is f itself.

    Both certificates use the root solver's noise-floor rule, with
    ``c = _RES_FACTOR`` and u the unit roundoff.  The root test is
    ``|f(zeta)| <= c u (sum_i |a_i| |zeta|**i + (1 + |zeta|) |f'(zeta)|)``:
    to first order, ``zeta`` moved by ``c u (1 + |zeta|)`` is a root of
    ``f`` with its coefficients moved by ``c u`` relatively (the second
    term admits a computed root of 1e-65 where the root is exactly 0).  For
    k = 1..K the residual coefficient must satisfy ``|[g(w)]_k| <= c u
    [sum_i |G_i| |w|**i]_k``, where ``|G_i|`` and ``|w|`` take moduli
    coefficientwise.

    Raises
    ------
    ValueError
        If the standard part of ``g`` is not ``f``, or some ``zeta`` is not
        a root of ``f``.
    MultipleRootError
        If some ``|f'(zeta)|`` is below the simple-root threshold.
    ArithmeticError
        If a lift residual is not finite or exceeds its rounding bound.
    """
    K = _lift_order(g, order)
    fs = f.to_sparse()
    _check_st_match(fs, g)
    zeta = np.asarray(zeta, dtype=np.complex128)
    if zeta.ndim > 1:
        raise ValueError("zeta must be one root or a 1-D array of roots")
    z = zeta.reshape(1, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        fz, dp = _kernels.horner(f.coeffs[None, :], z)
        noise, _ = _kernels.horner(np.abs(f.coeffs)[None, :], np.abs(z))
        fz, dp, z = np.abs(fz[0]), dp[0], z[0]
        root_bound = _ZERO_TOL * (noise[0] + (1.0 + np.abs(z)) * np.abs(dp))
        bad = np.flatnonzero(~(fz <= root_bound))
        if bad.size:
            i = bad[0]
            raise ValueError(
                f"{complex(z[i])} is not a root of the base polynomial: |f| = "
                f"{fz[i]:.3e} exceeds its rounding bound {root_bound[i]:.3e}"
            )
    lifted, W, res, bound, ok = lift_fibers(fs, g, 0, z[:, None], K)
    if not lifted.all():
        i = np.flatnonzero(~lifted)[0]
        raise MultipleRootError(
            f"|f'({complex(z[i])})| = {abs(dp[i]):.3e} is below "
            f"{SIMPLE_ROOT_MIN_DERIV}; root is (numerically) multiple and "
            "cannot be lifted by integer-power jets"
        )
    if not ok.all():
        i, k = np.argwhere(~ok)[0]
        where = f"at order {k + 1} above the root {complex(z[i])}"
        if not np.isfinite(bound[i, k]):
            raise ArithmeticError(f"lift residual {where} is not finite")
        raise ArithmeticError(
            f"lift residual {res[i, k]:.3e} {where} exceeds its rounding bound "
            f"{bound[i, k]:.3e}"
        )
    lifts = tuple(Jet(0, w, K) for w in W)
    return lifts if zeta.ndim else lifts[0]


@dataclass(frozen=True)
class JetAlignment:
    """Lifted (root, jet-root) pairs plus roots that could not be lifted."""

    pairs: tuple[tuple[complex, Jet], ...]
    skipped: tuple[tuple[complex, int, str], ...]

    def to_json_dict(self) -> dict:
        return {
            "pairs": [
                {"root": _json_cnum(z), "lift": w.to_json_dict()}
                for z, w in self.pairs
            ],
            "skipped": [
                {"root": _json_cnum(z), "multiplicity": m, "reason": why}
                for z, m, why in self.skipped
            ],
        }


def jet_align_roots(f: UniPoly, g: JetPoly, order: int | None = None) -> JetAlignment:
    """Pair every simple root of ``f`` with its lifted jet root of ``g``.

    Roots of multiplicity above one, and roots where ``|f'|`` is below the
    simple-root threshold, are reported in ``skipped`` with their
    multiplicities: their deformation exponents are fractional, which the
    integer-power jet model deliberately does not represent.  The rest are
    lifted by one ``hensel_lift_root`` call.
    """
    _check_st_match(f.to_sparse(), g)
    roots = cluster_multiplicities(find_roots(f), CLUSTER_RADIUS).roots
    values = np.array([v for v, _ in roots], dtype=np.complex128)
    _, dp = _kernels.horner(f.coeffs[None, :], values[None, :])
    simple = (np.array([m for _, m in roots]) == 1) & (
        np.abs(dp[0]) >= SIMPLE_ROOT_MIN_DERIV
    )
    skipped = tuple(
        (v, m, "multiple root" if m > 1 else "derivative below simple-root threshold")
        for (v, m), s in zip(roots, simple)
        if not s
    )
    lifts = hensel_lift_root(f, values[simple], g, order)
    pairs = tuple(zip((v for (v, _), s in zip(roots, simple) if s), lifts))
    return JetAlignment(pairs=pairs, skipped=skipped)
