"""Seeded inputs and op lists for the three benchmark workloads.

Every op is one ``deformkit`` CLI call.  Inputs depend only on the workload
seed: ``build`` draws them, writes them as files into a work directory and
returns the op list of one pass.  The op mix is the same for every seed:
the seed rotates fixed template cases and draws tolerances, deformations and
the univariate family (see NOTES.md for why each workload exists).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from deformkit import (
    Jet,
    JetPoly,
    SparsePoly,
    UniPoly,
    delta_bound,
    random_deformation,
)

# One stratum per (draws, T, n) combination, n fastest: the marginals of the
# acceptance sweeps (n uniform in 1..3, 2..6 term draws, T in {1, 2}) hold
# exactly in every block of 30 cases, so every seed runs the same op mix.
STRATA = [(n, draws, T) for draws in range(2, 7) for T in (1.0, 2.0) for n in (1, 2, 3)]
# The supports and coefficient sizes of the cases come from this fixed seed.
# An op's cost follows the zero-set size, which ranges over 1k-51k points
# between n = 3 draws; a per-seed rotation of the variables (``_rotated``)
# keeps each size, so the op list costs about the same at every seed.
TEMPLATE_SEED = 2207
BOUND_BLOCKS = 4
ZEROSET_BLOCKS = 1
# Tilted-line certificates: (delta', eps, T, grid, measure-grid).  Both put
# the on-axis witness at |w| = 2 eps / delta' = 10 inside the window.
COUNTEREXAMPLES = ((0.1, 0.5, 12.0, 25, 1201), (0.05, 0.25, 12.0, 25, 1201))

MODULUS_EPS = 0.01
MODULUS_TRIALS = 20
ALIGN_DELTAS = (1e-2, 1e-3, 1e-4, 1e-6, 1e-8, 1e-10)
ALIGN_DRAWS = 2
JET_ORDERS = (8, 32)
JET_TAIL = 0.1


@dataclass
class Op:
    """One CLI call; ``expect`` carries what its correctness gate needs."""

    kind: str
    args: list[str]
    out: str
    key: str
    expect: dict = field(default_factory=dict)

    def argv(self, seed: int) -> list[str]:
        return [self.kind, *self.args, "--seed", str(seed), "--no-timestamp", "--out", self.out]

    def outputs(self) -> list[str]:
        """Files the op writes: its report, and the cloud CSV of a contain op."""
        return [self.out, self.expect["csv"]] if self.kind == "contain" else [self.out]


def _write_json(path: str, data: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def _random_poly(rng: np.random.Generator, n: int, draws: int) -> SparsePoly:
    """The acceptance sweeps' case law: exponents in 0..4 with total degree <= 4."""
    while True:
        terms = {}
        for _ in range(draws):
            while True:
                idx = tuple(int(x) for x in rng.integers(0, 5, n))
                if sum(idx) <= 4:
                    break
            terms[idx] = complex(*rng.uniform(-1, 1, 2))
        f = SparsePoly(n, terms)
        if not f.is_zero() and f.total_degree() >= 1:
            return f


def _rotated(f: SparsePoly, rng: np.random.Generator) -> SparsePoly:
    """f with its variables rotated, each |coefficient| jittered by 5%.

    The sampled variable (the first one f depends on) turns by any angle,
    which keeps the modulus of every root; the others turn by a multiple of
    90 degrees, which maps the sampling grid onto itself.  So the zero-set
    sample keeps its size while its points change.
    """
    axis = next(k for k in range(f.nvars) if f.degree_in(k) > 0)
    phi = 0.5 * np.pi * rng.integers(0, 4, f.nvars)
    phi[axis] = rng.uniform(0.0, 2.0 * np.pi)
    return SparsePoly(f.nvars, {
        idx: c * np.exp(1j * float(np.dot(idx, phi))) * rng.uniform(0.95, 1.05)
        for idx, c in f.sorted_terms()
    })


def _cases(rng: np.random.Generator, blocks: int):
    """(f, g, T, eps) with g a random deformation at 0.9 * delta_bound."""
    templates = np.random.default_rng(TEMPLATE_SEED)
    out = []
    for _ in range(blocks):
        for n, draws, T in STRATA:
            f = _rotated(_random_poly(templates, n, draws), rng)
            eps = float(rng.choice([0.1, 1.0]))
            limit = delta_bound(eps, T, f.total_degree(), f.support_size())
            g = random_deformation(f, 0.9 * limit, seed=int(rng.integers(2**31)))
            out.append((f, g, T, eps))
    return out


def _bound_ops(rng, work: str) -> list[Op]:
    ops = []
    for i, (f, g, T, eps) in enumerate(_cases(rng, BOUND_BLOCKS)):
        fp = _write_json(os.path.join(work, f"f{i}.json"), f.to_json_dict())
        gp = _write_json(os.path.join(work, f"g{i}.json"), g.to_json_dict())
        ops.append(
            Op(
                "lemma",
                ["--f", fp, "--g", gp, "--eps", repr(eps), "--T", repr(T), "--grid", "21"],
                os.path.join(work, f"lemma{i}.out.json"),
                f"lemma{i}",
                {"eps": eps, "n": f.nvars},
            )
        )
    for j, (dp, eps, T, grid, mgrid) in enumerate(COUNTEREXAMPLES):
        ops.append(
            Op(
                "counterexample",
                ["--delta-prime", repr(dp), "--eps", repr(eps), "--T", repr(T),
                 "--grid", str(grid), "--measure-grid", str(mgrid)],
                os.path.join(work, f"cx{j}.out.json"),
                f"counterexample{j}",
                {"eps": eps, "threshold": 2.0 * eps / dp},
            )
        )
    return ops


def _zeroset_ops(rng, work: str) -> list[Op]:
    ops = []
    for i, (f, g, T, eps) in enumerate(_cases(rng, ZEROSET_BLOCKS)):
        fp = _write_json(os.path.join(work, f"f{i}.json"), f.to_json_dict())
        gp = _write_json(os.path.join(work, f"g{i}.json"), g.to_json_dict())
        fc, gc = os.path.join(work, f"F{i}.csv"), os.path.join(work, f"G{i}.csv")
        grid = "21" if f.nvars <= 2 else "13"
        common = ["--eps", repr(eps), "--T", repr(T), "--grid", grid]
        meta = {"eps": eps, "n": f.nvars}
        ops.append(Op("contain", ["--f", fp, "--g", gp, *common, "--cloud-csv", fc],
                      os.path.join(work, f"cf{i}.out.json"), f"contain_fg{i}",
                      {**meta, "csv": fc}))
        ops.append(Op("contain", ["--f", gp, "--g", fp, *common, "--cloud-csv", gc],
                      os.path.join(work, f"cg{i}.out.json"), f"contain_gf{i}",
                      {**meta, "csv": gc, "W": fc, "Z": gc}))
        ops.append(Op("variety", ["--f", gp, "--points", fc, "--eps", repr(eps)],
                      os.path.join(work, f"v{i}.out.json"), f"variety{i}",
                      {**meta, "csv": fc}))
        if f.nvars <= 2:
            ops.append(Op("hausdorff", ["--W", fc, "--Z", gc, "--eps", repr(eps)],
                          os.path.join(work, f"h{i}.out.json"), f"hausdorff{i}",
                          {**meta, "W": fc, "Z": gc}))
    return ops


def _spread_roots(rng, n: int) -> np.ndarray:
    """Jittered equally spaced roots near the unit circle (well separated)."""
    theta = 2.0 * np.pi * (np.arange(n) + rng.uniform(-0.2, 0.2, n)) / n
    return rng.uniform(0.9, 1.1, n) * np.exp(1j * theta)


def _from_roots(roots, lead: float) -> UniPoly:
    return UniPoly((lead * np.poly(roots))[::-1])


def _modulus_family(rng) -> list[tuple[str, UniPoly]]:
    """Degree 8-32: well-conditioned ones where every bisection step passes,
    and ones where it is binding (escaping root, near-double pair, cluster,
    scaled Wilkinson-10)."""
    fam = [(f"wellcond{d}", _from_roots(_spread_roots(rng, d), 10.0)) for d in (8, 12, 32)]
    # One root far outside the rest, on the negative real side so that it
    # is the first root the jet lift visits; |far|**16 ~ 1e10 puts its
    # rounding-level residual above the lift's absolute root test.
    far = -rng.uniform(4.2, 4.4) * np.exp(1j * rng.uniform(-0.05, 0.05))
    fam.append(("escape16", _from_roots(np.append(_spread_roots(rng, 15), far), 1.0)))
    r = _spread_roots(rng, 9)
    pair = r[0] + 1e-4 * np.exp(2j * np.pi * rng.random())
    fam.append(("neardouble10", _from_roots(np.append(r, pair), 1.0)))
    r = _spread_roots(rng, 8)
    cluster = r[0] + 1e-3 * np.exp(2j * np.pi * (np.arange(4) / 4 + rng.random()))
    fam.append(("cluster12", _from_roots(np.append(r[1:], cluster), 1.0)))
    fam.append(("wilkinson10", _from_roots(np.arange(1, 11) / 10.0, 1.0)))
    return fam


def _jet_poly(rng, f: UniPoly, order: int) -> JetPoly:
    """f + e * h with a random first-order tail h, as an order-``order`` jet."""
    terms = {}
    for k, a in enumerate(f.coeffs):
        coeffs = np.zeros(order + 1, dtype=np.complex128)
        coeffs[0] = a
        coeffs[1] = JET_TAIL * complex(*rng.normal(size=2))
        terms[(k,)] = Jet(0, coeffs, order)
    return JetPoly(1, terms, order)


def _modulus_ops(rng, work: str) -> list[Op]:
    ops = []
    eps = repr(MODULUS_EPS)
    for name, f in _modulus_family(rng):
        fp = _write_json(os.path.join(work, f"{name}.json"), f.to_json_dict())
        meta = {"eps": MODULUS_EPS, "degree": f.degree}
        ops.append(Op("roots", ["--poly", fp], os.path.join(work, f"{name}.roots.json"),
                      f"roots_{name}", meta))
        ops.append(Op("modulus", ["--f", fp, "--eps", eps, "--trials", str(MODULUS_TRIALS)],
                      os.path.join(work, f"{name}.modulus.json"), f"modulus_{name}", meta))
        for delta in ALIGN_DELTAS:
            for k in range(ALIGN_DRAWS):
                g = random_deformation(f.to_sparse(), delta, seed=int(rng.integers(2**31)))
                tag = f"{name}_{delta:.0e}_{k}"
                gp = _write_json(os.path.join(work, f"{tag}.json"),
                                 UniPoly.from_sparse(g).to_json_dict())
                ops.append(Op("align", ["--f", fp, "--g", gp, "--eps", eps],
                              os.path.join(work, f"{tag}.align.json"), f"align_{tag}", meta))
        jp = _write_json(os.path.join(work, f"{name}.jet.json"),
                         _jet_poly(rng, f, max(JET_ORDERS)).to_json_dict())
        for order in JET_ORDERS:
            ops.append(Op("jet-lift", ["--f", fp, "--g", jp, "--order", str(order)],
                          os.path.join(work, f"{name}.jet{order}.json"),
                          f"jetlift{order}_{name}", meta))
    return ops


_BUILDERS = {"bound": _bound_ops, "zeroset": _zeroset_ops, "modulus": _modulus_ops}


def build(workload: str, seed: int, work: str) -> list[Op]:
    """Write the inputs of ``workload`` at ``seed`` into ``work``; return one pass."""
    rng = np.random.default_rng([seed, list(_BUILDERS).index(workload)])
    return _BUILDERS[workload](rng, work)
