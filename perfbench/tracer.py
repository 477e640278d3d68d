"""Span tracer that wraps deformkit's public functions from outside.

Each target is replaced in every loaded ``deformkit`` module that bound it
by name (``from .roots import find_roots`` makes a second binding in
``align``, ``jets`` and ``cli``), so no call escapes the wrapper.  A span
records (name, start, end, parent span, op id, raised); counts are taken
from arguments and return values at the same boundary.  Spans stay in
memory until ``write`` is called.  Self time is a span's duration minus the
durations of its child spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict


def _prod(sizes) -> int:
    out = 1
    for s in sizes:
        out *= int(s)
    return out


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_grid(c, args, kwargs, out):
    points = _prod(len(a) for a in _arg(args, kwargs, 2, "axes"))
    c["points"] += points
    c["term_points"] += points * len(_arg(args, kwargs, 1, "coeffs"))


def _count_aberth(c, args, kwargs, out):
    _, sweeps, converged = out
    c["rows"] += len(sweeps)
    c["sweeps"] += int(sweeps.sum())
    c["unconverged_rows"] += int((~converged).sum())


def _count_match(c, args, kwargs, out):
    c["n"] += len(out.perm)


def _count_sample(c, args, kwargs, out):
    c["fibers"] += out.meta["fibers_total"]
    c["points_kept"] += out.meta["points_kept"]


def _count_eval(c, args, kwargs, out):
    c["points"] += len(_arg(args, kwargs, 1, "points"))


def _count_hausdorff(c, args, kwargs, out):
    c["pairs"] += len(_arg(args, kwargs, 0, "W")) * len(_arg(args, kwargs, 1, "Z"))


def _count_witnesses(c, args, kwargs, out):
    c["witnesses"] += len(out.witnesses)


# (layer, defining module, attribute path, count hook)
TARGETS = (
    ("kernels", "deformkit._kernels", "grid_sup_abs", _count_grid),
    ("kernels", "deformkit._kernels", "aberth_batch", _count_aberth),
    ("roots", "deformkit.roots", "find_roots", None),
    ("roots", "deformkit.roots", "solve_batch", None),
    ("roots", "deformkit.roots", "cluster_multiplicities", None),
    ("align", "deformkit.align", "bottleneck_match", _count_match),
    ("align", "deformkit.align", "empirical_modulus", None),
    ("jets", "deformkit.jets", "hensel_lift_root", None),
    ("jets", "deformkit.jets", "jet_align_roots", None),
    ("varieties", "deformkit.varieties", "lemma_check", None),
    ("varieties", "deformkit.varieties", "sample_hypersurface", _count_sample),
    ("varieties", "deformkit.varieties", "eval_at_points", _count_eval),
    ("varieties", "deformkit.varieties", "containment_check", None),
    ("varieties", "deformkit.varieties", "system_residual", None),
    ("varieties", "deformkit.varieties", "SampleCloud.to_csv", None),
    ("varieties", "deformkit.varieties", "SampleCloud.from_csv", None),
    ("polynomials", "deformkit.polynomials", "SparsePoly.evaluate", None),
    ("metrics", "deformkit.metrics", "hausdorff", _count_hausdorff),
    ("metrics", "deformkit.metrics", "counterexample_report", _count_witnesses),
    ("cli", "deformkit.cli", "main", None),
)

# Binding sites that must be wrapped, or calls through them would be missed.
REQUIRED_SITES = (
    "deformkit.align.find_roots",
    "deformkit.jets.find_roots",
    "deformkit.cli.find_roots",
    "deformkit.varieties.solve_batch",
    "deformkit.cli.bottleneck_match",
    "deformkit.cli.empirical_modulus",
    "deformkit.cli.jet_align_roots",
    "deformkit.cli.hensel_lift_root",
    "deformkit.cli.cluster_multiplicities",
    "deformkit.cli.lemma_check",
    "deformkit.cli.containment_check",
    "deformkit.cli.sample_hypersurface",
    "deformkit.cli.system_residual",
    "deformkit.cli.hausdorff",
    "deformkit.cli.counterexample_report",
)


class Tracer:
    """Spans and counts of one traced run; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self):
        self.names: list[str] = [f"{layer}.{attr}" for layer, _, attr, _ in TARGETS]
        self.spans: list[tuple] = []
        self.counts: dict[str, defaultdict] = {n: defaultdict(int) for n in self.names}
        self.op_id = -1
        self.sites: dict[str, list[str]] = {}
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name_id: int, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts[self.names[name_id]]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            raised = True
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                raised = False
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name_id, t0, t1, parent, self.op_id, raised)
            if hook is not None:
                hook(counts, args, kwargs, out)
            return out

        return wrapper

    def install(self) -> None:
        modules = {k: m for k, m in sys.modules.items() if k.startswith("deformkit") and m}
        for name_id, (_, modname, attr, hook) in enumerate(TARGETS):
            owner = modules[modname]
            sites = []
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name_id, raw.__func__, hook))
                else:
                    new = self._wrap(name_id, raw, hook)
                self._undo.append((cls, meth, raw))
                setattr(cls, meth, new)
                sites.append(f"{modname}.{attr}")
            else:
                orig = getattr(owner, attr)
                new = self._wrap(name_id, orig, hook)
                for key, mod in modules.items():
                    for bound, value in list(vars(mod).items()):
                        if value is orig:
                            self._undo.append((mod, bound, orig))
                            setattr(mod, bound, new)
                            sites.append(f"{key}.{bound}")
            self.sites[self.names[name_id]] = sites
        wrapped = {s for sites in self.sites.values() for s in sites}
        missing = [s for s in REQUIRED_SITES if s not in wrapped]
        if missing:
            self.uninstall()
            raise RuntimeError("tracer missed binding sites: " + ", ".join(missing))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    def summary(self) -> dict[str, dict]:
        """Per target: calls, raised, total and self seconds, counts, and the
        number of find_roots calls made under empirical_modulus."""
        n = len(self.spans)
        child = [0.0] * n
        for name_id, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {
            name: {"calls": 0, "raised": 0, "total_s": 0.0, "self_s": 0.0, **self.counts[name]}
            for name in self.names
        }
        modulus_id = self.names.index("align.empirical_modulus")
        find_id = self.names.index("roots.find_roots")
        solves = 0
        for i, (name_id, t0, t1, parent, _, raised) in enumerate(self.spans):
            s = out[self.names[name_id]]
            s["calls"] += 1
            s["raised"] += raised
            s["total_s"] += t1 - t0
            s["self_s"] += t1 - t0 - child[i]
            if name_id == find_id:
                p = parent
                while p >= 0 and self.spans[p][0] != modulus_id:
                    p = self.spans[p][3]
                solves += p >= 0
        out["align.empirical_modulus"]["solves"] = solves
        return out

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            header = {"names": self.names, "sites": self.sites,
                      "fields": ["name", "start", "end", "parent", "op", "raised"]}
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
