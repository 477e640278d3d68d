"""Command-line front end: parse polynomial/jet files, run the experiment
suites, emit JSON reports and CSV point clouds.

Exit codes: 0 success, 1 bad input, 2 numeric failure.  Every report embeds
the echoed configuration and the library version; with a fixed seed and
``--no-timestamp`` reruns are byte-identical.  The default seed is the
documented constant 1729, overridable by the ``DEFORMKIT_SEED`` environment
variable and then by ``--seed``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__
from ._kernels import BACKEND
from .align import bottleneck_match, empirical_modulus, is_eps_aligned
from .jets import (
    Jet,
    JetPoly,
    MultipleRootError,
    _check_order,
    hensel_lift_root,
    jet_align_roots,
)
from .metrics import (
    counterexample_report,
    hausdorff,
    is_eps_set_deformation,
    point_set_distance,
    sup_norm_dist,
)
from .polynomials import PolySystem, SparsePoly, _json_cnum, _require_positive
from .roots import (
    CLUSTER_RADIUS,
    RootConvergenceError,
    UniPoly,
    _certify_row,
    cluster_multiplicities,
    find_roots,
    solve_batch,
)
from .varieties import (
    SampleCloud,
    _sampling_grid,
    containment_check,
    delta_bound,
    lemma_check,
    sample_hypersurface,
    system_residual,
    v_eps_member,
    variety_jet_check,
)

DEFAULT_SEED = 1729

_INPUT_ERRORS = (ValueError, KeyError, TypeError, OSError)
_NUMERIC_ERRORS = (RootConvergenceError, ArithmeticError)


def _load(cls, path: str):
    """A ``cls`` (``SparsePoly``, ``UniPoly`` or ``JetPoly``) from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return cls.from_json_dict(json.load(fh))


def _load_cloud(path: str) -> SampleCloud:
    with open(path, "r", encoding="utf-8") as fh:
        return SampleCloud.from_csv(fh.read(), label=os.path.basename(path))


def _json_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _require(args, *names: str) -> None:
    missing = [n for n in names if getattr(args, n.replace("-", "_"), None) is None]
    if missing:
        raise ValueError("missing required option(s): " + ", ".join(f"--{n}" for n in missing))


def _require_finite(args) -> None:
    """Reject a NaN or an infinity in any float option (``--eps``, ``--T``, ...),
    and an ``--eps`` that is not positive."""
    for name, value in sorted(vars(args).items()):
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"--{name.replace('_', '-')} must be finite, got {value}")
    if getattr(args, "eps", None) is not None:
        _require_positive("eps", args.eps)


def _emit(args, result: dict) -> None:
    config = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "command", "out", "json_errors", "selftest")
        and v is not None
    }
    report = {
        "tool": "deformkit",
        "version": __version__,
        "backend": BACKEND,
        "command": args.command,
        "config": config,
        "result": result,
    }
    if not args.no_timestamp:
        report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    # Strict JSON: a NaN or an infinity in the report raises ValueError.
    text = json.dumps(report, indent=2, default=_json_default, allow_nan=False) + "\n"
    if args.out:
        _write_atomic(args.out, text)
    else:
        sys.stdout.write(text)


# -- subcommand handlers -------------------------------------------------------


def cmd_roots(args) -> dict:
    _require(args, "poly")
    poly = _load(UniPoly, args.poly)
    found = find_roots(poly, args.tol)
    clustered = cluster_multiplicities(found, args.cluster_radius)
    return {
        "degree": poly.degree,
        "residual_bound": found.residual_bound,
        "roots": [{"value": _json_cnum(v), "multiplicity": m} for v, m in clustered.roots],
    }


def cmd_align(args) -> dict:
    _require(args, "f", "g")
    f = _load(UniPoly, args.f)
    _require_positive("tol", args.tol)
    g = _load(UniPoly, args.g)
    if f.degree != g.degree:
        raise ValueError(f"size mismatch: {f.degree} vs {g.degree}")
    # f and g in one batch; each row equals its one-row ``find_roots`` solve.
    roots, res, converged = solve_batch(np.stack([f.coeffs, g.coeffs]), args.tol)
    rf = _certify_row(f, roots[0], res[0], converged[0])
    rg = _certify_row(g, roots[1], res[1], converged[1])
    match = bottleneck_match(rf, rg)
    out = match.to_json_dict()
    if args.eps is not None:
        out["eps"] = args.eps
        out["aligned"] = match.bottleneck < args.eps
    return out


def cmd_modulus(args) -> dict:
    _require(args, "f")
    f = _load(UniPoly, args.f)
    delta = empirical_modulus(f, args.eps, trials=args.trials, seed=args.seed)
    return {"eps": args.eps, "trials": args.trials, "delta": delta}


def cmd_jet_lift(args) -> dict:
    _require(args, "f", "g")
    f = _load(UniPoly, args.f)
    g = _load(JetPoly, args.g)
    alignment = jet_align_roots(f, g, order=args.order)
    return alignment.to_json_dict()


def cmd_lemma(args) -> dict:
    _require(args, "f", "g")
    f, g = _load(SparsePoly, args.f), _load(SparsePoly, args.g)
    report = lemma_check(f, g, T=args.T, eps=args.eps, grid=args.grid)
    return report.to_json_dict()


def cmd_contain(args) -> dict:
    _require(args, "f", "g")
    f, g = _load(SparsePoly, args.f), _load(SparsePoly, args.g)
    report = containment_check(
        f, g, T=args.T, eps=args.eps, grid=args.grid, tol=args.tol, axis=args.axis
    )
    if args.cloud_csv:
        _write_atomic(args.cloud_csv, report.cloud.to_csv())
    return report.to_json_dict()


def cmd_variety(args) -> dict:
    _require(args, "f")
    system = PolySystem([_load(SparsePoly, p) for p in args.f])
    if args.points:
        # Unused with a given cloud, but echoed in the report all the same.
        _sampling_grid(system.nvars, args.T, args.axis, args.grid, args.tol)
        cloud = _load_cloud(args.points)
    else:
        cloud = sample_hypersurface(system.polys[0], args.T, args.axis, args.grid, args.tol)
    if args.order is not None:
        _check_order(args.order)
    if args.g:
        jets = [_load(JetPoly, p) for p in args.g]
        report = variety_jet_check(system, jets, cloud, order=args.order, tol=args.tol)
        return report.to_json_dict()
    arr = system_residual(system, cloud.points)
    out = {
        "points": len(cloud),
        "max_residual": float(arr.max()) if arr.size else 0.0,
        "min_residual": float(arr.min()) if arr.size else 0.0,
    }
    if args.eps is not None:
        out["eps"] = args.eps
        out["members"] = int((arr < args.eps).sum())
    return out


def cmd_hausdorff(args) -> dict:
    _require(args, "W", "Z")
    W, Z = _load_cloud(args.W), _load_cloud(args.Z)
    d = hausdorff(W, Z)
    out = {"hausdorff": d, "W_points": len(W), "Z_points": len(Z)}
    if args.eps is not None:
        out["eps"] = args.eps
        out["is_eps_deformation"] = d < args.eps
    return out


def cmd_counterexample(args) -> dict:
    report = counterexample_report(
        delta_prime=args.delta_prime,
        eps=args.eps,
        T=args.T,
        grid=args.grid,
        measure_grid=args.measure_grid,
    )
    return report.to_json_dict()


# -- self tests ------------------------------------------------------------------


def _close(a: complex, b: complex, tol: float = 1e-9) -> bool:
    return abs(complex(a) - complex(b)) <= tol


def _selftest_roots() -> list[tuple[str, bool]]:
    r1 = sorted(z.real for z in find_roots(UniPoly([-1, 0, 1])).values())
    r2 = sorted(z.imag for z in find_roots(UniPoly([1, 0, 1])).values())
    kept = cluster_multiplicities(find_roots(UniPoly([-1, 0, 1])), 1e-4)
    return [
        ("square roots of unity", _close(r1[0], -1) and _close(r1[1], 1)),
        ("roots of t^2+1", _close(r2[0], -1) and _close(r2[1], 1)),
        ("well-separated roots uncollapsed", len(kept.roots) == 2),
    ]


def _selftest_align() -> list[tuple[str, bool]]:
    a = [0, 1]
    return [
        ("self bottleneck is zero", bottleneck_match(a, a).bottleneck == 0.0),
        ("self alignment", is_eps_aligned(a, a, 1e-9)),
    ]


def _selftest_modulus() -> list[tuple[str, bool]]:
    try:
        empirical_modulus(UniPoly([-1, 0, 1]), 0.01, trials=0)
        rejected = False
    except ValueError:
        rejected = True
    return [("zero trials rejected", rejected)]


def _selftest_jet_lift() -> list[tuple[str, bool]]:
    a = 2.5 + 0.5j
    f = UniPoly([-a, 1])
    g = JetPoly(1, {(1,): Jet.constant(1), (0,): Jet.constant(-a) - Jet.eps()})
    w = hensel_lift_root(f, a, g)
    linear = _close(w.coeff(0), a) and _close(w.coeff(1), 1.0)
    try:
        dbl = UniPoly([1, -2, 1])
        gd = JetPoly(1, {(2,): Jet.constant(1), (1,): Jet.constant(-2), (0,): Jet.constant(1)})
        hensel_lift_root(dbl, 1.0, gd)
        flagged = False
    except MultipleRootError:
        flagged = True
    pair = jet_align_roots(
        UniPoly([0, 1]), JetPoly(1, {(1,): Jet.constant(1), (0,): -Jet.eps()})
    )
    return [
        ("linear lift", linear),
        ("double root flagged", flagged),
        (
            "t vs t-eps pairing",
            len(pair.pairs) == 1
            and _close(pair.pairs[0][0], 0)
            and _close(pair.pairs[0][1].coeff(1), 1.0),
        ),
    ]


def _selftest_lemma() -> list[tuple[str, bool]]:
    f = SparsePoly(2, {(1, 1): 1.0, (0, 0): -1.0})
    rep = lemma_check(f, f, T=1, eps=0.1, grid=9)
    return [
        ("identical pair has zero deviation", rep.sup_deviation == 0.0 and rep.passed),
        ("bound formula", abs(delta_bound(0.3, 1, 2, 3) - 0.1) < 1e-15),
        ("constant bound", delta_bound(0.5, 1, 0, 1) == 0.5),
    ]


def _selftest_contain() -> list[tuple[str, bool]]:
    f = SparsePoly(2, {(1, 0): 1.0, (0, 1): -1.0})
    rep = containment_check(f, f, T=1, eps=0.1, grid=9)
    hyp = SparsePoly(2, {(1, 1): 1.0, (0, 0): -1.0})
    return [
        ("identical pair has no violations", rep.violations == 0),
        ("exact zero is a member", v_eps_member(hyp, (1, 1), 1e-9)),
        ("distant point is not", not v_eps_member(hyp, (0, 0), 0.5)),
    ]


def _selftest_variety() -> list[tuple[str, bool]]:
    F = PolySystem(
        [
            SparsePoly(2, {(1, 0): 1.0, (0, 1): -1.0}),
            SparsePoly(2, {(1, 0): 1.0, (0, 1): 1.0}),
        ]
    )
    ok0 = system_residual(F, (0, 0)) == 0.0
    single = PolySystem([SparsePoly(1, {(1,): 1.0})])
    ok1 = system_residual(single, (3 + 4j,)) == 5.0
    f = SparsePoly(2, {(1, 0): 1.0, (0, 1): -1.0})
    cloud = SampleCloud(np.array([[0.5, 0.5], [1j, 1j]]), label="diag")
    rep = variety_jet_check(f, JetPoly.from_sparse(f), cloud)
    return [
        ("common zero has zero residual", ok0),
        ("singleton system is plain modulus", ok1),
        ("constant jets pass trivially", rep.passed),
    ]


def _selftest_hausdorff() -> list[tuple[str, bool]]:
    W = SampleCloud(np.array([[0.0 + 0j, 0.0 + 0j]]))
    Z = SampleCloud(np.array([[1.0 + 0j, 2.0 + 0j]]))
    return [
        ("self distance zero", hausdorff(W, W) == 0.0),
        ("singleton distance", hausdorff(W, Z) == 2.0),
        ("strictness at the boundary", not is_eps_set_deformation(W, Z, 2.0)),
        ("sup-norm coordinates", sup_norm_dist((0, 0), (1, 2)) == 2.0),
    ]


def _selftest_counterexample() -> list[tuple[str, bool]]:
    diag = SampleCloud(np.array([[z + 0j, z + 0j] for z in np.linspace(-2, 2, 41)]))
    return [
        ("lines meet at the origin", point_set_distance((0, 0), diag) == 0.0),
    ]


_SELFTESTS = {
    "roots": _selftest_roots,
    "align": _selftest_align,
    "modulus": _selftest_modulus,
    "jet-lift": _selftest_jet_lift,
    "lemma": _selftest_lemma,
    "contain": _selftest_contain,
    "variety": _selftest_variety,
    "hausdorff": _selftest_hausdorff,
    "counterexample": _selftest_counterexample,
}


# -- parser ---------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises ``ValueError`` on a malformed command line: bad input, exit 1.

    Flags must be spelled in full (``--json-errors`` is looked up verbatim)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ValueError(message)


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--out", help="write the JSON report here (atomic)")
    sp.add_argument("--seed", type=int, default=None, help="deterministic seed")
    sp.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit the timestamp (byte-identical reruns)",
    )
    sp.add_argument(
        "--json-errors",
        action="store_true",
        help="emit machine-parsable JSON on stderr for errors",
    )
    sp.add_argument(
        "--selftest",
        action="store_true",
        help="run this subcommand's built-in examples and exit",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="deformkit",
        description="Deformation experiments on polynomial roots and zero sets",
    )
    parser.add_argument("--version", action="version", version=f"deformkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("roots", help="find and cluster all roots")
    sp.add_argument("--poly", required=False, help="polynomial JSON (nvars=1)")
    sp.add_argument("--tol", type=float, default=1e-12)
    sp.add_argument("--cluster-radius", type=float, default=CLUSTER_RADIUS)
    _add_common(sp)
    sp.set_defaults(func=cmd_roots)

    sp = sub.add_parser("align", help="bottleneck-match the roots of two polynomials")
    sp.add_argument("--f", required=False)
    sp.add_argument("--g", required=False)
    sp.add_argument("--eps", type=float, default=None)
    sp.add_argument("--tol", type=float, default=1e-12)
    _add_common(sp)
    sp.set_defaults(func=cmd_align)

    sp = sub.add_parser("modulus", help="estimate the largest eps-preserving delta")
    sp.add_argument("--f", required=False)
    sp.add_argument("--eps", type=float, default=0.01)
    sp.add_argument("--trials", type=int, default=20)
    _add_common(sp)
    sp.set_defaults(func=cmd_modulus)

    sp = sub.add_parser("jet-lift", help="lift simple roots to jet roots")
    sp.add_argument("--f", required=False)
    sp.add_argument("--g", required=False, help="jet polynomial JSON")
    sp.add_argument("--order", type=int, default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_jet_lift)

    sp = sub.add_parser("lemma", help="sup |g-f| on the gridded hypercube")
    sp.add_argument("--f", required=False)
    sp.add_argument("--g", required=False)
    sp.add_argument("--eps", type=float, default=0.1)
    sp.add_argument("--T", type=float, default=1.0)
    sp.add_argument("--grid", type=int, default=21)
    _add_common(sp)
    sp.set_defaults(func=cmd_lemma)

    sp = sub.add_parser("contain", help="zero-set containment in the eps-sublevel set")
    sp.add_argument("--f", required=False)
    sp.add_argument("--g", required=False)
    sp.add_argument("--eps", type=float, default=0.1)
    sp.add_argument("--T", type=float, default=1.0)
    sp.add_argument("--grid", type=int, default=21)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--axis", type=int, default=None)
    sp.add_argument("--cloud-csv", help="also export the sampled cloud as CSV")
    _add_common(sp)
    sp.set_defaults(func=cmd_contain)

    sp = sub.add_parser("variety", help="system residual sweeps and jet-witness checks")
    sp.add_argument("--f", nargs="+", required=False, help="system polynomial JSONs")
    sp.add_argument("--g", nargs="+", default=None, help="jet polynomial JSONs")
    sp.add_argument("--points", help="sample cloud CSV; sampled from --f if absent")
    sp.add_argument("--eps", type=float, default=None)
    sp.add_argument("--T", type=float, default=1.0)
    sp.add_argument("--grid", type=int, default=11)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--axis", type=int, default=None)
    sp.add_argument("--order", type=int, default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_variety)

    sp = sub.add_parser("hausdorff", help="Hausdorff distance between two clouds")
    sp.add_argument("--W", required=False)
    sp.add_argument("--Z", required=False)
    sp.add_argument("--eps", type=float, default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_hausdorff)

    sp = sub.add_parser("counterexample", help="tilted-line escape certificate")
    sp.add_argument("--delta-prime", type=float, default=0.1, dest="delta_prime")
    sp.add_argument("--eps", type=float, default=0.5)
    sp.add_argument("--T", type=float, default=12.0)
    sp.add_argument("--grid", type=int, default=25)
    sp.add_argument("--measure-grid", type=int, default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_counterexample)

    return parser


def _env_seed() -> int:
    """``DEFORMKIT_SEED`` if set, else ``DEFAULT_SEED``."""
    env = os.environ.get("DEFORMKIT_SEED") or str(DEFAULT_SEED)
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"DEFORMKIT_SEED must be an integer, got {env!r}") from None


def _report_error(args, code: int, exc: BaseException) -> int:
    if getattr(args, "json_errors", False):
        payload = {"error": {"type": type(exc).__name__, "message": str(exc), "code": code}}
        print(json.dumps(payload), file=sys.stderr)
    else:
        print(f"deformkit: error: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
    except ValueError as exc:
        return _report_error(argparse.Namespace(json_errors="--json-errors" in argv), 1, exc)

    if args.selftest:
        checks = _SELFTESTS[args.command]()
        for name, ok in checks:
            print(f"{'PASS' if ok else 'FAIL'}: {args.command}: {name}")
        return 0 if all(ok for _, ok in checks) else 2

    try:
        if args.seed is None:
            args.seed = _env_seed()
        _require_finite(args)
        result = args.func(args)
    except _NUMERIC_ERRORS as exc:
        return _report_error(args, 2, exc)
    except _INPUT_ERRORS as exc:
        return _report_error(args, 1, exc)

    try:
        _emit(args, result)
    except ValueError as exc:
        return _report_error(args, 2, exc)
    except OSError as exc:
        return _report_error(args, 1, exc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
