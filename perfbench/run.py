#!/usr/bin/env python3
"""deformkit benchmark: three closed-loop CLI workloads, one process each.

    python3 perfbench/run.py --workload bound|zeroset|modulus|all \
        [--seed N] [--seconds S] [--trace 0|1]

Every op is one in-process ``deformkit.cli.main([...])`` call with ``--seed``
and ``--no-timestamp``; ops run one at a time, in a fixed list per seed (one
"pass").  Passes repeat until ``--seconds`` have elapsed and at least 100
op latencies are in hand.  Every report is checked (see checks.py).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs untraced
passes for half the time and traced passes for the other half, writes the
spans and prints the per-layer metrics (per pass) plus the tracing overhead.
The last stdout line is the JSON result; the run record and the full result
go to ``.perfbench_out/`` in the checkout.  ``--workload all`` runs the
three workloads, each in its own process, and prints them side by side.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

WORKLOADS = ("bound", "zeroset", "modulus")
# Differs from the acceptance suite's SEED (20250802) on purpose.
DEFAULT_SEED = 11
BLAS_THREADS = 1
SETUP_SAMPLES = 9
MIN_SAMPLES = 100
CHILD_TIMEOUT_S = 170

END_TO_END = (
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics, per pass of the op list.  Names are ``<layer>.<function>.
# <field>``; ``_kernels`` is spelled ``kernels`` because a metric name must
# start with a letter.
PER_LAYER = (
    ("kernels.grid_sup_abs.calls", "count"),
    ("kernels.grid_sup_abs.self_s", "s"),
    ("kernels.grid_sup_abs.points", "count"),
    ("kernels.grid_sup_abs.term_points", "count"),
    ("kernels.grid_sup_abs.Mpts_per_s", "Mpts/s"),
    ("kernels.aberth_batch.calls", "count"),
    ("kernels.aberth_batch.rows", "count"),
    ("kernels.aberth_batch.rows_per_call", "rows/call"),
    ("kernels.aberth_batch.sweeps_mean", "sweeps"),
    ("kernels.aberth_batch.unconverged_rows", "count"),
    ("kernels.aberth_batch.self_s", "s"),
    ("roots.find_roots.calls", "count"),
    ("roots.find_roots.self_s", "s"),
    ("roots.solve_batch.self_s", "s"),
    ("roots.cluster_multiplicities.self_s", "s"),
    ("align.bottleneck_match.calls", "count"),
    ("align.bottleneck_match.n_mean", "roots"),
    ("align.bottleneck_match.self_s", "s"),
    ("align.empirical_modulus.self_s", "s"),
    ("align.empirical_modulus.solves", "count"),
    ("jets.hensel_lift_root.calls", "count"),
    ("jets.hensel_lift_root.failed", "count"),
    ("jets.hensel_lift_root.self_s", "s"),
    ("jets.jet_align_roots.self_s", "s"),
    ("varieties.lemma_check.self_s", "s"),
    ("varieties.sample_hypersurface.calls", "count"),
    ("varieties.sample_hypersurface.fibers", "count"),
    ("varieties.sample_hypersurface.points_kept", "count"),
    ("varieties.sample_hypersurface.self_s", "s"),
    ("varieties.eval_at_points.points", "count"),
    ("varieties.eval_at_points.self_s", "s"),
    ("varieties.containment_check.self_s", "s"),
    ("varieties.system_residual.calls", "count"),
    ("varieties.SampleCloud.to_csv.self_s", "s"),
    ("varieties.SampleCloud.from_csv.self_s", "s"),
    ("polynomials.SparsePoly.evaluate.calls", "count"),
    ("polynomials.SparsePoly.evaluate.self_s", "s"),
    ("metrics.hausdorff.calls", "count"),
    ("metrics.hausdorff.pairs", "count"),
    ("metrics.hausdorff.self_s", "s"),
    ("metrics.counterexample_report.witnesses", "count"),
    ("metrics.counterexample_report.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.report_bytes", "B"),
    ("cli.csv_bytes", "B"),
    ("trace.overhead_frac", "frac"),
)
# field -> (numerator, denominator, scale); these are not divided by passes.
RATIOS = {
    "Mpts_per_s": ("points", "self_s", 1e-6),
    "rows_per_call": ("rows", "calls", 1.0),
    "sweeps_mean": ("sweeps", "rows", 1.0),
    "n_mean": ("n", "calls", 1.0),
}
ALIASES = {"failed": "raised"}

# Layers each workload must reach; zero calls means a wrapper was bypassed.
EXPECTED_CALLS = {
    "bound": ("kernels.grid_sup_abs", "varieties.lemma_check",
              "metrics.counterexample_report", "cli.main"),
    "zeroset": ("kernels.aberth_batch", "roots.solve_batch", "varieties.sample_hypersurface",
                "varieties.eval_at_points", "varieties.containment_check",
                "varieties.system_residual", "varieties.SampleCloud.to_csv",
                "varieties.SampleCloud.from_csv", "polynomials.SparsePoly.evaluate",
                "metrics.hausdorff", "cli.main"),
    "modulus": ("kernels.aberth_batch", "roots.find_roots", "roots.solve_batch",
                "roots.cluster_multiplicities", "align.bottleneck_match",
                "align.empirical_modulus", "jets.hensel_lift_root", "jets.jet_align_roots",
                "cli.main"),
}


def load_references() -> dict:
    """{workload: {seed: {op key: key numbers}}} from reference.jsonl."""
    refs: dict = {}
    with open(HERE / "reference.jsonl", "r", encoding="utf-8") as fh:
        for line in fh:
            workload, seed, key, nums = json.loads(line)
            refs.setdefault(workload, {}).setdefault(seed, {})[key] = nums
    return refs


def execute(cli, op, seed: int):
    """Run one op; returns (exit code, exception, stderr text, seconds)."""
    err = io.StringIO()
    exc = None
    code = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main(op.argv(seed))
    except (Exception, SystemExit) as e:  # an escaped exception is a failed op
        exc = e
    dt = time.perf_counter() - t0
    if exc is not None:
        err.write(traceback.format_exc())
    return code, exc, err.getvalue(), dt


def setup(workload: str, seed: int, work: Path):
    """Import the package, write the inputs, run one warm-up op; timed."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import deformkit.cli as cli
    import workloads

    work.mkdir(parents=True)
    ops = workloads.build(workload, seed, str(work))
    execute(cli, ops[0], seed)
    return time.perf_counter() - t0, cli, ops


class Tally:
    """Outcomes and output sizes of the measured ops."""

    def __init__(self, refs: dict | None):
        self.refs = refs
        self.attempted = 0
        self.status = {"ok": 0, "expected": 0, "wrong": 0, "failed": 0}
        self.ledger: dict[str, int] = {}
        self.unexplained: list[str] = []
        self.wrong: list[str] = []
        self.report_bytes = 0
        self.csv_bytes = 0
        self.cloud_points: dict[str, int] = {}

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        for key, v in other.status.items():
            self.status[key] += v
        for key, v in other.ledger.items():
            self.ledger[key] = self.ledger.get(key, 0) + v
        self.unexplained += other.unexplained
        self.wrong += other.wrong

    def record(self, op, code, exc, stderr):
        from checks import judge

        ref = self.refs.get(op.key) if self.refs is not None else None
        status, why, nums = judge(op, code, exc, stderr, ref)
        self.attempted += 1
        self.status[status] += 1
        if status in ("failed", "expected"):
            name = why or "unexplained"
            self.ledger[name] = self.ledger.get(name, 0) + 1
            if why is None and len(self.unexplained) < 20:
                tail = stderr.strip().splitlines()[-1:] or [repr(exc)]
                self.unexplained.append(f"{op.key}: exit {code}: {tail[0][:300]}")
        elif status == "wrong" and len(self.wrong) < 20:
            self.wrong.append(f"{op.key}: {why}")
        if code == 0:
            self.report_bytes += os.path.getsize(op.out)
            if op.kind == "contain":
                self.csv_bytes += os.path.getsize(op.expect["csv"])
                self.cloud_points[op.expect["csv"]] = nums[1]


def run_passes(cli, ops, seed, budget_s, min_samples, tally, tracer=None):
    """Closed loop over whole passes; returns each pass's op latencies."""
    passes = []
    start = time.perf_counter()
    while True:
        lat = []
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = len(passes) * len(ops) + i
            code, exc, err, dt = execute(cli, op, seed)
            lat.append(dt)
            tally.record(op, code, exc, err)
        passes.append(lat)
        # Every pass starts with no outputs on disk.  Overwriting last pass's
        # files made the file system flush them during the next ops (later
        # passes ran 4x slower on ext4); unlinked files are not written back.
        for op in ops:
            for path in op.outputs():
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(path)
        done = sum(len(p) for p in passes)
        if time.perf_counter() - start >= budget_s and done >= min_samples:
            return passes


def setup_samples(workload: str, seed: int, first: float) -> list[float]:
    """The in-process set-up plus SETUP_SAMPLES - 1 set-ups in fresh processes."""
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--setup-probe"]
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                             check=True)
        samples.append(float(res.stdout.strip().splitlines()[-1]))
    return samples


def run_record(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy as np

    import deformkit

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "backend": deformkit.BACKEND,
        "deformkit": deformkit.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": openblas,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def hausdorff_pairs(ops, points: dict[str, int]) -> dict:
    """|W| * |Z| of every zeroset case, with the n = 3 ones listed, not run.

    ``hausdorff`` holds a block of min(16384, |A|) x |B| x n complex values
    for each direction A -> B; the largest block of an n = 3 case says why
    those pairs are not run.
    """
    run, listed, block = [], [], 0
    for op in ops:
        if op.kind == "contain" and "W" in op.expect:
            w, z = points.get(op.expect["W"], 0), points.get(op.expect["Z"], 0)
            if op.expect["n"] == 3:
                listed.append(w * z)
                block = max(block, 3 * 16 * max(min(16384, w) * z, min(16384, z) * w))
            else:
                run.append(w * z)
    return {"run_max_pairs": max(run, default=0), "n3_pairs_not_run": listed,
            "n3_max_block_bytes": block}


def layer_metrics(summary: dict, passes: int, tally: Tally, overhead: float) -> dict:
    extras = {
        "cli.report_bytes": tally.report_bytes,
        "cli.csv_bytes": tally.csv_bytes,
    }
    out = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_frac":
            value = overhead
        elif name in extras:
            value = extras[name] / passes
        else:
            target, field = name.rsplit(".", 1)
            s = summary[target]
            if field in RATIOS:
                num, den, scale = RATIOS[field]
                value = s.get(num, 0) * scale / s[den] if s.get(den) else 0.0
            else:
                value = s.get(ALIASES.get(field, field), 0) / passes
        out[name] = {"value": value, "unit": unit}
    return out


def print_table(title: str, rows: list[tuple[str, str, str]]) -> None:
    print(title)
    for name, value, note in rows:
        print(f"  {name:<44} {value:>16}  {note}")


def end_to_end(args, cli, ops, first_setup: float, tally: Tally, result: dict):
    """Untraced passes; returns the end-to-end metrics and their table rows.

    Each figure is a median over passes (a pass's p90 has at least 10 of its
    >= 100 latencies above it), so a burst of load on a shared machine that
    hits one pass moves it less than pooled samples would.
    """
    passes = run_passes(cli, ops, args.seed, args.seconds, MIN_SAMPLES, tally)
    # After the passes, so the set-up processes' file churn cannot overlap them.
    setups = setup_samples(args.workload, args.seed, first_setup)
    values = {
        "wall_s": statistics.median(sum(p) for p in passes),
        "op_p50_ms": 1e3 * statistics.median(statistics.median(p) for p in passes),
        "op_p90_ms": 1e3 * statistics.median(statistics.quantiles(p, n=10)[-1] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    per_pass = f"median over {len(passes)} passes of {len(ops)} ops"
    failed, wrong, attempted = tally.status["failed"], tally.status["wrong"], tally.attempted
    rows = [
        ("wall_s", f"{values['wall_s']:.4f} s", per_pass),
        ("op_p50_ms", f"{values['op_p50_ms']:.4f} ms", f"n={len(ops)} per pass, {per_pass}"),
        ("op_p90_ms", f"{values['op_p90_ms']:.4f} ms",
         f"n={len(ops)} per pass, >= {len(ops) // 10} above, {per_pass}"),
        ("failed_frac", f"{failed / attempted:.4f}", f"{failed}/{attempted} ops"),
        ("wrong_frac", f"{wrong / attempted:.4f}", f"{wrong}/{attempted} ops"),
        ("setup_s", f"{values['setup_s']:.4f} s", f"median of {len(setups)} set-ups"),
        ("peak_rss_mb", f"{values['peak_rss_mb']:.1f} MB", "ru_maxrss"),
    ]
    result.update(pass_latencies_s=passes, setup_samples_s=setups)
    return metrics, rows


def traced(args, cli, ops, tally: Tally, result: dict):
    """Untraced then traced passes; returns the per-layer metrics and rows."""
    from tracer import Tracer

    half = args.seconds / 2.0
    plain = [sum(p) for p in run_passes(cli, ops, args.seed, half, 0, tally)]
    tracer = Tracer()
    tracer.install()
    traced_tally = Tally(tally.refs)
    try:
        passes = [sum(p) for p in
                  run_passes(cli, ops, args.seed, half, 0, traced_tally, tracer)]
    finally:
        tracer.uninstall()
    tally.merge(traced_tally)
    overhead = statistics.median(passes) / statistics.median(plain) - 1.0
    summary = tracer.summary()
    metrics = layer_metrics(summary, len(passes), traced_tally, overhead)
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write(str(spans_path))
    missing = [t for t in EXPECTED_CALLS[args.workload] if summary[t]["calls"] == 0]
    if missing:
        raise RuntimeError("traced run recorded no calls for " + ", ".join(missing))
    result.update(plain_passes_s=plain, traced_passes_s=passes, spans=len(tracer.spans),
                  spans_file=spans_path.name, binding_sites=tracer.sites)
    return metrics, [(k, f"{v['value']:.6g}", v["unit"]) for k, v in metrics.items()]


def measure(args) -> int:
    work = WORK_DIR / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    OUT_DIR.mkdir(exist_ok=True)
    try:
        first, cli, ops = setup(args.workload, args.seed, work)
        refs = load_references().get(args.workload, {}).get(str(args.seed))
        record = run_record(args.workload, args.seed, args.seconds, args.trace)
        tally = Tally(refs)
        result = {"run_record": record, "ops_per_pass": len(ops)}
        if args.trace:
            try:
                metrics, rows = traced(args, cli, ops, tally, result)
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 3
        else:
            metrics, rows = end_to_end(args, cli, ops, first, tally, result)
        if args.workload == "zeroset":
            result["hausdorff_pairs"] = hausdorff_pairs(ops, tally.cloud_points)
        result.update(
            metrics=metrics,
            outcomes=dict(tally.status, attempted=tally.attempted),
            ledger=tally.ledger,
            unexplained=tally.unexplained,
            wrong=tally.wrong,
            reference=(f"compared with seed {args.seed}" if refs is not None
                       else "none stored for this seed; certificate checks only"),
        )
        (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(result, indent=1) + "\n")
        print_table(f"workload {args.workload}  seed {args.seed}  trace {args.trace}", rows)
        print(f"  ledger: {json.dumps(tally.ledger)}")
        if args.workload == "zeroset":
            hp = result["hausdorff_pairs"]
            print(f"  hausdorff pairs: max run {hp['run_max_pairs']}; n=3 not run: "
                  f"max {max(hp['n3_pairs_not_run'], default=0)} pairs, "
                  f"{hp['n3_max_block_bytes'] / 2**30:.2f} GiB block")
        for line in tally.unexplained + tally.wrong:
            print(f"  ! {line}")
        print(f"  reference: {result['reference']}")
        print("  run record: " + json.dumps(record))
        print(json.dumps({
            "correct": tally.status["wrong"] == 0,
            "attempted": tally.attempted,
            "failed": tally.status["failed"],
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def probe(args) -> int:
    work = WORK_DIR / f"{args.workload}-s{args.seed}-probe{os.getpid()}"
    try:
        elapsed, _, _ = setup(args.workload, args.seed, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(repr(elapsed))
    return 0


def run_all(args) -> int:
    results = {}
    for w in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=15 * CHILD_TIMEOUT_S)
        sys.stdout.write("".join(res.stdout.splitlines(keepends=True)[:-1]))
        sys.stderr.write(res.stderr)
        if res.returncode != 0:
            print(f"error: workload {w} exited {res.returncode}", file=sys.stderr)
            return res.returncode
        results[w] = json.loads(res.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    # Fixed BLAS threads, set before NumPy loads; inherited by child processes.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "deformkit" / "__init__.py").is_file():
        print(f"error: no deformkit sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return probe(args)
    if args.workload == "all":
        return run_all(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
