#!/usr/bin/env python3
"""Compare two sets of benchmark results against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds ``result-<workload>-seed<n>-trace0.json`` files as
``run.py`` writes them to ``.perfbench_out/``.  For every workload and
end-to-end metric it prints the median and quartiles of each side and
whether the new median is worse than the base median by more than the
metric's bound.  It refuses (exit 2) to compare results whose backend,
BLAS thread count or machine differ: a silent switch would read as a
regression or a gain.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUST_MATCH = ("backend", "blas", "blas_threads", "nproc", "machine")


def load(directory: str) -> dict:
    runs: dict[str, list[dict]] = {}
    for path in sorted(Path(directory).glob("result-*-trace0.json")):
        data = json.loads(path.read_text())
        runs.setdefault(data["run_record"]["workload"], []).append(data)
    return runs


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    base, new = load(argv[0]), load(argv[1])
    records = {
        tuple(r["run_record"][k] for k in MUST_MATCH)
        for side in (base, new) for rs in side.values() for r in rs
    }
    if len(records) > 1:
        print("refusing to compare: run records differ in " + ", ".join(MUST_MATCH)
              + ": " + "; ".join(map(str, sorted(records))), file=sys.stderr)
        return 2
    bounds = {m["name"]: m["bound"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    worse = 0
    for workload in sorted(base.keys() & new.keys()):
        for metric, bound in bounds.items():
            b = [r["metrics"][metric]["value"] for r in base[workload]]
            n = [r["metrics"][metric]["value"] for r in new[workload]]
            mb, mn = statistics.median(b), statistics.median(n)
            change = mn / mb - 1.0
            verdict = "WORSE" if change > bound else "ok"
            worse += verdict == "WORSE"
            spread = ""
            if len(b) >= 2 and len(n) >= 2:
                qb, qn = statistics.quantiles(b, n=4), statistics.quantiles(n, n=4)
                spread = (f"  base q1-q3 {qb[0]:.4g}-{qb[2]:.4g}"
                          f"  new q1-q3 {qn[0]:.4g}-{qn[2]:.4g}")
            print(f"{workload:8} {metric:12} base {mb:.4g} (n={len(b)})  new {mn:.4g} "
                  f"(n={len(n)})  {change:+.1%} (bound {bound:.0%}) {verdict}{spread}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
