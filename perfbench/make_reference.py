#!/usr/bin/env python3
"""Regenerate perfbench/reference.jsonl: the key numbers of every op.

    python3 perfbench/make_reference.py SEED [SEED ...]

Runs one pass of each workload per seed and stores, per op, the numbers
``checks.key_numbers`` extracts.  Ops whose report fails its own
certificate are not stored; the script exits 1 if there are any.  Run it
only when the benchmark's inputs change, never to absorb a change in the
program's answers.
"""

from __future__ import annotations

import json
import shutil
import sys

from checks import judge
from run import HERE, WORK_DIR, WORKLOADS, execute, load_references, setup


def main(argv: list[str]) -> int:
    seeds = [int(s) for s in argv]
    if not seeds:
        print(__doc__, file=sys.stderr)
        return 1
    refs = load_references()
    bad = 0
    for workload in WORKLOADS:
        for seed in seeds:
            work = WORK_DIR / f"reference-{workload}-s{seed}"
            try:
                _, cli, ops = setup(workload, seed, work)
                keys = {}
                for op in ops:
                    code, exc, err, _ = execute(cli, op, seed)
                    status, why, nums = judge(op, code, exc, err, None)
                    if status == "wrong":
                        print(f"{workload} seed {seed} {op.key}: {why}", file=sys.stderr)
                        bad += 1
                    elif nums is not None:
                        keys[op.key] = nums
            finally:
                shutil.rmtree(work, ignore_errors=True)
            refs.setdefault(workload, {})[str(seed)] = keys
            print(f"{workload} seed {seed}: {len(keys)} of {len(ops)} ops stored")
    with open(HERE / "reference.jsonl", "w", encoding="utf-8") as fh:
        for workload in sorted(refs):
            for seed in sorted(refs[workload], key=int):
                for key, nums in sorted(refs[workload][seed].items()):
                    fh.write(json.dumps([workload, seed, key, nums]) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
