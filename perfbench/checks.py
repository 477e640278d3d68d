"""Correctness gates, reference comparison and the defect ledger.

``judge`` turns one executed op into an outcome:

- ``ok``: exit 0 and the report passes its own certificate and, when the
  seed has stored references, matches them within float tolerances;
- ``expected``: a documented refusal (``hausdorff`` on an empty cloud);
- ``wrong``: exit 0 but the report fails its check;
- ``failed``: an exception or an unexpected non-zero exit, tagged with the
  ledger entry that explains it, or ``None`` when nothing does.
"""

from __future__ import annotations

import json
import math

# Known defects that make an op fail, by their name in the defect ledger of
# NOTES.md: (subcommand, exit code, text on stderr).
FAILURE_LEDGER = {
    "hensel-root-check": ("jet-lift", 1, "is not a root of the base polynomial"),
    "hensel-lift-residual": ("jet-lift", 2, "lift residual"),
}

# Float tolerances for reference comparison, relative (with an absolute floor).
# Values that only evaluate polynomials get a tight one; values that go
# through root finding get a looser one, so reordered summation in a solver
# is not reported as a wrong answer.
EVAL_RTOL = 1e-9
ROOT_RTOL = 1e-5
ALIGN_RTOL = 1e-3
ABS_FLOOR = 1e-12
COUNT_SLACK = 1e-3


def csv_rows(path: str) -> int:
    with open(path, "r", encoding="utf-8") as fh:
        return max(0, sum(1 for line in fh if line.strip()) - 1)


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _gate(op, r: dict) -> str | None:
    """The report's own certificate; returns a reason when it fails."""
    e = op.expect
    if op.kind == "lemma":
        if not (r["passed"] is True and r["sup_deviation"] < e["eps"]):
            return f"sup_deviation {r['sup_deviation']} not below eps {e['eps']}"
    elif op.kind == "contain":
        if r["violations"] != 0:
            return f"{r['violations']} containment violations"
        if csv_rows(e["csv"]) != r["samples"]:
            return "cloud CSV rows differ from the reported samples"
    elif op.kind == "variety":
        if r["members"] != r["points"] or r["points"] != csv_rows(e["csv"]):
            return f"members {r['members']} != points {r['points']}"
    elif op.kind == "hausdorff":
        d = r["hausdorff"]
        if not (_finite(d) and d >= 0):
            return f"hausdorff {d} is not a finite distance"
        if r["is_eps_deformation"] != (d < e["eps"]):
            return "is_eps_deformation disagrees with the distance"
    elif op.kind == "counterexample":
        if r["status"] != "certified":
            return f"status {r['status']}"
        on_axis = [
            w for w in r["witnesses"]
            if (w["w"]["im"] == 0.0 or w["w"]["re"] == 0.0)
            and abs(math.hypot(w["w"]["re"], w["w"]["im"]) - e["threshold"]) <= 1e-9
        ]
        if not on_axis or not all(
            abs(w["analytic_distance"] - e["eps"]) <= 1e-12 * e["eps"]
            and w["measured_distance"] >= e["eps"] * (1.0 - 1e-12)
            for w in on_axis
        ):
            return "no on-axis witness at distance eps"
    elif op.kind == "jet-lift":
        lifted = len(r["pairs"]) + sum(s["multiplicity"] for s in r["skipped"])
        if lifted != e["degree"]:
            return f"pairs + skipped = {lifted}, degree {e['degree']}"
    elif op.kind == "modulus":
        if not 1e-12 <= r["delta"] <= e["eps"]:
            return f"delta {r['delta']} outside [1e-12, eps]"
    elif op.kind == "roots":
        if sum(x["multiplicity"] for x in r["roots"]) != e["degree"]:
            return "multiplicities do not add up to the degree"
        if not _finite(r["residual_bound"]):
            return "non-finite residual bound"
    elif op.kind == "align":
        if sorted(r["perm"]) != list(range(e["degree"])):
            return "perm is not a permutation"
        if not _finite(r["bottleneck"]) or r["aligned"] != (r["bottleneck"] < e["eps"]):
            return "aligned disagrees with the bottleneck"
    return None


def key_numbers(kind: str, r: dict) -> list:
    """The numbers compared against stored references."""
    if kind == "lemma":
        return [r["sup_deviation"], r["points_checked"]]
    if kind == "contain":
        return [r["max_residual"], r["samples"]]
    if kind == "variety":
        return [r["max_residual"], r["points"]]
    if kind == "hausdorff":
        return [r["hausdorff"], r["W_points"], r["Z_points"]]
    if kind == "counterexample":
        return [r["max_measured_distance"], r["max_analytic_distance"], r["witness_count"]]
    if kind == "roots":
        mags = [math.hypot(x["value"]["re"], x["value"]["im"]) for x in r["roots"]]
        return [max(mags), min(mags), len(mags)]
    if kind == "align":
        return [r["bottleneck"]]
    if kind == "modulus":
        return [r["delta"]]
    if kind == "jet-lift":
        c1 = [
            math.hypot(p["lift"]["coeffs"][1]["re"], p["lift"]["coeffs"][1]["im"])
            for p in r["pairs"]
            if len(p["lift"]["coeffs"]) > 1
        ]
        return [max(c1, default=0.0), len(r["pairs"]),
                sum(s["multiplicity"] for s in r["skipped"])]
    raise ValueError(kind)


_RTOL = {"lemma": EVAL_RTOL, "counterexample": EVAL_RTOL, "align": ALIGN_RTOL}


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + ABS_FLOOR


def _compare(op, got: list, ref: list) -> str | None:
    if op.kind == "modulus":
        # One bisection step: the width of the last log10 bracket.
        step = (math.log10(op.expect["eps"]) + 12.0) / 2**40
        if abs(math.log10(got[0]) - math.log10(ref[0])) > step * (1 + 1e-6):
            return f"delta {got[0]!r} differs from reference {ref[0]!r} by more than one step"
        return None
    head, counts = got[0], got[1:]
    if op.kind == "hausdorff" and counts != ref[1:]:
        return None  # different clouds: the distance is not comparable
    for g, f in zip(counts, ref[1:]):
        # Sampled point counts may move by a root sitting on the |z| = T edge.
        slack = max(1, COUNT_SLACK * f) if op.kind in ("contain", "variety") else 0
        if abs(g - f) > slack:
            return f"count {g} differs from reference {f}"
    if not _close(head, ref[0], _RTOL.get(op.kind, ROOT_RTOL)):
        return f"{head!r} differs from reference {ref[0]!r}"
    return None


def _ledger_entry(kind: str, code: int, stderr: str) -> str | None:
    for name, (k, c, text) in FAILURE_LEDGER.items():
        if k == kind and c == code and text in stderr:
            return name
    return None


def judge(op, code, exc, stderr: str, ref: list | None):
    """Outcome of one op: (status, ledger entry or reason, key numbers or None)."""
    if exc is not None:
        return "failed", None, None
    if code != 0:
        if (
            op.kind == "hausdorff"
            and code == 1
            and "nonempty" in stderr
            and min(csv_rows(op.expect["W"]), csv_rows(op.expect["Z"])) == 0
        ):
            return "expected", "hausdorff-empty-cloud", None
        return "failed", _ledger_entry(op.kind, code, stderr), None
    with open(op.out, "r", encoding="utf-8") as fh:
        r = json.load(fh)["result"]
    why = _gate(op, r)
    nums = key_numbers(op.kind, r)
    if why is None and ref is not None:
        why = _compare(op, nums, ref)
    return ("wrong", why, nums) if why else ("ok", None, nums)
