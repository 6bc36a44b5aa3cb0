"""``run.py --check A.json B.json``: apply each end-to-end metric's
direction and bound from BENCHMARK.json to two result documents.

One row per (workload, metric) with both medians, both quartile pairs
and a verdict:

``ok``          B's median is not worse than A's by more than the bound;
``worse``       it is;
``unresolved``  the spread between either side's samples is wider than
                the bound (unless every sample of B is better than every
                sample of A), or the workload ran more workers than the
                host has processors.

Every relative change is printed with its base (A's median).  Exit code
1 on any ``worse`` row or any rise in failed/attempted.
"""

from __future__ import annotations

import json
import statistics

__all__ = ["compare", "main"]


def _quartiles(samples: list[float]) -> tuple[float, float]:
    if len(samples) < 2:
        return samples[0], samples[0]
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q1, q3


def _spread(metric: dict) -> float:
    q1, q3 = _quartiles(metric["samples"])
    return (q3 - q1) / abs(metric["value"])


def _verdict(a: dict, b: dict, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (b["value"] - a["value"]) / a["value"]
    if max(_spread(a), _spread(b)) > bound:
        b_all_better = (
            max(b["samples"]) < min(a["samples"]) if better == "lower"
            else min(b["samples"]) > max(a["samples"])
        )
        return "ok" if b_all_better else "unresolved"
    return "worse" if worsening > bound else "ok"


def compare(spec: dict, doc_a: dict, doc_b: dict) -> tuple[list[dict], bool]:
    """Rows for every (workload, end-to-end metric) both documents hold,
    and whether B passes."""
    rows, passed = [], True
    same_inputs = (
        doc_a["seed"] == doc_b["seed"] and doc_a["smoke"] == doc_b["smoke"]
    )
    for workload in (w["name"] for w in spec["workloads"]):
        a = doc_a["workloads"].get(workload)
        b = doc_b["workloads"].get(workload)
        if a is None or b is None:
            continue
        oversubscribed = any(
            side["notes"].get("workers", 0) > doc["host"]["nproc"]
            for side, doc in ((a, doc_a), (b, doc_b))
        )
        for metric in spec["end_to_end"]:
            ma = a["end_to_end"][metric["name"]]
            mb = b["end_to_end"][metric["name"]]
            verdict = _verdict(ma, mb, metric["better"], metric["bound"])
            if oversubscribed:
                verdict = "unresolved"
            passed &= verdict != "worse"
            rows.append({
                "workload": workload,
                "metric": metric["name"],
                "unit": metric["unit"],
                "a": ma["value"], "a_quartiles": _quartiles(ma["samples"]),
                "b": mb["value"], "b_quartiles": _quartiles(mb["samples"]),
                "change_vs_a": (mb["value"] - ma["value"]) / ma["value"],
                "bound": metric["bound"],
                "verdict": verdict,
            })
        frac_a = a["failed"] / a["attempted"]
        frac_b = b["failed"] / b["attempted"]
        verdict = "worse" if frac_b > frac_a else "ok"
        passed &= verdict == "ok"
        rows.append({
            "workload": workload, "metric": "failed_frac", "unit": "ratio",
            "a": frac_a, "a_quartiles": (frac_a, frac_a),
            "b": frac_b, "b_quartiles": (frac_b, frac_b),
            "change_vs_a": frac_b - frac_a, "bound": 0.0,
            "verdict": verdict,
        })
        if same_inputs and a["digest"] != b["digest"]:
            rows[-1]["digest_differs"] = f"{a['digest']} != {b['digest']}"
    return rows, passed


def main(spec: dict, path_a: str, path_b: str) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        rows, passed = compare(spec, json.load(fa), json.load(fb))
    print(f"{'workload':<16}{'metric':<13}{'unit':<6}"
          f"{'A median [q1, q3]':>36}{'B median [q1, q3]':>36}"
          f"{'(B-A)/A':>9}{'bound':>7}  verdict")
    for r in rows:
        sides = [
            "{:.5g} [{:.5g}, {:.5g}]".format(r[s], *r[f"{s}_quartiles"])
            for s in ("a", "b")
        ]
        print(f"{r['workload']:<16}{r['metric']:<13}{r['unit']:<6}"
              f"{sides[0]:>36}{sides[1]:>36}"
              f"{r['change_vs_a']:>+9.3f}{r['bound']:>7.2f}  {r['verdict']}"
              + (f"  digest differs: {r['digest_differs']}"
                 if "digest_differs" in r else ""))
    counts = {
        v: sum(r["verdict"] == v for r in rows)
        for v in ("ok", "worse", "unresolved")
    }
    print(f"A={path_a} B={path_b}: " + ", ".join(
        f"{n} {v}" for v, n in counts.items()
    ))
    return 0 if passed else 1
