"""Runs one workload in this (fresh, scrubbed) process and prints its
result as one JSON line: set-up, one untimed warm-up rep, timed reps for
``--seconds``, then the output checks.

With ``--trace 0`` every rep runs with tracing off and the end-to-end
metrics are medians over the reps.  With ``--trace 1`` untraced and
traced reps alternate; the per-layer metrics are medians over the traced
reps and ``trace_overhead_frac`` compares the two kinds of rep made by
this one process.  End-to-end numbers never come from a traced rep.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

from spans import Tracer, cover_fraction, layer_self_seconds  # noqa: E402
from workloads import SIZES, SMOKE_SIZES, WORKLOADS  # noqa: E402

MIN_REPS = 5
# setup_s is the median of this many set-ups from the same seed.
SETUP_REPS = 3


def _cpu_seconds() -> float:
    """User + system CPU of this process and the children it reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    """High-water RSS in MiB: this process or its largest reaped child
    (Linux reports ``ru_maxrss`` in KiB)."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def _rep(workload, inp, *, on: bool) -> tuple[dict, dict]:
    """One rep -> (its record, the workload's output)."""
    tr = Tracer(workload.name, on=on)
    gc.collect()
    cpu0 = _cpu_seconds()
    with tr.span(workload.name, "run"):
        out = workload.run(inp, tr)
    cpu = _cpu_seconds() - cpu0
    wall = tr.seconds[workload.name]
    record = {
        "tr": tr, "wall_s": wall, "cpu_s": cpu,
        "items_per_s": workload.rate(inp, out, tr, wall),
    }
    return record, out


def _layer_value(name: str, tr: Tracer, layers: dict) -> float | None:
    """One per-layer metric from one tracer: a counter a stage helper
    read, the seconds of the span it is named after, or a layer's self
    time."""
    if name in tr.counters:
        return float(tr.counters[name])
    if name.endswith("_s") and name[:-2] in tr.seconds:
        return tr.seconds[name[:-2]]
    if name.startswith("layer."):
        return layers.get(name.split(".")[1])
    return None


def measure(args) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    size = (SMOKE_SIZES if args.smoke else SIZES)[workload.name]
    workdir = Path(args.workdir)
    (workdir / "tmp").mkdir(parents=True, exist_ok=True)
    min_reps = 1 if args.smoke else MIN_REPS
    setup_reps = 1 if args.smoke or args.trace else SETUP_REPS

    setup_seconds = []
    for _ in range(setup_reps):
        setup_tr = Tracer(workload.name, on=bool(args.trace))
        with setup_tr.span("setup", "run"):
            inp = workload.setup(args.seed, size, workdir, setup_tr)
        setup_seconds.append(setup_tr.seconds["setup"])

    # Warm-up: lazy imports finish and allocator arenas grow before timing.
    _rep(workload, inp, on=False)

    plain, traced, digests = [], [], []
    kinds = ((False, plain), (True, traced)) if args.trace else ((False, plain),)
    out = None
    began = time.perf_counter()
    while len(plain) < min_reps or time.perf_counter() - began < args.seconds:
        for on, reps in kinds:
            out = None  # drop the last rep's output before the next runs
            record, out = _rep(workload, inp, on=on)
            digests.append(workload.digest(out))
            reps.append(record)
    peak_rss_mb = _peak_rss_mb()

    checks = {k: bool(v) for k, v in workload.check(inp, out).items()}
    checks["digests_identical"] = len(set(digests)) == 1
    timed = plain + traced
    attempted = sum(r["tr"].ops for r in timed) + len(checks)
    failed = sum(r["tr"].ops_failed for r in timed) + sum(
        not ok for ok in checks.values()
    )

    if not args.trace:
        samples = {
            "setup_s": setup_seconds,
            "peak_rss_mb": [peak_rss_mb],
            **{
                name: [r[name] for r in plain]
                for name in ("wall_s", "cpu_s", "items_per_s")
            },
        }
        declared = spec["end_to_end"]
    else:
        for r in traced:
            r["layers"] = layer_self_seconds(r["tr"].spans)
        plain_wall = statistics.median(r["wall_s"] for r in plain)
        samples = {
            "trace_overhead_frac": [
                r["wall_s"] / plain_wall - 1.0 for r in traced
            ],
            "layers_cover_frac": [
                cover_fraction(r["tr"].spans) for r in traced
            ],
        }
        declared = spec["per_layer"]
        for metric in declared:
            name = metric["name"]
            if name in samples:
                continue
            values = [_layer_value(name, r["tr"], r["layers"]) for r in traced]
            values = [v for v in values if v is not None]
            if not values:
                # Set-up only (trace synthesis, PCAP write, a KronFit
                # done before the timed region), or not part of this
                # workload: 0.
                values = [_layer_value(name, setup_tr, {}) or 0.0]
            samples[name] = values

    return {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "reps": len(plain),
        "sizes": size,
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "digest": digests[-1],
        "notes": {
            **timed[-1]["tr"].notes,
            **({"workers": workload.workers, "nproc": os.cpu_count()}
               if getattr(workload, "workers", None) else {}),
        },
        "metrics": {
            m["name"]: {
                "value": statistics.median(samples[m["name"]]),
                "unit": m["unit"],
                "samples": samples[m["name"]],
            }
            for m in declared
        },
        "spans": [r["tr"].spans for r in traced],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
