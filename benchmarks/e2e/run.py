"""The repo's benchmark: six workloads over the paper's PCAP -> flows ->
seed -> PGPBA/PGSK -> veracity -> detect -> query path.

    python3 benchmarks/e2e/run.py --seed 11 [--out run.json]
        every workload, an untraced pass (end-to-end metrics) then a
        traced pass (per-layer metrics); prints one JSON document.
    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
        one pass of one workload; the last line of stdout is the
        contract object {correct, attempted, failed, metrics}.
    python3 benchmarks/e2e/run.py --smoke
        small sizes, one rep: a check that everything runs.
    python3 benchmarks/e2e/run.py --check A.json B.json
        compare two result documents against the declared bounds.

Each pass of each workload runs in a fresh child process whose
environment holds no ``REPRO_*`` variable and pins the BLAS thread
counts, so no ambient knob reaches a number; children run one after
another.  BENCHMARK.json declares the workloads, metrics and bounds;
README.md says why each exists.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = HERE / ".work"
# The contract allows a run 180 s; a worker that hangs is killed before.
WORKER_TIMEOUT_SECONDS = 170


def _worker_env(workdir: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0", TMPDIR=str(workdir / "tmp"),
    )
    return env


def run_worker(workload, *, seed, seconds, trace, smoke) -> dict:
    """One pass of one workload in a fresh process group; the group is
    killed and the work directory removed whatever happens."""
    workdir = WORK / f"{workload}-{trace}-{os.getpid()}"
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--workdir", str(workdir),
    ] + (["--smoke"] if smoke else [])
    proc = subprocess.Popen(
        cmd, env=_worker_env(workdir), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired:
        raise SystemExit(
            f"{workload}: worker exceeded {WORKER_TIMEOUT_SECONDS} s"
        ) from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: worker exited {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    for check, ok in result["checks"].items():
        if not ok:
            print(f"{workload}: check failed: {check}", file=sys.stderr)
    return result


def _git_commit() -> str | None:
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _host_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "loadavg_1min_start": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
    }


def run_document(spec, names, *, seed, seconds, smoke) -> tuple[dict, dict]:
    """Both passes of every named workload -> (document, spans)."""
    doc = {
        "benchmark": "benchmarks/e2e",
        "seed": seed,
        "smoke": smoke,
        "seconds": seconds,
        "host": _host_facts(),
        # Each *_frac / ratio metric is a share of this base.
        "ratio_bases": {
            "trace_overhead_frac": "median wall_s of the untraced reps "
                                   "of the same traced pass",
            "layers_cover_frac": "wall of the traced rep",
            "serve.cache_hit_ratio": "queries of the warm batches",
            "stream.bottleneck_busy_frac": "wall of StreamPipeline.run()",
            "failed_frac": "attempted",
        },
        "workloads": {},
    }
    spans = {}
    for name in names:
        plain = run_worker(
            name, seed=seed, seconds=seconds, trace=0, smoke=smoke
        )
        traced = run_worker(
            name, seed=seed, seconds=seconds, trace=1, smoke=smoke
        )
        spans[name] = traced["spans"]
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        checks = {
            **plain["checks"],
            "traced_digest_equals_untraced": (
                plain["digest"] == traced["digest"]
            ),
        }
        doc["workloads"][name] = {
            "sizes": plain["sizes"],
            "reps": plain["reps"],
            "traced_reps": traced["reps"],
            "digest": plain["digest"],
            "notes": {**plain["notes"], **traced["notes"]},
            "checks": checks,
            "attempted": attempted + 1,
            "failed": failed + (plain["digest"] != traced["digest"]),
            "end_to_end": plain["metrics"],
            "per_layer": traced["metrics"],
        }
    serial = doc["workloads"].get("generate_serial")
    pool = doc["workloads"].get("generate_pool")
    if serial and pool:
        same = serial["digest"] == pool["digest"]
        pool["checks"]["digest_equals_generate_serial"] = same
        pool["attempted"] += 1
        pool["failed"] += not same
    for entry in doc["workloads"].values():
        entry["failed_frac"] = entry["failed"] / entry["attempted"]
    doc["host"]["loadavg_1min_end"] = os.getloadavg()[0]
    doc["claim"] = None
    return doc, spans


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument(
        "--trace", type=int, choices=(0, 1),
        help="one pass only, and print the contract object",
    )
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", help="also write the document here")
    parser.add_argument(
        "--trace-out", help="write the traced reps' spans here "
        "(chrome://tracing JSON)",
    )
    parser.add_argument("--check", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.check:
        from compare import main as check

        return check(spec, *args.check)
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no program to measure: {ROOT / 'src' / 'repro'}")

    seconds = 0.0 if args.smoke else args.seconds
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace 0|1 needs --workload")
        result = run_worker(
            args.workload, seed=args.seed, seconds=seconds,
            trace=args.trace, smoke=args.smoke,
        )
        print(json.dumps({
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": m["value"], "unit": m["unit"]}
                for name, m in result["metrics"].items()
            },
        }))
        return 0

    doc, spans = run_document(
        spec, [args.workload] if args.workload else names,
        seed=args.seed, seconds=seconds, smoke=args.smoke,
    )
    text = json.dumps(doc, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    if args.trace_out:
        from spans import write_chrome_trace

        write_chrome_trace(
            args.trace_out, [rep for reps in spans.values() for rep in reps]
        )
    print(text)
    return 0 if all(w["failed"] == 0 for w in doc["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
