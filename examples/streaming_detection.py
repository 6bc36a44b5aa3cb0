#!/usr/bin/env python3
"""Online (streaming) intrusion detection — the paper's §VI outlook.

Runs the full :mod:`repro.stream` micro-batch pipeline: a synthetic
trace source (background enterprise traffic + two timed attacks) feeds
windowed flow assembly, the live property graph, and the sliding-window
online detector, all on threads connected by bounded queues.  The report
shows per-stage throughput, backpressure (queue stalls), end-to-end
window latency, and the paper's headline metric: time-to-detection for
each injected attack.

Knobs (flag → env → default):  --window / REPRO_STREAM_WINDOW,
--queue-capacity / REPRO_STREAM_QUEUE, --lateness / REPRO_STREAM_LATENESS.
Try ``--sink-delay 0.05 --queue-capacity 2`` to watch backpressure
propagate from a deliberately slow sink back to the source.

Run:  python examples/streaming_detection.py
"""

import argparse

from repro.detect import DetectionThresholds, OnlineDetector
from repro.netflow import FlowTable, assemble_table
from repro.core.pipeline import packets_from
from repro.stream import StreamPipeline, TraceSource
from repro.trace import attacks
from repro.trace.hosts import ipv4
from repro.trace.synthesizer import TraceSynthesizer

WINDOW = 5.0


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--window", default=None,
                    help="micro-batch window seconds (REPRO_STREAM_WINDOW)")
    ap.add_argument("--queue-capacity", default=None,
                    help="bounded queue capacity (REPRO_STREAM_QUEUE)")
    ap.add_argument("--lateness", default=None,
                    help="allowed lateness seconds or 'auto' "
                         "(REPRO_STREAM_LATENESS)")
    ap.add_argument("--sink-delay", type=float, default=0.0,
                    help="artificial per-window sink delay (forces "
                         "backpressure)")
    return ap.parse_args()


def main() -> None:
    args = parse_args()

    print("synthesizing clean traffic + two timed attacks ...")
    synth = TraceSynthesizer(session_rate=40.0, seed=17)
    flood = attacks.syn_flood(
        attacker_ip=ipv4(203, 0, 113, 5),
        victim_ip=ipv4(10, 2, 0, 2),
        start_time=1_000_008.0,
        duration=4.0,
    )
    scan = attacks.host_scan(
        attacker_ip=ipv4(203, 0, 113, 6),
        victim_ip=ipv4(10, 2, 0, 3),
        start_time=1_000_018.0,
        duration=6.0,
    )
    source = TraceSource(
        synthesizer=synth, duration=30.0, attacks=(flood, scan)
    )

    print("calibrating thresholds on a clean background run ...")
    clean = TraceSynthesizer(session_rate=40.0, seed=17).generate(
        30.0, start_time=1_000_000.0
    )
    clean_table = assemble_table(packets_from(clean))
    thresholds = DetectionThresholds.fit_normal(
        {k: clean_table[k] for k in FlowTable.COLUMN_NAMES},
        window_seconds=WINDOW,
    )
    detector = OnlineDetector(
        thresholds, window_seconds=WINDOW, cooldown_seconds=30.0
    )

    pipeline = StreamPipeline(
        source,
        detector=detector,
        window_seconds=args.window,
        lateness=args.lateness,
        queue_capacity=args.queue_capacity,
        sink_delay_seconds=args.sink_delay,
    )
    print("\nstreaming ...")
    result = pipeline.run()

    print("\nalarms (stream time):")
    for alert in result.detections:
        det = alert.detection
        print(
            f"  t=+{alert.time - source.start_time:5.1f}s  "
            f"{det.kind:<14} ({det.direction}) ip={det.ip}"
        )
    if not result.detections:
        print("  (none)")

    print("\ntime-to-detection:")
    for lat in result.latencies:
        if lat.detected:
            print(
                f"  {lat.kind:<14} detected as {lat.detected_kind} "
                f"{lat.seconds_to_detection:.1f}s after onset"
            )
        else:
            print(f"  {lat.kind:<14} MISSED")

    print("\npipeline stats:")
    print(result.stats.summary())


if __name__ == "__main__":
    main()
