#!/usr/bin/env python3
"""Section IV end-to-end: detect injected attacks in Netflow traffic.

1. Synthesize clean enterprise traffic and calibrate the Table I threshold
   parameters from it ("training must be used to set the threshold values
   based on the parameters of each target network").
2. Inject the five attack classes of Fig. 4: TCP SYN flood, host scan,
   network scan, UDP flood, ICMP flood — plus a distributed SYN flood.
3. Run the windowed detector and score precision / recall / F1 against the
   injected ground truth.
4. Re-tune the thresholds with Particle Swarm Optimization (the paper's
   suggestion) and compare.

Run:  python examples/attack_detection.py
"""

from repro.core.pipeline import packets_from
from repro.detect import (
    DetectionThresholds,
    NetflowAnomalyDetector,
    evaluate_detections,
    tune_thresholds,
)
from repro.netflow import FlowTable, assemble_table
from repro.trace import attacks, synthesize_seed_packets
from repro.trace.hosts import ipv4

WINDOW = 5.0


def to_table(frames):
    frames = sorted(frames, key=lambda f: f[0])
    return assemble_table(packets_from(frames))


def cols(table):
    return {k: table[k] for k in FlowTable.COLUMN_NAMES}


def main() -> None:
    print("synthesizing 20 s of clean traffic ...")
    background = synthesize_seed_packets(
        duration=20.0, session_rate=40, seed=9
    )
    clean = to_table(background)
    print(f"  {len(clean)} clean flows")

    print("injecting attacks ...")
    t0 = 1_000_005.0
    ground_truth = [
        attacks.syn_flood(
            attacker_ip=ipv4(203, 0, 113, 5),
            victim_ip=ipv4(10, 2, 0, 3), start_time=t0,
        ),
        attacks.host_scan(
            attacker_ip=ipv4(203, 0, 113, 6),
            victim_ip=ipv4(10, 2, 0, 4), start_time=t0 + 2,
        ),
        attacks.network_scan(
            attacker_ip=ipv4(203, 0, 113, 7),
            subnet_base=ipv4(10, 1, 0, 0), start_time=t0 + 4,
        ),
        attacks.udp_flood(
            attacker_ip=ipv4(203, 0, 113, 8),
            victim_ip=ipv4(10, 2, 0, 5), start_time=t0 + 6,
        ),
        attacks.icmp_flood(
            attacker_ip=ipv4(203, 0, 113, 9),
            victim_ip=ipv4(10, 2, 0, 6), start_time=t0 + 8,
        ),
        attacks.ddos_syn_flood(
            attacker_ips=tuple(ipv4(203, 0, 113, 20 + j) for j in range(8)),
            victim_ip=ipv4(10, 2, 0, 7), start_time=t0 + 10,
        ),
    ]
    frames = list(background)
    for a in ground_truth:
        frames.extend(a.frames)
        print(f"  + {a.kind} against {len(a.victim_ips)} victim(s)")
    mixed = to_table(frames)
    print(f"  {len(mixed)} flows total")

    print("\ncalibrating Table I thresholds on the clean traffic ...")
    thresholds = DetectionThresholds.fit_normal(
        cols(clean), window_seconds=WINDOW
    )
    print(f"  {thresholds}")

    print("\nrunning the Fig. 4 windowed detector ...")
    detector = NetflowAnomalyDetector(thresholds)
    found = detector.detect_windowed(cols(mixed), window_seconds=WINDOW)
    for det in found:
        print(
            f"  ALARM {det.kind:<18} {det.direction:<11} ip={det.ip} "
            f"(flows={det.evidence['n_flows']})"
        )
    report = evaluate_detections(found, ground_truth)
    print(
        f"\n  precision={report.precision:.2f} recall={report.recall:.2f} "
        f"f1={report.f1:.2f}"
    )
    if report.missed_attacks:
        print(f"  missed: {report.missed_attacks}")

    false_alarms = detector.detect_windowed(
        cols(clean), window_seconds=WINDOW
    )
    print(f"  alarms on clean traffic: {len(false_alarms)}")

    print("\nPSO threshold tuning (whole-capture objective) ...")
    tuned, result = tune_thresholds(
        cols(mixed), ground_truth, n_particles=12, n_iterations=15, seed=3
    )
    tuned_found = NetflowAnomalyDetector(tuned).detect_windowed(
        cols(mixed), window_seconds=WINDOW
    )
    tuned_report = evaluate_detections(tuned_found, ground_truth)
    print(
        f"  tuned f1={tuned_report.f1:.2f} "
        f"(objective best {result.best_value:.2f})"
    )


if __name__ == "__main__":
    main()
