"""Table I / Fig. 4 — the Netflow anomaly-detection approach.

Table I defines the threshold parameters; Fig. 4 the detection flow chart.
The paper presents the approach without a quantitative evaluation, noting
the thresholds are network-driven and can be tuned with PSO.  This bench
makes that concrete: it calibrates Table I thresholds on attack-free
traffic, injects every attack class of Section IV, and reports per-class
detection plus precision/recall/F1 — including a PSO-tuned variant and a
threshold-sensitivity sweep.
"""

from __future__ import annotations

from conftest import save_series
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


def _table(frames):
    frames = sorted(frames, key=lambda f: f[0])
    return assemble_table(packets_from(frames))


def _cols(table):
    return {k: table[k] for k in FlowTable.COLUMN_NAMES}


def build_scenario():
    background = synthesize_seed_packets(
        duration=20.0, session_rate=40, seed=9
    )
    t0 = 1_000_005.0
    atk = [
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
            attacker_ips=tuple(
                ipv4(203, 0, 113, 20 + j) for j in range(8)
            ),
            victim_ip=ipv4(10, 2, 0, 7), start_time=t0 + 10,
        ),
    ]
    frames = list(background)
    for a in atk:
        frames.extend(a.frames)
    return _table(background), _table(frames), atk


def run_table1():
    clean, mixed, atk = build_scenario()
    fitted = DetectionThresholds.fit_normal(
        _cols(clean), window_seconds=WINDOW
    )
    detector = NetflowAnomalyDetector(fitted)
    found = detector.detect_windowed(_cols(mixed), window_seconds=WINDOW)
    report = evaluate_detections(found, atk)
    clean_alarms = detector.detect_windowed(
        _cols(clean), window_seconds=WINDOW
    )

    per_class = []
    for a in atk:
        detected = a.kind in report.detected_attacks
        per_class.append([a.kind, "yes" if detected else "NO"])

    sensitivity = []
    for scale in (0.5, 1.0, 2.0, 4.0):
        th = fitted.scaled(scale)
        rep = evaluate_detections(
            NetflowAnomalyDetector(th).detect_windowed(
                _cols(mixed), window_seconds=WINDOW
            ),
            atk,
        )
        sensitivity.append([scale, rep.precision, rep.recall, rep.f1])
    return fitted, report, clean_alarms, per_class, sensitivity, mixed, atk


def test_table1_detection_quality(benchmark):
    (fitted, report, clean_alarms, per_class, sensitivity,
     mixed, atk) = run_table1()
    save_series(
        "table1_per_class",
        "Table I/Fig. 4: per-attack-class detection (calibrated thresholds)",
        ["attack", "detected"],
        per_class,
    )
    save_series(
        "table1_summary",
        "Table I/Fig. 4: detection quality summary",
        ["metric", "value"],
        [
            ["precision", report.precision],
            ["recall", report.recall],
            ["f1", report.f1],
            ["clean_traffic_alarms", len(clean_alarms)],
        ],
    )
    save_series(
        "table1_sensitivity",
        "Table I sensitivity: uniform threshold scaling vs P/R/F1",
        ["scale", "precision", "recall", "f1"],
        sensitivity,
    )
    assert report.recall == 1.0
    assert report.precision >= 0.8
    assert len(clean_alarms) == 0

    def op():
        det = NetflowAnomalyDetector(fitted)
        return det.detect_windowed(_cols(mixed), window_seconds=WINDOW)

    benchmark.pedantic(op, rounds=3, iterations=1)


def test_table1_pso_tuning(benchmark):
    """The paper's PSO suggestion: tuned thresholds reach at least the
    calibrated F1 starting from generic defaults."""
    _, mixed, atk = build_scenario()
    base = DetectionThresholds()
    f1_default = evaluate_detections(
        NetflowAnomalyDetector(base).detect_windowed(
            _cols(mixed), window_seconds=WINDOW
        ),
        atk,
    ).f1
    tuned, result = tune_thresholds(
        _cols(mixed), atk, n_particles=12, n_iterations=12, seed=3
    )
    f1_tuned = evaluate_detections(
        NetflowAnomalyDetector(tuned).detect_windowed(
            _cols(mixed), window_seconds=WINDOW
        ),
        atk,
    ).f1
    save_series(
        "table1_pso",
        "Table I: PSO threshold tuning (whole-capture objective)",
        ["variant", "f1"],
        [["default thresholds", f1_default],
         ["PSO-tuned", f1_tuned],
         ["PSO objective best", result.best_value]],
    )
    assert f1_tuned >= f1_default

    def op():
        return evaluate_detections(
            NetflowAnomalyDetector(tuned).detect(_cols(mixed)), atk
        )

    benchmark.pedantic(op, rounds=3, iterations=1)
