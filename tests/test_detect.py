"""Tests for the Section IV anomaly-detection stack."""

import hashlib
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import PGPBA
from repro.core.pipeline import packets_from
from repro.detect import (
    DetectionThresholds,
    NetflowAnomalyDetector,
    OfflineDetectionPipeline,
    TrafficPatterns,
    build_traffic_patterns,
    evaluate_detections,
)
from repro.detect.patterns import _distinct_per_group, window_index
from repro.detect.report import DetectionReport
from repro.detect.detector import Detection
from repro.netflow import FlowTable, assemble_flows
from repro.netflow.attributes import Protocol
from repro.netflow.mapping import flow_table_to_property_graph
from repro.trace import attacks, synthesize_seed_packets
from repro.trace.hosts import ipv4

WINDOW = 5.0

# SHA-256 of ``TestGolden``'s answers over the traces: the answers of the
# per-window mask-loop implementation this grouping kernel replaced.
GOLDEN = "379bde73dbff1f21ed86d623028120d0e215f27e27955270335e5c9d4adf7ed8"
# SHA-256 of the answers over a synthetic PGPBA graph, whose edge
# attributes are whole seed rows.
GOLDEN_SYNTHETIC = (
    "05d85c44fec90944365b13d26eb5f95954d4a138710ee88b47d9241c452febfa"
)


def flows_from(frames):
    frames = sorted(frames, key=lambda f: f[0])
    return FlowTable.from_records(
        list(assemble_flows(packets_from(frames)))
    )


def columns(table):
    return {k: table[k] for k in FlowTable.COLUMN_NAMES}


@pytest.fixture(scope="module")
def background():
    return synthesize_seed_packets(
        duration=20.0, session_rate=40, seed=9
    )


@pytest.fixture(scope="module")
def clean_table(background):
    return flows_from(background)


@pytest.fixture(scope="module")
def thresholds(clean_table):
    return DetectionThresholds.fit_normal(
        columns(clean_table), window_seconds=WINDOW
    )


@pytest.fixture(scope="module")
def attack_set(background):
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
            attacker_ips=tuple(ipv4(203, 0, 113, 20 + j) for j in range(8)),
            victim_ip=ipv4(10, 2, 0, 7), start_time=t0 + 10,
        ),
    ]
    frames = list(background)
    for a in atk:
        frames.extend(a.frames)
    return flows_from(frames), atk


class TestPatterns:
    def test_direction_validation(self, clean_table):
        with pytest.raises(ValueError):
            build_traffic_patterns(columns(clean_table), direction="bogus")

    def test_flow_counts_sum(self, clean_table):
        p = build_traffic_patterns(
            columns(clean_table), direction="destination"
        )
        assert p.n_flows.sum() == len(clean_table)

    def test_peer_counts_bounded_by_flows(self, clean_table):
        p = build_traffic_patterns(columns(clean_table), direction="source")
        assert (p.n_distinct_peers <= p.n_flows).all()

    def test_avg_consistent_with_sum(self, clean_table):
        p = build_traffic_patterns(
            columns(clean_table), direction="destination"
        )
        assert np.allclose(
            p.avg_flow_size, p.sum_flow_size / np.maximum(p.n_flows, 1)
        )

    def test_protocol_split_sums_to_total(self, clean_table):
        p = build_traffic_patterns(
            columns(clean_table), direction="destination"
        )
        assert np.array_equal(
            p.tcp_flows + p.udp_flows + p.icmp_flows, p.n_flows
        )

    def test_ack_syn_ratio_inf_without_syn(self):
        table = flows_from(
            attacks.udp_flood(
                attacker_ip=1, victim_ip=2, start_time=0.0, n_packets=20
            ).frames
        )
        p = build_traffic_patterns(columns(table), direction="destination")
        assert np.isinf(p.ack_syn_ratio()).all()

    def test_icmp_excluded_from_port_counts(self):
        table = flows_from(
            attacks.icmp_flood(
                attacker_ip=1, victim_ip=2, start_time=0.0, n_packets=50
            ).frames
        )
        p = build_traffic_patterns(columns(table), direction="destination")
        assert p.n_distinct_ports.max() == 0

    def test_iter_windows_partition(self, clean_table):
        cols = columns(clean_table)
        t0, window = window_index(cols, WINDOW)
        times = cols["START_TIME"]
        assert t0 == times.min()
        p = build_traffic_patterns(cols, direction="source", window=window)
        assert np.all(np.diff(p.window) >= 0)
        for w in np.unique(window):
            inside = times[window == w]
            assert inside.max() - inside.min() < WINDOW
            assert p.n_flows[p.window == w].sum() == inside.size
        assert p.n_flows.sum() == len(clean_table)

    def test_iter_windows_validation(self, clean_table):
        with pytest.raises(ValueError, match="positive"):
            window_index(columns(clean_table), 0.0)
        cols = columns(clean_table)
        del cols["START_TIME"]
        with pytest.raises(ValueError, match="START_TIME"):
            window_index(cols, WINDOW)


class TestThresholds:
    def test_fit_normal_orders_bounds(self, thresholds):
        assert thresholds.dp_lt <= thresholds.dp_ht
        assert thresholds.fs_lt <= thresholds.fs_ht
        assert thresholds.np_lt <= thresholds.np_ht

    def test_fit_normal_windowed_empty_input(self):
        empty = FlowTable.empty()
        assert DetectionThresholds.fit_normal(
            empty, window_seconds=WINDOW
        ) == DetectionThresholds.fit_normal(empty)

    def test_vector_roundtrip(self, thresholds):
        back = DetectionThresholds.from_vector(thresholds.as_vector())
        assert back == thresholds

    def test_from_vector_repairs_ordering(self):
        t = DetectionThresholds()
        vec = t.as_vector()
        names = [f.name for f in __import__("dataclasses").fields(t)]
        i_lt, i_ht = names.index("dp_lt"), names.index("dp_ht")
        vec[i_lt], vec[i_ht] = vec[i_ht], vec[i_lt]
        repaired = DetectionThresholds.from_vector(vec)
        assert repaired.dp_lt <= repaired.dp_ht

    def test_scaled(self):
        t = DetectionThresholds()
        loose = t.scaled(2.0)
        assert loose.nf_t == 2 * t.nf_t
        assert loose.fs_lt == t.fs_lt / 2
        with pytest.raises(ValueError):
            t.scaled(0.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            DetectionThresholds(nf_t=-1)

    def test_bad_ordering_rejected(self):
        with pytest.raises(ValueError):
            DetectionThresholds(dp_lt=10, dp_ht=1)


class TestDetector:
    def test_all_attack_kinds_detected(self, attack_set, thresholds):
        table, atk = attack_set
        det = NetflowAnomalyDetector(thresholds)
        found = det.detect_windowed(columns(table), window_seconds=WINDOW)
        rep = evaluate_detections(found, atk)
        assert rep.recall == 1.0
        assert rep.precision >= 0.8

    def test_clean_traffic_no_alarms(self, clean_table, thresholds):
        det = NetflowAnomalyDetector(thresholds)
        found = det.detect_windowed(
            columns(clean_table), window_seconds=WINDOW
        )
        assert found == []

    def test_syn_flood_names_victim(self, background, thresholds):
        victim = ipv4(10, 2, 0, 3)
        gt = attacks.syn_flood(
            attacker_ip=ipv4(203, 0, 113, 5), victim_ip=victim,
            start_time=1_000_005.0,
        )
        table = flows_from(list(background) + gt.frames)
        det = NetflowAnomalyDetector(thresholds)
        found = det.detect_windowed(columns(table), window_seconds=WINDOW)
        syn = [d for d in found if "syn" in d.kind or d.kind == "tcp_flood"]
        assert any(d.ip == victim for d in syn)

    def test_network_scan_names_attacker(self, background, thresholds):
        attacker = ipv4(203, 0, 113, 7)
        gt = attacks.network_scan(
            attacker_ip=attacker, subnet_base=ipv4(10, 1, 0, 0),
            start_time=1_000_005.0,
        )
        table = flows_from(list(background) + gt.frames)
        det = NetflowAnomalyDetector(thresholds)
        found = det.detect_windowed(columns(table), window_seconds=WINDOW)
        scans = [d for d in found if d.kind == "network_scan"]
        assert any(
            d.ip == attacker and d.direction == "source" for d in scans
        )

    def test_evidence_populated(self, attack_set, thresholds):
        table, _ = attack_set
        det = NetflowAnomalyDetector(thresholds)
        found = det.detect_windowed(columns(table), window_seconds=WINDOW)
        assert found
        for d in found:
            assert d.evidence["n_flows"] >= 0
            assert "avg_flow_size" in d.evidence

    def test_default_thresholds_construct(self):
        det = NetflowAnomalyDetector()
        assert det.thresholds == DetectionThresholds()


class TestReport:
    def test_perfect_report(self):
        gt = attacks.syn_flood(
            attacker_ip=1, victim_ip=2, start_time=0.0, n_packets=10
        )
        det = [Detection(kind="syn_flood", ip=2, direction="destination")]
        rep = evaluate_detections(det, [gt])
        assert rep.true_positives == 1
        assert rep.f1 == 1.0

    def test_false_positive_counted(self):
        det = [Detection(kind="syn_flood", ip=99, direction="destination")]
        rep = evaluate_detections(det, [])
        assert rep.false_positives == 1
        assert rep.precision == 0.0

    def test_missed_attack(self):
        gt = attacks.udp_flood(
            attacker_ip=1, victim_ip=2, start_time=0.0, n_packets=10
        )
        rep = evaluate_detections([], [gt])
        assert rep.false_negatives == 1
        assert rep.recall == 0.0
        assert rep.missed_attacks == ("udp_flood",)

    def test_duplicate_detections_collapse(self):
        gt = attacks.syn_flood(
            attacker_ip=1, victim_ip=2, start_time=0.0, n_packets=10
        )
        det = [
            Detection(kind="syn_flood", ip=2, direction="destination"),
            Detection(kind="tcp_flood", ip=2, direction="destination"),
        ]
        rep = evaluate_detections(det, [gt])
        assert rep.true_positives == 1
        assert rep.false_positives == 0

    def test_direction_mismatch_is_fp(self):
        gt = attacks.syn_flood(
            attacker_ip=1, victim_ip=2, start_time=0.0, n_packets=10
        )
        # names the victim but via a source-based pattern: not a match
        det = [Detection(kind="syn_flood", ip=2, direction="source")]
        rep = evaluate_detections(det, [gt])
        assert rep.true_positives == 0
        assert rep.false_positives == 1

    def test_empty_everything(self):
        rep = evaluate_detections([], [])
        assert rep.precision == 1.0 and rep.recall == 1.0

    def test_f1_zero_guard(self):
        rep = DetectionReport(0, 5, 5, (), ("x",) * 5)
        assert rep.f1 == 0.0


def _canonical(detections):
    return [
        (d.kind, d.ip, d.direction, sorted(d.evidence.items()))
        for d in detections
    ]


class TestGolden:
    def test_answers_unchanged(self, attack_set, thresholds):
        """Every alarm, its evidence, its order and every fitted threshold
        of the windowed and calibration paths, against the digest pinned
        in ``GOLDEN``."""
        table, _ = attack_set
        windows = OfflineDetectionPipeline(thresholds).detect_windowed(
            flow_table_to_property_graph(table), window_seconds=WINDOW
        )
        answers = (
            [
                (float(w.window_start), float(w.window_end),
                 _canonical(w.detections))
                for w in windows
            ],
            _canonical(
                NetflowAnomalyDetector(thresholds).detect_windowed(
                    columns(table), window_seconds=WINDOW
                )
            ),
            [float(v) for v in thresholds.as_vector()],
        )
        assert [len(a) for a in answers] == [6, 8, 10]
        digest = hashlib.sha256(repr(answers).encode()).hexdigest()
        assert digest == GOLDEN

    def test_synthetic_graph_answers(self, seed_bundle):
        """Every alarm of the whole-graph path over a PGPBA graph, with the
        default and with tight thresholds, against ``GOLDEN_SYNTHETIC``."""
        graph = PGPBA(fraction=2.0, seed=3).generate(
            seed_bundle.graph, seed_bundle.analysis, 20_000
        ).graph
        tight = DetectionThresholds(
            dip_t=5, sip_t=5, dp_lt=50, dp_ht=60, nf_t=20, fs_lt=5000,
            fs_ht=1e5, np_lt=50, np_ht=500, sa_t=0.9,
        )
        answers = (
            _canonical(OfflineDetectionPipeline().detect(graph)),
            _canonical(OfflineDetectionPipeline(tight).detect(graph)),
        )
        assert [len(a) for a in answers] == [3, 319]
        digest = hashlib.sha256(repr(answers).encode()).hexdigest()
        assert digest == GOLDEN_SYNTHETIC


# ----------------------------------------------------------------------
# the grouping kernel against references
# ----------------------------------------------------------------------
def _reference_patterns(flow_columns, direction):
    """``build_traffic_patterns`` as it was before the sort-based kernel:
    ``np.unique`` labels and row-wise ``np.unique(axis=0)`` distincts."""

    def distinct(group_idx, values, n_groups):
        if group_idx.size == 0:
            return np.zeros(n_groups, dtype=np.int64)
        pairs = np.stack([group_idx, values.astype(np.int64)], axis=1)
        uniq = np.unique(pairs, axis=0)
        return np.bincount(uniq[:, 0], minlength=n_groups)

    key_col = "DST_IP" if direction == "destination" else "SRC_IP"
    peer_col = "SRC_IP" if direction == "destination" else "DST_IP"
    keys = np.asarray(flow_columns[key_col], dtype=np.int64)
    ips, group_idx = np.unique(keys, return_inverse=True)
    n = ips.size

    def summed(col):
        return np.bincount(
            group_idx, weights=col.astype(np.float64), minlength=n
        )

    proto = np.asarray(flow_columns["PROTOCOL"], dtype=np.int64)
    flow_size = (
        np.asarray(flow_columns["OUT_BYTES"], dtype=np.float64)
        + np.asarray(flow_columns["IN_BYTES"], dtype=np.float64)
    )
    pkts = (
        np.asarray(flow_columns["OUT_PKTS"], dtype=np.float64)
        + np.asarray(flow_columns["IN_PKTS"], dtype=np.float64)
    )
    n_flows = np.bincount(group_idx, minlength=n).astype(np.int64)
    safe = np.maximum(n_flows, 1).astype(np.float64)

    def proto_flows(code):
        return np.bincount(
            group_idx, weights=(proto == code).astype(np.float64),
            minlength=n,
        ).astype(np.int64)

    ported = proto != int(Protocol.ICMP)
    return dict(
        ips=ips,
        n_flows=n_flows,
        n_distinct_peers=distinct(
            group_idx, np.asarray(flow_columns[peer_col]), n
        ),
        n_distinct_ports=distinct(
            group_idx[ported], np.asarray(flow_columns["DEST_PORT"])[ported],
            n,
        ),
        sum_flow_size=summed(flow_size),
        avg_flow_size=summed(flow_size) / safe,
        sum_packets=summed(pkts),
        avg_packets=summed(pkts) / safe,
        syn_count=summed(flow_columns["SYN_COUNT"]).astype(np.int64),
        ack_count=summed(flow_columns["ACK_COUNT"]).astype(np.int64),
        tcp_flows=proto_flows(int(Protocol.TCP)),
        udp_flows=proto_flows(int(Protocol.UDP)),
        icmp_flows=proto_flows(int(Protocol.ICMP)),
    )


@st.composite
def _flow_columns(draw):
    """A few IPv4-like hosts, sometimes joined by the two int64 extremes
    (a span no packed key holds, so the lexsort path runs)."""
    hosts = draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4))
    if draw(st.booleans()):
        hosts += [-(2**63), 2**63 - 1]
    host = st.sampled_from(hosts)
    rows = draw(st.lists(
        st.tuples(
            host, host,
            st.sampled_from([0, 22, 80, 443, 65535]),
            st.sampled_from([1, 6, 17, 47]),
            st.integers(0, 10**6), st.integers(0, 10**6),
            st.integers(0, 1000), st.integers(0, 1000),
            st.integers(0, 20), st.integers(0, 20),
            st.floats(0.0, 30.0),
        ),
        max_size=40,
    ))
    names = ("SRC_IP", "DST_IP", "DEST_PORT", "PROTOCOL", "OUT_BYTES",
             "IN_BYTES", "OUT_PKTS", "IN_PKTS", "SYN_COUNT", "ACK_COUNT",
             "START_TIME")
    return {
        name: np.array(
            [r[i] for r in rows],
            dtype=np.float64 if name == "START_TIME" else np.int64,
        )
        for i, name in enumerate(names)
    }


def _assert_fields_equal(got: TrafficPatterns, want: dict) -> None:
    """Values, shapes and dtypes; dtypes only when non-empty, because the
    reference's weighted ``np.bincount`` of no rows comes back int64."""
    for name, expected in want.items():
        np.testing.assert_array_equal(
            getattr(got, name), expected, err_msg=name,
            strict=bool(expected.size),
        )


class TestGroupingKernel:
    @settings(max_examples=300, deadline=None)
    @given(
        n_groups=st.integers(1, 6),
        scale=st.sampled_from([50, 2**33, 2**63]),
        data=st.data(),
    )
    def test_distinct_per_group_matches_sets(self, n_groups, scale, data):
        """Negative values, spans past 2^32 (packed) and of the whole
        int64 range (lexsort), empty input, one group, groups with no
        values; values come from a small pool so groups share them."""
        pool = data.draw(st.lists(
            st.integers(-scale, scale - 1), min_size=1, max_size=4
        ))
        if scale == 2**63:
            pool += [-scale, scale - 1]
        rows = data.draw(st.lists(
            st.tuples(st.integers(0, n_groups - 1), st.sampled_from(pool)),
            max_size=40,
        ))
        g = np.array([r[0] for r in rows], dtype=np.int64)
        v = np.array([r[1] for r in rows], dtype=np.int64)
        pairs = set(zip(g.tolist(), v.tolist()))
        want = [sum(1 for a, _ in pairs if a == k) for k in range(n_groups)]
        got = _distinct_per_group(g, v, n_groups)
        assert got.tolist() == want

    def test_distinct_per_group_full_int64_span(self):
        """A span no packed key can hold: the lexsort path, with a value
        shared across the group boundary."""
        lo, hi = -(2**63), 2**63 - 1
        g = np.array([0, 1, 1, 1], dtype=np.int64)
        v = np.array([lo, hi, lo, lo], dtype=np.int64)
        assert _distinct_per_group(g, v, 3).tolist() == [1, 2, 0]

    @settings(max_examples=200, deadline=None)
    @given(
        cols=_flow_columns(),
        direction=st.sampled_from(["destination", "source"]),
    )
    def test_patterns_match_reference(self, cols, direction):
        got = build_traffic_patterns(cols, direction=direction)
        assert not got.window.any()
        _assert_fields_equal(got, _reference_patterns(cols, direction))

    @settings(max_examples=200, deadline=None)
    @given(
        cols=_flow_columns(),
        direction=st.sampled_from(["destination", "source"]),
        window_seconds=st.sampled_from([0.5, 5.0, 60.0]),
    )
    def test_windowed_patterns_match_per_window_reference(
        self, cols, direction, window_seconds
    ):
        """(window, IP) groups == the reference run on each window's
        rows, concatenated in window order."""
        _, window = window_index(cols, window_seconds)
        got = build_traffic_patterns(cols, direction=direction, window=window)
        windows = [*np.unique(window).tolist(), -1]  # -1: an empty slice
        parts = [
            _reference_patterns(
                {k: c[window == w] for k, c in cols.items()}, direction
            )
            for w in windows
        ]
        want = {
            name: np.concatenate([p[name] for p in parts])
            for name in parts[0]
        }
        want["window"] = np.concatenate([
            np.full(p["ips"].size, w, dtype=np.int64)
            for w, p in zip(windows, parts)
        ])
        _assert_fields_equal(got, want)
        assert set(want) == {f.name for f in fields(TrafficPatterns)} - {
            "direction"
        }
