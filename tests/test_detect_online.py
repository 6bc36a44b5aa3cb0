"""Tests for the streaming (online) detector."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import packets_from
from repro.detect import (
    DetectionThresholds,
    NetflowAnomalyDetector,
    OnlineDetector,
)
from repro.netflow import FlowTable, assemble_flows
from repro.netflow.record import NetflowRecord
from repro.trace import attacks, synthesize_seed_packets
from repro.trace.hosts import ipv4

WINDOW = 5.0


def sorted_records(frames):
    frames = sorted(frames, key=lambda f: f[0])
    records = list(assemble_flows(packets_from(frames)))
    records.sort(key=lambda r: r.start_time)
    return records


@pytest.fixture(scope="module")
def background():
    return synthesize_seed_packets(duration=20.0, session_rate=40, seed=9)


@pytest.fixture(scope="module")
def thresholds(background):
    table = FlowTable.from_records(sorted_records(background))
    return DetectionThresholds.fit_normal(
        {k: table[k] for k in FlowTable.COLUMN_NAMES},
        window_seconds=WINDOW,
    )


class TestStreaming:
    def test_detects_attack_mid_stream(self, background, thresholds):
        victim = ipv4(10, 2, 0, 3)
        gt = attacks.syn_flood(
            attacker_ip=ipv4(203, 0, 113, 5), victim_ip=victim,
            start_time=1_000_008.0, duration=4.0,
        )
        records = sorted_records(list(background) + gt.frames)
        detector = OnlineDetector(thresholds, window_seconds=WINDOW)
        alerts = list(detector.run(records))
        syn_alerts = [
            a for a in alerts
            if "syn" in a.detection.kind and a.detection.ip == victim
        ]
        assert syn_alerts
        # The alarm fires while the attack is in flight or shortly after,
        # never before it started.
        assert all(a.time >= gt.start_time for a in syn_alerts)
        assert min(a.time for a in syn_alerts) <= gt.end_time + 2 * WINDOW

    def test_clean_stream_quiet(self, background, thresholds):
        records = sorted_records(background)
        detector = OnlineDetector(thresholds, window_seconds=WINDOW)
        assert list(detector.run(records)) == []

    def test_cooldown_suppresses_repeats(self, background, thresholds):
        victim = ipv4(10, 2, 0, 3)
        gt = attacks.syn_flood(
            attacker_ip=ipv4(203, 0, 113, 5), victim_ip=victim,
            start_time=1_000_006.0, duration=10.0, n_packets=6000,
        )
        records = sorted_records(list(background) + gt.frames)

        def count_alerts(cooldown):
            det = OnlineDetector(
                thresholds, window_seconds=WINDOW,
                cooldown_seconds=cooldown,
            )
            return sum(
                1 for a in det.run(records)
                if "syn" in a.detection.kind and a.detection.ip == victim
            )

        assert count_alerts(1e9) == 1
        assert count_alerts(0.0) >= count_alerts(1e9)

    def test_window_evicts_old_flows(self, background, thresholds):
        records = sorted_records(background)
        detector = OnlineDetector(thresholds, window_seconds=2.0)
        for r in records:
            detector.process_table(FlowTable.from_records([r]))
        in_window = [
            r for r in records
            if r.start_time >= records[-1].start_time - 10 * 2.0
        ]
        # The deque can only hold flows near the stream head.
        assert detector.window_size <= len(in_window)
        assert detector.flows_processed == len(records)

    def test_flush_evaluates_tail(self, thresholds):
        gt = attacks.syn_flood(
            attacker_ip=1, victim_ip=2, start_time=100.0, duration=1.0,
        )
        records = sorted_records(gt.frames)
        detector = OnlineDetector(thresholds, window_seconds=WINDOW)
        mid = [d for r in records
               for d in detector.process_table(FlowTable.from_records([r]))]
        tail = detector.flush()
        kinds = {a.detection.kind for a in mid + tail}
        assert any("syn" in k or k == "host_scan" for k in kinds)

    def test_flush_empty(self, thresholds):
        assert OnlineDetector(thresholds).flush() == []

    def test_flush_never_double_reports(self, background, thresholds):
        """A drain must not re-raise alarms the hop evaluations already
        emitted — even with cooldown 0, where nothing else suppresses
        the repeat."""
        gt = attacks.syn_flood(
            attacker_ip=ipv4(203, 0, 113, 5), victim_ip=ipv4(10, 2, 0, 3),
            start_time=1_000_008.0, duration=4.0,
        )
        records = sorted_records(list(background) + gt.frames)
        detector = OnlineDetector(
            thresholds, window_seconds=WINDOW, cooldown_seconds=0.0
        )
        mid = [d for r in records
               for d in detector.process_table(FlowTable.from_records([r]))]
        assert mid, "attack should alert before the drain"
        mid_keys = {
            (a.detection.kind, a.detection.ip, a.detection.direction)
            for a in mid
        }
        flushed = detector.flush()
        flushed_keys = {
            (a.detection.kind, a.detection.ip, a.detection.direction)
            for a in flushed
        }
        assert not (mid_keys & flushed_keys)

    def test_flush_sorted_and_idempotent(self, background, thresholds):
        gt = attacks.udp_flood(
            attacker_ip=ipv4(203, 0, 113, 8), victim_ip=ipv4(10, 2, 0, 5),
            start_time=1_000_015.0,
        )
        records = sorted_records(list(background) + gt.frames)
        detector = OnlineDetector(
            thresholds, window_seconds=WINDOW, cooldown_seconds=0.0
        )
        for r in records:
            detector.process_table(FlowTable.from_records([r]))
        flushed = detector.flush()
        times = [a.time for a in flushed]
        assert times == sorted(times)
        keys = [
            (a.detection.kind, a.detection.ip, a.detection.direction)
            for a in flushed
        ]
        assert len(keys) == len(set(keys))
        # A second drain without new records reports nothing new.
        assert detector.flush() == []

    def test_validation(self):
        with pytest.raises(ValueError):
            OnlineDetector(window_seconds=0)
        with pytest.raises(ValueError):
            OnlineDetector(hop_seconds=0)
        with pytest.raises(ValueError):
            OnlineDetector(cooldown_seconds=-1)

    def test_matches_windowed_batch_on_same_stream(
        self, background, thresholds
    ):
        """Streaming with hop == window reproduces the batch windowed
        detector's alarm set (same logic, same aggregation)."""
        from repro.detect import NetflowAnomalyDetector

        gt = attacks.udp_flood(
            attacker_ip=ipv4(203, 0, 113, 8),
            victim_ip=ipv4(10, 2, 0, 5), start_time=1_000_007.0,
        )
        records = sorted_records(list(background) + gt.frames)
        table = FlowTable.from_records(records)
        batch = NetflowAnomalyDetector(thresholds).detect_windowed(
            {k: table[k] for k in FlowTable.COLUMN_NAMES},
            window_seconds=WINDOW,
        )
        batch_kinds = {(d.kind, d.ip) for d in batch}

        stream = OnlineDetector(
            thresholds, window_seconds=WINDOW, hop_seconds=WINDOW,
            cooldown_seconds=0.0,
        )
        stream_kinds = {
            (a.detection.kind, a.detection.ip)
            for a in stream.run(records)
        }
        # Streaming windows are phase-shifted relative to batch windows, so
        # demand overlap on the attack alarms rather than equality.
        attack_alarms = {
            k for k in batch_kinds if k[1] in (gt.victim_ips[0],
                                               gt.attacker_ips[0])
        }
        assert attack_alarms & stream_kinds


# ----------------------------------------------------------------------
# process_table against a per-hop reference
# ----------------------------------------------------------------------
# Every group with traffic trips the flood rules, so each hop reports its
# window's flow counts in the alarms' evidence.
LOUD = DetectionThresholds(fs_lt=0.0, fs_ht=0.0, np_lt=0.0, np_ht=0.0)


def flow(start, src=1, dst=2, dport=80, size=100):
    return NetflowRecord(
        src_ip=src, dst_ip=dst, protocol=6, src_port=1000, dst_port=dport,
        start_time=start, duration_ms=1.0, out_bytes=size, in_bytes=0,
        out_pkts=1, in_pkts=1, state=3, syn_count=1, ack_count=1,
    )


def reference(records, thresholds, window, hop, cooldown):
    """Hop by hop, each over the flows that had arrived with
    ``t - window <= start`` — the membership rule — then the drain."""
    detector = NetflowAnomalyDetector(thresholds)
    arrived, last, out = [], {}, []
    next_eval = None

    def evaluate(t):
        rows = [r for r in arrived if r.start_time >= t - window]
        found = []
        if not rows:
            return found
        for det in detector.detect(FlowTable.from_records(rows)):
            key = (det.kind, det.ip, det.direction)
            if key in last and t - last[key] < cooldown:
                continue
            last[key] = t
            found.append((t, det))
        return found

    for r in records:
        if next_eval is None:
            next_eval = r.start_time + hop
        while r.start_time >= next_eval:
            out += evaluate(next_eval)
            next_eval += hop
        arrived.append(r)
    if not arrived:
        return out
    end = max(r.start_time for r in arrived) + 1e-9
    already, tail = set(last), []
    while next_eval < end:
        tail += evaluate(next_eval)
        next_eval += hop
    tail += evaluate(end)
    seen = set()
    for t, det in tail:
        key = (det.kind, det.ip, det.direction)
        if key not in already and key not in seen:
            seen.add(key)
            out.append((t, det))
    return out


def as_tuples(alerts):
    return [
        (a.time, a.detection.kind, a.detection.ip, a.detection.direction,
         a.detection.evidence)
        for a in alerts
    ]


class TestColumns:
    def test_a_late_flow_counts_only_in_hops_whose_window_holds_it(self):
        """W=5, hop=2.5: the flow starting at 1.0 arrives after the one at
        3.0; the hop at 7.5 evaluates [2.5, 7.5) and must not count it."""
        records = [flow(t) for t in (0.0, 3.0, 1.0, 6.0, 8.5, 11.0)]
        detector = OnlineDetector(
            LOUD, window_seconds=5.0, hop_seconds=2.5, cooldown_seconds=0.0
        )
        counts = [
            (a.time, a.detection.evidence["n_flows"])
            for a in detector.run(records)
            if a.detection.direction == "destination"
        ]
        assert counts == [(2.5, 1), (5.0, 3), (7.5, 2), (10.0, 2)]

    @settings(max_examples=150, deadline=None)
    @given(
        starts=st.lists(
            st.tuples(
                st.floats(0.0, 20.0, allow_nan=False),
                st.integers(1, 3), st.integers(1, 3),
                st.integers(1, 4), st.integers(0, 3000),
            ),
            max_size=40,
        ),
        late=st.booleans(),
        window=st.sampled_from([1.0, 2.5, 5.0]),
        hop=st.sampled_from([None, 0.7, 5.0]),
        cooldown=st.sampled_from([0.0, 3.0, 30.0]),
        cuts=st.lists(st.integers(0, 40), max_size=5),
    )
    def test_process_table_equals_the_per_hop_reference(
        self, starts, late, window, hop, cooldown, cuts
    ):
        """Wherever the flows are cut into tables — and one by one through
        ``process`` — the alarms equal the per-hop reference, evidence
        included, with late (out-of-order) flows or without."""
        records = [
            flow(t, src=src, dst=dst, dport=80 + port, size=size)
            for t, src, dst, port, size in starts
        ]
        if not late:
            records.sort(key=lambda r: r.start_time)
        expected = [
            (t, d.kind, d.ip, d.direction, d.evidence)
            for t, d in reference(
                records, LOUD, window, hop or window / 2, cooldown
            )
        ]

        def detector():
            return OnlineDetector(
                LOUD, window_seconds=window, hop_seconds=hop,
                cooldown_seconds=cooldown,
            )

        batched, det = [], detector()
        bounds = [0, *sorted(c for c in cuts if c <= len(records)),
                  len(records)]
        for a, b in zip(bounds, bounds[1:]):
            batched += det.process_table(
                FlowTable.from_records(records[a:b])
            )
        batched += det.flush()
        assert as_tuples(batched) == expected

        one, det = [], detector()
        for r in records:
            one += det.process_table(FlowTable.from_records([r]))
        one += det.flush()
        assert as_tuples(one) == expected
