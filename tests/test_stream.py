"""Tests for the micro-batch streaming pipeline (repro.stream)."""

import math
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import packets_from
from repro.detect import DetectionThresholds, OnlineDetector
from repro.netflow import FlowTable, assemble_flows
from repro.netflow.mapping import flow_table_to_property_graph
from repro.netflow.record import NetflowRecord
from repro.pcap import PacketTable, write_pcap
from repro.pcap.packet import (
    PROTO_UDP,
    ParsedPacket,
    build_ethernet_ipv4_packet,
)
from repro.serve import QueryServer
from repro.stream import (
    Batch,
    BoundedQueue,
    GraphAccumulator,
    PipelineAborted,
    ReplaySource,
    StreamPipeline,
    TraceSource,
    WindowAssembler,
)
from repro.stream.queues import CLOSE
from repro.trace import attacks
from repro.trace.hosts import ipv4
from repro.trace.synthesizer import TraceSynthesizer
from tests.flow_oracle import FlowAssembler
from tests.test_netflow_kernel import cut_traces

WINDOW = 5.0


def make_source(
    *, duration=20.0, rate=40.0, seed=11, attacks_=(), batch_packets=256
):
    return TraceSource(
        synthesizer=TraceSynthesizer(session_rate=rate, seed=seed),
        duration=duration,
        attacks=tuple(attacks_),
        batch_packets=batch_packets,
    )


def batch_reference(source, detector_kwargs=None):
    """The equivalent batch run: global stable sort + OnlineDetector."""
    records = list(assemble_flows(packets_from(iter(source.frames()))))
    records.sort(key=lambda r: r.start_time)
    det = OnlineDetector(**(detector_kwargs or {}))
    return records, list(det.run(records))


def record(start, src=1, dst=2, sport=1000, dport=80):
    return NetflowRecord(
        src_ip=src, dst_ip=dst, src_port=sport, dst_port=dport,
        protocol=6, start_time=start, duration_ms=100.0,
        out_bytes=100, in_bytes=100, out_pkts=1, in_pkts=1,
        syn_count=1, ack_count=1, state=3,
    )


def flows(*records):
    return FlowTable.from_records(list(records))


# ----------------------------------------------------------------------
class TestConfig:
    def test_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_STREAM_QUEUE", "3")
        monkeypatch.setenv("REPRO_STREAM_WINDOW", "2.5")
        monkeypatch.setenv("REPRO_STREAM_LATENESS", "1.5")
        source = make_source(duration=1.0)
        pipeline = StreamPipeline(
            source, queue_capacity=16, window_seconds="10", lateness=0
        )
        assert pipeline.queue_capacity == 16
        assert pipeline.window_seconds == 10.0
        assert pipeline.lateness == 0.0
        assert StreamPipeline(source, lateness="auto").lateness is None

    def test_invalid_values(self, monkeypatch):
        source = make_source(duration=1.0)
        with pytest.raises(ValueError, match="REPRO_STREAM_QUEUE"):
            StreamPipeline(source, queue_capacity=0)
        with pytest.raises(ValueError, match="REPRO_STREAM_WINDOW"):
            StreamPipeline(source, window_seconds=-1)
        with pytest.raises(ValueError, match="REPRO_STREAM_LATENESS"):
            StreamPipeline(source, lateness=-0.5)
        monkeypatch.setenv("REPRO_STREAM_QUEUE", "zero")
        with pytest.raises(ValueError, match="REPRO_STREAM_QUEUE"):
            StreamPipeline(source)


# ----------------------------------------------------------------------
class TestBoundedQueue:
    def test_fifo_and_high_water(self):
        q = BoundedQueue(4, name="t")
        abort = threading.Event()
        for i in range(3):
            q.put(i, abort)
        assert q.depth_high_water == 3
        assert [q.get(abort) for _ in range(3)] == [0, 1, 2]
        assert q.puts == 3

    def test_blocking_put_stalls_until_get(self):
        q = BoundedQueue(1, name="t")
        abort = threading.Event()
        q.put("a", abort)
        got = []

        def consume():
            time.sleep(0.15)
            got.append(q.get(abort))
            got.append(q.get(abort))

        t = threading.Thread(target=consume)
        t.start()
        q.put("b", abort)  # must block until the consumer drains "a"
        t.join()
        assert got == ["a", "b"]
        assert q.stall_count >= 1
        assert q.stall_seconds > 0
        assert q.depth_high_water <= 1

    def test_abort_unblocks_put(self):
        q = BoundedQueue(1, name="t")
        abort = threading.Event()
        q.put("a", abort)
        timer = threading.Timer(0.1, abort.set)
        timer.start()
        with pytest.raises(PipelineAborted):
            q.put("b", abort)
        timer.join()

    def test_abort_unblocks_get(self):
        q = BoundedQueue(1, name="t")
        abort = threading.Event()
        timer = threading.Timer(0.1, abort.set)
        timer.start()
        with pytest.raises(PipelineAborted):
            q.get(abort)
        timer.join()


# ----------------------------------------------------------------------
class TestWindowAssembler:
    def test_record_mode_windows_partition_by_start_time(self):
        wa = WindowAssembler(window_seconds=10.0)
        recs = [record(t) for t in (1.0, 2.0, 11.0, 12.0, 25.0)]
        windows = wa.process_records(flows(*recs))
        windows += wa.drain()
        assert [w.index for w in windows] == [0, 1, 2]
        assert [len(w) for w in windows] == [2, 2, 1]
        for w in windows:
            for r in w.table.records():
                assert w.start <= r.start_time < w.end

    def test_windows_sorted_by_start_time(self):
        wa = WindowAssembler(window_seconds=10.0)
        wa.process_records(flows(record(3.0), record(1.0), record(2.0)))
        (w,) = wa.drain()
        starts = [r.start_time for r in w.table.records()]
        assert starts == [1.0, 2.0, 3.0]

    def test_watermark_holds_window_until_lateness_passes(self):
        wa = WindowAssembler(window_seconds=10.0, lateness=5.0)
        # Clock 12 < end(0) + lateness: window 0 must stay open.
        assert wa.process_records(flows(record(1.0), record(12.0))) == []
        # Clock 15.1 pushes the watermark past end(0)=10.
        windows = wa.process_records(flows(record(15.1)))
        assert [w.index for w in windows] == [0]

    def test_late_record_rerouted_and_counted(self):
        wa = WindowAssembler(window_seconds=10.0, lateness=0.0)
        wa.process_records(flows(record(5.0)))
        windows = wa.process_records(flows(record(25.0)))  # closes window 0
        # Empty windows are never materialised: only window 0 comes out.
        assert [w.index for w in windows] == [0]
        assert [len(w) for w in windows] == [1]
        late = record(3.0)  # belongs to the already-emitted window 0
        rerouted = wa.process_records(flows(late))
        assert wa.late_flows == 1
        # The late record rides in the next unemitted window instead of
        # being dropped (here window 1, which the watermark has already
        # passed, so it comes straight out).
        assert any(late in w.table.records()
                   for w in rerouted + wa.drain())

    def test_drain_flushes_open_flows_and_partial_window(self):
        frames = TraceSource(
            synthesizer=TraceSynthesizer(session_rate=30.0, seed=5),
            duration=8.0,
        ).frames()
        packets = list(packets_from(iter(frames)))
        wa = WindowAssembler(window_seconds=WINDOW)
        windows = wa.process_packets(packets)
        windows += wa.drain()
        n_streamed = sum(len(w) for w in windows)
        n_batch = len(list(assemble_flows(packets_from(iter(frames)))))
        assert n_streamed == n_batch
        assert wa.flows_out == n_batch

    def test_auto_lateness_produces_no_late_flows(self):
        frames = TraceSource(
            synthesizer=TraceSynthesizer(session_rate=40.0, seed=6),
            duration=15.0,
        ).frames()
        wa = WindowAssembler(window_seconds=2.5)
        for i in range(0, len(frames), 100):
            wa.process_packets(
                list(packets_from(iter(frames[i : i + 100])))
            )
        wa.drain()
        assert wa.late_flows == 0

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            WindowAssembler(window_seconds=0)


# ----------------------------------------------------------------------
class TestGraphAccumulator:
    def test_incremental_graph_equals_batch_mapping(self):
        frames = TraceSource(
            synthesizer=TraceSynthesizer(session_rate=40.0, seed=8),
            duration=12.0,
        ).frames()
        wa = WindowAssembler(window_seconds=WINDOW)
        acc = GraphAccumulator()
        windows = wa.process_packets(list(packets_from(iter(frames))))
        windows += wa.drain()
        for w in windows:
            acc.fold(w)
        live = acc.graph()

        all_records = [r for w in windows for r in w.table.records()]
        batch = flow_table_to_property_graph(
            FlowTable.from_records(all_records)
        )
        assert live.n_vertices == batch.n_vertices
        assert live.n_edges == batch.n_edges
        np.testing.assert_array_equal(live.src, batch.src)
        np.testing.assert_array_equal(live.dst, batch.dst)
        np.testing.assert_array_equal(
            live.vertex_properties["ID"], batch.vertex_properties["ID"]
        )
        assert set(live.edge_properties) == set(batch.edge_properties)
        for name, col in batch.edge_properties.items():
            np.testing.assert_array_equal(
                live.edge_properties[name], np.asarray(col)
            )

    def test_published_graph_is_immutable_under_growth(self):
        acc = GraphAccumulator()
        wa = WindowAssembler(window_seconds=10.0)
        wa.process_records(flows(record(1.0, src=1, dst=2)))
        (w1,) = wa.drain()
        g1 = acc.fold(w1)
        src_before = g1.src.copy()
        wa2 = WindowAssembler(window_seconds=10.0)
        wa2.process_records(
            flows(record(11.0, src=3, dst=4), record(12.0, src=5, dst=6))
        )
        for w in wa2.drain():
            acc.fold(w)
        np.testing.assert_array_equal(g1.src, src_before)
        assert acc.n_vertices == 6


# ----------------------------------------------------------------------
class TestPipeline:
    def test_end_to_end_matches_batch(self):
        gt = attacks.syn_flood(
            attacker_ip=ipv4(203, 0, 113, 5), victim_ip=ipv4(10, 2, 0, 3),
            start_time=1_000_006.0, duration=5.0,
        )
        source = make_source(duration=18.0, attacks_=[gt])
        records, batch = batch_reference(source)
        result = StreamPipeline(
            source, detector=OnlineDetector(), window_seconds=WINDOW
        ).run()
        assert list(result.detections) == batch
        assert result.stats.flows == len(records)
        assert result.stats.late_flows == 0
        assert result.graph is not None
        assert result.graph.n_edges == len(records)

    @pytest.mark.parametrize("window_seconds", [2.5, 5.0])
    @pytest.mark.parametrize("queue_capacity", [1, 4])
    def test_byte_identity_across_knobs(self, window_seconds, queue_capacity):
        gt = attacks.udp_flood(
            attacker_ip=ipv4(203, 0, 113, 8), victim_ip=ipv4(10, 2, 0, 5),
            start_time=1_000_007.0,
        )
        source = make_source(duration=15.0, seed=23, attacks_=[gt])
        _, batch = batch_reference(source)
        result = StreamPipeline(
            source,
            detector=OnlineDetector(),
            window_seconds=window_seconds,
            queue_capacity=queue_capacity,
        ).run()
        assert list(result.detections) == batch
        assert result.stats.late_flows == 0

    @settings(max_examples=5, deadline=None)
    @given(
        schedule=st.lists(
            st.tuples(
                st.sampled_from(
                    ["syn_flood", "host_scan", "udp_flood", "icmp_flood"]
                ),
                st.floats(min_value=1.0, max_value=10.0),
                st.floats(min_value=1.0, max_value=4.0),
            ),
            min_size=0,
            max_size=3,
        ),
        window_seconds=st.sampled_from([2.0, 5.0]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_byte_identity_random_attack_schedules(
        self, schedule, window_seconds, seed
    ):
        builders = {
            "syn_flood": lambda t, d, i: attacks.syn_flood(
                attacker_ip=ipv4(203, 0, 113, 10 + i),
                victim_ip=ipv4(10, 2, 0, 2 + i),
                start_time=t, duration=d, n_packets=400, seed=seed + i,
            ),
            "host_scan": lambda t, d, i: attacks.host_scan(
                attacker_ip=ipv4(203, 0, 113, 10 + i),
                victim_ip=ipv4(10, 2, 0, 2 + i),
                start_time=t, duration=d, n_ports=120, seed=seed + i,
            ),
            "udp_flood": lambda t, d, i: attacks.udp_flood(
                attacker_ip=ipv4(203, 0, 113, 10 + i),
                victim_ip=ipv4(10, 2, 0, 2 + i),
                start_time=t, duration=d, n_packets=500, seed=seed + i,
            ),
            "icmp_flood": lambda t, d, i: attacks.icmp_flood(
                attacker_ip=ipv4(203, 0, 113, 10 + i),
                victim_ip=ipv4(10, 2, 0, 2 + i),
                start_time=t, duration=d, n_packets=500, seed=seed + i,
            ),
        }
        gts = [
            builders[kind](1_000_000.0 + offset, duration, i)
            for i, (kind, offset, duration) in enumerate(schedule)
        ]
        source = make_source(
            duration=12.0, rate=25.0, seed=seed, attacks_=gts,
            batch_packets=128,
        )
        _, batch = batch_reference(
            source, detector_kwargs={"cooldown_seconds": 5.0}
        )
        result = StreamPipeline(
            source,
            detector=OnlineDetector(cooldown_seconds=5.0),
            window_seconds=window_seconds,
            queue_capacity=2,
        ).run()
        assert list(result.detections) == batch
        assert result.stats.late_flows == 0

    def test_backpressure_bounds_queue_depth(self):
        source = make_source(duration=15.0, batch_packets=64)
        result = StreamPipeline(
            source,
            detector=OnlineDetector(),
            window_seconds=2.5,
            queue_capacity=2,
            sink_delay_seconds=0.02,
        ).run()
        stats = result.stats
        for q in stats.queues:
            assert q.depth_high_water <= q.capacity
        assert any(q.backpressure_stalls > 0 for q in stats.queues)
        assert sum(q.stall_seconds for q in stats.queues) > 0

    def test_lateness_setting_reaches_the_assembler(
        self, tmp_path, monkeypatch
    ):
        """REPRO_STREAM_LATENESS changes what the pipeline does: at 0 a
        flow longer than a window arrives after its window closed and is
        counted late; unset (``auto``) nothing is late."""
        start = 1_000_000.0
        background = TraceSynthesizer(session_rate=40.0, seed=7).generate(
            12.0, start_time=start
        )
        # One UDP flow, a packet a second for 11 s: four windows long.
        long_flow = [
            (start + 0.5 + i, build_ethernet_ipv4_packet(
                src_ip=ipv4(10, 9, 0, 1), dst_ip=ipv4(10, 9, 0, 2),
                protocol=PROTO_UDP, src_port=5000, dst_port=53,
                payload_len=10,
            ))
            for i in range(12)
        ]
        path = tmp_path / "long.pcap"
        write_pcap(path, sorted(background + long_flow, key=lambda f: f[0]))

        def late_flows():
            return StreamPipeline(
                ReplaySource(path), window_seconds=2.5
            ).run().stats.late_flows

        monkeypatch.setenv("REPRO_STREAM_LATENESS", "0")
        assert late_flows() > 0
        monkeypatch.delenv("REPRO_STREAM_LATENESS")
        assert late_flows() == 0

    def test_stop_requests_early_clean_drain(self):
        source = make_source(duration=30.0, batch_packets=32)
        pipeline = StreamPipeline(
            source, detector=OnlineDetector(), window_seconds=WINDOW,
            queue_capacity=1, sink_delay_seconds=0.01,
        )
        timer = threading.Timer(0.2, pipeline.stop)
        timer.start()
        result = pipeline.run()
        timer.join()
        assert pipeline.stopped
        # Fewer packets than the full trace, but the drain still ran:
        # every assembled flow reached the sink.
        full_packets = len(list(packets_from(iter(source.frames()))))
        assert result.stats.packets < full_packets
        assert result.stats.flows == result.stats.stage("sink").events_in

    def test_query_server_swapped_per_window(self):
        source = make_source(duration=12.0)
        server = QueryServer(GraphAccumulator().graph(), threads=1)
        epoch0 = server.epoch
        result = StreamPipeline(
            source, detector=OnlineDetector(), window_seconds=2.5,
            server=server,
        ).run()
        assert result.windows > 0
        assert server.epoch == epoch0 + result.windows
        assert server.snapshot.graph.n_edges == result.graph.n_edges

    def test_stage_error_propagates(self):
        class BrokenSource:
            attacks = ()

            def batches(self):
                yield Batch(kind="packets", items=())
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="source.*boom"):
            StreamPipeline(BrokenSource(), window_seconds=WINDOW).run()

    def test_pipeline_runs_once(self):
        source = make_source(duration=2.0)
        pipeline = StreamPipeline(source, window_seconds=WINDOW)
        pipeline.run()
        with pytest.raises(RuntimeError, match="runs once"):
            pipeline.run()

    def test_ground_truth_latencies_reported(self, tmp_path):
        background = TraceSynthesizer(session_rate=40.0, seed=17)
        gt = attacks.syn_flood(
            attacker_ip=ipv4(203, 0, 113, 5), victim_ip=ipv4(10, 2, 0, 2),
            start_time=1_000_008.0, duration=4.0,
        )
        clean = TraceSynthesizer(session_rate=40.0, seed=17).generate(
            20.0, start_time=1_000_000.0
        )
        table = FlowTable.from_records(
            sorted(
                assemble_flows(packets_from(clean)),
                key=lambda r: r.start_time,
            )
        )
        thresholds = DetectionThresholds.fit_normal(
            {k: table[k] for k in FlowTable.COLUMN_NAMES},
            window_seconds=WINDOW,
        )
        source = TraceSource(
            synthesizer=background, duration=20.0, attacks=(gt,)
        )
        result = StreamPipeline(
            source,
            detector=OnlineDetector(thresholds, window_seconds=WINDOW),
            window_seconds=WINDOW,
        ).run()
        (lat,) = result.latencies
        assert lat.kind == "syn_flood"
        assert lat.detected
        assert lat.seconds_to_detection is not None
        assert 0 <= lat.seconds_to_detection < gt.end_time - gt.start_time + WINDOW


# ----------------------------------------------------------------------
class TestReplaySource:
    def test_npz_replay_matches_live_flows(self, tmp_path):
        source = make_source(duration=10.0, seed=31)
        records = list(
            assemble_flows(packets_from(iter(source.frames())))
        )
        table = FlowTable.from_records(records)
        path = tmp_path / "flows.npz"
        table.save_npz(path)

        replay = ReplaySource(path, batch_packets=64)
        result = StreamPipeline(
            replay, detector=OnlineDetector(), window_seconds=WINDOW
        ).run()
        assert result.stats.flows == len(records)

        det = OnlineDetector()
        batch = list(
            det.run(sorted(records, key=lambda r: r.start_time))
        )
        assert list(result.detections) == batch

    def test_rejects_unknown_suffix(self, tmp_path):
        bogus = tmp_path / "trace.txt"
        bogus.write_text("nope")
        with pytest.raises(ValueError, match="unsupported replay"):
            ReplaySource(bogus)


# ----------------------------------------------------------------------
class TestQueueSentinel:
    def test_close_drains_in_order(self):
        q = BoundedQueue(4, name="t")
        abort = threading.Event()
        q.put(1, abort)
        q.close(abort)
        assert q.get(abort) == 1
        assert q.get(abort) is CLOSE


# ----------------------------------------------------------------------
class TestColumnsEndToEnd:
    def test_stream_path_builds_no_packet_or_flow_objects(self, tmp_path):
        """Packets and flows stay columns from the capture to the
        detector; record objects exist only where ``table.records()`` is
        read."""
        frames = TraceSynthesizer(session_rate=40.0, seed=3).generate(5.0)
        path = tmp_path / "stream.pcap"
        write_pcap(path, frames)
        made = {ParsedPacket: 0, NetflowRecord: 0, "rows": 0}

        def counting(cls):
            init = cls.__init__

            def __init__(self, *args, **kwargs):
                made[cls] += 1
                init(self, *args, **kwargs)

            return mock.patch.object(cls, "__init__", __init__)

        from_records = FlowTable.from_records
        one = flows(record(1.0))

        def spy(records):
            made["rows"] += 1
            return from_records(records)

        with counting(ParsedPacket), counting(NetflowRecord), \
                mock.patch.object(FlowTable, "from_records", spy):
            result = StreamPipeline(
                ReplaySource(path), window_seconds=1.0
            ).run()
            assert made == {ParsedPacket: 0, NetflowRecord: 0, "rows": 0}
            wa = WindowAssembler(window_seconds=10.0)
            (window,) = wa.process_records(one) + wa.drain()
            assert made[NetflowRecord] == 0
            assert len(list(window.table.records())) == 1
            assert made[NetflowRecord] == 1
        assert result.stats.packets > 4_000 and result.stats.flows > 100

    @settings(max_examples=60, deadline=None)
    @given(
        trace=cut_traces(regressions=True),
        window_seconds=st.sampled_from([0.5, 2.0]),
        lateness=st.sampled_from([None, 0.0, 0.5, 3.0]),
    )
    def test_non_monotone_stream_equals_packet_by_packet(
        self, trace, window_seconds, lateness
    ):
        """Timestamps that go backwards inside batches and across batch
        cuts: windows, late flows and detections equal a FlowAssembler
        fed packet by packet with flows windowed one at a time."""
        packets, cuts, timeouts = trace
        bounds = [0, *sorted(cuts), len(packets)]
        batches = [packets[a:b] for a, b in zip(bounds, bounds[1:])]
        wa = WindowAssembler(
            window_seconds=window_seconds, lateness=lateness, **timeouts
        )
        windows = [
            w for batch in batches
            for w in wa.process_packets(PacketTable.pack(batch))
        ] + wa.drain()
        expected, late = reference_windows(
            batches, window_seconds=window_seconds,
            lateness=(max(timeouts.values()) if lateness is None
                      else lateness),
            **timeouts,
        )
        got = [(w.index, list(w.table.records())) for w in windows]
        assert got == expected
        assert wa.late_flows == late

        loud = DetectionThresholds(fs_lt=0.0, fs_ht=0.0, np_lt=0.0,
                                   np_ht=0.0)
        streamed = OnlineDetector(loud, cooldown_seconds=1.0)
        alarms = [a for w in windows
                  for a in streamed.process_table(w.table)]
        alarms += streamed.flush()
        reference = OnlineDetector(loud, cooldown_seconds=1.0).run(
            [r for _, rows in expected for r in rows]
        )
        assert [(a, a.detection.evidence) for a in alarms] == [
            (a, a.detection.evidence) for a in reference
        ]


def reference_windows(batches, *, window_seconds, lateness, **timeouts):
    """Windows as ``(index, records)`` and the late-flow count of a
    FlowAssembler fed packet by packet, its flows bucketed one by one."""
    assembler = FlowAssembler(**timeouts)
    buckets, windows = {}, []
    state = {"next": None, "late": 0, "clock": -math.inf}

    def admit(r):
        idx = math.floor(r.start_time / window_seconds)
        if state["next"] is not None and idx < state["next"]:
            state["late"] += 1
            idx = state["next"]
        buckets.setdefault(idx, []).append(r)

    def emit(cutoff):
        out = [
            (idx, sorted(buckets.pop(idx), key=lambda r: r.start_time))
            for idx in sorted(buckets) if idx < cutoff
        ]
        if out:
            state["next"] = max(state["next"] or -(2**62), out[-1][0] + 1)
        windows.extend(out)

    for batch in batches:
        for pkt in batch:
            for r in assembler.process(pkt):
                admit(r)
            state["clock"] = max(state["clock"], pkt.timestamp)
        if buckets:
            emit(math.floor((state["clock"] - lateness) / window_seconds))
    for r in assembler.flush():
        admit(r)
    emit(math.inf)
    return windows, state["late"]
