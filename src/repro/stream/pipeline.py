"""The micro-batch streaming pipeline: threads, queues, drain, report.

Stage graph (one thread per stage, bounded queues between them)::

    source ──q packets──▶ assembly ──q windows──▶ graph ──q windows──▶ sink

* **source** — pulls micro-batches from a :class:`TraceSource` /
  :class:`ReplaySource`;
* **assembly** — runs the :class:`~repro.stream.stages.WindowAssembler`
  (flow assembly + watermark-driven window close);
* **graph** — folds each window into the
  :class:`~repro.stream.stages.GraphAccumulator`'s live
  :class:`~repro.graph.property_graph.PropertyGraph` and, when a
  :class:`~repro.serve.QueryServer` is attached, installs the updated
  graph via :meth:`~repro.serve.QueryServer.swap` so concurrent queries
  answer against the live stream;
* **sink** — feeds each window's flows to an
  :class:`~repro.detect.OnlineDetector` and matches alarms against the
  injected :class:`~repro.trace.attacks.AttackGroundTruth` list to
  report time-to-detection.

Every stage is deterministic given its input sequence, and the queues
preserve order, so the streamed detections are a pure function of the
source stream — independent of thread scheduling, queue capacity and
window size (under ``auto`` lateness; see :mod:`repro.stream.stages`).

``stop()`` requests an early, *clean* end: the source stops emitting and
the drain protocol runs as usual (assembler flush, partial windows
emitted, detector flushed).  A stage exception aborts the run: the abort
event unblocks every queue operation and :meth:`StreamPipeline.run`
re-raises the stage's error.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro import config
from repro.detect.online import OnlineDetector, TimedDetection
from repro.stream.queues import CLOSE, BoundedQueue, PipelineAborted
from repro.stream.sources import Batch
from repro.stream.stages import GraphAccumulator, WindowAssembler
from repro.stream.stats import QueueStats, StageStats, StreamStats

__all__ = ["StreamPipeline", "StreamResult", "DetectionLatency",
           "match_ground_truth"]


# Ground-truth kind -> detector kinds that count as catching it.
_MATCHING_KINDS = {
    "syn_flood": ("syn_flood", "ddos_syn_flood", "tcp_flood"),
    "ddos_syn_flood": ("ddos_syn_flood", "syn_flood", "tcp_flood"),
    "host_scan": ("host_scan",),
    "network_scan": ("network_scan",),
    "udp_flood": ("udp_flood", "udp_flood_source"),
    "icmp_flood": ("icmp_flood", "icmp_flood_source"),
}


@dataclass(frozen=True)
class DetectionLatency:
    """Time-to-detection for one injected attack."""

    kind: str
    attack_start: float
    attack_end: float
    detected_kind: str | None
    detected_at: float | None

    @property
    def detected(self) -> bool:
        return self.detected_at is not None

    @property
    def seconds_to_detection(self) -> float | None:
        if self.detected_at is None:
            return None
        return self.detected_at - self.attack_start


def match_ground_truth(
    detections: list[TimedDetection], ground_truth
) -> list[DetectionLatency]:
    """Match the alarm stream against injected attacks.

    An alarm catches an attack when its kind is in the attack's accepted
    set, its detection IP is one of the attack's endpoints, and it fired
    at or after the attack began; the earliest such alarm defines the
    time-to-detection.
    """
    out = []
    for gt in ground_truth:
        kinds = _MATCHING_KINDS.get(gt.kind, (gt.kind,))
        ips = set(gt.victim_ips) | set(gt.attacker_ips)
        hit = None
        for alert in detections:
            det = alert.detection
            if (
                det.kind in kinds
                and det.ip in ips
                and alert.time >= gt.start_time
            ):
                hit = alert
                break
        out.append(
            DetectionLatency(
                kind=gt.kind,
                attack_start=gt.start_time,
                attack_end=gt.end_time,
                detected_kind=hit.detection.kind if hit else None,
                detected_at=hit.time if hit else None,
            )
        )
    return out


@dataclass(frozen=True)
class StreamResult:
    """Everything one pipeline run produces."""

    detections: tuple[TimedDetection, ...]
    latencies: tuple[DetectionLatency, ...]
    stats: StreamStats
    graph: object  # final live PropertyGraph (None if no flows)
    windows: int


class _Stage:
    """Bookkeeping shared by the four stage threads."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.events_in = 0
        self.events_out = 0
        self.batches_in = 0
        self.batches_out = 0
        self.busy_seconds = 0.0

    def stats(self) -> StageStats:
        return StageStats(
            name=self.name,
            events_in=self.events_in,
            events_out=self.events_out,
            batches_in=self.batches_in,
            batches_out=self.batches_out,
            busy_seconds=self.busy_seconds,
        )


class StreamPipeline:
    """Bounded-queue micro-batch pipeline from trace source to online
    detection.

    Parameters
    ----------
    source:
        A :class:`~repro.stream.sources.TraceSource` or
        :class:`~repro.stream.sources.ReplaySource`.
    detector:
        The online detector the sink drives; a default
        :class:`OnlineDetector` when omitted.
    window_seconds, lateness, queue_capacity:
        Micro-batch knobs (argument → ``REPRO_STREAM_WINDOW`` /
        ``REPRO_STREAM_LATENESS`` / ``REPRO_STREAM_QUEUE`` env var →
        default).
    idle_timeout, max_flow_duration:
        Flow-assembly timeouts (also the inputs to the ``auto``
        lateness bound).
    server:
        Optional :class:`~repro.serve.QueryServer`; the graph stage
        swaps the live graph into it after every window.
    ground_truth:
        Injected attacks to match for time-to-detection.  Defaults to
        ``source.attacks`` when the source carries them.
    sink_delay_seconds:
        Artificial per-window sink latency (benchmarks/tests use it to
        force backpressure; keep 0 otherwise).
    """

    def __init__(
        self,
        source,
        *,
        detector: OnlineDetector | None = None,
        window_seconds: float | str | None = None,
        lateness: float | str | None = None,
        queue_capacity: int | str | None = None,
        idle_timeout: float = 60.0,
        max_flow_duration: float = 3600.0,
        server=None,
        ground_truth=None,
        sink_delay_seconds: float = 0.0,
    ) -> None:
        self.source = source
        self.detector = detector if detector is not None else OnlineDetector()
        self.window_seconds = config.resolve("stream_window", window_seconds)
        self.lateness = config.resolve("stream_lateness", lateness)
        self.queue_capacity = config.resolve("stream_queue", queue_capacity)
        self.idle_timeout = idle_timeout
        self.max_flow_duration = max_flow_duration
        self.server = server
        if ground_truth is None:
            ground_truth = tuple(getattr(source, "attacks", ()) or ())
        self.ground_truth = tuple(ground_truth)
        if sink_delay_seconds < 0:
            raise ValueError("sink_delay_seconds must be non-negative")
        self.sink_delay_seconds = sink_delay_seconds

        self._stop = threading.Event()
        self._abort = threading.Event()
        self._errors: list[tuple[str, BaseException]] = []
        self._errors_lock = threading.Lock()
        self._ran = False

    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Ask the source to finish early; the drain still runs."""
        self._stop.set()

    @property
    def stopped(self) -> bool:
        return self._stop.is_set()

    # ------------------------------------------------------------------
    def run(self) -> StreamResult:
        """Run the pipeline to completion and return the drain report."""
        if self._ran:
            raise RuntimeError("a StreamPipeline instance runs once")
        self._ran = True

        cap = self.queue_capacity
        q_packets = BoundedQueue(cap, name="source→assembly")
        q_windows = BoundedQueue(cap, name="assembly→graph")
        q_detect = BoundedQueue(cap, name="graph→sink")

        assembler = WindowAssembler(
            window_seconds=self.window_seconds,
            lateness=self.lateness,
            idle_timeout=self.idle_timeout,
            max_flow_duration=self.max_flow_duration,
        )
        accumulator = GraphAccumulator()
        stages = {
            name: _Stage(name)
            for name in ("source", "assembly", "graph", "sink")
        }
        detections: list[TimedDetection] = []
        window_latencies: list[float] = []
        windows_seen = [0]

        def guarded(name: str, body) -> None:
            try:
                body()
            except PipelineAborted:
                pass
            except BaseException as exc:  # noqa: BLE001 - reported to run()
                with self._errors_lock:
                    self._errors.append((name, exc))
                self._abort.set()

        # -- source ----------------------------------------------------
        def run_source() -> None:
            st = stages["source"]
            t0 = time.perf_counter()
            batches = self.source.batches()
            st.busy_seconds += time.perf_counter() - t0
            for batch in batches:
                if self._stop.is_set():
                    break
                st.batches_out += 1
                st.events_out += len(batch)
                q_packets.put(batch, self._abort)
            q_packets.close(self._abort)

        # -- assembly --------------------------------------------------
        def run_assembly() -> None:
            st = stages["assembly"]
            while True:
                item = q_packets.get(self._abort)
                if item is CLOSE:
                    t0 = time.perf_counter()
                    closed = assembler.drain()
                    st.busy_seconds += time.perf_counter() - t0
                else:
                    st.batches_in += 1
                    st.events_in += len(item)
                    t0 = time.perf_counter()
                    if item.kind == "packets":
                        closed = assembler.process_packets(item.items)
                    else:
                        closed = assembler.process_records(item.items)
                    st.busy_seconds += time.perf_counter() - t0
                for window in closed:
                    st.batches_out += 1
                    st.events_out += len(window)
                    q_windows.put(window, self._abort)
                if item is CLOSE:
                    q_windows.close(self._abort)
                    return

        # -- graph delta -----------------------------------------------
        def run_graph() -> None:
            st = stages["graph"]
            while True:
                window = q_windows.get(self._abort)
                if window is CLOSE:
                    q_detect.close(self._abort)
                    return
                st.batches_in += 1
                st.events_in += len(window)
                t0 = time.perf_counter()
                graph = accumulator.fold(window)
                if self.server is not None:
                    self.server.swap(graph)
                st.busy_seconds += time.perf_counter() - t0
                st.batches_out += 1
                st.events_out += len(window)
                q_detect.put(window, self._abort)

        # -- detection sink --------------------------------------------
        def run_sink() -> None:
            st = stages["sink"]
            while True:
                window = q_detect.get(self._abort)
                if window is CLOSE:
                    t0 = time.perf_counter()
                    detections.extend(self.detector.flush())
                    st.busy_seconds += time.perf_counter() - t0
                    return
                st.batches_in += 1
                st.events_in += len(window)
                if self.sink_delay_seconds:
                    time.sleep(self.sink_delay_seconds)
                t0 = time.perf_counter()
                detections.extend(self.detector.process_table(window.table))
                st.busy_seconds += time.perf_counter() - t0
                windows_seen[0] += 1
                window_latencies.append(
                    time.perf_counter() - window.closed_at_wall
                )
                st.events_out += len(window)
                st.batches_out += 1

        bodies = {
            "source": run_source,
            "assembly": run_assembly,
            "graph": run_graph,
            "sink": run_sink,
        }
        threads = [
            threading.Thread(
                target=guarded, args=(name, body),
                name=f"repro-stream-{name}", daemon=True,
            )
            for name, body in bodies.items()
        ]
        wall0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - wall0

        if self._errors:
            name, exc = self._errors[0]
            raise RuntimeError(f"stream stage {name!r} failed: {exc}") from exc

        stats = StreamStats.build(
            wall_seconds=wall,
            stages=[stages[n].stats() for n in bodies],
            queues=[
                QueueStats(
                    name=q.name,
                    capacity=q.capacity,
                    puts=q.puts,
                    depth_high_water=q.depth_high_water,
                    backpressure_stalls=q.stall_count,
                    stall_seconds=q.stall_seconds,
                )
                for q in (q_packets, q_windows, q_detect)
            ],
            windows=windows_seen[0],
            late_flows=assembler.late_flows,
            packets=stages["source"].events_out,
            flows=assembler.flows_out,
            detections=len(detections),
            window_latencies=window_latencies,
        )
        return StreamResult(
            detections=tuple(detections),
            latencies=tuple(
                match_ground_truth(detections, self.ground_truth)
            ),
            stats=stats,
            graph=accumulator.graph() if accumulator.n_edges else None,
            windows=windows_seen[0],
        )
