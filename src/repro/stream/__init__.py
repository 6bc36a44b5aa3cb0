"""Micro-batch streaming: trace source → windowed flow assembly →
graph delta → online detection, as a long-running backpressured service.

The paper's §VI outlook is online detection over live traffic; this
package turns the repo's batch pipeline into that service.  Stages run
on threads connected by bounded queues (blocking-put backpressure, so
memory stays bounded no matter how fast the source runs), windows close
on a watermark with an allowed-lateness knob, and a drain protocol
flushes partial windows and the detector on stop.  Under the default
``auto`` lateness a streamed run's detections are byte-identical to the
equivalent batch run per seed — enforced by the test suite across
window sizes and queue capacities.

Entry points: :class:`StreamPipeline` (library),
``repro stream`` (CLI), the ``stream_detect`` workload of
``BENCHMARK.json`` (sustained packets/sec, stage busy and stall time).
"""

from repro.stream.pipeline import (
    DetectionLatency,
    StreamPipeline,
    StreamResult,
    match_ground_truth,
)
from repro.stream.queues import BoundedQueue, PipelineAborted
from repro.stream.sources import Batch, ReplaySource, TraceSource
from repro.stream.stages import FlowWindow, GraphAccumulator, WindowAssembler
from repro.stream.stats import QueueStats, StageStats, StreamStats

__all__ = [
    "StreamPipeline",
    "StreamResult",
    "DetectionLatency",
    "match_ground_truth",
    "TraceSource",
    "ReplaySource",
    "Batch",
    "FlowWindow",
    "WindowAssembler",
    "GraphAccumulator",
    "BoundedQueue",
    "PipelineAborted",
    "StreamStats",
    "StageStats",
    "QueueStats",
]
