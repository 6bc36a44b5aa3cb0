"""Online (streaming) intrusion detection — the paper's §VI future work.

:class:`OnlineDetector` consumes flows as they close, keeps the recent
ones, and re-runs the Fig. 4 flow-chart detector every ``hop_seconds`` of
stream time over the flows that started in the last ``window_seconds``.
Alarms for the same (kind, ip, direction) are suppressed for
``cooldown_seconds`` so a sustained attack raises one alert, not one per
hop.

Flows arrive as :class:`FlowTable` slices and stay columns.  Every hop a
batch makes due is evaluated in one pass: each recent flow is repeated
once per due hop ``t`` whose window ``[t - W, t)`` holds its start — at
most ⌈W/hop⌉ of them — and (hop, IP) is the group key of one
:meth:`~repro.detect.detector.NetflowAnomalyDetector.detect_per_window`
call, as (window, IP) is for the batch detector.  The cooldown then runs
over the alarms in hop order.  A flow counts only in hops evaluated after
it arrived, so no result depends on how the flows are cut into tables,
and a late flow never counts in a hop whose window excludes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.detect.detector import Detection, NetflowAnomalyDetector
from repro.detect.thresholds import DetectionThresholds
from repro.netflow.record import FlowTable, NetflowRecord

__all__ = ["OnlineDetector", "TimedDetection"]


@dataclass(frozen=True)
class TimedDetection:
    """A detection plus the stream time at which it fired."""

    time: float
    detection: Detection


class OnlineDetector:
    """Sliding-window streaming detector.

    Parameters
    ----------
    thresholds:
        Table I parameters (calibrate offline on attack-free traffic with
        the same ``window_seconds``).
    window_seconds:
        Length of the sliding window the patterns aggregate over.
    hop_seconds:
        How often (in stream time) the window is re-evaluated; defaults to
        half the window.
    cooldown_seconds:
        Re-alert suppression horizon per (kind, ip, direction).
    """

    def __init__(
        self,
        thresholds: DetectionThresholds | None = None,
        *,
        window_seconds: float = 5.0,
        hop_seconds: float | None = None,
        cooldown_seconds: float = 30.0,
    ) -> None:
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        hop = hop_seconds if hop_seconds is not None else window_seconds / 2
        if hop <= 0:
            raise ValueError("hop_seconds must be positive")
        if cooldown_seconds < 0:
            raise ValueError("cooldown_seconds must be non-negative")
        self._detector = NetflowAnomalyDetector(thresholds)
        self.window_seconds = window_seconds
        self.hop_seconds = hop
        self.cooldown_seconds = cooldown_seconds
        self._recent = FlowTable.empty()
        self._latest = -math.inf  # the stream time: the largest start seen
        self._next_eval: float | None = None
        self._last_alert: dict[tuple, float] = {}
        self.flows_processed = 0

    # ------------------------------------------------------------------
    @property
    def window_size(self) -> int:
        """Flows held for the hops still to come."""
        return len(self._recent)

    def process_table(self, flows: FlowTable) -> list[TimedDetection]:
        """Feed flows in arrival order (start-time order, late ones aside).

        Returns the alarms newly raised by the window evaluations the
        stream time advanced past — the same however the flows are cut
        into tables, one flow per table included.
        """
        n = len(flows)
        if not n:
            return []
        start = flows["START_TIME"]
        self.flows_processed += n
        if self._next_eval is None:
            self._next_eval = float(start[0]) + self.hop_seconds
        # the stream time at each flow's arrival, and the hops it passes
        arrival = np.maximum.accumulate(np.maximum(start, self._latest))
        self._latest = float(arrival[-1])
        due = []
        while self._next_eval <= self._latest:
            due.append(self._next_eval)
            self._next_eval += self.hop_seconds
        due = np.array(due, dtype=np.float64)
        after = np.concatenate([
            np.zeros(len(self._recent), dtype=np.int64),
            np.searchsorted(due, arrival, side="right"),
        ])
        self._recent = self._recent.concat(flows)
        return self._evaluate(due, after)

    def flush(self) -> list[TimedDetection]:
        """Drain: run every pending evaluation plus a final tail pass.

        The result is sorted by detection time and de-duplicated — both
        within the flush and against every ``(kind, ip, direction)``
        already alerted during the stream — so a drain never
        double-reports an attack the hop evaluations caught, even with
        ``cooldown_seconds=0``.  Calling :meth:`flush` twice without new
        records is a no-op the second time.
        """
        if not len(self._recent):
            return []
        end = self._latest + 1e-9
        already = set(self._last_alert)
        times = []
        while self._next_eval < end:
            times.append(self._next_eval)
            self._next_eval += self.hop_seconds
        # hops run in time order and the tail pass last: sorted already
        alerts = self._evaluate(
            np.array(times + [end]),
            np.zeros(len(self._recent), dtype=np.int64),
        )
        seen: set[tuple] = set()
        deduped: list[TimedDetection] = []
        for alert in alerts:
            det = alert.detection
            key = (det.kind, det.ip, det.direction)
            if key in already or key in seen:
                continue
            seen.add(key)
            deduped.append(alert)
        return deduped

    def run(
        self, records: Iterable[NetflowRecord]
    ) -> Iterator[TimedDetection]:
        """Convenience driver over a record iterable."""
        yield from self.process_table(FlowTable.from_records(list(records)))
        yield from self.flush()

    # ------------------------------------------------------------------
    def _evaluate(
        self, times: np.ndarray, after: np.ndarray
    ) -> list[TimedDetection]:
        """Evaluate the windows ending at ``times`` (ascending) in one
        detector pass.  Recent flow ``i`` counts in hop ``j`` when ``j >=
        after[i]`` (it had arrived) and ``times[j] - W <= start`` (the
        horizon test a lone hop makes); flows no later hop can hold are
        then dropped."""
        if not times.size:
            return []
        start = self._recent["START_TIME"]
        horizon = times - self.window_seconds
        count = np.maximum(
            np.searchsorted(horizon, start, side="right") - after, 0
        )
        member = np.repeat(np.arange(start.size), count)
        hop = np.arange(member.size) - np.repeat(
            np.cumsum(count) - count - after, count
        )
        hits = self._detector.detect_per_window(
            self._recent.select(member), hop
        ) if member.size else []
        out: list[TimedDetection] = []
        for j, det in hits:
            now = float(times[j])
            key = (det.kind, det.ip, det.direction)
            last = self._last_alert.get(key)
            if last is not None and now - last < self.cooldown_seconds:
                continue
            self._last_alert[key] = now
            out.append(TimedDetection(time=now, detection=det))
        self._recent = self._recent.select(start >= horizon[-1])
        return out
