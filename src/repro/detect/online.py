"""Online (streaming) intrusion detection — the paper's §VI future work.

:class:`OnlineDetector` consumes Netflow records as they close, maintains
a sliding time window of recent flows, and re-runs the Fig. 4 flow-chart
detector every ``hop_seconds`` of stream time.  Alarms for the same
(kind, ip, direction) are suppressed for ``cooldown_seconds`` so a
sustained attack raises one alert, not one per hop.

The window is a ``deque`` of ``NetflowRecord`` objects, rebuilt into a
``FlowTable`` (``FlowTable.from_records``) on every evaluation for the
batch detector, so streaming reuses the exact detection logic the offline
pipeline runs.  That per-hop rebuild, a Python pass over the whole
window, is the known cost of this design.
"""

from __future__ import annotations

from collections import deque
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
        self._window: deque[NetflowRecord] = deque()
        self._next_eval: float | None = None
        self._last_alert: dict[tuple, float] = {}
        self.flows_processed = 0

    # ------------------------------------------------------------------
    @property
    def window_size(self) -> int:
        return len(self._window)

    def process(self, record: NetflowRecord) -> list[TimedDetection]:
        """Feed one flow (records must arrive in start_time order).

        Returns the alarms newly raised by any window evaluations that the
        stream time advanced past.
        """
        now = record.start_time
        self.flows_processed += 1
        if self._next_eval is None:
            self._next_eval = now + self.hop_seconds
        out: list[TimedDetection] = []
        while self._next_eval is not None and now >= self._next_eval:
            out.extend(self._evaluate(self._next_eval))
            self._next_eval += self.hop_seconds
        self._window.append(record)
        return out

    def flush(self) -> list[TimedDetection]:
        """Drain: run every pending evaluation plus a final tail pass.

        The result is sorted by detection time and de-duplicated — both
        within the flush and against every ``(kind, ip, direction)``
        already alerted during the stream — so a drain never
        double-reports an attack the hop evaluations caught, even with
        ``cooldown_seconds=0``.  Calling :meth:`flush` twice without new
        records is a no-op the second time.
        """
        if not self._window:
            return []
        end = max(r.start_time for r in self._window) + 1e-9
        already = set(self._last_alert)
        out: list[TimedDetection] = []
        while self._next_eval is not None and self._next_eval < end:
            out.extend(self._evaluate(self._next_eval))
            self._next_eval += self.hop_seconds
        out.extend(self._evaluate(end))
        out.sort(key=lambda a: a.time)  # stable: keeps eval order on ties
        seen: set[tuple] = set()
        deduped: list[TimedDetection] = []
        for alert in out:
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
        for record in records:
            yield from self.process(record)
        yield from self.flush()

    # ------------------------------------------------------------------
    def _evaluate(self, now: float) -> list[TimedDetection]:
        horizon = now - self.window_seconds
        while self._window and self._window[0].start_time < horizon:
            self._window.popleft()
        if not self._window:
            return []
        table = FlowTable.from_records(list(self._window))
        cols = {k: table[k] for k in FlowTable.COLUMN_NAMES}
        out: list[TimedDetection] = []
        for det in self._detector.detect(cols):
            key = (det.kind, det.ip, det.direction)
            last = self._last_alert.get(key)
            if last is not None and now - last < self.cooldown_seconds:
                continue
            self._last_alert[key] = now
            out.append(TimedDetection(time=now, detection=det))
        return out
