"""Sliding-window streaming gauges for long-running replays.

The serving pipeline keeps no latency history: each request's
``latency_ms`` comes back in its outcome record, and a caller that wants
percentiles records it here.  ``WindowedStats`` is a bounded ring of the
most recent samples kept in sorted order incrementally, so

* ``record`` is O(log w) to locate + O(w) to shift within the fixed-size
  window (w is a constant, independent of stream length);
* every percentile read is O(1) (index into the maintained sorted array);
* memory is O(w) no matter how many requests the replay serves.

A finite run that wants percentiles over all of its requests sizes the
window to the run.  :func:`_nearest_rank` is the one nearest-rank
percentile that both this window and the scheduler's
:class:`~repro.online.scheduler.SchedulerReport` read.

Alongside latency percentiles the window tracks the serving-quality
gauges the freshness subsystem cares about: hit rate, stale-serve rate,
and empty-serve rate, each over the same sliding window, plus lifetime
totals for end-of-run reporting.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque


def _nearest_rank(ordered, q: float) -> float:
    """The ``ceil(q·n)``-th smallest of the ascending ``ordered`` (0.0 if
    empty) — the one nearest-rank percentile every stats type reads."""
    if not (0.0 < q <= 1.0):
        raise ValueError("q must be in (0, 1]")
    if not ordered:
        return 0.0
    return ordered[math.ceil(q * len(ordered)) - 1]


class WindowedStats:
    """Streaming gauges over the last ``window`` requests (plus lifetime totals).

    A *stale* serve is a cache hit whose entry predates the last catalog
    churn affecting the query; an *empty* serve returned no rewrites from
    any tier.  Both are quality failures the freshness controller exists
    to reduce.
    """

    def __init__(self, window: int = 2048):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        #: (latency_ms, hit, stale, empty), oldest first
        self._records: deque[tuple[float, bool, bool, bool]] = deque()
        self._sorted: list[float] = []  # the window's latencies, ascending
        self._latency_sum = 0.0
        self._hits = 0
        self._stale = 0
        self._empty = 0
        # lifetime counters, never windowed away
        self.total_requests = 0
        self.total_hits = 0
        self.total_stale = 0
        self.total_empty = 0
        #: union count — a serve that is both stale and empty is one
        #: degraded serve, not two
        self.total_stale_or_empty = 0

    # -- recording -----------------------------------------------------------
    def record(
        self,
        latency_ms: float,
        *,
        hit: bool = False,
        stale: bool = False,
        empty: bool = False,
    ) -> None:
        """Record one serve: O(log w) locate + O(w) in-window shift."""
        if len(self._records) == self.window:
            old_latency, old_hit, old_stale, old_empty = self._records.popleft()
            del self._sorted[bisect_left(self._sorted, old_latency)]
            self._latency_sum -= old_latency
            self._hits -= old_hit
            self._stale -= old_stale
            self._empty -= old_empty
        self._records.append((latency_ms, hit, stale, empty))
        insort(self._sorted, latency_ms)
        self._latency_sum += latency_ms
        self._hits += hit
        self._stale += stale
        self._empty += empty
        self.total_requests += 1
        self.total_hits += hit
        self.total_stale += stale
        self.total_empty += empty
        self.total_stale_or_empty += stale or empty

    def __len__(self) -> int:
        """Samples currently in the window."""
        return len(self._records)

    # -- windowed gauges -----------------------------------------------------
    @property
    def hit_rate(self) -> float:
        """Cache-hit fraction over the current window."""
        return self._hits / len(self._records) if self._records else 0.0

    @property
    def stale_rate(self) -> float:
        """Stale-serve fraction over the current window."""
        return self._stale / len(self._records) if self._records else 0.0

    @property
    def empty_rate(self) -> float:
        """Empty-serve fraction over the current window."""
        return self._empty / len(self._records) if self._records else 0.0

    def mean_latency_ms(self) -> float:
        """Mean latency over the window (O(1): a maintained running sum)."""
        return self._latency_sum / len(self._records) if self._records else 0.0

    def percentile_latency_ms(self, q: float) -> float:
        """Nearest-rank percentile over the window — an O(1) array index."""
        return _nearest_rank(self._sorted, q)

    def p50_latency_ms(self) -> float:
        """Windowed median latency."""
        return self.percentile_latency_ms(0.50)

    def p99_latency_ms(self) -> float:
        """Windowed 99th-percentile latency."""
        return self.percentile_latency_ms(0.99)

    # -- lifetime gauges -----------------------------------------------------
    @property
    def lifetime_hit_rate(self) -> float:
        """Cache-hit fraction over the whole run, never windowed away."""
        return self.total_hits / self.total_requests if self.total_requests else 0.0

    @property
    def lifetime_stale_rate(self) -> float:
        """Stale-serve fraction over the whole run."""
        return self.total_stale / self.total_requests if self.total_requests else 0.0

    @property
    def lifetime_empty_rate(self) -> float:
        """Empty-serve fraction over the whole run."""
        return self.total_empty / self.total_requests if self.total_requests else 0.0

    @property
    def lifetime_stale_or_empty_rate(self) -> float:
        """Degraded-serve fraction (stale OR empty counts once)."""
        if not self.total_requests:
            return 0.0
        return self.total_stale_or_empty / self.total_requests
