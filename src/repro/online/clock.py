"""Time sources for the online stack: virtual (replays) and wall (serving).

A replay must control time: TTL expiry, staleness-vs-churn comparisons,
and refresh-ahead margins all compare timestamps, and wall-clock time
would make every run (and every CI machine) see a different expiry
schedule.  :class:`VirtualClock` is a monotonic counter the replay driver
advances explicitly — typically by a fixed number of virtual seconds per
request — and everything that needs a clock (``RewriteCache``,
``FreshnessController``, staleness accounting) reads the same instance.

A *live* deployment (the :mod:`repro.gateway` front door) needs the same
protocol driven by real time.  :class:`WallClock` implements it over
``time.monotonic()`` with **latched** reads: real time flows in only at
explicit :meth:`WallClock.sync` points, so between two synchronizations
the clock behaves exactly like a :class:`VirtualClock` — ``now()`` is
stable, ``advance()`` moves it forward deterministically — which is what
lets the :class:`~repro.online.scheduler.MicroBatchScheduler` run
unmodified (and keep its arrival-ordering contract) against either
implementation.

The **clock protocol** both classes satisfy:

* ``now() -> float`` — current time in seconds; never decreases, and
  stable between mutations (``advance``/``sync``).
* ``advance(seconds) -> float`` — move time forward by ``seconds >= 0``
  and return the new time; negative deltas raise ``ValueError``.

``tests/test_online.py`` holds the property-based conformance suite that
pins this contract for every implementation.
"""

from __future__ import annotations

import time


class VirtualClock:
    """Explicitly-advanced monotonic clock.

    Pass ``clock.now`` wherever a zero-argument time source is expected
    (e.g. ``RewriteCache(clock=clock.now)``).
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward; returns the new time. Never goes backwards."""
        if seconds < 0:
            raise ValueError("a monotonic clock cannot go backwards")
        self._now += seconds
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(t={self._now:.3f})"


class WallClock:
    """Real time behind the same protocol as :class:`VirtualClock`.

    Reads are **latched**: ``now()`` returns the last synchronized (or
    advanced) value and does not move on its own.  Call :meth:`sync` at
    each observation point — the gateway does so once per admitted HTTP
    call, once more when that call has submitted its items, and once per
    scheduler pump tick — to fold elapsed ``time.monotonic()`` into the
    latch.  Latching is what makes the scheduler's ``submit`` contract
    (arrival stamps are never in the past) race-free under real time:
    the caller stamps every item of a call with the latched ``now()``
    before time can move again, so they share one arrival instant.

    ``advance()`` keeps the :class:`VirtualClock` semantics — it may push
    the latch *ahead* of real time (e.g. a drain flushing deadline
    triggers); a later ``sync()`` simply waits for real time to catch up
    (it never goes backwards).
    """

    __slots__ = ("_origin", "_now")

    def __init__(self, start: float = 0.0):
        """``start`` anchors ``now()`` at construction, like VirtualClock."""
        self._origin = time.monotonic() - float(start)
        self._now = float(start)

    def now(self) -> float:
        """Current latched time in seconds (stable between sync/advance)."""
        return self._now

    def sync(self) -> float:
        """Fold elapsed real time into the latch; returns the new time.

        Monotonic: if ``advance()`` pushed the latch ahead of real time,
        the latch stays put until real time passes it.
        """
        real = time.monotonic() - self._origin
        if real > self._now:
            self._now = real
        return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward; returns the new time. Never goes backwards."""
        if seconds < 0:
            raise ValueError("a monotonic clock cannot go backwards")
        self._now += seconds
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WallClock(t={self._now:.3f})"
