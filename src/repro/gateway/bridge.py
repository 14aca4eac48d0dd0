"""Async bridge between HTTP handlers and the micro-batch scheduler.

The :class:`~repro.online.scheduler.MicroBatchScheduler` is a
synchronous, single-logical-thread event loop; the gateway's HTTP
handlers are asyncio coroutines that each want *their* request's
outcome.  :class:`SchedulerBridge` connects the two per tenant:

* every submission registers an :class:`asyncio.Future` keyed by the
  identity of its :class:`~repro.online.scheduler.ScheduledRequest`
  (identity, not value — two byte-identical requests are distinct
  submissions);
* the scheduler's ``on_batch`` / ``on_shed`` / ``on_failed`` callbacks
  resolve exactly one future per submitted request — with the
  :class:`~repro.online.scheduler.CompletedRequest` on dispatch, with
  :class:`RequestShed` when admission control drops it, or with the
  pipeline's own exception when its batch failed (the gateway's 500);
* :meth:`SchedulerBridge.advance` folds real time into the shared
  :class:`~repro.online.clock.WallClock` (``clock.sync()``) and advances
  the scheduler to it.  The gateway runs it at the end of every serving
  call, which closes the call's arrival instant so its cache hits are
  answered at once; a background **pump** task runs it periodically, so
  deadline-triggered batches dispatch even when no new request arrives
  to push the clock.

Everything runs on the event-loop thread, so the scheduler's
not-thread-safe contract holds by construction.
"""

from __future__ import annotations

import asyncio

from repro.online.scheduler import (
    MicroBatchScheduler,
    ScheduledRequest,
    SchedulerConfig,
)


class RequestShed(Exception):
    """An admitted-path request was dropped by scheduler admission control.

    Carries the shed :class:`ScheduledRequest`; the gateway maps this to
    a 429 ``queue_full`` envelope.
    """

    def __init__(self, request: ScheduledRequest):
        """``request`` is the scheduler's view of the dropped submission."""
        super().__init__(f"request shed by admission control: {request.query!r}")
        self.request = request


class SchedulerBridge:
    """One tenant's scheduler, pumped by wall time, awaited by futures."""

    def __init__(self, pipeline, clock, config: SchedulerConfig | None = None):
        """Wraps a fresh :class:`MicroBatchScheduler` over ``pipeline``
        and the gateway's shared latched ``clock``."""
        self.clock = clock
        self.scheduler = MicroBatchScheduler(
            pipeline,
            clock,
            config,
            on_batch=self._on_batch,
            on_shed=self._on_shed,
            on_failed=self._fail,
        )
        # id(request) -> (request, future); holding the request keeps its
        # id stable for the lifetime of the entry.
        self._waiting: dict = {}
        self._pump_task: asyncio.Task | None = None

    # -- callbacks (fire synchronously inside scheduler calls) ---------------
    def _on_batch(self, completions) -> None:
        """Resolve the future of every request in a dispatched batch."""
        for completion in completions:
            entry = self._waiting.pop(id(completion.request), None)
            if entry is not None and not entry[1].done():
                entry[1].set_result(completion)

    def _on_shed(self, request) -> None:
        """Fail the future of a shed request (arrival or evicted victim)."""
        self._fail(request, RequestShed(request))

    def _fail(self, request, error) -> None:
        """Fail one request's future with ``error`` — :class:`RequestShed`,
        or (as ``on_failed``) whatever its batch's pipeline call raised."""
        entry = self._waiting.pop(id(request), None)
        if entry is not None and not entry[1].done():
            entry[1].set_exception(error)

    # -- submission ----------------------------------------------------------
    def submit(
        self,
        kind: str,
        query: str,
        lane: int = 0,
        mode: str | None = None,
    ) -> asyncio.Future:
        """Submit one request at the clock's latched time.

        Returns a future resolving to the request's
        :class:`CompletedRequest` (or raising :class:`RequestShed`).  The
        stamp is ``clock.now()``, not a fresh ``sync()``: the gateway
        syncs once per HTTP call, so every item of one call shares one
        arrival instant and real time passing between two items cannot
        split the call across batches.  The latch is the scheduler's own
        clock, so the stamp can never be in the scheduler's past.
        """
        request = ScheduledRequest(
            query=query,
            arrival_seconds=self.clock.now(),
            lane=lane,
            kind=kind,
            mode=mode,
        )
        future = asyncio.get_running_loop().create_future()
        # Registered first: the submit itself may dispatch (or shed) the
        # request and resolve the future through the callbacks.
        self._waiting[id(request)] = (request, future)
        try:
            self.scheduler.submit(request)
        except BaseException:
            # Refused outright (bad lane or kind): nobody will ever answer.
            self._waiting.pop(id(request), None)
            raise
        # With a size trigger of 1 (or an expired deadline) the future is
        # already resolved here; otherwise advance() or the pump will get
        # to it.
        return future

    # -- pumping -------------------------------------------------------------
    def advance(self) -> None:
        """Fold real time in and dispatch whatever is due by then.

        Moving the clock closes the latest arrival instant, so the cache
        hits submitted in it dispatch here."""
        if self.scheduler.queue_depth:
            self.scheduler.advance_to(self.clock.sync())

    def start_pump(self, interval_seconds: float) -> None:
        """Start the background tick that fires deadline triggers."""
        if self._pump_task is None:
            self._pump_task = asyncio.get_running_loop().create_task(
                self._pump(interval_seconds)
            )

    async def _pump(self, interval_seconds: float) -> None:
        while True:
            await asyncio.sleep(interval_seconds)
            self.advance()

    async def stop_pump(self) -> None:
        """Cancel the background tick (idempotent)."""
        task, self._pump_task = self._pump_task, None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass

    # -- lifecycle -----------------------------------------------------------
    def flush(self) -> None:
        """Dispatch everything still pending (the drain path).

        ``MicroBatchScheduler.drain`` advances the clock past each
        remaining trigger — possibly ahead of real time, which the
        latched :class:`WallClock` permits — so every registered future
        resolves before this returns.
        """
        self.scheduler.drain()

    @property
    def waiting(self) -> int:
        """Futures still awaiting a completion or shed notification."""
        return len(self._waiting)
