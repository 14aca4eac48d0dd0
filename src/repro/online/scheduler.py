"""Deterministic load scheduler: dynamic micro-batching + admission control.

Every benchmark so far hand-formed its request batches; production
traffic arrives one request at a time, bursty and head-skewed.
:class:`MicroBatchScheduler` is the layer between arriving requests and
the :class:`~repro.core.serving.ServingPipeline`: it accepts single
rewrite/search requests stamped with (virtual) arrival times, forms
dynamic micro-batches, and drives ``serve_batch`` / ``search_batch``
from a worker loop clocked by the shared
:class:`~repro.online.clock.VirtualClock`.

**Batch formation** — a batch for a request kind dispatches when either

* ``max_batch_size`` requests of that kind are pending (size trigger), or
* the oldest pending request of that kind has waited
  ``max_wait_seconds`` (deadline trigger);

whichever comes first, and never before the (virtual) worker is free.
With an idle worker this bounds every admitted request's queueing delay
by ``max_wait_seconds`` exactly.

**Zero-wait hits** — waiting only pays when it grows a batch that is
worth growing, and a rewrite the cache already answers has no decode to
share.  All requests stamped with one arrival time form an *instant*;
the instant closes when the clock first moves past it (a later
``submit``, an ``advance_to`` beyond it, or ``drain``).  Then each of
its rewrite requests still pending gets one read-only probe,
``query in pipeline.cache``.  The hits move to an internal queue whose
deadline is their arrival: they dispatch at that instant, or as soon as
the worker frees up, in batches of hits only (the size trigger still
caps them).  Misses keep both triggers, and search requests are never
probed.  A request the size trigger dispatched at its own instant is
never probed either, so full batches cost nothing extra.  Without a
cache (``pipeline.cache is None``) nothing is probed.

**Priority lanes** — requests carry a lane number (0 = highest
priority).  A dispatching batch drains lane 0 first, then lane 1, and so
on, FIFO within each lane, so high-priority requests are never stuck
behind a lower lane's backlog.

**Admission control** — the queue is bounded by ``max_queue_depth``.
When full, an arriving request is shed — unless a strictly
lower-priority request is pending, in which case the *youngest* request
of the lowest-priority non-empty lane is shed instead and the arrival is
admitted.  Admitted/shed totals are counted into
:class:`~repro.core.serving.ServingStats` (``admitted`` / ``shed``) so
the serving tier's own telemetry shows the backpressure.

**Service-time model** — real workers are busy while a batch decodes.
``batch_cost_seconds + len(batch) * request_cost_seconds`` of *virtual*
time models that occupancy: while the virtual worker is busy no batch
dispatches, queues grow, and admission control starts shedding — the
overload regime, reproduced deterministically.  Both costs default to 0
(an infinitely fast worker), which makes the ``max_wait_seconds``
queueing-delay bound exact.

**Determinism** — the loop is a virtual-time event simulation: the only
state is the submit order, the clock, and the config, so two replays of
the same trace produce byte-identical
:meth:`~repro.core.serving.ServingPipeline.counters` and
:meth:`SchedulerReport.fingerprint`.  Wall-clock time appears nowhere in
the scheduling decisions (the pipeline's outcome records still carry
wall latencies, which neither fingerprint reads).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from repro.core.serving import ServedRewrite, ServedSearch, ServingPipeline
from repro.online.clock import VirtualClock
from repro.online.stats import _nearest_rank

#: request kinds the scheduler batches independently of each other
REQUEST_KINDS = ("rewrite", "search")
#: the internal queue of rewrite requests the cache already answers
_HIT = "hit"
_QUEUES = REQUEST_KINDS + (_HIT,)


@dataclass(frozen=True)
class SchedulerConfig:
    """Batch-formation, admission, and service-model knobs."""

    #: size trigger: dispatch as soon as this many requests of one kind wait
    max_batch_size: int = 32
    #: deadline trigger: no admitted request queues longer than this
    #: (virtual seconds) while the worker keeps up
    max_wait_seconds: float = 0.5
    #: bound on total pending requests across all lanes and kinds
    max_queue_depth: int = 1024
    #: priority lanes; lane 0 is served first
    num_lanes: int = 2
    #: virtual worker occupancy per dispatched batch ...
    batch_cost_seconds: float = 0.0
    #: ... plus per request in the batch (0/0 = infinitely fast worker)
    request_cost_seconds: float = 0.0

    def __post_init__(self):
        """Validate the policy (every knob has a hard floor)."""
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_wait_seconds < 0:
            raise ValueError("max_wait_seconds must be >= 0")
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if self.num_lanes < 1:
            raise ValueError("num_lanes must be >= 1")
        if self.batch_cost_seconds < 0 or self.request_cost_seconds < 0:
            raise ValueError("service costs must be >= 0")


@dataclass(frozen=True)
class ScheduledRequest:
    """One request as the scheduler sees it: payload + arrival + lane."""

    query: str
    #: virtual arrival time; submissions must be in non-decreasing order
    arrival_seconds: float
    #: priority lane, 0 (highest) .. num_lanes-1
    lane: int = 0
    #: "rewrite" (serve_batch) or "search" (search_batch, end to end)
    kind: str = "rewrite"
    #: retrieval mode for search requests (None = engine default)
    mode: str | None = None


@dataclass(frozen=True)
class CompletedRequest:
    """A dispatched request plus its scheduling outcome."""

    request: ScheduledRequest
    #: what the pipeline returned (ServedRewrite or ServedSearch)
    outcome: ServedRewrite | ServedSearch
    #: virtual time the batch dispatched
    dispatched_at: float
    #: virtual seconds spent queueing (dispatched_at - arrival)
    queue_delay_seconds: float
    #: size of the micro-batch this request rode in
    batch_size: int


@dataclass
class SchedulerReport:
    """Deterministic accounting of one scheduler run."""

    admitted: int = 0
    shed: int = 0
    completed: int = 0
    batches: int = 0
    #: dispatches triggered by a full batch vs a deadline expiry
    size_triggered: int = 0
    deadline_triggered: int = 0
    #: sheds per lane (index = lane)
    shed_by_lane: list[int] = field(default_factory=list)
    #: admitted per lane (index = lane)
    admitted_by_lane: list[int] = field(default_factory=list)
    #: deepest the pending queue ever got
    peak_queue_depth: int = 0
    #: virtual queueing delay of every completed request, dispatch order
    queue_delays_seconds: list[float] = field(default_factory=list)
    #: size of every dispatched batch, dispatch order
    batch_sizes: list[int] = field(default_factory=list)

    def mean_queue_delay_seconds(self) -> float:
        """Mean virtual queueing delay over all completed requests."""
        if not self.queue_delays_seconds:
            return 0.0
        return sum(self.queue_delays_seconds) / len(self.queue_delays_seconds)

    def percentile_queue_delay_seconds(self, q: float) -> float:
        """Nearest-rank percentile of the virtual queueing delay."""
        return _nearest_rank(sorted(self.queue_delays_seconds), q)

    def p95_queue_delay_seconds(self) -> float:
        """95th-percentile virtual queueing delay."""
        return self.percentile_queue_delay_seconds(0.95)

    def mean_batch_size(self) -> float:
        """Mean dispatched micro-batch size."""
        if not self.batch_sizes:
            return 0.0
        return sum(self.batch_sizes) / len(self.batch_sizes)

    def fingerprint(self) -> tuple:
        """Hashable digest of everything deterministic in this report.

        Two replays of the same trace under the same policy must produce
        equal fingerprints — the load-replay determinism acceptance.
        """
        return (
            self.admitted,
            self.shed,
            self.completed,
            self.batches,
            self.size_triggered,
            self.deadline_triggered,
            tuple(self.shed_by_lane),
            tuple(self.admitted_by_lane),
            self.peak_queue_depth,
            tuple(self.queue_delays_seconds),
            tuple(self.batch_sizes),
        )


class _Lane:
    """FIFO of pending requests for one (kind, priority) pair."""

    __slots__ = ("pending",)

    def __init__(self):
        self.pending: deque[ScheduledRequest] = deque()


class MicroBatchScheduler:
    """Virtual-clocked worker loop between single requests and the pipeline.

    Drive it with :meth:`submit` in arrival order, then :meth:`drain`.
    ``submit`` advances the shared clock to the request's arrival time,
    dispatching any batch whose size or deadline trigger fires on the
    way, so the caller never manages batch boundaries — exactly the
    contract a request-at-a-time client has with a serving tier.

    ``on_batch`` (optional) is called once per dispatched batch with the
    list of :class:`CompletedRequest` — the hook the traffic replay uses
    for staleness accounting at the moment each request is actually
    served, and the only way to observe completions: the scheduler keeps
    no reference to a request once its batch has been handed over (what
    it does keep per completed request is one float in
    ``report.queue_delays_seconds``, and per batch one int in
    ``report.batch_sizes``).

    ``on_shed`` (optional) is called with each :class:`ScheduledRequest`
    that admission control sheds — the arriving request itself when
    nothing lower-priority is pending, or the evicted victim when the
    arrival displaces a queued request.  Together with ``on_batch`` this
    gives every submitted request exactly one completion *or* one shed
    notification, which is what lets an async front door (the
    :mod:`repro.gateway` bridge) resolve a future per request without
    polling.  Both callbacks observe only outcomes; they cannot change a
    scheduling decision, so fingerprints are callback-invariant.

    ``on_failed`` (optional) is called with ``(request, error)`` for each
    request of a batch whose ``serve_batch`` / ``search_batch`` raised.
    The batch is already off the lanes by then, so its requests are
    accounted under ``shed`` (admitted and not served — the conservation
    receipt keeps holding) and handed over here instead of to
    ``on_batch``; the scheduler carries on with the next batch.  Without
    the callback the error is re-raised once the batch is accounted, so
    an offline replay still fails loudly.

    Not thread-safe by design: determinism comes from a single logical
    event loop.  Concurrency lives below (the pipeline's sharded engine
    fan-out) and above (independent scheduler instances per arm).
    """

    def __init__(
        self,
        pipeline: ServingPipeline,
        clock: VirtualClock,
        config: SchedulerConfig | None = None,
        *,
        on_batch=None,
        on_shed=None,
        on_failed=None,
    ):
        """``pipeline`` must have a search engine if search requests are
        submitted; ``clock`` is shared with the cache/freshness stack."""
        self.pipeline = pipeline
        self.clock = clock
        self.config = config or SchedulerConfig()
        self.on_batch = on_batch
        self.on_shed = on_shed
        self.on_failed = on_failed
        self.report = SchedulerReport(
            shed_by_lane=[0] * self.config.num_lanes,
            admitted_by_lane=[0] * self.config.num_lanes,
        )
        self._lanes: dict[str, list[_Lane]] = {
            kind: [_Lane() for _ in range(self.config.num_lanes)]
            for kind in _QUEUES
        }
        # Pending counts, per queue and in total, kept beside the lanes so
        # that no decision has to re-count them.
        self._pending = dict.fromkeys(_QUEUES, 0)
        self._depth = 0
        self._busy_until = 0.0
        # Arrival time of the instant whose rewrites are not probed yet.
        self._open_instant: float | None = None

    # -- introspection -------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Pending requests across all kinds and lanes."""
        return self._depth

    def pending_of(self, kind: str) -> int:
        """Pending requests of one kind across its lanes; the rewrites
        waiting as zero-wait hits count as rewrites."""
        if kind == "rewrite":
            return self._pending["rewrite"] + self._pending[_HIT]
        return self._pending[kind]

    # -- event loop ----------------------------------------------------------
    def submit(self, request: ScheduledRequest) -> bool:
        """Admit (or shed) one request arriving at its stamped time.

        Advances the clock to ``request.arrival_seconds`` first,
        dispatching every batch due before then — the worker loop runs
        *between* arrivals, as it would in real time.  A later arrival
        therefore closes the previous instant, sorting its pending
        rewrites into hits and misses.  An admitted rewrite joins its
        rewrite lane like any other, so the size trigger still fires
        inline; it is probed only if it is still pending when its own
        instant closes.  Returns True if the request was admitted.
        """
        if request.kind not in REQUEST_KINDS:
            raise ValueError(
                f"unknown request kind {request.kind!r}; "
                f"expected one of {', '.join(REQUEST_KINDS)}"
            )
        if not 0 <= request.lane < self.config.num_lanes:
            raise ValueError(
                f"lane {request.lane} out of range for {self.config.num_lanes} lanes"
            )
        if request.arrival_seconds < self.clock.now():
            raise ValueError(
                f"arrival {request.arrival_seconds} is in the past "
                f"(now={self.clock.now()}); submit in arrival order"
            )
        self.advance_to(request.arrival_seconds)

        if self._depth >= self.config.max_queue_depth:
            victim = self._shed_victim(request.lane)
            if victim is None:
                # Nothing strictly less important is waiting: shed the arrival.
                self._shed(request)
                return False
            # Make room by shedding the youngest request of the lowest lane.
            victim_kind, victim_lane = victim
            victim_request = self._lanes[victim_kind][victim_lane].pending.pop()
            self._pending[victim_kind] -= 1
            self._depth -= 1
            self._shed(victim_request)
        self._lanes[request.kind][request.lane].pending.append(request)
        self._pending[request.kind] += 1
        self._depth += 1
        self.report.admitted += 1
        self.report.admitted_by_lane[request.lane] += 1
        self.report.peak_queue_depth = max(self.report.peak_queue_depth, self._depth)
        self.pipeline.stats.admitted += 1
        if request.kind == "rewrite" and self.pipeline.cache is not None:
            self._open_instant = request.arrival_seconds
        # The arrival itself may complete a batch: dispatch immediately.
        self._run_due(self.clock.now())
        return True

    def advance_to(self, t: float) -> None:
        """Move virtual time forward to ``t``, dispatching batches due
        on the way (each at its own trigger time, in order).  Moving
        past the open instant closes it first."""
        if self._open_instant is not None and t > self._open_instant:
            self._close_instant()
        self._run_due(t)
        now = self.clock.now()
        if t > now:
            self.clock.advance(t - now)

    def drain(self) -> SchedulerReport:
        """Close the open instant, dispatch everything still pending
        (advancing the clock past each remaining trigger) and return the
        final report."""
        if self._open_instant is not None:
            self._close_instant()
        while self._depth:
            due = self._next_dispatch()
            assert due is not None  # _depth > 0 guarantees a trigger exists
            self._dispatch(*due)
        return self.report

    # -- internals -----------------------------------------------------------
    def _close_instant(self) -> None:
        """Probe the open instant's pending rewrites; move the hits to
        the zero-wait queue.

        They are the youngest requests of their lanes, so they sit at the
        tail of each lane; the misses go back in their order.  The probe
        does no hit/miss accounting and no LRU touch, and collects an
        expired entry as ``get`` would at dispatch.
        """
        instant, self._open_instant = self._open_instant, None
        cache = self.pipeline.cache
        moved = 0
        for lane, hits in zip(self._lanes["rewrite"], self._lanes[_HIT]):
            pending = lane.pending
            arrived = []
            while pending and pending[-1].arrival_seconds == instant:
                arrived.append(pending.pop())
            for request in reversed(arrived):
                if request.query in cache:
                    hits.pending.append(request)
                    moved += 1
                else:
                    pending.append(request)
        self._pending["rewrite"] -= moved
        self._pending[_HIT] += moved

    def _shed(self, request: ScheduledRequest, error: Exception | None = None) -> None:
        self.report.shed += 1
        self.report.shed_by_lane[request.lane] += 1
        self.pipeline.stats.shed += 1
        if error is None:
            if self.on_shed is not None:
                self.on_shed(request)
        elif self.on_failed is not None:
            self.on_failed(request, error)

    def _shed_victim(self, arriving_lane: int) -> tuple[str, int] | None:
        """The (kind, lane) whose youngest pending request should be shed
        to admit an arrival in ``arriving_lane``.

        The queue bound is global across kinds, so the victim search is
        too: the lowest-priority non-empty lane of *any* kind, provided
        it is strictly lower priority than the arrival; within that lane
        the youngest request across kinds (latest arrival, ties broken
        by fixed kind order, zero-wait hits last).  None if nothing
        strictly less important is pending."""
        for lane in range(self.config.num_lanes - 1, arriving_lane, -1):
            best: tuple[float, int, str] | None = None
            for order, kind in enumerate(_QUEUES):
                pending = self._lanes[kind][lane].pending
                if pending:
                    key = (pending[-1].arrival_seconds, order, kind)
                    if best is None or key > best:
                        best = key
            if best is not None:
                return best[2], lane
        return None

    def _next_dispatch(self) -> tuple[float, str, str] | None:
        """Earliest (time, kind, trigger) any pending batch can dispatch.

        Size-triggered kinds can go as soon as the worker frees up;
        otherwise the oldest request's deadline fires the batch — for
        zero-wait hits, the arrival itself.  Ties resolve by older
        oldest-arrival, then by fixed kind order, so the loop is
        deterministic.
        """
        if not self._depth:
            return None
        now = self.clock.now()
        best: tuple[float, float, int, str, str] | None = None
        for order, kind in enumerate(_QUEUES):
            if not self._pending[kind]:
                continue
            oldest = math.inf  # arrival of the kind's oldest lane head
            for lane in self._lanes[kind]:
                if lane.pending and lane.pending[0].arrival_seconds < oldest:
                    oldest = lane.pending[0].arrival_seconds
            if self._pending[kind] >= self.config.max_batch_size:
                at = max(now, self._busy_until)
                trigger = "size"
            else:
                wait = 0.0 if kind == _HIT else self.config.max_wait_seconds
                at = max(oldest + wait, self._busy_until)
                trigger = "deadline"
            key = (at, oldest, order, kind, trigger)
            if best is None or key < best:
                best = key
        at, _, _, kind, trigger = best
        return at, kind, trigger

    def _run_due(self, until: float) -> None:
        while True:
            due = self._next_dispatch()
            if due is None or due[0] > until:
                return
            self._dispatch(*due)

    def _take_batch(self, kind: str) -> list[ScheduledRequest]:
        batch: list[ScheduledRequest] = []
        for lane in self._lanes[kind]:
            while lane.pending and len(batch) < self.config.max_batch_size:
                batch.append(lane.pending.popleft())
            if len(batch) == self.config.max_batch_size:
                break
        self._pending[kind] -= len(batch)
        self._depth -= len(batch)
        return batch

    def _dispatch(self, at: float, kind: str, trigger: str) -> None:
        now = self.clock.now()
        if at > now:
            self.clock.advance(at - now)
        batch = self._take_batch(kind)
        try:
            if kind == "search":
                modes = [request.mode for request in batch]
                if all(mode is None for mode in modes):
                    modes = None  # mode-less engines take no mode kwarg
                outcomes = self.pipeline.search_batch(
                    [request.query for request in batch], modes=modes
                )
            else:
                outcomes = self.pipeline.serve_batch(
                    [request.query for request in batch]
                )
        except Exception as error:
            # The batch has left the lanes: nothing else would ever
            # account for its requests or answer whoever waits on them.
            for request in batch:
                self._shed(request, error)
            if self.on_failed is None:
                raise
            return
        self._busy_until = at + (
            self.config.batch_cost_seconds
            + len(batch) * self.config.request_cost_seconds
        )
        completions = [
            CompletedRequest(
                request=request,
                outcome=outcome,
                dispatched_at=at,
                queue_delay_seconds=at - request.arrival_seconds,
                batch_size=len(batch),
            )
            for request, outcome in zip(batch, outcomes)
        ]
        self.report.completed += len(completions)
        self.report.batches += 1
        if trigger == "size":
            self.report.size_triggered += 1
        else:
            self.report.deadline_triggered += 1
        self.report.queue_delays_seconds.extend(
            c.queue_delay_seconds for c in completions
        )
        self.report.batch_sizes.append(len(batch))
        if self.on_batch is not None:
            self.on_batch(completions)
