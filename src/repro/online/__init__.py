"""Online freshness subsystem: live-traffic replay under catalog churn.

The serving tier (``repro.core``) precomputes rewrites for head queries;
this package models what production does to that plan: traffic keeps
arriving while the catalog churns underneath, cached rewrites go stale,
TTLs run out, and the index must follow every listing/delisting without a
rebuild.  See ``docs/ONLINE.md`` for the full story.

Exported pieces — what the serving process itself runs:

* :class:`VirtualClock` / :class:`WallClock` — the clock protocol's two
  implementations: an explicitly-advanced virtual time source shared by
  the cache, the controller, and the staleness accounting (so replays
  are deterministic), and a latched real-time source that drives the
  same scheduler behind the live :mod:`repro.gateway` front door.
* :class:`WindowedStats` — sliding-window streaming gauges (hit rate,
  stale/empty-serve rates, p50/p95/p99 latency) with O(1) percentile
  reads and O(window) memory, replacing full-sort percentiles for long
  runs.
* :class:`MicroBatchScheduler` / :class:`SchedulerConfig` /
  :class:`ScheduledRequest` / :class:`CompletedRequest` /
  :class:`SchedulerReport` — the deterministic load scheduler: dynamic
  micro-batching under size/deadline triggers, priority lanes, and
  bounded-queue admission control in front of the serving pipeline (see
  ``docs/SERVING.md``).

The replay harnesses are imported from their own modules, so a server
that imports this package does not load them:

* :mod:`repro.online.replay` — :class:`~repro.online.replay.TrafficReplay`
  / ``ReplayConfig`` / ``ReplayReport`` / ``Request`` / ``ChurnEvent``:
  the precomputed head/tail request stream interleaved with catalog
  churn, replayed through the scheduler by the one loop
  ``replay_traces``, identically through multiple serving stacks.
* :mod:`repro.online.freshness` —
  :class:`~repro.online.freshness.FreshnessController` /
  ``FreshnessReport``: churn-driven invalidation + re-population,
  expired-entry sweeps, and refresh-ahead for entries close to TTL
  expiry.
* :mod:`repro.online.scenarios` — ``Scenario`` / ``ScenarioConfig`` /
  ``ScenarioRunner`` / ``ScenarioOutcome`` / ``InvariantResult`` /
  ``SCENARIOS`` / ``run_scenario``: the multi-tenant scenario library,
  named adversarial replay arms with pinned pass/fail invariants driven
  through the whole stack above (see ``docs/SCENARIOS.md``).
"""

from repro.online.clock import VirtualClock, WallClock
from repro.online.scheduler import (
    CompletedRequest,
    MicroBatchScheduler,
    ScheduledRequest,
    SchedulerConfig,
    SchedulerReport,
)
from repro.online.stats import WindowedStats

__all__ = [
    "VirtualClock",
    "WallClock",
    "WindowedStats",
    "MicroBatchScheduler",
    "SchedulerConfig",
    "ScheduledRequest",
    "CompletedRequest",
    "SchedulerReport",
]
