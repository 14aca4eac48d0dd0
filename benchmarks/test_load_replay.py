"""Scheduled load replay — acceptance bar for ``repro.online.scheduler``.

One Poisson arrival trace through identical serving stacks under a sweep
of micro-batch policies.  The scheduler must stack the cache misses into
few model calls (the work batching exists to save), keep p95 virtual
queueing delay within each policy's ``max_wait`` bound whenever the
worker keeps up, shed load only in the deliberately-overloaded arm, and
reproduce every deterministic counter across two replays of the same
seed.  The serial-vs-micro-32 wall-clock throughput ratio is rendered
always and gates only under ``--wall-clock``.
"""

from repro.experiments import load_replay
from repro.experiments.load_replay import POLICIES


def test_load_replay(benchmark, save_result, wall_clock):
    result = benchmark.pedantic(load_replay.run, rounds=1, iterations=1)
    save_result(result)
    measured = result.measured

    # The trace actually exercises the regime: thousands of single-request
    # arrivals with churn landing mid-stream.
    assert measured["requests"] >= 2_000
    assert measured["churn_events"] >= 3

    # Micro-batching pays where the work is: each stacked decode serves
    # several misses, so micro-32 needs a fraction of serial's model calls.
    assert measured["serial_misses_per_model_call"] == 1.0
    assert measured["micro32_misses_per_model_call"] > 4.0
    assert measured["micro32_model_calls"] <= 0.25 * measured["serial_model_calls"]
    # Wall-clock ratio: rendered always, gates only under --wall-clock.
    if wall_clock:
        assert measured["speedup"] >= 2.0

    # The deadline bound holds wherever the worker keeps up: p95 (and the
    # max) virtual queueing delay within each policy's max_wait.
    for key in ("micro8", "micro32", "micro64"):
        assert (
            measured[f"{key}_p95_queue_delay_s"]
            <= measured[f"{key}_max_wait_s"] + 1e-9
        )
        assert (
            measured[f"{key}_max_queue_delay_s"]
            <= measured[f"{key}_max_wait_s"] + 1e-9
        )

    # Admission control: only the overloaded arm sheds, and its bounded
    # queue never exceeds the configured depth.
    for key in ("serial", "micro8", "micro32", "micro64"):
        assert measured[f"{key}_shed"] == 0
        assert measured[f"{key}_completed"] == measured["requests"]
    assert measured["overload_shed"] > 0
    overload_cfg = next(p for k, _, p in POLICIES if k == "overload")
    assert measured["overload_peak_queue_depth"] <= overload_cfg.max_queue_depth
    assert (
        measured["overload_completed"] + measured["overload_shed"]
        == measured["requests"]
    )

    # Retrieval probes on the churned index never surface a delisted
    # product.
    for key, _, _ in POLICIES:
        assert measured[f"{key}_dead_doc_hits"] == 0

    # Two replays of the same seed agree on every deterministic counter
    # (ServingStats tier counters + the scheduler fingerprint).
    assert measured["deterministic"] is True
