"""Scenario-library sweep: every adversarial replay arm + its pinned bars.

The scenario library (:mod:`repro.online.scenarios`) packages the online
serving stack's regression harness into named arms — multi-tenant
isolation, hot-key storm, churn storm, cold-restart, vocabulary drift,
replica failover — each with deterministic traffic and pinned pass/fail
invariants.  This
experiment runs every registered arm at the requested scale and renders
one row per invariant, so the CLI artifact doubles as a human-readable
conformance report for the serving tier.

Alongside the per-arm bars, the run re-checks the two library-level
guarantees the benchmark suite pins (``benchmarks/test_scenarios.py``):
same-seed replays fingerprint identically, and a deliberately broken
config (``namespace_cache=False``) makes the isolation invariant fail —
proof the gates can actually catch a regression, not just pass.
"""

from __future__ import annotations

from repro.experiments.rendering import ascii_table
from repro.experiments.result import ExperimentResult
from repro.experiments.scale import ExperimentScale, SMALL
from repro.online.scenarios import SCENARIOS, ScenarioConfig, run_scenario


def _scenario_config(scale: ExperimentScale) -> ScenarioConfig:
    """The shared base config, shrunk by the scale's workload factor."""
    return ScenarioConfig(seed=scale.seed).scaled(min(1.0, scale.workload_factor))


def run(scale: ExperimentScale = SMALL) -> ExperimentResult:
    base = _scenario_config(scale)

    outcomes = {name: run_scenario(name, base) for name in SCENARIOS}

    # Library-level guarantee 1: same-seed determinism (full fingerprint).
    deterministic = all(
        run_scenario(name, base).fingerprint() == outcomes[name].fingerprint()
        for name in SCENARIOS
    )

    # Library-level guarantee 2: the gates detect a real regression — a
    # shared, un-namespaced cache must trip the isolation invariant.
    broken = run_scenario(
        "multi_tenant", ScenarioConfig(seed=base.seed, namespace_cache=False).scaled(
            min(1.0, scale.workload_factor)
        )
    )
    broken_names = [result.name for result in broken.failures()]
    gates_catch_regressions = "zero_cross_tenant_cache_serves" in broken_names

    measured: dict[str, object] = {
        "scenarios": len(outcomes),
        "requests_per_tenant": base.requests_per_tenant,
        "all_passed": all(outcome.passed for outcome in outcomes.values()),
        "deterministic": deterministic,
        "gates_catch_regressions": gates_catch_regressions,
        "broken_config_failures": broken_names,
    }
    rows = []
    for name, outcome in outcomes.items():
        measured[f"{name}_passed"] = outcome.passed
        measured[f"{name}_invariants"] = len(outcome.invariants)
        measured[f"{name}_totals"] = outcome.totals()
        for result in outcome.invariants:
            measured[f"{name}_{result.name}"] = result.passed
            rows.append(
                [
                    name,
                    result.name,
                    result.bar,
                    f"{result.observed:g}",
                    "PASS" if result.passed else "FAIL",
                ]
            )
    rows.append(
        [
            "(library)",
            "same_seed_fingerprints_identical",
            "== rerun",
            "-",
            "PASS" if deterministic else "FAIL",
        ]
    )
    rows.append(
        [
            "(library)",
            "broken_config_detected",
            "namespace_cache=False fails",
            f"{len(broken_names)} failure(s)",
            "PASS" if gates_catch_regressions else "FAIL",
        ]
    )
    rendered = ascii_table(
        ["scenario", "invariant", "bar", "observed", "verdict"],
        rows,
        float_format="{:.3f}",
    )
    return ExperimentResult(
        experiment_id="scenarios",
        title="Scenario library: adversarial replay arms vs pinned invariants",
        measured=measured,
        paper={
            "claim": "the deployed serving tier isolates tenants and survives "
            "hot-key storms, churn storms, restarts and vocabulary drift",
            "setting": "Section III-G/H production serving behind the "
            "cache + scheduler + freshness stack",
        },
        rendered=rendered,
        notes=(
            "Every registered scenario replayed at this scale with its pinned "
            "invariants judged; plus the two library-level guarantees: "
            "same-seed runs fingerprint byte-identically, and a deliberately "
            "broken config (shared cache without tenant namespaces) trips the "
            "cross-tenant isolation gate — the harness can fail."
        ),
    )
