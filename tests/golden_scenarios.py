"""Writes ``tests/data/golden_scenarios.json`` — the scenario-outcome pin.

``benchmarks/test_scenarios.py`` checks that every arm passes and that
same-seed runs agree with each other, so a change that moves an arm's
traffic, accounting or bars while keeping it green passes there unseen.
This fixture freezes, per registered arm, what one run produced at one
commit, at smoke scale (``ScenarioConfig().scaled(0.04)``) and at
acceptance scale (``ScenarioConfig(seed=0)``): the sha256 of
``repr(outcome.fingerprint())`` and every invariant's
``(name, passed, bar, observed)``.  The deliberately broken
``multi_tenant`` deployment (``namespace_cache=False``) is pinned at both
scales too, with its failure names.
``tests/test_scenarios_golden.py`` asserts the current code reproduces
the file byte for byte.
Regenerate (only when an outcome change is intended) with::

    PYTHONPATH=src python tests/golden_scenarios.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib

from repro.online.scenarios import SCENARIOS, ScenarioConfig, run_scenario

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_scenarios.json"

#: scale label -> base config every arm runs from
SCALES = {
    "smoke": ScenarioConfig().scaled(0.04),
    "full": ScenarioConfig(seed=0),
}


def record(name: str, config: ScenarioConfig) -> dict:
    """The pinned facts of one run of arm ``name`` from ``config``."""
    outcome = run_scenario(name, config)
    invariants = [
        [result.name, result.passed, result.bar, result.observed]
        for result in outcome.invariants
    ]
    row = {
        "fingerprint_sha256": hashlib.sha256(
            repr(outcome.fingerprint()).encode()
        ).hexdigest(),
        "invariants": invariants,
    }
    if not config.namespace_cache:
        row["failures"] = [result.name for result in outcome.failures()]
    return row


def compute() -> dict:
    """``"<scale>/<arm>"`` -> record, for every arm plus the broken twin."""
    fixture = {}
    for scale, config in SCALES.items():
        for name in sorted(SCENARIOS):
            fixture[f"{scale}/{name}"] = record(name, config)
        broken = dataclasses.replace(config, namespace_cache=False)
        fixture[f"{scale}/multi_tenant[namespace_cache=False]"] = record(
            "multi_tenant", broken
        )
    return fixture


def render(fixture: dict) -> str:
    """The fixture as JSON text, one invariant per line."""
    blocks = []
    for key in sorted(fixture):
        row = fixture[key]
        lines = [f'  "fingerprint_sha256": {json.dumps(row["fingerprint_sha256"])}']
        if "failures" in row:
            lines.append(f'  "failures": {json.dumps(row["failures"])}')
        rows = ",\n".join("   " + json.dumps(item) for item in row["invariants"])
        lines.append(f'  "invariants": [\n{rows}\n  ]')
        blocks.append(f" {json.dumps(key)}: {{\n" + ",\n".join(lines) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    GOLDEN_PATH.write_text(render(compute()))
    print(f"wrote {GOLDEN_PATH}")
