"""Smoke test of the repo benchmark, at the reduced stack.

Only deterministic facts are asserted: the run exits 0 with no failed
item, it prints exactly the metrics ``BENCHMARK.json`` names (with their
units), every span's parent is a recorded span, and no span's children
outlast it.  No wall-clock value is compared with anything.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_benchmark(workload: str, trace: int, workdir: Path) -> dict:
    """One short run of ``workload``; returns its result line."""
    done = subprocess.run(
        [
            sys.executable, *SPEC["command"][1:],
            "--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace), "--scale", "smoke", "--workdir", str(workdir),
        ],  # fmt: skip
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def units(metrics) -> dict:
    return {metric["name"]: metric["unit"] for metric in metrics}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_prints_the_end_to_end_metrics(workload, tmp_path):
    result = run_benchmark(workload, 0, tmp_path)
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert printed == units(SPEC["end_to_end"])
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_traced_run_prints_the_layer_metrics_and_sound_spans(tmp_path):
    result = run_benchmark("mixed_open", 1, tmp_path)
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert printed == units(SPEC["per_layer"])

    lines = (tmp_path / "spans.jsonl").read_text(encoding="utf-8").splitlines()
    spans = {span["id"]: span for span in map(json.loads, lines)}
    assert spans
    children: dict = {}
    for span in spans.values():
        assert span["end"] >= span["start"]
        if span["parent"]:
            assert span["parent"] in spans
            children[span["parent"]] = (
                children.get(span["parent"], 0.0) + span["end"] - span["start"]
            )
    for parent, covered in children.items():
        self_time = spans[parent]["end"] - spans[parent]["start"] - covered
        assert self_time >= -1e-9, spans[parent]
