"""Benchmark fixtures: one shared experiment context per session.

Each benchmark regenerates one table/figure of the paper and prints the
rendered result.  The tracked ``benchmarks/results/<id>.txt`` artifacts
(EXPERIMENTS.md points there) carry wall-clock numbers, so an ordinary
run leaves them alone; refresh them on purpose with::

    PYTHONPATH=src python -m pytest benchmarks --update-results

Four bars are ratios of wall-clock timings that a small shared machine
cannot hold steady (the IVF-vs-brute-force speedup, the
process-workers-vs-threads qps ratio, the cached-vs-reference decode
speedup and the serial-vs-micro-batch replay throughput).  They gate
only under ``--wall-clock`` — CI's ``benchmark-smoke`` job passes it,
where the cores exist — and are rendered either way; every
deterministic assertion (recall, match rates, postings, model calls,
churn) always runs.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments import SMALL
from repro.experiments.shared import build_context

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def scale():
    return SMALL


@pytest.fixture(scope="session")
def context(scale):
    """Marketplace + trained separate/joint pairs, built once per session."""
    return build_context(scale)


def pytest_addoption(parser):
    parser.addoption(
        "--update-results",
        action="store_true",
        default=False,
        help="rewrite the tracked benchmarks/results/*.txt from this run",
    )
    parser.addoption(
        "--wall-clock",
        action="store_true",
        default=False,
        help="also assert the wall-clock ratio bars (needs a quiet machine)",
    )


@pytest.fixture(scope="session")
def wall_clock(request) -> bool:
    """Whether the wall-clock ratio bars gate this run (``--wall-clock``);
    like ``--update-results``, never in a whole-repo run."""
    return request.config.getoption("wall_clock", default=False)


@pytest.fixture(scope="session")
def save_result(request):
    # The option only exists when this conftest was loaded at start-up
    # (a run given the benchmarks/ path); a whole-repo run never updates.
    update = request.config.getoption("update_results", default=False)

    def _save(result) -> None:
        text = result.render()
        if update:
            RESULTS_DIR.mkdir(exist_ok=True)
            (RESULTS_DIR / f"{result.experiment_id}.txt").write_text(text + "\n")
        print("\n" + text)

    return _save
