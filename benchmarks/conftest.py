"""Benchmark fixtures: one shared experiment context per session.

Each benchmark regenerates one table/figure of the paper and prints the
rendered result.  An ordinary run leaves the tracked
``benchmarks/results/<id>.txt`` artifacts (EXPERIMENTS.md points there)
alone; refresh them on purpose with::

    PYTHONPATH=src python -m pytest benchmarks --update-results

Every bar here is deterministic: recall, match rates, postings, decoder
steps, model calls, titles encoded, cells scored, churn.  No bar
compares two wall-clock readings — how fast the serving stack runs is
``bench/``'s to measure (see ``BENCHMARK.json``).  Only Table V (the
paper's latency table) and the ``serving`` latency table still render
timings, so a refresh rewrites their numbers every time.
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
