"""The `python -m repro.experiments` command-line runner.

Includes the registry-drift gate (every experiment module that defines a
``run`` is registered) and the tiny-scale smoke that actually executes
every registered experiment and checks its ``--out`` artifact — the test
that catches "added an experiment, forgot to register it" and "runner
crashes outside its benchmark" in one sweep.
"""

import importlib
import pkgutil

import pytest

import repro.experiments as experiments_pkg
from repro.experiments.__main__ import RUNNERS, SCALES, main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("table1", "table7", "fig7", "lm_exploration"):
            assert name in out

    def test_unknown_experiment(self, capsys):
        assert main(["tableX"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_registry_covers_every_table_and_figure(self):
        expected = {
            "table1", "table2", "table3_table4", "table5", "table6",
            "table7", "table8", "fig5", "fig6", "fig7", "fig8", "fig9",
        }
        assert expected <= set(RUNNERS)

    def test_registry_covers_scale_experiments(self):
        expected = {
            "serving", "serving_batched", "retrieval_scale",
            "hybrid_retrieval", "online_replay",
        }
        assert expected <= set(RUNNERS)

    def test_registry_covers_scenario_library(self):
        """Scenario drift gate, both directions: the ``scenarios``
        experiment is registered, and every arm in the scenario registry
        is one the experiment (and the CI smoke) will actually run."""
        assert "scenarios" in RUNNERS
        from repro.online import SCENARIOS, get_scenario

        expected_arms = {
            "multi_tenant", "hot_key_storm", "churn_storm",
            "cold_restart", "cold_restart_persistent", "vocab_drift",
            "shard_failover", "gateway_soak",
        }
        assert set(SCENARIOS) == expected_arms
        for name in expected_arms:
            assert get_scenario(name).name == name
        # Arms run only through the scenarios experiment.
        assert not expected_arms & set(RUNNERS)

    def test_scales_registered(self):
        assert set(SCALES) == {"tiny", "small", "default"}

    def test_runs_cheap_experiment(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Model hyperparameters" in out

    def test_every_run_function_is_registered(self):
        """Registry drift gate: a module exposing ``run(scale)`` must be in
        RUNNERS (modules with several runners register each by name)."""
        registered = set(RUNNERS.values())
        missing = []
        for info in pkgutil.iter_modules(experiments_pkg.__path__):
            if info.name.startswith("_"):
                continue
            module = importlib.import_module(f"repro.experiments.{info.name}")
            runner = getattr(module, "run", None)
            if callable(runner) and getattr(runner, "__module__", "") == module.__name__:
                if runner not in registered:
                    missing.append(module.__name__)
        assert not missing, (
            f"experiment modules with an unregistered run(): {missing} — "
            "add them to RUNNERS in repro/experiments/__main__.py"
        )

    def test_out_dir_written_for_cheap_experiment(self, tmp_path, capsys):
        assert main(["table2", "--out", str(tmp_path / "artifacts")]) == 0
        artifact = tmp_path / "artifacts" / "table2.txt"
        assert artifact.exists()
        assert "Model hyperparameters" in artifact.read_text()


@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_every_registered_experiment_writes_artifact(name, tmp_path, capsys):
    """Run EVERY registered experiment at the tiny smoke scale and check
    it exits 0 and leaves exactly one non-empty result artifact with no
    FAIL verdict (every rendered verdict is deterministic)."""
    out = tmp_path / "artifacts"
    assert main([name, "--scale", "tiny", "--out", str(out)]) == 0
    artifacts = list(out.glob("*.txt"))
    assert len(artifacts) == 1, f"{name} left {artifacts}"
    text = artifacts[0].read_text()
    assert text.startswith("== ")
    assert len(text.strip()) > 0
    failing = [line for line in text.splitlines() if "FAIL" in line]
    assert not failing, f"{name} renders failing verdicts: {failing}"


def test_serving_artifact_reproduces():
    """``serving`` renders counters only, so two same-seed runs render the
    same text and ``--update-results`` leaves ``serving.txt`` unchanged."""
    from repro.experiments import TINY, serving

    assert serving.run(TINY).render() == serving.run(TINY).render()
