"""Checkpoint save/load and the A/B significance test."""

import numpy as np
import pytest

from repro.models import ModelConfig, TransformerNMT, load_weights, save_weights


class TestCheckpointing:
    def _model(self, seed=0):
        return TransformerNMT(
            ModelConfig(vocab_size=32, d_model=16, num_heads=2, d_ff=32,
                        encoder_layers=1, decoder_layers=1, seed=seed)
        )

    def test_roundtrip(self, tmp_path):
        model = self._model(seed=0)
        path = tmp_path / "ckpt.npz"
        save_weights(model, path)
        other = self._model(seed=9)
        assert not np.allclose(
            model.embedding.weight.data, other.embedding.weight.data
        )
        load_weights(other, path)
        for (name_a, p_a), (name_b, p_b) in zip(
            model.named_parameters(), other.named_parameters()
        ):
            assert name_a == name_b
            np.testing.assert_allclose(p_a.data, p_b.data)

    def test_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "nested" / "dir" / "ckpt.npz"
        save_weights(self._model(), path)
        assert path.exists()

    def test_architecture_mismatch_raises(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        save_weights(self._model(), path)
        wrong = TransformerNMT(
            ModelConfig(vocab_size=32, d_model=16, num_heads=2, d_ff=32,
                        encoder_layers=2, decoder_layers=1, seed=0)
        )
        with pytest.raises(KeyError):
            load_weights(wrong, path)

    def test_behaviour_preserved(self, tmp_path):
        model = self._model(seed=0).eval()  # eval: dropout must be off
        src = np.array([[5, 6, 7, 2]])
        tgt_in = np.array([[1, 8, 9]])
        before = model.logits(src, tgt_in)
        path = tmp_path / "ckpt.npz"
        save_weights(model, path)
        clone = self._model(seed=5).eval()
        load_weights(clone, path)
        after = clone.logits(src, tgt_in)
        np.testing.assert_allclose(before, after)


class TestABSignificance:
    def _report(self, n=400, lift=0.05, seed=0):
        from repro.evaluation.abtest import ABTestReport, ArmMetrics

        rng = np.random.default_rng(seed)
        control = ArmMetrics()
        variation = ArmMetrics()
        for _ in range(n):
            base = rng.random() < 0.2
            control.record(base, 10.0 * base, not base)
            better = base or (rng.random() < lift)
            variation.record(better, 10.0 * better, not better)
        return ABTestReport(control=control, variation=variation)

    def test_real_lift_is_significant(self):
        report = self._report(n=800, lift=0.15)
        sig = report.significance("UCVR", resamples=500)
        assert sig["delta"] > 0
        assert sig["p_value"] < 0.05
        assert sig["ci_low"] > 0

    def test_zero_lift_is_not_significant(self):
        report = self._report(n=400, lift=0.0)
        sig = report.significance("UCVR", resamples=500)
        assert sig["ci_low"] <= 0 <= sig["ci_high"] or abs(sig["delta"]) < 1e-12

    def test_all_metrics_supported(self):
        report = self._report()
        for metric in ("UCVR", "GMV", "QRR"):
            sig = report.significance(metric, resamples=100)
            assert set(sig) == {"delta", "ci_low", "ci_high", "p_value"}

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            self._report().significance("CTR")

    def test_empty_sessions_rejected(self):
        from repro.evaluation.abtest import ABTestReport, ArmMetrics

        report = ABTestReport(control=ArmMetrics(), variation=ArmMetrics())
        with pytest.raises(ValueError):
            report.significance("UCVR")
