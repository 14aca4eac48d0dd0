"""Model configuration, including the paper's Table II hyperparameters."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ModelConfig:
    """Hyperparameters shared by all model families.

    Defaults are the scaled-down values used throughout this reproduction
    (NumPy on CPU); :func:`paper_hyperparameters` returns the full-size
    values the paper reports in Table II.
    """

    vocab_size: int = 256
    d_model: int = 32
    num_heads: int = 4
    d_ff: int = 64
    encoder_layers: int = 2
    decoder_layers: int = 1
    dropout: float = 0.1
    max_len: int = 64
    cell_type: str = "gru"  # for recurrent models: "rnn" | "gru"
    seed: int = 0

    def scaled(self, **overrides) -> "ModelConfig":
        """Copy with overrides (dataclasses.replace convenience)."""
        from dataclasses import replace

        return replace(self, **overrides)


def paper_hyperparameters() -> dict[str, dict[str, object]]:
    """The paper's Table II, verbatim.

    These are too large to train on the NumPy substrate but are recorded so
    the experiment harness can print the table and so users can see exactly
    what was scaled down.
    """
    return {
        "query_to_title": {
            "transformer_layers": 4,
            "num_heads": 8,
            "feed_forward_hidden": 1024,
            "embedding_dim": 512,
            "dropout": 0.1,
        },
        "title_to_query": {
            "transformer_layers": 1,
            "num_heads": 8,
            "feed_forward_hidden": 1024,
            "embedding_dim": 512,
            "dropout": 0.1,
        },
        "optimizer": {
            "name": "adam",
            "learning_rate": 0.05,
            "beta1": 0.9,
            "beta2": 0.999,
            "epsilon": 1e-8,
            "schedule": "noam",
        },
        "training": {
            "lambda_cyclic": 0.1,
            "beam_width_k": 3,
            "top_n": 40,
        },
    }

