"""Neural machine translation models used by the query rewriter.

All models implement the :class:`Seq2SeqModel` interface (teacher-forcing
``forward`` for training; ``start``/``step`` incremental API for decoding):

* :class:`TransformerNMT` — the paper's main model (Table II: 4-layer
  query-to-title, 1-layer title-to-query).
* :class:`RecurrentNMT` — RNN or GRU encoder-decoder, optionally with
  Bahdanau additive attention (the paper's "attention-based" comparator,
  Figure 8, and the "pure RNN" serving model, Figure 9).
* :class:`HybridNMT` — transformer encoder + RNN decoder, the online-serving
  compromise of Section III-G (Figure 9, Table V).
"""

import importlib

from repro.models.base import Seq2SeqModel, DecodeState
from repro.models.config import ModelConfig, paper_hyperparameters
from repro.models.hybrid_nmt import HybridNMT
from repro.models.io import save_weights, load_weights

#: names imported on first use (PEP 562): a serving process runs only
#: the hybrid model, so it never loads these modules
_LAZY = {
    "TransformerNMT": "repro.models.transformer_nmt",
    "RecurrentNMT": "repro.models.recurrent_nmt",
    "AttentionNMT": "repro.models.recurrent_nmt",
    "DecoderOnlyLM": "repro.models.lm",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(_LAZY[name]), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__all__ = [
    "DecoderOnlyLM",
    "save_weights",
    "load_weights",
    "Seq2SeqModel",
    "DecodeState",
    "ModelConfig",
    "paper_hyperparameters",
    "TransformerNMT",
    "RecurrentNMT",
    "AttentionNMT",
    "HybridNMT",
]
