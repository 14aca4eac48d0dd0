"""Common seq2seq model interface.

Two views of the same model:

* **Training** — ``forward(src, tgt_in)`` returns per-position logits under
  teacher forcing.
* **Decoding** — ``start(src)`` builds a :class:`DecodeState`, and
  ``step(state, last_tokens)`` advances one target position, returning the
  next-token logits.  The state object is immutable-by-convention: ``step``
  returns a new state, so branching decoders (beam search, top-n sampling)
  can keep several states alive and ``reorder`` them when beams shuffle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.autograd import Tensor, no_grad
from repro.nn.loss import sequence_cross_entropy
from repro.nn.module import Module


def pad_sources(sequences: list[list[int]], pad_id: int) -> np.ndarray:
    """Right-pad variable-length source id lists into one (batch, seq) array.

    The stacked-sequence entry point for batched decoding: every model's
    ``encode`` masks pad positions, so sources of different lengths can be
    pushed through the encoder in a single forward pass.
    """
    if not sequences:
        raise ValueError("pad_sources received no sequences")
    width = max(1, max(len(s) for s in sequences))
    out = np.full((len(sequences), width), pad_id, dtype=np.int64)
    for i, seq in enumerate(sequences):
        out[i, : len(seq)] = seq
    return out


@dataclass
class DecodeState:
    """Model-specific decoding state.

    ``payload`` is owned by the model; decoders only thread it through and
    call :meth:`reorder` when beam hypotheses are permuted/duplicated.
    """

    batch_size: int
    payload: dict[str, Any]

    def reorder(self, index: np.ndarray, model: "Seq2SeqModel") -> "DecodeState":
        """Select/duplicate batch entries according to ``index``."""
        return model.reorder_state(self, np.asarray(index))


class Seq2SeqModel(Module):
    """Base class for all translation models."""

    def __init__(self, vocab_size: int, pad_id: int, sos_id: int, eos_id: int):
        super().__init__()
        self.vocab_size = vocab_size
        self.pad_id = pad_id
        self.sos_id = sos_id
        self.eos_id = eos_id
        #: decode telemetry: number of ``step`` calls since the last reset
        self.decode_steps = 0
        #: decode telemetry: total rows stepped (sum of batch sizes across
        #: ``step`` calls) — with active-row compaction this grows strictly
        #: slower than ``decode_steps * batch``, which is the observable
        #: win the serving tier mirrors into its stats
        self.decode_rows = 0

    def _count_step(self, rows: int) -> None:
        """Tally one ``step`` call over ``rows`` batch rows."""
        self.decode_steps += 1
        self.decode_rows += rows

    def reset_decode_counters(self) -> None:
        """Zero the decode telemetry (callers sample deltas around decodes)."""
        self.decode_steps = 0
        self.decode_rows = 0

    # -- training view ------------------------------------------------------
    def forward(self, src: np.ndarray, tgt_in: np.ndarray) -> Tensor:  # pragma: no cover
        """Teacher-forcing logits of shape (batch, tgt_len, vocab)."""
        raise NotImplementedError

    def loss(self, src: np.ndarray, tgt_in: np.ndarray, tgt_out: np.ndarray,
             label_smoothing: float = 0.0) -> tuple[Tensor, int]:
        """Convenience: mean token cross entropy for a padded batch."""
        logits = self.forward(src, tgt_in)
        return sequence_cross_entropy(logits, tgt_out, self.pad_id, label_smoothing)

    # -- decoding view --------------------------------------------------------
    def start(self, src: np.ndarray) -> DecodeState:  # pragma: no cover
        """Encode sources and return the initial decode state."""
        raise NotImplementedError

    def step(self, state: DecodeState, last_tokens: np.ndarray) -> tuple[np.ndarray, DecodeState]:
        """Advance one step; returns (next-token logits as ndarray, new state).

        ``last_tokens`` is the (batch,) array of tokens emitted at the
        previous position (SOS for the first step).
        """
        raise NotImplementedError  # pragma: no cover

    def reorder_state(self, state: DecodeState, index: np.ndarray) -> DecodeState:  # pragma: no cover
        raise NotImplementedError

    # -- scoring ---------------------------------------------------------------
    def sequence_log_prob(self, src: np.ndarray, tgt: np.ndarray) -> np.ndarray:
        """log P(tgt | src) per batch element, summed over non-pad positions.

        ``tgt`` must include SOS and EOS.  Used by the inference pipeline to
        score candidate rewrites (Section III-E) and by the cyclic loss
        diagnostics.
        """
        src = np.asarray(src)
        tgt = np.asarray(tgt)
        with no_grad():
            logits = self.forward(src, tgt[:, :-1])
        log_probs = logits.log_softmax(axis=-1).data
        labels = tgt[:, 1:]
        batch, seq_len = labels.shape
        picked = log_probs[np.arange(batch)[:, None], np.arange(seq_len)[None, :], labels]
        mask = labels != self.pad_id
        return (picked * mask).sum(axis=1)

    def token_accuracy(self, src: np.ndarray, tgt_in: np.ndarray, tgt_out: np.ndarray) -> float:
        """Fraction of non-pad positions predicted correctly (paper Fig 7c)."""
        with no_grad():
            logits = self.forward(src, tgt_in)
        predictions = logits.data.argmax(axis=-1)
        mask = tgt_out != self.pad_id
        correct = ((predictions == tgt_out) & mask).sum()
        return float(correct) / max(1, int(mask.sum()))


class RecurrentDecoderModel(Seq2SeqModel):
    """The array decode step of ``HybridNMT`` and ``RecurrentNMT``: ``start``
    leaves ``hidden``, ``memory``, ``mem_pad`` (and, cached, ``mem_keys``)
    arrays, which :meth:`step` runs through the modules' ``infer``."""

    def step(self, state: DecodeState, last_tokens: np.ndarray) -> tuple[np.ndarray, DecodeState]:
        """One recurrent decode step (constant cost in the prefix length)."""
        self._count_step(state.batch_size)
        payload = state.payload
        hidden = self.decoder.infer(
            self.embedding.infer(np.asarray(last_tokens).reshape(-1)),
            payload["hidden"],
            payload["memory"],
            payload["mem_pad"],
            payload.get("mem_keys"),
        )
        new_payload = {**payload, "hidden": hidden}
        return self.output_proj.infer(hidden), DecodeState(state.batch_size, new_payload)

    def reorder_state(self, state: DecodeState, index: np.ndarray) -> DecodeState:
        """Select/duplicate batch rows, cached attention keys included."""
        return DecodeState(
            batch_size=len(index),
            payload={key: value[index] for key, value in state.payload.items()},
        )
