"""``forward`` trains, ``infer`` serves: every block's ``infer`` gives its
``forward``'s bytes on plain arrays, and the KV-cached ``step`` over a
whole prefix from empty caches gives the encoder's ``infer`` and the
decoder's ``forward``."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.nn import (
    AdditiveAttention,
    Dropout,
    Embedding,
    FeedForward,
    GRUCell,
    LayerNorm,
    Linear,
    MultiHeadAttention,
    PositionalEncoding,
    RecurrentDecoderCell,
    RecurrentEncoder,
    RNNCell,
    TransformerDecoder,
    TransformerDecoderLayer,
    TransformerEncoder,
    TransformerEncoderLayer,
)
from repro.nn.attention import causal_mask, padding_mask

D, HEADS = 16, 4
RNG = np.random.default_rng(0)
X = RNG.normal(size=(3, 5, D))
MEMORY = RNG.normal(size=(3, 4, D))
IDS = np.array([[3, 4, 5, 0, 0], [6, 7, 8, 9, 0], [1, 2, 3, 4, 5]])
#: the decoder masks: causal + pad over the target, pad over the memory
SELF_MASK = causal_mask(5) | padding_mask(IDS, 0)
MEMORY_PAD = np.array([[False, False, True, True], [False] * 4, [False, False, False, True]])
MEMORY_MASK = MEMORY_PAD[:, None, None, :]


def _rng():
    return np.random.default_rng(1)


#: block name -> (block, its forward arguments); arrays stand for tensors
BLOCKS = {
    "linear": lambda: (Linear(D, 7, rng=_rng()), (X,), {}),
    "embedding": lambda: (Embedding(12, D, padding_idx=0, rng=_rng()), (IDS,), {}),
    "layer_norm": lambda: (LayerNorm(D), (X,), {}),
    "dropout_eval": lambda: (Dropout(0.3, rng=_rng()).eval(), (X,), {}),
    "positional": lambda: (PositionalEncoding(D), (X,), {"offset": 2}),
    "feed_forward": lambda: (FeedForward(D, 2 * D, rng=_rng()), (X,), {}),
    "self_attention": lambda: (
        MultiHeadAttention(D, HEADS, rng=_rng()), (X, X, X), {"mask": SELF_MASK}
    ),
    "cross_attention": lambda: (
        MultiHeadAttention(D, HEADS, rng=_rng()), (X, MEMORY, MEMORY), {"mask": MEMORY_MASK}
    ),
    "encoder_layer": lambda: (
        TransformerEncoderLayer(D, HEADS, 2 * D, rng=_rng()), (X,), {"mask": SELF_MASK}
    ),
    "encoder": lambda: (
        TransformerEncoder(2, D, HEADS, 2 * D, rng=_rng()), (X,), {"mask": SELF_MASK}
    ),
    "rnn_cell": lambda: (RNNCell(D, D, rng=_rng()), (X[:, 0], X[:, 1]), {}),
    "gru_cell": lambda: (GRUCell(D, D, rng=_rng()), (X[:, 0], X[:, 1]), {}),
    "recurrent_encoder": lambda: (
        RecurrentEncoder(GRUCell(D, D, rng=_rng())), (X,), {"pad_mask": IDS == 0}
    ),
}


def _tensors(args):
    return tuple(Tensor(a) if a.dtype.kind == "f" else a for a in args)


def _data(out):
    return tuple(o.data for o in out) if isinstance(out, tuple) else out.data


@pytest.mark.parametrize("name", list(BLOCKS))
def test_infer_equals_forward(name):
    block, args, kwargs = BLOCKS[name]()
    expected = _data(block(*_tensors(args), **kwargs))
    actual = block.infer(*args, **kwargs)
    if isinstance(expected, tuple):
        for e, a in zip(expected, actual):
            np.testing.assert_array_equal(a, e)
    else:
        np.testing.assert_array_equal(actual, expected)


def test_additive_attention_and_decoder_cell_infer_equal_forward():
    """The recurrent decoder's blocks take the memory's key projection,
    which a decoder caches at ``start``, as an extra argument."""
    attention = AdditiveAttention(D, D, D, rng=_rng())
    keys = attention.k_proj.infer(MEMORY)
    query = X[:, 0]
    context, _ = attention(Tensor(query), Tensor(MEMORY), MEMORY_PAD)
    np.testing.assert_array_equal(
        attention.infer(query, MEMORY, MEMORY_PAD, keys)[0], context.data
    )
    cell = RecurrentDecoderCell(GRUCell(2 * D, D, rng=_rng()), attention)
    _, hidden = cell.step(Tensor(X[:, 1]), Tensor(query), Tensor(MEMORY), MEMORY_PAD)
    np.testing.assert_array_equal(
        cell.infer(X[:, 1], query, MEMORY, MEMORY_PAD, keys), hidden.data
    )


def test_kv_step_over_a_whole_prefix_equals_infer():
    """A prompt primes its caches through the same step a decode extends
    them with: from empty caches, the step is ``infer``, bit for bit."""
    encoder = TransformerEncoder(2, D, HEADS, 2 * D, rng=_rng())
    caches = [layer.self_attn.empty_cache(3) for layer in encoder.layers]
    out, caches = encoder.step(X, caches, mask=SELF_MASK)
    np.testing.assert_array_equal(out, encoder.infer(X, mask=SELF_MASK))
    assert [k.shape for k, _ in caches] == [(3, HEADS, 5, D // HEADS)] * 2


def test_decoder_step_from_empty_caches_equals_forward():
    """The transformer decoder's array path is its KV step alone: over a
    whole prefix from empty caches it is the teacher-forced ``forward``."""
    masks = {"self_mask": SELF_MASK, "memory_mask": MEMORY_MASK}
    layer = TransformerDecoderLayer(D, HEADS, 2 * D, rng=_rng())
    out, _ = layer.step(
        X, layer.cross_attn.project_kv(MEMORY), layer.self_attn.empty_cache(3), **masks
    )
    np.testing.assert_array_equal(out, layer(Tensor(X), Tensor(MEMORY), **masks).data)

    decoder = TransformerDecoder(2, D, HEADS, 2 * D, rng=_rng())
    cross_kv = [layer.cross_attn.project_kv(MEMORY) for layer in decoder.layers]
    caches = [layer.self_attn.empty_cache(3) for layer in decoder.layers]
    out, _ = decoder.step(X, cross_kv, caches, **masks)
    np.testing.assert_array_equal(out, decoder(Tensor(X), Tensor(MEMORY), **masks).data)


def test_kv_steps_one_position_at_a_time_match_infer():
    """Extending the caches one position per step reproduces each
    position's row of the causal ``infer`` up to float reassociation."""
    encoder = TransformerEncoder(2, D, HEADS, 2 * D, rng=_rng())
    full = encoder.infer(X, mask=causal_mask(5))
    caches = [layer.self_attn.empty_cache(3) for layer in encoder.layers]
    for t in range(5):
        out, caches = encoder.step(X[:, t : t + 1], caches)
        np.testing.assert_allclose(out[:, 0], full[:, t], atol=1e-12, rtol=0)
