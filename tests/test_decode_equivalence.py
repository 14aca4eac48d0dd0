"""Equivalence and regression suite for the incremental decode path.

Pins the three contracts of the KV-cached rework (``docs/DECODING.md``):

* **step ≡ forward** — cached incremental step logits match the
  teacher-forced full forward to 1e-6 for the transformer, so the fast
  path is the slow path, reassociated, and bit for bit for the
  recurrent-decoder models, whose array ``start`` / ``step`` run the
  Tensor forward's NumPy expressions in its order;
* **one inference engine** — each model's array ``logits`` is its
  ``forward`` bit for bit, and no path that does not train (decoding,
  scoring, the Fig. 6/7 evaluations, LM generation, the dual encoder)
  constructs a ``Tensor``;
* **reorder invariance** — permuting/duplicating/compacting a cached
  state mid-decode and continuing is exact, so beam shuffles and
  active-row compaction never change results;
* **decoder equivalence + bugfixes** — the optimized decoders return
  token-identical hypotheses vs the seed decoders in
  ``tests/decode_oracle.py``, which take every step's logits from the
  teacher-forced forward and never touch ``start``/``step``/
  ``reorder_state``, while fixing the seed's empty-pool NaN crash and
  zombie-row stepping (regression tests here fail against the pre-fix
  behaviour by construction: the oracle exhibits it).
"""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.core.rewriter import DirectRewriter, RewriterConfig
from repro.data.dataset import ParallelCorpus, pad_batch
from repro.decoding import (
    beam_search,
    beam_search_batch,
    greedy_decode,
    greedy_decode_batch,
    sample_top_n_pools,
    top_n_sampling,
    top_n_sampling_batch,
)
from repro.embedding import DualEncoder
from repro.experiments import fig6
from repro.experiments.scale import SMALL, TINY
from repro.models import HybridNMT, ModelConfig, RecurrentNMT, TransformerNMT
from repro.models.lm import DecoderOnlyLM
from repro.models.base import DecodeState, RecurrentDecoderModel, Seq2SeqModel
from repro.text import Vocabulary
from repro.training.evaluation import ConvergenceTracker, translate_back_metrics
from tests import decode_oracle

VOCAB = 48
LOGIT_TOL = 1e-6  # float-reassociation gate for the cached transformer path


def _config(seed: int = 3) -> ModelConfig:
    return ModelConfig(
        vocab_size=VOCAB, d_model=32, num_heads=4, d_ff=64,
        encoder_layers=2, decoder_layers=2, max_len=64, dropout=0.0, seed=seed,
    )


MODELS = {
    "transformer": lambda: TransformerNMT(_config()),
    "hybrid": lambda: HybridNMT(_config()),
    "hybrid-rnn": lambda: HybridNMT(_config().scaled(cell_type="rnn")),
    "recurrent": lambda: RecurrentNMT(_config()),
    "recurrent-plain": lambda: RecurrentNMT(_config(), use_attention=False),
}


@pytest.fixture(scope="module", params=list(MODELS))
def model(request):
    m = MODELS[request.param]()
    m.eval()
    return m


@pytest.fixture(scope="module")
def src():
    """Padded batch with ragged true lengths (rows 1 and 2 end early)."""
    rng = np.random.default_rng(11)
    out = rng.integers(3, VOCAB, size=(4, 7))
    out[1, 5:] = 0
    out[2, 3:] = 0
    return out


def _hyp_tokens(hyps):
    return [(h.tokens, h.finished) for h in hyps]


def _assert_hyps_equivalent(new, old):
    """Token-for-token identical; log-probs equal up to reassociation."""
    assert _hyp_tokens(new) == _hyp_tokens(old)
    for a, b in zip(new, old):
        assert a.log_prob == pytest.approx(b.log_prob, abs=1e-9)


# -- step ≡ forward ----------------------------------------------------------

def test_cached_steps_match_teacher_forced_forward(model, src):
    rng = np.random.default_rng(5)
    tgt = np.concatenate(
        [np.full((src.shape[0], 1), model.sos_id, dtype=np.int64),
         rng.integers(3, VOCAB, size=(src.shape[0], 5))],
        axis=1,
    )
    full = model.forward(src, tgt).data
    state = model.start(src)
    for t in range(tgt.shape[1]):
        logits, state = model.step(state, tgt[:, t])
        if isinstance(model, RecurrentDecoderModel):
            np.testing.assert_array_equal(logits, full[:, t, :])
        else:
            np.testing.assert_allclose(logits, full[:, t, :], atol=LOGIT_TOL, rtol=0)


def test_logits_equal_forward_and_leave_the_decode_counters(model, src):
    """``logits`` is ``forward`` on plain arrays, bit for bit; scoring is
    not decoding, so ``decode_steps``/``decode_rows`` do not move."""
    rng = np.random.default_rng(5)
    tgt_in = np.concatenate(
        [np.full((src.shape[0], 1), model.sos_id, dtype=np.int64),
         rng.integers(3, VOCAB, size=(src.shape[0], 5))],
        axis=1,
    )
    tgt_in[2, 4:] = model.pad_id
    model.reset_decode_counters()
    np.testing.assert_array_equal(model.logits(src, tgt_in), model.forward(src, tgt_in).data)
    assert (model.decode_steps, model.decode_rows) == (0, 0)


def _tiny_config(vocab_size: int) -> ModelConfig:
    return ModelConfig(
        vocab_size=vocab_size, d_model=32, num_heads=4, d_ff=64,
        encoder_layers=1, decoder_layers=1, dropout=0.0, seed=0,
    )


def _served_rewrite_batch():
    """``DirectRewriter.rewrite_batch`` over the bench's ``HybridNMT`` shape."""
    vocab = Vocabulary([f"w{i}" for i in range(40)])
    model = HybridNMT(_tiny_config(len(vocab)))
    rewriter = DirectRewriter(
        model, vocab, RewriterConfig(k=3, top_n=5, max_query_len=10, seed=0)
    )
    queries = [f"w{i} w{(7 * i) % 40}" for i in range(16)]

    def run():
        results = rewriter.rewrite_batch(queries)
        assert model.decode_steps > 1 and any(results)

    return run


def _scoring_pair():
    """Two untrained transformers over a 40-word vocabulary, eval'd, and
    query rows (EOS-terminated) to score and translate back."""
    vocab = Vocabulary([f"w{i}" for i in range(40)])
    forward, backward = (
        TransformerNMT(_tiny_config(len(vocab)).scaled(seed=seed)).eval() for seed in (0, 1)
    )
    rng = np.random.default_rng(3)
    queries = [vocab.encode([f"w{i}" for i in rng.integers(0, 40, size=3)]) for _ in range(6)]
    return vocab, forward, backward, queries


def _sequence_log_prob():
    _, forward, _, queries = _scoring_pair()
    src = pad_batch(queries, 0)
    tgt = pad_batch([[forward.sos_id] + q for q in queries], 0)
    return lambda: forward.sequence_log_prob(src, tgt)


def _evaluate():
    vocab, forward, backward, queries = _scoring_pair()
    corpus = ParallelCorpus(queries, [[vocab.sos_id] + q for q in queries], vocab)
    tracker = ConvergenceTracker(
        forward, backward, corpus, corpus, queries, vocab, k=2, top_n=4
    )
    return lambda: tracker.evaluate(0)


def _translate_back_metrics():
    vocab, forward, backward, queries = _scoring_pair()
    return lambda: translate_back_metrics(
        forward, backward, queries, vocab, k=2, top_n=4, rng=np.random.default_rng(0)
    )


def _transformer_greedy():
    _, forward, _, queries = _scoring_pair()
    return lambda: greedy_decode_batch(forward, pad_batch(queries, 0), max_len=8)


def _recurrent_decode():
    model = RecurrentNMT(_tiny_config(44)).eval()
    src = pad_batch([[5, 6, 7, 2], [8, 2]], 0)
    return lambda: top_n_sampling_batch(
        model, src, k=2, n=4, max_len=8, rng=np.random.default_rng(0)
    )


def _lm_generate():
    lm = DecoderOnlyLM(_tiny_config(44)).eval()
    return lambda: lm.generate(
        [5, 6, 7], max_new_tokens=6, stop_ids={2}, rng=np.random.default_rng(0)
    )


def _dual_encoder():
    vocab = Vocabulary([f"w{i}" for i in range(40)])
    encoder = DualEncoder(vocab)
    return lambda: encoder.encode_queries(["w1 w2 w3", "w4", ""])


def _fig6_attention():
    _, forward, _, queries = _scoring_pair()
    src = np.array([queries[0]])
    tgt = np.array([[forward.sos_id] + queries[1]])
    return lambda: fig6._attention_matrix(forward, src, tgt)


#: inference entry point -> builder returning the call to count
INFERENCE_PATHS = {
    "served_rewrite_batch": _served_rewrite_batch,
    "sequence_log_prob": _sequence_log_prob,
    "evaluate": _evaluate,
    "translate_back_metrics": _translate_back_metrics,
    "transformer_greedy": _transformer_greedy,
    "recurrent_decode": _recurrent_decode,
    "lm_generate": _lm_generate,
    "dual_encoder": _dual_encoder,
    "fig6_attention": _fig6_attention,
}


@pytest.mark.parametrize("path", list(INFERENCE_PATHS))
def test_inference_constructs_no_tensor(path, monkeypatch):
    """Every path that does not train runs on plain arrays: between its
    inputs and its outputs it builds no ``Tensor``.  Every construction,
    ``Tensor(...)``, a ``Parameter`` or an op's result, runs
    ``Tensor.__init__``.  (Counting through ``__new__`` cannot be undone:
    deleting a class's ``__new__`` override leaves its slot calling
    ``object.__new__`` with the constructor's arguments.)"""
    run = INFERENCE_PATHS[path]()
    built = []
    init = Tensor.__init__

    def counting_init(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    run()
    assert built == []


# -- reorder invariance ------------------------------------------------------

def test_reorder_permutation_and_duplication_mid_decode(model, src):
    """Shuffle + duplicate rows of a cached state mid-decode; continuing
    must equal a teacher-forced forward over each row's actual prefix."""
    rng = np.random.default_rng(7)
    batch = src.shape[0]
    prefixes = [[model.sos_id] for _ in range(batch)]
    state = model.start(src)
    for _ in range(3):
        tokens = np.array([p[-1] for p in prefixes], dtype=np.int64)
        _, state = model.step(state, tokens)
        for i, tok in enumerate(rng.integers(3, VOCAB, size=batch)):
            prefixes[i].append(int(tok))
    index = np.array([2, 0, 1, 1, 3])  # permute + duplicate row 1
    state = state.reorder(index, model)
    prefixes = [list(prefixes[i]) for i in index]
    last_logits = None
    for _ in range(2):
        tokens = np.array([p[-1] for p in prefixes], dtype=np.int64)
        last_logits, state = model.step(state, tokens)
        for i, tok in enumerate(rng.integers(3, VOCAB, size=len(index))):
            prefixes[i].append(int(tok))
    tgt = np.array([p[:-1] for p in prefixes], dtype=np.int64)
    full = model.forward(src[index], tgt).data
    np.testing.assert_allclose(last_logits, full[:, -1, :], atol=LOGIT_TOL, rtol=0)


def test_compaction_keeps_surviving_rows_exact(model, src):
    """Dropping rows mid-decode (active-row compaction) must not change
    the surviving rows' logits relative to stepping the full batch."""
    tokens = np.full(src.shape[0], model.sos_id, dtype=np.int64)
    full_state = model.start(src)
    logits, full_state = model.step(full_state, tokens)
    nxt = logits.argmax(axis=1)
    keep = np.array([0, 2, 3])
    compact_state = full_state.reorder(keep, model)
    for _ in range(3):
        logits_full, full_state = model.step(full_state, nxt)
        logits_compact, compact_state = model.step(compact_state, nxt[keep])
        np.testing.assert_allclose(
            logits_compact, logits_full[keep], atol=LOGIT_TOL, rtol=0
        )
        nxt = logits_full.argmax(axis=1)


# -- decoder equivalence vs the teacher-forced seed decoders -----------------

def test_greedy_batch_matches_oracle(model, src):
    new = greedy_decode_batch(model, src, max_len=12)
    old, _ = decode_oracle.greedy_decode_batch(model, src, max_len=12)
    _assert_hyps_equivalent(new, old)


def test_greedy_single_matches_oracle(model, src):
    new = greedy_decode(model, src[:1], max_len=12)
    old, _ = decode_oracle.greedy_decode_batch(model, src[:1], max_len=12)
    _assert_hyps_equivalent([new], old)


def test_topn_batch_matches_oracle(model, src):
    new = top_n_sampling_batch(
        model, src, k=3, n=8, max_len=12, rng=np.random.default_rng(42)
    )
    old, _ = decode_oracle.top_n_sampling_batch(
        model, src, k=3, n=8, max_len=12, rng=np.random.default_rng(42)
    )
    assert [_hyp_tokens(g) for g in new] == [_hyp_tokens(g) for g in old]
    for ga, gb in zip(new, old):
        _assert_hyps_equivalent(ga, gb)


def test_topn_single_matches_oracle(model, src):
    new = top_n_sampling(
        model, src[:1], k=3, n=8, max_len=12, rng=np.random.default_rng(9)
    )
    (old,), _ = decode_oracle.top_n_sampling_batch(
        model, src[:1], k=3, n=8, max_len=12, rng=np.random.default_rng(9)
    )
    _assert_hyps_equivalent(new, old)


def test_beam_matches_oracle(model, src):
    new = beam_search_batch(model, src, beam_size=3, max_len=12)
    old, _ = decode_oracle.beam_search_batch(model, src, beam_size=3, max_len=12)
    assert [_hyp_tokens(g) for g in new] == [_hyp_tokens(g) for g in old]
    single_new = beam_search(model, src[:1], beam_size=3, max_len=12)
    (single_old,), _ = decode_oracle.beam_search_batch(
        model, src[:1], beam_size=3, max_len=12
    )
    _assert_hyps_equivalent(single_new, single_old)


#: name -> (served batch decoder, its oracle, keyword arguments at a scale)
DECODERS = {
    "greedy": (greedy_decode_batch, decode_oracle.greedy_decode_batch, lambda scale: {}),
    "top_n": (
        top_n_sampling_batch,
        decode_oracle.top_n_sampling_batch,
        lambda scale: dict(k=3, n=scale.top_n, rng=np.random.default_rng(scale.seed + 1)),
    ),
    "beam": (
        beam_search_batch,
        decode_oracle.beam_search_batch,
        lambda scale: dict(beam_size=scale.beam_width),
    ),
}


def _tokens(result):
    """Tokens and finished flags of a batch decoder's result, grouped or not."""
    return [_hyp_tokens(r) if isinstance(r, list) else (r.tokens, r.finished) for r in result]


def test_oracle_decodes_without_the_decode_state(model, src, monkeypatch):
    """The oracle reads only ``forward``: once ``start``, ``step`` and
    ``reorder_state`` raise, it still decodes what the served decoders
    returned before."""
    served = {
        name: _tokens(decode(model, src, max_len=6, **kwargs(TINY)))
        for name, (decode, _, kwargs) in DECODERS.items()
    }

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle touched the decode state")

    for name in ("start", "step", "reorder_state"):
        monkeypatch.setattr(model, name, refuse)
    with pytest.raises(AssertionError, match="decode state"):
        greedy_decode_batch(model, src, max_len=6)
    for name, (_, oracle, kwargs) in DECODERS.items():
        decoded, _ = oracle(model, src, max_len=6, **kwargs(TINY))
        assert _tokens(decoded) == served[name], name


@pytest.mark.parametrize("decoder", list(DECODERS))
@pytest.mark.parametrize("scale", [TINY, SMALL], ids=lambda s: s.name)
def test_serving_shaped_transformer_decode_matches_oracle(scale, decoder):
    """The serving tier's transformer shape (2+2 layers, ``max_len=80``,
    the marketplace's 223-token vocabulary) over ragged 9-token sources,
    as the serving_batched experiment once decoded it: KV-cached,
    compacted decoding returns the oracle's tokens and steps no more rows
    than the keep-every-row loop feeds."""
    vocab_size = 223
    model = TransformerNMT(
        ModelConfig(
            vocab_size=vocab_size, d_model=scale.d_model, num_heads=scale.num_heads,
            d_ff=scale.d_ff, encoder_layers=2, decoder_layers=2, max_len=80,
            dropout=0.0, seed=scale.seed,
        )
    )
    model.eval()
    rng = np.random.default_rng(scale.seed)
    n_sources = scale.scaled(8, 2)
    src = rng.integers(3, vocab_size, size=(n_sources, 9))
    src[:, 7:] = np.where(rng.random((n_sources, 2)) < 0.5, 0, src[:, 7:])
    max_len = scale.scaled(32, 6)
    served, oracle, kwargs = DECODERS[decoder]

    model.reset_decode_counters()
    new = served(model, src, max_len=max_len, **kwargs(scale))
    old, oracle_rows = oracle(model, src, max_len=max_len, **kwargs(scale))
    assert _tokens(new) == _tokens(old)
    assert 0 < model.decode_rows <= oracle_rows


# -- batch vs single under ragged finish times -------------------------------

def test_batch_matches_single_under_ragged_finish(model, src):
    """Every batch decoder must agree with its per-source form even when
    sources finish at very different steps (compaction reshuffles rows)."""
    for s in range(src.shape[0]):
        row = src[s : s + 1]
        batch_greedy = greedy_decode_batch(model, src, max_len=12)[s]
        single_greedy = greedy_decode(model, row, max_len=12)
        _assert_hyps_equivalent([batch_greedy], [single_greedy])
        batch_beam = beam_search_batch(model, src, beam_size=3, max_len=10)[s]
        single_beam = beam_search(model, row, beam_size=3, max_len=10)
        assert _hyp_tokens(batch_beam) == _hyp_tokens(single_beam)
        batch_topn = top_n_sampling_batch(
            model, row, k=3, n=8, max_len=10, rng=np.random.default_rng(17)
        )[0]
        single_topn = top_n_sampling(
            model, row, k=3, n=8, max_len=10, rng=np.random.default_rng(17)
        )
        _assert_hyps_equivalent(batch_topn, single_topn)


# -- the vectorized sampler's RNG contract -----------------------------------

def test_sample_top_n_pools_replicates_per_row_choice():
    """The batched sampler must consume the exact RNG stream of the
    per-row argsort + ``rng.choice`` loop it replaced."""
    rng = np.random.default_rng(123)
    log_probs = np.log(rng.dirichlet(np.ones(20), size=16))
    log_probs[:, :2] = -np.inf  # blocked columns
    n = 7
    new_rng = np.random.default_rng(99)
    choices, legal = sample_top_n_pools(new_rng, log_probs.copy(), n)
    assert legal.all()
    old_rng = np.random.default_rng(99)
    for i in range(log_probs.shape[0]):
        row = log_probs[i]
        pool = np.argsort(-row)[:n]
        pool_logp = row[pool]
        probs = np.exp(pool_logp - pool_logp.max())
        probs /= probs.sum()
        expected = int(pool[old_rng.choice(len(pool), p=probs)])
        assert int(choices[i]) == expected
    # Both consumed exactly one uniform per row: streams stay in lockstep.
    assert new_rng.random() == old_rng.random()


def test_sample_top_n_pools_illegal_rows_consume_no_randomness():
    log_probs = np.full((3, 10), -np.inf)
    log_probs[1, 4] = -0.5  # only row 1 has a legal pool
    rng = np.random.default_rng(7)
    choices, legal = sample_top_n_pools(rng, log_probs, 4)
    assert list(legal) == [False, True, False]
    assert choices[1] == 4
    assert (choices[[0, 2]] == -1).all()
    # exactly one deviate was drawn (row 1's)
    assert rng.random() == np.random.default_rng(7).random(2)[1]


# -- regression: empty-pool NaN crash & zombie-row stepping ------------------

class ScriptedModel(Seq2SeqModel):
    """Deterministic stub whose logits are scripted by (source, t).

    Vocabulary layout: 0=PAD, 1=SOS, 2=EOS, 3.. real tokens.  A source's
    id is its first token minus 3, so ``[[3, 2], [4, 2]]`` are sources 0
    and 1 however rows are fanned out.  The decode payload carries each
    row's source id and step counter, both reordered like any cached
    array, so compaction/permutation behave exactly like a real model's;
    :meth:`forward` stacks ``script(sid, t)`` over the target positions,
    which is what the oracle reads.
    """

    def __init__(self, script, vocab_size: int = 6):
        super().__init__(vocab_size, pad_id=0, sos_id=1, eos_id=2)
        self.script = script

    @staticmethod
    def _sids(src):
        return np.asarray(src)[:, 0] - 3

    def forward(self, src, tgt_in):
        steps = range(np.shape(tgt_in)[1])
        return Tensor(
            np.array([[self.script(int(s), t) for t in steps] for s in self._sids(src)])
        )

    def start(self, src):
        sid = self._sids(src)
        return DecodeState(
            batch_size=len(sid),
            payload={"sid": sid, "t": np.zeros(len(sid), dtype=np.int64)},
        )

    def step(self, state, last_tokens):
        self._count_step(state.batch_size)
        sid, t = state.payload["sid"], state.payload["t"]
        logits = np.stack(
            [self.script(int(s), int(step)) for s, step in zip(sid, t)]
        )
        return logits, DecodeState(
            batch_size=state.batch_size, payload={"sid": sid, "t": t + 1}
        )

    def reorder_state(self, state, index):
        return DecodeState(
            batch_size=len(index),
            payload={key: value[index] for key, value in state.payload.items()},
        )


def _one_hot(vocab, hot, scale=10.0):
    row = np.full(vocab, -1e9)
    row[hot] = scale
    return row


def test_topn_empty_pool_finishes_gracefully_instead_of_nan_crash():
    """Seed behaviour: an all-``-inf`` legal pool renormalizes to NaN and
    ``rng.choice`` raises.  The fixed sampler retires the candidate
    unfinished, draws nothing, and the seed oracle still crashes — which
    is exactly what makes this test fail against pre-fix code."""

    def script(sid, t):
        if t == 0:
            row = np.full(6, -1e9)
            row[3], row[4] = 3.0, 2.0  # two legal first tokens
            return row
        # Afterwards only PAD is finite; PAD is always blocked, so the
        # masked pool is empty for every candidate.
        row = np.full(6, -np.inf)
        row[0] = 0.0
        return row

    src = np.array([[3, 2]])
    rng = np.random.default_rng(5)
    hyps = top_n_sampling(ScriptedModel(script), src, k=2, n=4, max_len=6, rng=rng)
    assert [h.tokens for h in hyps] == [(3,), (4,)]
    assert all(not h.finished for h in hyps)
    # No randomness was consumed anywhere in the decode.
    assert rng.random() == np.random.default_rng(5).random()
    # The seed oracle crashes on the same input.
    with pytest.raises(ValueError), np.errstate(invalid="ignore"):
        decode_oracle.top_n_sampling_batch(
            ScriptedModel(script), src, k=2, n=4, max_len=6,
            rng=np.random.default_rng(5),
        )


class DeadFirstCandidateModel(ScriptedModel):
    """Step logits keyed on the row's previous token: a row whose last
    token is 3 gets an empty legal pool (dead); any other row samples
    from tokens {5, 6}."""

    def step(self, state, last_tokens):
        self._count_step(state.batch_size)
        sid, t = state.payload["sid"], state.payload["t"]
        rows = []
        for step, tok in zip(t, np.asarray(last_tokens)):
            if step == 0:
                row = np.full(8, -1e9)
                row[3], row[4] = 3.0, 2.0  # first tokens: 3 then 4
            elif tok == 3:
                row = np.full(8, -np.inf)
                row[0] = 0.0  # only PAD finite -> empty legal pool
            else:
                row = np.full(8, -1e9)
                row[5], row[6] = 4.0, 1.0
            rows.append(row)
        return np.stack(rows), DecodeState(
            batch_size=state.batch_size, payload={"sid": sid, "t": t + 1}
        )


def test_topn_one_dead_candidate_leaves_other_streams_intact():
    """A candidate hitting an empty pool must not shift the surviving
    candidates' RNG draws (it consumes none and is compacted away)."""
    src = np.array([[3, 2]])
    hyps = top_n_sampling(
        DeadFirstCandidateModel(None, vocab_size=8), src, k=2, n=4,
        max_len=4, rng=np.random.default_rng(21),
    )
    assert [h.tokens[0] for h in hyps] == [3, 4]
    assert hyps[0].tokens == (3,) and not hyps[0].finished  # died at step 2
    assert len(hyps[1].tokens) == 4  # kept sampling to the budget
    assert all(tok in (5, 6) for tok in hyps[1].tokens[1:])
    # The survivor's continuation must match a run where the dead row
    # never existed: same draws, taken from the same stream positions.
    solo = top_n_sampling(
        DeadFirstCandidateModel(None, vocab_size=8), np.array([[4, 2]]),
        k=2, n=4, max_len=4, rng=np.random.default_rng(21),
    )
    # solo decodes candidates starting 3 (dies) and 4 under the same rng;
    # the surviving candidate's tokens must be identical draw-for-draw.
    assert solo[1].tokens == hyps[1].tokens


def test_greedy_batch_compacts_finished_rows():
    """Sources finishing early must stop costing model rows (the seed
    kept stepping them on their stale pre-EOS token); outputs unchanged."""
    finish_at = [0, 4]

    def script(sid, t):
        return _one_hot(6, 2 if t >= finish_at[sid] else 3)

    src = np.array([[3, 2], [4, 2]])
    model = ScriptedModel(script)
    hyps = greedy_decode_batch(model, src, max_len=8)
    ref_hyps, ref_rows = decode_oracle.greedy_decode_batch(model, src, max_len=8)
    _assert_hyps_equivalent(hyps, ref_hyps)
    assert hyps[0].tokens == () and hyps[0].finished
    assert hyps[1].tokens == (3, 3, 3, 3) and hyps[1].finished
    # Compaction shows up in the work accounting; the oracle feeds the
    # full width every step.  Pre-fix greedy behaved like the oracle, so
    # this inequality is exactly what fails on pre-fix code.
    assert ref_rows == 2 * 5
    assert model.decode_rows < ref_rows
    assert model.decode_rows == 2 + 4  # both rows once, then row 1 alone


def test_beam_batch_compacts_inactive_sources():
    """A source whose beams all finish must stop being stepped for batch
    rectangularity; the seed kept its rows alive as zombies."""

    def script(sid, t):
        if t == 0:
            row = np.full(6, -1e9)
            row[3], row[4] = 2.0, 1.0
            return row
        if sid == 0:
            return _one_hot(6, 2)  # EOS for every beam: source retires
        row = np.full(6, -1e9)
        row[3], row[4] = 2.0, 1.0
        if t >= 5:
            row = _one_hot(6, 2)
        return row

    src = np.array([[3, 2], [4, 2]])
    model = ScriptedModel(script)
    results = beam_search_batch(model, src, beam_size=2, max_len=8)
    ref_results, ref_rows = decode_oracle.beam_search_batch(
        model, src, beam_size=2, max_len=8
    )
    assert [_hyp_tokens(g) for g in results] == [_hyp_tokens(g) for g in ref_results]
    # Source 0 finished both beams at step 1; its rows must vanish from
    # the decode batch afterwards.  The oracle (= pre-fix behaviour)
    # feeds batch×beam rows every step, so equality here fails pre-fix.
    assert ref_rows == 2 * 2 * 6
    assert model.decode_rows < ref_rows
