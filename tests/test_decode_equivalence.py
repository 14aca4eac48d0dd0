"""Equivalence and regression suite for the incremental decode path.

Pins the three contracts of the KV-cached rework (``docs/DECODING.md``):

* **step ≡ forward** — cached incremental step logits match the
  teacher-forced full forward (and the uncached step path) to 1e-6 for
  the transformer, so the fast path is the slow path, reassociated, and
  bit for bit for the recurrent-decoder models, whose array ``start`` /
  ``step`` run the Tensor forward's NumPy expressions in its order;
* **reorder invariance** — permuting/duplicating/compacting a cached
  state mid-decode and continuing is exact, so beam shuffles and
  active-row compaction never change results;
* **decoder equivalence + bugfixes** — the optimized decoders return
  token-identical hypotheses vs the frozen seed implementations in
  ``repro.decoding.reference``, while fixing the seed's empty-pool NaN
  crash and zombie-row stepping (regression tests here fail against the
  pre-fix behaviour by construction: the frozen reference exhibits it).
"""

import importlib

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad
from repro.core.rewriter import DirectRewriter, RewriterConfig
from repro.decoding import (
    beam_search,
    beam_search_batch,
    greedy_decode,
    greedy_decode_batch,
    sample_top_n_pools,
    top_n_sampling,
    top_n_sampling_batch,
)
from repro.decoding import reference
from repro.models import HybridNMT, ModelConfig, RecurrentNMT, TransformerNMT
from repro.models.base import DecodeState, RecurrentDecoderModel, Seq2SeqModel
from repro.text import Vocabulary

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
    with no_grad():
        full = model.forward(src, tgt).data
    state = model.start(src)
    for t in range(tgt.shape[1]):
        logits, state = model.step(state, tgt[:, t])
        if isinstance(model, RecurrentDecoderModel):
            np.testing.assert_array_equal(logits, full[:, t, :])
        else:
            np.testing.assert_allclose(logits, full[:, t, :], atol=LOGIT_TOL, rtol=0)


def test_cached_and_uncached_step_logits_match(model, src):
    cached = model.start(src)
    uncached = model.start(src, use_cache=False)
    # The uncached state is the seed payload: no incremental caches.
    assert "self_kv" not in uncached.payload
    assert "mem_keys" not in uncached.payload
    tokens = np.full(src.shape[0], model.sos_id, dtype=np.int64)
    for _ in range(6):
        logits_c, cached = model.step(cached, tokens)
        logits_u, uncached = model.step(uncached, tokens)
        np.testing.assert_allclose(logits_c, logits_u, atol=LOGIT_TOL, rtol=0)
        tokens = logits_c.argmax(axis=1)


def test_served_rewrite_batch_constructs_no_tensor(monkeypatch):
    """The served decode (``DirectRewriter.rewrite_batch`` over the
    bench's ``HybridNMT`` shape) runs on plain arrays: it builds no
    ``Tensor``, graph-free or full, anywhere between the query strings
    and the rewrites."""
    vocab = Vocabulary([f"w{i}" for i in range(40)])
    model = HybridNMT(
        ModelConfig(
            vocab_size=len(vocab), d_model=32, num_heads=4, d_ff=64,
            encoder_layers=1, decoder_layers=1, dropout=0.0, seed=0,
        )
    )
    rewriter = DirectRewriter(
        model, vocab, RewriterConfig(k=3, top_n=5, max_query_len=10, seed=0)
    )
    queries = [f"w{i} w{(7 * i) % 40}" for i in range(16)]
    # the module, not ``repro.autograd.tensor``, the constructor function
    tensor_module = importlib.import_module("repro.autograd.tensor")
    built = {"Tensor": 0, "graph-free": 0}
    init, graph_free = Tensor.__init__, tensor_module._graph_free

    def counting_init(self, *args, **kwargs):
        built["Tensor"] += 1
        init(self, *args, **kwargs)

    def counting_graph_free(data):
        built["graph-free"] += 1
        return graph_free(data)

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    monkeypatch.setattr(tensor_module, "_graph_free", counting_graph_free)
    results = rewriter.rewrite_batch(queries)
    assert model.decode_steps > 1 and any(results)
    assert built == {"Tensor": 0, "graph-free": 0}


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
    with no_grad():
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


# -- decoder equivalence vs the frozen seed implementations ------------------

def test_greedy_batch_matches_reference(model, src):
    new = greedy_decode_batch(model, src, max_len=12)
    old = reference.greedy_decode_batch_reference(model, src, max_len=12)
    _assert_hyps_equivalent(new, old)


def test_topn_batch_matches_reference(model, src):
    new = top_n_sampling_batch(
        model, src, k=3, n=8, max_len=12, rng=np.random.default_rng(42)
    )
    old = reference.top_n_sampling_batch_reference(
        model, src, k=3, n=8, max_len=12, rng=np.random.default_rng(42)
    )
    assert [_hyp_tokens(g) for g in new] == [_hyp_tokens(g) for g in old]
    for ga, gb in zip(new, old):
        for a, b in zip(ga, gb):
            assert a.log_prob == pytest.approx(b.log_prob, abs=1e-9)


def test_topn_single_matches_reference(model, src):
    new = top_n_sampling(
        model, src[:1], k=3, n=8, max_len=12, rng=np.random.default_rng(9)
    )
    old = reference.top_n_sampling_reference(
        model, src[:1], k=3, n=8, max_len=12, rng=np.random.default_rng(9)
    )
    _assert_hyps_equivalent(new, old)


def test_beam_matches_reference(model, src):
    new = beam_search_batch(model, src, beam_size=3, max_len=12)
    old = reference.beam_search_batch_reference(model, src, beam_size=3, max_len=12)
    assert [_hyp_tokens(g) for g in new] == [_hyp_tokens(g) for g in old]
    single_new = beam_search(model, src[:1], beam_size=3, max_len=12)
    single_old = reference.beam_search_reference(model, src[:1], beam_size=3, max_len=12)
    _assert_hyps_equivalent(single_new, single_old)


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
    """Deterministic stub whose step logits are scripted by (source, t).

    Vocabulary layout: 0=PAD, 1=SOS, 2=EOS, 3.. real tokens.  The state
    payload carries each row's source id and per-row step counter, both
    reordered like any cached array, so compaction/permutation behave
    exactly like a real model's.
    """

    def __init__(self, script, vocab_size: int = 6):
        super().__init__(vocab_size, pad_id=0, sos_id=1, eos_id=2)
        self.script = script

    def start(self, src, use_cache: bool = True):
        src = np.asarray(src)
        return DecodeState(
            batch_size=src.shape[0],
            payload={
                "sid": np.arange(src.shape[0]),
                "t": np.zeros(src.shape[0], dtype=np.int64),
            },
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
    unfinished, draws nothing, and the frozen reference still crashes —
    which is exactly what makes this test fail against pre-fix code."""

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
    # The frozen seed implementation crashes on the same input.
    with pytest.raises(ValueError), np.errstate(invalid="ignore"):
        reference.top_n_sampling_reference(
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
    new_model = ScriptedModel(script)
    hyps = greedy_decode_batch(new_model, src, max_len=8)
    ref_model = ScriptedModel(script)
    ref_hyps = reference.greedy_decode_batch_reference(ref_model, src, max_len=8)
    _assert_hyps_equivalent(hyps, ref_hyps)
    assert hyps[0].tokens == () and hyps[0].finished
    assert hyps[1].tokens == (3, 3, 3, 3) and hyps[1].finished
    # Compaction shows up in the work accounting; the reference steps the
    # full width every step.  Pre-fix greedy behaved like the reference,
    # so this inequality is exactly what fails on pre-fix code.
    assert ref_model.decode_rows == 2 * 5
    assert new_model.decode_rows < ref_model.decode_rows
    assert new_model.decode_rows == 2 + 4  # both rows once, then row 1 alone


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
    new_model = ScriptedModel(script)
    results = beam_search_batch(new_model, src, beam_size=2, max_len=8)
    ref_model = ScriptedModel(script)
    ref_results = reference.beam_search_batch_reference(
        ref_model, src, beam_size=2, max_len=8
    )
    assert [_hyp_tokens(g) for g in results] == [_hyp_tokens(g) for g in ref_results]
    # Source 0 finished both beams at step 1; its rows must vanish from
    # the decode batch afterwards.  The reference (= pre-fix behaviour)
    # steps batch×beam rows every step, so equality here fails pre-fix.
    assert new_model.decode_rows < ref_model.decode_rows
