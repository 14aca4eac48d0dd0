"""Sequence decoding algorithms.

The paper finds greedy search (one output) and beam search (near-duplicate
outputs) unsuitable for generating *diverse* synthetic titles, and proposes
the **top-n sampling decoder** (Figure 4): the first step forces the k most
likely *unique* tokens so all candidates begin differently, and subsequent
steps sample from the per-step top-n token distribution.

Exported symbols:

* :class:`Hypothesis` — one decoded sequence: token ids (no SOS/EOS), the
  summed log probability, and whether EOS was reached.
* :func:`greedy_decode` / :func:`greedy_decode_batch` — argmax decoding for
  one source / a stacked batch of sources; the fastest baseline, used in
  the latency experiments (Table V).
* :func:`beam_search` / :func:`beam_search_batch` — standard beam search;
  the paper's low-diversity comparator (Section III-F).
* :func:`top_n_sampling` / :func:`top_n_sampling_batch` — the paper's
  decoder (Figure 4); the batch variant stacks all sources' candidates
  into one flat decode and is the model-tier hot path of
  ``ServingPipeline.serve_batch``.
* :func:`diverse_beam_search` — diverse beam search (Vijayakumar et al.,
  2016), named as future work in Section V.
* :func:`sample_top_n_pools` — the one implementation of Figure 4's
  pool-sampling rule (one uniform deviate per legal row, in row order —
  the per-row ``rng.choice`` contract, batched): serving, Algorithm 1's
  step 9, the Fig. 7 q2q metric and the causal LM's ``generate`` all
  sample through it.
* :func:`logsumexp_np` — the numerically stable log-sum-exp the decoders
  and the rewrite scorer share (their log-softmax is
  :func:`repro.autograd.tensor.log_softmax_np`, the one ``Tensor.log_softmax``
  computes).

The ``*_batch`` variants accept either a padded (batch, seq) array or a
list of variable-length id lists, and cost the same number of model calls
as a single source; ``greedy_decode``, ``beam_search`` and
``top_n_sampling`` are their batch-of-one call.  All decoders drop
finished rows from the decode batch as they go (active-row compaction);
``tests/decode_oracle.py`` keeps the seed decoders, fed by each model's
teacher-forced ``forward``, as the equivalence oracle.
``docs/DECODING.md`` documents the cache layout, compaction semantics,
who runs the Figure-4 sampler and the determinism contract.
"""

from repro.decoding.hypothesis import Hypothesis
from repro.decoding.greedy import greedy_decode, greedy_decode_batch
from repro.decoding.beam import beam_search, beam_search_batch
from repro.decoding.topn import sample_top_n_pools, top_n_sampling, top_n_sampling_batch
from repro.decoding.diverse_beam import diverse_beam_search
from repro.decoding.logspace import logsumexp_np

__all__ = [
    "Hypothesis",
    "greedy_decode",
    "greedy_decode_batch",
    "beam_search",
    "beam_search_batch",
    "top_n_sampling",
    "top_n_sampling_batch",
    "sample_top_n_pools",
    "diverse_beam_search",
    "logsumexp_np",
]
