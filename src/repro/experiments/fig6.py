"""Figure 6 — attention heat maps of the two translation hops.

The paper visualizes, for "阿迪 舒适 男生 鞋子" (Ah-Di comfortable men's
shoe), how the query-to-title cross attention aligns the brand shorthand
with the real brand token while skipping the vague word, and how the
title-to-query attention then reads the canonical brand back out.

Our marketplace carries the same structure: "ah-di" is the alias of
"adidas", "comfortable" is a vague word absent from titles.  We render the
cross-attention of both hops as ASCII heat maps and report the alignment
mass between alias and brand token.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.rendering import render_heatmap
from repro.experiments.result import ExperimentResult
from repro.experiments.scale import ExperimentScale, SMALL
from repro.experiments.shared import build_context

SHOWCASE_QUERY = "comfortable ah-di men shoe"


def _attention_matrix(model, src_ids: np.ndarray, tgt_ids: np.ndarray) -> np.ndarray:
    """Mean-over-heads cross attention of the final decoder layer,
    shape (tgt_len, src_len)."""
    model.logits(src_ids, tgt_ids[:, :-1])
    maps = model.cross_attention_maps()
    if not maps:
        raise RuntimeError("model recorded no cross-attention weights")
    return maps[-1][0].mean(axis=0)  # (tgt_len-ish, src_len)


def run(scale: ExperimentScale = SMALL) -> ExperimentResult:
    context = build_context(scale)
    vocab = context.vocab
    joint = context.rewriter("joint")
    forward, backward = context.joint.forward, context.joint.backward

    results = joint.rewrite(SHOWCASE_QUERY, k=1)
    if not results:
        raise RuntimeError(f"joint model produced no rewrite for {SHOWCASE_QUERY!r}")
    title_tokens = list(results[0].via_title)
    rewrite_tokens = list(results[0].tokens)
    query_tokens = SHOWCASE_QUERY.split()

    # Hop 1: query -> title.
    q_src = np.array([vocab.encode(query_tokens, add_eos=True)])
    t_tgt = np.array([vocab.encode(title_tokens, add_sos=True, add_eos=True)])
    hop1 = _attention_matrix(forward, q_src, t_tgt)

    # Hop 2: title -> rewritten query.
    t_src = np.array([vocab.encode(title_tokens, add_eos=True)])
    r_tgt = np.array([vocab.encode(rewrite_tokens, add_sos=True, add_eos=True)])
    hop2 = _attention_matrix(backward, t_src, r_tgt)

    x1 = query_tokens + ["<eos>"]
    y1 = title_tokens + ["<eos>"]
    x2 = title_tokens + ["<eos>"]
    y2 = rewrite_tokens + ["<eos>"]
    heatmap1 = render_heatmap(hop1[: len(y1), : len(x1)], x1, y1)
    heatmap2 = render_heatmap(hop2[: len(y2), : len(x2)], x2, y2)

    # Alignment check: does the generated brand token attend to the alias?
    alias_mass = float("nan")
    if "ah-di" in query_tokens and "adidas" in title_tokens:
        alias_col = query_tokens.index("ah-di")
        brand_row = title_tokens.index("adidas")
        alias_mass = float(hop1[brand_row + 0, alias_col])

    rendered = "\n".join(
        [
            f"query: {SHOWCASE_QUERY!r}",
            f"synthetic title: {' '.join(title_tokens)!r}",
            f"rewritten query: {' '.join(rewrite_tokens)!r}",
            "",
            "hop 1 (query -> title) cross attention:",
            heatmap1,
            "",
            "hop 2 (title -> rewritten query) cross attention:",
            heatmap2,
        ]
    )
    return ExperimentResult(
        experiment_id="fig6",
        title="Attention heat maps between query, synthetic title and rewritten query",
        measured={
            "title": title_tokens,
            "rewrite": rewrite_tokens,
            "alias_to_brand_attention": alias_mass,
        },
        paper={"example": "'Ah Di comfortable men's shoe' -> 'Adidas men's shoe'"},
        rendered=rendered,
        notes="Qualitative: brand alias should attend to the brand token; the vague word should receive little mass.",
    )
