"""Query syntax trees and the merged-tree optimization (Section III-H).

A single query compiles to an AND over its terms.  Serving N rewritten
queries naively means N separate trees — and N retrievals.  The paper
instead merges all queries into ONE tree:

* tokens common to every query stay as shared AND children;
* each query's residual tokens form an AND group;
* the residual groups are joined under one OR node.

Figure 5's example::

    origin  = red & men & sock
    query 1 = red & men & breathable & low-cut-sock
    query 2 = red & men & anklet

    merged  = red & men & (sock | (breathable & low-cut-sock) | anklet)

The merged tree is only slightly larger than the original query's tree
because rewritten queries share most tokens with the original.

Two forms of one tree:

* **Objects** — :class:`TermNode` / :class:`AndNode` / :class:`OrNode`,
  what :func:`build_tree` and :func:`merge_queries` construct, merge and
  measure (:func:`tree_size`).
* **Packed** — :func:`pack` flattens a tree into a :class:`PackedTree`,
  a post-order node table with ``start``/``count`` ranges into one flat
  children tuple.  It is the one form that evaluates: the sharded
  fan-out compiles it once per request and ships it to the shards (a
  handful of tuples to pickle instead of one object per node), and the
  unsharded engine and :meth:`SyntaxNode.evaluate` pack before they
  evaluate.  Evaluation yields a boolean mask over the index's document
  slots (:mod:`repro.search.inverted_index`) and the postings cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.search.inverted_index import InvertedIndex, RetrievalResult


class SyntaxNode:
    """Base class: a boolean retrieval expression."""

    def evaluate(self, index: InvertedIndex) -> RetrievalResult:
        """Set semantics over the packed evaluation of this tree."""
        mask, cost = pack(self).evaluate(index)
        doc_ids = set() if mask is None else set(index.slot_doc_ids[mask].tolist())
        return RetrievalResult(doc_ids=doc_ids, postings_accessed=cost)

    def size(self) -> int:  # pragma: no cover
        """Node count of this subtree (the tree-construction cost proxy)."""
        raise NotImplementedError

    def terms(self) -> set[str]:  # pragma: no cover
        """Distinct tokens mentioned anywhere in this subtree."""
        raise NotImplementedError


@dataclass(frozen=True)
class TermNode(SyntaxNode):
    """Leaf: one term."""

    token: str

    def size(self) -> int:
        """A leaf counts as one node."""
        return 1

    def terms(self) -> set[str]:
        """Just this leaf's token."""
        return {self.token}

    def __repr__(self) -> str:
        return self.token


@dataclass(frozen=True)
class AndNode(SyntaxNode):
    """Conjunction of its children."""

    children: tuple[SyntaxNode, ...]

    def size(self) -> int:
        """One plus the sizes of all children."""
        return 1 + sum(c.size() for c in self.children)

    def terms(self) -> set[str]:
        """Union of the children's token sets."""
        return set().union(*(c.terms() for c in self.children)) if self.children else set()

    def __repr__(self) -> str:
        return "(" + " & ".join(repr(c) for c in self.children) + ")"


@dataclass(frozen=True)
class OrNode(SyntaxNode):
    """Disjunction of its children."""

    children: tuple[SyntaxNode, ...]

    def size(self) -> int:
        """One plus the sizes of all children."""
        return 1 + sum(c.size() for c in self.children)

    def terms(self) -> set[str]:
        """Union of the children's token sets."""
        return set().union(*(c.terms() for c in self.children)) if self.children else set()

    def __repr__(self) -> str:
        return "(" + " | ".join(repr(c) for c in self.children) + ")"


def build_tree(tokens: list[str] | tuple[str, ...]) -> SyntaxNode:
    """Compile one query into an AND over its distinct terms."""
    distinct = sorted(set(tokens))
    if not distinct:
        raise ValueError("cannot build a syntax tree for an empty query")
    if len(distinct) == 1:
        return TermNode(distinct[0])
    return AndNode(children=tuple(TermNode(t) for t in distinct))


def merge_queries(queries: list[list[str] | tuple[str, ...]]) -> SyntaxNode:
    """Merge several queries into one tree (Section III-H, Figure 5).

    The first query is conventionally the original; order does not affect
    the result.  Merging greedily factors out the token shared by the most
    queries, recursively::

        origin  = red & men & sock
        query 1 = red & men & breathable & low-cut-sock
        query 2 = red & men & anklet

        merged  = red & men & (sock | (breathable & low-cut-sock) | anklet)

    The merged tree retrieves exactly the union of the per-query
    retrievals while reading each shared token's postings once.  Two
    special cases fall out of the factorization: duplicate queries
    collapse, and a query subsumed by a shared prefix (its tokens are a
    subset of another's) absorbs the more specific one.
    """
    token_sets: list[frozenset[str]] = []
    seen: set[frozenset[str]] = set()
    for query in queries:
        if not query:
            continue
        tokens = frozenset(query)
        if tokens not in seen:
            seen.add(tokens)
            token_sets.append(tokens)
    if not token_sets:
        raise ValueError("merge_queries needs at least one non-empty query")
    return _factor(token_sets)


def _factor(token_sets: list[frozenset[str]]) -> SyntaxNode:
    """Recursive greedy factorization of a union of AND-queries."""
    if len(token_sets) == 1:
        return _and_of(sorted(token_sets[0]))

    counts: dict[str, int] = {}
    for tokens in token_sets:
        for token in tokens:
            counts[token] = counts.get(token, 0) + 1
    best_token = min(counts, key=lambda t: (-counts[t], t))
    if counts[best_token] == 1:
        # No sharing left: plain OR of the individual query trees.
        return _or_of([_and_of(sorted(s)) for s in token_sets])

    with_token = [s - {best_token} for s in token_sets if best_token in s]
    without = [s for s in token_sets if best_token not in s]

    if any(not residual for residual in with_token):
        # One query is exactly {best_token} (plus already-factored tokens):
        # it subsumes every other query sharing that token.
        shared: SyntaxNode = TermNode(best_token)
    else:
        inner = _factor([frozenset(s) for s in with_token])
        shared = _and_flat(TermNode(best_token), inner)
    if not without:
        return shared
    return _or_of([shared, _factor(without)])


def _and_of(tokens: list[str]) -> SyntaxNode:
    if len(tokens) == 1:
        return TermNode(tokens[0])
    return AndNode(children=tuple(TermNode(t) for t in tokens))


def _and_flat(term: TermNode, inner: SyntaxNode) -> SyntaxNode:
    """AND(term, inner), flattening nested ANDs to keep the tree small."""
    if isinstance(inner, AndNode):
        return AndNode(children=(term, *inner.children))
    return AndNode(children=(term, inner))


def _or_of(nodes: list[SyntaxNode]) -> SyntaxNode:
    flattened: list[SyntaxNode] = []
    for node in nodes:
        if isinstance(node, OrNode):
            flattened.extend(node.children)
        else:
            flattened.append(node)
    if len(flattened) == 1:
        return flattened[0]
    return OrNode(children=tuple(flattened))


def tree_size(node: SyntaxNode) -> int:
    """Node count — the paper's system-cost proxy for tree construction."""
    return node.size()


#: :attr:`PackedTree.kinds` codes
TERM, AND, OR = 0, 1, 2


class PackedTree(NamedTuple):
    """A syntax tree as a flat post-order node table; the root is last.

    Node ``i`` is ``kinds[i]``: a :data:`TERM` reads ``tokens[args[i]]``;
    an :data:`AND` / :data:`OR` has the ``counts[i]`` children
    ``children[args[i] : args[i] + counts[i]]`` (node indices, in the
    object tree's order).  ``tokens`` holds each distinct token once.
    """

    tokens: tuple[str, ...]
    kinds: bytes
    args: tuple[int, ...]
    counts: tuple[int, ...]
    children: tuple[int, ...]

    def evaluate(self, index: InvertedIndex) -> tuple[np.ndarray | None, int]:
        """A boolean mask over ``index``'s slots, or None when nothing
        matches, plus the postings cost.

        A term's mask is its tf vector's nonzero slots, charged at its
        document frequency (the postings it stands for).  An AND orders
        its children by optimistic estimates (a term's frequency, an
        AND's cheapest child, an OR's sum; stable sort, computed on
        demand) and stops at an empty intersection; an OR evaluates
        every child.  A node whose estimate is 0 evaluates to nothing at
        no cost (a term with no postings; an AND with such a child; an
        OR of such children), and the stable sort would run it first —
        so an AND returns empty as soon as one child estimates 0,
        without estimating the rest.  A child estimated above 0 can
        still come back empty (an OR of empty ANDs), which empties its
        AND too.  Every mask returned is freshly allocated and has at
        least one slot set.
        """
        tokens, kinds, args, counts, children = self

        def estimate(node: int) -> int:
            kind = kinds[node]
            if kind == TERM:
                return index.postings_length(tokens[args[node]])
            start = args[node]
            costs = [estimate(child) for child in children[start : start + counts[node]]]
            return min(costs, default=0) if kind == AND else sum(costs)

        def evaluate(node: int) -> tuple[np.ndarray | None, int]:
            kind = kinds[node]
            if kind == TERM:
                token = tokens[args[node]]
                tfs = index.tf_vector(token)
                mask = None if tfs is None else tfs.astype(bool)
                return mask, index.postings_length(token)
            start = args[node]
            below = children[start : start + counts[node]]
            docs: np.ndarray | None = None
            cost = 0
            if kind == OR:
                for child in below:
                    child_docs, child_cost = evaluate(child)
                    cost += child_cost
                    if docs is None:
                        docs = child_docs
                    elif child_docs is not None:
                        np.logical_or(docs, child_docs, out=docs)
                return docs, cost
            estimates = []
            for child in below:
                expected = estimate(child)
                if expected == 0:
                    return None, 0
                estimates.append(expected)
            for at in sorted(range(len(below)), key=estimates.__getitem__):
                child_docs, child_cost = evaluate(below[at])
                cost += child_cost
                if child_docs is None:
                    return None, cost
                if docs is None:
                    docs = child_docs
                elif not np.logical_and(docs, child_docs, out=docs).any():
                    return None, cost
            return docs, cost

        return evaluate(len(kinds) - 1)


def evaluate_trees(trees, index: InvertedIndex) -> tuple[np.ndarray, int]:
    """The slots any of ``trees`` (packed) matches, ascending, plus the
    postings cost of evaluating every tree — one request's candidates."""
    union: np.ndarray | None = None
    cost = 0
    for tree in trees:
        docs, tree_cost = tree.evaluate(index)
        cost += tree_cost
        if union is None:
            union = docs
        elif docs is not None:
            np.logical_or(union, docs, out=union)
    return (np.empty(0, dtype=np.int64) if union is None else np.flatnonzero(union)), cost


def pack(root: SyntaxNode) -> PackedTree:
    """Flatten an object tree into a :class:`PackedTree` (post-order)."""
    tokens: dict[str, int] = {}
    kinds = bytearray()
    args: list[int] = []
    counts: list[int] = []
    children: list[int] = []

    def visit(node: SyntaxNode) -> int:
        if isinstance(node, TermNode):
            kinds.append(TERM)
            args.append(tokens.setdefault(node.token, len(tokens)))
            counts.append(0)
        else:
            below = [visit(child) for child in node.children]
            kinds.append(AND if isinstance(node, AndNode) else OR)
            args.append(len(children))
            counts.append(len(below))
            children.extend(below)
        return len(kinds) - 1

    visit(root)
    return PackedTree(
        tuple(tokens), bytes(kinds), tuple(args), tuple(counts), tuple(children)
    )
