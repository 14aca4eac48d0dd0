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
  what :func:`build_tree` and :func:`merge_queries` construct.  The
  unsharded :class:`~repro.search.engine.SearchEngine` evaluates them,
  which makes them the reference the other form is tested against.
* **Packed** — :func:`pack` flattens a tree into a :class:`PackedTree`,
  a post-order node table with ``start``/``count`` ranges into one flat
  children tuple.  It is what the sharded fan-out compiles once per
  request and ships to the shards: a handful of tuples to pickle instead
  of one object per node, evaluated straight from the table with the
  same child order, cost estimates and early exits — so the same doc ids
  at the same postings cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.search.inverted_index import InvertedIndex, RetrievalResult
from repro.search.postings import EMPTY_POSTINGS, intersect_sorted, union_sorted


class SyntaxNode:
    """Base class: a boolean retrieval expression.

    Evaluation runs over **sorted postings vectors** — AND nodes gallop-
    intersect, OR nodes merge-union — so no intermediate hash set is ever
    materialized.  :meth:`evaluate` wraps the final vector in the
    set-based :class:`RetrievalResult` for callers that want membership
    semantics; the engine's ranking path consumes
    :meth:`evaluate_postings` directly.
    """

    def evaluate(self, index: InvertedIndex) -> RetrievalResult:
        """Set-semantics wrapper over :meth:`evaluate_postings`."""
        doc_ids, cost = self.evaluate_postings(index)
        return RetrievalResult(doc_ids=set(doc_ids.tolist()), postings_accessed=cost)

    def evaluate_postings(
        self, index: InvertedIndex
    ) -> tuple[np.ndarray, int]:  # pragma: no cover
        """Sorted doc-id vector plus the postings-access cost to get it."""
        raise NotImplementedError

    def size(self) -> int:  # pragma: no cover
        """Node count of this subtree (the tree-construction cost proxy)."""
        raise NotImplementedError

    def terms(self) -> set[str]:  # pragma: no cover
        """Distinct tokens mentioned anywhere in this subtree."""
        raise NotImplementedError

    def cost_estimate(self, index: InvertedIndex) -> int:  # pragma: no cover
        """Optimistic postings-access estimate, used to order AND children
        so cheap/selective children run first and empty intersections break
        early."""
        raise NotImplementedError


@dataclass(frozen=True)
class TermNode(SyntaxNode):
    """Leaf: one term's postings."""

    token: str

    def evaluate_postings(self, index: InvertedIndex) -> tuple[np.ndarray, int]:
        """Read the term's postings vector; charges its full length."""
        postings = index.postings_array(self.token)
        return postings, postings.size

    def size(self) -> int:
        """A leaf counts as one node."""
        return 1

    def terms(self) -> set[str]:
        """Just this leaf's token."""
        return {self.token}

    def cost_estimate(self, index: InvertedIndex) -> int:
        """Exactly the postings length — a leaf's cost is not an estimate."""
        return index.postings_length(self.token)

    def __repr__(self) -> str:
        return self.token


@dataclass(frozen=True)
class AndNode(SyntaxNode):
    """Conjunction: galloping intersection of its children, cheapest first."""

    children: tuple[SyntaxNode, ...]

    def evaluate_postings(self, index: InvertedIndex) -> tuple[np.ndarray, int]:
        """Intersect children cheapest-first; stops charging when empty."""
        if not self.children:
            return EMPTY_POSTINGS, 0
        docs: np.ndarray | None = None
        cost = 0
        # Evaluate cheap/selective children first, so an empty intersection
        # breaks before touching expensive postings.
        ordered = sorted(self.children, key=lambda c: c.cost_estimate(index))
        for child in ordered:
            child_docs, child_cost = child.evaluate_postings(index)
            cost += child_cost
            docs = child_docs if docs is None else intersect_sorted(docs, child_docs)
            if docs.size == 0:
                break
        return (docs if docs is not None else EMPTY_POSTINGS), cost

    def size(self) -> int:
        """One plus the sizes of all children."""
        return 1 + sum(c.size() for c in self.children)

    def terms(self) -> set[str]:
        """Union of the children's token sets."""
        return set().union(*(c.terms() for c in self.children)) if self.children else set()

    def cost_estimate(self, index: InvertedIndex) -> int:
        """Optimistic: an AND may break after its cheapest child."""
        return min((c.cost_estimate(index) for c in self.children), default=0)

    def __repr__(self) -> str:
        return "(" + " & ".join(repr(c) for c in self.children) + ")"


@dataclass(frozen=True)
class OrNode(SyntaxNode):
    """Disjunction: sorted k-way union of its children."""

    children: tuple[SyntaxNode, ...]

    def evaluate_postings(self, index: InvertedIndex) -> tuple[np.ndarray, int]:
        """Evaluate every branch (an OR cannot early-exit) and union."""
        branches: list[np.ndarray] = []
        cost = 0
        for child in self.children:
            child_docs, child_cost = child.evaluate_postings(index)
            cost += child_cost
            branches.append(child_docs)
        return union_sorted(branches), cost

    def size(self) -> int:
        """One plus the sizes of all children."""
        return 1 + sum(c.size() for c in self.children)

    def terms(self) -> set[str]:
        """Union of the children's token sets."""
        return set().union(*(c.terms() for c in self.children)) if self.children else set()

    def cost_estimate(self, index: InvertedIndex) -> int:
        """Sum over branches: an OR must evaluate every one."""
        return sum(c.cost_estimate(index) for c in self.children)

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

    def evaluate_postings(self, index: InvertedIndex) -> tuple[np.ndarray, int]:
        """Sorted doc-id vector plus postings cost, as the object tree has.

        An AND orders its children by the same optimistic estimates
        (stable sort, computed on demand) and stops at an empty
        intersection; an OR evaluates every child and unions.  A node
        whose estimate is 0 evaluates to nothing at no cost (a term with
        no postings; an AND with such a child; an OR of such children),
        and the stable sort would run it first — so an AND returns empty
        as soon as one child estimates 0, without estimating the rest.
        """
        tokens, kinds, args, counts, children = self

        def estimate(node: int) -> int:
            kind = kinds[node]
            if kind == TERM:
                return index.postings_length(tokens[args[node]])
            start = args[node]
            costs = [estimate(child) for child in children[start : start + counts[node]]]
            return min(costs, default=0) if kind == AND else sum(costs)

        def evaluate(node: int) -> tuple[np.ndarray, int]:
            kind = kinds[node]
            if kind == TERM:
                postings = index.postings_array(tokens[args[node]])
                return postings, postings.size
            start = args[node]
            below = children[start : start + counts[node]]
            cost = 0
            if kind == OR:
                branches = []
                for child in below:
                    child_docs, child_cost = evaluate(child)
                    cost += child_cost
                    branches.append(child_docs)
                return union_sorted(branches), cost
            estimates = []
            for child in below:
                expected = estimate(child)
                if expected == 0:
                    return EMPTY_POSTINGS, 0
                estimates.append(expected)
            docs: np.ndarray | None = None
            for at in sorted(range(len(below)), key=estimates.__getitem__):
                child_docs, child_cost = evaluate(below[at])
                cost += child_cost
                docs = child_docs if docs is None else intersect_sorted(docs, child_docs)
                if docs.size == 0:
                    break
            return (docs if docs is not None else EMPTY_POSTINGS), cost

        return evaluate(len(kinds) - 1)


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
