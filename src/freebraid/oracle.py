"""Naive reference implementations for differential testing, and the
braid moves' definitions.

Everything here is deliberately brute force and kept independent of the
production algorithms: reduced words come from descent recursion on full
matrices (``mat_mul`` by ``reflection_matrix``) instead of column steps and
the class engine, root sequences from their definition with ``act``, and
contractibility from one scan of every root sequence for its windows of
three consecutive roots.  Commutation classes and commutation graph edges
come from this module's own move definitions, not heap-order or class keys:
classes are the breadth-first closure under ``short_moves``, and edges join
the blocks that one of ``long_moves`` connects.  Tests and the CLI --verify
mode diff these against production.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from .coxeter import (
    CapExceededError,
    DEFAULT_SEQUENCE_CAP,
    CoxeterGraph,
    Element,
    Matrix,
    Root,
    Word,
    act,
    mat_mul,
    pairing,
    reflection_matrix,
    simple_root,
)
from .rootseq import RootSequence

__all__ = [
    "short_moves",
    "long_moves",
    "apply_short_move",
    "apply_long_move",
    "oracle_root_sequence",
    "oracle_reduced_words",
    "oracle_all_root_sequences",
    "oracle_classes",
    "oracle_classes_by_bfs",
    "oracle_commutation_edges",
    "oracle_contractible_triples",
    "oracle_contractible",
]


def short_moves(r: RootSequence) -> list[int]:
    """0-based positions k where entries k and k+1 are orthogonal."""
    roots = r.roots
    return [k for k in range(len(roots) - 1) if pairing(r.graph, roots[k], roots[k + 1]) == 0]


def long_moves(r: RootSequence) -> list[int]:
    """0-based positions k where entry k+1 is the sum of entries k and k+2."""
    roots = r.roots
    return [
        k
        for k in range(len(roots) - 2)
        if tuple(x + y for x, y in zip(roots[k], roots[k + 2])) == roots[k + 1]
    ]


def apply_short_move(r: RootSequence, k: int) -> RootSequence:
    roots = r.roots
    if not (0 <= k < len(roots) - 1) or pairing(r.graph, roots[k], roots[k + 1]) != 0:
        raise ValueError(f"no short braid move at position {k}")
    return RootSequence(r.graph, roots[:k] + (roots[k + 1], roots[k]) + roots[k + 2:])


def apply_long_move(r: RootSequence, k: int) -> RootSequence:
    roots = r.roots
    ok = 0 <= k < len(roots) - 2 and tuple(x + y for x, y in zip(roots[k], roots[k + 2])) == roots[k + 1]
    if not ok:
        raise ValueError(f"no long braid move at position {k}")
    return RootSequence(r.graph, roots[:k] + (roots[k + 2], roots[k + 1], roots[k]) + roots[k + 3:])


def oracle_root_sequence(g: CoxeterGraph, word: Word) -> RootSequence:
    """Entries by definition: entry i is the root that the i-long suffix
    turns negative, i.e. the suffix's other letters, last one outermost,
    applied to the simple root of its first letter."""
    n = len(word)
    return RootSequence(g, tuple(
        act(g, tuple(reversed(word[n - i + 1:])), simple_root(g, word[n - i]))
        for i in range(1, n + 1)
    ))


def oracle_reduced_words(w: Element, cap: int | None = None) -> list[Word]:
    """Every reduced word of w, by depth-first descent recursion on w's matrix.

    s is a right descent of a matrix m when column s is a negative root;
    the recursion multiplies by the reflection matrix of s until it reaches
    the identity.
    """
    limit = cap if cap is not None else DEFAULT_SEQUENCE_CAP
    g = w.graph
    identity = tuple(tuple(int(i == j) for j in range(g.n)) for i in range(g.n))
    out: list[Word] = []

    def descend(m: Matrix, tail: list[int]) -> None:
        if m == identity:
            out.append(tuple(reversed(tail)))
            if len(out) > limit:
                raise CapExceededError(f"more than {limit} reduced words", count=len(out))
            return
        for s in g.generators():
            if all(row[s - 1] <= 0 for row in m):
                tail.append(s)
                descend(mat_mul(m, reflection_matrix(g, s)), tail)
                tail.pop()

    descend(tuple(zip(*w.columns)), [])
    return out


def oracle_all_root_sequences(w: Element, cap: int | None = None) -> list[RootSequence]:
    return [oracle_root_sequence(w.graph, word) for word in oracle_reduced_words(w, cap)]


def oracle_classes(
    g: CoxeterGraph, sequences: Iterable[tuple[Root, ...]]
) -> list[frozenset[tuple[Root, ...]]]:
    """Partition of the given root sequences under adjacent orthogonal swaps,
    by breadth-first closure; blocks sorted by their least sequence."""
    pool = set(sequences)
    blocks: list[frozenset[tuple[Root, ...]]] = []
    while pool:
        seed = min(pool)
        pool.discard(seed)
        block = {seed}
        queue = deque([seed])
        while queue:
            cur = RootSequence(g, queue.popleft())
            for k in short_moves(cur):
                nxt = apply_short_move(cur, k).roots
                if nxt in pool:
                    pool.discard(nxt)
                    block.add(nxt)
                    queue.append(nxt)
        blocks.append(frozenset(block))
    blocks.sort(key=min)
    return blocks


def oracle_classes_by_bfs(w: Element, cap: int | None = None) -> list[frozenset[tuple[Root, ...]]]:
    """Partition of the root sequences of w under adjacent orthogonal swaps."""
    return oracle_classes(w.graph, (r.roots for r in oracle_all_root_sequences(w, cap)))


def oracle_commutation_edges(
    g: CoxeterGraph, blocks: list[frozenset[tuple[Root, ...]]]
) -> frozenset[tuple[int, int]]:
    """Pairs (i, j), i < j, of the blocks of oracle_classes_by_bfs joined by
    one long braid move: a window of three roots whose middle is the sum of
    the outer two, reversed, turns a sequence of block i into one of block j."""
    block_of = {seq: i for i, block in enumerate(blocks) for seq in block}
    edges = set()
    for seq, i in block_of.items():
        r = RootSequence(g, seq)
        for k in long_moves(r):
            j = block_of[apply_long_move(r, k).roots]
            edges.add((min(i, j), max(i, j)))
    return frozenset(edges)


def oracle_contractible_triples(
    sequences: Iterable[tuple[Root, ...]],
) -> frozenset[frozenset[Root]]:
    """Every window of three consecutive roots, as a set, over the root
    sequences given (all of w's, as in the blocks of oracle_classes_by_bfs);
    a triple is contractible exactly when it is one of them."""
    return frozenset(frozenset(seq[k:k + 3]) for seq in sequences for k in range(len(seq) - 2))


def oracle_contractible(w: Element, triple, cap: int | None = None) -> bool:
    """Does some root sequence of w carry the triple consecutively?"""
    windows = oracle_contractible_triples(r.roots for r in oracle_all_root_sequences(w, cap))
    return frozenset((triple.low, triple.mid, triple.high)) in windows
