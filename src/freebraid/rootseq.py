"""Root sequences of reduced words and the braid moves acting on them.

A reduced word (s_1, ..., s_n) linearizes the inversion set of its element:
entry i of the root sequence is the positive root turned negative by the
length-i suffix of the word.  Short braid moves swap adjacent orthogonal
entries; long braid moves swap entries two apart whose sum sits in between.
Two sequences are commutation equivalent exactly when their heap orders
(the transitive closure of left-to-right nonorthogonal precedence) agree.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, NamedTuple

from .coxeter import (
    CoxeterGraph,
    Element,
    Root,
    Word,
    _calculus,
    _check_word,
    _identity,
    _invert,
    _step,
    pairing,
)

__all__ = [
    "RootSequence",
    "HeapOrder",
    "root_sequence",
    "inversion_set",
    "word_of_root_sequence",
    "heap_order",
    "short_moves",
    "long_moves",
    "apply_short_move",
    "apply_long_move",
    "commutation_equivalent",
]


class RootSequence:
    """An ordered tuple of positive roots realizing one reduced word; length,
    iteration and indexing act over the roots.  No code assigns to a
    sequence, and nothing guards it."""

    __slots__ = ("graph", "roots")

    def __init__(self, graph: CoxeterGraph, roots: tuple[Root, ...]):
        self.graph, self.roots = graph, roots

    def __eq__(self, other: object) -> bool:
        return other.__class__ is RootSequence and (self.graph, self.roots) == (other.graph, other.roots)

    def __hash__(self) -> int:
        return hash((self.graph, self.roots))

    def __repr__(self) -> str:
        return f"RootSequence(graph={self.graph!r}, roots={self.roots!r})"

    def __len__(self) -> int:
        return len(self.roots)

    def __iter__(self) -> Iterator[Root]:
        return iter(self.roots)

    def __getitem__(self, i: int) -> Root:
        return self.roots[i]


class InversionTriple(NamedTuple):
    """Triple with low + high = mid; low/high ordered lexicographically."""

    low: Root
    mid: Root
    high: Root


class HeapOrder(NamedTuple):
    """Partial order on the roots of one sequence, stored as its closure.

    ``relation`` holds ordered pairs (a, b) meaning a precedes b.  It is the
    transitive closure of {(r_i, r_j) : i < j, r_i not orthogonal to r_j},
    carried on the roots themselves so sequences of the same element compare
    directly.
    """

    size: int
    relation: frozenset[tuple[Root, Root]]


def root_sequence(g: CoxeterGraph, word: Word) -> RootSequence:
    """Root sequence of a reduced word; entry i comes from the i-long suffix.

    Entry i is v(a_s), where s is the i-th letter from the right and v is
    the product of the i - 1 letters after it, last letter first.  One pass
    over the reversed word keeps v as its columns, reads entry i off column
    s and steps v to v*s: L column steps, each O(deg) int additions on a
    graph of finite type.  The word is reduced exactly when every such step
    is an ascent, i.e. every entry is positive.
    """
    _check_word(g, word)
    encode, decode = _calculus(g)
    cols = encode(_identity(g.n))
    roots = []
    for s in reversed(word):
        roots.append(cols[s - 1])
        if not _step(g, cols, s):
            raise ValueError("root sequences are defined only for reduced words")
    return RootSequence(g, decode(roots, g.n))


def inversion_set(w: Element) -> frozenset[Root]:
    """Positive roots sent negative by w, as ``coxeter._invert`` reads them:
    |Phi+| int additions up to rank 8 (at most 120, E8), else 2L column steps."""
    decode = _calculus(w.graph)[1]
    return frozenset(decode(_invert(w)[1], w.graph.n))


def word_of_root_sequence(r: RootSequence) -> Word:
    """Invert root_sequence by running its loop with the letters unknown.

    Entry i is v(a_s) for the element v built from the letters found so
    far, so s is the generator whose column of v equals entry i; v then
    steps to v*s.  The one pass also checks what root_sequence of the word
    found would: every step is an ascent (so every entry is positive and the
    word reduced), and every entry decodes back to itself (so no coefficient
    or tuple length aliases onto another root's column).
    """
    g = r.graph
    encode, decode = _calculus(g)
    cols = encode(_identity(g.n))
    entries = encode(map(tuple, r.roots))
    rev: list[int] = []
    ascents = True
    for root in entries:
        try:
            s = cols.index(root) + 1
        except ValueError:
            raise ValueError("not a valid root sequence: an entry is no image of a simple root") from None
        ascents &= _step(g, cols, s)
        rev.append(s)
    if not ascents or decode(entries, g.n) != r.roots:
        raise ValueError("not a valid root sequence")
    return tuple(reversed(rev))


def _closure_masks(g: CoxeterGraph, roots: tuple[Root, ...]) -> list[int]:
    """successors[i] = bitmask of positions reachable from i in the heap order."""
    n = len(roots)
    succ = [0] * n
    for i in range(n - 2, -1, -1):
        m = 0
        for j in range(i + 1, n):
            if pairing(g, roots[i], roots[j]) != 0:
                m |= (1 << j) | succ[j]
        succ[i] = m
    return succ


def heap_order(r: RootSequence) -> HeapOrder:
    roots = r.roots
    succ = _closure_masks(r.graph, roots)
    rel = set()
    for i, m in enumerate(succ):
        while m:
            j = (m & -m).bit_length() - 1
            m &= m - 1
            rel.add((roots[i], roots[j]))
    return HeapOrder(len(roots), frozenset(rel))


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


def commutation_equivalent(r1: RootSequence, r2: RootSequence) -> bool:
    """Heap-order equality, which holds exactly when every non-orthogonal pair
    comes in the same order in both; comparing sequences of different
    elements errors."""
    if r1.graph != r2.graph or frozenset(r1.roots) != frozenset(r2.roots):
        raise ValueError("root sequences belong to different elements")
    at = {r: i for i, r in enumerate(r2.roots)}
    pairs = combinations(r1.roots, 2)
    return len(r1) == len(at) and all(at[a] < at[b] for a, b in pairs if pairing(r1.graph, a, b))
