"""Root sequences of reduced words.

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
    "root_sequence",
    "inversion_set",
    "word_of_root_sequence",
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


def commutation_equivalent(r1: RootSequence, r2: RootSequence) -> bool:
    """Heap-order equality, which holds exactly when every non-orthogonal pair
    comes in the same order in both; comparing sequences of different
    elements errors."""
    if r1.graph != r2.graph or frozenset(r1.roots) != frozenset(r2.roots):
        raise ValueError("root sequences belong to different elements")
    at = {r: i for i, r in enumerate(r2.roots)}
    pairs = combinations(r1.roots, 2)
    return len(r1) == len(at) and all(at[a] < at[b] for a, b in pairs if pairing(r1.graph, a, b))
