"""Inversion triples, contractibility, and the freely braided predicate.

An inversion triple of w is a subset {low, low+high, high} of its inversion
set.  The triple is contractible when some root sequence of w carries its
three roots consecutively, i.e. when it labels a long braid move of the
class engine.  On a graph whose components are paths every inversion triple
is contractible, so no class search runs there.  An element is freely
braided when its contractible triples are pairwise disjoint, and then every
class has a representative in which short moves alone push each
contractible triple into a consecutive block.

On a graph of finite type of rank at most 8 an element's triples are looked
up in a per-graph table of the positive roots' triples: at most 1,120 reads,
on w0(E8), not a sum per pair of inversion roots.  The table is built once
per graph, from at most 120 roots (E8).  Elsewhere the pairs of the
inversion set are scanned, so the cost is set by the element's length, not
by a positive root system that grows with the rank.
"""

from __future__ import annotations

from functools import lru_cache

from .coxeter import (CoxeterGraph, Element, Root, _inversion_keys, _is_finite_type, _peel,
                      _positive_roots, is_path_forest, pairing)
from .rootseq import InversionTriple, RootSequence, inversion_set
from .classes import _engine

__all__ = [
    "InversionTriple",
    "inversion_triples",
    "is_contractible",
    "contractible_triples",
    "is_freely_braided",
    "consecutive_normal_form",
]


def _sum_pairs(root_of: dict[int, Root]):
    """(a, a + b) for each pair of keys a, b, the root of a lex-before that of
    b, whose sum is a key: L(L-1)/2 int sums, as the keys add like the roots."""
    keys = sorted(root_of, key=root_of.__getitem__)
    return ((a, m) for i, a in enumerate(keys) for m in root_of.keys() & map(a.__add__, keys[i + 1:]))


# A table costs one pair scan of the positive roots per graph.  Up to rank 8
# there are at most 120 of them (E8, about 4 ms).  The gate rests on that
# count, not on which types are left above rank 8 (E8 and A2 disjoint has
# 123 roots): it grows as the rank squared (A60: 1,830), so the scan would
# outgrow a short element's own.
_TABLE_MAX_RANK = 8


@lru_cache(maxsize=32)
def _triple_table(g: CoxeterGraph) -> dict[int, tuple[tuple[int, int, InversionTriple], ...]]:
    """The triples of the positive roots of a graph of finite type, as (low
    key, high key, triple) under the middle root's key: one ``_sum_pairs``
    over ``coxeter._positive_roots``."""
    root_of, table = _positive_roots(g), {}
    for a, m in _sum_pairs(root_of):
        table.setdefault(m, []).append((a, m - a, InversionTriple(root_of[a], root_of[m], root_of[m - a])))
    return {m: tuple(entries) for m, entries in table.items()}


def inversion_triples(w: Element) -> frozenset[InversionTriple]:
    """Every triple {low, low + high, high} inside the inversion set of w: on
    a graph of finite type of rank at most 8, each inversion root's
    decompositions read off ``_triple_table`` (at most 1,120 reads, on E8);
    elsewhere ``_sum_pairs`` over ``coxeter._inversion_keys`` (L(L-1)/2 int
    sums for length L)."""
    g = w.graph
    if g.n <= _TABLE_MAX_RANK and _is_finite_type(g):
        table, inv = _triple_table(g), set(_peel(w)[1])
        return frozenset([t for m in inv for a, b, t in table.get(m, ()) if a in inv and b in inv])
    root_of = _inversion_keys(w)
    return frozenset(InversionTriple(root_of[a], root_of[m], root_of[m - a]) for a, m in _sum_pairs(root_of))


def _validated(w: Element, t: InversionTriple) -> InversionTriple:
    low, high = (t.low, t.high) if t.low <= t.high else (t.high, t.low)
    if tuple(x + y for x, y in zip(low, high)) != t.mid:
        raise ValueError("not an inversion triple: outer roots do not sum to the middle one")
    if not {low, t.mid, high} <= inversion_set(w):
        raise ValueError("not an inversion triple of this element")
    return InversionTriple(low, t.mid, high)


def is_contractible(w: Element, t: InversionTriple, cap: int | None = None) -> bool:
    """Does some root sequence of w carry the triple consecutively?"""
    return _validated(w, t) in contractible_triples(w, cap)


def contractible_triples(w: Element, cap: int | None = None) -> frozenset[InversionTriple]:
    """All inversion triples on a path forest, else the long braid move labels
    of the class engine."""
    if is_path_forest(w.graph):
        return inversion_triples(w)
    return frozenset(_engine(w, cap).labels)


def is_freely_braided(w: Element, cap: int | None = None) -> bool:
    """True iff the contractible triples of w are pairwise disjoint, i.e. the
    N of them hold 3N distinct roots."""
    triples = contractible_triples(w, cap=cap)
    return len({r for t in triples for r in (t.low, t.mid, t.high)}) == 3 * len(triples)


def _migrate(g, seq: list[Root], i: int, target: int) -> None:
    """Move seq[i] to position target by short moves, one step at a time."""
    step = 1 if target > i else -1
    while i != target:
        j = i + step
        if pairing(g, seq[i], seq[j]) != 0:
            raise RuntimeError("blocked short move while normalizing")
        seq[i], seq[j] = seq[j], seq[i]
        i = j


def consecutive_normal_form(w: Element, start: RootSequence) -> RootSequence:
    """Short moves only, until every contractible triple sits consecutively.

    Triples are processed left to right by the position of their middle root
    in the starting sequence; within one triple the nearer outer root
    migrates first.  Everything strictly between an outer root and the middle
    root is orthogonal to that outer root, so the migrations are legal short
    moves, and because the triples of a freely braided element are disjoint,
    finished blocks survive later migrations.
    """
    if not is_freely_braided(w):
        raise ValueError("element is not freely braided")
    if start.graph != w.graph or frozenset(start.roots) != inversion_set(w):
        raise ValueError("root sequence does not belong to this element")
    g = w.graph
    triples = sorted(contractible_triples(w), key=lambda t: start.roots.index(t.mid))
    seq = list(start.roots)
    for t in triples:
        pos = {r: i for i, r in enumerate(seq)}
        pm = pos[t.mid]
        pl, ph = sorted((pos[t.low], pos[t.high]))
        if not pl < pm < ph:
            raise RuntimeError("sum root not between its summands")
        if pm - pl <= ph - pm:
            _migrate(g, seq, pl, pm - 1)
            _migrate(g, seq, ph, pm + 1)
        else:
            _migrate(g, seq, ph, pm + 1)
            _migrate(g, seq, pl, pm - 1)
    for t in triples:
        where = sorted(seq.index(r) for r in (t.low, t.mid, t.high))
        if where[2] - where[0] != 2:
            raise RuntimeError("normalization failed to make a triple consecutive")
    return RootSequence(g, tuple(seq))
