"""Inversion triples, contractibility, and the freely braided predicate.

An inversion triple of w is a subset {low, low+high, high} of its inversion
set.  The triple is contractible when some root sequence of w carries its
three roots consecutively, which the class engine reads off as the triples
whose key bit varies over the classes.  On a graph whose components are paths
every inversion triple is contractible, so no class engine runs there.  An
element is freely braided when its contractible triples are pairwise
disjoint, and then each class has a sequence in which every contractible
triple is a consecutive block where its middle root sat and all other roots
keep their order.

On a graph of finite type of rank at most 8 an element's triples come from
per-graph tables of the triples of its at most 120 positive roots (E8),
built once, and no sum is formed per pair of inversion roots.  An element
at most half of the positive roots long reads its inversion roots' partner
lists; a longer one takes the table of every triple less those that touch a
root outside its inversion set, so no triple is hashed again.  Elsewhere
the pairs of the inversion set are scanned, so the cost is set by the
element's length, not by a positive root system that grows with the rank.
"""

from __future__ import annotations

from functools import lru_cache

from .coxeter import (CoxeterGraph, Element, _calculus, _invert, _on_tree, _root_tree, _unpack,
                      is_path_forest)
from .rootseq import (InversionTriple, RootSequence, commutation_equivalent, inversion_set,
                      word_of_root_sequence)
from .classes import _engine

__all__ = [
    "InversionTriple",
    "inversion_triples",
    "is_contractible",
    "contractible_triples",
    "is_freely_braided",
    "consecutive_normal_form",
]


def _sum_pairs(root_of: dict):
    """(a, a + b) for each pair of keys a, b, the root of a lex-before that of
    b, whose sum is a key: L(L-1)/2 sums, as packed ints and ``_Vector``s
    add like the roots they encode."""
    keys = sorted(root_of, key=root_of.__getitem__)
    return ((a, m) for i, a in enumerate(keys) for m in root_of.keys() & map(a.__add__, keys[i + 1:]))


@lru_cache(maxsize=32)
def _partners(g: CoxeterGraph) -> dict[int, tuple[tuple[int, InversionTriple], ...]]:
    """Per positive root a of a graph under ``coxeter._on_tree``, keyed as
    ``coxeter._root_tree`` packs it, each root b lex-after a whose sum with a
    is a root, as (b's key, triple): one ``_sum_pairs`` over the tree."""
    root_of, partners = {p: _unpack(p, g.n) for p in _root_tree(g)[0]}, {}
    for a, m in _sum_pairs(root_of):
        partners.setdefault(a, []).append((m - a, InversionTriple(root_of[a], root_of[m], root_of[m - a])))
    return {a: tuple(entries) for a, entries in partners.items()}


@lru_cache(maxsize=32)
def _summands(g: CoxeterGraph) -> tuple[frozenset[InversionTriple], dict[int, frozenset[InversionTriple]]]:
    """The ``_partners`` triples of a graph as one frozenset, and per positive
    root, keyed as ``coxeter._root_tree`` packs it, those in which it is a
    summand, low or high (a highest root is in none): E8 has 1,120, each
    in two of the 119 sets."""
    touching = {}
    for a, entries in _partners(g).items():
        for b, t in entries:
            touching.setdefault(a, []).append(t)
            touching.setdefault(b, []).append(t)
    touching = {a: frozenset(ts) for a, ts in touching.items()}
    return frozenset().union(*touching.values()), touching


@lru_cache(maxsize=1)  # one fb command asks for one element's triples up to four times
def inversion_triples(w: Element) -> frozenset[InversionTriple]:
    """Every triple {low, low + high, high} inside the inversion set of w, as
    ``coxeter._invert`` encodes it.

    Under ``coxeter._on_tree``, for length L and |Phi+| positive roots, by one
    of two routes that give the same set.  If 2L <= |Phi+|, each inversion
    root's ``_partners`` that are inversions too (as w(low + high) =
    w(low) + w(high) < 0): one read per partner of an inversion root, then
    each triple found hashed again (three tuples of rank entries) into the
    result.  If 2L > |Phi+|, ``_summands``: every triple of Phi+ less those
    touching a root outside N(w), one copy of the table and one discard per
    triple touched, all by the hashes the tables store, so no triple is
    hashed.  The routes agree as an inversion set is closed (a, b in N(w)
    with a + b a root puts a + b in N(w)), so a triple lies in N(w) exactly
    when both its summands do.  On E8 the switch at L = 60 sits where the
    two cost about the same; at w0 the partner route would hash 1,120
    triples and the difference hashes none.  Elsewhere ``_sum_pairs`` over
    the inversion set (L(L-1)/2 sums)."""
    g, inv = w.graph, _invert(w)[1]
    if _on_tree(g):
        inv = set(inv)
        if 2 * w.length > len(_root_tree(g)[0]):
            every, touching = _summands(g)
            return every.difference(*[ts for a, ts in touching.items() if a not in inv])
        partners = _partners(g)
        return frozenset([t for a in inv for b, t in partners.get(a, ()) if b in inv])
    root_of = dict(zip(inv, _calculus(g)[1](inv, g.n)))
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
    """All inversion triples on a path forest, else the contractible triples
    the class engine finds."""
    if is_path_forest(w.graph):
        return inversion_triples(w)
    return frozenset(_engine(w, cap).labels)


def is_freely_braided(w: Element, cap: int | None = None) -> bool:
    """True iff the contractible triples of w are pairwise disjoint, i.e. the
    N of them hold 3N distinct roots."""
    triples = contractible_triples(w, cap=cap)
    return len({r for t in triples for r in (t.low, t.mid, t.high)}) == 3 * len(triples)


def consecutive_normal_form(w: Element, start: RootSequence) -> RootSequence:
    """The sequence of start's class in which each contractible triple is a
    consecutive block where its middle root sat, every other root in order.

    One stable sort of start: a root at position i in no contractible triple
    keys (i, 0); a triple whose middle root sits at position m keys it (m, 0)
    and its outer roots (m, -1) and (m, +1) by their side of m.  The sort is
    a run of short moves: everything strictly between an outer root and its
    middle root is orthogonal to that outer root, and the triples of a freely
    braided element are disjoint, so each outer root passes only roots it
    commutes with.  The result is checked to stay in start's class.
    """
    if not is_freely_braided(w):
        raise ValueError("element is not freely braided")
    if start.graph != w.graph or frozenset(start.roots) != inversion_set(w):
        raise ValueError("root sequence does not belong to this element")
    word_of_root_sequence(start)  # raises ValueError unless start is a root sequence
    key = {r: (i, 0) for i, r in enumerate(start.roots)}
    for t in contractible_triples(w):
        m, _ = key[t.mid]
        for r in (t.low, t.high):
            key[r] = (m, -1 if key[r][0] < m else 1)
    out = RootSequence(w.graph, tuple(sorted(start.roots, key=key.__getitem__)))
    if not commutation_equivalent(start, out):
        raise RuntimeError("normal form left the class of its start")
    return out
