"""Inversion triples, contractibility, and the freely braided predicate.

An inversion triple of w is a subset {low, low+high, high} of its inversion
set.  The triple is contractible when some root sequence of w carries its
three roots consecutively, i.e. when it labels a long braid move of the
class engine; equivalently, in some class heap order the sum covers one of
its summands (or, dually, is covered by one).  An element is freely
braided when its contractible triples are pairwise disjoint, and then every
class has a representative in which short moves alone push each
contractible triple into a consecutive block.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .coxeter import Element, Root, is_path_forest, pairing
from .rootseq import RootSequence, _closure_masks, inversion_set
from .classes import _engine

__all__ = [
    "InversionTriple",
    "inversion_triples",
    "is_contractible",
    "contractible_triples",
    "is_freely_braided",
    "consecutive_normal_form",
]


class InversionTriple(NamedTuple):
    """Triple with low + high = mid; low/high ordered lexicographically."""

    low: Root
    mid: Root
    high: Root


def _vec_add(a: Root, b: Root) -> Root:
    return tuple(x + y for x, y in zip(a, b))


def inversion_triples(w: Element) -> frozenset[InversionTriple]:
    phi = sorted(inversion_set(w))
    phi_set = set(phi)
    out = set()
    for i in range(len(phi)):
        for j in range(i + 1, len(phi)):
            mid = _vec_add(phi[i], phi[j])
            if mid in phi_set:
                out.add(InversionTriple(phi[i], mid, phi[j]))
    return frozenset(out)


def _validated(w: Element, t: InversionTriple) -> InversionTriple:
    low, high = (t.low, t.high) if t.low <= t.high else (t.high, t.low)
    if _vec_add(low, high) != t.mid:
        raise ValueError("not an inversion triple: outer roots do not sum to the middle one")
    if not {low, t.mid, high} <= inversion_set(w):
        raise ValueError("not an inversion triple of this element")
    return InversionTriple(low, t.mid, high)


def _covers(succ: list[int], lo: int, hi: int) -> bool:
    """True iff position hi covers position lo in the closed order."""
    if not (succ[lo] >> hi) & 1:
        return False
    m = succ[lo]
    while m:
        z = (m & -m).bit_length() - 1
        m &= m - 1
        if z != hi and (succ[z] >> hi) & 1:
            return False
    return True


_COVER_METHODS = ("cover-above", "cover-below")


def _cover_hits(
    w: Element, triples: Iterable[InversionTriple], method: str, cap: int | None
) -> frozenset[InversionTriple]:
    """The triples whose sum covers a summand (``cover-above``), or is covered
    by one (``cover-below``), in some class heap order."""
    if method not in _COVER_METHODS:
        raise ValueError(f"unknown method {method!r}")
    g = w.graph
    e = _engine(w, cap)
    prepared = []
    for _, idx in e.classes:
        roots = e.sequence(idx)
        prepared.append(({r: i for i, r in enumerate(roots)}, _closure_masks(g, roots)))
    out = set()
    for t in triples:
        for pos, succ in prepared:
            pl, pm, ph = pos[t.low], pos[t.mid], pos[t.high]
            if method == "cover-above":
                hit = _covers(succ, pl, pm) or _covers(succ, ph, pm)
            else:
                hit = _covers(succ, pm, pl) or _covers(succ, pm, ph)
            if hit:
                out.add(t)
                break
    return frozenset(out)


def is_contractible(
    w: Element, t: InversionTriple, method: str = "auto", cap: int | None = None
) -> bool:
    """Does some root sequence of w carry the triple consecutively?

    ``auto`` reads contractible_triples: on a path forest every inversion
    triple is contractible, elsewhere the long braid move labels of the
    class engine are.  ``cover-above`` searches the class heap orders for the sum covering a
    summand; ``cover-below`` runs the dual search (a summand covering the
    sum).  The three agree; tests hold them to it.
    """
    t = _validated(w, t)
    if method == "auto":
        return t in contractible_triples(w, cap=cap)
    return t in _cover_hits(w, (t,), method, cap)


def contractible_triples(
    w: Element, method: str = "auto", cap: int | None = None
) -> frozenset[InversionTriple]:
    """All inversion triples on a path forest, else the move labels of the
    class engine; or the triples a cover search accepts."""
    if method == "auto":
        if is_path_forest(w.graph):
            return inversion_triples(w)
        return frozenset(_engine(w, cap).labels)
    return _cover_hits(w, inversion_triples(w), method, cap)


def _disjoint(triples: Iterable[InversionTriple]) -> bool:
    seen: set[Root] = set()
    for t in triples:
        if seen & {t.low, t.mid, t.high}:
            return False
        seen.update((t.low, t.mid, t.high))
    return True


def is_freely_braided(w: Element, cap: int | None = None) -> bool:
    """True iff the contractible triples of w are pairwise disjoint."""
    return _disjoint(contractible_triples(w, cap=cap))


def _migrate_right(g, seq: list[Root], i: int, target: int) -> None:
    while i < target:
        if pairing(g, seq[i], seq[i + 1]) != 0:
            raise RuntimeError("blocked short move while normalizing")
        seq[i], seq[i + 1] = seq[i + 1], seq[i]
        i += 1


def _migrate_left(g, seq: list[Root], i: int, target: int) -> None:
    while i > target:
        if pairing(g, seq[i - 1], seq[i]) != 0:
            raise RuntimeError("blocked short move while normalizing")
        seq[i - 1], seq[i] = seq[i], seq[i - 1]
        i -= 1


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
            _migrate_right(g, seq, pl, pm - 1)
            _migrate_left(g, seq, ph, pm + 1)
        else:
            _migrate_left(g, seq, ph, pm + 1)
            _migrate_right(g, seq, pl, pm - 1)
    for t in triples:
        where = sorted(seq.index(r) for r in (t.low, t.mid, t.high))
        if where[2] - where[0] != 2:
            raise RuntimeError("normalization failed to make a triple consecutive")
    return RootSequence(g, tuple(seq))
