"""Class counts by Cartier–Foata normal forms, against the class engine.

A commutation class of w is one heap, and each heap has exactly one
Cartier–Foata normal form (Cartier–Foata 1969; Viennot 1986): a word cut
into steps, each a set of pairwise commuting letters, where every letter of
a step is equal to, or fails to commute with, some letter of the step before
it.  Read from the right, the last step G of a normal form of u is a
nonempty set of pairwise commuting right descents of u, so

    f(u, G) = 1                                      if u * w_G = e,
    f(u, G) = sum of f(u * w_G, F) over the steps F of u * w_G
              such that each g in G is in F or fails to commute with one
    C(w)    = sum of f(w, G) over the steps G of w, and C(e) = 1.

This counts classes on a route of its own: packed columns stepped one
generator at a time, memoized on (columns, G).  The count calls neither
the class engine nor the type-A tables; the tests hold it against both
the engine and the literature.
"""

from __future__ import annotations

import pytest

from freebraid import count_classes_and_check_bound, element_of, parse_graph, times_generator
from freebraid.coxeter import _is_finite_type, _pack, _step
from conftest import random_elements


def cartier_foata_count(w) -> int:
    """The number of commutation classes of w, on a graph of finite type."""
    g = w.graph
    if not _is_finite_type(g):
        raise ValueError("packed columns hold the roots of a finite type only")
    # closed[s]: s and its neighbours, the letters s fails to commute with.
    closed = [1 << s | sum(1 << (t - 1) for t in g.neighbors[s]) for s in range(g.n)]
    identity = tuple(_pack(tuple(int(i == j) for j in range(g.n))) for i in range(g.n))
    memo: dict[tuple[tuple[int, ...], int], int] = {}

    def steps(cols) -> list[int]:
        """Nonempty sets of pairwise commuting right descents, as bitmasks."""
        out = [0]
        for s, c in enumerate(cols):
            if c < 0:
                out += [m | 1 << s for m in out if not m & closed[s]]
        return out[1:]

    def f(cols, step: int) -> int:
        key = (cols, step)
        if key not in memo:
            below = list(cols)
            for s in range(g.n):
                if step >> s & 1:
                    _step(g, below, s + 1)
            below = tuple(below)
            blocked = [closed[s] for s in range(g.n) if step >> s & 1]
            memo[key] = (
                1
                if below == identity
                else sum(f(below, prev) for prev in steps(below)
                         if all(b & prev for b in blocked))
            )
        return memo[key]

    cols = tuple(_pack(c) for c in w.columns)
    return sum(f(cols, step) for step in steps(cols)) or 1


def longest_element(g):
    """w0, by right multiplication by ascents until none is left."""
    w = element_of(g, ())
    while ascents := [s for s in g.generators() if max(w.columns[s - 1]) > 0]:
        w = times_generator(w, ascents[0])
    return w


@pytest.mark.parametrize(
    "rank, classes",
    [(1, 1), (2, 2), (3, 8), (4, 62), (5, 908), (6, 24698), (7, 1_232_944)],
)
def test_w0_of_type_a_has_knuths_count(rank, classes):
    # OEIS A006245: commutation classes of w0 in S_(n+1).  A7 is above the
    # engine's default cap of 10^6 classes.
    assert cartier_foata_count(longest_element(parse_graph(f"A{rank}"))) == classes


@pytest.mark.parametrize("name, classes", [("D4", 182), ("D5", 13198)])
def test_w0_of_type_d_has_the_engines_count(name, classes):
    assert cartier_foata_count(longest_element(parse_graph(name))) == classes


@pytest.mark.parametrize("name, classes", [("D6", 3_031_856), ("E6", 68_958_178)])
def test_w0_beyond_the_engines_cap_has_the_walks_count(name, classes):
    """Both counts are above the engine's default cap of 10^6 classes.  A
    second route agrees: a walk over lex-least words, memoized on (element,
    blocked letters), that lists no class (ROADMAP.md)."""
    assert cartier_foata_count(longest_element(parse_graph(name))) == classes


def test_identity_has_one_class():
    assert cartier_foata_count(element_of(parse_graph("D4"), ())) == 1


def test_infinite_type_is_refused():
    with pytest.raises(ValueError, match="finite type"):
        cartier_foata_count(element_of(parse_graph("1-2,2-3,1-3"), (1, 2, 3)))


@pytest.mark.parametrize(
    "spec, max_length, seed",
    [("D4", 12, 1), ("D5", 14, 2), ("E6", 14, 3), ("A5", 15, 4), ("1-2,3-4", 6, 5)],
)
def test_class_counts_agree_with_the_engine(spec, max_length, seed):
    for w in random_elements(parse_graph(spec), 25, max_length, seed):
        assert cartier_foata_count(w) == count_classes_and_check_bound(w).classes, w
