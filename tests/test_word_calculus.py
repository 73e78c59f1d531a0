"""The column-step word calculus against definitions and the literature.

element_of, reduce_word, root_sequence, word_of_root_sequence and
canonical_word all step column images one generator at a time.  Here they
are checked against full matrix products, root sequences built from their
definition with act, the oracle's descent recursion on matrices, and counts
of positive roots and A2 subsystems from the literature.  Columns are
packed at 4 bits a coefficient on graphs of finite type only; the finiteness
test, the packing, and long words on infinite graphs, whose coefficients
outgrow 4 bits, are checked on their own.  Inversion triples, looked up in
a per-graph table of the positive roots' triples on graphs of finite type
of rank at most 8 and found by a pair scan above it, are checked against a
brute-force pair scan and the table against counts of A2 subsystems.
"""

from __future__ import annotations

import random
import tracemalloc
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freebraid import (
    canonical_word,
    element_of,
    identity_element,
    inversion_set,
    inversion_triples,
    is_positive_root,
    is_reduced,
    is_right_descent,
    parse_graph,
    reduce_word,
    root_sequence,
    times_generator,
    word_of_root_sequence,
)
from freebraid.coxeter import _is_finite_type, _pack, _unpack, mat_mul, reflection_matrix
from freebraid.oracle import oracle_reduced_words, oracle_root_sequence
from freebraid.triples import _triple_table
from freebraid.typea import inversion_triples_1line, perm_to_element
from conftest import all_positive_roots, group_by_length, random_elements

# Finite, affine (the triangle is A~2), cyclic and disconnected graphs.
GRAPHS = tuple(
    parse_graph(spec)
    for spec in ("A4", "D5", "E6", "E8", "1-2,2-3,1-3", "1-2,2-3,3-4,1-4", "1-2,2-3,4-5")
)


def _identity(n: int):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def matrix_product(g, word):
    m = _identity(g.n)
    for s in word:
        m = mat_mul(m, reflection_matrix(g, s))
    return m


def matrix_length(g, m) -> int:
    """Length of the element with matrix m: peel right descents (columns that
    are negative roots) by full matrix products until the identity."""
    length = 0
    while m != _identity(g.n):
        s = next(s for s in g.generators() if all(row[s - 1] <= 0 for row in m))
        m = mat_mul(m, reflection_matrix(g, s))
        length += 1
    return length


words = st.sampled_from(GRAPHS).flatmap(
    lambda g: st.tuples(st.just(g), st.lists(st.integers(1, g.n), max_size=16).map(tuple))
)


@settings(max_examples=250, deadline=None)
@given(words)
def test_word_calculus_matches_definitions(case):
    g, word = case
    w = element_of(g, word)
    m = matrix_product(g, word)
    assert w.columns == tuple(zip(*m))
    assert w.length == len(reduce_word(g, word)) == matrix_length(g, m)

    by_definition = oracle_root_sequence(g, word)
    reduced = w.length == len(word)
    assert reduced == all(is_positive_root(r) for r in by_definition.roots)
    assert is_reduced(g, word) == reduced
    if reduced:
        assert root_sequence(g, word) == by_definition
        assert word_of_root_sequence(by_definition) == word
    else:
        with pytest.raises(ValueError):
            root_sequence(g, word)

    shorter = reduce_word(g, word)
    assert element_of(g, shorter) == w
    assert inversion_set(w) == frozenset(oracle_root_sequence(g, shorter).roots)
    assert word_of_root_sequence(root_sequence(g, shorter)) == shorter
    if w.length <= 8:
        assert canonical_word(w) == min(oracle_reduced_words(w))


# --- w0 against the literature ---

# Coxeter numbers h (Bourbaki, Lie Groups and Lie Algebras, ch. VI, plates).
COXETER_NUMBER = {"D4": 6, "D5": 8, "D6": 10, "E6": 12, "E7": 18, "E8": 30}
COXETER_NUMBER.update({f"A{k}": k + 1 for k in range(2, 7)})


def bipartite_w0_word(g, h: int) -> tuple[int, ...]:
    """w0 as a reduced word from a bipartite Coxeter element c = c+ c-.

    With the nodes of the tree 2-coloured, the word (c+ c-)^(h/2), or
    (c+ c-)^((h-1)/2) c+ for odd h, is reduced and equals w0
    (Bourbaki, ch. V, 6, ex. 2).  Its length is nh/2 = |Phi+|.
    """
    colour = {1: 0}
    stack = [1]
    while stack:
        s = stack.pop()
        for t in g.neighbors[s - 1]:
            if t not in colour:
                colour[t] = 1 - colour[s]
                stack.append(t)
    c_plus = tuple(s for s in g.generators() if colour[s] == 0)
    c_minus = tuple(s for s in g.generators() if colour[s] == 1)
    return (c_plus + c_minus) * (h // 2) + (c_plus if h % 2 else ())


# |Phi+|: n(n+1)/2 for A_n, n(n-1) for D_n, 36, 63, 120 for E6-E8.
# Inversion triples of w0 are the A2 subsystems: C(n+1, 3) for A_n,
# 4 C(n, 3) for D_n, and 120, 336, 1120 for E6-E8.
LITERATURE = {
    **{f"A{k}": (comb(k + 1, 2), comb(k + 1, 3)) for k in range(2, 7)},
    **{f"D{k}": (k * (k - 1), 4 * comb(k, 3)) for k in (4, 5, 6)},
    "E6": (36, 120),
    "E7": (63, 336),
    "E8": (120, 1120),
}


@pytest.mark.parametrize("name", sorted(LITERATURE))
def test_w0_roots_and_triples_match_literature(name):
    g = parse_graph(name)
    positive_roots, a2_subsystems = LITERATURE[name]
    word = bipartite_w0_word(g, COXETER_NUMBER[name])
    assert len(word) == positive_roots
    w0 = element_of(g, word)
    assert w0.length == positive_roots
    assert all(is_right_descent(w0, s) for s in g.generators())
    assert len(inversion_triples(w0)) == a2_subsystems


# --- the table of positive-root triples, on graphs of finite type ---


def brute_force_triples(w):
    """Every (a, a + b, b) over pairs a < b of the inversion set, by tuples."""
    roots = inversion_set(w)
    sums = ((a, tuple(x + y for x, y in zip(a, b)), b) for a in roots for b in roots if a < b)
    return {t for t in sums if t[1] in roots}


def _elements_to_scan():
    for name, max_length in (("A4", 10), ("D4", 12)):
        g = parse_graph(name)
        yield from (w for layer in group_by_length(g, max_length).values() for w in layer)
    for seed, (name, max_length) in enumerate((("D5", 20), ("E6", 36), ("E7", 63), ("E8", 120))):
        yield from random_elements(parse_graph(name), 25, max_length, seed)


def test_inversion_triples_match_a_brute_force_pair_scan():
    """All of A4 (120) and D4 (192), and seeded samples of D5, E6, E7, E8."""
    elements = list(_elements_to_scan())
    assert len(elements) == 120 + 192 + 4 * 25
    for w in elements:
        found = inversion_triples(w)
        assert {tuple(t) for t in found} == brute_force_triples(w), w
        assert all(t.low < t.high for t in found)


@pytest.mark.parametrize("name", sorted(LITERATURE))
def test_triple_table_holds_every_a2_subsystem(name):
    """Read straight off the table, the triples of Phi+ are its A2
    subsystems, each a true sum with low lex-before high."""
    g = parse_graph(name)
    table = _triple_table(g)
    entries = [(m, a, b, t) for m, decompositions in table.items() for a, b, t in decompositions]
    assert len(entries) == LITERATURE[name][1]
    assert len({t for *_, t in entries}) == len(entries)
    for m, a, b, t in entries:
        assert (a, m, b) == (_pack(t.low), _pack(t.mid), _pack(t.high))
        assert t.low < t.high
        assert tuple(x + y for x, y in zip(t.low, t.high)) == t.mid
    assert {r for *_, t in entries for r in t} <= all_positive_roots(g)


def test_one_triple_table_is_built_per_graph():
    _triple_table.cache_clear()
    e6, d5 = parse_graph("E6"), parse_graph("D5")
    for w in random_elements(e6, 10, 36, 3) + random_elements(d5, 10, 20, 4):
        inversion_triples(w)
    inversion_triples(element_of(parse_graph("E6"), (1, 3, 4)))
    assert _triple_table.cache_info().misses == 2


def test_a_short_element_of_high_rank_costs_what_its_roots_cost():
    """A60 has C(61, 3) = 35,990 triples of positive roots; the one triple
    of s1 s2 s1 must be found without building them (a table of them peaks
    at megabytes)."""
    w = element_of(parse_graph("A60"), (1, 2, 1))
    _triple_table.cache_clear()
    tracemalloc.start()
    try:
        found = inversion_triples(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert {tuple(t) for t in found} == brute_force_triples(w) and len(found) == 1
    assert _triple_table.cache_info().misses == 0
    assert peak < 64 * 1024


# Above rank 8 the triples come from a pair scan of the inversion set.
# Each graph with its number of positive roots, the length of its w0.
ABOVE_TABLE_RANK = (
    ("A9", 45), ("A12", 78), ("D9", 72), ("D10", 90),
    ("1-3,3-4,4-5,5-6,2-4,6-7,7-8,9-10", 123),  # E8 and A2, disjoint
)


@pytest.mark.parametrize("spec,positive_roots", ABOVE_TABLE_RANK)
def test_inversion_triples_above_rank_8_match_a_brute_force_pair_scan(spec, positive_roots):
    g = parse_graph(spec)
    assert g.n > 8 and _is_finite_type(g)
    assert len(all_positive_roots(g)) == positive_roots
    for w in random_elements(g, 12, positive_roots, seed=g.n):
        found = inversion_triples(w)
        assert {tuple(t) for t in found} == brute_force_triples(w), w
        assert all(t.low < t.high for t in found)


@pytest.mark.parametrize("head", [(2, 1), (3, 2, 1)])
def test_inversion_triples_of_a_short_permutation_in_s301(head):
    p = (*head, *range(len(head) + 1, 302))
    assert inversion_triples(perm_to_element(p)) == inversion_triples_1line(p)


# --- packed roots, and long words on infinite graphs ---

FINITE_TYPE = (
    *(f"A{k}" for k in range(1, 10)),
    *(f"D{k}" for k in range(4, 10)),
    "E6", "E7", "E8",
    "1-2,3-4,4-5,4-6",  # A2 and D4, disjoint
)
INFINITE_TYPE = (
    "1-2,2-3,1-3",  # triangle, affine A2
    "1-2,2-3,3-4,1-4",  # 4-cycle, affine A3
    "1-2,1-3,1-4,1-5",  # star, affine D4
    "1-2,2-3,1-4,4-5,1-6,6-7",  # arms 2,2,2: affine E6
    "1-2,1-3,3-4,1-5,5-6,6-7,7-8,8-9",  # T(2,3,6): affine E8
    "1-2,1-3,1-4,2-3,2-4,3-4",  # K4
)


@pytest.mark.parametrize("spec", FINITE_TYPE)
def test_finite_type_graphs_are_finite(spec):
    assert _is_finite_type(parse_graph(spec))


@pytest.mark.parametrize("spec", INFINITE_TYPE)
def test_infinite_type_graphs_are_not_finite(spec):
    assert not _is_finite_type(parse_graph(spec))


@pytest.mark.parametrize("name", ["A8", "D8", "E8"])
def test_pack_then_unpack_returns_every_root_at_width_4(name):
    g = parse_graph(name)
    positive = sorted(all_positive_roots(g))
    roots = positive + [tuple(-c for c in r) for r in positive]
    assert [_unpack(_pack(r), g.n) for r in roots] == roots


# Reduced-word lengths that carry some coefficient past 15 (4 bits): the
# affine triangle and 4-cycle grow linearly, K4 exponentially.
WIDE = {"1-2,2-3,1-3": 60, "1-2,2-3,3-4,1-4": 120, "1-2,1-3,1-4,2-3,2-4,3-4": 40}


def weak_order_walk(g, length: int, rng: random.Random):
    """A random reduced word, by right ascents, and its element."""
    w, word = identity_element(g), []
    for _ in range(length):
        s = rng.choice([s for s in g.generators() if not is_right_descent(w, s)])
        w = times_generator(w, s)
        word.append(s)
    return tuple(word), w


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("spec", sorted(WIDE))
def test_long_words_on_infinite_graphs(spec, seed):
    g = parse_graph(spec)
    rng = random.Random(f"{spec}:{seed}")
    word, w = weak_order_walk(g, WIDE[spec], rng)
    assert element_of(g, word) == w
    assert w.length == len(word)
    assert w.columns == tuple(zip(*matrix_product(g, word)))

    seq = root_sequence(g, word)
    assert seq == oracle_root_sequence(g, word)
    assert max(c for r in seq.roots for c in r) > 15
    assert word_of_root_sequence(seq) == word
    assert inversion_set(w) == frozenset(seq.roots)

    tail = tuple(rng.choice(g.generators()) for _ in range(4))
    assert reduce_word(g, word) == word
    shorter = reduce_word(g, word + tail + tail[::-1])
    assert len(shorter) == len(word) and element_of(g, shorter) == w
    canon = canonical_word(w)
    assert canon <= word and is_reduced(g, canon) and element_of(g, canon) == w

    roots = frozenset(seq.roots)
    sums = {(a, tuple(x + y for x, y in zip(a, b)), b) for a in roots for b in roots if a < b}
    assert {tuple(t) for t in inversion_triples(w)} == {t for t in sums if t[1] in roots}


def test_affine_word_of_ten_thousand_letters_holds_small_roots():
    """On the triangle (affine A2) coefficients grow linearly with length,
    so the roots of a 10^4-letter word take a few MB, not a width per step."""
    g = parse_graph("1-2,2-3,1-3")
    word = (1, 2, 3) * 3334  # a power of a Coxeter element: reduced
    tracemalloc.start()
    try:
        assert is_reduced(g, word)
        assert reduce_word(g, word) == word
        seq = root_sequence(g, word)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(c for r in seq.roots for c in r) == 5001
    assert peak < 8 * 2**20
