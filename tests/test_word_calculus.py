"""The column-step word calculus against definitions and the literature.

element_of, reduce_word, root_sequence, word_of_root_sequence and
canonical_word all step column images one generator at a time.  Here they
are checked against full matrix products, root sequences built from their
definition with act, the oracle's descent recursion on matrices, and counts
of positive roots and A2 subsystems from the literature.  Columns are
packed at 4 bits a coefficient on graphs of finite type only, and are
vectors elsewhere; the finiteness test, the packing, and long words on
infinite graphs, whose coefficients outgrow 4 bits, are checked on their
own, and both encodings are run on the same finite elements and must
agree.  Up to rank 8 on packed columns, inverses, inversion sets and
inversion triples are read off a per-graph tree of the positive roots and
its partner lists; the tree is checked against root counts and heights from
the literature, and the tree route against the right-descent peel that
serves every other graph.  Inversion triples are checked against a
brute-force pair scan, on both sides of the length where the partner lists
hand over to the table of every triple less those touching a non-inversion,
and the partner lists against counts of A2 subsystems.  reduce_word's column walk is checked to delete the letter the
exchange condition's walk on tuple roots deletes, and no word operation may
call reflect or act.
"""

from __future__ import annotations

import random
import tracemalloc
from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freebraid.classes
import freebraid.coxeter
import freebraid.rootseq
import freebraid.triples
from freebraid import (
    CapExceededError,
    canonical_word,
    commutation_graph,
    element_of,
    identity_element,
    inversion_set,
    inversion_triples,
    is_positive_root,
    is_reduced,
    is_right_descent,
    parse_graph,
    reduce_word,
    reflect,
    root_sequence,
    simple_root,
    times_generator,
    word_of_root_sequence,
)
from freebraid.classes import _built, _engine, _induced
from freebraid.coxeter import (_VECTORS, _Vector, _is_finite_type, _pack, _root_tree, _unpack, mat_mul,
                               reflection_matrix)
from freebraid.oracle import oracle_reduced_words, oracle_root_sequence
from freebraid.triples import InversionTriple, _partners, _summands
from freebraid.typea import inversion_triples_1line, perm_to_element
from conftest import GOLDEN_D4_WORD, all_positive_roots, group_by_length, random_elements

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


# --- the positive-root tree and its partner lists, on graphs of finite type ---

# Every finite type of rank at most 8, with |Phi+| and its Coxeter number h:
# n(n+1)/2 and n + 1 for A_n, n(n-1) and 2n - 2 for D_n, 36, 63, 120 and
# 12, 18, 30 for E6-E8.
TREE_TYPES = {
    **{f"A{k}": (comb(k + 1, 2), k + 1) for k in range(1, 9)},
    **{f"D{k}": (k * (k - 1), 2 * k - 2) for k in range(4, 9)},
    "E6": (36, 12),
    "E7": (63, 18),
    "E8": (120, 30),
}


@pytest.mark.parametrize("name", sorted(TREE_TYPES))
def test_root_tree_matches_the_literature(name):
    """The tree holds |Phi+| roots by height, each later root its parent plus
    one simple root.  Each root b is a sum of two positive roots in
    ht(b) - 1 ways, and as heights are dual to the exponents (Humphreys,
    Reflection Groups and Coxeter Groups, 3.20) they sum to |Phi+|(h + 1)/3,
    so w0 has |Phi+|(h - 2)/3 inversion triples: C(n + 1, 3) for A_n, 1,120
    for E8."""
    g = parse_graph(name)
    positive_roots, h = TREE_TYPES[name]
    packed, tree = _root_tree(g)
    roots = [_unpack(p, g.n) for p in packed]
    assert len(roots) == positive_roots and set(roots) == all_positive_roots(g)
    assert roots[:g.n] == [tuple(int(i == s) for i in range(g.n)) for s in range(g.n)]
    assert [sum(r) for r in roots] == sorted(sum(r) for r in roots)
    assert 3 * sum(map(sum, roots)) == positive_roots * (h + 1)
    for child, (parent, s) in zip(roots[g.n:], tree):
        assert child == tuple(c + (i == s) for i, c in enumerate(roots[parent]))
    ways = Counter(t.mid for partners in _partners(g).values() for _, t in partners)
    assert all(ways[b] == sum(b) - 1 for b in roots)
    w0 = element_of(g, bipartite_w0_word(g, h))
    assert w0.length == positive_roots
    assert len(inversion_triples(w0)) * 3 == positive_roots * (h - 2)
    if name.startswith("A"):
        assert len(inversion_triples(w0)) == comb(g.n + 1, 3)


@pytest.fixture
def peel_only(monkeypatch):
    """A switch to the right-descent peel on every graph: ``_on_tree`` patched
    off in each namespace that reads it, with the engine cache cleared on the
    switch and at the end.  It yields the list of elements ``_peel`` is
    called on."""
    peeled, peel = [], freebraid.coxeter._peel
    monkeypatch.setattr(freebraid.coxeter, "_peel", lambda w: peeled.append(w) or peel(w))

    def to_peel():
        for module in (freebraid.coxeter, freebraid.triples):
            monkeypatch.setattr(module, "_on_tree", lambda g: False)
        _built.cache_clear()

    yield to_peel, peeled
    _built.cache_clear()


def _route_elements():
    """Seeded elements of every finite type of rank at most 8, long and short,
    of a disconnected graph (A2 and A3) and of D5 labelled with hub 3 and
    the tail 3-4-2, and the identity of E8."""
    for seed, name in enumerate(sorted(TREE_TYPES)):
        g, positive_roots = parse_graph(name), TREE_TYPES[name][0]
        yield from random_elements(g, 3, positive_roots, seed)
        yield from random_elements(g, 2, min(8, positive_roots), seed)
    for spec in ("1-2,3-4,4-5", "5-3,3-1,3-4,4-2"):
        yield from random_elements(parse_graph(spec), 6, 9, 1)
    yield identity_element(parse_graph("E8"))


def route_answers(elements) -> list:
    """Canonical words, inversion sets and triples, and on elements of length
    at most 8 the class engine's classes with their keys, sizes and labels."""
    out = []
    for w in elements:
        out.append((canonical_word(w), inversion_set(w), inversion_triples(w)))
        if w.length <= 8:
            e = _engine(w)
            out.append((list(e.classes.items()), e.sizes, e.labels))
    return out


def test_the_root_tree_and_the_peel_give_the_same_answers(peel_only):
    to_peel, peeled = peel_only
    elements = list(_route_elements())
    assert _is_finite_type(parse_graph("5-3,3-1,3-4,4-2"))
    assert len(all_positive_roots(parse_graph("5-3,3-1,3-4,4-2"))) == 20
    on_tree = route_answers(elements)
    assert peeled == []
    to_peel()
    assert route_answers(elements) == on_tree
    assert len(peeled) >= len(elements)


def test_an_e8_op_peels_nothing(peel_only):
    """One op of the E8 word-calculus benchmark, on w0(E8) with a tail that
    cancels: reduce, evaluate, canonical word, root-sequence round trip and
    triples, with no right-descent peel."""
    _, peeled = peel_only
    g = parse_graph("E8")
    word = bipartite_w0_word(g, 30) + (1, 3, 4, 4, 3, 1)
    reduced = reduce_word(g, word)
    w = element_of(g, word)
    assert canonical_word(w) <= reduced
    assert word_of_root_sequence(root_sequence(g, reduced)) == reduced
    assert len(inversion_triples(w)) == 1120 and len(inversion_set(w)) == 120
    assert peeled == []




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
    """Read straight off the partner lists, the triples of Phi+ are its A2
    subsystems, each a true sum with low lex-before high."""
    g = parse_graph(name)
    entries = [(a, b, t) for a, partners in _partners(g).items() for b, t in partners]
    assert len(entries) == LITERATURE[name][1]
    assert len({t for *_, t in entries}) == len(entries)
    for a, b, t in entries:
        assert (a, a + b, b) == (_pack(t.low), _pack(t.mid), _pack(t.high))
        assert t.low < t.high
        assert tuple(x + y for x, y in zip(t.low, t.high)) == t.mid
    assert {r for *_, t in entries for r in t} <= all_positive_roots(g)


def test_one_triple_table_is_built_per_graph():
    _partners.cache_clear()
    _root_tree.cache_clear()
    e6, d5 = parse_graph("E6"), parse_graph("D5")
    for w in random_elements(e6, 10, 36, 3) + random_elements(d5, 10, 20, 4):
        inversion_triples(w)
    inversion_triples(element_of(parse_graph("E6"), (1, 3, 4)))
    assert _partners.cache_info().misses == _root_tree.cache_info().misses == 2


def test_a_short_element_of_high_rank_costs_what_its_roots_cost():
    """A60 has C(61, 3) = 35,990 triples of positive roots; the one triple
    of s1 s2 s1 must be found without building them (a table of them peaks
    at megabytes)."""
    w = element_of(parse_graph("A60"), (1, 2, 1))
    _partners.cache_clear()
    _root_tree.cache_clear()
    _summands.cache_clear()
    tracemalloc.start()
    try:
        found = inversion_triples(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert {tuple(t) for t in found} == brute_force_triples(w) and len(found) == 1
    assert _partners.cache_info().misses == _root_tree.cache_info().misses == 0
    assert _summands.cache_info().misses == 0
    assert peak < 64 * 1024


# Types checked on both sides of the route switch at half of |Phi+|.
SWITCH_TYPES = ("A5", "D5", "E6", "E7", "E8")


def _switch_elements(name: str):
    """Seeded elements of lengths floor(|Phi+|/2) - 1, floor(|Phi+|/2) and
    floor(|Phi+|/2) + 1, two of each, then e and w0."""
    g, (positive_roots, h) = parse_graph(name), TREE_TYPES[name]
    rng = random.Random(f"switch:{name}")
    half = positive_roots // 2
    for length in (half - 1, half, half + 1):
        for _ in range(2):
            yield weak_order_walk(g, length, rng)[1]
    yield identity_element(g)
    yield element_of(g, bipartite_w0_word(g, h))


@pytest.mark.parametrize("name", SWITCH_TYPES)
def test_both_triple_routes_at_the_switch(name, peel_only, monkeypatch):
    """Up to half of |Phi+| long the partner lists serve, past it the table
    of every triple: both equal a brute-force scan and the pair scan of the
    inversion set."""
    positive_roots = TREE_TYPES[name][0]
    elements = list(_switch_elements(name))
    tabled, summands = [], freebraid.triples._summands
    monkeypatch.setattr(freebraid.triples, "_summands", lambda g: tabled.append(g) or summands(g))
    on_tree = [inversion_triples(w) for w in elements]
    assert len(tabled) == sum(2 * w.length > positive_roots for w in elements) == 3
    for w, found in zip(elements, on_tree):
        assert type(found) is frozenset and all(type(t) is InversionTriple for t in found)
        assert all(t.low < t.high for t in found)
        assert {tuple(t) for t in found} == brute_force_triples(w), w
    to_peel, _ = peel_only
    to_peel()
    assert [inversion_triples(w) for w in elements] == on_tree
    assert len(tabled) == 3
    assert not on_tree[-2] and len(on_tree[-1]) == LITERATURE[name][1]


def test_the_table_of_every_triple_is_built_once_and_only_for_long_elements():
    """Elements at most half of |Phi+| long, as de_sweep's E6-E8 elements
    are, never build the table of every triple; longer ones build it once
    per graph."""
    _summands.cache_clear()
    names = ("E6", "E7", "E8", "D5")
    for seed, name in enumerate(names):
        for w in random_elements(parse_graph(name), 10, TREE_TYPES[name][0] // 2, seed):
            inversion_triples(w)
    assert _summands.cache_info().misses == 0
    for seed, name in enumerate(names):
        g, (positive_roots, h) = parse_graph(name), TREE_TYPES[name]
        for w in random_elements(g, 10, positive_roots, seed) + [element_of(g, bipartite_w0_word(g, h))]:
            inversion_triples(w)
    assert _summands.cache_info().misses == len(names)


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


def test_vectors_add_negate_and_compare_with_zero_as_packed_ints_do():
    a, b = _Vector((1, 1, 0)), _Vector((0, 1, 1))
    assert a + b == (1, 2, 1) and type(a + b) is _Vector
    assert (a + b) - a == b and type((a + b) - a) is _Vector
    assert -a == (-1, -1, 0) and type(-a) is _Vector
    assert a > 0 and not a < 0
    assert -a < 0 and not -a > 0
    decode = _VECTORS[1]
    assert decode([a, -b], 3) == ((1, 1, 0), (0, -1, -1))
    assert all(type(r) is tuple for r in decode([a, -b], 3))


# Finite types up to rank 8 (the root tree) and past it (the peel); affine,
# hyperbolic and disconnected graphs; D5 labelled out of order.
EXCHANGE_GRAPHS = ("A1", "A5", "D4", "D6", "E6", "E7", "E8", "A12", "D10", "1-2,2-3,1-3", "1-2,2-3,3-4,1-4",
                   "1-2,1-3,1-4,2-3,2-4,3-4", "1-2,2-3,3-4,4-5,3-6,6-7", "1-2,3-4,4-5", "5-3,3-1,3-4,4-2",
                   ",".join(f"{i}-{i % 16 + 1}" for i in range(1, 17)))


def tuple_exchange_walk(g, word):
    """reduce_word as the exchange condition states it, on tuple roots: at a
    descent s of the prefix s_1...s_k, u = a_s is reflected back by s_k,
    s_{k-1}, ... and the first s_i with u = a_{s_i} is deleted."""
    w, prefix = identity_element(g), []
    for s in word:
        if is_right_descent(w, s):
            u = simple_root(g, s)
            for i in range(len(prefix) - 1, -1, -1):
                if u == simple_root(g, prefix[i]):
                    break
                u = reflect(g, prefix[i], u)
            del prefix[i]
        else:
            prefix.append(s)
        w = times_generator(w, s)
    return tuple(prefix)


def cancelling_words(g, rng: random.Random, count: int, max_length: int):
    """Random words, then words with a tail u + reversed(u), then w + reversed(w)."""
    for _ in range(count):
        w = tuple(rng.choice(g.generators()) for _ in range(rng.randint(0, max_length)))
        u = tuple(rng.choice(g.generators()) for _ in range(rng.randint(1, 8)))
        yield w
        yield w + u + u[::-1]
        yield w + w[::-1]


@pytest.mark.parametrize("spec", EXCHANGE_GRAPHS)
def test_reduce_word_deletes_the_letter_of_the_tuple_exchange_walk(spec):
    """The column walk deletes the letter that the tuple walk deletes, so the
    reduced words agree letter for letter; on K4 and the 16-cycle the power
    of a Coxeter element carries coefficients past 4 bits."""
    g = parse_graph(spec)
    rng = random.Random(spec)
    for word in cancelling_words(g, rng, 40, 40):
        assert reduce_word(g, word) == tuple_exchange_walk(g, word), word
    power = tuple(g.generators()) * (17 if g.n > 4 else 10)
    assert reduce_word(g, power + power[::-1]) == tuple_exchange_walk(g, power + power[::-1]) == ()
    assert reduce_word(g, power) == tuple_exchange_walk(g, power)
    if spec in ("1-2,1-3,1-4,2-3,2-4,3-4", EXCHANGE_GRAPHS[-1]):
        assert max(c for r in inversion_set(element_of(g, power)) for c in r) > 15


def test_no_word_operation_reflects_a_tuple_root(monkeypatch):
    """reflect and act are definitions for the oracle and the tests: the word
    operations run on columns alone, on the root tree (E8), the peel above
    rank 8 (A12) and vector columns (K4)."""

    def refuse(*args):
        raise AssertionError("a word operation reflected a tuple root")

    monkeypatch.setattr(freebraid.coxeter, "reflect", refuse)
    monkeypatch.setattr(freebraid.coxeter, "act", refuse)
    for spec in ("E8", "A12", "1-2,1-3,1-4,2-3,2-4,3-4"):
        g = parse_graph(spec)
        for word in cancelling_words(g, random.Random(spec), 5, 30):
            reduced = reduce_word(g, word)
            w = element_of(g, word)
            assert is_reduced(g, reduced) and element_of(g, reduced) == w
            least = canonical_word(w)
            seq = root_sequence(g, least)
            assert word_of_root_sequence(seq) == least
            assert inversion_set(w) == frozenset(seq.roots)
            assert all({t.low, t.mid, t.high} <= frozenset(seq.roots) for t in inversion_triples(w))


# Elements of finite type that one run holds as packed ints and another as
# vectors: the golden D4 word (4 classes), an E6 element on all six letters
# (4 classes of 1,392 words), w0(A5) (908 classes), and an element of D5
# whose support has two components (8 classes).
ENCODED = {
    "D4": ("D4", GOLDEN_D4_WORD),
    "E6": ("E6", (4, 2, 3, 4, 5, 4, 2, 3, 4, 1, 3, 6, 5)),
    "w0(A5)": ("A5", (1, 2, 1, 3, 2, 1, 4, 3, 2, 1, 5, 4, 3, 2, 1)),
    "D5 split": ("D5", (1, 2, 1, 3, 2, 1, 5)),
}


@pytest.fixture
def calculus(monkeypatch):
    """A switch to vector columns on every graph: ``_calculus`` patched in
    each namespace that reads it, with the engine and subgraph caches
    cleared on the switch and at the end."""

    def to_vectors():
        for module in (freebraid.coxeter, freebraid.rootseq, freebraid.classes, freebraid.triples):
            monkeypatch.setattr(module, "_calculus", lambda g: _VECTORS)
        _built.cache_clear()
        _induced.cache_clear()

    yield to_vectors
    _built.cache_clear()
    _induced.cache_clear()


def calculus_answers(g, word) -> tuple:
    """The word calculus, inversion triples and the class engine on one
    element."""
    w = element_of(g, word)
    least = canonical_word(w)
    seq = root_sequence(g, least)
    e = _engine(w)
    return (w, reduce_word(g, word + word[::-1] + word), least, seq, word_of_root_sequence(seq),
            inversion_set(w), inversion_triples(w), list(e.classes.items()), e.sizes, e.labels,
            commutation_graph(w).edges)


def class_cap_error(g, word, cap: int) -> tuple[str, int]:
    with pytest.raises(CapExceededError) as caught:
        _engine(element_of(g, word), cap)
    return str(caught.value), caught.value.count


@pytest.mark.parametrize("name", sorted(ENCODED))
def test_packed_and_vector_columns_give_the_same_answers(name, calculus):
    spec, word = ENCODED[name]
    g = parse_graph(spec)
    packed = calculus_answers(g, word)
    calculus()
    assert freebraid.coxeter._calculus(g) is _VECTORS
    assert calculus_answers(g, word) == packed


def test_packed_and_vector_columns_trip_the_class_cap_alike(calculus, monkeypatch):
    """w0(A5) has 908 classes: at cap 500 its pass hands over to the counting
    walk, which raises on either encoding."""
    spec, word = ENCODED["w0(A5)"]
    g = parse_graph(spec)
    walked, walk = [], freebraid.classes._capped_walk
    monkeypatch.setattr(freebraid.classes, "_capped_walk", lambda *a: walked.append(type(a[1][0])) or walk(*a))
    packed = class_cap_error(g, word, 500)
    assert packed == ("more than 500 commutation classes", 501)
    calculus()
    assert class_cap_error(g, word, 500) == packed
    assert walked == [int, _Vector]
