"""Graphs, roots, reflections, elements, word reduction."""

from __future__ import annotations

import random
import time
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freebraid import (
    CapExceededError,
    ParseError,
    act,
    canonical_word,
    element_of,
    format_word,
    identity_element,
    is_path_forest,
    is_positive_root,
    is_reduced,
    is_right_descent,
    is_standard_a_graph,
    pairing,
    parse_graph,
    parse_word,
    reduce_word,
    reflect,
    root_str,
    simple_root,
    times_generator,
)
from freebraid.coxeter import CoxeterGraph, Element, _is_finite_type, mat_mul, reflection_matrix
from conftest import GOLDEN_D4_WORD, all_positive_roots, brute_reduced_words

A2 = parse_graph("A2")
A3 = parse_graph("A3")
D4 = parse_graph("D4")


# --- parsing ---


def test_parse_graph_a_series():
    assert A2.n == 2
    assert A2.edges == frozenset({(1, 2)})
    assert A3.edges == frozenset({(1, 2), (2, 3)})
    assert parse_graph("A1").edges == frozenset()
    assert parse_graph("A0").n == 0


def test_parse_graph_d4_hub():
    assert D4.n == 4
    assert D4.edges == frozenset({(1, 2), (2, 3), (2, 4)})
    assert D4.m(2, 1) == D4.m(2, 3) == D4.m(2, 4) == 3
    assert D4.m(1, 3) == D4.m(1, 4) == D4.m(3, 4) == 2


def test_parse_graph_d5_tail():
    d5 = parse_graph("D5")
    assert d5.n == 5
    assert (4, 5) in d5.edges
    assert (2, 4) in d5.edges


def test_parse_graph_e6():
    e6 = parse_graph("E6")
    assert e6.n == 6
    degrees = [len(e6.neighbors[s - 1]) for s in e6.generators()]
    assert sorted(degrees) == [1, 1, 1, 2, 2, 3]


def test_parse_graph_edge_list_aliases_a3():
    assert parse_graph("1-2,2-3") == A3
    assert parse_graph("2-3,1-2") == A3
    assert parse_graph("1-2, 2-3") == A3


def test_parse_graph_errors():
    for bad in ("", "Q3", "D3", "E5", "E9", "1-1", "1-2,2", "0-1", "A-1"):
        with pytest.raises(ParseError):
            parse_graph(bad)


def test_coxeter_graph_validation_messages():
    with pytest.raises(ParseError, match="^generator count must be nonnegative$"):
        CoxeterGraph(-1, frozenset())
    with pytest.raises(ParseError, match="^edge 1-4 out of range 1..3$"):
        CoxeterGraph(3, {(1, 4)})
    with pytest.raises(ParseError, match="^self-loop at generator 2$"):
        CoxeterGraph(3, {(2, 2)})


def test_coxeter_exponents():
    g = CoxeterGraph(3, {(2, 1)})
    assert g.m(1, 1) == 1
    assert g.m(1, 2) == g.m(2, 1) == 3
    assert g.m(1, 3) == 2


def test_parse_word_forms():
    assert parse_word("1 2 1") == (1, 2, 1)
    assert parse_word("1,2,1") == (1, 2, 1)
    assert parse_word("") == ()
    assert format_word((1, 2, 1)) == "1 2 1"
    with pytest.raises(ParseError):
        parse_word("1 x 2")


# --- roots and reflections ---


def test_pairing_values():
    a1 = simple_root(A3, 1)
    a2 = simple_root(A3, 2)
    a3 = simple_root(A3, 3)
    assert pairing(A3, a1, a1) == 2
    assert pairing(A3, a1, a2) == -1
    assert pairing(A3, a1, a3) == 0


def test_reflect_examples():
    a1 = simple_root(A2, 1)
    a2 = simple_root(A2, 2)
    assert reflect(A2, 1, a1) == (-1, 0)
    assert reflect(A2, 1, a2) == (1, 1)
    assert reflect(A2, 1, (1, 1)) == (0, 1)


def test_reflect_is_involution():
    for r in all_positive_roots(D4):
        for s in D4.generators():
            assert reflect(D4, s, reflect(D4, s, r)) == r


def test_act_examples():
    a1 = simple_root(A2, 1)
    a2 = simple_root(A2, 2)
    # Two reflect steps: s2 sends a1 to a1+a2, then s1 sends that to a2.
    assert act(A2, (1, 2), a1) == (0, 1)
    assert act(A2, (), a1) == a1
    assert act(A2, (1, 1), a2) == a2


def test_act_composes_rightmost_first():
    r = simple_root(A3, 2)
    word = (1, 3, 2, 1)
    expected = r
    for s in reversed(word):
        expected = reflect(A3, s, expected)
    assert act(A3, word, r) == expected


def test_act_preserves_pairing():
    roots = sorted(all_positive_roots(D4))
    word = GOLDEN_D4_WORD
    for a in roots[:6]:
        for b in roots[:6]:
            assert pairing(D4, act(D4, word, a), act(D4, word, b)) == pairing(
                D4, a, b
            )


def test_root_str():
    assert root_str((1, 2, 1, 1)) == "a1+2a2+a3+a4"
    assert root_str((0, 1, 0, 0)) == "a2"
    assert root_str((-1, -1)) == "-a1-a2"


def test_positive_negative_predicates():
    assert is_positive_root((1, 0))
    assert not is_positive_root((-1, 0))
    assert not is_positive_root((1, -1))


# --- matrices and elements ---


def test_reflection_matrix_matches_reflect():
    for s in A3.generators():
        m = reflection_matrix(A3, s)
        for t in A3.generators():
            col = tuple(m[i][t - 1] for i in range(A3.n))
            assert col == reflect(A3, s, simple_root(A3, t))


@pytest.mark.parametrize("spec", ["A1", "D4", "E8", "1-2,2-3,1-3"])
def test_reflection_matrix_is_the_cartan_row_definition(spec):
    g = parse_graph(spec)
    n = g.n
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    # Symmetrized Cartan matrix: 2 on the diagonal, -1 per edge.
    cartan = [[0] * n for _ in range(n)]
    for i in range(n):
        cartan[i][i] = 2
    for s, t in g.edges:
        cartan[s - 1][t - 1] = cartan[t - 1][s - 1] = -1
    for s in g.generators():
        m = reflection_matrix(g, s)
        expected = tuple(
            tuple(identity[i][j] - (cartan[s - 1][j] if i == s - 1 else 0) for j in range(n))
            for i in range(n)
        )
        assert m == expected
        assert mat_mul(m, m) == identity


def test_mat_mul_against_action():
    m = mat_mul(reflection_matrix(A2, 1), reflection_matrix(A2, 2))
    for t in A2.generators():
        col = tuple(m[i][t - 1] for i in range(A2.n))
        assert col == act(A2, (1, 2), simple_root(A2, t))


def test_element_of_examples():
    assert element_of(A2, (1, 1)) == identity_element(A2)
    assert element_of(A2, (1, 1)).length == 0
    assert element_of(A2, (1, 2, 1)).length == 3
    assert element_of(D4, GOLDEN_D4_WORD).length == 9


def test_element_equality_across_words():
    assert element_of(A2, (1, 2, 1)) == element_of(A2, (2, 1, 2))
    assert element_of(A3, (1, 3)) == element_of(A3, (3, 1))
    assert element_of(A2, (1, 2)) != element_of(A2, (2, 1))


def test_is_right_descent():
    e = identity_element(A2)
    assert not is_right_descent(e, 1)
    assert is_right_descent(element_of(A2, (1,)), 1)
    w = element_of(D4, GOLDEN_D4_WORD)
    for s in D4.generators():
        assert is_right_descent(w, s) == (s == 2)


def test_times_generator_changes_length_by_one():
    w = element_of(A3, (1, 2, 3))
    for s in A3.generators():
        ws = times_generator(w, s)
        assert abs(ws.length - w.length) == 1
        assert times_generator(ws, s) == w


@pytest.mark.parametrize("spec", ["D4", "1-2,2-3,1-3"])
def test_hand_built_element_with_wrong_length_is_a_clean_error(spec):
    # D4 peels packed columns, the affine triangle tuple columns.
    g = parse_graph(spec)
    bad = Element(g, identity_element(g).columns, 1)
    with pytest.raises(ValueError, match="^columns are not those of a Coxeter group element$"):
        canonical_word(bad)


# --- reduction ---


def test_reduce_word_examples():
    assert reduce_word(A2, (1, 1)) == ()
    out = reduce_word(A2, (1, 2, 1, 2))
    assert len(out) == 2
    assert element_of(A2, out) == element_of(A2, (1, 2, 1, 2))
    assert reduce_word(A2, (1, 2, 1)) == (1, 2, 1)


def test_reduce_word_returns_subword():
    word = (1, 2, 1, 2, 3, 2, 1, 1, 2)
    out = reduce_word(A3, word)
    it = iter(word)
    assert all(s in it for s in out)


def test_is_reduced():
    assert is_reduced(A2, ())
    assert not is_reduced(A2, (1, 1))
    assert is_reduced(D4, GOLDEN_D4_WORD)


def test_canonical_word_is_lex_least_reduced_word():
    for word in product(A2.generators(), repeat=3):
        w = element_of(A2, word)
        assert canonical_word(w) == min(brute_reduced_words(w))


def test_canonical_word_longest_s4():
    w0 = element_of(A3, (1, 2, 1, 3, 2, 1))
    assert w0.length == 6
    assert canonical_word(w0) == min(brute_reduced_words(w0))


# --- whole-group properties on S4 ---


def test_length_counts_match_phi_and_group_size():
    # repeat=6 yields the even elements, repeat=5 the odd ones.
    seen = set()
    for repeat in (5, 6):
        for word in product(A3.generators(), repeat=repeat):
            seen.add(element_of(A3, word))
    assert len(seen) == 24
    pos = all_positive_roots(A3)
    assert len(pos) == 6
    for w in seen:
        neg = {r for r in pos if not is_positive_root(act(A3, canonical_word(w), r))}
        assert len(neg) == w.length


def test_all_positive_roots_counts():
    assert len(all_positive_roots(A2)) == 3
    assert len(all_positive_roots(A3)) == 6
    assert len(all_positive_roots(D4)) == 12
    assert len(all_positive_roots(parse_graph("D5"))) == 20


# --- graph shape predicates ---


def test_is_path_forest():
    assert is_path_forest(A3)
    assert is_path_forest(parse_graph("A0"))
    assert is_path_forest(parse_graph("A1"))
    assert is_path_forest(parse_graph("1-2,3-4"))
    assert is_path_forest(parse_graph("2-3"))  # node 1 is isolated
    assert is_path_forest(parse_graph("A300"))
    assert not is_path_forest(D4)
    assert not is_path_forest(parse_graph("D5"))
    assert not is_path_forest(parse_graph("E6"))
    assert not is_path_forest(parse_graph("1-2,2-3,1-3"))
    assert not is_path_forest(parse_graph("1-2,2-3,3-4,1-4"))
    assert not is_path_forest(parse_graph("1-2,1-3,1-4,1-5"))


# --- the finite-type classifier against references ---


def bareiss_is_finite_type(g):
    """Reference: the Cartan matrix is positive definite iff every leading
    principal minor, a pivot of fraction-free (Bareiss) elimination on the
    dense n x n matrix, is positive.  O(n^3)."""
    n, prev = g.n, 1
    a = [[2 * (i == j) - (j + 1 in g.neighbors[i]) for j in range(n)] for i in range(n)]
    for p in range(n):
        if a[p][p] <= 0:
            return False
        for i in range(p + 1, n):
            for j in range(p + 1, n):
                a[i][j] = (a[p][p] * a[i][j] - a[i][p] * a[p][j]) // prev
        prev = a[p][p]
    return True


def componentwise_is_path_forest(g):
    """Reference: every component has one edge fewer than it has nodes, and
    no node has degree 3 or more."""
    if any(len(v) > 2 for v in g.neighbors):
        return False
    seen = set()
    for root in g.generators():
        if root in seen:
            continue
        component, stack = {root}, [root]
        while stack:
            for t in g.neighbors[stack.pop() - 1]:
                if t not in component:
                    component.add(t)
                    stack.append(t)
        seen |= component
        if sum(len(g.neighbors[s - 1]) for s in component) != 2 * (len(component) - 1):
            return False
    return True


def all_simple_graphs(max_n):
    for n in range(max_n + 1):
        pairs = list(combinations(range(1, n + 1), 2))
        for chosen in product((False, True), repeat=len(pairs)):
            yield CoxeterGraph(n, frozenset(e for e, c in zip(pairs, chosen) if c))


def random_graphs(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        n, p = rng.randint(7, 12), rng.uniform(0.08, 0.3)
        yield CoxeterGraph(n, frozenset(e for e in combinations(range(1, n + 1), 2) if rng.random() < p))


def test_finite_type_agrees_with_bareiss_on_every_graph_up_to_6_nodes():
    graphs = list(all_simple_graphs(6))
    assert len(graphs) == 33_868
    verdicts = [bareiss_is_finite_type(g) for g in graphs]
    assert [_is_finite_type(g) for g in graphs] == verdicts
    assert [is_path_forest(g) for g in graphs] == [componentwise_is_path_forest(g) for g in graphs]
    assert 0 < sum(verdicts) < len(graphs)


def test_finite_type_agrees_with_bareiss_on_random_graphs_of_7_to_12_nodes():
    graphs = list(random_graphs(1500, seed=15))
    verdicts = [bareiss_is_finite_type(g) for g in graphs]
    assert [_is_finite_type(g) for g in graphs] == verdicts
    assert [is_path_forest(g) for g in graphs] == [componentwise_is_path_forest(g) for g in graphs]
    assert sum(verdicts) >= 100 and len(graphs) - sum(verdicts) >= 100


def test_finite_type_is_linear_time_at_high_rank():
    """Dense elimination takes seconds on A400; leaf peeling takes about a
    millisecond."""
    g = parse_graph("A400")
    _is_finite_type.cache_clear()
    start = time.perf_counter()
    assert _is_finite_type(g)
    assert time.perf_counter() - start < 0.5


def test_is_standard_a_graph():
    assert is_standard_a_graph(A3)
    assert is_standard_a_graph(parse_graph("1-2,2-3"))
    assert not is_standard_a_graph(D4)
    assert not is_standard_a_graph(parse_graph("1-2,3-4"))


def test_infinite_group_smoke():
    # Triangle graph: the group is infinite, but words still reduce fine.
    tri = parse_graph("1-2,2-3,1-3")
    w = element_of(tri, (1, 2, 3, 1, 2, 3))
    assert w.length == 6
    assert is_reduced(tri, canonical_word(w))


# --- property-based checks ---


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 4), max_size=9).map(tuple))
def test_reduce_word_properties_d4(word):
    out = reduce_word(D4, word)
    assert is_reduced(D4, out)
    assert element_of(D4, out) == element_of(D4, word)
    assert len(out) <= len(word)
    assert len(out) == element_of(D4, word).length


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 3), max_size=8).map(tuple))
def test_act_sends_roots_to_roots_a3(word):
    for r in all_positive_roots(A3):
        img = act(A3, word, r)
        assert is_positive_root(img) or is_negative_root_like(img)


def is_negative_root_like(r):
    return all(x <= 0 for x in r) and any(x < 0 for x in r)


def test_cap_exceeded_error_carries_count():
    err = CapExceededError("too many", count=7)
    assert err.count == 7
