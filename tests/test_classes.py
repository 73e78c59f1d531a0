"""Word enumeration, commutation classes, signatures, commutation graphs."""

from __future__ import annotations

import itertools
import tracemalloc

import pytest

from freebraid import (
    LEX,
    REVLEX,
    CapExceededError,
    CommutationClass,
    CommutationGraph,
    class_partition,
    commutation_graph,
    contractible_triples,
    count_classes_and_check_bound,
    element_of,
    enumerate_classes,
    enumerate_reduced_words,
    f_signature,
    identity_element,
    is_bipartite,
    pairing,
    parity,
    parse_graph,
    perm_to_element,
    root_sequence,
    to_dot,
)
from freebraid.coxeter import DEFAULT_MAX_WORD_LENGTH
from freebraid.oracle import oracle_classes_by_bfs
from conftest import GOLDEN_D4_WORD, brute_reduced_words, group_by_length

A2 = parse_graph("A2")
A3 = parse_graph("A3")
D4 = parse_graph("D4")

W0_S3 = element_of(A2, (1, 2, 1))
W0_S4 = element_of(A3, (1, 2, 1, 3, 2, 1))


# --- word enumeration ---


def test_enumerate_words_identity():
    assert enumerate_reduced_words(identity_element(A2)) == [()]


def test_enumerate_words_w0_s3():
    assert enumerate_reduced_words(W0_S3) == [(1, 2, 1), (2, 1, 2)]


def test_enumerate_words_w0_s4():
    words = enumerate_reduced_words(W0_S4)
    assert len(words) == 16
    assert words == sorted(words)
    assert set(words) == brute_reduced_words(W0_S4)


def test_enumerate_words_matches_brute_force_all_s4():
    for length, elems in group_by_length(A3, 6).items():
        for w in elems:
            assert set(enumerate_reduced_words(w)) == brute_reduced_words(w)


def test_enumerate_words_cap():
    with pytest.raises(CapExceededError) as info:
        enumerate_reduced_words(W0_S4, cap=5)
    assert info.value.count == 6


def test_enumerate_words_cap_above_the_class_count():
    # w0(A3) has 8 classes and 16 words: a cap of 10 passes the class
    # search and stops the word listing at its 11th word.
    with pytest.raises(CapExceededError, match="more than 10 reduced words") as info:
        enumerate_reduced_words(W0_S4, cap=10)
    assert info.value.count == 11


def test_word_length_cap_raises_with_no_partial_count():
    w = element_of(parse_graph("E8"), (1, 2, 3, 4, 5, 6, 7, 8) * 8 + (1,))
    assert w.length == DEFAULT_MAX_WORD_LENGTH + 1
    with pytest.raises(CapExceededError, match="word-length cap 64") as info:
        enumerate_classes(w)
    assert info.value.count == 0


def test_enumerate_words_max_length_guard():
    w0_s12 = perm_to_element(tuple(range(12, 0, -1)))  # length 66, above the guard of 64
    with pytest.raises(CapExceededError) as info:
        enumerate_reduced_words(w0_s12)
    assert info.value.count == 0


def test_enumeration_is_deterministic():
    a = enumerate_reduced_words(element_of(D4, GOLDEN_D4_WORD))
    b = enumerate_reduced_words(element_of(D4, GOLDEN_D4_WORD))
    assert a == b
    assert len(a) == 48


# --- classes ---


def test_classes_identity():
    classes = enumerate_classes(identity_element(A2))
    assert len(classes) == 1
    assert classes[0].canonical_word == ()
    assert classes[0].size == 1


def test_classes_w0_s3():
    classes = enumerate_classes(W0_S3)
    assert [c.canonical_word for c in classes] == [(1, 2, 1), (2, 1, 2)]
    assert [c.size for c in classes] == [1, 1]


def test_classes_w0_s4():
    classes = enumerate_classes(W0_S4)
    assert len(classes) == 8
    assert sum(c.size for c in classes) == 16
    assert [c.canonical_word for c in classes] == sorted(
        c.canonical_word for c in classes
    )
    for c in classes:
        assert c.canonical == root_sequence(A3, c.canonical_word)


def test_classes_golden_d4():
    w = element_of(D4, GOLDEN_D4_WORD)
    classes = enumerate_classes(w)
    assert len(classes) == 4
    assert sum(c.size for c in classes) == 48


def test_class_partition_matches_bfs_oracle():
    for w in (W0_S3, W0_S4, element_of(A3, (1, 3)), identity_element(A3)):
        assert set(class_partition(w)) == set(oracle_classes_by_bfs(w))


def test_canonical_word_is_least_member_of_class():
    for part, c in zip(class_partition(W0_S4), enumerate_classes(W0_S4)):
        members = {tuple(r) for r in part}
        assert root_sequence(A3, c.canonical_word).roots == min(
            members, key=lambda roots: word_key(roots)
        )


def word_key(roots):
    from freebraid import RootSequence, word_of_root_sequence

    return word_of_root_sequence(RootSequence(A3, roots))


# --- signatures ---


def test_f_signature_w0_s3_lex():
    classes = enumerate_classes(W0_S3)
    by_word = {c.canonical_word: c for c in classes}
    assert f_signature(W0_S3, by_word[(1, 2, 1)], LEX).vector() == (1,)
    assert f_signature(W0_S3, by_word[(2, 1, 2)], LEX).vector() == (0,)


def test_f_signature_w0_s3_revlex_flips():
    classes = enumerate_classes(W0_S3)
    by_word = {c.canonical_word: c for c in classes}
    assert f_signature(W0_S3, by_word[(1, 2, 1)], REVLEX).vector() == (0,)
    assert f_signature(W0_S3, by_word[(2, 1, 2)], REVLEX).vector() == (1,)


def test_f_signature_empty_for_triple_free_elements():
    w = element_of(A3, (1, 3))
    (c,) = enumerate_classes(w)
    sig = f_signature(w, c)
    assert sig.vector() == ()
    assert sig.weight() == 0
    assert sig.bits() == {}


def test_f_signature_rejects_foreign_class():
    (c,) = enumerate_classes(element_of(A3, (1, 3)))
    with pytest.raises(ValueError):
        f_signature(W0_S4, c)
    with pytest.raises(ValueError, match="^class does not belong to this element$"):
        f_signature(W0_S3, c)  # letter 3 is outside w's support
    # One of w's class words, on another graph.
    lo, _ = enumerate_classes(W0_S3)
    with pytest.raises(ValueError):
        f_signature(W0_S3, CommutationClass(A3, lo.canonical_word, lo.size))
    # A word of w's graph that is none of w's class words.
    with pytest.raises(ValueError):
        f_signature(W0_S3, CommutationClass(A2, (1, 2), 1))


@pytest.mark.parametrize(
    "w",
    [
        perm_to_element((5, 4, 3, 2, 1)),
        element_of(D4, GOLDEN_D4_WORD),
        element_of(parse_graph("1-2,2-3,1-3"), (1, 2, 3, 1, 2, 3, 2)),
        element_of(parse_graph("1-2,3-4"), (1, 2, 1, 3, 4, 3)),
    ],
    ids=["w0_A4", "golden_D4", "affine_A2", "two_paths"],
)
def test_class_root_sequence_is_that_of_its_word(w):
    for c in enumerate_classes(w):
        assert c.graph == w.graph
        assert c.canonical == root_sequence(c.graph, c.canonical_word)


def test_signature_domain_is_contractible_triples():
    w = element_of(D4, GOLDEN_D4_WORD)
    for c in enumerate_classes(w):
        sig = f_signature(w, c)
        assert set(sig.bits()) == set(contractible_triples(w))


def test_parity_w0_s3():
    classes = enumerate_classes(W0_S3)
    by_word = {c.canonical_word: c for c in classes}
    assert parity(W0_S3, by_word[(1, 2, 1)], LEX) == -1
    assert parity(W0_S3, by_word[(2, 1, 2)], LEX) == 1
    (c,) = enumerate_classes(identity_element(A2))
    assert parity(identity_element(A2), c) == 1


def test_signatures_injective_s4_both_precedences():
    for length, elems in group_by_length(A3, 6).items():
        for w in elems:
            classes = enumerate_classes(w)
            for precedence in (LEX, REVLEX):
                sigs = [f_signature(w, c, precedence).vector() for c in classes]
                assert len(set(sigs)) == len(sigs)


# --- bound ---


def test_bound_examples():
    bc = count_classes_and_check_bound(W0_S3)
    assert (bc.classes, bc.contractible, bc.bound_holds, bc.achieves_bound) == (
        2,
        1,
        True,
        True,
    )
    bc = count_classes_and_check_bound(W0_S4)
    assert (bc.classes, bc.contractible, bc.bound_holds, bc.achieves_bound) == (
        8,
        4,
        True,
        False,
    )
    bc = count_classes_and_check_bound(identity_element(A2))
    assert (bc.classes, bc.contractible, bc.bound_holds, bc.achieves_bound) == (
        1,
        0,
        True,
        True,
    )


# --- commutation graph ---


def test_commutation_graph_shapes():
    g = commutation_graph(W0_S3)
    assert len(g.vertices) == 2
    assert g.edges == ((0, 1),)
    g = commutation_graph(W0_S4)
    assert (len(g.vertices), len(g.edges)) == (8, 8)
    g = commutation_graph(element_of(A3, (1, 3)))
    assert len(g.vertices) == 1
    assert g.edges == ()
    g = commutation_graph(identity_element(A3))
    assert len(g.vertices) == 1
    assert g.edges == ()


def test_commutation_graph_edges_flip_one_bit_w0_s4():
    graph = commutation_graph(W0_S4)
    sigs = [f_signature(W0_S4, c).vector() for c in graph.vertices]
    for i, j in graph.edges:
        diff = sum(a != b for a, b in zip(sigs[i], sigs[j]))
        assert diff == 1


def test_is_bipartite_accepts_w0_s4():
    graph = commutation_graph(W0_S4)
    assert is_bipartite(graph) is True
    for i, j in graph.edges:
        assert graph.sides[i] != graph.sides[j]


def test_is_bipartite_rejects_triangle():
    # No colouring of a triangle's three vertices puts every edge across.
    for sides in itertools.product((0, 1), repeat=3):
        fake = CommutationGraph(vertices=(0, 1, 2), edges=((0, 1), (0, 2), (1, 2)), sides=bytes(sides))
        assert is_bipartite(fake) is False, sides


def test_sides_are_the_lex_signature_parities():
    s4 = [w for elems in group_by_length(A3, 6).values() for w in elems]
    s5 = group_by_length(parse_graph("A4"), 6)[6]
    others = [
        element_of(D4, (2, 1, 3, 4) * 3),
        element_of(parse_graph("1-2,2-3,1-3"), (1, 2, 3, 1, 2, 3, 2)),
        element_of(parse_graph("1-2,1-3,1-4,2-3,2-4,3-4"), (2, 3, 2, 1, 2, 3, 1, 2, 1, 3, 2)),
    ]
    for w in [*s4, *s5, *others]:
        graph = commutation_graph(w)
        assert graph.sides == bytes([parity(w, c) == -1 for c in graph.vertices]), w


def test_parity_is_proper_coloring_w0_s4():
    graph = commutation_graph(W0_S4)
    cols = [parity(W0_S4, c) for c in graph.vertices]
    for i, j in graph.edges:
        assert cols[i] != cols[j]


# --- nonorthogonal pairs ordered differently share a contractible triple ---


def test_reordered_nonorthogonal_pairs_lie_in_a_contractible_triple():
    for length, elems in group_by_length(A3, 6).items():
        for w in elems:
            classes = enumerate_classes(w)
            triples = contractible_triples(w)
            positions = [
                {r: i for i, r in enumerate(c.canonical.roots)} for c in classes
            ]
            roots = classes[0].canonical.roots
            for x in range(len(classes)):
                for y in range(x + 1, len(classes)):
                    px, py = positions[x], positions[y]
                    for a_i in range(len(roots)):
                        for b_i in range(a_i + 1, len(roots)):
                            a, b = roots[a_i], roots[b_i]
                            if pairing(A3, a, b) == 0:
                                continue
                            if (px[a] < px[b]) == (py[a] < py[b]):
                                continue
                            assert any(
                                a in t and b in t for t in triples
                            ), (w, a, b)


# --- DOT export ---


def test_to_dot_w0_s3():
    graph = commutation_graph(W0_S3)
    pars = tuple(parity(W0_S3, c) for c in graph.vertices)
    lines = list(to_dot(graph, parities=pars, element_label="1 2 1"))
    assert all(line.count("\n") == 1 and line.endswith("\n") for line in lines)
    dot = "".join(lines)
    assert dot.startswith("graph commutation {")
    assert "// element: 1 2 1" in dot
    assert "// bipartite: true" in dot
    assert 'c0 [label="1 2 1", style=filled, fillcolor="#ffbb78"];' in dot
    assert 'c1 [label="2 1 2", style=filled, fillcolor="#aec7e8"];' in dot
    assert "c0 -- c1;" in dot
    assert dot.endswith("}\n")


def test_to_dot_identity_label():
    dot = "".join(to_dot(commutation_graph(identity_element(A2))))
    assert 'label="e"' in dot
    assert "style=filled" not in dot


def test_to_dot_streams_its_lines():
    """DOT text is yielded line by line, so writing it out holds one line:
    on w0(A5) (908 classes, the 109,160 characters of ``fb graph --perm
    654321 --dot --parity``) under 64 KiB traced."""
    w = perm_to_element((6, 5, 4, 3, 2, 1))
    graph = commutation_graph(w)
    pars = tuple(parity(w, c) for c in graph.vertices)
    tracemalloc.start()
    try:
        written = sum(map(len, to_dot(graph, pars, "1 2 1 3 2 1 4 3 2 1 5 4 3 2 1")))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert written == 109_160
    assert peak < 64 * 2**10, peak
