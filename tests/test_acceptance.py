"""Acceptance suite: one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
their runtimes.  Criterion 11 has two tests: an exhaustive one that asserts,
on every element of D4, that bound achievers are exactly the freely braided
elements, and an exploratory one on D4/D5 samples that records outcomes and
flags counterexamples loudly instead of asserting them away.
"""

from __future__ import annotations

import random
import sys
import time
from contextlib import contextmanager

from freebraid import (
    LEX,
    REVLEX,
    commutation_graph,
    consecutive_normal_form,
    contractible_triples,
    count_classes_and_check_bound,
    element_of,
    enumerate_classes,
    enumerate_reduced_words,
    f_signature,
    inversion_set,
    inversion_triples,
    is_bipartite,
    is_contractible,
    is_freely_braided,
    parity,
    parse_graph,
    root_sequence,
    simple_root,
    word_of_root_sequence,
)
from freebraid.oracle import oracle_classes_by_bfs, oracle_contractible
from freebraid.typea import (
    contains_pattern,
    is_freely_braided_perm,
    perm_to_element,
)
from conftest import (
    GOLDEN_D4_ROOTS,
    GOLDEN_D4_WORD,
    all_permutations,
    group_by_length,
    random_elements,
)

A3 = parse_graph("A3")
A4 = parse_graph("A4")
D4 = parse_graph("D4")
D5 = parse_graph("D5")


@contextmanager
def criterion(number: int, label: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"\nACCEPTANCE {number} FAIL {label} ({elapsed:.2f}s)", file=sys.stderr)
        raise
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE {number} PASS {label} ({elapsed:.2f}s)")


def s5_elements():
    return [perm_to_element(p) for p in all_permutations(5)]


def test_acceptance_01_golden_d4_element():
    with criterion(1, "golden D4 element: sequence, unique triple, not contractible"):
        w = element_of(D4, GOLDEN_D4_WORD)
        seq = root_sequence(D4, GOLDEN_D4_WORD)
        assert seq.roots == GOLDEN_D4_ROOTS

        alpha2 = simple_root(D4, 2)
        phi = inversion_set(w)
        simples = {r for r in phi if sum(r) == 1}
        assert simples == {alpha2}

        containing = [t for t in inversion_triples(w) if alpha2 in t]
        assert len(containing) == 1
        (t,) = containing
        assert set(t) == {(0, 1, 0, 0), (1, 2, 1, 1), (1, 1, 1, 1)}
        assert not is_contractible(w, t)
        assert not oracle_contractible(w, t)


def test_acceptance_02_bound_and_equality_s5():
    with criterion(2, "class count <= 2^N on all of S5, equality iff freely braided"):
        for w in s5_elements():
            check = count_classes_and_check_bound(w)
            assert check.bound_holds
            assert check.classes <= 2**check.contractible
            assert check.achieves_bound == is_freely_braided(w)


def test_acceptance_03_pattern_criterion():
    with criterion(3, "pattern criterion matches generic predicate (S5 + 200 random S6)"):
        for p in all_permutations(5):
            assert is_freely_braided_perm(p) == is_freely_braided(perm_to_element(p))
        rng = random.Random(20260816)
        for _ in range(200):
            p = tuple(rng.sample(range(1, 7), 6))
            assert is_freely_braided_perm(p) == is_freely_braided(perm_to_element(p))


def test_acceptance_04_all_s5_triples_contractible():
    with criterion(4, "every S5 inversion triple is contractible (path rule + engine + oracle)"):
        for w in s5_elements():
            triples = inversion_triples(w)
            assert contractible_triples(w) == triples
            for c in enumerate_classes(w):
                assert {t for t, _ in f_signature(w, c).entries} == triples
            for t in triples:
                assert oracle_contractible(w, t)


def test_acceptance_05_class_partition_matches_bfs_oracle_s4():
    with criterion(5, "heap-order class partition equals BFS partition on all of S4"):
        for length, elems in group_by_length(A3, 6).items():
            for w in elems:
                assert set(class_partition_of(w)) == set(oracle_classes_by_bfs(w))


def class_partition_of(w):
    from freebraid import class_partition

    return class_partition(w)


def test_acceptance_06_signature_injectivity_s5():
    with criterion(6, "class signatures pairwise distinct on S5, both precedences"):
        for w in s5_elements():
            classes = enumerate_classes(w)
            for precedence in (LEX, REVLEX):
                sigs = {f_signature(w, c, precedence).vector() for c in classes}
                assert len(sigs) == len(classes)


def check_graph_properties(w):
    graph = commutation_graph(w)
    assert is_bipartite(graph)
    sigs = [f_signature(w, c).vector() for c in graph.vertices]
    cols = [parity(w, c) for c in graph.vertices]
    assert graph.sides == bytes([c == -1 for c in cols])
    for i, j in graph.edges:
        assert sum(a != b for a, b in zip(sigs[i], sigs[j])) == 1
        assert cols[i] != cols[j]
        assert graph.sides[i] != graph.sides[j]


def test_acceptance_07_commutation_graphs_bipartite():
    with criterion(7, "graphs bipartite, edges flip one bit (S5 + 50 random D4)"):
        for w in s5_elements():
            check_graph_properties(w)
        for w in random_elements(D4, 50, 12, seed=7_7_7):
            check_graph_properties(w)


def test_acceptance_08_normal_form_freely_braided_s5():
    with criterion(8, "normal form keeps the class and makes triples consecutive"):
        for p in all_permutations(5):
            if not is_freely_braided_perm(p):
                continue
            w = perm_to_element(p)
            triples = contractible_triples(w)
            block_of = {seq: i for i, b in enumerate(oracle_classes_by_bfs(w)) for seq in b}
            for c in enumerate_classes(w):
                out = consecutive_normal_form(w, c.canonical)
                assert block_of[out.roots] == block_of[c.canonical.roots]
                pos = {r: i for i, r in enumerate(out.roots)}
                for t in triples:
                    a, b, cc = sorted((pos[t.low], pos[t.mid], pos[t.high]))
                    assert (b, cc) == (a + 1, a + 2)


def test_acceptance_09_no_triples_iff_one_class_iff_321_avoiding():
    with criterion(9, "zero triples <=> one class <=> 321-avoiding on S5"):
        for p in all_permutations(5):
            w = perm_to_element(p)
            no_triples = not inversion_triples(w)
            one_class = len(enumerate_classes(w)) == 1
            avoids = not contains_pattern(p, (3, 2, 1))
            assert no_triples == one_class == avoids


def test_acceptance_10_sequence_word_roundtrip():
    with criterion(10, "word <-> root sequence bijection (all S4; 50 random D4)"):
        for length, elems in group_by_length(A3, 6).items():
            for w in elems:
                for word in enumerate_reduced_words(w):
                    assert word_of_root_sequence(root_sequence(A3, word)) == word
        for w in random_elements(D4, 50, 9, seed=10_10):
            for word in enumerate_reduced_words(w):
                assert word_of_root_sequence(root_sequence(D4, word)) == word


def sample_bound_achievers(g, want: int, max_length: int, seed: int):
    """Distinct elements whose class count equals 2^N, drawn by seeded walks."""
    achievers = []
    seen = set()
    batch = 0
    while len(achievers) < want and batch < 40:
        for w in random_elements(g, 25, max_length, seed=seed + batch):
            if w in seen:
                continue
            seen.add(w)
            if count_classes_and_check_bound(w).achieves_bound:
                achievers.append(w)
                if len(achievers) == want:
                    break
        batch += 1
    return achievers


def test_acceptance_11_exploratory_bound_achievers():
    with criterion(11, "exploratory: are bound achievers freely braided (D4/D5)"):
        outcomes = []
        for g, max_length in ((D4, 12), (D5, 10)):
            for w in sample_bound_achievers(g, 25, max_length, seed=11_11):
                outcomes.append((w, is_freely_braided(w)))
        assert len(outcomes) == 50
        braided = sum(1 for _, ok in outcomes if ok)
        print(f"\n  bound achievers sampled: {len(outcomes)}, freely braided: {braided}")
        counterexamples = [w for w, ok in outcomes if not ok]
        for w in counterexamples:
            print(
                "  WARNING: counterexample candidate, achieves the bound but is "
                f"not freely braided: graph D{w.graph.n}, word {w and ' '.join(map(str, enumerate_reduced_words(w)[0]))}",
                file=sys.stderr,
            )
        if not counterexamples:
            print("  no counterexamples: every sampled achiever was freely braided")


def test_acceptance_11_bound_achievers_are_freely_braided_on_all_of_d4():
    with criterion(11, "exhaustive on D4: achieves the bound iff freely braided"):
        elements = [w for group in group_by_length(D4, 12).values() for w in group]
        assert len(elements) == 192
        braided = 0
        for w in elements:
            freely_braided = is_freely_braided(w)
            assert count_classes_and_check_bound(w).achieves_bound == freely_braided
            braided += freely_braided
        assert braided == 81
