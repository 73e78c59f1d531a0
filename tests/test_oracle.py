"""The brute-force oracles themselves, and production-vs-oracle agreement."""

from __future__ import annotations

import pytest

from freebraid import (
    CapExceededError,
    InversionTriple,
    class_partition,
    element_of,
    enumerate_reduced_words,
    identity_element,
    parse_graph,
    root_sequence,
)
from freebraid.oracle import (
    oracle_all_root_sequences,
    oracle_classes_by_bfs,
    oracle_commutation_edges,
    oracle_contractible,
    oracle_reduced_words,
)
from conftest import GOLDEN_D4_WORD, brute_reduced_words, group_by_length

A2 = parse_graph("A2")
A3 = parse_graph("A3")
D4 = parse_graph("D4")

W0_S3 = element_of(A2, (1, 2, 1))


def test_oracle_words_examples():
    assert oracle_reduced_words(identity_element(A2)) == [()]
    assert sorted(oracle_reduced_words(W0_S3)) == [(1, 2, 1), (2, 1, 2)]


def test_oracle_words_match_product_scan_s4():
    for length, elems in group_by_length(A3, 6).items():
        for w in elems:
            assert set(oracle_reduced_words(w)) == brute_reduced_words(w)


def test_oracle_words_cap():
    w = element_of(A3, (1, 2, 1, 3, 2, 1))
    with pytest.raises(CapExceededError):
        oracle_reduced_words(w, cap=5)


def test_oracle_sequences_follow_words():
    w = element_of(D4, GOLDEN_D4_WORD)
    words = oracle_reduced_words(w)
    seqs = oracle_all_root_sequences(w)
    assert len(words) == len(seqs) == 48
    for word, seq in zip(words, seqs):
        assert seq == root_sequence(D4, word)


def test_oracle_classes_examples():
    blocks = oracle_classes_by_bfs(W0_S3)
    assert len(blocks) == 2
    assert all(len(b) == 1 for b in blocks)
    assert oracle_classes_by_bfs(identity_element(A2)) == [frozenset({()})]


def test_oracle_edges_examples():
    assert oracle_commutation_edges(A2, oracle_classes_by_bfs(W0_S3)) == {(0, 1)}
    assert oracle_commutation_edges(A2, oracle_classes_by_bfs(identity_element(A2))) == frozenset()
    w0_s4 = element_of(A3, (1, 2, 1, 3, 2, 1))  # 8 classes on a cycle
    edges = oracle_commutation_edges(A3, oracle_classes_by_bfs(w0_s4))
    assert len(edges) == 8
    assert all(sum(i in e for e in edges) == 2 for i in range(8))


def test_oracle_classes_partition_the_sequences():
    w = element_of(D4, GOLDEN_D4_WORD)
    blocks = oracle_classes_by_bfs(w)
    union = set().union(*blocks)
    assert len(union) == sum(len(b) for b in blocks) == 48
    assert union == {tuple(r.roots) for r in oracle_all_root_sequences(w)}


def test_production_matches_oracle_words_and_classes_golden_d4():
    w = element_of(D4, GOLDEN_D4_WORD)
    assert sorted(oracle_reduced_words(w)) == enumerate_reduced_words(w)
    assert set(oracle_classes_by_bfs(w)) == set(class_partition(w))


def test_oracle_contractible_examples():
    (t,) = [
        InversionTriple((0, 1), (1, 1), (1, 0)),
    ]
    assert oracle_contractible(W0_S3, t)
    w = element_of(D4, GOLDEN_D4_WORD)
    bad = InversionTriple((0, 1, 0, 0), (1, 2, 1, 1), (1, 1, 1, 1))
    assert not oracle_contractible(w, bad)
