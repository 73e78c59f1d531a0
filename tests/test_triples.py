"""Inversion triples, contractibility, freely braided, normal forms."""

from __future__ import annotations

import itertools

import pytest

import freebraid.triples
from freebraid import (
    InversionTriple,
    RootSequence,
    class_partition,
    commutation_equivalent,
    consecutive_normal_form,
    contractible_triples,
    element_of,
    enumerate_classes,
    enumerate_reduced_words,
    identity_element,
    inversion_triples,
    is_contractible,
    is_freely_braided,
    pairing,
    parse_graph,
    root_sequence,
)
from freebraid.cli import EXIT_OK, main
from freebraid.oracle import oracle_classes_by_bfs, oracle_contractible
from freebraid.typea import enumerate_freely_braided, parse_permutation, perm_to_element
from conftest import GOLDEN_D4_WORD, group_by_length, random_elements

A2 = parse_graph("A2")
A3 = parse_graph("A3")
D4 = parse_graph("D4")

W0_S3 = element_of(A2, (1, 2, 1))
W0_S4 = element_of(A3, (1, 2, 1, 3, 2, 1))

GOLDEN_ALPHA2_TRIPLE = InversionTriple(
    low=(0, 1, 0, 0), mid=(1, 2, 1, 1), high=(1, 1, 1, 1)
)


# --- inversion_triples ---


def test_inversion_triples_w0_s3():
    (t,) = inversion_triples(W0_S3)
    assert t == InversionTriple(low=(0, 1), mid=(1, 1), high=(1, 0))
    assert t.low <= t.high


def test_inversion_triples_empty_cases():
    assert inversion_triples(identity_element(A2)) == frozenset()
    assert inversion_triples(element_of(A3, (1, 3))) == frozenset()


@pytest.mark.parametrize(
    "argv", [("--perm", "654321"), ("-g", "E8", "-w", "1 2 5 4 2 3 6 5 8 7 6")], ids=["path", "e8"]
)
def test_analyze_computes_the_triples_once(monkeypatch, capsys, argv):
    """The CLI, the class engine and the contractibility checks each ask
    for w's inversion triples; the last element's are kept, so one
    ``fb analyze`` inverts w once for them."""
    inverted = []
    invert = freebraid.triples._invert
    monkeypatch.setattr(freebraid.triples, "_invert", lambda w: inverted.append(w) or invert(w))
    inversion_triples.cache_clear()
    assert main(["analyze", *argv]) == EXIT_OK
    capsys.readouterr()
    assert len(inverted) == 1


def test_inversion_triples_golden_d4():
    w = element_of(D4, GOLDEN_D4_WORD)
    triples = inversion_triples(w)
    assert len(triples) == 4
    assert GOLDEN_ALPHA2_TRIPLE in triples
    containing_alpha2 = [t for t in triples if (0, 1, 0, 0) in t]
    assert containing_alpha2 == [GOLDEN_ALPHA2_TRIPLE]


def test_inversion_triples_outer_roots_sum_to_mid():
    for length, elems in group_by_length(A3, 6).items():
        for w in elems:
            for t in inversion_triples(w):
                assert tuple(a + b for a, b in zip(t.low, t.high)) == t.mid


# --- is_contractible ---


def test_golden_triple_not_contractible_any_method():
    w = element_of(D4, GOLDEN_D4_WORD)
    assert not is_contractible(w, GOLDEN_ALPHA2_TRIPLE)
    assert not oracle_contractible(w, GOLDEN_ALPHA2_TRIPLE)


def test_golden_other_triples_contractible():
    w = element_of(D4, GOLDEN_D4_WORD)
    others = inversion_triples(w) - {GOLDEN_ALPHA2_TRIPLE}
    for t in others:
        assert is_contractible(w, t)
        assert oracle_contractible(w, t)


def test_is_contractible_accepts_swapped_outer_roots():
    w = element_of(D4, GOLDEN_D4_WORD)
    swapped = InversionTriple(
        GOLDEN_ALPHA2_TRIPLE.high, GOLDEN_ALPHA2_TRIPLE.mid, GOLDEN_ALPHA2_TRIPLE.low
    )
    assert not is_contractible(w, swapped)


def test_is_contractible_rejects_bad_input():
    w = W0_S3
    with pytest.raises(ValueError):
        is_contractible(w, InversionTriple((1, 0), (0, 1), (1, 1)))
    with pytest.raises(ValueError):
        is_contractible(
            element_of(A2, (1,)), InversionTriple((0, 1), (1, 1), (1, 0))
        )


def test_production_agrees_with_oracle_exhaustive_s4():
    for length, elems in group_by_length(A3, 6).items():
        for w in elems:
            for t in inversion_triples(w):
                assert is_contractible(w, t) == oracle_contractible(w, t)


def test_production_agrees_with_oracle_sampled_d4():
    elems = random_elements(D4, 12, 9, seed=4_2_1) + [element_of(D4, GOLDEN_D4_WORD)]
    for w in elems:
        for t in inversion_triples(w):
            assert is_contractible(w, t) == oracle_contractible(w, t), (w, t)


# --- contractible_triples ---


def test_contractible_triples_examples():
    assert contractible_triples(identity_element(A2)) == frozenset()
    assert contractible_triples(W0_S4) == inversion_triples(W0_S4)
    w = element_of(D4, GOLDEN_D4_WORD)
    assert contractible_triples(w) == inversion_triples(w) - {GOLDEN_ALPHA2_TRIPLE}


# --- is_freely_braided ---


def test_is_freely_braided_examples():
    assert is_freely_braided(W0_S3)
    assert is_freely_braided(element_of(A3, (1, 3)))
    assert is_freely_braided(identity_element(A3))
    assert not is_freely_braided(W0_S4)
    assert not is_freely_braided(element_of(D4, GOLDEN_D4_WORD))


def test_freely_braided_iff_disjoint_contractible_triples_s4():
    for length, elems in group_by_length(A3, 6).items():
        for w in elems:
            triples = sorted(contractible_triples(w))
            disjoint = all(
                set(triples[i]) & set(triples[j]) == set()
                for i in range(len(triples))
                for j in range(i + 1, len(triples))
            )
            assert is_freely_braided(w) == disjoint


# --- gap roots around a contractible triple are orthogonal to the near end ---


def test_gap_orthogonality_for_freely_braided_s5():
    a4 = parse_graph("A4")
    count, members = enumerate_freely_braided(5, members=True)
    assert count == 71
    for p in members:
        w = perm_to_element(p)
        triples = contractible_triples(w)
        for word in enumerate_reduced_words(w):
            roots = root_sequence(a4, word).roots
            pos = {r: i for i, r in enumerate(roots)}
            for t in triples:
                first, last = sorted((pos[t.low], pos[t.high]))
                m = pos[t.mid]
                for i in range(first + 1, m):
                    assert pairing(a4, roots[i], roots[first]) == 0
                for i in range(m + 1, last):
                    assert pairing(a4, roots[i], roots[last]) == 0


# --- consecutive_normal_form ---


def window_positions(seq, t):
    pos = {r: i for i, r in enumerate(seq.roots)}
    return sorted((pos[t.low], pos[t.mid], pos[t.high]))


def is_consecutive(seq, t):
    a, b, c = window_positions(seq, t)
    return (a, b, c) == (a, a + 1, a + 2)


def oracle_block_of(w):
    """Block number of each root sequence of w under the oracle's swap
    closure, which is independent of the check inside the normal form."""
    return {seq: i for i, b in enumerate(oracle_classes_by_bfs(w)) for seq in b}


def test_normal_form_w0_s3_fixed_point():
    seq = root_sequence(A2, (1, 2, 1))
    out = consecutive_normal_form(W0_S3, seq)
    assert out.roots == seq.roots


def test_normal_form_52143_all_classes():
    w = perm_to_element(parse_permutation("52143"))
    triples = contractible_triples(w)
    assert len(triples) == 2
    classes = enumerate_classes(w)
    assert len(classes) == 4
    block_of = oracle_block_of(w)
    for c in classes:
        out = consecutive_normal_form(w, c.canonical)
        assert block_of[out.roots] == block_of[c.canonical.roots]
        for t in triples:
            assert is_consecutive(out, t)


def test_normal_form_every_freely_braided_s4():
    for length, elems in group_by_length(A3, 6).items():
        for w in elems:
            if not is_freely_braided(w):
                continue
            triples = contractible_triples(w)
            block_of = oracle_block_of(w)
            for c in enumerate_classes(w):
                out = consecutive_normal_form(w, c.canonical)
                assert block_of[out.roots] == block_of[c.canonical.roots]
                assert all(is_consecutive(out, t) for t in triples)


def test_normal_form_is_checked_to_stay_in_its_class(monkeypatch):
    """The sort is a run of short moves; were its result ever outside the
    start's class, the final check would raise instead of returning it."""
    w = perm_to_element(parse_permutation("52143"))
    assert is_freely_braided(w)
    start = enumerate_classes(w)[0].canonical
    monkeypatch.setattr(freebraid.triples, "commutation_equivalent", lambda a, b: False)
    with pytest.raises(RuntimeError, match="^normal form left the class of its start$"):
        consecutive_normal_form(w, start)


def test_normal_form_rejects_non_freely_braided():
    with pytest.raises(ValueError):
        consecutive_normal_form(W0_S4, root_sequence(A3, (1, 2, 1, 3, 2, 1)))


def test_normal_form_rejects_foreign_sequence():
    w = perm_to_element(parse_permutation("52143"))
    with pytest.raises(ValueError):
        consecutive_normal_form(w, root_sequence(parse_graph("A4"), (1, 2, 1)))


def test_normal_form_rejects_orderings_that_are_not_root_sequences():
    rejected = 0
    for length, elems in group_by_length(A3, 5).items():
        for w in elems:
            if not is_freely_braided(w):
                continue
            seqs = {root_sequence(A3, word).roots for word in enumerate_reduced_words(w)}
            for order in itertools.permutations(min(seqs)):
                if order not in seqs:
                    with pytest.raises(ValueError):
                        consecutive_normal_form(w, RootSequence(A3, order))
                    rejected += 1
    assert rejected == 136


@pytest.mark.parametrize(
    "spec, max_length", [("D4", 12), ("D5", 8), ("E6", 7), ("1-2,2-3,1-3", 9)]
)
def test_normal_form_exact_placement(spec, max_length):
    # Each triple becomes a block where its middle root sat, its outer roots
    # on the sides they held; every other root keeps its order.
    g = parse_graph(spec)
    for length, elems in group_by_length(g, max_length).items():
        for w in elems:
            if not is_freely_braided(w):
                continue
            triples = contractible_triples(w)
            in_triples = {r for t in triples for r in t}
            outer = in_triples - {t.mid for t in triples}
            for block in class_partition(w):
                for roots in block:
                    start = RootSequence(g, roots)
                    out = consecutive_normal_form(w, start)
                    assert [r for r in out if r not in in_triples] == [
                        r for r in roots if r not in in_triples
                    ]
                    assert [r for r in out if r not in outer] == [r for r in roots if r not in outer]
                    for t in triples:
                        p = out.roots.index(t.mid)
                        left, right = sorted((t.low, t.high), key=roots.index)
                        assert out.roots[p - 1:p + 2] == (left, t.mid, right)
                    assert commutation_equivalent(out, start)
