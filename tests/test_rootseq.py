"""Root sequences, the oracle's braid moves on them, commutation equivalence."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freebraid import (
    RootSequence,
    act,
    commutation_equivalent,
    element_of,
    enumerate_reduced_words,
    identity_element,
    inversion_set,
    is_positive_root,
    parse_graph,
    reduce_word,
    root_sequence,
    word_of_root_sequence,
)
from freebraid.oracle import (
    apply_long_move,
    apply_short_move,
    long_moves,
    oracle_classes_by_bfs,
    short_moves,
)
from conftest import GOLDEN_D4_ROOTS, GOLDEN_D4_WORD, group_by_length, random_elements

A2 = parse_graph("A2")
A3 = parse_graph("A3")
D4 = parse_graph("D4")

A2_SEQ = root_sequence(A2, (1, 2, 1))


# --- root_sequence ---


def test_root_sequence_a2():
    assert A2_SEQ.roots == ((1, 0), (1, 1), (0, 1))
    assert len(A2_SEQ) == 3
    assert list(A2_SEQ) == [(1, 0), (1, 1), (0, 1)]
    assert A2_SEQ[1] == (1, 1)


def test_root_sequence_empty():
    assert root_sequence(A2, ()).roots == ()


def test_root_sequence_golden_d4():
    assert root_sequence(D4, GOLDEN_D4_WORD).roots == GOLDEN_D4_ROOTS


def test_root_sequence_rejects_non_reduced():
    with pytest.raises(ValueError):
        root_sequence(A2, (1, 1))


def test_root_sequence_prefix_is_suffix_sequence():
    word = GOLDEN_D4_WORD
    seq = root_sequence(D4, word)
    for i in range(len(word) + 1):
        assert root_sequence(D4, word[len(word) - i :]).roots == seq.roots[:i]


def test_root_sequence_entries_are_the_inversion_set():
    for word in [(1, 2, 1), (2, 1), (1,), ()]:
        seq = root_sequence(A2, word)
        w = element_of(A2, word)
        assert frozenset(seq.roots) == inversion_set(w)
        for r in seq.roots:
            assert not is_positive_root(act(A2, word, r))


# --- inversion_set ---


def test_inversion_set_examples():
    assert inversion_set(identity_element(A2)) == frozenset()
    assert inversion_set(element_of(A2, (1, 2, 1))) == {(1, 0), (1, 1), (0, 1)}
    assert len(inversion_set(element_of(D4, GOLDEN_D4_WORD))) == 9


def test_elements_determined_by_inversion_set_s4():
    sets = {}
    for length, elems in group_by_length(A3, 6).items():
        for w in elems:
            phi = inversion_set(w)
            assert len(phi) == w.length == length
            assert phi not in sets.values()
            sets[w] = phi
    assert len(sets) == 24


# --- word_of_root_sequence ---


def test_word_of_root_sequence_examples():
    assert word_of_root_sequence(A2_SEQ) == (1, 2, 1)
    assert word_of_root_sequence(RootSequence(A2, ())) == ()
    assert word_of_root_sequence(root_sequence(D4, GOLDEN_D4_WORD)) == GOLDEN_D4_WORD


def test_word_of_root_sequence_rejects_invalid():
    with pytest.raises(ValueError):
        word_of_root_sequence(RootSequence(A2, ((1, 1), (0, 1))))
    # Right entry set, wrong order: r2 must cover r1's reflection chain.
    with pytest.raises(ValueError):
        word_of_root_sequence(RootSequence(A2, ((1, 0), (0, 1), (1, 1))))


@pytest.mark.parametrize(
    "g, roots",
    [
        (D4, ((16, 0, 0, 0),)),  # packs at 4 bits onto the column of a2
        (D4, ((1, 0, 0),)),  # too short: packs onto the column of a1
        (A2, ((1, 0), (-1, 0))),  # the second step is a descent
    ],
    ids=["aliased_coefficient", "short_tuple", "negative_entry"],
)
def test_word_of_root_sequence_rejects_what_the_encoding_hides(g, roots):
    with pytest.raises(ValueError, match="^not a valid root sequence$"):
        word_of_root_sequence(RootSequence(g, roots))


def test_word_of_root_sequence_runs_no_root_sequence(monkeypatch):
    words = [(A3, word) for elems in group_by_length(A3, 6).values() for w in elems
             for word in enumerate_reduced_words(w)]
    words.append((D4, GOLDEN_D4_WORD))
    assert len(words) == 67  # the 66 reduced words of the 24 elements of S4, and one of D4
    sequences = [(root_sequence(g, word), word) for g, word in words]

    def forbidden(*args, **kwargs):
        raise AssertionError("word_of_root_sequence called root_sequence")

    monkeypatch.setattr("freebraid.rootseq.root_sequence", forbidden)
    for seq, word in sequences:
        assert word_of_root_sequence(seq) == word


def test_roundtrip_all_s4_words():
    for length, elems in group_by_length(A3, 6).items():
        for w in elems:
            for word in enumerate_reduced_words(w):
                assert word_of_root_sequence(root_sequence(A3, word)) == word


# --- move discovery ---


def test_moves_a2():
    assert short_moves(A2_SEQ) == []
    assert long_moves(A2_SEQ) == [0]


def test_moves_orthogonal_pair():
    seq = root_sequence(A3, (1, 3))
    assert short_moves(seq) == [0]
    assert long_moves(seq) == []


def test_moves_golden_d4():
    seq = root_sequence(D4, GOLDEN_D4_WORD)
    assert short_moves(seq) == [1, 2, 5, 6]
    assert long_moves(seq) == [3]


# --- move application ---


def test_apply_short_move():
    seq = root_sequence(A3, (1, 3))
    swapped = apply_short_move(seq, 0)
    assert swapped.roots == (seq.roots[1], seq.roots[0])
    assert apply_short_move(swapped, 0) == seq
    with pytest.raises(ValueError):
        apply_short_move(A2_SEQ, 0)


def test_apply_long_move():
    out = apply_long_move(A2_SEQ, 0)
    assert out.roots == ((0, 1), (1, 1), (1, 0))
    assert out.roots[1] == A2_SEQ.roots[1]
    assert apply_long_move(out, 0) == A2_SEQ
    assert word_of_root_sequence(out) == (2, 1, 2)
    with pytest.raises(ValueError):
        apply_long_move(A2_SEQ, 1)


# --- correspondence with word-level braid relations ---


def assert_moves_match_word(g, word):
    seq = root_sequence(g, word)
    n = len(word)
    shorts = set(short_moves(seq))
    longs = set(long_moves(seq))
    seen_short, seen_long = set(), set()
    for p in range(n - 1):
        if g.m(word[p], word[p + 1]) == 2:
            k = n - p - 2
            seen_short.add(k)
            flipped = word[:p] + (word[p + 1], word[p]) + word[p + 2 :]
            assert apply_short_move(seq, k) == root_sequence(g, flipped)
    for p in range(n - 2):
        s, t = word[p], word[p + 1]
        if word[p + 2] == s and g.m(s, t) == 3:
            k = n - p - 3
            seen_long.add(k)
            flipped = word[:p] + (t, s, t) + word[p + 3 :]
            assert apply_long_move(seq, k) == root_sequence(g, flipped)
    assert seen_short == shorts
    assert seen_long == longs


def test_braid_move_correspondence_exhaustive_s4():
    for length, elems in group_by_length(A3, 6).items():
        for w in elems:
            for word in enumerate_reduced_words(w):
                assert_moves_match_word(A3, word)


def test_braid_move_correspondence_sampled_d4():
    for w in random_elements(D4, 20, 8, seed=20260816):
        for word in enumerate_reduced_words(w):
            assert_moves_match_word(D4, word)


@pytest.mark.parametrize(
    "spec, count, max_length",
    [
        ("1-2,2-3,1-3", 30, 10),  # affine A~2: long windows on unbounded tuple roots
        ("1-2,1-3,1-4,2-3,2-4,3-4", 20, 8),  # K4, hyperbolic: every pair braids
        ("E6", 20, 10),  # a rank-6 tree that is no path
    ],
)
def test_braid_move_correspondence_past_finite_type(spec, count, max_length):
    g = parse_graph(spec)
    for w in random_elements(g, count, max_length, seed=20261020):
        for word in enumerate_reduced_words(w):
            assert_moves_match_word(g, word)


# --- commutation_equivalent ---


def test_commutation_equivalent_basics():
    assert commutation_equivalent(A2_SEQ, A2_SEQ)
    assert not commutation_equivalent(A2_SEQ, apply_long_move(A2_SEQ, 0))
    seq = root_sequence(A3, (1, 3))
    assert commutation_equivalent(seq, apply_short_move(seq, 0))
    seq = root_sequence(D4, GOLDEN_D4_WORD)
    for k in short_moves(seq):
        assert commutation_equivalent(seq, apply_short_move(seq, k))
    for k in long_moves(seq):
        assert not commutation_equivalent(seq, apply_long_move(seq, k))


@pytest.mark.parametrize(
    "spec, word",
    [
        ("D4", GOLDEN_D4_WORD),
        ("D4", (2, 1, 3, 4, 2, 1, 3, 4)),
        ("D4", (1, 2, 3, 1, 4, 2, 1)),
        ("1-2,2-3,1-3", (1, 2, 3, 1, 2, 3, 2)),
        ("1-2,2-3,1-3", (1, 2, 1, 3, 2, 1, 3)),
        ("1-2,2-3,1-3", (1, 2, 1, 3, 1, 2, 1, 3)),
        ("E6", (1, 3, 4, 2, 5, 4, 3, 1, 6, 5, 4)),  # 33 words in one class
        ("1-2,1-3,1-4,2-3,2-4,3-4", (2, 3, 2, 1, 2, 3, 1, 2, 1, 3, 2)),  # K4: 20 one-word classes, vector columns
    ],
)
def test_commutation_equivalent_is_oracle_block_equality(spec, word):
    """On every pair of root sequences of a few D4, affine A~2, E6 and K4
    elements, the pairwise order check holds exactly when the oracle's
    closure under adjacent orthogonal swaps puts both in one block."""
    g = parse_graph(spec)
    w = element_of(g, word)
    block_of = {seq: i for i, b in enumerate(oracle_classes_by_bfs(w)) for seq in b}
    seqs = [root_sequence(g, u) for u in enumerate_reduced_words(w)]
    assert set(block_of) == {r.roots for r in seqs}
    for r1 in seqs:
        for r2 in seqs:
            assert commutation_equivalent(r1, r2) == (block_of[r1.roots] == block_of[r2.roots])


def test_commutation_equivalent_rejects_mismatch():
    with pytest.raises(ValueError):
        commutation_equivalent(A2_SEQ, root_sequence(A2, (1, 2)))
    with pytest.raises(ValueError):
        commutation_equivalent(A2_SEQ, root_sequence(A3, (1, 2, 1)))


# --- mid-root position invariant ---


def test_triple_mid_lies_between_outer_roots_s4():
    from freebraid import inversion_triples
    from freebraid.oracle import oracle_all_root_sequences

    for length, elems in group_by_length(A3, 6).items():
        for w in elems:
            triples = inversion_triples(w)
            for seq in oracle_all_root_sequences(w):
                pos = {r: i for i, r in enumerate(seq.roots)}
                for t in triples:
                    lo, hi = sorted((pos[t.low], pos[t.high]))
                    assert lo < pos[t.mid] < hi


# --- property-based ---


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=10).map(tuple))
def test_random_d4_words_reduce_then_roundtrip(word):
    reduced = reduce_word(D4, word)
    seq = root_sequence(D4, reduced)
    assert word_of_root_sequence(seq) == reduced
    assert frozenset(seq.roots) == inversion_set(element_of(D4, word))
