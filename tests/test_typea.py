"""One-line notation, pattern avoidance, the type-A dictionary."""

from __future__ import annotations

import doctest
import json
import random

import pytest

import freebraid.typea
from freebraid import (
    CapExceededError,
    ParseError,
    count_classes_and_check_bound,
    element_of,
    inversion_triples,
    is_freely_braided,
    parse_graph,
)
from freebraid.cli import EXIT_OK, main
from freebraid.typea import (
    FREELY_BRAIDED_OBSTRUCTIONS,
    class_counts,
    contains_pattern,
    element_to_perm,
    enumerate_freely_braided,
    format_permutation,
    inversion_triple_count,
    inversion_triples_1line,
    is_freely_braided_perm,
    parse_permutation,
    perm_to_element,
)
from conftest import all_permutations

A3 = parse_graph("A3")


def test_module_doctests():
    failures, _ = doctest.testmod(freebraid.typea, verbose=False)
    assert failures == 0


# --- parsing ---


def test_parse_permutation_forms():
    assert parse_permutation("4231") == (4, 2, 3, 1)
    assert parse_permutation("1") == (1,)
    assert parse_permutation("10,2,3,4,5,6,7,8,9,1") == (10, 2, 3, 4, 5, 6, 7, 8, 9, 1)
    assert format_permutation((4, 2, 3, 1)) == "4231"
    assert format_permutation(tuple(range(1, 11))) == "1,2,3,4,5,6,7,8,9,10"


def test_parse_permutation_errors():
    assert parse_permutation(" 132 ") == (1, 3, 2)
    for bad in ("", "122", "0", "13", "1,2,2", "abc"):
        with pytest.raises(ParseError):
            parse_permutation(bad)


def test_parse_format_roundtrip_s5():
    for p in all_permutations(5):
        assert parse_permutation(format_permutation(p)) == p


# --- the dictionary ---


def test_perm_to_element_lengths():
    assert perm_to_element((1, 2, 3)).length == 0
    assert perm_to_element((2, 1)).length == 1
    assert perm_to_element((4, 3, 2, 1)).length == 6


def _bubble_sort_word(p):
    """The letters of the swaps that bubble-sort p to the identity, last first."""
    q, letters = list(p), []
    moved = True
    while moved:
        moved = False
        for i in range(len(q) - 1):
            if q[i] > q[i + 1]:
                q[i], q[i + 1] = q[i + 1], q[i]
                letters.append(i + 1)
                moved = True
    return tuple(reversed(letters))


@pytest.mark.parametrize("n", range(1, 7))
def test_perm_to_element_matches_the_bubble_sort_word(n):
    g = parse_graph(f"A{n - 1}")
    for p in all_permutations(n):
        w, expected = perm_to_element(p), element_of(g, _bubble_sort_word(p))
        assert w == expected
        assert w.length == expected.length


def test_perm_element_roundtrip_exhaustive_s4():
    for p in all_permutations(4):
        w = perm_to_element(p)
        inversions = sum(
            1 for i in range(4) for j in range(i + 1, 4) if p[i] > p[j]
        )
        assert w.length == inversions
        assert element_to_perm(A3, w) == p


def test_perm_element_roundtrip_random_s6():
    rng = random.Random(99)
    a5 = parse_graph("A5")
    for _ in range(25):
        p = tuple(rng.sample(range(1, 7), 6))
        assert element_to_perm(a5, perm_to_element(p)) == p


def test_element_to_perm_rejects_wrong_graph():
    with pytest.raises(ValueError):
        element_to_perm(parse_graph("D4"), perm_to_element((2, 1, 3, 4)))
    with pytest.raises(ValueError):
        element_to_perm(parse_graph("A4"), perm_to_element((2, 1, 3, 4)))


# --- inversion triples from one-line notation ---


def test_inversion_triples_1line_matches_generic():
    for n in (3, 4, 5):
        for p in all_permutations(n):
            assert inversion_triples_1line(p) == inversion_triples(perm_to_element(p))


def test_inversion_triple_counts_frozen():
    assert len(inversion_triples_1line((4, 2, 3, 1))) == 2
    assert len(inversion_triples_1line((3, 4, 1, 2))) == 0
    assert len(inversion_triples_1line((4, 3, 2, 1))) == 4
    assert len(inversion_triples_1line((5, 4, 3, 2, 1))) == 10


# --- pattern containment ---


def test_contains_pattern_basics():
    assert contains_pattern((4, 2, 3, 1), (3, 2, 1))
    assert contains_pattern((4, 2, 3, 1), (4, 2, 3, 1))
    assert not contains_pattern((1, 2, 3, 4), (2, 1))
    assert contains_pattern((2, 1, 3), (2, 1))
    assert not contains_pattern((3, 4, 1, 2), (3, 2, 1))


def test_contains_pattern_rejects_long_pattern():
    with pytest.raises(ValueError):
        contains_pattern((2, 1), (3, 2, 1))


def test_obstruction_list_frozen():
    assert FREELY_BRAIDED_OBSTRUCTIONS == (
        (3, 4, 2, 1),
        (4, 2, 3, 1),
        (4, 3, 1, 2),
        (4, 3, 2, 1),
    )


def test_obstructions_are_not_freely_braided():
    for q in FREELY_BRAIDED_OBSTRUCTIONS:
        assert not is_freely_braided_perm(q)
        assert not is_freely_braided(perm_to_element(q))


def test_pattern_criterion_matches_generic_s4():
    for p in all_permutations(4):
        w = perm_to_element(p)
        expected = is_freely_braided(w)
        assert is_freely_braided_perm(p) == expected
        by_patterns = not any(
            contains_pattern(p, q) for q in FREELY_BRAIDED_OBSTRUCTIONS
        )
        assert by_patterns == expected


def _avoids_by_brute_force(p):
    return len(p) < 4 or not any(contains_pattern(p, q) for q in FREELY_BRAIDED_OBSTRUCTIONS)


def test_pattern_test_matches_brute_force_s1_to_s7():
    for n in range(1, 8):
        perms = all_permutations(n)
        expected = tuple(p for p in perms if _avoids_by_brute_force(p))
        assert tuple(p for p in perms if is_freely_braided_perm(p)) == expected
        assert enumerate_freely_braided(n, members=True) == (len(expected), expected)


# --- enumeration ---


def test_enumerate_freely_braided_counts():
    assert enumerate_freely_braided(1) == (1, None)
    assert enumerate_freely_braided(2) == (2, None)
    assert enumerate_freely_braided(3) == (6, None)
    count, members = enumerate_freely_braided(4, members=True)
    assert count == 20
    assert set(members) == set(all_permutations(4)) - set(FREELY_BRAIDED_OBSTRUCTIONS)
    assert enumerate_freely_braided(5)[0] == 71


def test_enumerate_freely_braided_limits():
    with pytest.raises(ValueError):
        enumerate_freely_braided(0)
    with pytest.raises(CapExceededError):
        enumerate_freely_braided(9)
    assert enumerate_freely_braided(3, limit=3)[0] == 6


def test_freely_braided_achieve_bound_s4():
    for p in all_permutations(4):
        w = perm_to_element(p)
        check = count_classes_and_check_bound(w)
        assert check.bound_holds
        assert check.achieves_bound == is_freely_braided_perm(p)


# --- class counts without a class search ---

# Commutation classes of w0 in S_n (Knuth, Axioms and Hulls, 1992; OEIS A006245).
KNUTH_A006245 = (1, 1, 2, 8, 62, 908, 24_698, 1_232_944)


def test_class_counts_match_the_engine_s1_to_s6():
    for n in range(1, 7):
        counts = class_counts(n)
        assert set(counts) == set(all_permutations(n))
        for p in all_permutations(n):
            check = count_classes_and_check_bound(perm_to_element(p))
            assert (counts[p], inversion_triple_count(p)) == (check.classes, check.contractible)


def test_class_counts_of_w0_match_a006245():
    for n, expected in enumerate(KNUTH_A006245, start=1):
        assert class_counts(n)[tuple(range(n, 0, -1))] == expected
    with pytest.raises(ValueError):
        class_counts(0)


def test_enumerate_rank_7_columns_agree(capsys):
    assert main(["enumerate", "-n", "7", "--limit", "7"]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)["rows"]
    expected = [1, 2, 6, 20, 71, 260, 971]
    assert [r["freely_braided"] for r in rows] == expected
    assert [r["bound_achievers"] for r in rows] == expected


def test_enumerate_rank_8_needs_no_flag(capsys):
    """w0 of S8 has 1,232,944 classes; counting them is no reason to stop."""
    assert main(["enumerate", "-n", "8"]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)["rows"]
    expected = [1, 2, 6, 20, 71, 260, 971, 3674]
    assert [r["freely_braided"] for r in rows] == expected
    assert [r["bound_achievers"] for r in rows] == expected
