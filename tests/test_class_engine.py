"""The class-level engine against the literature and against the oracles.

The w0 counts come from closed forms and published tables, at ranks where
listing reduced words is out of reach, so these tests call enumerate_classes
only.  The property tests run the engine on random simple graphs, connected
or not, cyclic ones included (whose groups are infinite), and diff it
against the brute-force oracles.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from math import comb, factorial, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import freebraid.classes
from freebraid import (
    LEX,
    REVLEX,
    CapExceededError,
    CoxeterGraph,
    canonical_word,
    class_partition,
    commutation_graph,
    contractible_triples,
    count_classes_and_check_bound,
    element_of,
    enumerate_classes,
    enumerate_reduced_words,
    f_signature,
    identity_element,
    inversion_triples,
    is_bipartite,
    is_freely_braided,
    parse_graph,
    root_sequence,
    times_generator,
)
from freebraid.cli import EXIT_CAP, EXIT_OK, main
from freebraid.classes import _Engine, _engine
from freebraid.oracle import oracle_classes_by_bfs, oracle_commutation_edges, oracle_contractible
from freebraid.typea import perm_to_element
from conftest import GOLDEN_D4_WORD, group_by_length, random_elements

# Commutation classes of w0 in S_n (Knuth, Axioms and Hulls, 1992; OEIS A006245).
KNUTH_W0_CLASSES = {5: 62, 6: 908, 7: 24_698}
# Reduced words of w0 in S_n (Stanley, 1984).
STANLEY_W0_WORDS = {5: 768, 6: 292_864, 7: 1_100_742_656}
# Edges of the commutation graph of w0 in S_n: covering pairs of the higher
# Bruhat order B(n, 2) (Manin and Schechtman, 1989; Ziegler, 1993).
W0_EDGES = {5: 100, 6: 2_144, 7: 80_360}


def stanley(n: int) -> int:
    """C(n,2)! / prod_{i<n} (2i-1)^(n-i)."""
    return factorial(comb(n, 2)) // prod((2 * i - 1) ** (n - i) for i in range(1, n))


def test_stanley_table_matches_closed_form():
    assert {n: stanley(n) for n in STANLEY_W0_WORDS} == STANLEY_W0_WORDS


@pytest.mark.parametrize("n", sorted(KNUTH_W0_CLASSES))
def test_w0_classes_and_sizes_match_the_literature(n):
    w = perm_to_element(tuple(range(n, 0, -1)))
    classes = enumerate_classes(w)
    assert len(classes) == KNUTH_W0_CLASSES[n]
    assert sum(c.size for c in classes) == STANLEY_W0_WORDS[n]
    edges = commutation_graph(w).edges
    assert len(edges) == W0_EDGES[n]
    # Strictly increasing, each (i, k) with i < k: the order the CLI streams.
    assert all(i < k for i, k in edges) and all(a < b for a, b in zip(edges, edges[1:]))


def count_calls(monkeypatch, *names: tuple[object, str]) -> dict[str, int]:
    """Count the calls of each (owner, name) for the rest of the test."""
    calls = {name: 0 for _, name in names}

    for owner, name in names:
        fn = getattr(owner, name)

        def counted(*args, fn=fn, name=name):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(owner, name, counted)
    freebraid.classes._built.cache_clear()
    return calls


def test_the_engine_braids_once_per_class(monkeypatch):
    """The 62 classes of w0(A4) and the 908 of w0(A5) are each built by
    inserting pieces in one pass up the weak order, with no braid moves and
    no class search.  The class-count walk runs only where the paper's bound
    leaves the default cap open: w0(A4) has T = 10 inversion triples, and
    2^10 is below 10^6, while w0(A5) has T = 20."""
    calls = count_calls(monkeypatch, (freebraid.classes, "_pass"), (freebraid.classes, "_capped_walk"))
    assert len(enumerate_classes(perm_to_element((5, 4, 3, 2, 1)))) == 62
    assert calls == {"_pass": 1, "_capped_walk": 0}
    assert len(enumerate_classes(perm_to_element((6, 5, 4, 3, 2, 1)))) == 908
    assert calls == {"_pass": 2, "_capped_walk": 1}


def test_analyze_builds_no_heap_and_counts_sizes_once(monkeypatch, capsys):
    """The sizes of all 908 classes of w0(A5) come from one pass, and no
    class heap is peeled to list its words."""
    calls = count_calls(monkeypatch, (freebraid.classes, "_pass"), (freebraid.classes._Engine, "members"))
    assert main(["analyze", "--perm", "654321"]) == EXIT_OK
    capsys.readouterr()
    assert calls == {"_pass": 1, "members": 0}


@pytest.mark.parametrize("n, steps", [(6, 734), (7, 5_060)])
def test_the_pass_is_the_only_traversal(monkeypatch, n, steps):
    """Building the engine of w0 in S_n steps the columns once per letter to
    reach w^-1 and once per element of the weak-order interval past e, as the
    pass carries each class's key: n!-1 + C(n,2) steps, and no walk along a
    class word.  At a cap of 2^T the paper's bound settles the class cap, so
    the counting walk, which also steps columns, does not run."""
    w = perm_to_element(tuple(range(n, 0, -1)))
    cap = 1 << len(inversion_triples(w))
    calls = count_calls(monkeypatch, (freebraid.classes, "_step"))
    _Engine(w, cap)
    assert calls == {"_step": steps}
    assert steps == factorial(n) - 1 + comb(n, 2)


def test_one_pass_per_support_component(monkeypatch, capsys):
    """w0(A4) twice over, on two components of the support, takes two
    passes, one per component, and peels no class heap."""
    calls = count_calls(monkeypatch, (freebraid.classes, "_pass"), (freebraid.classes._Engine, "members"))
    argv = ["analyze", "-g", "1-2,2-3,3-4,5-6,6-7,7-8", "-w", "1 2 1 3 2 1 4 3 2 1 5 6 5 7 6 5 8 7 6 5"]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    assert calls == {"_pass": 2, "members": 0}


# Elements on a path, a branched, an exceptional, a cyclic (affine A~2) and
# a disconnected graph.
SCAN_CASES = [
    (parse_graph("A4"), (1, 2, 1, 3, 2, 1, 4, 3, 2, 1)),
    (parse_graph("D4"), GOLDEN_D4_WORD),
    (parse_graph("E6"), (3, 4, 5, 4, 3, 1, 6, 2, 4, 3, 5, 6, 4, 2)),  # 9 classes
    (parse_graph("1-2,2-3,1-3"), (1, 2, 3, 1, 2, 3, 2)),
    (parse_graph("1-2,3-4"), (1, 2, 1, 3, 4, 3)),
]


def least_extension(word: bytes, idx: bytes, near: tuple[int, ...], start: int) -> tuple[bytes, bytes]:
    """Reference: the lex-least linear extension of the heap of ``word``,
    with root indices, when ``word[:start]`` is already lex-least for its own
    heap.

    Each later piece goes into the run of letters at the end that commute
    with it, just before the first letter of that run larger than it, or
    last.  That keeps the word free of factors b u a with a < b and a
    commuting with b u (Anisimov and Knuth, 1979).
    """
    letters, roots = list(word[:start]), list(idx[:start])
    for a, i in zip(word[start:], idx[start:]):
        blocking = near[a]
        at = m = len(letters)
        while m and not blocking >> letters[m - 1] & 1:
            m -= 1
            if letters[m] > a:
                at = m
        letters.insert(at, a)
        roots.insert(at, i)
    return bytes(letters), bytes(roots)


@pytest.mark.parametrize("g, word", SCAN_CASES)
def test_insertion_gives_the_first_linear_extension(g, word):
    """From any word of a class, inserting its pieces one by one gives the
    least of the class's listed words, each piece carrying its index and so
    its root (a root sequence runs right to left), and that is the word the
    engine holds for the class, in its letters relabelled in order."""
    e = _engine(element_of(g, word))
    letter = {s: i for i, s in enumerate(e.support)}
    for least, (words, seqs) in zip(e.classes, e.members(g)):
        spelled = tuple(e.support[s] for s in least)
        assert len(set(words)) == len(words) and min(words) == spelled
        first = root_sequence(g, spelled).roots[::-1]
        for member, seq in zip(words, seqs):
            assert seq == root_sequence(g, member).roots
            relabelled = bytes(letter[s] for s in member)
            found, idx = least_extension(relabelled, bytes(range(len(member))), e.near, 0)
            assert found == least and tuple(seq[::-1][i] for i in idx) == first


@pytest.mark.parametrize("g, word", SCAN_CASES)
def test_signatures_read_off_the_key_match_heap_positions(g, word):
    """A bit is 1 exactly when the class orders a triple's two summands
    against the precedence.  A class's key, read at the labels' places, is
    its lex signature, and its revlex bits are its lex bits XOR one vector
    shared by every class of the element.  Read off heap positions alone,
    every inversion triple that is not contractible has its summands in one
    order in every class, which is why the labels are the key bits that
    vary."""
    w = element_of(g, word)
    e = _engine(w)
    fixed = sorted(inversion_triples(w) - contractible_triples(w))
    differences, orders = set(), set()
    for c, key in zip(enumerate_classes(w), e.classes.values()):
        pos = {r: i for i, r in enumerate(c.canonical.roots)}
        orders.add(tuple(pos[t.low] < pos[t.high] for t in fixed))
        vectors = []
        for precedence in (LEX, REVLEX):
            expected = [
                (t, int((pos[t.low] < pos[t.high]) != precedence.precedes(t.low, t.high)))
                for t in sorted(contractible_triples(w))
            ]
            assert list(f_signature(w, c, precedence).entries) == expected
            vectors.append([b for _, b in expected])
        lex, revlex = vectors
        assert list(e.bits(key)) == lex
        differences.add(tuple(a ^ b for a, b in zip(lex, revlex)))
    assert len(differences) == 1
    assert len(orders) == 1


def long_moves(word: bytes, near: tuple[int, ...]):
    """Reference: word positions (p, q, r) of every long braid move on the
    class heap of ``word``.

    p and r are consecutive s-pieces.  A piece strictly between them in the
    heap needs an s-neighbor between them in the word on each side of it,
    so the open interval (p, r) is one piece exactly when one letter between
    positions p and r is adjacent to s.
    """
    n = len(word)
    for p, s in enumerate(word):
        adjacent = near[s] ^ (1 << s)
        q = -1
        for k in range(p + 1, n):
            t = word[k]
            if t == s:
                if q >= 0:
                    yield p, q, k
                break
            if adjacent >> t & 1:
                if q >= 0:
                    break
                q = k


def braid(word: bytes, p: int, q: int, r: int, near: tuple[int, ...]) -> bytes:
    """Reference: the lex-least word of the class one long braid move away,
    s A t B s to A t s t B; the lex-least prefix before p stays."""
    t = word[q]
    moved = word[:p] + word[p + 1 : q] + bytes((t, word[p], t)) + word[q + 1 : r] + word[r + 1 :]
    return least_extension(moved, bytes(len(moved)), near, p)[0]


def move_log_edges(w):
    """Reference: the edges as a log of long braid moves.  For each class
    word, each long braid move is braided out to its neighbour's lex-least
    word, whose rank in class order is the other end of the edge."""
    e = _engine(w)
    rank = {word: i for i, word in enumerate(e.classes)}
    edges = set()
    for i, word in enumerate(e.classes):
        for p, q, r in long_moves(word, e.near):
            j = rank[braid(word, p, q, r, e.near)]
            edges.add((min(i, j), max(i, j)))
    return edges


@pytest.mark.parametrize(
    "spec, max_length", [("A4", 10), ("D4", 12), ("A5", 15), ("1-2,2-3,1-3", 14)]
)
def test_edges_read_off_the_keys_match_the_move_log(spec, max_length):
    """Classes one long braid move apart are exactly those whose keys differ
    in one bit, on every element of A4, D4 and A5 and on a ball of the
    affine A~2 group: the commutation graph is an induced subgraph of the
    cube."""
    for elements in group_by_length(parse_graph(spec), max_length).values():
        for w in elements:
            assert commutation_graph(w).edges == tuple(sorted(move_log_edges(w))), w


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


# Fully commutative elements, those with a single commutation class
# (Stembridge, The enumeration of fully commutative elements of Coxeter
# groups, 1998): Catalan(n+1) in A_n and (n+3)/2 * Catalan(n) - 1 in D_n.
STEMBRIDGE_FULLY_COMMUTATIVE = {"A3": 14, "A4": 42, "D4": 48, "D5": 167}


def test_stembridge_table_matches_closed_forms():
    closed_forms = {
        **{f"A{n}": catalan(n + 1) for n in (3, 4)},
        **{f"D{n}": (n + 3) * catalan(n) // 2 - 1 for n in (4, 5)},
    }
    assert closed_forms == STEMBRIDGE_FULLY_COMMUTATIVE


@pytest.mark.parametrize("name", sorted(STEMBRIDGE_FULLY_COMMUTATIVE))
def test_fully_commutative_counts_match_stembridge(name):
    fully_commutative = sum(
        count_classes_and_check_bound(w).classes == 1
        for elements in group_by_length(parse_graph(name), 10**6).values()
        for w in elements
    )
    assert fully_commutative == STEMBRIDGE_FULLY_COMMUTATIVE[name]


@st.composite
def graph_and_word(draw):
    """A simple graph on at most 5 nodes and a reduced word of length at most 7.

    The word keeps each drawn letter that lengthens it, so most draws give
    elements long enough to have several classes.
    """
    n = draw(st.integers(1, 5))
    pairs = [(s, t) for s in range(1, n + 1) for t in range(s + 1, n + 1)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    g = CoxeterGraph(n, frozenset(edges))
    w = identity_element(g)
    word = []
    for s in draw(st.lists(st.integers(1, n), max_size=12)):
        ws = times_generator(w, s)
        if ws.length > w.length and len(word) < 7:
            w = ws
            word.append(s)
    return g, tuple(word)


AFFINE_A2 = CoxeterGraph(3, frozenset({(1, 2), (2, 3), (1, 3)}))
A3_PLUS_A2 = CoxeterGraph(5, frozenset({(1, 2), (2, 3), (4, 5)}))
# The complete graph K4 is hyperbolic.  This element of length 11, longer
# than any drawn word, has columns with coefficients up to 24, past what 4
# bits hold, and 20 classes of one word each, joined by 30 edges, from 9
# contractible triples that are not pairwise disjoint.
K4 = CoxeterGraph(4, frozenset({(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)}))


@settings(max_examples=300, deadline=None)
@given(graph_and_word())
@example((AFFINE_A2, (1, 2, 1, 3, 2, 1, 3)))
@example((K4, (2, 3, 2, 1, 2, 3, 1, 2, 1, 3, 2)))
@example((A3_PLUS_A2, (1, 2, 1, 4, 5, 4, 3)))
@example((CoxeterGraph(5, frozenset({(1, 2), (3, 4)})), (1, 2, 3, 1)))
def test_engine_matches_oracles_on_random_graphs(case):
    g, word = case
    w = element_of(g, word)
    classes = enumerate_classes(w)

    blocks = oracle_classes_by_bfs(w)
    assert set(class_partition(w)) == set(blocks)
    block_of = {seq: block for block in blocks for seq in block}
    assert [c.size for c in classes] == [len(block_of[c.canonical.roots]) for c in classes]

    expected = {t for t in inversion_triples(w) if oracle_contractible(w, t)}
    assert contractible_triples(w) == expected
    # The signature has one bit per move label, on path forests too.
    assert {t for t, _ in f_signature(w, classes[0]).entries} == expected

    graph = commutation_graph(w)
    rank = {block: i for i, block in enumerate(class_partition(w))}
    at = [rank[block] for block in blocks]
    expected = {tuple(sorted((at[i], at[j]))) for i, j in oracle_commutation_edges(g, blocks)}
    assert graph.edges == tuple(sorted(expected))
    assert is_bipartite(graph)
    bits = [f_signature(w, c).vector() for c in graph.vertices]
    for i, j in graph.edges:
        assert sum(a != b for a, b in zip(bits[i], bits[j])) == 1
    # Distinct classes have distinct signatures: the injectivity the search
    # key relies on, read off signatures computed without the key.
    assert len(set(bits)) == len(bits)

    bound = count_classes_and_check_bound(w)
    assert bound.classes == len(classes) <= 2**bound.contractible


def antichain(k: int) -> tuple[int, ...]:
    """2 1 4 3 ...: k pairwise commuting letters, one class of k! words."""
    return tuple(v for i in range(k) for v in (2 * i + 2, 2 * i + 1))


def star(k: int):
    """The star 1-2, ..., 1-(k+1) and the element 1 2 ... k+1: one piece 1
    below k pairwise commuting pieces, one class of k! words."""
    g = CoxeterGraph(k + 1, frozenset((1, t) for t in range(2, k + 2)))
    return element_of(g, tuple(range(1, k + 2)))


def test_class_size_dp_respects_the_cap():
    w = star(12)  # C(12, 6) = 924 prefixes of length 7
    with pytest.raises(CapExceededError) as info:
        enumerate_classes(w, cap=100)
    assert info.value.count == 101
    # The pass stops at the cap itself rather than checking after the count.
    with pytest.raises(CapExceededError, match="more than 923 down-sets") as info:
        enumerate_classes(w, cap=923)
    assert info.value.count == 924
    assert [c.size for c in enumerate_classes(w, cap=924)] == [factorial(12)]
    assert [c.size for c in enumerate_classes(w)] == [factorial(12)]
    with pytest.raises(CapExceededError):
        enumerate_classes(w, cap=100)  # an engine built under another cap does not answer


def test_commuting_letters_are_one_class_of_factorial_words(capsys):
    """Twenty pairwise commuting letters, 2 1 4 3 ... 40 39: one class of 20!
    words, from twenty one-letter passes, in well under a second."""
    perm = ",".join(str(v) for v in antichain(20))
    started = time.perf_counter()
    assert main(["analyze", "--perm", perm]) == EXIT_OK
    elapsed = time.perf_counter() - started
    doc = json.loads(capsys.readouterr().out)
    assert [c["size"] for c in doc["classes"]] == [factorial(20)]
    assert (doc["class_count"], doc["N"], doc["edges"]) == (1, 0, [])
    assert elapsed < 1.0, elapsed


def test_two_w0_a4_factors_multiply(monkeypatch, capsys):
    """w0(A4) on two disjoint paths: the classes are pairs of classes, 62^2
    (Knuth); a class's words shuffle its factors' words, so the sizes sum to
    C(20, 10) * 768^2 (Stanley); and the graph is the Cartesian product of
    two graphs of 62 vertices and 100 edges, with 2 * 62 * 100 edges.  No
    pass holds 3,843 classes, so one cap below 62^2 trips on the product:
    with T = 20 triples the bound 2^20 leaves the cap open, so each of the
    three builds walks both factors, and no walk trips."""
    spec, word = "1-2,2-3,3-4,5-6,6-7,7-8", (1, 2, 1, 3, 2, 1, 4, 3, 2, 1, 5, 6, 5, 7, 6, 5, 8, 7, 6, 5)
    w = element_of(parse_graph(spec), word)
    classes = enumerate_classes(w)
    assert len(classes) == 62**2
    assert sum(c.size for c in classes) == comb(20, 10) * 768**2 == 108_973_522_944
    assert len(commutation_graph(w).edges) == 2 * 62 * 100
    assert len(contractible_triples(w)) == 2 * 10
    assert classes[0].canonical_word == canonical_word(w)

    calls = count_calls(monkeypatch, (freebraid.classes, "_capped_walk"))
    with pytest.raises(CapExceededError, match="^more than 3843 commutation classes$") as caught:
        enumerate_classes(w, cap=3843)
    assert caught.value.count == 3844
    assert len(enumerate_classes(w, cap=3844)) == 3844
    assert main(["analyze", "-g", spec, "-w", " ".join(map(str, word)), "--max-words", "3843"]) == EXIT_CAP
    captured = capsys.readouterr()
    assert captured.err == "error: more than 3843 commutation classes (partial count: 3844)\n"
    assert captured.out == ""
    assert calls == {"_capped_walk": 6}


@pytest.mark.parametrize(
    "spec, word",
    [
        ("A4", ()),  # the identity: no component, one empty class
        ("A4", (1, 2, 1, 4)),  # an isolated letter beside a braid
        ("D5", (2, 1, 2, 5)),
        ("1-2,2-3,1-3,4-5", (1, 2, 3, 1, 2, 3, 2, 4, 5, 4)),  # affine A~2 beside A2
    ],
)
def test_factored_classes_match_the_oracles(spec, word):
    """Elements whose support splits: classes, sizes, triples and edges
    against the brute-force oracles."""
    g = parse_graph(spec)
    w = element_of(g, word)
    blocks = oracle_classes_by_bfs(w)
    rank = {block: i for i, block in enumerate(class_partition(w))}
    assert rank.keys() == set(blocks)
    at = [rank[block] for block in blocks]
    assert [c.size for c in enumerate_classes(w)] == [len(blocks[at.index(i)]) for i in range(len(at))]
    assert contractible_triples(w) == {t for t in inversion_triples(w) if oracle_contractible(w, t)}
    expected = {tuple(sorted((at[i], at[j]))) for i, j in oracle_commutation_edges(g, blocks)}
    assert commutation_graph(w).edges == tuple(sorted(expected))


def linear_extension_count(word, near) -> int:
    """Reference: the linear extensions of the heap of `word`, counted layer
    by layer over its down-sets, one heap per class (the size DP the shared
    memo replaced).

    Pieces are bits in word order, letters as the engine relabels them.  A
    piece lies above every earlier piece whose letter is equal or adjacent
    to its own, and it can join a down-set when it is the lowest piece of
    its letter's chain outside the set and every piece below it is inside.
    """
    chains: dict[int, int] = {}
    for p, s in enumerate(word):
        chains[s] = chains.get(s, 0) | 1 << p
    below = {
        1 << p: sum(chain for t, chain in chains.items() if near[s] >> t & 1) & ((1 << p) - 1)
        for p, s in enumerate(word)
    }
    ways = {0: 1}
    for _ in word:
        grown: dict[int, int] = {}
        for down, k in ways.items():
            for chain in chains.values():
                free = chain & ~down
                bit = free & -free
                if free and not below[bit] & ~down:
                    grown[down | bit] = grown.get(down | bit, 0) + k
        ways = grown
    return ways[(1 << len(word)) - 1]


@pytest.mark.parametrize("n", range(2, 7))
def test_reference_size_dp_gives_stanleys_counts(n):
    """w0(A1) to w0(A5): the per-heap DP sums to Stanley's word counts, and
    the shared memo gives the same size for every class."""
    w = perm_to_element(tuple(range(n, 0, -1)))
    e = _engine(w)
    sizes = [linear_extension_count(word, e.near) for word in e.classes]
    assert sum(sizes) == stanley(n)
    assert [c.size for c in enumerate_classes(w)] == sizes


@pytest.mark.parametrize(
    "spec, max_length, seed",
    [("D4", 12, 11), ("D5", 14, 12), ("E6", 14, 13), ("A5", 15, 14), ("1-2,2-3,1-3", 9, 15),
     ("1-2,3-4", 6, 16)],
)
def test_shared_size_memo_agrees_with_the_per_heap_dp(spec, max_length, seed):
    for w in random_elements(parse_graph(spec), 25, max_length, seed):
        e = _engine(w)
        expected = [linear_extension_count(word, e.near) for word in e.classes]
        assert [c.size for c in enumerate_classes(w)] == expected, w


def test_size_memo_relabels_letters_above_255():
    g = parse_graph("A300")
    assert [c.size for c in enumerate_classes(element_of(g, (300, 299, 300)))] == [1, 1]
    assert [c.size for c in enumerate_classes(element_of(g, (299, 1, 300, 2)))] == [6]


def test_capped_search_holds_each_class_as_one_word_and_key(monkeypatch):
    """w0(A9) has 120 inversion triples, so the paper's bound 2^120 leaves a
    cap of 20,000 classes open, and the counting walk runs before any pass.
    It keys each v by its placed-root bitmask and stops at the 20,001st
    lex-least word, so no pass runs and the build peaks under 4 MiB of traced
    Python memory."""
    calls = count_calls(monkeypatch, (freebraid.classes, "_pass"), (freebraid.classes, "_capped_walk"))
    w = perm_to_element(tuple(range(10, 0, -1)))
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match="more than 20000 commutation classes"):
            _Engine(w, 20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == {"_pass": 0, "_capped_walk": 1}
    assert peak < 4 * 2**20, peak


def traced_peak(build) -> int:
    """The traced Python memory peak of ``build()``, which raises the cap error."""
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match="^more than 1000 down-sets of one size in a class heap$"):
            build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_capped_walk_on_a_wide_heap_keys_each_prefix_by_its_mask(monkeypatch):
    """The fence 1 3 5 ... 19 2 4 ... 20 on A25 is fully commutative, one
    class, but has Fibonacci-many prefixes.  It has no inversion triples, so
    the paper's bound settles any cap, and at cap 1,000 the pass raises on
    the prefixes of one length with no walk, under 3 MiB of traced Python
    memory.  Beside w0(A4) on 22-25, T = 10 and 2^10 leaves the cap open, so
    the walk counts the fence's one class first: its states are
    (placed-root mask, blocked letters), so that run peaks under 4 MiB."""
    fence = (*range(1, 21, 2), *range(2, 21, 2))
    w = element_of(parse_graph("A25"), fence)
    calls = count_calls(monkeypatch, (freebraid.classes, "_capped_walk"))
    peak = traced_peak(lambda: _Engine(w, 1000))
    assert calls == {"_capped_walk": 0}
    assert peak < 3 * 2**20, peak
    beside = element_of(w.graph, fence + tuple(21 + s for s in (1, 2, 1, 3, 2, 1, 4, 3, 2, 1)))
    assert len(inversion_triples(beside)) == 10
    peak = traced_peak(lambda: _Engine(beside, 1000))
    assert calls == {"_capped_walk": 1}
    assert peak < 4 * 2**20, peak


def test_w0_e6_is_refused_by_the_walk_alone(monkeypatch):
    """w0(E6), the bipartite word 1 4 6 2 3 5 six times over, has 120
    inversion triples and more than 10^6 classes: at the default cap the
    walk runs first and refuses it, so no pass runs, under 4 MiB of traced
    Python memory."""
    w = element_of(parse_graph("E6"), (1, 4, 6, 2, 3, 5) * 6)
    calls = count_calls(monkeypatch, (freebraid.classes, "_pass"), (freebraid.classes, "_capped_walk"))
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match="^more than 1000000 commutation classes$") as caught:
            _Engine(w, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert caught.value.count == 1_000_001
    assert calls == {"_pass": 0, "_capped_walk": 1}
    assert peak < 4 * 2**20, peak


def widest_layer(w) -> int:
    """The most prefixes of one length of one factor of w, one factor per
    connected component of its support, from the reduced words of the
    factor: the count that the pass's down-sets cap bounds."""
    g, word = w.graph, canonical_word(w)
    left, widest = set(word), 1
    while left:
        part = {left.pop()}
        todo = list(part)
        while todo:
            near = left.intersection(g.neighbors[todo.pop() - 1])
            left -= near
            part |= near
            todo.extend(near)
        u = element_of(g, tuple(s for s in word if s in part))
        words = enumerate_reduced_words(u)
        widest = max(widest, *(len({element_of(g, x[:i]) for x in words}) for i in range(u.length + 1)))
    return widest


@pytest.mark.parametrize(
    "spec, max_length, seed",
    [("D4", 12, 21), ("D5", 12, 22), ("E6", 12, 23), ("A5", 12, 24), ("1-2,2-3,1-3", 9, 25),
     ("1-2,1-3,1-4,2-3,2-4,3-4", 9, 26)],
)
def test_the_class_cap_is_exact_on_both_sides_of_the_bound(monkeypatch, spec, max_length, seed):
    """With C classes, T inversion triples and at most P prefixes of one
    length in a factor: a cap of C - 1 raises with count C, by the class
    error when P is within it; a cap of C builds all C classes unless P
    passes it; and a cap of 2^T, which the paper's bound settles, runs no
    walk."""
    calls = count_calls(monkeypatch, (freebraid.classes, "_capped_walk"))

    def builds(w, cap: int, c: int, p: int) -> None:
        """Under ``cap``, w builds its c classes, unless its p prefixes pass the cap."""
        if p > cap:
            with pytest.raises(CapExceededError, match=f"^more than {cap} down-sets of one size in a class heap$"):
                _Engine(w, cap)
        else:
            assert len(_Engine(w, cap).classes) == c, w

    for w in random_elements(parse_graph(spec), 25, max_length, seed):
        c, t, p = len(_engine(w).classes), len(inversion_triples(w)), widest_layer(w)
        if c > 1:
            with pytest.raises(CapExceededError) as caught:
                _Engine(w, c - 1)
            assert caught.value.count == c, w
            if p < c:
                assert str(caught.value) == f"more than {c - 1} commutation classes", w
        builds(w, c, c, p)
        walks = calls["_capped_walk"]
        builds(w, 1 << t, c, p)
        assert calls["_capped_walk"] == walks, w


def test_wide_heap_exits_on_the_cap(capsys):
    star_spec = ",".join(f"1-{t}" for t in range(2, 14))
    word = ",".join(map(str, range(1, 14)))
    assert main(["analyze", "-g", star_spec, "-w", word, "--max-words", "100"]) == EXIT_CAP
    captured = capsys.readouterr()
    assert "more than 100 down-sets of one size in a class heap" in captured.err
    assert captured.out == ""


def test_cap_counts_the_down_sets_of_one_class(capsys):
    """The memo shares sub-heaps between classes, and a class is charged only
    for the entries it adds: w0(D4) still passes at a cap of its 182 classes."""
    w = element_of(parse_graph("D4"), (2, 1, 3, 4) * 3)
    assert sum(c.size for c in enumerate_classes(w, cap=182)) == 2316
    assert main(["analyze", "-g", "D4", "-w", "2 1 3 4 " * 3, "--max-words", "182"]) == EXIT_OK


def test_a_cached_engine_still_answers_to_each_cap():
    w = perm_to_element((5, 4, 3, 2, 1))
    assert len(enumerate_classes(w)) == 62
    with pytest.raises(CapExceededError) as info:
        count_classes_and_check_bound(w, cap=61)
    assert info.value.count == 62
    assert count_classes_and_check_bound(w, cap=62).classes == 62


@pytest.mark.parametrize("cap", [0, -1])
@pytest.mark.parametrize("query", [enumerate_classes, count_classes_and_check_bound, commutation_graph])
def test_a_cap_below_one_is_refused(query, cap):
    """A cap counts classes, prefixes and words, of which there is always at
    least one: a cap below 1 is a caller's error, not a cap exit."""
    w = element_of(parse_graph("A3"), (1, 2, 1, 3, 2, 1))
    with pytest.raises(ValueError, match=f"^cap must be at least 1, not {cap}$"):
        query(w, cap=cap)


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "-g", "D4", "-w", "2 1 3 4 2 1 3 4 2 1 3 4", "--verify"],
        ["graph", "-g", "D4", "-w", "2 1 3 4 2 4 3 1 2", "--parity"],
    ],
)
def test_one_command_builds_one_engine(argv, capsys):
    """Every use in a command passes the same cap, so all hit one engine."""
    freebraid.classes._built.cache_clear()
    assert main(argv) == EXIT_OK
    assert freebraid.classes._built.cache_info().misses == 1


def test_the_engine_cache_holds_one_engine():
    freebraid.classes._built.cache_clear()
    enumerate_classes(perm_to_element((4, 3, 2, 1)))
    enumerate_classes(perm_to_element((5, 4, 3, 2, 1)))
    assert freebraid.classes._built.cache_info().currsize == 1


def test_path_forests_skip_the_engine():
    w = perm_to_element(tuple(range(8, 0, -1)))  # 1,232,944 classes, above the default cap
    assert len(contractible_triples(w)) == comb(8, 3)
    assert not is_freely_braided(w)


def test_max_words_governs_every_engine_build(capsys, monkeypatch):
    """The flag, not the library default, caps each engine use in analyze."""
    monkeypatch.setattr(freebraid.classes, "DEFAULT_SEQUENCE_CAP", 10)
    w0_d4 = ["analyze", "-g", "D4", "-w", "2 1 3 4 2 1 3 4 2 1 3 4"]  # 182 classes
    assert main(w0_d4 + ["--max-words", "182"]) == EXIT_OK
    assert main(w0_d4 + ["--max-words", "181"]) == EXIT_CAP
    assert "partial count: 182" in capsys.readouterr().err
