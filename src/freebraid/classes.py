"""Commutation classes as heaps of pieces, their signatures and class graphs.

A commutation class of an element w is a class of its reduced words under
swaps of adjacent commuting letters.  It is a heap of pieces (Viennot): one
piece per letter occurrence, where a piece lies below every later piece
whose letter is equal or adjacent to its own, and the words of the class are
exactly the linear extensions of the heap.

Classes are found by a breadth-first search whose states are classes, not
words.  A class is held as its lex-least word (its heap's first linear
extension) and its search key; its root sequence is derived from that word
when asked for.  The class layer writes every word once, as bytes over w's
support relabelled in order (which keeps lex order), and spells it in w's
letters only when it hands it out.  Until its class is expanded, each piece
in the search queue also carries the index of its root in the root
sequence of canonical_word(w), for the move labels.  Long braid moves join
classes: two consecutive s-pieces p < r admit one exactly when the open
heap interval (p, r) is a single piece q.  The letters between p and r
then commute with s, so the move rewrites s A t B s as A t s t B and
reverses the root indices of the three pieces; inserting the moved pieces
one by one into the unchanged prefix before p gives the new class's
lex-least word.  The move labels {root(p), root(q), root(r)} are exactly
the contractible triples.

The search keys a class by the XOR of one bit per move label on a path to
it from the start class, and braids out a class's word only when its key is
new.  The key is sound.  A class is fixed by the order of each of its
non-orthogonal pairs of roots (its heap order), and such a pair lies in at
most one inversion triple.  A short move reorders no such pair; a long move
reverses exactly the three pairs of its own triple, contractible by
definition.  So pairs outside contractible triples keep one order in every
class, and a key XOR the start class's lex signature, the XOR taken once
after the search, is the class's lex signature: equal keys mean one class.
A signature bit is 1 when the heap orders its triple's two summands against
a fixed precedence on roots; another precedence's bits are the key XOR one
mask, so revlex bits are lex bits XOR one vector per element.

The keys also give the edges.  A long move flips its own label's bit alone,
and conversely classes C and C' whose keys differ only in the bit of
T = {a, a+b, b} are one long move apart, so the commutation graph is the
subgraph of the N-cube induced on the keys (for w0 in type A, the cover
relation of the higher Bruhat order B(n, 2): Manin and Schechtman, 1989;
Ziegler, 1993).  Proof: every non-orthogonal pair outside T is ordered alike
in C and C', by another triple's bit or in every class.  Were a root g not
in T strictly between two roots of T in C's heap order, a chain of such
pairs would run from a or a+b, through g, to a+b or b; it survives in C',
where T is reversed, and closes a cycle.  So T is an interval of C's heap,
some word of C carries it consecutively, and the long move there gives the
class keyed by C's key XOR T's bit, which is C' as keys are injective.

A class's size is the number of linear extensions of its heap, counted by
one recursion for all of an element's classes: the count of a heap is the
sum, over its maximal pieces, of the counts of the heap without that piece,
and the empty heap counts 1.  Deleting a maximal piece from a lex-least word
leaves a lex-least word (every letter after the piece commutes with it), so
each sub-heap is keyed by its word alone and the classes share one memo.
It holds every sub-heap of every class until the sizes are done.
Reduced words are listed only by enumerate_reduced_words and class_partition,
by the same recursion: each maximal piece of a class's lex-least word in turn
ends the word, after every listing of the heap without it, each piece
carrying its root.  Caps: the class search counts commutation classes, the
size memo counts the entries one class adds at one length (distinct down-sets
of that class's heap of one size, never more than the class has words), and
word listing counts reduced words; each raises CapExceededError once its
tally passes the cap.  An engine is built for one element under one cap and
bounds all its work by that cap.
"""

from __future__ import annotations

import functools
from collections import deque
from typing import Callable, Iterator, NamedTuple

from .coxeter import (
    CapExceededError,
    DEFAULT_MAX_WORD_LENGTH,
    DEFAULT_SEQUENCE_CAP,
    CoxeterGraph,
    Element,
    Root,
    Word,
    canonical_word,
    format_word,
)
from .rootseq import InversionTriple, RootSequence, root_sequence

__all__ = [
    "Precedence",
    "LEX",
    "REVLEX",
    "PRECEDENCES",
    "CommutationClass",
    "FSignature",
    "CommutationGraph",
    "BoundCheck",
    "Bipartition",
    "enumerate_reduced_words",
    "enumerate_classes",
    "class_partition",
    "f_signature",
    "signature_vectors",
    "parity",
    "count_classes_and_check_bound",
    "commutation_graph",
    "is_bipartite",
    "to_dot",
]


class Precedence(NamedTuple):
    """Total order on roots given by an injective sort key on coefficients."""

    name: str
    key: Callable[[Root], object]

    def precedes(self, a: Root, b: Root) -> bool:
        return self.key(a) < self.key(b)


LEX = Precedence("lex", lambda r: r)
REVLEX = Precedence("revlex", lambda r: tuple(reversed(r)))
PRECEDENCES = {"lex": LEX, "revlex": REVLEX}


class CommutationClass(NamedTuple):
    """One commutation class, held as its lex-least word, and its size.

    The word determines the class, so its root sequence is derived from it.
    """

    graph: CoxeterGraph
    canonical_word: Word
    size: int

    @property
    def canonical(self) -> RootSequence:
        """The root sequence of the lex-least word."""
        return root_sequence(self.graph, self.canonical_word)


class FSignature(NamedTuple):
    """Bit per contractible triple, in sorted-triple order.

    A bit is 0 when the class heap order ranks the two summands the same way
    the precedence does, 1 when they disagree.
    """

    entries: tuple[tuple[InversionTriple, int], ...]

    def bits(self) -> dict[InversionTriple, int]:
        return dict(self.entries)

    def vector(self) -> tuple[int, ...]:
        return tuple(b for _, b in self.entries)

    def weight(self) -> int:
        return sum(b for _, b in self.entries)

    def parity(self) -> int:
        """+1 or -1 according to the weight."""
        return -1 if self.weight() % 2 else 1


class CommutationGraph(NamedTuple):
    """Classes as vertices; edges join classes one long braid move apart."""

    vertices: tuple[CommutationClass, ...]
    edges: frozenset[tuple[int, int]]


class BoundCheck(NamedTuple):
    classes: int
    contractible: int
    bound_holds: bool
    achieves_bound: bool


class Bipartition(NamedTuple):
    bipartite: bool
    coloring: tuple[int, ...] | None


def _long_moves(word: bytes, near: tuple[int, ...]) -> Iterator[tuple[int, int, int]]:
    """Word positions (p, q, r) of every long braid move on the class heap.

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


def _braid(
    word: bytes, idx: bytes, p: int, q: int, r: int, near: tuple[int, ...]
) -> tuple[bytes, bytes]:
    """The class one long braid move away, s A t B s to A t s t B, as its
    lex-least word and indices; the lex-least prefix before p stays."""
    t = word[q]
    moved = word[:p] + word[p + 1 : q] + bytes((t, word[p], t)) + word[q + 1 : r] + word[r + 1 :]
    roots = idx[:p] + idx[p + 1 : q] + bytes((idx[r], idx[q], idx[p])) + idx[q + 1 : r] + idx[r + 1 :]
    return _least_extension(moved, roots, near, p)


def _least_extension(
    word: bytes, idx: bytes, near: tuple[int, ...], start: int
) -> tuple[bytes, bytes]:
    """The lex-least linear extension of the heap of `word`, with root
    indices, when ``word[:start]`` is already lex-least for its own heap.

    Each later piece goes into the run of letters at the end that commute
    with it, just before the first letter of that run larger than it, or
    last.  That keeps the word free of factors b u a with a < b and a
    commuting with b u, which is what makes a word lex-least in its class
    (Anisimov and Knuth, 1979).
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


def _class_sizes(words: list[bytes], near: tuple[int, ...], cap: int) -> list[int]:
    """Number of linear extensions of the heap of each lex-least word in
    ``words``, the classes of one element in the engine's letters, from one
    shared memo keyed by the words themselves.

    A piece is maximal when no later letter is equal or adjacent to it, so
    a backward scan finds them all; once the letters passed block every
    letter of the support, no earlier piece is maximal.  ``cap`` bounds the
    new entries one word adds at one length: distinct down-sets of its heap
    of one size, so never more than its linear extensions.
    """
    full = (1 << len(near)) - 1
    memo = {b"": 1}
    added: list[int] = []

    def count(word: bytes) -> int:
        n = len(word)
        added[n] += 1
        if added[n] > cap:
            raise CapExceededError(
                f"more than {cap} down-sets of one size in a class heap", count=cap + 1
            )
        total = blocked = 0
        for p in range(n - 1, -1, -1):
            s = word[p]
            if not blocked >> s & 1:
                sub = word[:p] + word[p + 1 :]
                k = memo.get(sub)
                total += count(sub) if k is None else k
            blocked |= near[s]
            if blocked == full:
                break
        memo[word] = total
        return total

    sizes = []
    for word in words:
        added[:] = [0] * (len(word) + 1)
        sizes.append(memo[word] if word in memo else count(word))
    del count  # count's closure holds count: break the cycle, so the memo goes on return
    return sizes


class _Engine:
    """The commutation classes of one element, found by a search over heaps.

    Words are ``bytes`` over w's support relabelled in order: letter i is
    ``support[i]``, and ``near[i]`` has bit j set when letters i and j are
    equal or adjacent.  ``classes`` maps each class's lex-least word, in
    sorted order, to its key, its lex signature.  The search keeps the keys
    it has found and a queue whose entries carry root indices until they
    are expanded: ``idx[p]`` places the root of the piece at word position p
    in the root sequence of canonical_word(w).  A neighbour's key is
    ``key ^ bits[label]``; ``labels`` holds the sorted move labels, the
    contractible triples, and ``places`` their key bits' places.
    commutation_graph reads the edges off the keys (see the module
    docstring).  ``cap`` bounds the classes found, the entries one class
    adds at one length to the size memo and the words ``members`` lists.
    """

    __slots__ = ("cap", "support", "near", "classes", "labels", "places", "_sizes")

    def __init__(self, w: Element, cap: int):
        g = w.graph
        start = canonical_word(w)
        support = tuple(sorted(set(start)))
        letter = {s: i for i, s in enumerate(support)}
        near = tuple(sum(1 << letter[t] for t in (s, *g.neighbors[s - 1]) if t in letter)
                     for s in support)
        base = root_sequence(g, start).roots
        found = {0}
        queue = [(bytes([letter[s] for s in start]), bytes(range(len(start) - 1, -1, -1)), 0)]
        bits: dict[tuple[int, int, int], int] = {}
        for i, (word, idx, key) in enumerate(queue):
            for p, q, r in _long_moves(word, near):
                a, b = (idx[p], idx[r]) if idx[p] < idx[r] else (idx[r], idx[p])
                next_key = key ^ bits.setdefault((a, idx[q], b), 1 << len(bits))
                if next_key not in found:
                    if len(queue) >= cap:
                        raise CapExceededError(f"more than {cap} commutation classes", count=cap + 1)
                    found.add(next_key)
                    queue.append((*_braid(word, idx, p, q, r, near), next_key))
            queue[i] = word, key
        start_lex, labels = 0, []
        for (a, m, b), bit in bits.items():
            if base[a] > base[b]:  # the start class puts root a before b: lex bit 1
                start_lex, a, b = start_lex | bit, b, a
            labels.append((InversionTriple(base[a], base[m], base[b]), bit.bit_length() - 1))
        labels.sort()
        self.cap = cap
        self.support, self.near = support, near
        self.classes = dict(sorted((word, key ^ start_lex) for word, key in queue))
        self.labels = tuple(t for t, _ in labels)
        self.places = tuple(j for _, j in labels)
        self._sizes: list[int] | None = None

    def sizes(self) -> list[int]:
        if self._sizes is None:
            self._sizes = _class_sizes(list(self.classes), self.near, self.cap)
        return self._sizes

    def mask(self, precedence: Precedence) -> int:
        """The key bits of the labels whose summands ``precedence`` orders against lex."""
        pairs = zip(self.labels, self.places)
        return sum(1 << j for t, j in pairs if not precedence.precedes(t.low, t.high))

    def bits(self, x: int) -> tuple[int, ...]:
        """The bits of ``x``, per sorted label."""
        return tuple([x >> j & 1 for j in self.places])

    def vertices(self, g: CoxeterGraph) -> tuple[CommutationClass, ...]:
        words = (tuple([self.support[s] for s in word]) for word in self.classes)
        return tuple(CommutationClass(g, word, k) for word, k in zip(words, self.sizes()))

    def members(self, g: CoxeterGraph) -> Iterator[tuple[list[Word], list[tuple[Root, ...]]]]:
        """Per class, in class order, its reduced words and their root
        sequences, listed by peeling maximal pieces off its lex-least word.

        The pieces still in the heap are a mask of word positions, and each
        piece carries its root (a root sequence runs right to left).  A
        backward scan over the mask finds the maximal pieces as the memo's
        does; each in turn is written, as a letter of w, at the last open
        place of the word and the first open place of its root sequence,
        and the rest is peeled.
        """
        cap, support, near = self.cap, self.support, self.near
        full = (1 << len(near)) - 1
        left = cap
        for word in self.classes:
            letters = [support[s] for s in word]
            carried = root_sequence(g, tuple(letters)).roots[::-1]
            roots = list(carried)
            words: list[Word] = []
            seqs: list[tuple[Root, ...]] = []

            def peel(mask: int, top: int) -> None:
                if top < 0:
                    if len(words) == left:
                        raise CapExceededError(f"more than {cap} reduced words", count=cap + 1)
                    words.append(tuple(letters))
                    seqs.append(tuple(roots))
                    return
                blocked = 0
                rest = mask
                while rest:
                    p = rest.bit_length() - 1
                    rest ^= 1 << p
                    s = word[p]
                    if not blocked >> s & 1:
                        letters[top] = support[s]
                        roots[~top] = carried[p]
                        peel(mask ^ 1 << p, top - 1)
                    blocked |= near[s]
                    if blocked == full:
                        break

            peel((1 << len(word)) - 1, len(word) - 1)
            left -= len(words)
            yield words, seqs


# The engine of the last (element, cap) pair: every use within one fb command
# passes the same pair, and a kept engine can pin tens of MB.
_built = functools.lru_cache(maxsize=1)(_Engine)


def _engine(w: Element, cap: int | None = None) -> _Engine:
    """The class engine of w under ``cap``, guarded by the word-length cap."""
    if w.length > DEFAULT_MAX_WORD_LENGTH:
        raise CapExceededError(
            f"element length {w.length} exceeds the word-length cap {DEFAULT_MAX_WORD_LENGTH}",
            count=0,
        )
    return _built(w, cap if cap is not None else DEFAULT_SEQUENCE_CAP)


def enumerate_reduced_words(w: Element, cap: int | None = None) -> list[Word]:
    """All reduced words of w, lexicographically sorted; ``cap`` counts words
    (and so also classes, which are never more)."""
    return sorted(word for words, _ in _engine(w, cap).members(w.graph) for word in words)


def enumerate_classes(w: Element, cap: int | None = None) -> list[CommutationClass]:
    """All commutation classes of w, sorted by canonical (lex-least) word."""
    return list(_engine(w, cap).vertices(w.graph))


def class_partition(w: Element, cap: int | None = None) -> list[frozenset[tuple[Root, ...]]]:
    """Member root sequences per class (as root tuples), in class order;
    ``cap`` counts root sequences."""
    return [frozenset(seqs) for _, seqs in _engine(w, cap).members(w.graph)]


def f_signature(
    w: Element, c: CommutationClass, precedence: Precedence = LEX, cap: int | None = None
) -> FSignature:
    """The signature of class c, read off its search key."""
    e = _engine(w, cap)
    letter = {s: i for i, s in enumerate(e.support)}
    word = c.canonical_word
    key = e.classes.get(bytes([letter[s] for s in word])) if letter.keys() >= set(word) else None
    if key is None or c.graph != w.graph:
        raise ValueError("class does not belong to this element")
    return FSignature(tuple(zip(e.labels, e.bits(key ^ e.mask(precedence)))))


def signature_vectors(
    w: Element, precedence: Precedence = LEX, cap: int | None = None
) -> Iterator[tuple[int, ...]]:
    """Per class of w, in class order, its signature bits as
    ``f_signature(w, c, precedence, cap).vector()`` gives them, each read
    once off the class's key under one mask."""
    e = _engine(w, cap)
    mask = e.mask(precedence)
    return (e.bits(key ^ mask) for key in e.classes.values())


def parity(
    w: Element, c: CommutationClass, precedence: Precedence = LEX, cap: int | None = None
) -> int:
    """+1 or -1 according to the weight of the class signature."""
    return f_signature(w, c, precedence, cap).parity()


def count_classes_and_check_bound(w: Element, cap: int | None = None) -> BoundCheck:
    e = _engine(w, cap)
    k, n = len(e.classes), len(e.labels)
    bound = 2**n
    return BoundCheck(k, n, k <= bound, k == bound)


def commutation_graph(w: Element, cap: int | None = None) -> CommutationGraph:
    """The classes of w, joined where their keys differ in one bit."""
    e = _engine(w, cap)
    vertices = e.vertices(w.graph)  # sized first, so the size memo is gone before the edges
    rank = {key: i for i, key in enumerate(e.classes.values())}
    flips = [1 << j for j in range(len(e.labels))]
    edges = ((i, k) for key, i in rank.items() for f in flips if (k := rank.get(key ^ f, -1)) > i)
    return CommutationGraph(vertices, frozenset(edges))


def is_bipartite(graph: CommutationGraph) -> Bipartition:
    n = len(graph.vertices)
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in graph.edges:
        adj[i].append(j)
        adj[j].append(i)
    color: list[int | None] = [None] * n
    for start in range(n):
        if color[start] is not None:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if color[v] is None:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return Bipartition(False, None)
    return Bipartition(True, tuple(c for c in color))


_PARITY_FILL = {1: "#aec7e8", -1: "#ffbb78"}


def to_dot(
    graph: CommutationGraph,
    parities: tuple[int, ...] | None = None,
    element_label: str | None = None,
) -> str:
    """DOT text: one vertex per class labeled by its canonical word."""
    lines = ["graph commutation {"]
    if element_label is not None:
        lines.append(f"  // element: {element_label}")
    verdict = is_bipartite(graph)
    lines.append(f"  // bipartite: {'true' if verdict.bipartite else 'false'}")
    lines.append("  node [shape=box];")
    for i, c in enumerate(graph.vertices):
        label = format_word(c.canonical_word) or "e"
        attrs = f'label="{label}"'
        if parities is not None:
            attrs += f', style=filled, fillcolor="{_PARITY_FILL[parities[i]]}"'
        lines.append(f"  c{i} [{attrs}];")
    for i, j in sorted(graph.edges):
        lines.append(f"  c{i} -- c{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
