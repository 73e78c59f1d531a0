"""Commutation classes as heaps of pieces, their signatures and class graphs.

A commutation class of an element w is a class of its reduced words under
swaps of adjacent commuting letters.  It is a heap of pieces (Viennot): one
piece per letter occurrence, where a piece lies below every later piece
whose letter is equal or adjacent to its own, and the words of the class are
exactly the linear extensions of the heap.  A class is held as its lex-least
word, as bytes over w's support relabelled in order (which keeps lex order).

Equal or adjacent letters never commute, so w is a product of commuting
factors, one per connected component of its support, and so is each heap: a
class of w is one class per factor, its lex-least word merges theirs, and
its size is the multinomial of the factors' lengths times their sizes.

A factor u is read off one pass up the right weak order below it.  Layer l
holds each prefix x of u of length l as v = u^-1 x, keyed by the bitmask of
the roots x has placed, with each class of x and its size.  A letter s may
follow x exactly when it is a right descent of v, and its piece has root
-v(a_s).  Each class of x takes one s-piece, inserted into the run of
letters at the end that commute with s, before the first larger one or
last, which keeps the word free of factors b y a with a < b and a commuting
with b y, so lex-least (Anisimov and Knuth, 1979); its size is added to the
new class's.  The sums are sizes: a heap's maximal pieces have distinct
letters, as two pieces of one letter are comparable, so a class is reached
once per maximal piece, from the class without it.  A class carries its
key in the same int as its size: the piece of a triple's high summand sets
the triple's bit when x has placed its low summand, alike for every x.

A class's key has one bit per inversion triple of w, in sorted order, 1 when
the class places the triple's high summand after its low one.  Keys are
injective: a class is fixed by the order of its non-orthogonal pairs of
roots, each in at most one inversion triple, and as braid moves join all
reduced words, a short move reordering none and a long move the three of its
own contractible triple, pairs outside contractible triples keep one order
in every class.  A long move flips its own triple's bit, so the contractible
triples, the labels, are the triples whose bit varies over the classes, and
a key read at the labels' places is the class's lex signature.  A signature
bit is 1 when the heap orders its triple's two summands against a fixed
precedence on roots; another precedence's bits are the key XOR one mask, so
revlex bits are lex bits XOR one vector per element.

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
class keyed by C's key XOR T's bit, which is C' as keys are injective.  The
edges (i, k), i < k, are read off vertex by vertex in class order, flipping
each label bit of i's key, and sorted once; the CLI writes them in that order.
So each edge flips one label bit, and the parity of a key's weight at the
labels' places, the lex signature's parity, two-colours the graph: the graph
keeps it per class as ``sides``, and is_bipartite checks each edge against it.

Reduced words are listed only by enumerate_reduced_words and class_partition,
each maximal piece of a lex-least word in turn ending the word.  Caps: the
first time a layer holds more classes than the cap, a walk counts u's
lex-least words; its partial sums are lower bounds, so one past the cap
raises the class error.  A layer with more prefixes than the cap raises, and
so do more classes than the cap in the product of the passes.  Word
listing counts reduced words.  An engine is built for one element under one
cap and bounds its work by it.
"""

from __future__ import annotations

import functools
from heapq import merge
from math import factorial, prod
from typing import Callable, Iterator, NamedTuple

from .coxeter import (
    CapExceededError,
    DEFAULT_MAX_WORD_LENGTH,
    DEFAULT_SEQUENCE_CAP,
    CoxeterGraph,
    Element,
    Root,
    Word,
    _calculus,
    _identity,
    _step,
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
    """Classes as vertices; edges join classes one long braid move apart,
    each edge once as a pair (i, k) with i < k, the pairs in increasing order.
    ``sides[i]`` is 1 when class i's lex signature has odd weight, else 0."""

    vertices: tuple[CommutationClass, ...]
    edges: tuple[tuple[int, int], ...]
    sides: bytes


class BoundCheck(NamedTuple):
    classes: int
    contractible: int
    bound_holds: bool
    achieves_bound: bool


@functools.lru_cache(maxsize=64)
def _induced(g: CoxeterGraph, support: Word) -> tuple[CoxeterGraph, tuple[int, ...], tuple[int, ...]]:
    """The subgraph of g induced on ``support``, its letters relabelled 1..k
    in order; the closed neighbourhood of each relabelled letter i - 1 as a
    bitmask; and the connected components, as letter masks."""
    letter = {s: i for i, s in enumerate(support)}
    edges = {(letter[s] + 1, letter[t] + 1) for s in support for t in g.neighbors[s - 1] if t in letter}
    sub = CoxeterGraph(len(support), frozenset(edges))
    near = tuple(sum(1 << t - 1 for t in sub.neighbors[i]) | 1 << i for i in range(sub.n))
    parts: list[int] = []
    for s, closed in enumerate(near):
        touching = [p for p in parts if p & closed]
        parts = [p for p in parts if not p & closed] + [sum(touching, 1 << s)]
    return sub, near, tuple(parts)


def _capped_walk(sub: CoxeterGraph, start: list, bit: dict, letters: list[int], near: tuple[int, ...],
                 length: int, cap: int) -> None:
    """Raise the class error if a partial count of the lex-least words of u,
    of ``length`` and whose inverse has columns ``start``, passes ``cap``.
    A state is v, named as in the pass by the bitmask of the roots placed,
    and the letters that may not come next: appending c adds the letters
    below c and drops those equal or adjacent to c."""
    memo: dict = {}

    def count(cols: list, mask: int, left: int, blocked: int) -> int:
        if not left:
            return 1
        state = (mask, blocked)
        if state in memo or len(memo) >= cap * length:  # past the budget, a new state counts 0
            return memo.get(state, 0)
        total = 0
        for s in letters:
            c = cols[s]
            if not blocked >> s & 1 and c < 0:
                moved = cols[:]
                _step(sub, moved, s + 1)
                total += count(moved, mask | bit[c], left - 1, (blocked | (1 << s) - 1) & ~near[s])
                if total > cap:
                    raise CapExceededError(f"more than {cap} commutation classes", count=cap + 1)
        memo[state] = total
        return total

    count(start, 0, length, 0)
    del count  # count's closure holds count: break the cycle, so the memo goes on return


def _pass(sub: CoxeterGraph, start: list, bit: dict, ends: dict, word: bytes, near: tuple[int, ...],
          shift: int, cap: int) -> dict[bytes, int]:
    """The classes of the factor u that ``word`` spells, lex-least word to
    ``size << shift | key``.  A layer maps the placed-root bitmask of each v,
    from u^-1 (``start`` on u's letters), to v's columns and classes;
    ``bit`` maps a piece's column to its root's bit, and ``ends`` maps it to
    the (low summand's root bit, key bit) of each triple it is the high
    summand of."""
    letters = sorted(set(word))
    pieces = {s: bytes((s,)) for s in letters}
    free = {s: bytes([t for t in range(len(near)) if not near[s] >> t & 1]) for s in letters}
    lower = {s: bytes([t for t in free[s] if t < s]) for s in letters}
    sizes = -1 << shift
    layer = {0: (start, {b"": 1 << shift})}
    walked = False
    for _ in word:
        grown: dict = {}
        total = 0
        while layer:  # popped, so each v's classes are freed once pushed
            mask, (cols, classes) = layer.popitem()
            for s in letters:
                c = cols[s]
                if not c < 0:
                    continue
                to = mask | bit[c]
                entry = grown.get(to)
                if entry is None:
                    moved = cols[:]
                    _step(sub, moved, s + 1)
                    entry = grown[to] = moved, {}
                into = entry[1]
                total -= len(into)
                placed = sum([j for low, j in ends[c] if mask & low]) if c in ends else 0
                piece, commuting, below = pieces[s], free[s], lower[s]
                for x, k in classes.items():  # s joins the run of letters commuting with it
                    rest = x[len(x.rstrip(commuting)):].lstrip(below)  # that ends x, before its first above s
                    y = x[: len(x) - len(rest)] + piece + rest
                    into[y] = into[y] + (k & sizes) if y in into else k | placed  # one key, however reached
                total += len(into)
            if total > cap and not walked:
                walked = True
                _capped_walk(sub, start, bit, letters, near, len(word), cap)
            if len(grown) > cap:
                raise CapExceededError(
                    f"more than {cap} down-sets of one size in a class heap", count=cap + 1
                )
        layer = grown
    (_, classes), = layer.values()
    return classes


class _Engine:
    """The commutation classes of one element, from one pass per factor.

    Words are ``bytes`` over w's support relabelled in order: letter i is
    ``support[i]``, and ``near[i]`` has bit j set when letters i and j are
    equal or adjacent.  ``classes`` maps each class's lex-least word, in
    sorted order, to its key, bit j for the j-th sorted inversion triple, and
    ``sizes`` holds their sizes in that order.  ``labels`` holds the
    contractible triples, sorted, and ``places`` their key bits.  ``cap``
    bounds the classes, the prefixes of one length in a pass and the words
    ``members`` lists.
    """

    __slots__ = ("cap", "support", "near", "classes", "sizes", "labels", "places")

    def __init__(self, w: Element, cap: int):
        from .triples import inversion_triples  # triples imports this module
        g, least = w.graph, canonical_word(w)
        support = tuple(sorted(set(least)))
        letter = {s: i for i, s in enumerate(support)}
        sub, near, components = _induced(g, support)
        word = bytes([letter[s] for s in least])
        encode, decode = _calculus(sub)
        start, bit = encode([_identity(g.n)[s - 1] for s in support]), {}
        for i in range(len(word) - 1, -1, -1):  # start runs to w^-1, its column of word[i] to -root i
            _step(sub, start, word[i] + 1)
            bit[start[word[i]]] = 1 << i
        column = dict(zip(decode([-c for c in bit], g.n), bit))
        triples, ends = sorted(inversion_triples(w)), {}
        for j, t in enumerate(triples):
            ends.setdefault(column[t.high], []).append((bit[column[t.low]], 1 << j))
        shift = len(triples)
        factors = [bytes([s for s in word if part >> s & 1]) for part in components]
        parts = [_pass(sub, start, bit, ends, u, near, shift, cap) for u in factors]
        if prod(map(len, parts)) > cap:
            raise CapExceededError(f"more than {cap} commutation classes", count=cap + 1)
        every = (1 << shift) - 1
        rows = list(parts[0].items()) if parts else [(b"", 1 << shift)]
        for classes in parts[1:]:  # a class is one class per factor: words shuffle theirs, keys OR
            rows = [(bytes(merge(x, y)), (k >> shift) * (m >> shift) << shift | (k | m) & every)
                    for x, k in rows for y, m in classes.items()]
        ways = factorial(len(word)) // prod(factorial(len(u)) for u in factors)
        rows.sort()
        self.cap = cap
        self.support, self.near = support, near
        self.sizes = [ways * (k >> shift) for _, k in rows]
        self.classes = {x: k & every for x, k in rows}
        keys = self.classes.values()  # a label's bit varies over the classes, any other is fixed
        varied = functools.reduce(int.__or__, keys) ^ functools.reduce(int.__and__, keys)
        self.places = tuple([j for j in range(shift) if varied >> j & 1])
        self.labels = tuple([triples[j] for j in self.places])

    def mask(self, precedence: Precedence) -> int:
        """The key bits of the labels whose summands ``precedence`` orders against lex."""
        return sum(1 << j for j, t in zip(self.places, self.labels) if not precedence.precedes(t.low, t.high))

    def bits(self, x: int) -> tuple[int, ...]:
        """The bits of ``x`` at the labels' places, per sorted label."""
        return tuple([x >> j & 1 for j in self.places])

    def vertices(self, g: CoxeterGraph) -> tuple[CommutationClass, ...]:
        words = (tuple([self.support[s] for s in word]) for word in self.classes)
        return tuple(CommutationClass(g, word, k) for word, k in zip(words, self.sizes))

    def members(self, g: CoxeterGraph) -> Iterator[tuple[list[Word], list[tuple[Root, ...]]]]:
        """Per class, in class order, its reduced words and their root
        sequences, listed by peeling maximal pieces off its lex-least word.

        The pieces still in the heap are a mask of word positions, and each
        piece carries its root (a root sequence runs right to left).  A
        backward scan over the mask finds the maximal pieces: each in turn
        is written, as a letter of w, at the last open place of the word
        and the first open place of its root sequence, and the rest is
        peeled.
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
    """The signature of class c, read off its key."""
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
    """The classes of w, joined where their keys differ in one bit, each on
    the side of its key's weight parity at the labels' places."""
    e = _engine(w, cap)
    vertices = e.vertices(w.graph)
    rank = {key: i for i, key in enumerate(e.classes.values())}
    flips = [1 << j for j in e.places]
    labelled = sum(flips)
    edges = ((i, k) for key, i in rank.items() for f in flips if (k := rank.get(key ^ f, -1)) > i)
    sides = bytes([(key & labelled).bit_count() & 1 for key in rank])
    return CommutationGraph(vertices, tuple(sorted(edges)), sides)


def is_bipartite(graph: CommutationGraph) -> bool:
    """Whether every edge joins two sides: ``sides`` is then a 2-colouring."""
    sides = graph.sides
    return all(sides[i] != sides[k] for i, k in graph.edges)


_PARITY_FILL = {1: "#aec7e8", -1: "#ffbb78"}


def to_dot(
    graph: CommutationGraph,
    parities: tuple[int, ...] | None = None,
    element_label: str | None = None,
) -> Iterator[str]:
    """DOT text, line by line: one vertex per class labeled by its canonical word."""
    yield "graph commutation {\n"
    if element_label is not None:
        yield f"  // element: {element_label}\n"
    yield f"  // bipartite: {str(is_bipartite(graph)).lower()}\n"
    yield "  node [shape=box];\n"
    for i, c in enumerate(graph.vertices):
        label = format_word(c.canonical_word) or "e"
        attrs = f'label="{label}"'
        if parities is not None:
            attrs += f', style=filled, fillcolor="{_PARITY_FILL[parities[i]]}"'
        yield f"  c{i} [{attrs}];\n"
    for i, j in graph.edges:
        yield f"  c{i} -- c{j};\n"
    yield "}\n"
