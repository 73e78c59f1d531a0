"""Simply laced Coxeter systems with exact integer root arithmetic.

Generators are numbered 1..n.  A root is an integer coefficient vector over
the simple roots, stored as a plain tuple.  A graph is its edges: the
symmetrized Cartan pairing (twice the usual bilinear form) and the simple
reflections are read off them, so every pairing is an exact integer and two
roots are orthogonal exactly when their pairing is 0.

A group element w is stored as its column images: the roots w(a_s), one per
generator s, which together are its matrix on root coordinates (as in
Casselman, Machine calculations in Weyl groups, 1994).  Every word
operation is a right multiplication by one generator, and w*s differs from w
in the columns of s and its neighbours only (``_step``).  Lengths come from
the descent test l(ws) > l(w) exactly when w(a_s) is a positive root
(Bjorner-Brenti, Combinatorics of Coxeter Groups, 4.4).

The word-calculus loops run one ``_step`` and one descent test on columns
held in one of two encodings (``_calculus``).  On a graph of finite type
each column is packed into one int, the sum of c_i * 2^(4i).  Packing is
linear, so a column step is one int addition per neighbour and one
negation.  A root's coefficients share one sign, so its packed int has the
root's sign, and a descent test is the sign test c < 0.  Four bits decode
exactly, as coefficients are at most 6 (the highest root of E8).  Elsewhere
coefficients are unbounded, and a column is a ``_Vector``: a tuple that
adds, negates and compares with 0 as a packed int does.  Results are plain
tuples either way.  No word operation calls ``reflect`` or ``act``: they,
``reflection_matrix`` and ``mat_mul`` are the tuple definitions that the
oracle and the tests compare against.

``_invert`` reads w^-1 and the inversion set of w off the images w(b) of
the positive roots b.  Up to rank 8 on packed columns these are a per-graph
tree (``_root_tree``), each root past the simple ones its parent plus one
simple root, so each image is one int addition, w(parent) + w(a_s), at most
120 (E8) whatever the length of w.  Elsewhere right descents are peeled.
"""

from __future__ import annotations

import re
from functools import lru_cache
from operator import add, neg, sub
from typing import NamedTuple

__all__ = [
    "Word",
    "Root",
    "Matrix",
    "ParseError",
    "CapExceededError",
    "CoxeterGraph",
    "Element",
    "parse_graph",
    "parse_word",
    "format_word",
    "simple_root",
    "pairing",
    "is_positive_root",
    "root_str",
    "reflect",
    "act",
    "element_of",
    "identity_element",
    "times_generator",
    "is_right_descent",
    "canonical_word",
    "reduce_word",
    "is_reduced",
    "is_path_forest",
    "is_standard_a_graph",
]

Word = tuple[int, ...]
Root = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]

# Guards for the enumeration entry points.  The sequence cap bounds three
# things: commutation classes, the prefixes of one length that a pass of the
# class engine holds, and reduced words where words are listed.  An element
# has at most 2^T classes, T its inversion triples; where 2^T passes the cap,
# a counting walk decides before each pass whether the factor has more
# classes, within a budget of cap times the length in states.  The length
# cap bounds the words we agree to enumerate, and so an element's support:
# relabelled, its letters fit a byte, which is how the class layer stores
# every word.  It also bounds the recursions of that walk and of
# _Engine.members, one call per letter, far below Python's limit of 1,000.
DEFAULT_SEQUENCE_CAP = 10**6
DEFAULT_MAX_WORD_LENGTH = 64

_NAMED_GRAPH = re.compile(r"^([ADE])(\d+)$")
_EDGE_SPEC = re.compile(r"^(\d+)-(\d+)$")


class ParseError(ValueError):
    """Malformed graph spec, word, or permutation input."""


class CapExceededError(RuntimeError):
    """An enumeration outgrew its cap; ``count`` holds the partial tally."""

    def __init__(self, message: str, count: int | None = None):
        super().__init__(message)
        self.count = count


class CoxeterGraph:
    """A simply laced Coxeter graph: m(s,t)=3 on edges, m(s,t)=2 off them.

    ``edges`` holds generator pairs normalized to (min, max), ``neighbors``
    the adjacency lists; equality, hashing and the repr read ``n`` and
    ``edges`` only.  No code assigns to a graph, and nothing guards it.
    """

    __slots__ = ("n", "edges", "neighbors")

    def __init__(self, n: int, edges: frozenset[tuple[int, int]]):
        if n < 0:
            raise ParseError("generator count must be nonnegative")
        normalized = set()
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for s, t in edges:
            if s == t:
                raise ParseError(f"self-loop at generator {s}")
            if not (1 <= s <= n and 1 <= t <= n):
                raise ParseError(f"edge {s}-{t} out of range 1..{n}")
            normalized.add((min(s, t), max(s, t)))
            nbrs[s - 1].add(t)
            nbrs[t - 1].add(s)
        self.n, self.edges = n, frozenset(normalized)
        self.neighbors = tuple(tuple(sorted(v)) for v in nbrs)

    def __eq__(self, other: object) -> bool:
        return other.__class__ is CoxeterGraph and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"CoxeterGraph(n={self.n!r}, edges={self.edges!r})"

    def adjacent(self, s: int, t: int) -> bool:
        return (min(s, t), max(s, t)) in self.edges

    def m(self, s: int, t: int) -> int:
        """Coxeter exponent: 1 on the diagonal, 3 across an edge, else 2."""
        if s == t:
            return 1
        return 3 if self.adjacent(s, t) else 2

    def generators(self) -> range:
        return range(1, self.n + 1)


def parse_graph(spec: str) -> CoxeterGraph:
    """Build a graph from a name (A5, D4, E8) or an edge list ("1-2,2-3").

    Named families: A<k> is the path 1-2-...-k; D<k> (k >= 4) hangs leaves
    1, 3, 4 off hub 2 with the tail 4-5-...-k; E6/E7/E8 use the standard
    numbering with branch node 4.  Edge lists infer n from the largest index.
    """
    text = spec.strip()
    if not text:
        raise ParseError("empty graph spec")
    named = _NAMED_GRAPH.match(text)
    if named:
        family, k = named.group(1), int(named.group(2))
        if family == "A":
            return CoxeterGraph(k, frozenset((i, i + 1) for i in range(1, k)))
        if family == "D":
            if k < 4:
                raise ParseError(f"D{k} not supported; rank must be at least 4")
            edges = {(1, 2), (2, 3), (2, 4)}
            edges.update((i, i + 1) for i in range(4, k))
            return CoxeterGraph(k, frozenset(edges))
        if k not in (6, 7, 8):
            raise ParseError(f"E{k} not supported; rank must be 6, 7 or 8")
        edges = {(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)}
        if k >= 7:
            edges.add((6, 7))
        if k == 8:
            edges.add((7, 8))
        return CoxeterGraph(k, frozenset(edges))
    pairs = []
    for part in text.split(","):
        m = _EDGE_SPEC.match(part.strip())
        if not m:
            raise ParseError(f"bad edge {part.strip()!r}; expected like 1-2")
        s, t = int(m.group(1)), int(m.group(2))
        if s < 1 or t < 1:
            raise ParseError(f"node index out of range in edge {part.strip()!r}")
        pairs.append((s, t))
    n = max(max(s, t) for s, t in pairs)
    return CoxeterGraph(n, frozenset(pairs))


def parse_word(text: str) -> Word:
    """Parse whitespace- or comma-separated generator indices."""
    parts = [p for p in re.split(r"[,\s]+", text.strip()) if p]
    try:
        letters = tuple(int(p) for p in parts)
    except ValueError:
        raise ParseError(f"bad word {text!r}; expected integers") from None
    if any(s < 1 for s in letters):
        raise ParseError(f"bad word {text!r}; generator indices start at 1")
    return letters


def format_word(word: Word) -> str:
    return " ".join(str(s) for s in word)


def _check_letter(g: CoxeterGraph, s: int) -> None:
    if not (1 <= s <= g.n):
        raise ValueError(f"generator {s} out of range 1..{g.n}")


def _check_word(g: CoxeterGraph, word: Word) -> None:
    if word and (min(word) < 1 or max(word) > g.n):
        _check_letter(g, next(s for s in word if not 1 <= s <= g.n))


def simple_root(g: CoxeterGraph, s: int) -> Root:
    _check_letter(g, s)
    return tuple(1 if i == s - 1 else 0 for i in range(g.n))


def pairing(g: CoxeterGraph, a: Root, b: Root) -> int:
    """Symmetrized Cartan pairing; 0 exactly when a and b are orthogonal."""
    total = 2 * sum(x * y for x, y in zip(a, b))
    for s, t in g.edges:
        total -= a[s - 1] * b[t - 1] + a[t - 1] * b[s - 1]
    return total


def is_positive_root(r: Root) -> bool:
    return any(c > 0 for c in r) and all(c >= 0 for c in r)


def root_str(r: Root) -> str:
    """Render a root like ``a1+2a2+a3`` (or ``-a1-a2`` for negatives)."""
    parts: list[str] = []
    for i, c in enumerate(r):
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        parts.append(f"{sign}{'' if mag == 1 else mag}a{i + 1}")
    return "".join(parts) if parts else "0"


def reflect(g: CoxeterGraph, s: int, r: Root) -> Root:
    """Apply the simple reflection s to the root r (an involution)."""
    _check_letter(g, s)
    c = 2 * r[s - 1] - sum(r[t - 1] for t in g.neighbors[s - 1])
    out = list(r)
    out[s - 1] -= c
    return tuple(out)


def act(g: CoxeterGraph, word: Word, r: Root) -> Root:
    """Apply the product of the word's letters to r, rightmost letter first."""
    _check_word(g, word)
    for s in reversed(word):
        r = reflect(g, s, r)
    return r


@lru_cache(maxsize=None)
def _identity(n: int) -> Matrix:
    """The identity matrix, which is also the columns a_1, ..., a_n of e."""
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


@lru_cache(maxsize=None)
def reflection_matrix(g: CoxeterGraph, s: int) -> Matrix:
    """Matrix of the simple reflection s in simple-root coordinates.

    s(a_t) differs from a_t only in its a_s coefficient, so only row s
    differs from the identity: -1 at s, as s(a_s) = -a_s, and +1 at each
    neighbour t, as s(a_t) = a_t + a_s.
    """
    _check_letter(g, s)
    row = tuple(-1 if t == s else int(t in g.neighbors[s - 1]) for t in g.generators())
    return _identity(g.n)[: s - 1] + (row,) + _identity(g.n)[s:]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b)) if b else ()
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


class Element(NamedTuple):
    """A group element: its column images plus its length.

    ``columns[s - 1]`` is w(a_s), the image of the simple root of s, so the
    columns are w's matrix on root coordinates, read column by column.  They
    determine w and its ``length``; equality and hashing read all three.
    """

    graph: CoxeterGraph
    columns: tuple[Root, ...]
    length: int


@lru_cache(maxsize=256)
def _is_finite_type(g: CoxeterGraph) -> bool:
    """True iff the group is finite: its Cartan matrix is positive definite
    (Humphreys, Reflection Groups and Coxeter Groups, 6.4), i.e. every pivot
    of its elimination is positive.  Such a graph is a forest, as a shortest
    cycle is chordless and a chordless cycle is the affine A~ (Humphreys
    2.5).  On a forest, eliminating leaves first fills in nothing: a leaf
    with pivot p/q takes q/p off its one remaining neighbour's pivot.  So
    leaves are peeled, each pivot an integer numerator over a positive
    denominator, until none is left, in O(n + |E|) steps.  A peeled leaf's
    numerator is the determinant of a tree of finite type, at most n + 1."""
    degree, num, den = [len(v) for v in g.neighbors], [2] * g.n, [1] * g.n
    leaves = [s for s in range(g.n) if degree[s] == 1]
    for s in leaves:
        if degree[s] != 1:
            continue
        degree[s] = 0
        t = next(u - 1 for u in g.neighbors[s] if degree[u - 1])
        num[t], den[t] = num[t] * num[s] - den[s] * den[t], den[t] * num[s]
        if num[t] <= 0:
            return False
        degree[t] -= 1
        if degree[t] == 1:
            leaves.append(t)
    return not any(degree)


class _Vector(tuple):
    """A root off finite type, as a column: it adds, subtracts and negates
    coefficient by coefficient and, as a root's coefficients share one sign,
    compares with 0 by its sign, all as a packed int does."""

    __slots__ = ()

    def __add__(self, other: Root) -> _Vector:
        return _Vector(map(add, self, other))

    def __sub__(self, other: Root) -> _Vector:
        return _Vector(map(sub, self, other))

    def __neg__(self) -> _Vector:
        return _Vector(map(neg, self))

    def __lt__(self, zero: int) -> bool:
        return min(self) < zero

    def __gt__(self, zero: int) -> bool:
        return max(self) > zero


@lru_cache(maxsize=4096)
def _pack(r: Root) -> int:
    return sum(c << (4 * i) for i, c in enumerate(r))


@lru_cache(maxsize=4096)
def _unpack(p: int, n: int) -> Root:
    """Decode a root packed at 4 bits: its digits, read as signed, low end first."""
    out = []
    for _ in range(n):
        out.append((p + 8) % 16 - 8)
        p = (p - out[-1]) >> 4
    return tuple(out)


# How the word-calculus loops hold columns, as the functions (encode,
# decode): packed ints on a graph of finite type, ``_Vector``s elsewhere
# (``_calculus``).  The loops use only +, - and sign tests on a column, so
# their results are the same tuples either way.
_PACKED = (lambda roots: [_pack(r) for r in roots], lambda cols, n: tuple(_unpack(p, n) for p in cols))
_VECTORS = (lambda roots: list(map(_Vector, roots)), lambda cols, n: tuple(map(tuple, cols)))


def _calculus(g: CoxeterGraph):
    return _PACKED if _is_finite_type(g) else _VECTORS


def _step(g: CoxeterGraph, cols: list, s: int) -> bool:
    """Replace the columns of w by those of w*s; True iff s was an ascent of w.

    w*s sends a_s to -w(a_s) and each neighbour a_t of s to w(a_t) + w(a_s),
    and leaves the other columns alone: one addition per neighbour and one
    negation.  The length goes up exactly when w(a_s) is positive.
    """
    c = cols[s - 1]
    for t in g.neighbors[s - 1]:
        cols[t - 1] += c
    cols[s - 1] = -c
    return c > 0


def _least_descent(cols: list) -> int:
    for s, c in enumerate(cols, 1):
        if c < 0:
            return s
    raise ValueError("columns are not those of a Coxeter group element")


def identity_element(g: CoxeterGraph) -> Element:
    return Element(g, _identity(g.n), 0)


def element_of(g: CoxeterGraph, word: Word) -> Element:
    """Evaluate a (not necessarily reduced) word to an Element.

    One column step per letter; the length is the number of ascents minus
    the number of descents met on the way.
    """
    _check_word(g, word)
    encode, decode = _calculus(g)
    cols = encode(_identity(g.n))
    length = 0
    for s in word:
        length += 1 if _step(g, cols, s) else -1
    return Element(g, decode(cols, g.n), length)


def is_right_descent(w: Element, s: int) -> bool:
    """True iff w sends the simple root of s to a negative root."""
    _check_letter(w.graph, s)
    return max(w.columns[s - 1]) <= 0


def times_generator(w: Element, s: int) -> Element:
    """Right-multiply by one generator, tracking length exactly."""
    g = w.graph
    _check_letter(g, s)
    encode, decode = _calculus(g)
    cols = encode(w.columns)
    up = _step(g, cols, s)
    return Element(g, decode(cols, g.n), w.length + (1 if up else -1))


def _peel(w: Element) -> tuple[list, list]:
    """What ``_invert`` returns, by peeling least right descents off w down to
    e in 2L column steps: w^-1 is built alongside, and its column of each
    letter peeled is an inversion of w (entry i of the word's root sequence)."""
    g = w.graph
    encode = _calculus(g)[0]
    cols = encode(w.columns)
    inv = encode(_identity(g.n))
    roots = []
    for _ in range(w.length):
        s = _least_descent(cols)
        roots.append(inv[s - 1])
        _step(g, cols, s)
        _step(g, inv, s)
    return inv, roots


def _on_tree(g: CoxeterGraph) -> bool:
    """Packed columns up to rank 8: at most 120 positive roots (E8).  That
    count sets the gate, not the types past rank 8 (E8 and A2 disjoint has
    123): it grows as the rank squared (A60: 1,830), and a short peel costs less."""
    return g.n <= 8 and _calculus(g) is _PACKED


@lru_cache(maxsize=32)
def _root_tree(g: CoxeterGraph) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """The positive roots of a graph of finite type as packed ints, simple ones
    first, then by height, root n + k grown as parent + a_s by the k-th
    (parent, s - 1).  As (r, r) = 2 for a root r, b + a_s is one exactly when
    (b, a_s) = -1, and each b past a simple root is grown so from b - a_s: its
    coefficients weight the (b, a_s) to (b, b) = 2, so one (b, a_s) is 1."""
    roots, grown = list(_identity(g.n)), {}
    for i, b in enumerate(roots):
        for s, near in enumerate(g.neighbors):
            c = b[:s] + (b[s] + 1,) + b[s + 1:]
            if sum(b[t - 1] for t in near) - 2 * b[s] == 1 and c not in grown:
                grown[c] = i, s
                roots.append(c)
    return tuple(map(_pack, roots)), tuple(grown.values())


def _invert(w: Element) -> tuple[list, list]:
    """The columns of w^-1 and the inversion set of w, encoded as ``_calculus``
    does.  Under ``_on_tree``, w(b) along ``_root_tree``: the inversion set
    is the b with w(b) < 0, and column s of w^-1 the b with w(b) = a_s, or
    -b where w(b) = -a_s.  Elsewhere ``_peel``."""
    g = w.graph
    if not _on_tree(g):
        return _peel(w)
    roots, tree = _root_tree(g)
    image = [_pack(r) for r in w.columns]
    for p, s in tree:
        image.append(image[p] + image[s])
    root_at = dict(zip(image, roots))
    return [root_at.get(a) or -root_at[-a] for a in roots[:g.n]], [b for b, c in zip(roots, image) if c < 0]


def canonical_word(w: Element) -> Word:
    """The lexicographically least reduced word for w.

    Greedy: the valid first letters of reduced words are exactly the left
    descents, so taking the smallest one at each step minimizes the word.
    Left descents of w are right descents of its inverse, which ``_invert``
    reads off; peeling least right descents off it spells the word.  Cost,
    for length L and rank n: |Phi+| int additions up to rank 8 (at most 120,
    E8), else 2L column steps and L descent scans, then L of each; a scan is
    O(n) int compares on a graph of finite type, elsewhere O(n^2).
    """
    g = w.graph
    inv = _invert(w)[0]
    out: list[int] = []
    for _ in range(w.length):
        s = _least_descent(inv)
        _step(g, inv, s)
        out.append(s)
    return tuple(out)


def reduce_word(g: CoxeterGraph, word: Word) -> Word:
    """Reduced word for the same element, via the exchange condition.

    Letters are folded in left to right over a reduced prefix u = s_1...s_k,
    kept as its columns.  A letter s with u(a_s) positive is appended.
    Otherwise the exchange condition deletes the one s_i with
    s_{i+1}...s_k(a_s) = a_{s_i}, that is, with column s_i of
    v = s_k...s_{i+1} equal to a_s: v starts as the unit columns and steps
    by s_k, s_{k-1}, ... until that holds.  Either way u becomes u*s, one
    column step.  Cost: one column step per letter (on a graph of finite
    type a sign test and O(deg) int additions); a deletion adds a copy of
    the n unit columns and one column step per letter walked back.
    """
    _check_word(g, word)
    simple = _calculus(g)[0](_identity(g.n))
    cols = simple[:]
    prefix: list[int] = []
    for s in word:
        if _step(g, cols, s):
            prefix.append(s)
            continue
        v = simple[:]
        for i in range(len(prefix) - 1, -1, -1):
            if v[prefix[i] - 1] == simple[s - 1]:
                break
            _step(g, v, prefix[i])
        del prefix[i]
    return tuple(prefix)


def is_reduced(g: CoxeterGraph, word: Word) -> bool:
    """True iff every letter is an ascent of the prefix before it; stops at
    the first descent."""
    _check_word(g, word)
    cols = _calculus(g)[0](_identity(g.n))
    return all(_step(g, cols, s) for s in word)


def is_path_forest(g: CoxeterGraph) -> bool:
    """True iff every connected component of the graph is a simple path: no
    node has degree 3 or more and, as a cycle is not of finite type, the
    graph is of finite type.  O(n + |E|), and cached per graph."""
    return all(len(v) <= 2 for v in g.neighbors) and _is_finite_type(g)


def is_standard_a_graph(g: CoxeterGraph) -> bool:
    """True iff the graph is the path 1-2-...-n with labels in path order."""
    return g.edges == frozenset((i, i + 1) for i in range(1, g.n))
