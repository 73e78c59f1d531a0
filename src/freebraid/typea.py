"""Symmetric-group realization: one-line notation, patterns, triples.

Generator i of the path graph on n-1 nodes is the transposition (i, i+1),
and the simple root a_i is e_i - e_{i+1} in coordinates.  A positive root
e_i - e_j lies in the inversion set exactly when the one-line notation has
w(i) > w(j), so inversion triples are decreasing subsequences of length 3,
and the freely braided elements are exactly the permutations avoiding
3421, 4231, 4312 and 4321.  class_counts counts the commutation classes of
every permutation of a rank at once, without building any element.

>>> parse_permutation("4231")
(4, 2, 3, 1)
>>> is_freely_braided_perm((4, 2, 3, 1))
False
>>> element_to_perm(parse_graph("A3"), perm_to_element((3, 1, 4, 2)))
(3, 1, 4, 2)
>>> class_counts(3)[(3, 2, 1)], inversion_triple_count((3, 2, 1))
(2, 1)
"""

from __future__ import annotations

from itertools import combinations, permutations

from .coxeter import (
    CapExceededError,
    CoxeterGraph,
    Element,
    ParseError,
    Root,
    canonical_word,
    is_standard_a_graph,
    parse_graph,
)
from .rootseq import InversionTriple

__all__ = [
    "Permutation",
    "FREELY_BRAIDED_OBSTRUCTIONS",
    "parse_permutation",
    "format_permutation",
    "perm_to_element",
    "element_to_perm",
    "inversion_triples_1line",
    "contains_pattern",
    "is_freely_braided_perm",
    "enumerate_freely_braided",
]

Permutation = tuple[int, ...]

# A permutation is freely braided iff it avoids all four of these.
FREELY_BRAIDED_OBSTRUCTIONS: tuple[Permutation, ...] = (
    (3, 4, 2, 1),
    (4, 2, 3, 1),
    (4, 3, 1, 2),
    (4, 3, 2, 1),
)

DEFAULT_MAX_ENUM_RANK = 8


def _check_perm(p: Permutation) -> None:
    if sorted(p) != list(range(1, len(p) + 1)):
        raise ValueError(f"not a permutation of 1..{len(p)}: {p}")


def parse_permutation(text: str) -> Permutation:
    """One-line notation: plain digits up to rank 9, comma-separated beyond."""
    text = text.strip()
    if not text:
        raise ParseError("empty permutation")
    try:
        if "," in text:
            p = tuple(int(x) for x in text.split(","))
        else:
            p = tuple(int(ch) for ch in text)
    except ValueError:
        raise ParseError(f"bad permutation {text!r}") from None
    try:
        _check_perm(p)
    except ValueError as e:
        raise ParseError(str(e)) from None
    return p


def format_permutation(p: Permutation) -> str:
    if len(p) <= 9:
        return "".join(str(v) for v in p)
    return ",".join(str(v) for v in p)


def perm_to_element(p: Permutation) -> Element:
    """Read the columns off the one-line notation: w(a_i) = e_p(i) - e_p(i+1).

    That root is _eps_root(p(i), p(i+1)), negated when p(i) > p(i+1), and
    the length of w is its inversion count.
    """
    _check_perm(p)
    n = len(p)
    columns = tuple(
        _eps_root(a, b, n) if a < b else tuple(-c for c in _eps_root(b, a, n))
        for a, b in zip(p, p[1:])
    )
    length = sum(a > b for a, b in combinations(p, 2))
    return Element(parse_graph(f"A{n - 1}"), columns, length)


def element_to_perm(g: CoxeterGraph, w: Element) -> Permutation:
    """Inverse of perm_to_element for the standard path graph on g.n nodes."""
    if not is_standard_a_graph(g):
        raise ValueError("graph is not the standard path 1-2-...-n")
    if w.graph != g:
        raise ValueError("element does not live on this graph")
    p = list(range(1, g.n + 2))
    for s in canonical_word(w):
        p[s - 1], p[s] = p[s], p[s - 1]
    return tuple(p)


def _eps_root(i: int, j: int, n: int) -> Root:
    """e_i - e_j (1 <= i < j <= n) over the simple roots of the path graph."""
    return tuple(1 if i <= t < j else 0 for t in range(1, n))


def inversion_triples_1line(p: Permutation) -> frozenset[InversionTriple]:
    """Triples straight from the one-line notation: i<j<k with w(i)>w(j)>w(k)."""
    _check_perm(p)
    n = len(p)
    out = set()
    for i, j, k in combinations(range(1, n + 1), 3):
        if p[i - 1] > p[j - 1] > p[k - 1]:
            a, b = _eps_root(i, j, n), _eps_root(j, k, n)
            lo, hi = (a, b) if a <= b else (b, a)
            out.add(InversionTriple(lo, _eps_root(i, k, n), hi))
    return frozenset(out)


def inversion_triple_count(p: Permutation) -> int:
    """Number of inversion triples, i.e. of decreasing subsequences of length 3.

    Each is counted at its middle entry p[j], as (larger entries before j)
    times (smaller entries after j).  With s smaller entries before j, those
    are j - s and p[j] - 1 - s.
    """
    _check_perm(p)
    total = 0
    for j, v in enumerate(p):
        s = sum(1 for u in p[:j] if u < v)
        total += (j - s) * (v - 1 - s)
    return total


def _standardize(vals: tuple[int, ...]) -> tuple[int, ...]:
    order = sorted(vals)
    return tuple(order.index(v) + 1 for v in vals)


def contains_pattern(p: Permutation, q: Permutation) -> bool:
    """Brute-force containment: some subsequence of p standardizes to q."""
    _check_perm(p)
    _check_perm(q)
    if len(q) > len(p):
        raise ValueError("pattern is longer than the permutation")
    return any(_standardize(sub) == q for sub in combinations(p, len(q)))


def _obstruction_ends_at(p: Permutation, last: int) -> bool:
    """Does an obstruction occur in p with p[last] as its last entry?

    Compared by value, with a, b, c, d in order and d = p[last]: 3421, 4231
    and 4321 are exactly the a > c > d < b, and 4312 is a > b > d > c.
    """
    d = p[last]
    return any(a > c > d < b or a > b > d > c for a, b, c in combinations(p[:last], 3))


def is_freely_braided_perm(p: Permutation) -> bool:
    """Pattern criterion: avoid 3421, 4231, 4312 and 4321."""
    _check_perm(p)
    return not any(_obstruction_ends_at(p, last) for last in range(3, len(p)))


def enumerate_freely_braided(
    n: int, members: bool = False, limit: int = DEFAULT_MAX_ENUM_RANK
) -> tuple[int, tuple[Permutation, ...] | None]:
    """Count (and optionally list, in lexicographic order) freely braided
    permutations of rank n.

    Rank by rank: a permutation of rank k is an avoider of rank k - 1 with a
    last value v appended (the entries >= v shifted up), and it avoids the
    obstructions exactly when none of them ends at that last entry.
    """
    if n < 1:
        raise ValueError("rank must be at least 1")
    if n > limit:
        raise CapExceededError(f"rank {n} exceeds the enumeration limit {limit}")
    level: list[Permutation] = [(1,)]
    for k in range(2, n + 1):
        extended = (tuple(x + (x >= v) for x in q) + (v,) for q in level for v in range(1, k + 1))
        level = [p for p in extended if not _obstruction_ends_at(p, k - 1)]
    found = sorted(level)
    return len(found), tuple(found) if members else None


def class_counts(n: int) -> dict[Permutation, int]:
    """Commutation classes of every permutation of rank n (n! entries), keyed
    by one-line notation, by inclusion-exclusion over maximal pieces.

    The maximal pieces of a heap of p are pairwise commuting right descents,
    and the heaps whose maximal pieces include a set J of such descents are
    the heaps of p*w_J with J stacked on top (Cartier-Foata).  So C(e) = 1,
    and C(p) is the alternating sum of C(p*w_J) over nonempty sets J of
    right descents, no two at adjacent positions.  Every p*w_J is shorter
    than p, so the recursion ends, at most C(n, 2) calls deep.
    """
    if n < 1:
        raise ValueError("rank must be at least 1")
    counts = {tuple(range(1, n + 1)): 1}

    def count(p: Permutation) -> int:
        descents = [i for i in range(n - 1) if p[i] > p[i + 1]]
        total = 0
        # (p*w_J, +1 when |J| is even, first position J may still add)
        stack = [(p, 1, 0)]
        while stack:
            q, sign, lowest = stack.pop()
            for i in descents:
                if i >= lowest:
                    r = q[:i] + (q[i + 1], q[i]) + q[i + 2:]
                    k = counts.get(r)
                    total += sign * (count(r) if k is None else k)
                    stack.append((r, -sign, i + 2))
        counts[p] = total
        return total

    for p in permutations(range(1, n + 1)):
        if p not in counts:
            count(p)
    return counts
