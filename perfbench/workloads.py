"""Workload inputs and correctness gates for the freebraid benchmark.

Inputs are made here, from the workload seed, without importing freebraid:
random reduced words come from a small Cartan-matrix walk of the benchmark's
own, so the program only ever sees the generated words.  Each gate checks a
run's answers and raises GateError on a mismatch; a mismatch aborts the run
and is never counted as a failed op.
"""

from __future__ import annotations

import json
import random
from math import factorial, prod
from pathlib import Path

HERE = Path(__file__).resolve().parent
POOL_FILE = HERE / "de_pool.json"

# Commutation classes of w0 in S_n (Knuth, Axioms and Hulls; OEIS A006245).
KNUTH_A006245 = (1, 1, 2, 8, 62, 908, 24698)
# `fb enumerate -n 6` from freebraid 0.1.0: freely braided permutations of S_k.
S6_FREELY_BRAIDED = (1, 2, 6, 20, 71, 260)
# Commutation graph of w0(A5), from freebraid 0.1.0.
A5_W0_EDGES = 2144
# Inversion triples of w0(E8), from freebraid 0.1.0.
E8_W0_TRIPLES = 1120
E8_W0_LENGTH = 120

E8_OPS = 200          # word-calculus ops per pass; at least 100 for p90
E8_TAIL = 8           # letters of the cancelling tail u + reversed(u)
DE_GRAPHS = ("D4", "D5", "E6", "E7", "E8")
DE_MOVES = 4          # random braid-move attempts per letter of a de_sweep word


class GateError(Exception):
    """A run produced a wrong answer."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise GateError(message)


def stanley_w0_words(n: int) -> int:
    """Reduced words of w0 in S_n: C(n,2)! / prod (2i-1)^(n-i) (Stanley 1984)."""
    return factorial(n * (n - 1) // 2) // prod((2 * i - 1) ** (n - i) for i in range(1, n))


# --- graphs and random reduced words -------------------------------------

def graph_edges(spec: str) -> tuple[int, set[tuple[int, int]]]:
    """Rank and edges of A<k>, D<k>, E6-E8 in freebraid's numbering."""
    family, k = spec[0], int(spec[1:])
    if family == "A":
        return k, {(i, i + 1) for i in range(1, k)}
    if family == "D":
        return k, {(1, 2), (2, 3), (2, 4)} | {(i, i + 1) for i in range(4, k)}
    edges = {(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)} | {(i, i + 1) for i in range(6, k)}
    return k, edges


def random_reduced_word(spec: str, length: int, rng: random.Random) -> list[int]:
    """Random walk up right weak order for at most `length` steps.

    cols[t] holds w(alpha_t) in simple-root coordinates; t is a right ascent
    exactly when that root is positive.  Right-multiplying by s replaces
    w(alpha_t) with w(s alpha_t) = w(alpha_t) - a_st w(alpha_s).  The walk
    stops early at the longest element.
    """
    n, edges = graph_edges(spec)
    nbrs = {s: set() for s in range(n)}
    for s, t in edges:
        nbrs[s - 1].add(t - 1)
        nbrs[t - 1].add(s - 1)
    cols = [[int(i == t) for i in range(n)] for t in range(n)]
    word: list[int] = []
    while len(word) < length:
        ascents = [s for s in range(n) if max(cols[s]) > 0]
        if not ascents:
            break
        s = rng.choice(ascents)
        cs = cols[s]
        for t in nbrs[s]:
            cols[t] = [a + b for a, b in zip(cols[t], cs)]
        cols[s] = [-x for x in cs]
        word.append(s + 1)
    return word


def shuffle_word(spec: str, word: list[int], rng: random.Random) -> list[int]:
    """Another reduced word of the same element, by random braid moves.

    Each attempt picks a position: commuting neighbours st swap to ts, and
    sts becomes tst across an edge (Matsumoto: these moves stay within the
    reduced words of one element).
    """
    _, edges = graph_edges(spec)
    adjacent = edges | {(t, s) for s, t in edges}
    w = list(word)
    for _ in range(DE_MOVES * len(w) if len(w) > 1 else 0):
        p = rng.randrange(len(w) - 1)
        s, t = w[p], w[p + 1]
        if (s, t) not in adjacent:
            w[p], w[p + 1] = t, s
        elif p + 2 < len(w) and w[p + 2] == s:
            w[p:p + 3] = [t, s, t]
    return w


def format_word(word) -> str:
    return " ".join(str(s) for s in word)


# --- the four workloads --------------------------------------------------
#
# A workload is a dict: `kind` is "process" (each op is a whole `fb` process)
# or "batch" (one child runs every op in-process); `ops` are the runner ops;
# `graphs` are parsed during set-up; `gate` checks the answers.

def a5_w0(seed: int) -> dict:
    return {"kind": "process", "graphs": [], "gate": gate_a5_w0,
            "ops": [{"cli": ["analyze", "--perm", "654321"]}]}


def s6_sweep(seed: int) -> dict:
    return {"kind": "process", "graphs": [], "gate": gate_s6_sweep,
            "ops": [{"cli": ["enumerate", "-n", "6"]}]}


def de_sweep(seed: int) -> dict:
    """w0(D4) and the pool's 120 elements, each given as a seeded reduced word.

    The elements are fixed and grade from cheap to expensive; the seed picks
    which reduced word of each one the program receives.  The work is then
    the same for every seed, heavy tail included, where a seeded choice of
    elements made op_p90_ms and peak RSS differ by 10-13 % between seeds.
    """
    pool = json.loads(POOL_FILE.read_text())
    rng = random.Random(f"de_sweep:{seed}")
    ops = [{"cli": ["analyze", "-g", "D4", "-w", format_word(random_reduced_word("D4", 12, rng))],
            "expect": pool["d4_w0"]}]
    for e in pool["elements"]:
        word = shuffle_word(e["graph"], [int(s) for s in e["word"].split()], rng)
        ops.append({"cli": ["analyze", "-g", e["graph"], "-w", format_word(word)],
                    "expect": e["expect"]})
    return {"kind": "batch", "graphs": list(DE_GRAPHS), "gate": gate_de_sweep, "ops": ops}


def e8_words(seed: int) -> dict:
    """Seeded reduced E8 words whose lengths ramp from 12 to 120, with tails.

    The tail is a random word u followed by u reversed, so the input is not
    reduced but names the same element, whose length is the walk's length.
    The last walk, of 120 steps, always ends at w0(E8).  A smooth ramp keeps
    the latency quantiles off the gaps a few fixed lengths would leave.
    """
    rng = random.Random(f"e8_words:{seed}")
    ops = []
    for i in range(E8_OPS):
        length = 12 + (E8_W0_LENGTH - 12) * i // (E8_OPS - 1)
        word = random_reduced_word("E8", length, rng)
        u = [rng.randint(1, 8) for _ in range(E8_TAIL // 2)]
        ops.append({"words": ["E8", word + u + u[::-1]], "length": length})
    return {"kind": "batch", "graphs": ["E8"], "gate": gate_e8_words, "ops": ops}


WORKLOADS = {"a5_w0": a5_w0, "s6_sweep": s6_sweep, "de_sweep": de_sweep, "e8_words": e8_words}


# --- gates ---------------------------------------------------------------

def _edges_flip_one_bit(doc: dict) -> bool:
    bits = [c["signature_bits"] for c in doc["classes"]]
    return all(sum(x != y for x, y in zip(bits[i], bits[j])) == 1 for i, j in doc["edges"])


def _bipartite(n: int, edges) -> bool:
    """Two-colour the commutation graph by plain BFS."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    colour = [-1] * n
    for start in range(n):
        if colour[start] >= 0:
            continue
        colour[start], frontier = 0, [start]
        while frontier:
            u = frontier.pop()
            for v in adj[u]:
                if colour[v] < 0:
                    colour[v] = 1 - colour[u]
                    frontier.append(v)
                elif colour[v] == colour[u]:
                    return False
    return True


def analyze_summary(doc: dict) -> dict:
    """The facts of an `fb analyze` document that the gates pin."""
    return {
        "length": doc["length"],
        "triples": doc["n_triples"],
        "contractible": doc["N"],
        "classes": doc["class_count"],
        "words": sum(c["size"] for c in doc["classes"]),
        "edges": len(doc["edges"]),
        "freely_braided": doc["freely_braided"],
        "achieves_bound": doc["achieves_bound"],
    }


def check_analyze(doc: dict, label: str) -> dict:
    """Invariants every `fb analyze` answer must satisfy; returns its summary."""
    s = analyze_summary(doc)
    check(s["classes"] == len(doc["classes"]), f"{label}: class_count != listed classes")
    check(s["classes"] <= 2 ** s["contractible"], f"{label}: #classes > 2^N")
    check(s["achieves_bound"] == s["freely_braided"],
          f"{label}: achieves_bound != freely_braided")
    check(_bipartite(s["classes"], doc["edges"]), f"{label}: commutation graph not bipartite")
    check(_edges_flip_one_bit(doc), f"{label}: an edge does not flip exactly one signature bit")
    return s


def gate_a5_w0(ops: list[dict], results: list[dict]) -> None:
    for r in results:
        if r["rc"]:
            continue
        s = check_analyze(json.loads(r["out"]), "w0(A5)")
        check(s["classes"] == KNUTH_A006245[6 - 1], f"w0(A5): {s['classes']} classes, not 908")
        check(s["words"] == stanley_w0_words(6),
              f"w0(A5): class sizes sum to {s['words']}, not {stanley_w0_words(6)}")
        check(s["edges"] == A5_W0_EDGES, f"w0(A5): {s['edges']} edges, not {A5_W0_EDGES}")
        check(s["length"] == 15 and s["triples"] == 20, "w0(A5): wrong length or triple count")


def gate_s6_sweep(ops: list[dict], results: list[dict]) -> None:
    for r in results:
        if r["rc"]:
            continue
        rows = json.loads(r["out"])["rows"]
        check([row["n"] for row in rows] == list(range(1, 7)), "s6_sweep: wrong ranks")
        got = tuple(row["freely_braided"] for row in rows)
        check(got == S6_FREELY_BRAIDED, f"s6_sweep: freely braided column {got}")
        check(all(row["bound_achievers"] == row["freely_braided"] for row in rows),
              "s6_sweep: bound achievers differ from freely braided permutations")


def gate_de_sweep(ops: list[dict], results: list[dict]) -> None:
    for op, r in zip(ops, results):
        if r["rc"]:
            continue
        label = f"{op['cli'][2]} {op['cli'][4]!r}"
        s = check_analyze(json.loads(r["out"]), label)
        check(s == op["expect"], f"{label}: {s} differs from pinned {op['expect']}")


def gate_e8_words(ops: list[dict], results: list[dict]) -> None:
    for op, r in zip(ops, results):
        if "error" in r:
            continue
        label = f"E8 word {format_word(op['words'][1])!r}"
        reduced, canon = r["reduced"], r["canonical"]
        check(len(reduced) == r["length"] == len(canon) == op["length"],
              f"{label}: lengths disagree")
        check(r["roundtrip"] == reduced, f"{label}: root-sequence round trip changed the word")
        check(canon <= reduced, f"{label}: canonical word is not lex-least")
        if op["length"] == E8_W0_LENGTH:
            check(r["triples"] == E8_W0_TRIPLES, f"{label}: w0(E8) has {r['triples']} triples")
