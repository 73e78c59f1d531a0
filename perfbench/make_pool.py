"""Build de_pool.json, the fixed elements that de_sweep analyses.

    PYTHONPATH=src python3 perfbench/make_pool.py

Run once, with the freebraid version whose answers the pool pins.  Candidates are random
walks up weak order in D4, D5, E6, E7 and E8 (seeded, so the pool is
reproducible).  Each is analysed by `fb analyze`; its summary becomes the
pinned answer.  Elements with at most ORACLE_WORDS reduced words are also
recomputed by the brute-force freebraid.oracle, and the pool records which.
Candidates are sorted by the time their analysis took here (`seed_ms`, one
cold call each) and cut into ELEMENTS brackets of neighbours; the middle
element of each bracket is kept, so the kept elements grade evenly from
cheap to expensive (reduced-word count alone predicts that time poorly).
They are stored in one shuffled order, which is the order de_sweep runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import time

from workloads import (POOL_FILE, analyze_summary, check, check_analyze, format_word,
                       random_reduced_word)

import freebraid.cli
from freebraid import inversion_triples, parse_graph, element_of, parse_word
from freebraid.oracle import oracle_classes_by_bfs, oracle_contractible, oracle_reduced_words

POOL_SEED = 2003
LENGTHS = {"D4": range(6, 12), "D5": range(7, 14), "E6": range(7, 13),
           "E7": range(7, 13), "E8": range(7, 13)}
WALKS_PER_LENGTH = 16
MAX_WORDS = 40_000     # keeps a pass to a few seconds with freebraid 0.1.0
ELEMENTS = 120
ORACLE_WORDS = 1_000


def analyze(graph: str, word: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = freebraid.cli.main(["analyze", "-g", graph, "-w", word])
    check(rc == 0, f"{graph} {word!r}: fb analyze exited {rc}")
    return json.loads(out.getvalue())


def oracle_agrees(graph: str, word: str, doc: dict) -> None:
    """Recompute words, classes and contractibility by brute force."""
    w = element_of(parse_graph(graph), parse_word(word))
    label = f"{graph} {word!r}"
    check(len(oracle_reduced_words(w)) == sum(c["size"] for c in doc["classes"]),
          f"{label}: oracle word count differs")
    blocks = sorted(len(b) for b in oracle_classes_by_bfs(w))
    check(blocks == sorted(c["size"] for c in doc["classes"]), f"{label}: oracle classes differ")
    n = sum(oracle_contractible(w, t) for t in inversion_triples(w))
    check(n == doc["N"], f"{label}: oracle finds {n} contractible triples, not {doc['N']}")


def main() -> int:
    rng = random.Random(POOL_SEED)
    seen, pool = set(), []
    d4_w0 = analyze("D4", format_word(random_reduced_word("D4", 12, rng)))
    for graph, lengths in LENGTHS.items():
        for length in lengths:
            for _ in range(WALKS_PER_LENGTH):
                word = format_word(random_reduced_word(graph, length, rng))
                t = time.perf_counter()
                doc = analyze(graph, word)
                dt = time.perf_counter() - t
                key = (graph, doc["element"])
                if key in seen or key == ("D4", d4_w0["element"]):
                    continue
                seen.add(key)
                summary = check_analyze(doc, f"{graph} {word!r}")
                if summary["words"] > MAX_WORDS:
                    continue
                oracle = summary["words"] <= ORACLE_WORDS
                if oracle:
                    oracle_agrees(graph, doc["element"], doc)
                pool.append({"graph": graph, "word": doc["element"], "expect": summary,
                             "oracle_checked": oracle, "seed_ms": round(dt * 1000, 1)})
    pool.sort(key=lambda p: (p["seed_ms"], p["graph"], p["word"]))
    cuts = [b * len(pool) // ELEMENTS for b in range(ELEMENTS + 1)]
    kept = [pool[(lo + hi) // 2] for lo, hi in zip(cuts, cuts[1:])]
    rng.shuffle(kept)
    doc = {
        "about": "de_sweep pool; regenerate with perfbench/make_pool.py",
        "pool_seed": POOL_SEED,
        "d4_w0": analyze_summary(d4_w0),
        "oracle_checked": sum(p["oracle_checked"] for p in kept),
        "elements": kept,
    }
    POOL_FILE.write_text(json.dumps(doc, indent=0) + "\n")
    times = sorted(p["seed_ms"] for p in kept)
    print(f"kept {len(kept)} of {len(pool)} candidates, {doc['oracle_checked']} "
          f"oracle-checked; analysis ms: total {sum(times):.0f}, p50 {times[len(times) // 2]}, "
          f"p90 {times[len(times) * 9 // 10]}, max {times[-1]}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
