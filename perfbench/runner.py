"""One benchmark pass, run in a fresh child process.

Reads {"ops": [...], "graphs": [...], "trace": 0|1} as JSON on stdin,
imports freebraid, parses the graphs, runs every op in order and writes one
JSON object to stdout: the op-loop time, each op's latency and answer, and
with tracing on the per-layer report.  An op is either
  {"cli": argv}            fb's main(argv), stdout and stderr captured, or
  {"words": [graph, word]} word calculus on one (unreduced) word.
An op that raises or exits non-zero is recorded as failed, not retried.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

import freebraid as fb
import freebraid.cli


def run_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = freebraid.cli.main(argv)
        except Exception as e:  # a crash is a failed op; keep the pass going
            rc, err = -1, io.StringIO(f"{type(e).__name__}: {e}")
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue()[-300:]}


def run_words(g, word: list[int]) -> dict:
    try:
        reduced = fb.reduce_word(g, tuple(word))
        w = fb.element_of(g, tuple(word))
        canonical = fb.canonical_word(w)
        back = fb.word_of_root_sequence(fb.root_sequence(g, reduced))
        triples = fb.inversion_triples(w)
    except Exception as e:  # a raise is a failed op; keep the pass going
        return {"error": f"{type(e).__name__}: {e}"}
    return {"reduced": list(reduced), "length": w.length, "canonical": list(canonical),
            "roundtrip": list(back), "triples": len(triples)}


def run_pass(spec: dict) -> dict:
    graphs = {name: fb.parse_graph(name) for name in spec["graphs"]}
    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    results, latencies = [], []
    clock = time.perf_counter
    start = clock()
    try:
        for op in spec["ops"]:
            t = clock()
            if "cli" in op:
                results.append(run_cli(op["cli"]))
            else:
                name, word = op["words"]
                results.append(run_words(graphs[name], word))
            latencies.append(clock() - t)
        loop_s = clock() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    doc = {"loop_s": loop_s, "latencies": latencies, "results": results}
    if tracer is not None:
        doc["layers"] = tracer.report(loop_s)
        doc["layers"]["cli.output_bytes"] = sum(len(r.get("out", "").encode()) for r in results)
    return doc


if __name__ == "__main__":
    json.dump(run_pass(json.load(sys.stdin)), sys.stdout)
