"""Tests of the benchmark itself: harness, tracing arithmetic and gates.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import GateError  # noqa: E402

A3_W0 = "1 2 1 3 2 1"
# w0(A3): 8 classes (A006245), 16 words (Stanley), 4 triples, all contractible.
A3_W0_EXPECT = {"length": 6, "triples": 4, "contractible": 4, "classes": 8, "words": 16,
                "edges": 8, "freely_braided": False, "achieves_bound": False}


def tiny(seed: int) -> dict:
    """w0(A3) through the CLI and three short E8 words, as one batch."""
    rng = random.Random(seed)
    ops = [{"cli": ["analyze", "-g", "A3", "-w", A3_W0], "expect": dict(A3_W0_EXPECT)}]
    word_ops = [{"words": ["E8", workloads.random_reduced_word("E8", n, rng) + [3, 3]],
                 "length": n} for n in (2, 5, 9)]

    def gate(all_ops, results):
        workloads.gate_de_sweep(all_ops[:1], results[:1])
        workloads.gate_e8_words(all_ops[1:], results[1:])

    return {"kind": "batch", "graphs": ["A3", "E8"], "gate": gate, "ops": ops + word_ops}


@pytest.fixture
def tiny_workload(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", tiny)
    return "tiny"


@pytest.fixture(scope="module")
def a3_doc():
    doc = run.batch_pass(tiny(0), False)
    return json.loads(doc["results"][0]["out"])


def test_tiny_configuration_end_to_end(tiny_workload):
    result = run.run(tiny_workload, seed=1, seconds=0, trace=False)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 4 and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_configuration_traced(tiny_workload):
    result = run.run(tiny_workload, seed=1, seconds=0, trace=True)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(m) == set(run.PER_LAYER)
    assert m["classes.classes"] == 8 and m["classes.words"] == 16
    assert m["triples.contractible"] == 4 and m["cli.main.calls"] == 1
    assert m["coxeter.reduce_word.calls"] >= 3 and m["cli.output_bytes"] > 0
    assert m["classes.cold_calls"] == 1 and m["classes.warm_calls"] >= 1
    modules = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert modules + m["trace.unattributed_s"] == pytest.approx(m["trace.wall_s"])


def test_tracing_restores_the_program():
    import freebraid
    import freebraid.cli

    before = freebraid.cli.main, freebraid.reduce_word, freebraid.coxeter.times_generator
    with spans.Tracer():
        assert freebraid.reduce_word is not before[1]
        assert freebraid.coxeter.times_generator is not before[2]
    assert (freebraid.cli.main, freebraid.reduce_word, freebraid.coxeter.times_generator) == before


def test_self_times_of_a_synthetic_span_tree():
    # root 0..10 holds A 1..4 (which holds G 2..3), B 5..9, and C 8..11,
    # which overlaps B and runs past the root's end.
    tree = [[0, -1, 0.0, 10.0], [1, 0, 1.0, 4.0], [2, 1, 2.0, 3.0],
            [3, 0, 5.0, 9.0], [4, 0, 8.0, 11.0]]
    assert spans.self_times(tree) == [10 - 3 - 5, 2.0, 1.0, 4.0, 3.0]


def test_nested_wrappers_give_child_spans():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("rootseq.inversion_set", lambda w: w)
    outer = tracer.wrap("classes.f_signature", lambda w: inner(w) + inner(w))
    assert outer(1) == 2
    # outer runs 0..5 around children 1..2 and 3..4
    assert [s[1] for s in tracer.spans] == [-1, 0, 0]
    report = tracer.report(wall_s=5.0)
    assert report["classes.f_signature.self_s"] == 3.0
    assert report["rootseq.inversion_set.self_s"] == 2.0
    assert report["rootseq.inversion_set.calls"] == 2
    assert report["trace.unattributed_s"] == 0.0


def test_gate_trips_on_a_wrong_expected_answer(a3_doc):
    op = {"cli": ["analyze", "-g", "A3", "-w", A3_W0], "expect": dict(A3_W0_EXPECT)}
    result = {"rc": 0, "out": json.dumps(a3_doc)}
    workloads.gate_de_sweep([op], [result])
    op["expect"]["classes"] = 9
    with pytest.raises(GateError):
        workloads.gate_de_sweep([op], [result])


def test_gate_trips_on_a_broken_invariant(a3_doc):
    bad = dict(a3_doc, edges=a3_doc["edges"] + [[0, 0]])
    with pytest.raises(GateError):
        workloads.check_analyze(bad, "w0(A3)")
    word = {"words": ["E8", [1, 2]], "length": 2}
    answer = {"reduced": [1, 2], "length": 2, "canonical": [1, 2], "roundtrip": [2, 1],
              "triples": 0}
    with pytest.raises(GateError):
        workloads.gate_e8_words([word], [answer])


def test_a_wrong_answer_aborts_the_run(tiny_workload, monkeypatch, capsys):
    def wrong(seed):
        wl = tiny(seed)
        wl["ops"][0]["expect"]["words"] = 17
        return wl

    monkeypatch.setitem(workloads.WORKLOADS, "tiny", wrong)
    assert run.main(["--workload", "tiny", "--seed", "0", "--seconds", "0"]) == 1
    assert "correctness gate failed" in capsys.readouterr().err


def test_failed_op_is_counted_not_gated(tiny_workload, monkeypatch):
    def failing(seed):
        wl = tiny(seed)
        wl["ops"][0]["cli"] = ["analyze", "-g", "A3", "-w", A3_W0, "--max-words", "3"]
        return wl

    monkeypatch.setitem(workloads.WORKLOADS, "tiny", failing)
    result = run.run("tiny", seed=0, seconds=0, trace=False)
    assert (result["attempted"], result["failed"]) == (4, 1)


def test_random_reduced_words_are_reduced():
    import freebraid

    rng = random.Random(7)
    for spec, n in (("D4", 12), ("E6", 36), ("E8", 120)):
        g = freebraid.parse_graph(spec)
        for length in (1, n // 2, n, n + 5):
            word = workloads.random_reduced_word(spec, length, rng)
            assert len(word) == min(length, n)
            assert freebraid.element_of(g, tuple(word)).length == len(word)


def test_literature_counts():
    assert [workloads.stanley_w0_words(n) for n in range(1, 7)] == [1, 1, 2, 16, 768, 292864]


def test_inputs_depend_only_on_the_seed():
    for name in ("de_sweep", "e8_words"):
        make = workloads.WORKLOADS[name]
        assert make(3)["ops"] == make(3)["ops"]
        assert make(3)["ops"] != make(4)["ops"]
    assert len(workloads.de_sweep(0)["ops"]) >= 100
    assert len(workloads.e8_words(0)["ops"]) >= 100


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "a5_w0", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
