"""The fb command line: every subcommand, format, and exit code."""

from __future__ import annotations

import argparse
import hashlib
import json

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import freebraid.cli as cli
from freebraid import commutation_graph, f_signature
from freebraid.oracle import oracle_classes
from freebraid.cli import EXIT_CAP, EXIT_OK, EXIT_PARSE, EXIT_VERIFY, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK, err
    return json.loads(out)


# --- reduce ---


def test_reduce_json(capsys):
    doc = run_json(capsys, "reduce", "-g", "A2", "-w", "1 2 1 2")
    assert doc["graph"] == "A2"
    assert doc["input_word"] == "1 2 1 2"
    assert doc["reduced_word"] == "2 1"
    assert doc["length"] == 2
    assert doc["root_sequence"] == [[1, 0], [1, 1]]
    assert doc["inversion_set"] == [[1, 0], [1, 1]]


def test_reduce_keeps_reduced_input(capsys):
    doc = run_json(capsys, "reduce", "-g", "D4", "-w", "2 1 3 4 2 4 3 1 2")
    assert doc["reduced_word"] == "2 1 3 4 2 4 3 1 2"
    assert doc["length"] == 9
    assert doc["root_sequence"][4] == [1, 2, 1, 1]


def test_reduce_empty_word(capsys):
    doc = run_json(capsys, "reduce", "-g", "A2", "-w", "")
    assert doc["reduced_word"] == ""
    assert doc["length"] == 0
    assert doc["inversion_set"] == []


def test_reduce_needs_a_graph(capsys):
    code, out, err = run(capsys, "reduce", "-w", "1")
    assert code == EXIT_PARSE
    assert out == ""
    assert "reduce needs --graph and --word" in err


def test_reduce_text(capsys):
    code, out, err = run(capsys, "reduce", "-g", "A2", "-w", "1 1", "--format", "text")
    assert code == EXIT_OK
    assert "reduced: e" in out
    assert "length: 0" in out


def test_reduce_text_root_names(capsys):
    code, out, _ = run(capsys, "reduce", "-g", "A2", "-w", "1 2 1", "--format", "text")
    assert code == EXIT_OK
    assert "root sequence: a1, a1+a2, a2" in out


def test_json_output_has_sorted_keys(capsys):
    code, out, _ = run(capsys, "reduce", "-g", "A2", "-w", "1 2")
    assert code == EXIT_OK
    keys = list(json.loads(out))
    assert keys == sorted(keys)


# --- analyze ---


def test_analyze_frozen_values_4231(capsys):
    doc = run_json(capsys, "analyze", "--perm", "4231")
    assert doc["perm"] == "4231"
    assert doc["graph"] == "A3"
    assert doc["element"] == "1 2 3 2 1"
    assert doc["length"] == 5
    assert doc["n_triples"] == 2
    assert doc["N"] == 2
    assert doc["class_count"] == 3
    assert doc["bound_holds"] is True
    assert doc["achieves_bound"] is False
    assert doc["freely_braided"] is False
    assert [c["signature_bits"] for c in doc["classes"]] == [[1, 1], [0, 1], [0, 0]]
    assert [c["size"] for c in doc["classes"]] == [1, 4, 1]
    assert [c["parity"] for c in doc["classes"]] == [1, -1, 1]
    assert doc["edges"] == [[0, 1], [1, 2]]
    assert all(t["contractible"] for t in doc["triples"])


def test_analyze_freely_braided_a2(capsys):
    doc = run_json(capsys, "analyze", "-g", "A2", "-w", "1 2 1")
    assert doc["N"] == 1
    assert doc["class_count"] == 2
    assert doc["achieves_bound"] is True
    assert doc["freely_braided"] is True
    assert "verified" not in doc


def test_analyze_verify_ok(capsys):
    doc = run_json(capsys, "analyze", "-g", "A2", "-w", "1 2 1", "--verify")
    assert doc["verified"] is True


GOLDEN_D4 = ("analyze", "-g", "D4", "-w", "2 1 3 4 2 4 3 1 2", "--verify")


def test_analyze_verify_non_path_graph(capsys):
    doc = run_json(capsys, *GOLDEN_D4)
    assert doc["verified"] is True
    assert doc["N"] == 3
    assert doc["class_count"] == 4
    assert doc["freely_braided"] is False
    (golden,) = [t for t in doc["triples"] if t["low"] == [0, 1, 0, 0]]
    assert golden["mid"] == [1, 2, 1, 1]
    assert golden["contractible"] is False


def test_verify_catches_contractibility_mismatch(capsys, monkeypatch):
    # An oracle that sees every three inversion roots as consecutive ones.
    every = lambda sequences: frozenset(map(frozenset, itertools.combinations(min(sequences), 3)))
    monkeypatch.setattr(cli, "oracle_contractible_triples", every)
    code, _, err = run(capsys, *GOLDEN_D4)
    assert code == EXIT_VERIFY
    assert "contractibility verdicts disagree" in err


def test_verify_catches_class_partition_mismatch(capsys, monkeypatch):
    # An oracle that sees every reduced word in one commutation class.
    merged = lambda g, sequences: [frozenset().union(*oracle_classes(g, sequences))]
    monkeypatch.setattr(cli, "oracle_classes", merged)
    code, _, err = run(capsys, *GOLDEN_D4)
    assert code == EXIT_VERIFY
    assert "verification failed: class partition disagrees with BFS oracle\n" in err


def test_verify_catches_class_size_mismatch(capsys, monkeypatch):
    # An engine that counts one word too many in every class.
    def grown(w, cap=None):
        graph = commutation_graph(w, cap)
        return graph._replace(vertices=tuple(c._replace(size=c.size + 1) for c in graph.vertices))

    monkeypatch.setattr(cli, "commutation_graph", grown)
    code, out, err = run(capsys, *GOLDEN_D4)
    assert code == EXIT_VERIFY
    assert out == ""
    assert "verification failed: class size disagrees with BFS oracle for 2 1 3 2 4 2 1 3 2\n" in err


def test_verify_catches_a_dropped_edge(capsys, monkeypatch):
    # A commutation graph that has lost one of its edges.
    def dropped(w, cap=None):
        graph = commutation_graph(w, cap)
        return graph._replace(edges=graph.edges[1:])

    monkeypatch.setattr(cli, "commutation_graph", dropped)
    code, out, err = run(capsys, *GOLDEN_D4)
    assert code == EXIT_VERIFY
    assert out == ""
    assert "verification failed: commutation graph edges disagree with the braid-move oracle\n" in err


def test_analyze_precedence_flag(capsys):
    lex = run_json(capsys, "analyze", "-g", "A2", "-w", "1 2 1")
    rev = run_json(capsys, "analyze", "-g", "A2", "-w", "1 2 1", "--precedence", "revlex")
    assert lex["precedence"] == "lex"
    assert rev["precedence"] == "revlex"
    assert lex["class_count"] == rev["class_count"]
    flipped = [[1 - b for b in c["signature_bits"]] for c in rev["classes"]]
    assert flipped == [c["signature_bits"] for c in lex["classes"]]


def test_analyze_text(capsys):
    code, out, _ = run(capsys, "analyze", "--perm", "4231", "--format", "text")
    assert code == EXIT_OK
    assert "classes: 3 <= 2^N = 4" in out
    assert "bits=01" in out
    assert "edges: 0-1 1-2" in out


def test_analyze_perm_conflicts_with_graph(capsys):
    code, out, err = run(capsys, "analyze", "--perm", "4231", "-g", "A3")
    assert code == EXIT_PARSE
    assert "error:" in err


def test_analyze_missing_element(capsys):
    code, _, err = run(capsys, "analyze", "-g", "A3")
    assert code == EXIT_PARSE


@pytest.mark.parametrize(
    "word, message",
    [("4", "generator 4 out of range 1..3"), ("0", "generator indices start at 1")],
)
def test_analyze_rejects_a_letter_off_the_graph(capsys, word, message):
    code, out, err = run(capsys, "analyze", "-g", "A3", "-w", word)
    assert code == EXIT_PARSE
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [("--perm", "".join(map(str, p))) for p in itertools.permutations(range(1, 6))]
    + [GOLDEN_D4[1:5]],
    ids=lambda argv: argv[1].replace(" ", ""),
)
def test_n_counts_the_triples_flagged_contractible(capsys, argv):
    # N comes from the class engine's move labels and the flags from
    # contractible_triples, which on a path forest takes the path rule.
    doc = run_json(capsys, "analyze", *argv)
    assert doc["N"] == sum(t["contractible"] for t in doc["triples"])


def spy(monkeypatch, name):
    """Replace cli's `name` by a wrapper that logs (args, result) per call."""
    log = []
    fn = getattr(cli, name)

    def logged(*args, **kwargs):
        result = fn(*args, **kwargs)
        log.append((args, result))
        return result

    monkeypatch.setattr(cli, name, logged)
    return log


@pytest.mark.parametrize(
    "argv, signed",
    [
        (("analyze", "--perm", "4231"), True),
        (("analyze", "-g", "D4", "-w", "2 1 3 4 2 4 3 1 2", "--format", "text"), True),
        (("analyze", "--perm", "4231", "--verify"), True),
        (("graph", "--perm", "4231", "--parity"), True),
        (("graph", "--perm", "4231", "--parity", "--dot"), True),
        (("graph", "--perm", "4231"), False),
        (("graph", "--perm", "4231", "--dot"), False),
        (("graph", "-g", "A2", "-w", "1 2 1", "--format", "text"), False),
    ],
    ids=["analyze", "analyze_text", "analyze_verify", "graph_parity", "dot_parity", "graph", "dot", "graph_text"],
)
def test_one_signature_per_class_and_only_when_printed(capsys, monkeypatch, argv, signed):
    passes, reads = [], []
    vectors = cli.signature_vectors

    def logged(w, precedence, cap):
        passes.append(w)
        for bits in vectors(w, precedence, cap):
            reads.append(bits)
            yield bits

    monkeypatch.setattr(cli, "signature_vectors", logged)
    graphs = spy(monkeypatch, "commutation_graph")
    code, _, err = run(capsys, *argv)
    assert code == EXIT_OK, err
    ((_, graph),) = graphs  # one graph, also checked by --verify
    # One pass over the search keys, reading each class's bits once, in
    # class order, and only when the command prints a signature.
    assert len(passes) == (1 if signed else 0)
    assert reads == ([f_signature(w, c).vector() for w in passes for c in graph.vertices])
    # The element's word is the first class's, and parity is read off the bits.
    assert not hasattr(cli, "canonical_word")
    assert not hasattr(cli, "parity")
    assert not hasattr(cli, "f_signature")


# --- graph ---


def test_graph_json(capsys):
    doc = run_json(capsys, "graph", "-g", "A2", "-w", "1 2 1")
    assert doc["element"] == "1 2 1"
    assert doc["bipartite"] is True
    assert [v["canonical"] for v in doc["vertices"]] == ["1 2 1", "2 1 2"]
    assert doc["edges"] == [[0, 1]]
    assert "parity" not in doc["vertices"][0]


def test_graph_json_with_parity(capsys):
    doc = run_json(capsys, "graph", "-g", "A2", "-w", "1 2 1", "--parity")
    assert [v["parity"] for v in doc["vertices"]] == [-1, 1]


def test_graph_dot(capsys):
    code, out, _ = run(capsys, "graph", "--perm", "4231", "--dot", "--parity")
    assert code == EXIT_OK
    assert out.startswith("graph commutation {")
    assert "// element: 1 2 3 2 1" in out
    assert "// bipartite: true" in out
    assert 'fillcolor="#aec7e8"' in out
    assert 'fillcolor="#ffbb78"' in out
    assert "c0 -- c1;" in out
    assert "c1 -- c2;" in out


def test_graph_dot_identity(capsys):
    code, out, _ = run(capsys, "graph", "-g", "A2", "-w", "", "--dot")
    assert code == EXIT_OK
    assert 'label="e"' in out


# --- enumerate ---


def test_enumerate_table(capsys):
    doc = run_json(capsys, "enumerate", "--type", "A", "-n", "4")
    assert doc["type"] == "A"
    assert doc["rows"] == [
        {"n": 1, "freely_braided": 1, "bound_achievers": 1},
        {"n": 2, "freely_braided": 2, "bound_achievers": 2},
        {"n": 3, "freely_braided": 6, "bound_achievers": 6},
        {"n": 4, "freely_braided": 20, "bound_achievers": 20},
    ]


def test_enumerate_text(capsys):
    code, out, _ = run(capsys, "enumerate", "-n", "3", "--format", "text")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].split() == ["n", "freely_braided", "bound_achievers"]
    assert lines[-1].split() == ["3", "6", "6"]


def test_enumerate_rank_limit(capsys):
    code, _, err = run(capsys, "enumerate", "-n", "9")
    assert code == EXIT_CAP
    assert "rank 9 exceeds the enumeration limit 8" in err
    code, _, err = run(capsys, "enumerate", "-n", "0")
    assert code == EXIT_PARSE
    code, _, err = run(capsys, "enumerate", "--type", "B", "-n", "2")
    assert code == EXIT_PARSE
    for limit in ("0", "-5"):
        code, out, err = run(capsys, "enumerate", "-n", "1", "--limit", limit)
        assert (code, out) == (EXIT_PARSE, "")
        assert f"--limit must be at least 1, not {limit}" in err


# --- exit codes and caps ---


def test_parse_error_exit(capsys):
    code, _, err = run(capsys, "reduce", "-g", "Zq", "-w", "1")
    assert code == EXIT_PARSE
    assert "error:" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("analyze", "--perm", "654321", "--max-words", "100"), "more than 100 commutation classes"),
        (("graph", "--perm", "654321", "--max-words", "100", "--format", "text"),
         "more than 100 commutation classes"),
        (("analyze", "-g", "D4", "-w", "2 1 3 4 2 4 3 1 2", "--verify", "--max-words", "20"),
         "more than 20 reduced words"),
    ],
)
def test_nothing_is_printed_before_a_cap_exit(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_CAP
    assert out == ""
    assert message in err


def test_out_of_memory_exits_on_the_cap_code(capsys, monkeypatch):
    """Running out of memory is a cap the machine set: exit 3 with one line
    on stderr, no traceback and nothing on stdout."""

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "commutation_graph", exhausted)
    code, out, err = run(capsys, "analyze", "--perm", "4321")
    assert (code, out, err) == (EXIT_CAP, "", "error: out of memory\n")


def test_cap_exit_with_partial_count(capsys):
    code, _, err = run(capsys, "analyze", "-g", "A3", "-w", "1 2 1 3 2 1", "--max-words", "5")
    assert code == EXIT_CAP
    assert "partial count: 6" in err


def test_word_length_cap_exits_before_any_search(capsys):
    # Eight Coxeter elements of E8 and one more letter: a reduced word of 65.
    word = " ".join(["1 2 3 4 5 6 7 8"] * 8 + ["1"])
    code, out, err = run(capsys, "analyze", "-g", "E8", "-w", word)
    assert code == EXIT_CAP
    assert out == ""
    assert err.strip() == "error: element length 65 exceeds the word-length cap 64 (partial count: 0)"


def test_the_environment_sets_no_cap(capsys, monkeypatch):
    """--max-words is the one source of the class cap: FB_MAX_WORDS is not read."""
    monkeypatch.setenv("FB_MAX_WORDS", "5")
    code, _, err = run(capsys, "analyze", "-g", "A3", "-w", "1 2 1 3 2 1")
    assert code == EXIT_OK, err


@pytest.mark.parametrize("flag", ["0", "-5"])
def test_cap_flag_below_one_is_a_parse_error(flag, capsys):
    code, _, err = run(capsys, "analyze", "-g", "A2", "-w", "1", "--max-words", flag)
    assert code == EXIT_PARSE
    assert f"--max-words must be at least 1, not {flag}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--perm", "654321"],
        ["graph", "--perm", "654321", "--parity"],
        ["graph", "--perm", "654321", "--dot", "--parity"],
    ],
)
def test_a_closed_stdout_ends_fb_quietly(argv):
    """Each w0(A5) document is larger than a 64 KiB pipe buffer, so fb is
    still writing when its reader closes the pipe after one line."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    child = subprocess.Popen(
        [sys.executable, "-m", "freebraid.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert child.stdout.readline()
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert (child.wait(), err) == (EXIT_OK, b"")


def test_threads_flag_validated(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "-g", "A2", "-w", "1", "--threads", "4"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["reduce", "-g", "A2", "-w", "1 2", "--precedence", "revlex"],
        ["reduce", "-g", "A2", "-w", "1 2", "--max-words", "5"],
        ["enumerate", "-n", "3", "--precedence", "revlex"],
        ["enumerate", "-n", "4", "--max-words", "5"],
    ],
)
def test_flags_a_subcommand_does_not_take_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_the_parser_is_built_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(["reduce", "-g", "A2", "-w", "1"]) == EXIT_OK
    assert main(["enumerate", "-n", "2"]) == EXIT_OK
    assert built.count("fb") == 1


def test_verify_failure_exit(capsys, monkeypatch):
    monkeypatch.setattr(cli, "oracle_reduced_words", lambda w, cap=None: [])
    code, _, err = run(capsys, "analyze", "-g", "A2", "-w", "1 2 1", "--verify")
    assert code == EXIT_VERIFY
    assert "verification failed" in err


# --- pinned output bytes ---

# sha256 of the stdout of each command; any change to those bytes is a
# change to the CLI's output.
GOLDEN_STDOUT = {
    ("analyze", "--perm", "654321"):
        "a7675375a5bdc86b0f3a0b074559fd1e177a7b7f6ea11f47ef3c875ea71fb7d3",
    ("analyze", "-g", "D4", "-w", "2 1 3 4 2 4 3 1 2", "--verify", "--format", "text"):
        "1269a70b9d38bb0890a57e8da965ff8b777a28821e8b75c74d97c850beb6ab9f",
    ("graph", "-g", "E6", "-w", "1,3,4,2,5,4,3,1,6,5,4", "--dot", "--parity"):
        "57b612ee99492abc5ef1c70cc784cc35cf2309d219f1c47310cb8ddbe31e3aa5",
    ("graph", "-g", "1-2,3-4", "-w", "1 2 1 3 4 3", "--parity", "--precedence", "revlex"):
        "28524accb4e2157b8b7c8741aa5f33c98e040dcfb5d3ecdd1243b8ab2f3ab68d",
    ("reduce", "-g", "A2", "-w", "1 2 1 2", "--format", "text"):
        "cf84a2294d5fe5a36c3705fa2086aa194a9a3c7e61f12b47a3bd52c48ae30d92",
    ("enumerate", "-n", "6"):
        "49c95914a8c3a4d98d18b79c53f1b326da044e6106124af85ced8a2633e6ef46",
    ("graph", "-g", "A2", "-w", "1 2 1", "--format", "text"):
        "051443e45fb4e3eb1f74c6eb431a7761a9f67a80942a56480e7e2564180f418b",
    ("graph", "--perm", "4231", "--parity", "--format", "text"):
        "990c03a7aaea75af71835ed25f1aac26a1df08ed4ab1e455c95d52b28a79e3d2",
    ("analyze", "-g", "1-2,2-3,1-3", "-w", "1,2,3,1,2,3,2", "--verify"):
        "53a989de00375c3fd0eefb36e870e81f70149887daf8822c44654299db16d473",
    ("graph", "--perm", "654321"):
        "b87469f769540deec00a537faeb921b798f3e33a94706d0efb0c4e22df076bb4",
    ("analyze", "-g", "A3", "-w", ""):
        "a311a379192f5a5de651c6956c98dc7396e96ef6852259db2f9bb63e5996bb62",
    ("reduce", "-g", "A3", "-w", "2 2"):
        "e7de6e35cb950563214283a39235cdfbc1ee8a5e27fb3661f4549510627fdeef",
    ("analyze", "-g", "A300", "-w", "300 299 300"):
        "0780a4bd7bbc03a4a9cd7d0c68977991f383e4db052ad4c7d59ea128c8ff72bc",
    ("graph", "--perm", "654321", "--dot"):
        "4a77745ba0b3e37c8c1dabeeb36a6d61a33d754dcee18daded344658de0d8907",
    ("analyze", "--perm", "654321", "--format", "text"):
        "1185f5ebedaefc772f12dfa183e2570a11bd9dd3c6f62b64bcffd455b640f39c",
}


@pytest.mark.parametrize(
    "argv",
    list(GOLDEN_STDOUT),
    ids=["w0_A5", "D4_verify_text", "E6_dot", "two_paths_revlex", "reduce_A2", "enumerate_6",
         "graph_A2_text", "graph_4231_parity_text", "triangle_verify", "graph_w0_A5",
         "identity_A3", "reduce_A3_to_e", "A300_letters_above_255", "dot_w0_A5",
         "text_w0_A5"],
)
def test_stdout_bytes_are_pinned(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK, err
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[argv]


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        {"a": {}, "b": [], "c": [[]], "d": [{}]},
        [True, False, None, 0, -7, 10**30],
        [[1, 2], [3], [], [[4, [5]]]],
        {"q": 'say "hi"', "b": "back\\slash", "u": "é, 中, \U0001f600", "n": "a\nb\tc\x00"},
        {"z": 1, "a": [True, 1, "x"], "m": {"k": None, "j": [{"x": [1]}]}},
        "",
        3,
        None,
    ],
)
def test_json_writer_matches_json_dumps(value):
    assert cli._json(value, "") == json.dumps(value, sort_keys=True, indent=2)


def test_emit_streams_an_iterator_as_a_list(capsys):
    args = argparse.Namespace(format="json")
    rows = [{"b": [1, 2], "a": "x"}, {"b": [], "a": "é"}]
    doc = {"rows": iter(rows), "empty": iter([]), "n": 2, "list": [1]}
    cli._emit(doc, args)
    expected = {**doc, "rows": rows, "empty": []}
    assert capsys.readouterr().out == json.dumps(expected, sort_keys=True, indent=2) + "\n"
    cli._emit({}, args)
    assert capsys.readouterr().out == "{}\n"
