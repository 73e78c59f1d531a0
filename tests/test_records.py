"""The value records: construction, attributes, equality, hashing, copies.

Six records are NamedTuples; CoxeterGraph and RootSequence are slotted
classes, so the column loops read a graph's ``neighbors`` as one slot.
"""

from __future__ import annotations

import ast
import copy
import os
import pickle
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import pytest

import freebraid
from freebraid import (
    LEX,
    REVLEX,
    BoundCheck,
    CommutationClass,
    CommutationGraph,
    CoxeterGraph,
    Element,
    FSignature,
    Precedence,
    RootSequence,
    canonical_word,
    commutation_graph,
    count_classes_and_check_bound,
    element_of,
    enumerate_classes,
    f_signature,
    parse_graph,
    perm_to_element,
    root_sequence,
)
from conftest import GOLDEN_D4_WORD

A3 = parse_graph("A3")
D4 = parse_graph("D4")
W = element_of(D4, GOLDEN_D4_WORD)
CLASS = enumerate_classes(W)[0]

# (record, its constructor's fields, one value), one row per record type.
RECORDS = [
    (CoxeterGraph, ("n", "edges"), D4),
    (Element, ("graph", "columns", "length"), W),
    (RootSequence, ("graph", "roots"), root_sequence(D4, GOLDEN_D4_WORD)),
    (Precedence, ("name", "key"), REVLEX),
    (CommutationClass, ("graph", "canonical_word", "size"), CLASS),
    (FSignature, ("entries",), f_signature(W, CLASS)),
    (CommutationGraph, ("vertices", "edges", "sides"), commutation_graph(W)),
    (BoundCheck, ("classes", "contractible", "bound_holds", "achieves_bound"),
     count_classes_and_check_bound(W)),
]
IDS = [kind.__name__ for kind, _, _ in RECORDS]
NAMED_TUPLES = [row for row in RECORDS if row[0] not in (CoxeterGraph, RootSequence)]
NAMED_IDS = [kind.__name__ for kind, _, _ in NAMED_TUPLES]


@pytest.mark.parametrize("kind, fields, value", RECORDS, ids=IDS)
def test_positional_and_keyword_construction(kind, fields, value):
    args = [getattr(value, f) for f in fields]
    by_position = kind(*args)
    by_keyword = kind(**dict(zip(fields, args)))
    assert by_position == by_keyword == value
    assert hash(by_position) == hash(by_keyword) == hash(value)


@pytest.mark.parametrize("kind, fields, value", NAMED_TUPLES, ids=NAMED_IDS)
def test_named_tuple_records(kind, fields, value):
    assert issubclass(kind, tuple)
    assert kind._fields == fields
    assert tuple(value) == tuple(getattr(value, f) for f in fields)


@pytest.mark.parametrize("kind, slots, value", [
    (CoxeterGraph, ("n", "edges", "neighbors"), D4),
    (RootSequence, ("graph", "roots"), root_sequence(A3, (1, 2, 1))),
])
def test_slotted_records_are_not_tuples(kind, slots, value):
    assert kind.__slots__ == slots
    assert not isinstance(value, tuple)
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("kind, fields, value", RECORDS, ids=IDS)
def test_copies_are_equal_with_equal_hashes(kind, fields, value):
    copies = [copy.copy(value), copy.deepcopy(value)]
    if kind is not Precedence:  # its key is a lambda, which pickle refuses
        copies.append(pickle.loads(pickle.dumps(value)))
    for other in copies:
        assert type(other) is kind
        assert other == value
        assert hash(other) == hash(value)
        assert [getattr(other, f) for f in fields] == [getattr(value, f) for f in fields]


def test_copied_graph_keeps_its_neighbors():
    for g in (copy.copy(D4), copy.deepcopy(D4), pickle.loads(pickle.dumps(D4))):
        assert g.neighbors == D4.neighbors == ((2,), (1, 3, 4), (2,), (2,))
    w = pickle.loads(pickle.dumps(W))
    assert w.graph.neighbors == D4.neighbors
    assert canonical_word(w) == canonical_word(W)


def test_reprs():
    assert repr(A3) == "CoxeterGraph(n=3, edges=frozenset({(2, 3), (1, 2)}))"
    assert repr(D4) == "CoxeterGraph(n=4, edges=frozenset({(2, 3), (2, 4), (1, 2)}))"
    assert repr(CoxeterGraph(0, frozenset())) == "CoxeterGraph(n=0, edges=frozenset())"
    assert repr(root_sequence(D4, (2, 1))) == (
        "RootSequence(graph=CoxeterGraph(n=4, edges=frozenset({(2, 3), (2, 4), (1, 2)})), "
        "roots=((1, 0, 0, 0), (1, 1, 0, 0)))"
    )
    assert repr(count_classes_and_check_bound(W)) == (
        "BoundCheck(classes=4, contractible=3, bound_holds=True, achieves_bound=False)"
    )


def test_graph_equality_reads_normalized_edges():
    g, h = CoxeterGraph(3, {(2, 1)}), CoxeterGraph(3, {(1, 2)})
    assert g == h and hash(g) == hash(h)
    assert g.edges == frozenset({(1, 2)})
    assert g != CoxeterGraph(4, {(1, 2)})
    assert g != CoxeterGraph(3, {(2, 3)})
    assert g != (3, frozenset({(1, 2)}))


def test_root_sequences_on_different_graphs_differ():
    roots = ((1, 0, 0), (0, 1, 0))
    path, apart = RootSequence(A3, roots), RootSequence(CoxeterGraph(3, {(2, 3)}), roots)
    assert path != apart
    assert path == RootSequence(parse_graph("1-2,2-3"), roots)
    assert list(path) == list(roots) and len(path) == 2 and path[1] == (0, 1, 0)


def test_precedence_equality_reads_name_and_key():
    assert Precedence("lex", LEX.key) == LEX
    assert Precedence("lex", REVLEX.key) != LEX
    assert Precedence("revlex", LEX.key) != LEX


def test_element_equality_reads_length():
    for p in permutations(range(1, 5)):
        w = perm_to_element(p)
        assert w == element_of(A3, canonical_word(w))
        assert hash(w) == hash(element_of(A3, canonical_word(w)))
    e = element_of(A3, ())
    assert e != Element(A3, e.columns, 1)


def test_import_loads_neither_dataclasses_nor_inspect():
    script = (
        "import sys; before = set(sys.modules); import freebraid, freebraid.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(freebraid.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout == "[]\n"


def test_import_loads_no_oracle():
    script = "import sys, freebraid; print('freebraid.oracle' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(freebraid.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout == "False\n"


def test_oracle_imports_no_engine():
    """The oracle stays independent of the production algorithms: of the
    package it imports only the calculus and the root-sequence record."""
    path = Path(freebraid.__file__).resolve().parent / "oracle.py"
    package = {
        node.module
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "freebraid")
    }
    assert package == {"coxeter", "rootseq"}
