"""Command line interface.

Subcommands: reduce (word calculus), analyze (triples, classes, signatures,
bound), graph (commutation graph as JSON or DOT), enumerate (type-A tables).
Output is JSON with sorted keys by default; --format text switches to a
human layout.  Exit codes: 0 ok, 2 parse error, 3 cap exceeded or out of
memory, 4 verification mismatch.  A reader that closes stdout early ends
the command quietly, with exit 0.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii

from .coxeter import (
    CapExceededError,
    Element,
    ParseError,
    element_of,
    format_word,
    parse_graph,
    parse_word,
    reduce_word,
    root_str,
)
from .classes import (
    PRECEDENCES,
    CommutationGraph,
    Precedence,
    class_partition,
    commutation_graph,
    count_classes_and_check_bound,
    enumerate_reduced_words,
    is_bipartite,
    signature_vectors,
    to_dot,
)
from .oracle import (
    oracle_classes,
    oracle_commutation_edges,
    oracle_contractible_triples,
    oracle_reduced_words,
    oracle_root_sequence,
)
from .triples import contractible_triples, inversion_triples, is_freely_braided
from .rootseq import root_sequence
from .typea import (
    DEFAULT_MAX_ENUM_RANK,
    class_counts,
    enumerate_freely_braided,
    format_permutation,
    inversion_triple_count,
    parse_permutation,
    perm_to_element,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_VERIFY = 4


class VerificationError(RuntimeError):
    """Production and oracle disagreed under --verify."""


def _json(value, pad: str) -> str:
    """``value``, made of the str, int, bool, None, dict and list values the
    CLI's documents hold, as ``json.dumps(value, sort_keys=True, indent=2)``
    writes it when it starts on a line indented by ``pad``."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if not value:
        return "{}" if kind is dict else "[]"
    inner = pad + "  "
    sep = ",\n" + inner
    if kind is dict:
        items = sep.join(
            [f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in sorted(value.items())]
        )
        return f"{{\n{inner}{items}\n{pad}}}"
    if set(map(type, value)) == {int}:
        items = sep.join(map(int.__repr__, value))
    else:
        items = sep.join([_json(v, inner) for v in value])
    return f"[\n{inner}{items}\n{pad}]"


def _emit(doc: dict, args) -> None:
    """Print ``doc`` as ``json.dumps(doc, sort_keys=True, indent=2)`` would,
    writing a value that is an iterator, such as a class pass or the edges,
    one row at a time as it yields them."""
    if args.format != "json":
        return
    write = sys.stdout.write
    sep = "{\n  "
    for key in sorted(doc):
        value = doc[key]
        write(f"{sep}{encode_basestring_ascii(key)}: ")
        sep = ",\n  "
        if not isinstance(value, Iterator):
            write(_json(value, "  "))
            continue
        row_sep = "[\n    "
        for row in value:
            write(row_sep + _json(row, "    "))
            row_sep = ",\n    "
        write("[]" if row_sep == "[\n    " else "\n  ]")
    write("\n}\n" if doc else "{}\n")


def _cap(args) -> int | None:
    """--max-words, or None for the library's default cap."""
    cap = args.max_words
    if cap is not None and cap < 1:
        raise ParseError(f"--max-words must be at least 1, not {cap}")
    return cap


def _element(args) -> tuple[Element, dict]:
    """Build the element named by --graph/--word or --perm, plus echo fields."""
    meta: dict = {}
    if getattr(args, "perm", None) is not None:
        if args.graph or args.word is not None:
            raise ParseError("--perm cannot be combined with --graph/--word")
        p = parse_permutation(args.perm)
        meta["perm"] = format_permutation(p)
        meta["graph"] = f"A{len(p) - 1}"
        return perm_to_element(p), meta
    if not args.graph or args.word is None:
        raise ParseError("need --graph and --word (or --perm)")
    g = parse_graph(args.graph)
    word = parse_word(args.word)
    meta["graph"] = args.graph.strip()
    return element_of(g, word), meta


def cmd_reduce(args) -> int:
    g = parse_graph(args.graph) if args.graph else None
    if g is None or args.word is None:
        raise ParseError("reduce needs --graph and --word")
    word = parse_word(args.word)
    reduced = reduce_word(g, word)
    seq = root_sequence(g, reduced)
    inv = sorted(seq.roots)
    doc = {
        "graph": args.graph.strip(),
        "input_word": format_word(word),
        "reduced_word": format_word(reduced),
        "length": len(reduced),
        "inversion_set": [list(r) for r in inv],
        "root_sequence": [list(r) for r in seq.roots],
    }
    _emit(doc, args)
    if args.format == "text":
        print(f"graph: {doc['graph']}")
        print(f"word: {doc['input_word'] or 'e'}")
        print(f"reduced: {doc['reduced_word'] or 'e'}")
        print(f"length: {doc['length']}")
        print(f"inversion set: {', '.join(root_str(r) for r in inv) or '-'}")
        print(f"root sequence: {', '.join(root_str(r) for r in seq.roots) or '-'}")
    return EXIT_OK


def _verify(w: Element, cap: int | None, graph: CommutationGraph) -> None:
    produced = set(enumerate_reduced_words(w, cap))
    expected = oracle_reduced_words(w, cap)
    if produced != set(expected):
        raise VerificationError("reduced-word enumeration disagrees with descent oracle")
    blocks = oracle_classes(w.graph, (oracle_root_sequence(w.graph, word).roots for word in expected))
    rank = {block: i for i, block in enumerate(class_partition(w, cap))}
    if rank.keys() != set(blocks):
        raise VerificationError("class partition disagrees with BFS oracle")
    at = [rank[block] for block in blocks]
    del rank  # its keys hold every root sequence a second time
    edges = (tuple(sorted((at[i], at[j]))) for i, j in oracle_commutation_edges(w.graph, blocks))
    if tuple(sorted(edges)) != graph.edges:
        raise VerificationError("commutation graph edges disagree with the braid-move oracle")
    size = dict(zip(at, map(len, blocks)))
    for k, c in enumerate(graph.vertices):
        if c.size != size[k]:
            word = format_word(c.canonical_word)
            raise VerificationError(f"class size disagrees with BFS oracle for {word}")
    contractible = contractible_triples(w, cap=cap)
    windows = oracle_contractible_triples(seq for block in blocks for seq in block)
    for t in sorted(inversion_triples(w)):
        if (t in contractible) != (frozenset(t) in windows):
            raise VerificationError(f"contractibility verdicts disagree for {t}")


def _class_rows(
    w: Element, cap: int | None, precedence: Precedence, parity: bool, bits: bool = False
) -> tuple[CommutationGraph, Iterator[dict]]:
    """The commutation graph of w and a pass yielding one row per class, in
    class order: its lex-least word and size, its signature parity if
    ``parity`` and also the signature bits if ``bits``.  The graph, and so
    every class and size cap, is settled before the first row.  Classes are
    sorted by word, so the first vertex holds w's own lex-least word."""
    graph = commutation_graph(w, cap)
    signatures = signature_vectors(w, precedence, cap) if parity else itertools.repeat(None)

    def rows() -> Iterator[dict]:
        for c, sig in zip(graph.vertices, signatures):
            row = {"canonical": format_word(c.canonical_word), "size": c.size}
            if sig is not None:
                row["parity"] = -1 if sum(sig) % 2 else 1
                if bits:
                    row["signature_bits"] = list(sig)
            yield row

    return graph, rows()


def cmd_analyze(args) -> int:
    w, meta = _element(args)
    cap = _cap(args)
    precedence = PRECEDENCES[args.precedence]
    triples = sorted(inversion_triples(w))
    contractible = contractible_triples(w, cap=cap)
    bound = count_classes_and_check_bound(w, cap)
    graph, classes = _class_rows(w, cap, precedence, parity=True, bits=True)
    doc = {
        **meta,
        "element": format_word(graph.vertices[0].canonical_word),
        "length": w.length,
        "n_triples": len(triples),
        "N": bound.contractible,
        "class_count": bound.classes,
        "bound_holds": bound.bound_holds,
        "achieves_bound": bound.achieves_bound,
        "freely_braided": is_freely_braided(w, cap),
        "precedence": precedence.name,
        "triples": [
            {
                "low": list(t.low),
                "mid": list(t.mid),
                "high": list(t.high),
                "contractible": t in contractible,
            }
            for t in triples
        ],
        "classes": classes,
        "edges": map(list, graph.edges),
    }
    if args.verify:
        _verify(w, cap, graph)
        doc["verified"] = True
    _emit(doc, args)
    if args.format == "text":
        print(f"element: {doc['element'] or 'e'}  (length {doc['length']})")
        print(
            f"triples: {doc['n_triples']}  contractible: {doc['N']}  "
            f"classes: {doc['class_count']} <= 2^N = {2 ** doc['N']}"
        )
        print(
            f"achieves bound: {str(doc['achieves_bound']).lower()}  "
            f"freely braided: {str(doc['freely_braided']).lower()}"
        )
        for i, c in enumerate(classes):
            bits = "".join(str(b) for b in c["signature_bits"]) or "-"
            sign = "+" if c["parity"] > 0 else "-"
            print(f"class {i}: word={c['canonical'] or 'e'} size={c['size']} bits={bits} parity={sign}")
        if graph.edges:
            print("edges: " + " ".join(f"{i}-{j}" for i, j in graph.edges))
        if args.verify:
            print("verified against oracles: ok")
    return EXIT_OK


def cmd_graph(args) -> int:
    w, meta = _element(args)
    cap = _cap(args)
    precedence = PRECEDENCES[args.precedence]
    graph, vertices = _class_rows(w, cap, precedence, parity=args.parity and not args.dot)
    label = format_word(graph.vertices[0].canonical_word) or "e"
    if args.dot:
        parities = None
        if args.parity:
            parities = tuple([-1 if sum(sig) % 2 else 1 for sig in signature_vectors(w, precedence, cap)])
        sys.stdout.writelines(to_dot(graph, parities, label))
        return EXIT_OK
    bipartite = is_bipartite(graph)
    doc = {
        **meta,
        "element": label,
        "vertices": vertices,
        "edges": map(list, graph.edges),
        "bipartite": bipartite,
    }
    _emit(doc, args)
    if args.format == "text":
        print(f"element: {label}")
        for i, v in enumerate(vertices):
            extra = f" parity={'+' if v['parity'] > 0 else '-'}" if args.parity else ""
            print(f"vertex {i}: {v['canonical'] or 'e'} (size {v['size']}){extra}")
        print("edges: " + (" ".join(f"{i}-{j}" for i, j in graph.edges) or "-"))
        print(f"bipartite: {str(bipartite).lower()}")
    return EXIT_OK


def cmd_enumerate(args) -> int:
    if args.type != "A":
        raise ParseError(f"unsupported type {args.type!r}; only A is available")
    if args.n < 1:
        raise ParseError("rank must be at least 1")
    if args.limit < 1:
        raise ParseError(f"--limit must be at least 1, not {args.limit}")
    if args.n > args.limit:
        raise CapExceededError(f"rank {args.n} exceeds the enumeration limit {args.limit}")
    rows = []
    for k in range(1, args.n + 1):
        count, _ = enumerate_freely_braided(k, limit=args.limit)
        classes = class_counts(k)
        # On a path every inversion triple is contractible, so N(p) counts them all.
        achievers = sum(1 for p, c in classes.items() if c == 2 ** inversion_triple_count(p))
        rows.append({"n": k, "freely_braided": count, "bound_achievers": achievers})
    doc = {"type": "A", "rows": rows}
    _emit(doc, args)
    if args.format == "text":
        print(f"{'n':>3} {'freely_braided':>15} {'bound_achievers':>16}")
        for row in rows:
            print(f"{row['n']:>3} {row['freely_braided']:>15} {row['bound_achievers']:>16}")
    return EXIT_OK


def _add_element_args(p: argparse.ArgumentParser, perm: bool = True) -> None:
    p.add_argument("-g", "--graph", help="graph spec: A5, D4, E8, or an edge list like 1-2,2-3")
    p.add_argument("-w", "--word", help="word as generator indices, e.g. '1 2 1' or 1,2,1")
    if perm:
        p.add_argument("--perm", help="one-line permutation (implies the matching path graph)")


def _add_common(p: argparse.ArgumentParser, classes: bool = True) -> None:
    if classes:
        p.add_argument("--max-words", type=int, default=None,
                       help="cap on commutation classes, and on reduced words where words "
                            "are listed (--verify)")
    p.add_argument("--format", choices=("json", "text"), default="json")
    if classes:
        p.add_argument("--precedence", choices=tuple(PRECEDENCES), default="lex",
                       help="root order used for signature bits")


@functools.lru_cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fb", description="Root-sequence calculus for simply laced Coxeter groups."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="reduce a word; print inversion set and root sequence")
    _add_element_args(p, perm=False)
    _add_common(p, classes=False)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("analyze", help="triples, classes, signatures, bound check")
    _add_element_args(p)
    _add_common(p)
    p.add_argument("--verify", action="store_true", help="cross-check against brute-force oracles")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("graph", help="commutation graph as JSON or DOT")
    _add_element_args(p)
    _add_common(p)
    p.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    p.add_argument("--parity", action="store_true", help="color vertices by signature parity")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("enumerate", help="type-A counts: freely braided vs bound achievers")
    p.add_argument("--type", default="A", help="Coxeter family (only A)")
    p.add_argument("-n", type=int, required=True, help="largest rank to tabulate")
    p.add_argument("--limit", type=int, default=DEFAULT_MAX_ENUM_RANK,
                   help="largest rank the table may request")
    _add_common(p, classes=False)
    p.set_defaults(func=cmd_enumerate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a reader that closed early shows here, not at exit
        return status
    except BrokenPipeError:  # so stdout goes to devnull, and the exit flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except CapExceededError as e:
        partial = f" (partial count: {e.count})" if e.count is not None else ""
        print(f"error: {e}{partial}", file=sys.stderr)
        return EXIT_CAP
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_CAP
    except VerificationError as e:
        print(f"verification failed: {e}", file=sys.stderr)
        return EXIT_VERIFY
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
