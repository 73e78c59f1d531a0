"""Per-layer tracing of freebraid from outside the program.

Tracer.install() replaces each function named in LAYERS with a wrapper in
every freebraid module namespace that holds it, so a call made through any
of them opens a span.  Nested calls become child spans, e.g.
triples.contractible_triples -> classes.enumerate_classes.  The oracle
module is left alone, and so are hot leaf helpers (pairing, reflect,
adjacent, mat_mul), whose cost stays in their caller's self time.

Spans are kept in memory as [function id, parent index, start, end] and
reduced to self times only when the report is built.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

LAYERS = {
    "coxeter": ("parse_graph", "element_of", "reduce_word", "canonical_word", "times_generator"),
    "rootseq": ("root_sequence", "word_of_root_sequence", "inversion_set"),
    "classes": ("enumerate_classes", "enumerate_reduced_words", "class_partition",
                "count_classes_and_check_bound", "commutation_graph", "f_signature",
                "parity", "is_bipartite", "to_dot"),
    "triples": ("inversion_triples", "contractible_triples", "is_contractible",
                "is_freely_braided"),
    "typea": ("parse_permutation", "perm_to_element", "enumerate_freely_braided"),
    "cli": ("main",),
}

# classes entry points that build (or fetch) the word orbit of their element.
ORBIT_ENTRIES = frozenset(
    f"classes.{fn}" for fn in ("enumerate_classes", "enumerate_reduced_words",
                               "class_partition", "count_classes_and_check_bound",
                               "commutation_graph")
)

# Answer counts, keyed by element so a repeated call is counted once, and
# the functions whose results they are read from.
COUNTS = ("classes", "edges", "words", "triples", "contractible")
COUNTED = frozenset(("classes.enumerate_classes", "classes.commutation_graph",
                     "classes.count_classes_and_check_bound", "classes.enumerate_reduced_words",
                     "triples.inversion_triples", "triples.contractible_triples"))


def _element(args, kwargs):
    return args[0] if args else kwargs.get("w")


def _record(facts, name, w, result) -> None:
    if name in ("classes.enumerate_classes", "classes.commutation_graph"):
        vertices = result.vertices if name.endswith("graph") else result
        facts["classes"][w] = len(vertices)
        facts["words"][w] = sum(c.size for c in vertices)
        if name.endswith("graph"):
            facts["edges"][w] = len(result.edges)
    elif name == "classes.count_classes_and_check_bound":
        facts["classes"][w] = result.classes
    elif name == "classes.enumerate_reduced_words":
        facts["words"][w] = len(result)
    elif name == "triples.inversion_triples":
        facts["triples"][w] = len(result)
    elif name == "triples.contractible_triples":
        facts["contractible"][w] = len(result)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    `spans` holds [fid, parent, start, end] in start order; parent is an
    index into `spans`, or -1 for a root.
    """
    covered = [0.0] * len(spans)
    reach: dict[int, float] = {}
    for _, parent, start, end in spans:
        if parent < 0:
            continue
        p_start, p_end = spans[parent][2], spans[parent][3]
        r = reach.get(parent, p_start)
        lo, hi = max(start, r), min(end, p_end)
        if hi > lo:
            covered[parent] += hi - lo
        reach[parent] = max(r, hi)
    return [end - start - c for (_, _, start, end), c in zip(spans, covered)]


class Tracer:
    """Wraps freebraid's public functions and aggregates their spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.seen: set = set()
        self.orbit_depth = 0
        self.cold = [0.0, 0]
        self.warm = [0.0, 0]
        self.facts = {k: {} for k in COUNTS}
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, self.clock
        orbit = name in ORBIT_ENTRIES
        counted = name in COUNTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [fid, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            outer = orbit and self.orbit_depth == 0
            if orbit:
                w = _element(args, kwargs)
                cold = w not in self.seen
                self.seen.add(w)
                self.orbit_depth += 1
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
                if orbit:
                    self.orbit_depth -= 1
                if outer:
                    bucket = self.cold if cold else self.warm
                    bucket[0] += span[3] - span[2]
                    bucket[1] += 1
            if counted:
                _record(self.facts, name, _element(args, kwargs), result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every listed function wherever a freebraid module holds it."""
        import freebraid.cli  # noqa: F401  (loads every layer module)

        namespaces = [m for k, m in sys.modules.items()
                      if (k == "freebraid" or k.startswith("freebraid.")) and k != "freebraid.oracle"]
        for layer, fns in LAYERS.items():
            module = sys.modules[f"freebraid.{layer}"]
            for fn in fns:
                original = getattr(module, fn)
                wrapper = self.wrap(f"{layer}.{fn}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._patched.append((ns, attr, original))
                            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def report(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics for a traced op loop that took wall_s seconds."""
        per_fn = {name: [0.0, 0] for name in self.names}
        for span, own in zip(self.spans, self_times(self.spans)):
            entry = per_fn[self.names[span[0]]]
            entry[0] += own
            entry[1] += 1
        out: dict[str, float] = {}
        per_module: dict[str, float] = defaultdict(float)
        for name, (own, calls) in per_fn.items():
            out[f"{name}.self_s"] = own
            out[f"{name}.calls"] = calls
            per_module[name.split(".")[0]] += own
        for layer in LAYERS:
            out[f"{layer}.self_s"] = per_module[layer]
        out["classes.cold_s"], out["classes.cold_calls"] = self.cold
        out["classes.warm_s"], out["classes.warm_calls"] = self.warm
        for key in ("classes", "edges", "words"):
            out[f"classes.{key}"] = sum(self.facts[key].values())
        out["triples.triples"] = sum(self.facts["triples"].values())
        out["triples.contractible"] = sum(self.facts["contractible"].values())
        out["trace.wall_s"] = wall_s
        out["trace.unattributed_s"] = wall_s - sum(per_module.values())
        return out
