"""Run one freebraid benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ./src.  Every
pass runs in a fresh child process, so the program's caches start cold as
they do for a command-line user.  With --trace 0 the last line of stdout is
the end-to-end metrics; with --trace 1 it is the per-layer metrics of a
traced pass, next to an untraced pass of the same ops for the overhead.
A wrong answer aborts the run with exit code 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from spans import LAYERS  # noqa: E402
from workloads import WORKLOADS, GateError  # noqa: E402

SETUP_PROBES = 5      # per round; a round runs before each pass and after the last
FB_MAIN = "import sys; from freebraid.cli import main; sys.exit(main())"
PROBE = ("import time, freebraid, freebraid.cli; "
         "[freebraid.parse_graph(g) for g in {graphs!r}]; print(time.monotonic())")

END_TO_END = {"wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
              "peak_rss_mb": "MB", "setup_s": "s"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer, fns in LAYERS.items():
        for fn in fns:
            units[f"{layer}.{fn}.self_s"] = "s"
            units[f"{layer}.{fn}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update({
        "classes.cold_s": "s", "classes.cold_calls": "count",
        "classes.warm_s": "s", "classes.warm_calls": "count",
        "classes.classes": "count", "classes.edges": "count", "classes.words": "count",
        "triples.triples": "count", "triples.contractible": "count",
        "cli.output_bytes": "bytes",
        "trace.wall_s": "s", "trace.unattributed_s": "s", "trace.overhead_frac": "ratio",
    })
    return units


PER_LAYER = per_layer_units()


def child_env() -> dict[str, str]:
    """The caller's environment, minus anything that changes freebraid's answers."""
    env = {k: v for k, v in os.environ.items() if k not in ("FB_MAX_WORDS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


class Child:
    """A finished child process: wall time, its own peak RSS, exit code, output."""

    def __init__(self, argv: list[str], data: bytes | None = None):
        start = time.monotonic()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            stdin=subprocess.DEVNULL if data is None else subprocess.PIPE)
        self.start = start
        err: list[bytes] = []
        threads = [threading.Thread(target=lambda: err.append(proc.stderr.read()))]
        if data is not None:
            threads.append(threading.Thread(target=_feed, args=(proc.stdin, data)))
        try:
            for t in threads:
                t.start()
            self.out = proc.stdout.read()
            # wait4, not RUSAGE_CHILDREN: the latter is a maximum over every child reaped.
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            for t in threads:
                t.join()
            proc.stdout.close()
            proc.stderr.close()
        self.wall = time.monotonic() - start
        self.rc = proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024
        self.err = err[0].decode(errors="replace")


def _feed(pipe, data: bytes) -> None:
    try:
        pipe.write(data)
        pipe.close()
    except BrokenPipeError:
        pass


def setup_probe(graphs: list[str]) -> float:
    """Interpreter start, freebraid import and graph parsing, as a fresh child sees it."""
    child = Child([sys.executable, "-c", PROBE.format(graphs=graphs)])
    if child.rc:
        raise RuntimeError(f"set-up probe failed:\n{child.err}")
    return float(child.out) - child.start


def batch_pass(wl: dict, trace: bool) -> dict:
    spec = {"ops": wl["ops"], "graphs": wl["graphs"], "trace": int(trace)}
    child = Child([sys.executable, str(HERE / "runner.py")], json.dumps(spec).encode())
    if child.rc:
        raise RuntimeError(f"runner failed:\n{child.err}")
    return {**json.loads(child.out), "rss_mb": child.rss_mb}


def process_pass(wl: dict) -> dict:
    """Each op is one whole `fb` process, timed from spawn to exit."""
    children = [Child([sys.executable, "-c", FB_MAIN, *op["cli"]]) for op in wl["ops"]]
    return {"loop_s": sum(c.wall for c in children),
            "latencies": [c.wall for c in children],
            "results": [{"rc": c.rc, "out": c.out.decode(), "err": c.err[-300:]} for c in children],
            "rss_mb": max(c.rss_mb for c in children)}


def failed(result: dict) -> bool:
    return "error" in result or result.get("rc", 0) != 0


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name](seed)
    deadline = time.monotonic() + seconds
    setup, passes = [], []

    def probe_round() -> None:
        # Rounds spread over the run, so one burst of outside load cannot move the median.
        if not trace:
            setup.extend(setup_probe(wl["graphs"]) for _ in range(SETUP_PROBES))

    while not passes or time.monotonic() < deadline:
        probe_round()
        if trace:
            doc = batch_pass(wl, True)
            doc["plain_loop_s"] = batch_pass(wl, False)["loop_s"]
        elif wl["kind"] == "process":
            doc = process_pass(wl)
        else:
            doc = batch_pass(wl, False)
        wl["gate"](wl["ops"], doc["results"])
        passes.append(doc)
    probe_round()

    attempted = sum(len(d["results"]) for d in passes)
    fails = sum(failed(r) for d in passes for r in d["results"])
    if trace:
        metrics = traced_metrics(passes)
        units = PER_LAYER
    else:
        latencies_ms = [x * 1000 for d in passes for x in d["latencies"]]
        metrics = {
            "wall_s": statistics.median(d["loop_s"] for d in passes),
            "op_p50_ms": statistics.median(latencies_ms),
            "op_p90_ms": p90(latencies_ms),
            "peak_rss_mb": statistics.median(d["rss_mb"] for d in passes),
            "setup_s": statistics.median(setup),
        }
        units = END_TO_END
    return {"correct": True, "attempted": attempted, "failed": fails,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}


def traced_metrics(passes: list[dict]) -> dict[str, float]:
    """The traced pass of median length; its counts must repeat in every pass."""
    ordered = sorted(passes, key=lambda d: d["loop_s"])
    layers = dict(ordered[(len(ordered) - 1) // 2]["layers"])
    for d in passes:
        for key in ("classes.classes", "classes.edges", "classes.words", "triples.triples",
                    "triples.contractible", "cli.output_bytes"):
            if d["layers"][key] != layers[key]:
                raise GateError(f"{key} differs between passes of the same inputs")
    plain = statistics.median(d["plain_loop_s"] for d in passes)
    layers["trace.overhead_frac"] = layers["trace.wall_s"] / plain - 1
    return layers


def machine_facts() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg": list(os.getloadavg())}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "freebraid" / "__init__.py").is_file():
        print(f"error: no freebraid sources under {SRC}", file=sys.stderr)
        return 2
    print(json.dumps({"workload": args.workload, "seed": args.seed, **machine_facts()}))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except GateError as e:
        print(f"correctness gate failed: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
