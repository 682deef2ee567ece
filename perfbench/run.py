"""Run one workload of the repository benchmark and print its figures.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 20 --trace 0

One client, closed loop: each operation starts when the previous one
has returned.  Inputs come from ``--seed``; every answer is checked
against plain Python.  An untraced run measures in ``HASH_SEEDS``
processes, one after another, each with its own fixed string-hash seed
(see ``plain_run``); a traced run measures in this process.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` —
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The lines before it give each class's figures.  See
perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Type

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.errors import TypeCheckError  # noqa: E402

from tracing import LayerTracer  # noqa: E402
from workloads import WORKLOADS, Workload, bag_check  # noqa: E402

#: ``PYTHONHASHSEED`` of each measuring process of an untraced run.
#: String hashing decides where keys land in the engine's dicts, and
#: with it up to a fifth of a workload's speed; a random seed per
#: process made runs of the same code differ by that much.  Fixed seeds
#: take that out of the run-to-run spread, and several of them keep the
#: figures from resting on one dict layout.
HASH_SEEDS = ("1", "2", "3")
#: Each measuring process sets up at least once and until its set-ups
#: have taken ``SETUP_SECONDS``; ``setup_s`` is the median of them all.
SETUP_SECONDS = 0.5
#: Failures echoed to standard error per run; all are counted.
SHOWN_FAILURES = 5

#: Per-layer metrics, in print order, with the layers each workload's
#: traced run must find busy (README: "which metric each layer moves").
PER_LAYER = [
    "syntax.parse.calls", "syntax.parse.s", "core.rewriter.s",
    "core.rewrite_rules.s", "core.rewrite_rules.fired", "analysis.absint.s",
    "core.planner.calls", "core.planner.s",
    "catalog.database.compile_hit_ratio", "catalog.database.overhead_s",
    "observability.query_store.calls", "observability.query_store.s",
    "observability.query_store.feedback_runs", "observability.metrics.s",
    "core.evaluator.calls", "core.evaluator.s",
    "core.vectorized.calls", "core.vectorized.s",
    "core.compile_expr.calls", "core.compile_expr.s",
    "catalog.statistics.calls", "catalog.statistics.s",
    "formats.json_io.s", "datamodel.convert.calls", "datamodel.convert.s",
    "datamodel.convert.rows", "schema.validate.s",
    "catalog.database.insert.s", "python.gc.calls", "python.gc.s",
    "python.gc.full_s", "trace.overhead_pct",
]
BUSY = {
    "interactive": [
        "syntax.parse", "core.rewriter", "core.rewrite_rules",
        "analysis.absint", "core.planner", "catalog.database.compile",
        "observability.query_store", "observability.metrics",
        "core.compile_expr",
    ],
    "analytic": [
        "core.rewrite_rules", "core.evaluator", "core.vectorized",
    ],
    "ingest": [
        "core.planner", "core.compile_expr", "catalog.statistics",
        "formats.json_io", "datamodel.convert", "schema.validate",
        "catalog.database.insert",
    ],
}
UNITS = {"calls": "count", "s": "s", "fired": "count", "feedback_runs": "count",
         "rows": "count", "compile_hit_ratio": "ratio", "overhead_s": "s",
         "full_s": "s", "overhead_pct": "%"}


class Tally:
    """Latencies and outcomes per class, and the time of each round."""

    def __init__(self, classes) -> None:
        self.latencies: Dict[str, List[float]] = {cls: [] for cls in classes}
        self.attempted: Dict[str, int] = {cls: 0 for cls in classes}
        self.failed: Dict[str, int] = {cls: 0 for cls in classes}
        self.rounds: List[float] = []
        self.failures: List[str] = []
        self.rss_mb = 0.0

    def merge(self, data: Dict) -> None:
        """Fold in a measuring process's tally (``as_dict``)."""
        for cls, values in data["latencies"].items():
            self.latencies.setdefault(cls, []).extend(values)
        for cls, count in data["attempted"].items():
            self.attempted[cls] = self.attempted.get(cls, 0) + count
            self.failed[cls] = self.failed.get(cls, 0) + data["failed"][cls]
        self.rounds += data["rounds"]
        self.failures += data["failures"]

    def as_dict(self) -> Dict:
        return {"latencies": self.latencies, "attempted": self.attempted,
                "failed": self.failed, "rounds": self.rounds,
                "failures": self.failures}

    def outcome(self, cls: str, message: Optional[str]) -> None:
        self.attempted[cls] = self.attempted.get(cls, 0) + 1
        self.failed.setdefault(cls, 0)
        if message is not None:
            self.failed[cls] += 1
            self.failures.append(f"{cls}: {message}")


def settle() -> float:
    """Move the loaded catalog into the collector's permanent generation,
    as long-running Python servers do, so a full collection does not
    traverse it during a random operation (the collections that remain
    are traced as ``python.gc``).  Returns the time of one full
    collection over the loaded catalog: the cost the freeze takes out of
    every latency, reported by the traced run as ``python.gc.full_s``."""
    gc.collect()
    started = perf_counter()
    gc.collect()
    full = perf_counter() - started
    gc.freeze()
    return full


def unsettle(workload: Workload) -> None:
    """Drop the previous set-up's database and let the collector free it."""
    workload.db = None
    gc.unfreeze()
    gc.collect()


def run_round(workload: Workload, index: int, tally: Tally) -> None:
    """Run round ``index``: time each operation alone, check its answer
    after the clock stops, and record the round's summed time."""
    workload.begin_round(index)
    busy = 0.0
    for op in workload.round(index):
        op_started = perf_counter()
        try:
            answer = op.run()
            message = None
        except Exception as error:  # a raising operation fails; go on
            message = f"raised {type(error).__name__}: {error}"
        elapsed = perf_counter() - op_started
        busy += elapsed
        if message is None:
            message = op.check(answer)
            tally.latencies[op.cls].append(elapsed)
        tally.outcome(op.cls, message)
    tally.rounds.append(busy)


def measure(workload: Workload, seconds: float, tally: Tally,
            rss_round: int) -> None:
    """Run whole rounds, at least ``rss_round`` of them, and stop at the
    round end nearest to ``seconds`` (one more round only while less
    than half of it would run past).  Peak RSS is read after round
    ``rss_round``: a fixed amount of work, so a faster program does not
    read as a hungrier one."""
    started = perf_counter()
    index = 0
    last = 0.0
    while index < rss_round or perf_counter() - started + last / 2 < seconds:
        round_started = perf_counter()
        run_round(workload, index, tally)
        last = perf_counter() - round_started
        index += 1
        if index == rss_round:
            tally.rss_mb = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            )


def stop_on_error(workload: Workload, tally: Tally) -> None:
    """Strict mode must stop on a dirty row; permissive mode must not."""
    probe = workload.probe()
    message = None
    try:
        workload.db.execute(probe.query, typing_mode="strict")
        message = "strict query over a dirty row returned"
    except TypeCheckError:
        try:
            answer = workload.db.execute(probe.query, typing_mode="permissive")
            message = bag_check(probe.expected)(answer)
        except Exception as error:
            message = f"permissive twin raised {type(error).__name__}: {error}"
    except Exception as error:
        message = f"strict query raised {type(error).__name__}, not TypeCheckError"
    tally.outcome("stop_on_error", message)


def percentile(values: List[float], pct: int) -> float:
    if pct == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(workload: Type[Workload], tally: Tally, setups: List[float],
               rss_mb: List[float]) -> Dict:
    busy = sum(tally.rounds)
    ops = sum(len(v) for v in tally.latencies.values())
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (ops / busy, "1/s"),
        "peak_rss_mb": (statistics.median(rss_mb), "MB"),
    }
    for slot, (cls, pct) in enumerate(workload.slots, start=1):
        values = tally.rounds if cls == "round" else tally.latencies[cls]
        metrics[f"lat{slot}_ms"] = (percentile(values, pct) * 1e3, "ms")
    return metrics


def delta(before: Dict, after: Dict) -> Dict[str, float]:
    return {key: after.get(key, 0) - before.get(key, 0)
            for key in set(before) | set(after)}


def per_layer(setup: Dict, traced: Dict, rounds: int, full_gc: float,
              overhead: float) -> Dict:
    """One traced set-up plus the mean of one traced round, per layer."""
    value = {
        key: setup.get(key, 0) + traced.get(key, 0) / rounds
        for key in set(setup) | set(traced)
    }
    hits = value.get("compile_cache_hits", 0)
    misses = value.get("compile_cache_misses", 0)
    value["catalog.database.compile_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0
    )
    value["catalog.database.overhead_s"] = (
        value.get("catalog.database.execute.s", 0)
        - value.get("catalog.database.compile.s", 0)
        - value.get("core.evaluator.s", 0)
    )
    value["python.gc.full_s"] = full_gc
    value["trace.overhead_pct"] = overhead
    return {
        name: (value.get(name, 0), UNITS[name.rsplit(".", 1)[1]])
        for name in PER_LAYER
    }


def traced_run(workload: Workload, seconds: float, tally: Tally) -> Dict:
    """Set up traced, then run rounds untraced and traced in turn, in
    blocks of four (untraced, traced, traced, untraced) so that a drift
    of the host weighs on both alike, until ``seconds`` have passed."""
    tracer = LayerTracer()

    def counters() -> Dict[str, float]:
        flat = tracer.snapshot()
        if workload.db is not None:
            flat.update(workload.db.metrics.counters)
        return flat

    tracer.install()
    before = counters()
    errors = workload.setup()
    setup = delta(before, counters())
    tracer.uninstall()
    full_gc = settle()
    untraced = Tally(workload.classes)
    traced: Dict[str, float] = {}
    started = perf_counter()
    index = 0
    while index % 4 or perf_counter() - started < seconds:
        if index % 4 in (1, 2):
            tracer.install()
            start = counters()
            run_round(workload, index, tally)
            for key, value in delta(start, counters()).items():
                traced[key] = traced.get(key, 0) + value
            tracer.uninstall()
        else:
            run_round(workload, index, untraced)
        index += 1
    for cls in untraced.attempted:
        tally.attempted[cls] += untraced.attempted[cls]
        tally.failed[cls] += untraced.failed[cls]
    tally.failures += untraced.failures + errors
    overhead = (
        statistics.median(tally.rounds) / statistics.median(untraced.rounds) - 1
    ) * 100
    for layer in BUSY[workload.name]:
        if not setup.get(f"{layer}.calls") and not traced.get(f"{layer}.calls"):
            tally.failures.append(f"layer {layer} recorded no call")
    return per_layer(setup, traced, len(tally.rounds), full_gc, overhead)


def plain_run(workload: Type[Workload], seconds: float, tally: Tally,
              argv: List[str]) -> Dict:
    """Measure in one process per ``HASH_SEEDS`` entry, one at a time,
    each for an equal share of ``seconds``; pool their figures."""
    setups: List[float] = []
    rss_mb: List[float] = []
    for hash_seed in HASH_SEEDS:
        child = subprocess.run(
            [sys.executable, __file__, *argv, "--measure",
             str(seconds / len(HASH_SEEDS))],
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
            stdout=subprocess.PIPE, text=True, check=True,
        )
        data = json.loads(child.stdout.splitlines()[-1])
        tally.merge(data["tally"])
        setups += data["setups"]
        rss_mb.append(data["rss_mb"])
    return end_to_end(workload, tally, setups, rss_mb)


def measuring_process(workload: Workload, seconds: float) -> None:
    """One process of an untraced run: set up, measure, check stop-on-error,
    and print the raw figures as one JSON line."""
    tally = Tally(workload.classes)
    setups: List[float] = []
    while not setups or sum(setups) < SETUP_SECONDS:
        unsettle(workload)
        started = perf_counter()
        errors = workload.setup()
        setups.append(perf_counter() - started)
        tally.failures += errors
        settle()
    measure(workload, seconds, tally, workload.rss_round)
    stop_on_error(workload, tally)
    print(json.dumps({"tally": tally.as_dict(), "setups": setups,
                      "rss_mb": tally.rss_mb}))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--measure", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workload_cls = WORKLOADS[args.workload]
    if args.measure is not None:
        measuring_process(workload_cls(args.seed), args.measure)
        return 0
    tally = Tally(workload_cls.classes)
    if args.trace:
        workload = workload_cls(args.seed)
        metrics = traced_run(workload, args.seconds, tally)
        stop_on_error(workload, tally)
    else:
        metrics = plain_run(workload_cls, args.seconds, tally,
                            sys.argv[1:] if argv is None else argv)

    for cls in tally.attempted:
        samples = tally.latencies.get(cls, [])
        figures = ""
        if samples:
            figures = f" p50_ms={percentile(samples, 50) * 1e3:.3f}"
            if len(samples) >= 40:
                figures += f" p90_ms={percentile(samples, 90) * 1e3:.3f}"
        print(f"class {cls}: attempted={tally.attempted[cls]} "
              f"failed={tally.failed[cls]} samples={len(samples)}{figures}")
    for slot, (cls, pct) in enumerate(workload_cls.slots, start=1):
        print(f"lat{slot}_ms = {cls}_p{pct}_ms")
    for message in tally.failures[:SHOWN_FAILURES]:
        print(f"FAILED {message}", file=sys.stderr)
    attempted = sum(tally.attempted.values())
    failed = sum(tally.failed.values())
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
