"""Per-layer tracing from outside the program.

Each layer's public entry points are wrapped on the names where their
callers look them up (a module attribute read at call time, or a class
attribute), so no program file changes.  A wrapper counts the outermost
call into its layer and the time spent in it; calls nested inside the
same layer (recursion, or one entry point calling another) are not
counted again.  While the outermost call runs, the wrapped attribute is
swapped back to the original function, so recursion deep inside a layer
(``from_python``, ``compile_expr``, ``validate``) pays nothing.
"""

from __future__ import annotations

import gc
import importlib
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple


def _rows(args: tuple, kwargs: dict, result: Any) -> int:
    """Elements of the top-level collection handed to ``from_python``."""
    from repro.datamodel.values import Bag

    value = args[0] if args else kwargs.get("value")
    return len(value) if isinstance(value, (list, tuple, Bag)) else 0


def _fired(args: tuple, kwargs: dict, result: Any) -> int:
    """Rewrite results returned by ``apply_rules``: ``(query, fired)``."""
    return len(result[1])


def _one(args: tuple, kwargs: dict, result: Any) -> int:
    return 1


# (module, attribute, layer, extra counter, counter function).  A layer
# with several rows is one layer reached through several names.
ENTRY_POINTS: List[Tuple[str, str, str, Optional[str], Optional[Callable]]] = [
    ("repro.catalog.database", "parse", "syntax.parse", None, None),
    ("repro.syntax.parser", "parse", "syntax.parse", None, None),
    ("repro.catalog.database", "rewrite_query", "core.rewriter", None, None),
    ("repro.core.rewriter", "rewrite_query", "core.rewriter", None, None),
    ("repro.core.rewrite_rules", "apply_rules", "core.rewrite_rules",
     "core.rewrite_rules.fired", _fired),
    ("repro.analysis.absint", "fold_query", "analysis.absint", None, None),
    ("repro.core.planner", "plan_block", "core.planner", None, None),
    ("repro.catalog.database", "Database.execute", "catalog.database.execute",
     None, None),
    ("repro.catalog.database", "Database._compile_profiled",
     "catalog.database.compile", None, None),
    ("repro.catalog.database", "Database.insert", "catalog.database.insert",
     None, None),
    ("repro.catalog.database", "query_fingerprint",
     "observability.query_store", None, None),
    ("repro.observability.query_store", "QueryStore.observe",
     "observability.query_store", None, None),
    ("repro.observability.query_store", "QueryStore.export_gauges",
     "observability.query_store", None, None),
    ("repro.observability.query_store", "QueryStore.mark_feedback",
     "observability.query_store", "observability.query_store.feedback_runs",
     _one),
    ("repro.observability.metrics", "MetricsRegistry.record",
     "observability.metrics", None, None),
    ("repro.core.evaluator", "Evaluator.execute", "core.evaluator", None, None),
    ("repro.core.vectorized", "execute_batch_query", "core.vectorized",
     None, None),
    ("repro.core.compile_expr", "compile_expr", "core.compile_expr", None, None),
    ("repro.catalog.statistics", "collect_stats", "catalog.statistics",
     None, None),
    ("repro.formats.json_io", "loads", "formats.json_io", None, None),
    ("repro.datamodel.convert", "from_python", "datamodel.convert",
     "datamodel.convert.rows", _rows),
    ("repro.catalog.catalog", "from_python", "datamodel.convert",
     "datamodel.convert.rows", _rows),
    ("repro.schema.validate", "validate", "schema.validate", None, None),
]


def _resolve(module_name: str, attribute: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _spin(seconds: float) -> None:
    """Busy-wait: an injected delay that costs CPU like real work."""
    until = perf_counter() + seconds
    while perf_counter() < until:
        pass


class LayerTracer:
    """Counts calls and busy seconds per layer while installed.

    ``layers`` restricts which layers are wrapped (all by default);
    ``delays`` maps a layer to a fraction of its own time to add as
    busy-waiting inside it, for checking that the tracer attributes an
    injected cost to the right layer.
    """

    def __init__(
        self,
        layers: Optional[set] = None,
        delays: Optional[Dict[str, float]] = None,
    ) -> None:
        self.calls: Counter = Counter()
        self.seconds: Dict[str, float] = {}
        self.counts: Counter = Counter()
        self._layers = layers
        self._delays = delays or {}
        self._active: set = set()
        self._installed: List[Tuple[Any, Optional[str], Any]] = []
        self._gc_started = 0.0

    def install(self) -> None:
        if self._installed:
            return
        if self._layers is None:
            gc.callbacks.append(self._collection)
            self._installed.append((gc.callbacks, None, self._collection))
        for module_name, attribute, layer, counter, count_fn in ENTRY_POINTS:
            if self._layers is not None and layer not in self._layers:
                continue
            owner, name = _resolve(module_name, attribute)
            original = getattr(owner, name)
            wrapper = self._wrap(owner, name, original, layer, counter, count_fn)
            setattr(owner, name, wrapper)
            self._installed.append((owner, name, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, name, original = self._installed.pop()
            if name is None:
                owner.remove(original)
            else:
                setattr(owner, name, original)

    def _collection(self, phase: str, info: Dict[str, int]) -> None:
        """``gc.callbacks`` hook: the interpreter's cyclic collections,
        reported as layer ``python.gc``."""
        if phase == "start":
            self._gc_started = perf_counter()
        else:
            self.calls["python.gc"] += 1
            self.seconds["python.gc"] = (
                self.seconds.get("python.gc", 0.0)
                + perf_counter() - self._gc_started
            )

    def snapshot(self) -> Dict[str, float]:
        """Flat totals so far: ``<layer>.calls``, ``<layer>.s`` and the
        extra counters."""
        flat: Dict[str, float] = {}
        for layer in set(self.calls) | set(self.seconds):
            flat[f"{layer}.calls"] = self.calls[layer]
            flat[f"{layer}.s"] = self.seconds.get(layer, 0.0)
        flat.update(self.counts)
        return flat

    def _wrap(self, owner, name, original, layer, counter, count_fn):
        active = self._active
        calls = self.calls
        seconds = self.seconds
        counts = self.counts
        delay = self._delays.get(layer, 0.0)
        seconds.setdefault(layer, 0.0)

        def traced(*args, **kwargs):
            if layer in active:
                return original(*args, **kwargs)
            active.add(layer)
            setattr(owner, name, original)
            started = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                if delay:
                    _spin((perf_counter() - started) * delay)
                seconds[layer] += perf_counter() - started
                calls[layer] += 1
                setattr(owner, name, traced)
                active.discard(layer)
            if counter is not None:
                counts[counter] += count_fn(args, kwargs, result)
            return result

        return traced
