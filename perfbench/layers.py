"""Layer attribution from outside the program.

:func:`attribute` wraps the public entry points of each layer module
with accumulating span wrappers for the duration of a ``with`` block.
Every wrapper records a call count, inclusive time and self time (its
own time minus the time of nested wrapped calls of *other* layers);
nested calls into the same layer pass straight through, so recursion
is counted once.  The outermost frame is ``other``: benchmark code and
unwrapped glue such as :mod:`repro.api`.  Self times over all rows,
``other`` included, add up to the traced wall time by construction.

Nothing in the program changes: the wrappers replace class and module
attributes, every module-level alias of a wrapped function is patched
too, and all of it is restored on exit.  Managers created inside the
block bind the wrapped methods; objects created before it keep the
originals, so build the inputs first.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

#: Layer name -> modules whose public classes and functions belong to it.
#: Order matters only for the report.
LAYER_MODULES: Dict[str, Tuple[str, ...]] = {
    "rings": (
        "repro.rings.domega",
        "repro.rings.dyadic",
        "repro.rings.euclid",
        "repro.rings.matrix2",
        "repro.rings.qomega",
        "repro.rings.zomega",
        "repro.rings.zsqrt2",
    ),
    "weights": ("repro.dd.number_system",),
    "numeric": ("repro.numeric.complex_table",),
    "dd.apply": ("repro.dd.apply", "repro.dd.manager"),
    "dd.ut": ("repro.dd.unique_table",),
    "gc": ("repro.dd.mem",),
    "sim": ("repro.sim.simulator", "repro.dd.gatebuild"),
    "serialize": ("repro.dd.serialize",),
    "circuits.hash": ("repro.circuits.canonical",),
    "exec": ("repro.exec.batch",),
    "serve": (
        "repro.serve.service",
        "repro.serve.cache",
        "repro.serve.router",
        "repro.serve.worker",
    ),
}

#: Classes whose methods stay unwrapped: the compute table is a cache
#: used by several layers (its cost belongs to the caller), and the
#: manager's traced table subclass only exists in detail-tracing mode.
_SKIP_CLASSES = {"ComputeTable", "_TracedComputeTable"}

#: Arithmetic and container dunders are entry points of the ring layer;
#: ``__eq__``/``__hash__`` are left to the caller (dict probes of the
#: weight tables).
_DUNDERS = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__truediv__", "__pow__", "__matmul__", "__init__",
}


class LayerTracker:
    """Per-layer call counts, inclusive and self seconds."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.inclusive_s: Dict[str, float] = {}
        # Frames are [layer, child_seconds]; the root is "other".  One
        # stack is shared by all threads: traced replays run one request
        # at a time, so frames of different threads nest in time.
        self.stack: List[List[Any]] = [["other", 0.0]]
        self.misnested = 0
        self.started = time.perf_counter()
        self.wall_s = 0.0

    def wrap(self, function: Callable[..., Any], layer: str) -> Callable[..., Any]:
        clock = time.perf_counter
        stack = self.stack
        calls = self.calls
        self_s = self.self_s
        inclusive_s = self.inclusive_s
        tracker = self

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if stack[-1][0] == layer:
                return function(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            started = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - started
                if stack[-1] is frame:
                    stack.pop()
                else:
                    tracker.misnested += 1
                    for position in range(len(stack) - 1, 0, -1):
                        if stack[position] is frame:
                            del stack[position]
                            break
                calls[layer] = calls.get(layer, 0) + 1
                self_s[layer] = self_s.get(layer, 0.0) + elapsed - frame[1]
                inclusive_s[layer] = inclusive_s.get(layer, 0.0) + elapsed
                stack[-1][1] += elapsed

        return traced

    def finish(self) -> None:
        self.wall_s = time.perf_counter() - self.started
        self.self_s["other"] = self.wall_s - self.stack[0][1]

    def report(self) -> List[Dict[str, Any]]:
        """Rows ordered as :data:`LAYER_MODULES`, then ``other``."""
        rows = []
        for layer in [*LAYER_MODULES, "other"]:
            seconds = self.self_s.get(layer, 0.0)
            rows.append(
                {
                    "layer": layer,
                    "calls": self.calls.get(layer, 0),
                    "self_ms": seconds * 1e3,
                    "inclusive_ms": self.inclusive_s.get(layer, seconds) * 1e3,
                    "share": seconds / self.wall_s if self.wall_s else 0.0,
                }
            )
        return rows


def _is_plain_function(value: Any) -> bool:
    return (
        inspect.isfunction(value)
        and not inspect.iscoroutinefunction(value)
        and not inspect.isgeneratorfunction(value)
    )


def _entry_points(module: Any) -> Iterator[Tuple[Any, str, Any, Callable[..., Any]]]:
    """(owner, attribute, raw attribute, function) for each entry point
    defined in ``module``: public functions, and public methods plus
    arithmetic dunders of the classes defined there."""
    for name, value in list(vars(module).items()):
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if _is_plain_function(value) and not name.startswith("_"):
            yield module, name, value, value
        elif inspect.isclass(value) and name not in _SKIP_CLASSES:
            for attr, raw in list(vars(value).items()):
                if attr.startswith("_") and attr not in _DUNDERS:
                    continue
                function = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
                if _is_plain_function(function):
                    yield value, attr, raw, function


@contextmanager
def attribute() -> Iterator[LayerTracker]:
    """Install the wrappers for every layer; yield the tracker."""
    tracker = LayerTracker()
    restore: List[Tuple[Any, str, Any]] = []
    replaced: Dict[int, Callable[..., Any]] = {}
    for layer, module_names in LAYER_MODULES.items():
        for module_name in module_names:
            module = importlib.import_module(module_name)
            for owner, attr, raw, function in _entry_points(module):
                wrapped = tracker.wrap(function, layer)
                if isinstance(raw, staticmethod):
                    new: Any = staticmethod(wrapped)
                elif isinstance(raw, classmethod):
                    new = classmethod(wrapped)
                else:
                    new = wrapped
                restore.append((owner, attr, raw))
                setattr(owner, attr, new)
                if owner is module:
                    replaced[id(function)] = wrapped
    # Module-level aliases (``from repro.dd.apply import apply_gate``).
    for module in [m for name, m in list(sys.modules.items()) if name.startswith("repro")]:
        for attr, value in list(vars(module).items()):
            wrapped_alias = replaced.get(id(value))
            if wrapped_alias is not None and wrapped_alias is not value:
                restore.append((module, attr, value))
                setattr(module, attr, wrapped_alias)
    tracker.started = time.perf_counter()
    try:
        yield tracker
    finally:
        tracker.finish()
        for owner, attr, raw in reversed(restore):
            setattr(owner, attr, raw)
