r"""Node lifecycle and memory management for the QMDD engine.

The unique tables hash-cons every node ever built, so a long simulation
accumulates the interned remains of every intermediate state and the
engine's footprint is bounded by *history*, not by the live DD size.
This module converts the engine to steady-state memory:

* **Reference counts.**  Every :class:`~repro.dd.edge.Node` carries a
  ``ref`` slot maintained by the unique table: one count per parent
  edge slot (incremented when a parent node is interned, decremented
  when the parent is swept) plus one count per externally registered
  root.  Counts saturate at :data:`~repro.dd.edge.REF_SATURATION` --
  widely shared terminal-adjacent nodes stop counting and are treated
  as immortal by the *counters*, never by the collector.

* **Mark and sweep.**  :meth:`MemoryManager.collect` walks the
  registered roots and pins, marks the reachable closure, sweeps
  unmarked nodes out of both unique tables (maintaining child
  refcounts), invalidates every operation compute table and the
  algebraic weight-arithmetic memos (their entries may reference swept
  nodes or swept weights), and finally garbage-collects the weight
  interning tables themselves.  Liveness comes from reachability, so
  refcount saturation can never leak nodes.

* **Weight GC without id reuse.**  Swept weight-table slots are
  *tombstoned*, never reused: unique- and compute-table keys embed
  weight ids, so a recycled id could alias two different weights and
  resurrect the very shadow-node bugs hash-consing exists to prevent.
  The numeric tolerance table (``eps > 0``) is never swept at all --
  every stored entry is an identification anchor and dropping one
  would change which values later lookups snap to.

* **Trigger policy.**  :meth:`MemoryManager.maybe_collect` runs the
  collector when the resident node count crosses a threshold; a
  collection that frees less than ``min_yield`` of the table grows the
  threshold (the classic grow-on-low-yield heuristic -- if everything
  is live, collecting more often only burns time).  An optional
  :class:`MemoryBudget` turns the soft policy into a hard limit:
  exceeding it triggers a collection, and if the *live* state still
  does not fit, a typed :class:`~repro.errors.MemoryBudgetExceeded`
  is raised instead of thrashing.

* **The interpreter's collector.**  A job's objects form no reference
  cycle (``tests/dd/test_acyclic.py``), so CPython's *cyclic* collector
  has nothing to free in them and would only re-traverse the live
  tables.  :func:`cyclic_gc_paused` switches it off for the lifetime
  of a job; reference counting frees the job's diagram before it
  resumes.

Observability: collections run under a ``dd.gc`` span and feed the
``dd.gc.*`` instruments (see ``docs/OBSERVABILITY.md``).  The sanitizer
audits the stored refcounts against a full reachability recount via
:meth:`MemoryManager.audit`.
"""

from __future__ import annotations

import gc
import threading
import time
import weakref
from contextlib import contextmanager
from functools import partial
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.dd.edge import REF_SATURATION, Edge, Node
from repro.errors import DDError, MemoryBudgetExceeded

if TYPE_CHECKING:
    from repro.dd.manager import DDManager
    from repro.dd.number_system import NumberSystem
    from repro.dd.sanitizer import SanitizerViolation
    from repro.dd.unique_table import ComputeTable

__all__ = [
    "GC_SECONDS_BUCKETS",
    "GcStats",
    "MemoryBudget",
    "MemoryConfig",
    "MemoryManager",
    "cyclic_gc_paused",
]

#: Bucket layout of the ``dd.gc.seconds`` histogram (seconds; a pass
#: over a few thousand nodes lands in the sub-millisecond buckets).
GC_SECONDS_BUCKETS: Tuple[float, ...] = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0,
)

# Approximate CPython footprints used by the byte budget: a slotted
# Node plus its unique-table key and dict slot, one slotted Edge, and
# one interned weight (entry object plus two dict slots).  Ballpark
# figures -- the budget is explicitly "approximate bytes".
_NODE_BYTES = 160
_EDGE_BYTES = 56
_WEIGHT_BYTES = 120


# State of cyclic_gc_paused: the collector state is process-global, so
# the nesting depth and the state to restore are too.
_gc_pause_lock = threading.Lock()
_gc_pause_depth = 0
_gc_resume_enabled = False


class _CyclicGcPause:
    """The context object returned by :func:`cyclic_gc_paused`.

    Stateless (the state is module-level), so one shared instance
    serves every caller and entering allocates nothing.  A class, not
    a ``@contextmanager`` generator: the generator's ``StopIteration``
    would be the first allocation after the collector is re-enabled,
    so a collection due from the job would start inside the exit.
    """

    __slots__ = ()

    def __enter__(self) -> None:
        global _gc_pause_depth, _gc_resume_enabled
        with _gc_pause_lock:
            if _gc_pause_depth == 0:
                _gc_resume_enabled = gc.isenabled()
                gc.disable()
            _gc_pause_depth += 1

    def __exit__(self, *exc_info: object) -> None:
        global _gc_pause_depth
        with _gc_pause_lock:
            _gc_pause_depth -= 1
            if _gc_pause_depth == 0 and _gc_resume_enabled:
                gc.enable()


_CYCLIC_GC_PAUSE = _CyclicGcPause()


def cyclic_gc_paused() -> _CyclicGcPause:
    """Pause CPython's cyclic collector: ``with cyclic_gc_paused():``.

    The job owners -- :meth:`repro.sim.simulator.Simulator.run`,
    :func:`repro.api.run`, the batch engine's per-job attempt and the
    serve tier's warm worker -- run each job inside this context.  The
    engine builds no reference cycles, so the collector would free
    nothing there; it would only traverse the job's growing tables
    again and again.  Reference counting frees the job's objects
    before the outermost exit.

    The collector state is process-global, so the pause nests and is
    thread-safe: the outermost entry records :func:`gc.isenabled` and
    disables the collector, the outermost exit restores the recorded
    state (exceptions included -- ``with`` exits on every path).  A
    caller that disabled the collector itself keeps it disabled, and
    concurrent jobs on several threads leave it enabled only once the
    last of them has finished.
    """
    return _CYCLIC_GC_PAUSE


class MemoryBudget:
    """A hard ceiling on resident DD state.

    ``max_nodes`` bounds the summed size of both unique tables;
    ``max_bytes`` bounds the approximate byte footprint (nodes, edges
    and interned weights at CPython ballpark sizes).  Crossing either
    limit triggers a collection; if the live state still exceeds the
    budget afterwards, :class:`~repro.errors.MemoryBudgetExceeded` is
    raised -- a typed failure instead of GC thrash.
    """

    __slots__ = ("max_nodes", "max_bytes")

    def __init__(
        self, max_nodes: Optional[int] = None, max_bytes: Optional[int] = None
    ) -> None:
        if max_nodes is None and max_bytes is None:
            raise ValueError("a MemoryBudget needs max_nodes and/or max_bytes")
        if max_nodes is not None and max_nodes < 1:
            raise ValueError("max_nodes must be positive")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be positive")
        self.max_nodes = max_nodes
        self.max_bytes = max_bytes

    def __repr__(self) -> str:
        return f"MemoryBudget(max_nodes={self.max_nodes}, max_bytes={self.max_bytes})"


class MemoryConfig:
    """Trigger policy of the garbage collector.

    Parameters
    ----------
    enabled:
        Whether :meth:`MemoryManager.maybe_collect` collects at all.
        Explicit :meth:`MemoryManager.collect` calls (and ``prune``)
        work regardless.
    threshold:
        Resident node count (both unique tables) above which
        ``maybe_collect`` runs the collector.
    growth_factor / min_yield / max_threshold:
        Grow-on-low-yield heuristic: when a threshold-triggered
        collection frees less than ``min_yield`` of the table, the
        threshold is multiplied by ``growth_factor`` (clamped to
        ``max_threshold``) -- mostly-live tables should be collected
        less often, not thrashed.
    sweep_weights:
        Whether collections also GC the weight tables (tombstoning;
        see the module docstring).  On by default.
    budget:
        Optional hard :class:`MemoryBudget` enforced after the soft
        policy.
    """

    __slots__ = (
        "enabled",
        "threshold",
        "growth_factor",
        "min_yield",
        "max_threshold",
        "sweep_weights",
        "budget",
    )

    def __init__(
        self,
        enabled: bool = True,
        threshold: int = 100_000,
        growth_factor: float = 2.0,
        min_yield: float = 0.25,
        max_threshold: Optional[int] = None,
        sweep_weights: bool = True,
        budget: Optional[MemoryBudget] = None,
    ) -> None:
        if threshold < 1:
            raise ValueError("gc threshold must be positive")
        if growth_factor < 1.0:
            raise ValueError("gc growth_factor must be >= 1")
        if not 0.0 <= min_yield <= 1.0:
            raise ValueError("gc min_yield must be in [0, 1]")
        self.enabled = enabled
        self.threshold = threshold
        self.growth_factor = growth_factor
        self.min_yield = min_yield
        self.max_threshold = max_threshold
        self.sweep_weights = sweep_weights
        self.budget = budget

    @classmethod
    def coerce(
        cls, value: Union["MemoryConfig", MemoryBudget, bool, int, None]
    ) -> "MemoryConfig":
        """Normalise the ``gc=`` / ``memory=`` option shorthands.

        ``None``/``False`` -> disabled, ``True`` -> defaults, an int ->
        enabled with that node threshold, a :class:`MemoryBudget` ->
        enabled with that budget, a :class:`MemoryConfig` -> itself.
        """
        if value is None or value is False:
            return cls(enabled=False)
        if value is True:
            return cls()
        if isinstance(value, MemoryConfig):
            return value
        if isinstance(value, MemoryBudget):
            return cls(budget=value)
        if isinstance(value, int):
            return cls(threshold=value)
        raise TypeError(f"cannot build a MemoryConfig from {value!r}")


class GcStats:
    """Outcome of one :meth:`MemoryManager.collect` pass."""

    __slots__ = (
        "trigger",
        "before_nodes",
        "after_nodes",
        "swept_vector",
        "swept_matrix",
        "swept_weights",
        "invalidated_entries",
        "seconds",
        "threshold_after",
    )

    def __init__(
        self,
        trigger: str,
        before_nodes: int,
        after_nodes: int,
        swept_vector: int,
        swept_matrix: int,
        swept_weights: int,
        invalidated_entries: int,
        seconds: float,
        threshold_after: int,
    ) -> None:
        self.trigger = trigger
        self.before_nodes = before_nodes
        self.after_nodes = after_nodes
        self.swept_vector = swept_vector
        self.swept_matrix = swept_matrix
        self.swept_weights = swept_weights
        self.invalidated_entries = invalidated_entries
        self.seconds = seconds
        self.threshold_after = threshold_after

    @property
    def swept_nodes(self) -> int:
        return self.swept_vector + self.swept_matrix

    def __repr__(self) -> str:
        return (
            f"GcStats(trigger={self.trigger!r}, nodes {self.before_nodes}"
            f"->{self.after_nodes}, swept_weights={self.swept_weights}, "
            f"seconds={self.seconds:.2e})"
        )


def _invalidate_derived_state(
    compute_tables: Tuple["ComputeTable", ...], system: "NumberSystem"
) -> int:
    """Clear the operation compute tables and the weight-arithmetic
    memos; returns the number of entries dropped."""
    dropped = 0
    for table in compute_tables:
        dropped += table.invalidate()
    return dropped + system.invalidate_memos()


class _RootEntry:
    """One registered external root: the edge plus its registration count."""

    __slots__ = ("edge", "count")

    def __init__(self, edge: Edge, count: int) -> None:
        self.edge = edge
        self.count = count


class MemoryManager:
    """Root registry, mark-and-sweep collector and trigger policy.

    One instance per :class:`~repro.dd.manager.DDManager` (created by
    the manager itself; reach it as ``manager.memory``).  It also
    installs the consolidated invalidation as the unique tables'
    pruning hook, so legacy ``retain``/``clear`` calls can no longer
    leave compute tables or weight memos referencing swept nodes.

    Nothing here refers back to the manager strongly (see "Ownership
    and reclamation" in ``docs/ALGORITHMS.md``): :attr:`manager` is a
    weak reference, and the tables, the system and the tracer are held
    directly, so a dropped manager is freed by reference counting.
    """

    def __init__(
        self,
        manager: "DDManager",
        config: Union[MemoryConfig, MemoryBudget, bool, int, None] = None,
    ) -> None:
        # The manager owns this object, so the back-reference is weak;
        # everything the collector touches is held directly instead.
        self._manager_ref = weakref.ref(manager)
        self._vector_table = manager._vector_table
        self._matrix_table = manager._matrix_table
        self._compute_tables = manager._compute_tables()
        self._system = manager.system
        self._gate_signatures = manager._gate_signatures
        self._tracer = manager.telemetry.tracer
        self.config = MemoryConfig.coerce(config)
        self._roots: Dict[int, _RootEntry] = {}
        self._pins: Dict[int, Edge] = {}
        self._threshold = self.config.threshold
        self.collections = 0
        self.swept_nodes_total = 0
        self.swept_weights_total = 0
        self.peak_nodes = 0
        self.last_stats: Optional[GcStats] = None
        registry = manager.telemetry.metrics
        self._collections_counter = registry.counter("dd.gc.collections")
        self._swept_nodes_counter = registry.counter("dd.gc.swept_nodes")
        self._swept_weights_counter = registry.counter("dd.gc.swept_weights")
        self._budget_failures = registry.counter("dd.gc.budget_failures")
        self._threshold_gauge = registry.gauge("dd.gc.threshold")
        self._peak_gauge = registry.gauge("dd.gc.peak_resident_nodes")
        self._seconds_histogram = registry.histogram("dd.gc.seconds", GC_SECONDS_BUCKETS)
        self._threshold_gauge.set(self._threshold)
        registry.register_collector(self._collect_metrics)
        # The hook holds the compute tables and the system, not this
        # object: the unique tables must not point back at their owner.
        hook = partial(_invalidate_derived_state, self._compute_tables, self._system)
        self._vector_table.set_invalidation_hook(hook)
        self._matrix_table.set_invalidation_hook(hook)

    @property
    def manager(self) -> "DDManager":
        """The owning :class:`~repro.dd.manager.DDManager` (weakly held)."""
        manager = self._manager_ref()
        if manager is None:
            raise DDError("the DDManager owning this MemoryManager has been freed")
        return manager

    # -- configuration ---------------------------------------------------

    def configure(
        self, config: Union[MemoryConfig, MemoryBudget, bool, int, None]
    ) -> None:
        """Replace the trigger policy (``SimulatorConfig(gc=...)`` wiring)."""
        self.config = MemoryConfig.coerce(config)
        self._threshold = self.config.threshold
        self._threshold_gauge.set(self._threshold)

    # -- root registry ---------------------------------------------------

    def inc_ref(self, edge: Edge) -> None:
        """Register ``edge`` as an external root (refcount +1).

        Registered roots survive every collection.  Registration
        nests: ``inc_ref`` twice needs ``dec_ref`` twice.  Terminal
        edges need no protection and are ignored.
        """
        node = edge.node
        if node.is_terminal:
            return
        entry = self._roots.get(node.uid)
        if entry is None:
            self._roots[node.uid] = _RootEntry(edge, 1)
        else:
            entry.count += 1
        count = node.ref
        if count < REF_SATURATION:
            node.ref = count + 1

    def dec_ref(self, edge: Edge) -> None:
        """Drop one root registration of ``edge`` (refcount -1)."""
        node = edge.node
        if node.is_terminal:
            return
        entry = self._roots.get(node.uid)
        if entry is None:
            raise DDError(
                f"dec_ref on unregistered root (node uid {node.uid}); "
                "inc_ref/dec_ref must be balanced"
            )
        entry.count -= 1
        if entry.count == 0:
            del self._roots[node.uid]
        count = node.ref
        if 0 < count < REF_SATURATION:
            node.ref = count - 1

    @contextmanager
    def protecting(self, edge: Edge) -> Iterator[Edge]:
        """Scoped root registration: ``with memory.protecting(edge):``.

        Registers ``edge`` on entry and releases it on exit (including
        on exceptions), so ad-hoc callers -- benchmarks, sanitizer
        probes, tests poking at intermediate states -- get balanced
        inc_ref/dec_ref without writing the try/finally themselves.
        """
        self.inc_ref(edge)
        try:
            yield edge
        finally:
            self.dec_ref(edge)

    def pin(self, edge: Edge) -> None:
        """Permanently protect ``edge`` from collection (idempotent).

        For long-lived derived structure whose owner has no natural
        release point -- cached gate DDs, the apply kernels' lazily
        built matrix fallbacks.  Pins mark reachability but do not
        touch refcounts; the sanitizer audit accounts for them
        separately.
        """
        node = edge.node
        if not node.is_terminal:
            self._pins.setdefault(node.uid, edge)

    def roots(self) -> List[Edge]:
        """All currently registered root edges (pins included)."""
        edges = [entry.edge for entry in self._roots.values()]
        edges.extend(self._pins.values())
        return edges

    # -- accounting ------------------------------------------------------

    @property
    def node_count(self) -> int:
        """Resident nodes across both unique tables."""
        return len(self._vector_table) + len(self._matrix_table)

    def approx_bytes(self) -> int:
        """Approximate resident byte footprint (nodes, edges, weights)."""
        vector_nodes = len(self._vector_table)
        matrix_nodes = len(self._matrix_table)
        weights = 0
        for counters in self._system.weight_statistics().values():
            weights = int(counters.get("entries", counters.get("size", 0)))
            break  # first table is the interning table; memos are separate
        return (
            vector_nodes * (_NODE_BYTES + 2 * _EDGE_BYTES)
            + matrix_nodes * (_NODE_BYTES + 4 * _EDGE_BYTES)
            + weights * _WEIGHT_BYTES
        )

    # -- collection ------------------------------------------------------

    def invalidate_derived_state(self) -> int:
        """Drop every memo that may reference swept nodes or weights.

        Clears (and generation-stamps) the manager's five operation
        compute tables and the number system's weight-arithmetic memos.
        Called by the collector after sweeping; the unique tables'
        pruning hook runs the same invalidation.  Returns the number of
        entries dropped.
        """
        return _invalidate_derived_state(self._compute_tables, self._system)

    def collect(
        self, extra_roots: Iterable[Edge] = (), trigger: str = "explicit"
    ) -> GcStats:
        """One full mark-and-sweep pass.

        Order matters and is part of the contract (see
        ``docs/ALGORITHMS.md``): mark from roots/pins/``extra_roots``,
        sweep both unique tables (child refcounts decremented), then
        invalidate all derived memo state, then sweep the weight
        tables against the live weight-key set collected during
        marking.
        """
        started = time.perf_counter()
        with self._tracer.span("dd.gc", trigger=trigger):
            before = self.node_count
            marked, live_weight_keys = self._mark(extra_roots)
            swept_vector = self._vector_table.sweep(marked)
            swept_matrix = self._matrix_table.sweep(marked)
            invalidated = self.invalidate_derived_state()
            swept_weights = 0
            if self.config.sweep_weights:
                swept_weights = self._system.sweep_weights(live_weight_keys)
        seconds = time.perf_counter() - started
        after = self.node_count
        self.collections += 1
        self.swept_nodes_total += swept_vector + swept_matrix
        self.swept_weights_total += swept_weights
        self._collections_counter.inc()
        self._swept_nodes_counter.inc(swept_vector + swept_matrix)
        self._swept_weights_counter.inc(swept_weights)
        self._seconds_histogram.observe(seconds)
        stats = GcStats(
            trigger=trigger,
            before_nodes=before,
            after_nodes=after,
            swept_vector=swept_vector,
            swept_matrix=swept_matrix,
            swept_weights=swept_weights,
            invalidated_entries=invalidated,
            seconds=seconds,
            threshold_after=self._threshold,
        )
        self.last_stats = stats
        return stats

    def _mark(
        self, extra_roots: Iterable[Edge]
    ) -> Tuple[Set[int], Set[Any]]:
        """Reachable node uids and live weight keys from all roots."""
        system = self._system
        key = system.key
        marked: Set[int] = set()
        live_keys: Set[Any] = set()
        stack: List[Node] = []

        def push_root(edge: Edge) -> None:
            live_keys.add(key(edge.weight))
            node = edge.node
            if not node.is_terminal:
                stack.append(node)

        for entry in self._roots.values():
            push_root(entry.edge)
        for pinned in self._pins.values():
            push_root(pinned)
        for edge in extra_roots:
            push_root(edge)
        while stack:
            node = stack.pop()
            if node.uid in marked:
                continue
            marked.add(node.uid)
            for child in node.edges:
                live_keys.add(key(child.weight))
                if not child.node.is_terminal:
                    stack.append(child.node)
        # Zero/one are structurally load-bearing (shared zero edge,
        # identity fast paths) and gate-signature keys embed weight
        # keys that must survive for kernels to keep hitting their
        # apply-cache namespace.
        live_keys.add(key(system.zero))
        live_keys.add(key(system.one))
        for signature_key in self._gate_signatures:
            live_keys.update(signature_key[0])
        return marked, live_keys

    def maybe_collect(self) -> Optional[GcStats]:
        """Apply the trigger policy; returns stats when a pass ran.

        Raises :class:`~repro.errors.MemoryBudgetExceeded` when a
        budget is configured and even a collection cannot satisfy it.
        """
        nodes = self.node_count
        if nodes > self.peak_nodes:
            # peak_nodes is a monotone high-water mark: it records that
            # the resident set *did* reach this size, so it stays
            # truthful even if the budget check below raises.
            self.peak_nodes = nodes  # repro-lint: allow[RL013]
            self._peak_gauge.set_max(nodes)
        config = self.config
        stats: Optional[GcStats] = None
        grown: Optional[int] = None
        if config.enabled and nodes >= self._threshold:
            stats = self.collect(trigger="threshold")
            if stats.swept_nodes < config.min_yield * max(1, stats.before_nodes):
                grown = int(self._threshold * config.growth_factor)
                if config.max_threshold is not None:
                    grown = min(grown, config.max_threshold)
        if config.budget is not None:
            stats = self._enforce_budget(stats)
        # The threshold grows only after the budget check has passed: a
        # raised MemoryBudgetExceeded must not strand a larger trigger
        # point that would delay every subsequent collection.
        if grown is not None and grown > self._threshold:
            self._threshold = grown
            self._threshold_gauge.set(grown)
        return stats

    def _enforce_budget(self, already: Optional[GcStats]) -> Optional[GcStats]:
        budget = self.config.budget
        assert budget is not None
        if not self._over_budget(budget):
            return already
        stats = already if already is not None else self.collect(trigger="budget")
        if self._over_budget(budget):
            nodes = self.node_count
            approx = self.approx_bytes() if budget.max_bytes is not None else None
            self._budget_failures.inc()
            raise MemoryBudgetExceeded(
                f"live DD state ({nodes} nodes"
                + (f", ~{approx} bytes" if approx is not None else "")
                + f") exceeds the memory budget {budget!r} even after garbage "
                "collection",
                nodes=nodes,
                approx_bytes=approx,
                max_nodes=budget.max_nodes,
                max_bytes=budget.max_bytes,
            )
        return stats

    def _over_budget(self, budget: MemoryBudget) -> bool:
        if budget.max_nodes is not None and self.node_count > budget.max_nodes:
            return True
        if budget.max_bytes is not None and self.approx_bytes() > budget.max_bytes:
            return True
        return False

    # -- audit (sanitizer hook) ------------------------------------------

    def audit(self) -> List["SanitizerViolation"]:
        """Check stored refcounts against a full reachability recount.

        For every resident node the expected count is its structural
        in-degree over both unique tables (one per parent edge slot)
        plus its root-registration count; saturated counters are exempt
        (saturation is a deliberate loss of precision).  Registered
        roots and pins must still be resident.  Returns the violations
        (code ``refcount``) instead of raising, so the sanitizer can
        merge them into its report.
        """
        from repro.dd.sanitizer import SanitizerViolation

        expected: Dict[int, int] = {}
        resident: Dict[int, Node] = {}
        for table in (self._vector_table, self._matrix_table):
            for node in table.nodes():
                resident[node.uid] = node
                for child in node.edges:
                    child_node = child.node
                    if not child_node.is_terminal:
                        expected[child_node.uid] = expected.get(child_node.uid, 0) + 1
        for uid, entry in self._roots.items():
            expected[uid] = expected.get(uid, 0) + entry.count
        violations: List[SanitizerViolation] = []
        for uid, node in resident.items():
            stored = node.ref
            if stored >= REF_SATURATION:
                continue
            wanted = expected.get(uid, 0)
            if stored != wanted:
                violations.append(
                    SanitizerViolation(
                        "refcount",
                        f"stored refcount {stored} != reachability recount {wanted}",
                        None,
                        uid,
                    )
                )
        for uid in self._roots:
            if uid not in resident:
                violations.append(
                    SanitizerViolation(
                        "refcount",
                        "registered root is no longer resident in any unique table",
                        None,
                        uid,
                    )
                )
        for uid in self._pins:
            if uid not in resident:
                violations.append(
                    SanitizerViolation(
                        "refcount",
                        "pinned edge was swept from the unique tables",
                        None,
                        uid,
                    )
                )
        return violations

    # -- observability ---------------------------------------------------

    def _collect_metrics(self) -> Dict[str, float]:
        return {
            "dd.gc.resident_nodes": float(self.node_count),
            "dd.gc.registered_roots": float(len(self._roots)),
            "dd.gc.pinned_roots": float(len(self._pins)),
        }

    def statistics(self) -> Dict[str, Any]:
        """Scalar summary for reports and the ``gc`` CLI subcommand."""
        return {
            "enabled": self.config.enabled,
            "collections": self.collections,
            "swept_nodes": self.swept_nodes_total,
            "swept_weights": self.swept_weights_total,
            "threshold": self._threshold,
            "resident_nodes": self.node_count,
            "peak_resident_nodes": self.peak_nodes,
            "registered_roots": len(self._roots),
            "pinned_roots": len(self._pins),
        }
