"""Exception hierarchy for the :mod:`repro` package.

All library-specific errors derive from :class:`ReproError` so that
callers can catch everything raised by this package with a single
``except`` clause while still being able to distinguish the individual
failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class RingError(ReproError):
    """Base class for errors in the exact-arithmetic ring layer."""


class InexactDivisionError(RingError):
    """Raised when an exact ring division leaves the ring.

    For example dividing ``1`` by ``3`` inside ``D[omega]``: odd integers
    greater than one have no multiplicative inverse in the ring of dyadic
    cyclotomic integers (paper, Section IV-B, issue 2).
    """


class ZeroDivisionRingError(RingError):
    """Raised when dividing by the ring's zero element."""


class NonCanonicalError(RingError):
    """Raised when an internal canonical-form invariant is violated.

    This error indicates a bug in the library itself (canonicalisation is
    applied automatically by all constructors); it is surfaced as a
    distinct type so property-based tests can assert on it.
    """


class DDError(ReproError):
    """Base class for decision-diagram structural errors."""


class SanitizerError(DDError):
    """A canonical-form invariant violation found by the DD sanitizer.

    Raised by :mod:`repro.dd.sanitizer` when a walk over a decision
    diagram (or a sample of the compute tables) finds state that breaks
    one of the invariants canonicity rests on.  The structured fields
    let tests and tooling assert on the *kind* of violation:

    ``code``
        A short stable identifier, one of
        ``level-structure``, ``zero-edge-form``, ``weight-form``,
        ``normalization``, ``shadow-node``, ``stale-memo``,
        ``amplitude-mismatch``, ``refcount``.
    ``path``
        Child indices from the root edge to the offending node
        (empty for the root itself; ``None`` for non-walk findings
        such as stale compute-table entries).
    ``node_uid``
        The uid of the offending node, when one is involved.
    """

    def __init__(
        self,
        code: str,
        message: str,
        path: "tuple[int, ...] | None" = None,
        node_uid: "int | None" = None,
    ) -> None:
        location = ""
        if path is not None:
            location = f" at path {'/'.join(map(str, path)) or '<root>'}"
        if node_uid is not None:
            location += f" (node uid {node_uid})"
        super().__init__(f"[{code}]{location}: {message}")
        self.code = code
        self.path = path
        self.node_uid = node_uid


class LevelMismatchError(DDError):
    """Raised when combining decision diagrams over different qubit counts."""


class MemoryBudgetExceeded(DDError):
    """Live DD state exceeds the configured memory budget even after GC.

    Raised by :class:`repro.dd.mem.MemoryManager` when a collection
    triggered by a :class:`~repro.dd.mem.MemoryBudget` cannot bring the
    resident node count (or approximate byte footprint) back under the
    limit -- the *live* structure itself no longer fits, so further
    collections would only thrash.  Structured fields let callers
    report precisely what overflowed:

    ``nodes`` / ``approx_bytes``
        Resident totals measured after the final collection attempt
        (``approx_bytes`` is ``None`` when no byte limit was set).
    ``max_nodes`` / ``max_bytes``
        The configured limits (``None`` when unset).
    """

    def __init__(
        self,
        message: str,
        *,
        nodes: int,
        approx_bytes: "int | None" = None,
        max_nodes: "int | None" = None,
        max_bytes: "int | None" = None,
    ) -> None:
        super().__init__(message)
        self.nodes = nodes
        self.approx_bytes = approx_bytes
        self.max_nodes = max_nodes
        self.max_bytes = max_bytes


class TelemetryError(ReproError):
    """Base class for errors in the observability layer (:mod:`repro.obs`)."""


class SnapshotMergeError(TelemetryError):
    """Raised by :func:`repro.obs.merge_snapshots` on un-mergeable input.

    Merging telemetry snapshots is only meaningful when they describe
    the *same* instruments: an empty snapshot list, snapshots whose
    instrument sets are completely disjoint (telemetry from unrelated
    subsystems), or same-name histograms with different bucket
    boundaries (their cumulative ``le`` counts are not comparable) all
    raise this error instead of silently producing a misleading merge.
    """


class ServeError(ReproError):
    """Base class for errors raised by the persistent simulation service
    (:mod:`repro.serve`).  The two typed rejections below are the
    service's backpressure contract (see ``docs/API.md``): callers can
    catch them separately from real simulation failures and react
    (shed load, retry later, relax the deadline)."""


class QueueFull(ServeError):
    """A request was rejected because its shard's queue is at capacity.

    Raised by :meth:`repro.serve.ServiceFrontend.submit` *immediately*
    (submission never blocks): the bounded per-worker queue routed to
    by the shard router is full.  The request was not executed and had
    no side effects; counted under ``serve.rejected.queue_full``.
    """


class DeadlineExceeded(ServeError):
    """A request missed its per-request deadline.

    Raised when the deadline passes while the request is still queued
    (the worker never starts it) or when the worker-side alarm
    interrupts the simulation mid-run.  Counted under
    ``serve.rejected.deadline``.
    """


class ServiceClosed(ServeError):
    """A request was submitted to a service that is shut down (or was
    never started)."""


class ConfigError(ReproError):
    """Raised by :mod:`repro.api` for invalid configuration values.

    The facade validates eagerly (at :class:`~repro.api.SimulatorConfig`
    construction) so a bad batch specification fails before any worker
    process is spawned.
    """


class CircuitError(ReproError):
    """Raised for malformed circuits or gate applications."""


class SimulationError(ReproError):
    """Raised when a simulation cannot proceed (e.g. collapsed state)."""


class ApproximationError(ReproError):
    """Raised when a Clifford+T approximation cannot reach the target."""
