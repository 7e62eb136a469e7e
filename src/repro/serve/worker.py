r"""Warm workers: persistent manager/simulator stacks serving requests.

The batch engine builds a fresh :class:`~repro.dd.manager.DDManager`
per job -- correct, but every job pays cold unique/compute/weight
tables.  A :class:`WarmWorker` instead keeps one live simulator stack
per *warm-entry identity* (configuration plus circuit width) across
requests: gate DDs stay pinned, compute-table entries survive, interned
ring coefficients are already there.  Repeated requests then run mostly
out of cache, which is the latency win the service exists for.

Correctness of reuse:

* The exact systems and ``eps=0`` numerics produce value-based
  serialized payloads, so a warm run is byte-identical to a cold one.
* ``eps>0`` numeric tolerance tables *snap* -- which representative a
  weight collapses to depends on insertion history.  Re-running the
  same circuit replays the same history (still byte-identical), but a
  *different* circuit could pre-seed snapping targets.  Warm entries
  for lossy numeric configs are therefore additionally keyed by the
  canonical circuit hash: reuse only ever happens for structurally
  identical circuits there.
* A request that fails (including a deadline hit mid-run) discards its
  warm entry entirely -- a half-applied simulation may hold root
  registrations the worker cannot account for, and rebuilding the
  entry on next use is cheap compared to auditing it.

Memory discipline: entries are LRU-bounded (``max_warm``), state roots
are released after serialization (``keep_state=False`` on
:func:`repro.api.run_with`), and the manager's own
:meth:`~repro.dd.mem.MemoryManager.maybe_collect` runs between jobs so
a budgeted config stays inside its :class:`~repro.dd.mem.MemoryBudget`
across requests, not just within one.

Two client shapes front a worker: :class:`InlineWorkerClient` keeps it
in-process (deterministic, test-friendly, shares the GIL), and
:class:`ProcessWorkerClient` runs :func:`worker_main` in a child
process connected by a pipe -- there the job executes on the child's
main thread, so the batch engine's ``SIGALRM``
:func:`~repro.exec.batch.deadline_guard` enforces per-request deadlines
even mid-simulation.
"""

from __future__ import annotations

import multiprocessing
import traceback
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.api import RunRequest, run_with
from repro.circuits.canonical import canonical_hash
from repro.dd.mem import cyclic_gc_paused
from repro.errors import ServeError
from repro.exec.batch import JobTimeout, deadline_guard
from repro.obs import Telemetry, export_local_spans, export_worker_spans
from repro.serve.protocol import SHUTDOWN, ServeRequest, ServeResponse
from repro.sim.simulator import Simulator

__all__ = [
    "InlineWorkerClient",
    "ProcessWorkerClient",
    "WarmWorker",
    "WorkerOptions",
    "worker_main",
]

#: Default number of warm simulator stacks one worker keeps alive.
DEFAULT_MAX_WARM = 4


@dataclass(frozen=True)
class WorkerOptions:
    """Picklable worker configuration (crosses the process boundary).

    ``tracing`` builds every warm entry's telemetry scope with the span
    ring enabled, so requests carrying a
    :class:`~repro.obs.TraceContext` come back with their worker spans;
    the front-end sets it from its own telemetry mode.
    """

    max_warm: int = DEFAULT_MAX_WARM
    tracing: bool = False


class WarmWorker:
    """One worker's warm-entry table plus the request execution loop."""

    def __init__(
        self,
        worker_id: int,
        options: Optional[WorkerOptions] = None,
        serialize_spans: bool = True,
    ) -> None:
        self.worker_id = worker_id
        self.options = options if options is not None else WorkerOptions()
        self.serialize_spans = serialize_spans
        self._entries: "OrderedDict[Tuple[Any, ...], Tuple[Simulator, Telemetry]]" = (
            OrderedDict()
        )

    # -- warm-entry management ------------------------------------------

    def _entry_key(self, request: RunRequest) -> Tuple[Any, ...]:
        config = request.config
        key: Tuple[Any, ...] = (config, request.circuit.num_qubits)
        if config.system == "numeric" and config.eps > 0.0:
            # Lossy tolerance tables snap history-dependently; only a
            # structurally identical circuit may reuse this entry.
            key += (canonical_hash(request.circuit),)
        return key

    def _entry_for(self, request: RunRequest) -> Tuple[Simulator, Telemetry, bool]:
        """The (simulator, scope) pair for this request, plus warm flag."""
        key = self._entry_key(request)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            return entry[0], entry[1], True
        config = request.config
        scope = Telemetry(
            metrics=config.telemetry != "off", tracing=self.options.tracing
        )
        simulator = config.create_simulator(request.circuit.num_qubits, scope)
        self._entries[key] = (simulator, scope)
        while len(self._entries) > self.options.max_warm:
            self._entries.popitem(last=False)
        return simulator, scope, False

    def _discard(self, request: RunRequest) -> None:
        self._entries.pop(self._entry_key(request), None)

    @property
    def warm_entries(self) -> int:
        return len(self._entries)

    # -- execution -------------------------------------------------------

    def execute(self, serve_request: ServeRequest) -> ServeResponse:
        """Run one request on its warm entry; never raises.

        Mirrors the batch engine's ``_execute_job``: the whole attempt
        runs inside an ``exec.job`` span when the request carries a
        trace context, spans ship home on every outcome path, and any
        exception (including a ``SIGALRM`` deadline hit armed by the
        caller) becomes a typed failure response.

        The request runs with CPython's cyclic collector paused
        (:func:`~repro.dd.mem.cyclic_gc_paused`), so a stack evicted or
        discarded here is freed by reference counting before it resumes.
        """
        with cyclic_gc_paused():
            return self._execute(serve_request)

    def _execute(self, serve_request: ServeRequest) -> ServeResponse:
        request = serve_request.request
        context = request.trace_context
        simulator, scope, warm = self._entry_for(request)
        export = export_worker_spans if self.serialize_spans else export_local_spans
        job_attrs: Dict[str, Any] = {
            "label": request.job_label,
            "seq": serve_request.seq,
            "worker": self.worker_id,
            "warm": warm,
        }
        if context is not None:
            job_attrs["trace_id"] = context.trace_id
            job_attrs["parent_span_id"] = context.parent_span_id
        try:
            with scope.tracer.span("exec.job", **job_attrs):
                result = run_with(
                    request, simulator, telemetry=scope, keep_state=False
                )
            response = ServeResponse(
                seq=serve_request.seq,
                ok=True,
                worker_id=self.worker_id,
                result=result,
                warm=warm,
            )
        except Exception as exc:  # noqa: BLE001 - becomes a typed response
            self._discard(request)
            response = ServeResponse(
                seq=serve_request.seq,
                ok=False,
                worker_id=self.worker_id,
                error_type=type(exc).__name__,
                message=str(exc) or traceback.format_exc(limit=1),
                timed_out=isinstance(exc, JobTimeout),
                warm=warm,
                metrics=dict(scope.metrics.snapshot()),
            )
        if context is not None:
            response.spans = export(scope.tracer, context)
        # The warm scope lives across requests: drain its span ring so
        # the next request does not re-ship this one's spans.
        scope.tracer.clear()
        # Budgeted configs collect between jobs, not only under gate
        # pressure -- a long-lived worker must return to its floor.
        memory = simulator.manager.memory
        if memory.config.enabled or memory.config.budget is not None:
            memory.maybe_collect()
        return response


# ---------------------------------------------------------------------------
# Worker clients (what the front-end dispatches to)
# ---------------------------------------------------------------------------


class InlineWorkerClient:
    """In-process worker: direct calls, no pickle boundary.

    Deadlines are enforced only at the queue (the front-end's dispatch
    check and response timeout): the execute call runs on an executor
    thread where ``SIGALRM`` cannot be armed.
    """

    def __init__(self, worker_id: int, options: Optional[WorkerOptions] = None) -> None:
        self.worker_id = worker_id
        self._worker = WarmWorker(worker_id, options, serialize_spans=False)

    def execute(self, serve_request: ServeRequest) -> ServeResponse:
        return self._worker.execute(serve_request)

    def close(self) -> None:
        return None


def worker_main(worker_id: int, conn: Any, options: WorkerOptions) -> None:
    """Child-process request loop: recv, execute under deadline, send.

    Runs on the child's main thread, so
    :func:`~repro.exec.batch.deadline_guard` arms a real ``SIGALRM``
    per request -- a wedged simulation is interrupted mid-run and still
    answers with its partial telemetry.
    """
    worker = WarmWorker(worker_id, options, serialize_spans=True)
    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError):
            break
        if item == SHUTDOWN:
            break
        try:
            with deadline_guard(item.timeout):
                response = worker.execute(item)
        except Exception as exc:  # noqa: BLE001 - alarm outside execute()
            response = ServeResponse(
                seq=item.seq,
                ok=False,
                worker_id=worker_id,
                error_type=type(exc).__name__,
                message=str(exc),
                timed_out=isinstance(exc, JobTimeout),
            )
        conn.send(response)
    conn.close()


class ProcessWorkerClient:
    """Worker in a child process behind a pipe.

    One request is in flight per worker at a time (the front-end's
    dispatcher serializes its shard), so a plain send/recv pair is the
    whole protocol.
    """

    def __init__(self, worker_id: int, options: Optional[WorkerOptions] = None) -> None:
        self.worker_id = worker_id
        options = options if options is not None else WorkerOptions()
        # Platform-default start method (fork on Linux), matching the
        # batch engine's ProcessPoolExecutor: spawn would re-import
        # __main__, breaking script-driven services.
        ctx = multiprocessing.get_context()
        self._conn, child_conn = ctx.Pipe()
        self._process = ctx.Process(
            target=worker_main,
            args=(worker_id, child_conn, options),
            daemon=True,
            name=f"repro-serve-worker-{worker_id}",
        )
        self._process.start()
        child_conn.close()

    def execute(self, serve_request: ServeRequest) -> ServeResponse:
        try:
            self._conn.send(serve_request)
            return self._conn.recv()
        except (EOFError, OSError) as exc:
            raise ServeError(
                f"worker {self.worker_id} process died mid-request: {exc}"
            ) from exc

    def close(self) -> None:
        try:
            self._conn.send(SHUTDOWN)
        except (BrokenPipeError, OSError):
            pass
        self._process.join(timeout=5.0)
        if self._process.is_alive():  # pragma: no cover - hung worker
            self._process.terminate()
            self._process.join(timeout=1.0)
        self._conn.close()
