r"""The one job-execution core: a worker and its two client shapes.

Every job that leaves the in-process :func:`repro.api.run` path -- a
batch job of :func:`~repro.exec.run_batch` or a request of the
persistent service (:mod:`repro.serve`) -- runs through
:meth:`WarmWorker.execute`, which turns a :class:`ServeRequest` into a
:class:`ServeResponse` (a :class:`~repro.api.RunResult` or a typed
failure) and never raises.  Everything crossing a process boundary is
plain, picklable data.

A worker keeps up to ``max_warm`` live simulator stacks, one per
configuration plus circuit width, so repeated requests run on hot
unique/compute/weight tables.  Reuse is byte-identical: exact and
``eps=0`` payloads are value-based, and lossy ``eps>0`` tolerance
tables, which snap history-dependently, are additionally keyed by the
canonical circuit hash.  A failed request discards its entry.  A worker
with ``max_warm=0`` is *cold*, the batch engine's shape: a fresh stack
per request, and no hashing, keeping or collecting.

:class:`InlineWorkerClient` runs a worker in the calling process;
:class:`ProcessWorkerClient` runs :func:`worker_main` in a child behind
a pipe.  The per-request deadline is a ``SIGALRM``
(:func:`deadline_guard`), armed wherever the job runs on a process's
main thread.  A child that dies fails only the request it was serving:
the client raises :class:`~repro.errors.ServeError` for it and starts a
fresh child for the next one.
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
import traceback
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Optional, Tuple, Union

from repro.api import RunRequest, RunResult, run_with
from repro.circuits.canonical import canonical_hash
from repro.dd.mem import cyclic_gc_paused
from repro.errors import ReproError, ServeError
from repro.obs import Telemetry, export_local_spans, export_worker_spans
from repro.sim.simulator import Simulator

__all__ = [
    "DEFAULT_MAX_WARM",
    "SHUTDOWN",
    "InlineWorkerClient",
    "JobTimeout",
    "ProcessWorkerClient",
    "ServeRequest",
    "ServeResponse",
    "WarmWorker",
    "WorkerClient",
    "WorkerOptions",
    "deadline_guard",
    "worker_main",
]

#: Default number of warm simulator stacks one worker keeps alive.
DEFAULT_MAX_WARM = 4

#: Sentinel ending a worker loop (string: trivially picklable/comparable).
SHUTDOWN = "__repro_serve_shutdown__"


class JobTimeout(ReproError):
    """A job exceeded its per-job wall-clock deadline."""


@contextmanager
def deadline_guard(seconds: Optional[float]) -> Iterator[None]:
    """Raise :class:`JobTimeout` in this thread after ``seconds``.

    ``SIGALRM`` only works on the main thread of a process; child
    workers always run jobs there, but an in-process worker may not
    (the service's executor threads, a threaded test runner), in which
    case the deadline is skipped rather than armed incorrectly.
    """
    if (
        not seconds
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _alarm(signum: int, frame: Any) -> None:
        raise JobTimeout(f"job exceeded its {seconds:g}s deadline")

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@dataclass(frozen=True)
class ServeRequest:
    """One job as dispatched to a worker.

    ``seq`` correlates the response with the request: the service
    front-end's request number, or the batch job's index.  ``timeout``
    is the *remaining* budget in seconds at dispatch time -- an
    interval, not an absolute timestamp, because worker clocks are not
    the dispatcher's clock.
    """

    seq: int
    request: RunRequest
    timeout: Optional[float] = None


@dataclass
class ServeResponse:
    """A worker's answer to one :class:`ServeRequest`.

    Exactly one of ``result`` (success) or ``error_type``/``message``
    (typed failure, with the formatted ``traceback``) is populated.
    ``timed_out`` marks deadline hits.  ``spans`` is the exported
    tracer ring when the request carried a
    :class:`~repro.obs.TraceContext` (shipped on success and failure
    alike); ``metrics`` is the partial telemetry snapshot of a failed
    attempt.  ``warm`` reports whether the worker served the request
    from an already-hot stack.
    """

    seq: int
    ok: bool
    worker_id: int
    result: Optional[RunResult] = None
    error_type: str = ""
    message: str = ""
    traceback: str = ""
    timed_out: bool = False
    warm: bool = False
    spans: Optional[Dict[str, Any]] = None
    metrics: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class WorkerOptions:
    """Picklable worker configuration (crosses the process boundary).

    ``max_warm`` bounds the warm stacks (``0``: a cold worker).
    ``tracing`` builds every stack's telemetry scope with the span ring
    enabled; a request carrying a :class:`~repro.obs.TraceContext` gets
    one regardless (its spans ship home on the response).
    """

    max_warm: int = DEFAULT_MAX_WARM
    tracing: bool = False


class WarmWorker:
    """One worker's warm-entry table plus the request execution body."""

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

    def _new_stack(self, request: RunRequest) -> Tuple[Simulator, Telemetry]:
        config = request.config
        scope = Telemetry(
            metrics=config.telemetry != "off",
            tracing=self.options.tracing or request.trace_context is not None,
        )
        return config.create_simulator(request.circuit.num_qubits, scope), scope

    def _entry_for(self, request: RunRequest) -> Tuple[Simulator, Telemetry, bool]:
        """The (simulator, scope) pair for this request, plus warm flag."""
        if not self.options.max_warm:
            simulator, scope = self._new_stack(request)
            return simulator, scope, False
        key = self._entry_key(request)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            return entry[0], entry[1], True
        entry = self._entries[key] = self._new_stack(request)
        while len(self._entries) > self.options.max_warm:
            self._entries.popitem(last=False)
        return entry[0], entry[1], False

    def _discard(self, request: RunRequest) -> None:
        if self._entries:
            self._entries.pop(self._entry_key(request), None)

    @property
    def warm_entries(self) -> int:
        return len(self._entries)

    # -- execution -------------------------------------------------------

    def execute(self, serve_request: ServeRequest) -> ServeResponse:
        """Run one request; never raises.

        The whole attempt runs inside an ``exec.job`` span, spans ship
        home on every outcome path when the request carries a trace
        context, and any exception -- a ``SIGALRM`` deadline hit
        included -- becomes a typed failure response.

        This is the one per-job owner of CPython's cyclic-collector
        pause (:func:`~repro.dd.mem.cyclic_gc_paused`): a cold stack,
        or a warm one evicted or discarded here, dies with
        :meth:`_execute`'s frame and is freed by reference counting
        before the collector resumes.
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
            "index": serve_request.seq,
            "seq": serve_request.seq,
            "worker": self.worker_id,
            "warm": warm,
        }
        if context is not None:
            job_attrs["trace_id"] = context.trace_id
            job_attrs["parent_span_id"] = context.parent_span_id
        try:
            with deadline_guard(serve_request.timeout):
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
                traceback=traceback.format_exc(),
                timed_out=isinstance(exc, JobTimeout),
                warm=warm,
                metrics=dict(scope.metrics.snapshot()),
            )
        if context is not None:
            response.spans = export(scope.tracer, context)
        if response.ok and self.options.max_warm:
            # The warm scope lives across requests: drain its span ring
            # so the next request does not re-ship this one's spans.
            scope.tracer.clear()
            # Budgeted configs collect between jobs, not only under gate
            # pressure -- a long-lived worker must return to its floor.
            memory = simulator.manager.memory
            if memory.config.enabled or memory.config.budget is not None:
                memory.maybe_collect()
        return response


# ---------------------------------------------------------------------------
# Worker clients
# ---------------------------------------------------------------------------


class InlineWorkerClient:
    """In-process worker: direct calls, no pickle boundary.

    The job runs on the calling thread, so its deadline is armed only
    when that is the main thread (``run_batch(workers=1)``); the
    service calls it from executor threads and enforces deadlines at
    its queue instead.
    """

    def __init__(self, worker_id: int, options: Optional[WorkerOptions] = None) -> None:
        self.worker_id = worker_id
        self._worker = WarmWorker(worker_id, options, serialize_spans=False)

    def execute(self, serve_request: ServeRequest) -> ServeResponse:
        return self._worker.execute(serve_request)

    def close(self) -> None:
        return None


def worker_main(worker_id: int, conn: Any, options: WorkerOptions) -> None:
    """Child-process request loop: recv, execute, send.

    Runs on the child's main thread, so each request's deadline is a
    real ``SIGALRM`` -- a wedged simulation is interrupted mid-run and
    still answers with its partial telemetry.
    """
    worker = WarmWorker(worker_id, options, serialize_spans=True)
    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError):
            break
        if item == SHUTDOWN:
            break
        conn.send(worker.execute(item))
    conn.close()


class ProcessWorkerClient:
    """Worker in a child process behind a pipe.

    One request is in flight per client at a time (its dispatcher
    serializes it), so a plain send/recv pair is the whole protocol.
    When the child dies mid-request, :meth:`execute` raises
    :class:`~repro.errors.ServeError` for that request and replaces the
    child, so the next request runs on a fresh worker.
    """

    def __init__(self, worker_id: int, options: Optional[WorkerOptions] = None) -> None:
        self.worker_id = worker_id
        self._options = options if options is not None else WorkerOptions()
        self._start()

    def _start(self) -> None:
        # Platform-default start method (fork on Linux): spawn would
        # re-import __main__, breaking script-driven callers.
        ctx = multiprocessing.get_context()
        self._conn, child_conn = ctx.Pipe()
        self._process = ctx.Process(
            target=worker_main,
            args=(self.worker_id, child_conn, self._options),
            daemon=True,
            name=f"repro-worker-{self.worker_id}",
        )
        self._process.start()
        child_conn.close()

    def execute(self, serve_request: ServeRequest) -> ServeResponse:
        try:
            self._conn.send(serve_request)
            response: ServeResponse = self._conn.recv()
            return response
        except (EOFError, OSError) as exc:
            self._conn.close()
            if self._process.is_alive():
                self._process.kill()
            self._process.join()
            self._start()
            raise ServeError(
                f"worker {self.worker_id} process died mid-request: {exc!r}"
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


#: Either client shape; both answer ``execute(ServeRequest)`` and ``close()``.
WorkerClient = Union[InlineWorkerClient, ProcessWorkerClient]
