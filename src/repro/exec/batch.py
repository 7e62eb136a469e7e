r"""Batch engine internals: worker protocol, timeout, retry, aggregation.

The public entry point is :func:`run_batch` (re-exported by
:mod:`repro.exec` and fronted by :func:`repro.api.run_batch`).  The
engine's contract, in order of importance:

**Determinism.**  ``workers=1`` runs every job sequentially in the
current process.  ``workers>1`` fans out over a
:class:`~concurrent.futures.ProcessPoolExecutor`, but because every job
builds its *own* manager/simulator stack from a picklable
:class:`~repro.api.SimulatorConfig` and ships its state home as a
:mod:`repro.dd.serialize` document, the per-job payloads are
byte-identical across worker counts (asserted by
``tests/exec/test_determinism.py`` and the CI batch-smoke job).

**Failure isolation.**  A job that raises, times out or loses its
worker process becomes a typed :class:`JobFailure` -- the rest of the
sweep completes.  Retries happen in rounds: every failed job of round
*n* is re-submitted in round *n+1* after an exponential backoff sleep,
up to ``retries`` extra rounds.

**Timeouts** are enforced worker-side with ``SIGALRM`` /
``signal.setitimer`` so a wedged simulation is interrupted inside the
job and still reports its partial telemetry.  When the engine runs off
the main thread (or on platforms without ``SIGALRM``) the deadline is
silently skipped rather than mis-fired.

**Telemetry.**  Each job snapshots its own registry (success *or*
failure); :func:`run_batch` merges the per-job ``sim.*``/``dd.*``
snapshots fleet-wide via :func:`repro.obs.merge_snapshots` and overlays
its own ``exec.batch.*`` instruments (jobs, completed, failed, retries,
timeouts, worker count, per-job seconds histogram), all inside one
``exec.batch`` span.

**Distributed tracing.**  When the coordinator's telemetry scope has
tracing enabled, :func:`run_batch` mints a
:class:`~repro.obs.TraceContext` (trace id + the ``exec.batch`` span's
id + the coordinator clock anchor) and injects it into every request.
Workers then record spans -- an ``exec.job`` root span wrapping the
whole job, the simulator's ``sim.gate``/``dd.apply.direct`` spans
below it -- and serialize them into the job outcome dict alongside the
metrics snapshot, on the success, failure *and* timeout paths.  The
coordinator re-parents every shipped span under its ``exec.batch``
span with per-worker clock-offset alignment
(:func:`repro.obs.reparent_spans`), so one export of the coordinator
tracer yields a single multi-process trace with one track per worker.
Trace propagation never touches simulation state: results are
byte-identical with tracing on or off.
"""

from __future__ import annotations

import signal
import threading
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.api import RunRequest, RunResult, run
from repro.dd.mem import cyclic_gc_paused
from repro.errors import ConfigError, ReproError
from repro.obs import (
    Telemetry,
    TraceContext,
    export_local_spans,
    export_worker_spans,
    merge_snapshots,
    reparent_spans,
)

__all__ = [
    "BatchResult",
    "JobFailure",
    "JobTimeout",
    "deadline_guard",
    "run_batch",
]

#: Histogram buckets for per-job wall time (seconds): batch jobs span
#: sub-10ms smoke circuits up to multi-minute GSE sweeps.
JOB_SECONDS_BUCKETS: Tuple[float, ...] = (
    0.01, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0,
)


class JobTimeout(ReproError):
    """A batch job exceeded its per-job wall-clock deadline."""


@dataclass(frozen=True)
class JobFailure:
    """Typed record of one job that failed all its attempts.

    ``metrics`` is the partial telemetry snapshot taken inside the
    worker after the last failing attempt -- for a timeout it shows how
    far the simulation got (gate counters, table sizes) before the
    alarm fired.
    """

    index: int
    label: str
    error_type: str
    message: str
    attempts: int
    timed_out: bool
    traceback: str = ""
    metrics: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "label": self.label,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
            "timed_out": self.timed_out,
            "metrics": self.metrics,
        }


@dataclass
class BatchResult:
    """Outcome of one :func:`run_batch` call.

    ``results`` is index-aligned with the submitted requests (``None``
    where the job ultimately failed); ``failures`` holds the typed
    failure records.  ``metrics`` is the fleet-wide merge of every
    job's telemetry snapshot plus the engine's own ``exec.batch.*``
    instruments.  ``trace_id`` is the batch-wide trace id when the
    coordinator scope had tracing enabled, else ``None``.
    """

    results: List[Optional[RunResult]]
    failures: List[JobFailure]
    workers: int
    seconds: float
    metrics: Dict[str, Any] = field(default_factory=dict)
    trace_id: Optional[str] = None

    @property
    def completed(self) -> List[RunResult]:
        """Successful results in submission order."""
        return [result for result in self.results if result is not None]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready batch report (per-job payloads plus fleet view)."""
        return {
            "workers": self.workers,
            "seconds": self.seconds,
            "jobs": len(self.results),
            "completed": len(self.completed),
            "failed": len(self.failures),
            "results": [
                result.to_dict() if result is not None else None
                for result in self.results
            ],
            "failures": [failure.to_dict() for failure in self.failures],
            "metrics": self.metrics,
            "trace_id": self.trace_id,
        }


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


@contextmanager
def deadline_guard(seconds: Optional[float]) -> Iterator[None]:
    """Raise :class:`JobTimeout` in this thread after ``seconds``.

    ``SIGALRM`` only works on the main thread of a process; worker
    processes always run jobs there, but the in-process fallback may
    not (e.g. under a threaded test runner), in which case the deadline
    is skipped rather than armed incorrectly.  Shared with the
    persistent service's worker loop (:mod:`repro.serve.worker`), whose
    child processes likewise run jobs on their main thread.
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


def _execute_job(
    index: int,
    request: RunRequest,
    timeout: Optional[float],
    serialize: bool = True,
) -> Tuple[int, Dict[str, Any]]:
    """Run one job; always return a picklable outcome payload.

    Executed inside the pool workers (and, for ``workers=1``, inline).
    The telemetry scope is created *before* the deadline is armed so a
    timed-out job still ships its partial snapshot home.  When the
    request carries a :class:`~repro.obs.TraceContext` the scope is
    forced into tracing mode, the whole attempt is wrapped in an
    ``exec.job`` span, and the span ring rides home in the outcome
    dict -- on the success, failure and timeout paths alike.  Pool
    workers serialize the ring to plain dicts; the in-process fallback
    passes ``serialize=False`` and ships the live :class:`Span`
    objects instead (no pickle boundary to cross).

    The attempt runs with CPython's cyclic collector paused
    (:func:`~repro.dd.mem.cyclic_gc_paused`).  The job's telemetry
    scope keeps its tables alive after :func:`~repro.api.run` returns;
    it lives in ``_attempt_job``'s frame, so reference counting frees
    it before the collector resumes.
    """
    with cyclic_gc_paused():
        return _attempt_job(index, request, timeout, serialize)


def _attempt_job(
    index: int,
    request: RunRequest,
    timeout: Optional[float],
    serialize: bool,
) -> Tuple[int, Dict[str, Any]]:
    """The body of :func:`_execute_job`."""
    context = request.trace_context
    scope = request.config.create_telemetry()
    if context is not None and not scope.tracer.enabled:
        scope = Telemetry(metrics=scope.metrics.enabled, tracing=True)
    export = export_worker_spans if serialize else export_local_spans
    job_attrs: Dict[str, Any] = {"label": request.job_label, "index": index}
    if context is not None:
        job_attrs["trace_id"] = context.trace_id
        job_attrs["parent_span_id"] = context.parent_span_id
    try:
        with deadline_guard(timeout):
            with scope.tracer.span("exec.job", **job_attrs):
                result = run(request, telemetry=scope)
        outcome: Dict[str, Any] = {"ok": True, "result": result}
        if context is not None:
            outcome["spans"] = export(scope.tracer, context)
        return index, outcome
    except Exception as exc:  # noqa: BLE001 - converted into JobFailure
        outcome = {
            "ok": False,
            "error_type": type(exc).__name__,
            "message": str(exc),
            "timed_out": isinstance(exc, JobTimeout),
            "traceback": traceback.format_exc(),
            "metrics": dict(scope.metrics.snapshot()),
        }
        if context is not None:
            outcome["spans"] = export(scope.tracer, context)
        return index, outcome


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


def _run_round(
    jobs: Sequence[Tuple[int, RunRequest]],
    workers: int,
    timeout: Optional[float],
) -> List[Tuple[int, Dict[str, Any]]]:
    """One attempt for every job in ``jobs``; outcomes in any order."""
    if workers <= 1:
        return [
            _execute_job(index, request, timeout, serialize=False)
            for index, request in jobs
        ]

    outcomes: List[Tuple[int, Dict[str, Any]]] = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures: Dict["Future[Tuple[int, Dict[str, Any]]]", int] = {
            pool.submit(_execute_job, index, request, timeout): index
            for index, request in jobs
        }
        pending = set(futures)
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                index = futures[future]
                try:
                    outcomes.append(future.result())
                except Exception as exc:  # noqa: BLE001 - worker died hard
                    outcomes.append(
                        (
                            index,
                            {
                                "ok": False,
                                "error_type": type(exc).__name__,
                                "message": f"worker process failed: {exc}",
                                "timed_out": False,
                                "traceback": traceback.format_exc(),
                                "metrics": {},
                            },
                        )
                    )
    return outcomes


def run_batch(
    requests: Sequence[RunRequest],
    workers: int = 1,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: float = 0.5,
    telemetry: Optional[Telemetry] = None,
) -> BatchResult:
    """Execute independent requests, optionally across a process pool.

    Parameters
    ----------
    requests:
        The jobs; results stay index-aligned with this sequence.
    workers:
        ``1`` (default) runs sequentially in-process -- fully
        deterministic, no subprocesses.  Higher counts use a
        :class:`~concurrent.futures.ProcessPoolExecutor`.
    timeout:
        Per-job wall-clock deadline in seconds (``None`` = unlimited).
    retries:
        Extra rounds granted to failed jobs (``0`` = single attempt).
    backoff:
        Base sleep between retry rounds; round *n* sleeps
        ``backoff * 2**(n-1)`` seconds.
    telemetry:
        The fleet scope for ``exec.batch.*`` instruments (a fresh
        metrics-only scope when omitted).
    """
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    if retries < 0:
        raise ConfigError("retries must be >= 0")
    if timeout is not None and timeout <= 0:
        raise ConfigError("timeout must be positive when set")
    if backoff < 0:
        raise ConfigError("backoff must be non-negative")

    scope = telemetry if telemetry is not None else Telemetry()
    metrics = scope.metrics
    jobs_total = metrics.counter("exec.batch.jobs")
    jobs_completed = metrics.counter("exec.batch.completed")
    jobs_failed = metrics.counter("exec.batch.failed")
    jobs_retried = metrics.counter("exec.batch.retries")
    jobs_timed_out = metrics.counter("exec.batch.timeouts")
    trace_spans = metrics.counter("exec.batch.trace.spans")
    worker_gauge = metrics.gauge("exec.batch.workers")
    job_seconds = metrics.histogram(
        "exec.job.seconds", buckets=JOB_SECONDS_BUCKETS
    )

    jobs_total.inc(len(requests))
    worker_gauge.set(workers)

    # Trace-context injection: one trace id for the whole batch, the
    # coordinator's exec.batch span as the common parent.  The traced
    # copies are what gets submitted (including retry rounds); the
    # caller's request objects are never mutated.
    context: Optional[TraceContext] = None
    if scope.tracer.enabled:
        context = TraceContext.for_tracer(scope.tracer)
    submitted: List[RunRequest] = [
        request if context is None else replace(request, trace_context=context)
        for request in requests
    ]
    span_payloads: List[Dict[str, Any]] = []

    results: List[Optional[RunResult]] = [None] * len(requests)
    attempts: Dict[int, int] = {index: 0 for index in range(len(requests))}
    last_failure: Dict[int, Dict[str, Any]] = {}
    pending: List[Tuple[int, RunRequest]] = list(enumerate(submitted))

    started = time.perf_counter()
    batch_attrs: Dict[str, Any] = {"jobs": len(requests), "workers": workers}
    if context is not None:
        batch_attrs["trace_id"] = context.trace_id
        batch_attrs["span_id"] = context.parent_span_id
    with scope.tracer.span("exec.batch", **batch_attrs) as batch_span:
        round_no = 0
        while pending and round_no <= retries:
            if round_no:
                jobs_retried.inc(len(pending))
                time.sleep(backoff * (2 ** (round_no - 1)))
            failed_this_round: List[Tuple[int, RunRequest]] = []
            for index, outcome in _run_round(pending, workers, timeout):
                attempts[index] += 1
                payload = outcome.pop("spans", None)
                if payload is not None:
                    span_payloads.append(payload)
                if outcome["ok"]:
                    result: RunResult = outcome["result"]
                    result.attempts = attempts[index]
                    results[index] = result
                    last_failure.pop(index, None)
                    jobs_completed.inc()
                    job_seconds.observe(result.seconds)
                else:
                    last_failure[index] = outcome
                    if outcome["timed_out"]:
                        jobs_timed_out.inc()
                    failed_this_round.append((index, submitted[index]))
            pending = sorted(failed_this_round)
            round_no += 1

        # Re-parent the shipped worker spans under this exec.batch span
        # while it is still open, so containment holds in the export:
        # offset-aligned worker times always land inside the batch
        # window.  Each worker process gets its own pid track; tid
        # numbers the payloads (attempts) within a worker.
        if context is not None:
            tids: Dict[int, int] = {}
            for payload in span_payloads:
                worker_pid = int(payload.get("pid", 0))
                tid = tids.get(worker_pid, 0)
                tids[worker_pid] = tid + 1
                adopted = reparent_spans(
                    scope.tracer,
                    payload,
                    parent_depth=batch_span.depth,
                    tid=tid,
                )
                trace_spans.inc(len(adopted))

    failures = [
        JobFailure(
            index=index,
            label=requests[index].job_label,
            error_type=outcome["error_type"],
            message=outcome["message"],
            attempts=attempts[index],
            timed_out=outcome["timed_out"],
            traceback=outcome.get("traceback", ""),
            metrics=outcome.get("metrics", {}),
        )
        for index, outcome in sorted(last_failure.items())
    ]
    jobs_failed.inc(len(failures))
    seconds = time.perf_counter() - started

    job_snapshots = [result.metrics for result in results if result is not None]
    job_snapshots.extend(failure.metrics for failure in failures)
    # One merge covers the per-job snapshots *and* the coordinator's
    # own registry, so shared counters (obs.trace.dropped) sum instead
    # of being overwritten; exec.batch.* exists only here and passes
    # through unchanged.  With zero requests this is just the
    # coordinator snapshot -- never the empty-list error case.
    merged = merge_snapshots([*job_snapshots, metrics.snapshot()])

    return BatchResult(
        results=results,
        failures=failures,
        workers=workers,
        seconds=seconds,
        metrics=merged,
        trace_id=None if context is None else context.trace_id,
    )
