r"""The batch engine: retry rounds, aggregation, tracing.

The public entry point is :func:`run_batch` (re-exported by
:mod:`repro.exec` and fronted by :func:`repro.api.run_batch`).  It is a
thin client of the one worker core (:mod:`repro.exec.worker`): every
job runs as a :class:`~repro.exec.worker.ServeRequest` on a *cold*
worker (``max_warm=0``: a fresh stack per job, nothing kept).  The
engine's contract, in order of importance:

**Determinism.**  ``workers=1`` runs every job sequentially on the
caller's thread through an in-process client.  ``workers>1`` starts
that many pipe-connected child workers, with one dispatcher thread per
child pulling the next job, but because every job builds its *own*
manager/simulator stack from a picklable
:class:`~repro.api.SimulatorConfig` and ships its state home as a
:mod:`repro.dd.serialize` document, the per-job payloads are
byte-identical across worker counts (asserted by
``tests/exec/test_determinism.py`` and the CI batch-smoke job).

**Failure isolation.**  A job that raises, times out or kills its
worker process becomes a typed :class:`JobFailure` -- the rest of the
sweep completes.  A dead child fails only the job it was running and is
replaced before the next one.  Retries happen in rounds: every failed
job of round *n* is re-submitted in round *n+1* after an exponential
backoff sleep, up to ``retries`` extra rounds.

**Timeouts** are enforced worker-side with ``SIGALRM`` /
``signal.setitimer`` (:func:`~repro.exec.worker.deadline_guard`) so a
wedged simulation is interrupted inside the job and still reports its
partial telemetry.  When ``workers=1`` runs off the main thread (or on
platforms without ``SIGALRM``) the deadline is silently skipped rather
than mis-fired.

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
below it -- and ship them home on the response, on the success,
failure *and* timeout paths.  The coordinator re-parents every shipped
span under its ``exec.batch`` span with per-worker clock-offset
alignment (:func:`repro.obs.reparent_spans`), so one export of the
coordinator tracer yields a single multi-process trace with one track
per worker.  Trace propagation never touches simulation state: results
are byte-identical with tracing on or off.
"""

from __future__ import annotations

import queue
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.api import RunRequest, RunResult
from repro.errors import ConfigError
from repro.exec.worker import (
    InlineWorkerClient,
    ProcessWorkerClient,
    ServeRequest,
    ServeResponse,
    WorkerClient,
    WorkerOptions,
)
from repro.obs import Telemetry, TraceContext, merge_snapshots, reparent_spans

__all__ = ["BatchResult", "JobFailure", "run_batch"]

#: Histogram buckets for per-job wall time (seconds): batch jobs span
#: sub-10ms smoke circuits up to multi-minute GSE sweeps.
JOB_SECONDS_BUCKETS: Tuple[float, ...] = (
    0.01, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0,
)

#: A batch job runs on a cold worker: a fresh stack per job, dropped
#: with it -- no warm entries, no circuit hashing.
_COLD = WorkerOptions(max_warm=0)

_Job = Tuple[int, RunRequest]


@dataclass(frozen=True)
class JobFailure:
    """Typed record of one job that failed all its attempts.

    ``metrics`` is the partial telemetry snapshot taken inside the
    worker after the last failing attempt -- for a timeout it shows how
    far the simulation got (gate counters, table sizes) before the
    alarm fired.  A job whose worker process died has none.
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
# Dispatch
# ---------------------------------------------------------------------------


def _attempt(
    client: WorkerClient, job: _Job, timeout: Optional[float]
) -> ServeResponse:
    """One attempt of one job; a failure to deliver it fails only this job.

    The worker answers every job it receives; what reaches this handler
    is a worker process that died mid-job (:class:`~repro.errors.ServeError`,
    the client has already replaced it) or a request that could not be
    sent to it.
    """
    index, request = job
    try:
        return client.execute(ServeRequest(seq=index, request=request, timeout=timeout))
    except Exception as exc:  # noqa: BLE001 - becomes this job's JobFailure
        return ServeResponse(
            seq=index,
            ok=False,
            worker_id=client.worker_id,
            error_type=type(exc).__name__,
            message=str(exc),
            traceback=traceback.format_exc(),
        )


def _drain(
    client: WorkerClient, jobs: "queue.SimpleQueue[_Job]", timeout: Optional[float]
) -> List[ServeResponse]:
    """One child's dispatcher: feed it the next job until none is left."""
    responses: List[ServeResponse] = []
    while True:
        try:
            job = jobs.get_nowait()
        except queue.Empty:
            return responses
        responses.append(_attempt(client, job, timeout))


def _run_round(
    jobs: Sequence[_Job], clients: Sequence[WorkerClient], timeout: Optional[float]
) -> List[ServeResponse]:
    """One attempt for every job in ``jobs``; responses in any order."""
    if len(clients) == 1:
        return [_attempt(clients[0], job, timeout) for job in jobs]
    pending: "queue.SimpleQueue[_Job]" = queue.SimpleQueue()
    for job in jobs:
        pending.put(job)
    with ThreadPoolExecutor(
        max_workers=len(clients), thread_name_prefix="repro-batch"
    ) as dispatchers:
        drained = dispatchers.map(_drain, clients, repeat(pending), repeat(timeout))
        return [response for responses in drained for response in responses]


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


def run_batch(
    requests: Sequence[RunRequest],
    workers: int = 1,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: float = 0.5,
    telemetry: Optional[Telemetry] = None,
) -> BatchResult:
    """Execute independent requests, optionally across worker processes.

    Parameters
    ----------
    requests:
        The jobs; results stay index-aligned with this sequence.
    workers:
        ``1`` (default) runs sequentially on the caller's thread --
        fully deterministic, no subprocesses.  Higher counts start that
        many child workers (at most one per job), each fed by its own
        dispatcher thread.
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
    last_failure: Dict[int, ServeResponse] = {}
    pending: List[_Job] = list(enumerate(submitted))

    started = time.perf_counter()
    batch_attrs: Dict[str, Any] = {"jobs": len(requests), "workers": workers}
    if context is not None:
        batch_attrs["trace_id"] = context.trace_id
        batch_attrs["span_id"] = context.parent_span_id
    clients: List[WorkerClient] = (
        [InlineWorkerClient(0, _COLD)]
        if workers == 1
        else [
            ProcessWorkerClient(worker_id, _COLD)
            for worker_id in range(min(workers, len(requests)))
        ]
    )
    try:
        with scope.tracer.span("exec.batch", **batch_attrs) as batch_span:
            round_no = 0
            while pending and round_no <= retries:
                if round_no:
                    jobs_retried.inc(len(pending))
                    time.sleep(backoff * (2 ** (round_no - 1)))
                failed_this_round: List[_Job] = []
                for response in _run_round(pending, clients, timeout):
                    index = response.seq
                    attempts[index] += 1
                    if response.spans is not None:
                        span_payloads.append(response.spans)
                    if response.result is not None:
                        result = response.result
                        result.attempts = attempts[index]
                        results[index] = result
                        last_failure.pop(index, None)
                        jobs_completed.inc()
                        job_seconds.observe(result.seconds)
                    else:
                        last_failure[index] = response
                        if response.timed_out:
                            jobs_timed_out.inc()
                        failed_this_round.append((index, submitted[index]))
                pending = sorted(failed_this_round)
                round_no += 1

            # Re-parent the shipped worker spans under this exec.batch
            # span while it is still open, so containment holds in the
            # export: offset-aligned worker times always land inside the
            # batch window.  Each worker process gets its own pid track;
            # tid numbers the payloads (attempts) within a worker.
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
    finally:
        for client in clients:
            client.close()

    failures = [
        JobFailure(
            index=index,
            label=requests[index].job_label,
            error_type=response.error_type,
            message=response.message,
            attempts=attempts[index],
            timed_out=response.timed_out,
            traceback=response.traceback,
            metrics=response.metrics,
        )
        for index, response in sorted(last_failure.items())
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
