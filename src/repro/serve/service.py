r"""``SimulationService``: the synchronous facade over the front-end.

The event loop lives on a daemon thread owned by the service, so the
callers of :func:`repro.api.run`/:func:`repro.api.run_batch` stay plain
synchronous code -- they pass ``client=service`` and every request goes
through :meth:`submit` via :func:`asyncio.run_coroutine_threadsafe`.

Two worker modes:

``"inline"``
    Workers live in the service process
    (:class:`~repro.exec.worker.InlineWorkerClient`).  Deterministic,
    no subprocess cost, ideal for tests and single-machine batch use;
    deadlines are enforced at the queue and by response abandonment.

``"process"``
    Each worker is a child process behind a pipe
    (:class:`~repro.exec.worker.ProcessWorkerClient`): true
    parallelism across cores, hard ``SIGALRM`` deadlines mid-run, and a
    fresh child after one dies (only the request it was serving fails).

Use as a context manager::

    from repro.serve import SimulationService
    from repro.api import RunRequest, SimulatorConfig, run

    with SimulationService(workers=2) as service:
        result = run(RunRequest(circuit, SimulatorConfig()), client=service)

Results are byte-identical to the direct :func:`repro.api.run` path --
warm tables and the result cache change latency, never payloads (the
CI ``serve-smoke`` job asserts this across all four number systems).
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Any, Dict, List, Optional, Sequence

from repro import errors
from repro.api import RunRequest, RunResult
from repro.exec.batch import BatchResult, JobFailure
from repro.exec.worker import DEFAULT_MAX_WARM, WorkerOptions
from repro.obs import Telemetry
from repro.serve.cache import DEFAULT_CAPACITY
from repro.serve.frontend import DEFAULT_QUEUE_SIZE, ServiceFrontend
from repro.serve.router import DEFAULT_BUCKET_SIZE
from repro.serve.worker import MODES, start_workers

__all__ = ["SimulationService"]


class SimulationService:
    """A running simulation service: warm workers behind one front door.

    Parameters
    ----------
    workers:
        Fleet size (one shard queue and dispatcher per worker).
    mode:
        ``"inline"`` (in-process workers) or ``"process"``.
    cache_capacity / queue_size / bucket_size / max_warm:
        Result-cache entries, per-worker queue bound, router
        qubit-bucket width, warm simulator stacks per worker.
    telemetry:
        The service scope (``serve.*`` instruments land here).  Pass
        :meth:`Telemetry.tracing() <repro.obs.Telemetry.tracing>` to
        get per-request ``serve.request`` spans with worker
        ``exec.job`` spans re-parented onto them.
    """

    def __init__(
        self,
        workers: int = 2,
        mode: str = "inline",
        cache_capacity: int = DEFAULT_CAPACITY,
        queue_size: int = DEFAULT_QUEUE_SIZE,
        bucket_size: int = DEFAULT_BUCKET_SIZE,
        max_warm: int = DEFAULT_MAX_WARM,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if workers < 1:
            raise errors.ConfigError("service needs at least one worker")
        if mode not in MODES:
            raise errors.ConfigError(
                f"unknown service mode {mode!r}; choose from {MODES}"
            )
        self.workers = workers
        self.mode = mode
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._options = WorkerOptions(
            max_warm=max_warm, tracing=self.telemetry.tracer.enabled
        )
        self._cache_capacity = cache_capacity
        self._queue_size = queue_size
        self._bucket_size = bucket_size
        self._frontend: Optional[ServiceFrontend] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    # -- lifecycle -------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._frontend is not None and not self._closed

    def start(self) -> "SimulationService":
        """Build the worker fleet and start the event-loop thread."""
        if self._closed:
            raise errors.ServiceClosed("a closed service cannot be restarted")
        if self._frontend is not None:
            return self
        self._frontend = ServiceFrontend(
            start_workers(self.mode, self.workers, self._options),
            telemetry=self.telemetry,
            cache_capacity=self._cache_capacity,
            queue_size=self._queue_size,
            bucket_size=self._bucket_size,
        )
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        self._call(self._frontend.start())
        return self

    def close(self) -> None:
        """Drain queues, stop workers, tear the loop thread down."""
        if self._closed or self._frontend is None:
            self._closed = True
            return
        self._call(self._frontend.close())
        self._closed = True
        assert self._loop is not None and self._thread is not None
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        self._loop.close()

    def __enter__(self) -> "SimulationService":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _call(self, coroutine: Any) -> Any:
        assert self._loop is not None
        return asyncio.run_coroutine_threadsafe(coroutine, self._loop).result()

    # -- the client API (what run/run_batch delegate to) -----------------

    def submit(self, request: RunRequest, timeout: Optional[float] = None) -> RunResult:
        """One request through the service; blocks until answered.

        Raises the typed rejections (:class:`~repro.errors.QueueFull`,
        :class:`~repro.errors.DeadlineExceeded`,
        :class:`~repro.errors.ServiceClosed`) or
        :class:`~repro.errors.ServeError` on worker failure.
        """
        if not self.running:
            raise errors.ServiceClosed("service is not running; use start()")
        assert self._frontend is not None
        return self._call(self._frontend.submit(request, timeout=timeout))

    def run_batch(
        self, requests: Sequence[RunRequest], timeout: Optional[float] = None
    ) -> BatchResult:
        """A whole batch through the service, concurrently.

        Shape-compatible with :func:`repro.exec.run_batch`: results
        index-aligned with ``requests``, typed rejections and worker
        failures recorded as :class:`~repro.exec.batch.JobFailure`
        entries instead of raising, service-scope metrics on the
        result.
        """
        if not self.running:
            raise errors.ServiceClosed("service is not running; use start()")
        assert self._frontend is not None
        frontend = self._frontend

        async def _gather() -> List[Any]:
            return await asyncio.gather(
                *(frontend.submit(request, timeout=timeout) for request in requests),
                return_exceptions=True,
            )

        started = time.perf_counter()
        outcomes = self._call(_gather())
        seconds = time.perf_counter() - started

        results: List[Optional[RunResult]] = []
        failures: List[JobFailure] = []
        for index, outcome in enumerate(outcomes):
            if isinstance(outcome, BaseException):
                results.append(None)
                failures.append(
                    JobFailure(
                        index=index,
                        label=requests[index].job_label,
                        error_type=type(outcome).__name__,
                        message=str(outcome),
                        attempts=1,
                        timed_out=isinstance(outcome, errors.DeadlineExceeded),
                    )
                )
            else:
                results.append(outcome)
        return BatchResult(
            results=results,
            failures=failures,
            workers=self.workers,
            seconds=seconds,
            metrics=frontend.stats(),
            trace_id=frontend.trace_id,
        )

    # -- introspection ---------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Service-scope metrics snapshot (``serve.*`` family)."""
        if self._frontend is None:
            return {}
        return self._frontend.stats()
