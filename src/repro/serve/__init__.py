r"""``repro.serve`` -- the persistent simulation service.

The batch engine (:mod:`repro.exec.batch`) is built for sweeps: fan
out, compute, tear down.  Interactive and repeated workloads -- notebooks
iterating on one circuit, an evaluation driver replaying cases, CI
smoke loops -- pay its per-job manager construction and cold
unique/compute/weight tables every single time.  This package keeps
the stack *alive* instead:

:class:`SimulationService`
    The synchronous facade: a fleet of warm workers behind an asyncio
    front door on a daemon thread.  Pass it as ``client=`` to
    :func:`repro.api.run` / :func:`repro.api.run_batch`.

:class:`~repro.serve.frontend.ServiceFrontend`
    Admission control: canonical-form result cache, shard routing by
    number system and qubit bucket, bounded per-worker queues with
    typed :class:`~repro.errors.QueueFull` /
    :class:`~repro.errors.DeadlineExceeded` rejections.

:class:`~repro.exec.worker.WarmWorker`
    The job-execution core the batch engine also runs on, here kept
    warm: one live manager/simulator per configuration, hot tables
    across requests, GC between jobs, LRU-bounded warm entries.
    In-process or child-process (``SIGALRM`` deadlines, a fresh child
    after one dies) clients, picked per service mode by
    :mod:`repro.serve.worker`.

The service contract: **latency changes, payloads never do.**  Every
result -- cache hit, warm run, cold run -- is byte-identical to the
direct :func:`repro.api.run` path (asserted across all four number
systems by ``tests/serve/`` and the CI ``serve-smoke`` job).
"""

from __future__ import annotations

from repro.exec.worker import (
    InlineWorkerClient,
    ProcessWorkerClient,
    ServeRequest,
    ServeResponse,
    WarmWorker,
    WorkerOptions,
)
from repro.serve.cache import ResultCache, request_key
from repro.serve.frontend import ServiceFrontend
from repro.serve.router import ShardRouter
from repro.serve.service import SimulationService

__all__ = [
    "InlineWorkerClient",
    "ProcessWorkerClient",
    "ResultCache",
    "ServeRequest",
    "ServeResponse",
    "ServiceFrontend",
    "ShardRouter",
    "SimulationService",
    "WarmWorker",
    "WorkerOptions",
    "request_key",
]
