r"""The service's worker fleet: one worker client per shard.

The workers themselves are the job-execution core shared with the batch
engine (:mod:`repro.exec.worker`); the service keeps them warm
(``max_warm`` stacks each).  This module only picks the client shape
for a service mode:

``"inline"``
    :class:`~repro.exec.worker.InlineWorkerClient` -- workers in the
    service process, called from its executor threads.

``"process"``
    :class:`~repro.exec.worker.ProcessWorkerClient` -- one child
    process per worker behind a pipe, with hard ``SIGALRM`` deadlines
    and a fresh child after one dies.
"""

from __future__ import annotations

from typing import List

from repro.exec.worker import (
    InlineWorkerClient,
    ProcessWorkerClient,
    WorkerClient,
    WorkerOptions,
)

__all__ = ["MODES", "start_workers"]

#: The service modes, one per client shape.
MODES = ("inline", "process")


def start_workers(mode: str, count: int, options: WorkerOptions) -> List[WorkerClient]:
    """``count`` started worker clients of the ``mode`` shape."""
    if mode == "inline":
        return [InlineWorkerClient(worker_id, options) for worker_id in range(count)]
    return [ProcessWorkerClient(worker_id, options) for worker_id in range(count)]
