r"""``repro.exec`` -- job execution: the worker core and the batch engine.

Batch jobs and the persistent service's requests (:mod:`repro.serve`)
run on one worker core, :mod:`repro.exec.worker`.

The evaluation sweeps of the paper (eps tradeoff, qubit scaling, GC
tuning, kernel ablation) are embarrassingly parallel: every point is an
independent simulation.  :func:`run_batch` fans typed
:class:`~repro.api.RunRequest` jobs out over cold child workers and
brings results home as plain data:

* per-job **timeout** (worker-side alarm) and bounded **retry** with
  exponential backoff;
* typed failure capture -- a crashed or timed-out job, or one whose
  worker process died, becomes a :class:`JobFailure` carrying the
  exception text, attempt count and the partial telemetry snapshot,
  instead of aborting the sweep;
* result transport through :mod:`repro.dd.serialize` state documents
  plus a :class:`~repro.obs.MetricsRegistry` snapshot per job, merged
  fleet-wide (:func:`repro.obs.merge_snapshots`) on the
  :class:`BatchResult`.

``workers=1`` never spawns a process: jobs run sequentially on the
caller's thread, which is the deterministic fallback the test-suite
uses and the baseline that parallel runs are verified byte-identical
against.

Callers should reach this engine through the facade --
:func:`repro.api.run_batch` -- rather than importing it directly.
"""

from __future__ import annotations

from repro.exec.batch import BatchResult, JobFailure, run_batch
from repro.exec.worker import JobTimeout, deadline_guard

__all__ = ["BatchResult", "JobFailure", "JobTimeout", "deadline_guard", "run_batch"]
