"""Every job runs with CPython's cyclic collector paused, and only then.

The engine is acyclic (``tests/dd/test_acyclic.py``), so the cyclic
collector has nothing to free in a job and the job owners -- ``run``,
the batch engine's per-job attempt and the serve tier's warm worker --
pause it with :func:`repro.dd.mem.cyclic_gc_paused`.  These tests pin
the contract: the caller's collector state comes back on every outcome
path, a collector the caller disabled stays disabled, concurrent jobs
on several threads cannot leave it off, and no collection starts
while a job runs.
"""

import gc
import sys
import threading
from contextlib import contextmanager

import pytest

from repro.algorithms.grover import grover_circuit
from repro.api import RunRequest, SimulatorConfig, run, run_batch
from repro.circuits.library import ghz_circuit
from repro.dd.mem import cyclic_gc_paused
from repro.errors import DeadlineExceeded, MemoryBudgetExceeded
from repro.exec import batch as batch_engine
from repro.serve import SimulationService
from repro.serve.worker import WarmWorker

SMALL = RunRequest(grover_circuit(4, 5), SimulatorConfig(system="numeric"))
OVER_BUDGET = RunRequest(grover_circuit(4, 5), SimulatorConfig(max_nodes=1))
#: Long enough (about 0.7 s on a 2-vCPU VM) for a 10 ms deadline to hit.
SLOW = RunRequest(grover_circuit(8, 5), SimulatorConfig(system="numeric"))


@contextmanager
def collector(enabled):
    """Run the body with the collector in state ``enabled``; restore after."""
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


# -- the helper itself ------------------------------------------------------


@pytest.mark.parametrize("enabled", [True, False], ids=["caller-on", "caller-off"])
def test_pause_nests_and_restores_the_caller_state(enabled):
    with collector(enabled):
        with cyclic_gc_paused():
            assert not gc.isenabled()
            with cyclic_gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled() is enabled


def test_pause_restores_on_exception():
    with collector(True):
        with pytest.raises(RuntimeError):
            with cyclic_gc_paused():
                with cyclic_gc_paused():
                    raise RuntimeError("job failed")
        assert gc.isenabled()


def test_concurrent_pauses_never_leave_the_collector_off():
    """Eight threads enter and leave overlapping pauses with a tiny
    switch interval: a lost update of the depth counter would either
    re-enable the collector under a running pause or leave it off."""
    errors = []

    def worker():
        for _ in range(2000):
            with cyclic_gc_paused():
                if gc.isenabled():
                    errors.append("collector enabled inside a pause")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with collector(True):
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
            assert gc.isenabled()
    finally:
        sys.setswitchinterval(interval)
    assert not errors


# -- the three job paths: state restored on every outcome ------------------


def _run(request):
    """``run`` in-process; returns whether the job succeeded."""
    try:
        run(request)
    except MemoryBudgetExceeded:
        return False
    return True


def _run_batch(request, timeout=None):
    batch = run_batch([request], workers=1, timeout=timeout)
    if batch.failures:
        (failure,) = batch.failures
        assert failure.error_type in ("MemoryBudgetExceeded", "JobTimeout")
        return False
    return True


def _serve(request, timeout=None):
    with SimulationService(workers=1, mode="inline") as service:
        try:
            service.submit(request, timeout=timeout)
        except (DeadlineExceeded, MemoryBudgetExceeded):
            return False
    # close() waits for the worker, which finishes an abandoned job.
    return True


CASES = [
    pytest.param(_run, SMALL, {}, True, id="run-ok"),
    pytest.param(_run, OVER_BUDGET, {}, False, id="run-max-nodes"),
    pytest.param(_run_batch, SMALL, {}, True, id="batch-ok"),
    pytest.param(_run_batch, OVER_BUDGET, {}, False, id="batch-max-nodes"),
    pytest.param(_run_batch, SLOW, {"timeout": 0.01}, False, id="batch-deadline"),
    pytest.param(_serve, SMALL, {}, True, id="serve-ok"),
    pytest.param(_serve, OVER_BUDGET, {}, False, id="serve-max-nodes"),
    pytest.param(_serve, SLOW, {"timeout": 0.01}, False, id="serve-deadline"),
]


@pytest.mark.parametrize("enabled", [True, False], ids=["caller-on", "caller-off"])
@pytest.mark.parametrize("path, request_, options, succeeds", CASES)
def test_collector_state_restored_after_job(path, request_, options, succeeds, enabled):
    with collector(enabled):
        assert path(request_, **options) is succeeds
        assert gc.isenabled() is enabled


def test_concurrent_inline_workers_leave_the_collector_enabled():
    """Two inline workers serve requests from four client threads; the
    jobs overlap on the executor threads and the last one to finish
    restores the collector."""
    requests = [
        RunRequest(ghz_circuit(width), SimulatorConfig(system=system))
        for width in (3, 4, 5, 6)
        for system in ("numeric", "algebraic")
    ]
    errors = []

    def client(service, mine):
        try:
            for request in mine:
                run(request, client=service)
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    with collector(True):
        with SimulationService(workers=2, mode="inline") as service:
            threads = [
                threading.Thread(target=client, args=(service, requests[i::4]))
                for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert gc.isenabled()


# -- no collection starts while a job runs --------------------------------


class CollectionWindow:
    """Counts collections that start while :attr:`open` is set."""

    def __init__(self):
        self.open = False
        self.started = 0
        self.jobs = 0

    def __call__(self, phase, info):
        if phase == "start" and self.open:
            self.started += 1

    def wrap(self, function):
        """``function`` with the window open for exactly its call.

        The collection just before opening resets the collector's
        allocation count, so no collection that the caller's own
        allocations made due can land inside the window."""

        def wrapped(*args, **kwargs):
            gc.collect()
            self.open = True
            try:
                return function(*args, **kwargs)
            finally:
                self.open = False
                self.jobs += 1

        return wrapped


@pytest.fixture
def window():
    window = CollectionWindow()
    gc.callbacks.append(window)
    try:
        with collector(True):
            yield window
    finally:
        gc.callbacks.remove(window)


# A job allocates far more than the collector's generation-0 threshold,
# so without the pause each of these windows sees collections start.
WINDOW_JOBS = [
    pytest.param(RunRequest(grover_circuit(5, 3), SimulatorConfig(system=system)), id=system)
    for system in ("numeric", "algebraic")
] + [pytest.param(OVER_BUDGET, id="max-nodes")]


@pytest.mark.parametrize("request_", WINDOW_JOBS)
def test_no_collection_during_run(window, request_):
    window.wrap(_run)(request_)
    assert window.jobs == 1
    assert window.started == 0


@pytest.mark.parametrize("request_", WINDOW_JOBS)
def test_no_collection_during_batch_job(window, monkeypatch, request_):
    monkeypatch.setattr(
        batch_engine, "_execute_job", window.wrap(batch_engine._execute_job)
    )
    _run_batch(request_)
    assert window.jobs == 1
    assert window.started == 0


@pytest.mark.parametrize("request_", WINDOW_JOBS)
def test_no_collection_during_serve_job(window, monkeypatch, request_):
    monkeypatch.setattr(WarmWorker, "execute", window.wrap(WarmWorker.execute))
    _serve(request_)
    assert window.jobs == 1
    assert window.started == 0
