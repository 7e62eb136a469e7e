"""Tests for the repro.exec batch engine.

The engine's headline guarantee -- ``workers=4`` produces byte-identical
job payloads to the sequential ``workers=1`` fallback -- is asserted
here across all four number-system configurations, alongside failure
isolation, bounded retry and the worker-side timeout.
"""

import os
import time

import pytest

from repro import Circuit
from repro.api import RunRequest, SimulatorConfig, run_batch
from repro.errors import ConfigError
from repro.exec import BatchResult, JobFailure, JobTimeout
from repro.exec import worker as worker_core
from repro.obs import merge_snapshots


def ghz_t(num_qubits: int = 3) -> Circuit:
    circuit = Circuit(num_qubits, name=f"ghzt{num_qubits}")
    circuit.h(0)
    for qubit in range(num_qubits - 1):
        circuit.cx(qubit, qubit + 1)
    for qubit in range(num_qubits):
        circuit.t(qubit)
    circuit.h(num_qubits - 1)
    return circuit


#: The four number-system configurations of the facade (paper Section V).
FOUR_SYSTEMS = (
    SimulatorConfig(system="algebraic"),
    SimulatorConfig(system="algebraic-gcd"),
    SimulatorConfig(system="numeric", eps=1e-10, normalization="leftmost"),
    SimulatorConfig(system="numeric", eps=1e-10, normalization="max-magnitude"),
)


class TestDeterminism:
    def test_workers4_byte_identical_to_workers1(self):
        requests = [
            RunRequest(
                ghz_t(),
                config,
                error_reference=(
                    SimulatorConfig(system="algebraic")
                    if config.system == "numeric"
                    else None
                ),
            )
            for config in FOUR_SYSTEMS
        ]
        sequential = run_batch(requests, workers=1)
        parallel = run_batch(requests, workers=4)
        assert sequential.ok and parallel.ok
        for seq, par in zip(sequential.results, parallel.results):
            assert seq.state_payload == par.state_payload  # byte-identical
            assert seq.node_count == par.node_count
            assert seq.is_zero_state == par.is_zero_state
            assert seq.trace.node_counts() == par.trace.node_counts()
            assert seq.final_error == par.final_error
            assert seq.fidelity == par.fidelity

    def test_results_stay_index_aligned(self):
        requests = [
            RunRequest(ghz_t(), config, label=f"job{index}")
            for index, config in enumerate(FOUR_SYSTEMS)
        ]
        batch = run_batch(requests, workers=2)
        assert [result.label for result in batch.results] == [
            "job0", "job1", "job2", "job3",
        ]


class TestFailureIsolation:
    def test_poisoned_job_becomes_typed_failure(self):
        requests = [
            RunRequest(ghz_t(), SimulatorConfig(system="algebraic"), label="good-1"),
            RunRequest(
                ghz_t(4), SimulatorConfig(max_nodes=1), label="poisoned"
            ),
            RunRequest(ghz_t(), SimulatorConfig(system="numeric"), label="good-2"),
        ]
        batch = run_batch(requests, workers=2)
        assert isinstance(batch, BatchResult)
        assert not batch.ok
        assert [result.label for result in batch.completed] == ["good-1", "good-2"]
        assert batch.results[1] is None
        (failure,) = batch.failures
        assert isinstance(failure, JobFailure)
        assert failure.label == "poisoned"
        assert failure.error_type == "MemoryBudgetExceeded"
        assert failure.attempts == 1
        assert not failure.timed_out
        assert failure.metrics  # partial telemetry survived the crash
        # The engine collectors read the tables, not the manager, so the
        # snapshot still carries them after the failed job's manager died.
        for name in (
            "dd.ut.vector.inserts",
            "dd.gc.resident_nodes",
            "weights.weight_table.size",
        ):
            assert name in failure.metrics
        assert batch.metrics["exec.batch.failed"] == 1
        assert batch.metrics["exec.batch.completed"] == 2

    def test_report_is_json_ready(self):
        import json

        batch = run_batch(
            [RunRequest(ghz_t(), SimulatorConfig(max_nodes=1), label="boom")]
        )
        report = json.loads(json.dumps(batch.to_dict()))
        assert report["failed"] == 1
        assert report["results"] == [None]
        assert report["failures"][0]["error_type"] == "MemoryBudgetExceeded"

    def test_dead_worker_fails_only_its_job(self, monkeypatch):
        requests = [
            RunRequest(ghz_t(width), config, label=f"job{width}-{index}")
            for width in (3, 4)
            for index, config in enumerate(FOUR_SYSTEMS)
        ]
        victim = 5
        sequential = run_batch(requests, workers=1)
        assert sequential.ok
        real_run_with = worker_core.run_with

        def dies_on_victim(request, simulator, **options):
            if request.job_label == requests[victim].job_label:
                os._exit(1)  # the worker process dies mid-job
            return real_run_with(request, simulator, **options)

        # Patched before run_batch forks, so every child inherits it.
        monkeypatch.setattr(worker_core, "run_with", dies_on_victim)
        batch = run_batch(requests, workers=2)
        (failure,) = batch.failures
        assert isinstance(failure, JobFailure)
        assert failure.index == victim
        assert failure.label == requests[victim].job_label
        assert failure.error_type == "ServeError"
        assert failure.attempts == 1
        assert not failure.timed_out
        assert batch.metrics["exec.batch.completed"] == len(requests) - 1
        for index, (seq, par) in enumerate(zip(sequential.results, batch.results)):
            if index == victim:
                assert par is None
                continue
            assert par.state_payload == seq.state_payload
            assert par.trace.node_counts() == seq.trace.node_counts()


class TestRetry:
    def test_flaky_job_succeeds_on_retry(self, monkeypatch):
        real_run_with = worker_core.run_with
        calls = {"count": 0}

        def flaky_run_with(request, simulator, **options):
            calls["count"] += 1
            if calls["count"] == 1:
                raise RuntimeError("transient worker hiccup")
            return real_run_with(request, simulator, **options)

        monkeypatch.setattr(worker_core, "run_with", flaky_run_with)
        batch = run_batch(
            [RunRequest(ghz_t(), label="flaky")], workers=1, retries=2, backoff=0.0
        )
        assert batch.ok
        assert batch.results[0].attempts == 2
        assert batch.metrics["exec.batch.retries"] == 1

    def test_retries_are_bounded(self, monkeypatch):
        def always_fails(request, simulator, **options):
            raise RuntimeError("permanent")

        monkeypatch.setattr(worker_core, "run_with", always_fails)
        batch = run_batch(
            [RunRequest(ghz_t(), label="doomed")], workers=1, retries=2, backoff=0.0
        )
        (failure,) = batch.failures
        assert failure.attempts == 3  # initial attempt + 2 retries
        assert failure.error_type == "RuntimeError"

    def test_backoff_sleeps_between_rounds(self, monkeypatch):
        from repro.exec import batch as batch_mod

        sleeps = []
        monkeypatch.setattr(batch_mod.time, "sleep", sleeps.append)

        def always_fails(request, simulator, **options):
            raise RuntimeError("permanent")

        monkeypatch.setattr(worker_core, "run_with", always_fails)
        run_batch([RunRequest(ghz_t())], workers=1, retries=3, backoff=0.5)
        assert sleeps == [0.5, 1.0, 2.0]  # exponential


class TestTimeout:
    def test_wedged_job_times_out(self, monkeypatch):
        def wedged(request, simulator, **options):
            time.sleep(30.0)

        monkeypatch.setattr(worker_core, "run_with", wedged)
        started = time.perf_counter()
        batch = run_batch([RunRequest(ghz_t(), label="wedged")], workers=1, timeout=0.2)
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0
        (failure,) = batch.failures
        assert failure.timed_out
        assert failure.error_type == "JobTimeout"
        assert batch.metrics["exec.batch.timeouts"] == 1

    def test_fast_job_unaffected_by_deadline(self):
        batch = run_batch([RunRequest(ghz_t())], workers=1, timeout=60.0)
        assert batch.ok

    def test_job_timeout_is_a_repro_error(self):
        from repro.errors import ReproError

        assert issubclass(JobTimeout, ReproError)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"retries": -1},
            {"timeout": 0.0},
            {"backoff": -0.1},
        ],
    )
    def test_bad_engine_parameters(self, kwargs):
        with pytest.raises(ConfigError):
            run_batch([RunRequest(ghz_t())], **kwargs)

    def test_empty_batch(self):
        batch = run_batch([])
        assert batch.ok and batch.results == []


class TestTelemetryMerge:
    def test_counters_sum_and_gauges_max(self):
        merged = merge_snapshots(
            [
                {"dd.apply.direct": 3, "dd.ut.vector.size": 10},
                {"dd.apply.direct": 4, "dd.ut.vector.size": 7},
            ]
        )
        assert merged["dd.apply.direct"] == 7
        assert merged["dd.ut.vector.size"] == 10  # high-water, not sum

    def test_histograms_merge_bucketwise(self):
        histogram = {
            "count": 2,
            "sum": 3.0,
            "mean": 1.5,
            "buckets": {"le_1": 1, "inf": 1},
        }
        other = {
            "count": 1,
            "sum": 9.0,
            "mean": 9.0,
            "buckets": {"le_1": 0, "inf": 1},
        }
        merged = merge_snapshots([{"h": histogram}, {"h": other}])
        assert merged["h"]["count"] == 3
        assert merged["h"]["sum"] == 12.0
        assert merged["h"]["mean"] == 4.0
        assert merged["h"]["buckets"] == {"le_1": 1, "inf": 2}

    def test_batch_merges_sim_metrics_fleet_wide(self):
        requests = [RunRequest(ghz_t()) for _ in range(3)]
        batch = run_batch(requests, workers=2)
        per_job = sum(result.metrics["sim.gates"] for result in batch.completed)
        assert batch.metrics["sim.gates"] == per_job
        assert batch.metrics["exec.batch.jobs"] == 3
        assert batch.metrics["exec.job.seconds"]["count"] == 3
