"""Parallel batch engine: workers=4 vs the sequential workers=1 fallback.

The workload is the paper's eps-tradeoff sweep (Figs. 3-5 shape): one
exact algebraic job, one algebraic-gcd job and the ``DEFAULT_EPSILONS``
numeric jobs on a Grover circuit, expressed as independent
:func:`repro.evalsuite.tradeoff.tradeoff_requests` jobs and fanned out
with :func:`repro.api.run_batch`.  Each numeric job carries the exact
algebraic configuration as its ``error_reference``, so per-gate error
series are computed worker-locally and stay identical regardless of
worker count.

Two properties are measured and recorded in the committed artifact:

* **Determinism** -- every per-job payload (serialized final state,
  node count, final error, fidelity, per-gate node-count trace) from
  the ``workers=4`` run is byte-identical to the ``workers=1`` run.
  Asserted unconditionally, on any machine.
* **Speedup** -- wall-clock of the sequential run over the parallel
  run.  The >= 2x gate is asserted only when the machine actually has
  >= 4 usable cores (the CI batch-smoke runner); on smaller machines
  the measured number is still recorded, clearly labelled with the
  core count, because process fan-out cannot beat the clock without
  cores to fan out onto.

``BENCH_FAST=1`` shrinks the circuit to a CI smoke run.  The committed
artifact ``benchmarks/results/batch_speedup.txt`` records per-job
seconds for both modes, the merged fleet telemetry counters, and the
environment the numbers were taken on.
"""

import json
import os
import time

import pytest

from repro.algorithms.grover import grover_circuit
from repro.api import run_batch
from repro.evalsuite.tradeoff import DEFAULT_EPSILONS, tradeoff_requests

FAST = os.environ.get("BENCH_FAST") == "1"
GROVER_QUBITS = 5 if FAST else 8
GROVER_ITERATIONS = 2 if FAST else 6
PARALLEL_WORKERS = 4

#: Fleet counters worth recording in the artifact (see docs/API.md).
REPORTED_COUNTERS = (
    "exec.batch.jobs",
    "exec.batch.completed",
    "exec.batch.failed",
    "exec.batch.retries",
    "exec.batch.timeouts",
    "sim.gates",
)


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _payload_fingerprint(result):
    """Everything that must not depend on the worker count."""
    return (
        result.label,
        result.state_payload,
        result.node_count,
        result.is_zero_state,
        result.final_error,
        result.fidelity,
        tuple(result.trace.node_counts()),
    )


def test_batch_speedup(artifact_writer):
    circuit = grover_circuit(GROVER_QUBITS, 3, iterations=GROVER_ITERATIONS)
    requests = tradeoff_requests(
        circuit, epsilons=DEFAULT_EPSILONS, include_gcd=True
    )
    cores = _usable_cores()

    start = time.perf_counter()
    sequential = run_batch(requests, workers=1)
    seq_seconds = time.perf_counter() - start
    start = time.perf_counter()
    parallel = run_batch(requests, workers=PARALLEL_WORKERS)
    par_seconds = time.perf_counter() - start

    assert sequential.ok and parallel.ok

    # Determinism: byte-identical per-job payloads, any machine.
    for seq, par in zip(sequential.results, parallel.results):
        assert _payload_fingerprint(seq) == _payload_fingerprint(par)

    speedup = seq_seconds / par_seconds if par_seconds else float("inf")

    lines = [
        "batch engine: eps-tradeoff sweep, workers=1 vs workers=%d"
        % PARALLEL_WORKERS,
        "=" * 66,
        "workload: %s (%d qubits, %d gates), %d jobs"
        % (
            circuit.name,
            circuit.num_qubits,
            len(list(circuit)),
            len(requests),
        ),
        "machine:  %d usable core(s)%s" % (cores, "  [BENCH_FAST]" if FAST else ""),
        "",
        "%-14s %12s %12s %8s" % ("job", "seq [s]", "par [s]", "nodes"),
        "-" * 50,
    ]
    for seq, par in zip(sequential.results, parallel.results):
        lines.append(
            "%-14s %12.4f %12.4f %8d"
            % (seq.label, seq.seconds, par.seconds, seq.node_count)
        )
    lines += [
        "-" * 50,
        "%-14s %12.4f %12.4f" % ("wall-clock", seq_seconds, par_seconds),
        "",
        "speedup (seq / par): %.2fx" % speedup,
        "determinism: all %d per-job payloads byte-identical" % len(requests),
        "",
        "fleet-merged telemetry (workers=%d run):" % PARALLEL_WORKERS,
    ]
    for name in REPORTED_COUNTERS:
        if name in parallel.metrics:
            lines.append("  %-22s %s" % (name, parallel.metrics[name]))
    job_hist = parallel.metrics.get("exec.job.seconds")
    if isinstance(job_hist, dict):
        lines.append(
            "  %-22s count=%d mean=%.4fs"
            % ("exec.job.seconds", job_hist["count"], job_hist["mean"])
        )
    if cores < PARALLEL_WORKERS:
        lines.append(
            "\nNOTE: only %d core(s) -- the >=2x gate applies on the "
            "4-core CI runner." % cores
        )
    artifact_writer("batch_speedup.txt", "\n".join(lines))
    artifact_writer(
        "batch_speedup.json",
        json.dumps(
            {
                "workload": circuit.name,
                "jobs": len(requests),
                "cores": cores,
                "fast": FAST,
                "seq_seconds": seq_seconds,
                "par_seconds": par_seconds,
                "speedup": speedup,
                "per_job": [
                    {
                        "label": seq.label,
                        "seq_seconds": seq.seconds,
                        "par_seconds": par.seconds,
                        "node_count": seq.node_count,
                        "final_error": seq.final_error,
                    }
                    for seq, par in zip(sequential.results, parallel.results)
                ],
                "fleet_metrics": {
                    name: parallel.metrics[name]
                    for name in REPORTED_COUNTERS
                    if name in parallel.metrics
                },
            },
            indent=2,
        ),
    )

    if cores >= PARALLEL_WORKERS and not FAST:
        assert speedup >= 2.0, (
            "expected >=2x on a %d-core machine, measured %.2fx"
            % (cores, speedup)
        )
    elif cores < PARALLEL_WORKERS:
        pytest.skip(
            "determinism verified; %d core(s) < %d workers, speedup gate "
            "needs the 4-core runner (measured %.2fx)"
            % (cores, PARALLEL_WORKERS, speedup)
        )


def test_warm_worker_vs_cold_batch(artifact_writer):
    """Same-worker repeated circuit: warm tables vs a fresh stack per job.

    The persistent service (repro.serve) pins one simulator stack per
    configuration and replays requests against its hot unique/compute/
    weight tables.  This case quantifies that reuse on the batch
    engine's own workload: N identical Grover jobs through cold
    ``run_batch`` (fresh manager each) vs N ``run_with`` calls on one
    warm simulator -- asserting byte-identical payloads and recording
    the latency ratio in the txt artifact.
    """
    from repro.api import RunRequest, SimulatorConfig, run_with

    repeats = 4 if FAST else 8
    circuit = grover_circuit(GROVER_QUBITS, 3, iterations=GROVER_ITERATIONS)
    config = SimulatorConfig()
    requests = [
        RunRequest(circuit, config, label=f"job{i}") for i in range(repeats)
    ]

    start = time.perf_counter()
    cold = run_batch(requests, workers=1)
    cold_wall = time.perf_counter() - start
    assert cold.ok
    cold_per_job = cold_wall / repeats

    simulator = config.create_simulator(circuit.num_qubits)
    warm_samples = []
    warm_results = []
    for request in requests:
        start = time.perf_counter()
        warm_results.append(run_with(request, simulator, keep_state=False))
        warm_samples.append(time.perf_counter() - start)

    # Warm reuse must never change payloads (metrics/seconds excluded:
    # the warm scope accumulates across requests by design).
    for cold_result, warm_result in zip(cold.results, warm_results):
        assert _payload_fingerprint(cold_result) == _payload_fingerprint(warm_result)

    warm_median = sorted(warm_samples)[len(warm_samples) // 2]
    ratio = cold_per_job / warm_median if warm_median else float("inf")

    lines = [
        "warm worker vs cold batch: %d identical %s jobs" % (repeats, circuit.name),
        "=" * 66,
        "cold run_batch (workers=1): %.4fs wall, %.4fs per job"
        % (cold_wall, cold_per_job),
        "warm run_with (one simulator): median %.4fs, first %.4fs"
        % (warm_median, warm_samples[0]),
        "cold-per-job / warm-median: %.2fx" % ratio,
        "determinism: all %d payloads byte-identical" % repeats,
    ]
    artifact_writer("warm_vs_cold.txt", "\n".join(lines))

    # Warm tables must at least halve the per-job cost (the serve
    # acceptance bar); in practice the ratio is ~10x.
    if not FAST:
        assert warm_median <= 0.5 * cold_per_job, (
            "warm median %.4fs not <= 0.5x cold per-job %.4fs"
            % (warm_median, cold_per_job)
        )
