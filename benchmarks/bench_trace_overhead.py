"""Cost of distributed tracing on the batch engine.

Two claims, both asserted:

* **Overhead** -- running the paper's 8-qubit Grover benchmark through
  :func:`repro.api.run_batch` with a tracing coordinator scope (every
  job records ``exec.job``/``sim.gate``/``dd.apply.direct`` spans,
  ships them home and the coordinator re-parents them under
  ``exec.batch``) costs at most ``MAX_TRACE_OVERHEAD`` x the
  metrics-only wall time (min-of-``REPS``, interleaved, Python gc
  disabled).  The measured ratio is recorded in the artifact and in
  ``docs/OBSERVABILITY.md``.
* **Byte identity** -- the serialized final-state payload of the traced
  run equals the untraced run's exactly: trace propagation never
  touches simulation state.

``BENCH_FAST=1`` shrinks the workload for the CI smoke run (and
loosens the bound: fixed per-batch costs weigh more on a small
circuit).
"""

import gc
import os
import time

from repro.api import RunRequest, SimulatorConfig, run_batch
from repro.algorithms.grover import grover_circuit
from repro.obs import Telemetry

FAST = os.environ.get("BENCH_FAST") == "1"
REPS = 3 if FAST else 5
GROVER_QUBITS = 5 if FAST else 8
MAX_TRACE_OVERHEAD = 1.25 if FAST else 1.05


def _timed_batch(requests, tracing):
    telemetry = Telemetry.tracing() if tracing else Telemetry()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    batch = run_batch(requests, workers=1, telemetry=telemetry)
    elapsed = time.perf_counter() - start
    if gc_was_enabled:
        gc.enable()
    assert batch.ok, batch.failures
    return elapsed, batch


def test_traced_batch_overhead(artifact_writer):
    circuit = grover_circuit(GROVER_QUBITS, 5)
    config = SimulatorConfig(system="algebraic-gcd")
    requests = [RunRequest(circuit, config=config)]

    _timed_batch(requests, False)  # warm-up
    samples_plain, samples_traced = [], []
    traced_batch = None
    for _ in range(REPS):
        samples_plain.append(_timed_batch(requests, False)[0])
        elapsed, traced_batch = _timed_batch(requests, True)
        samples_traced.append(elapsed)
    best_plain, best_traced = min(samples_plain), min(samples_traced)
    ratio = best_traced / best_plain

    # Trace propagation must be invisible to the simulation itself.
    _, plain_batch = _timed_batch(requests, False)
    identical = (
        plain_batch.results[0].state_payload
        == traced_batch.results[0].state_payload
    )

    span_count = traced_batch.metrics.get("exec.batch.trace.spans", 0)
    report = "\n".join(
        [
            f"distributed-tracing overhead on {circuit.name} "
            f"({circuit.num_qubits} qubits, {len(circuit)} gates; "
            f"run_batch workers=1, min-of-{REPS}, interleaved, "
            f"python-gc off; bound: traced <= "
            f"{MAX_TRACE_OVERHEAD:.2f}x metrics-only)",
            "",
            f"metrics-only={best_plain:8.4f}s  metrics+spans="
            f"{best_traced:8.4f}s  ({ratio:4.2f}x)  "
            f"spans_adopted={span_count:.0f}  "
            f"byte-identical={'yes' if identical else 'NO'}",
        ]
    )
    artifact_writer("trace_overhead.txt", report)
    assert identical, "traced batch changed the simulation result"
    assert ratio <= MAX_TRACE_OVERHEAD, (
        f"tracing overhead {ratio:.2f}x exceeds {MAX_TRACE_OVERHEAD}x"
    )
