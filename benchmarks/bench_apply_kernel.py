"""Old path vs new path: direct apply kernels against gate-DD mat_vec.

The "new path" is the :mod:`repro.dd.apply` kernel (gates applied by
recursing the vector DD directly); the "old path" is the previous
pipeline, still available as ``SimulatorConfig(use_apply_kernel=False)``:
build a matrix DD per gate with ``build_gate_dd`` and multiply with
``mat_vec``.  Both paths are timed interleaved (min-of-``REPS``, GC
off, fresh managers) on the paper's workloads -- 8-qubit Grover and
the Clifford+T-compiled GSE circuit -- under all three number
systems, and the final states are verified byte-identical
(``edges_equal`` on a shared manager, i.e. pointer-equal canonical
node plus equal weight key).

Note the in-tree old path is *flattered* by this PR: it shares the
interned weight arithmetic, scale-invariant normalisation and
compute-table hygiene that landed alongside the kernel.  Set
``BENCH_SEED_SRC=/path/to/pre-PR/src-tree`` to additionally time the
true pre-PR baseline in a subprocess (the committed artifact records
those numbers).  ``BENCH_FAST=1`` shrinks the workloads and rep count
to a CI smoke run.
"""

import gc
import os
import subprocess
import sys
import time

import pytest

from repro.algorithms.grover import grover_circuit
from repro.algorithms.gse import gse_circuit
from repro.api import SimulatorConfig
from repro.dd.manager import algebraic_gcd_manager, algebraic_manager, numeric_manager
from repro.evalsuite.reporting import hit_rate_rows
from repro.sim.simulator import Simulator

FAST = os.environ.get("BENCH_FAST") == "1"
SEED_SRC = os.environ.get("BENCH_SEED_SRC", "")
REPS = 1 if FAST else 5
GROVER_QUBITS = 6 if FAST else 8
GSE_WORDS = 800 if FAST else 4000

SYSTEMS = {
    "numeric": numeric_manager,
    "algebraic-q": algebraic_manager,
    "algebraic-gcd": algebraic_gcd_manager,
}

#: Registry table names worth reporting as hit rates (the rest are
#: size-only).  These are the dotted names the manager's metrics
#: collector emits (see docs/OBSERVABILITY.md).
REPORTED_TABLES = (
    "dd.ct.apply",
    "dd.ct.add",
    "weights.weight_mul",
    "weights.weight_add",
    "weights.weight_normalize",
    "weights.weight_div",
    "weights.weight_assoc",
)


@pytest.fixture(scope="module")
def circuits():
    grover = grover_circuit(GROVER_QUBITS, 5)
    gse = gse_circuit(num_sites=2, precision_bits=3, max_words=GSE_WORDS)
    return {
        f"grover-{GROVER_QUBITS}q": (list(grover), grover.num_qubits),
        "gse-2site": (list(gse), gse.num_qubits),
    }


def _timed_run(operations, num_qubits, factory, use_kernel):
    """One cold simulation on a fresh manager; returns (seconds, manager)."""
    manager = factory(num_qubits)
    simulator = Simulator(
        manager, config=SimulatorConfig(use_apply_kernel=use_kernel)
    )
    state = manager.zero_state()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    for operation in operations:
        state = simulator.apply(state, operation)
    elapsed = time.perf_counter() - start
    if gc_was_enabled:
        gc.enable()
    return elapsed, manager


def _interleaved_samples(operations, num_qubits, factory):
    """Per-rep seconds for both paths, interleaved so noise hits both."""
    _timed_run(operations, num_qubits, factory, True)  # warm-up (imports, pyc)
    kernel_samples, old_samples = [], []
    kernel_best = float("inf")
    kernel_manager = None
    for _ in range(REPS):
        elapsed, manager = _timed_run(operations, num_qubits, factory, True)
        kernel_samples.append(elapsed)
        if elapsed < kernel_best:
            kernel_best, kernel_manager = elapsed, manager
        elapsed, _ = _timed_run(operations, num_qubits, factory, False)
        old_samples.append(elapsed)
    return kernel_samples, old_samples, kernel_manager


def _hit_rate_lines(manager):
    rows = {
        row[0]: row
        for row in hit_rate_rows(manager.telemetry.metrics.snapshot())
    }
    lines = []
    for name in REPORTED_TABLES:
        row = rows.get(name)
        if row is None:
            continue
        _, _, hits, misses, rate = row
        lines.append(
            f"    {name:26s} hits={hits:>8d} "
            f"misses={misses:>8d} hit-rate={rate or 0.0:6.1%}"
        )
    return lines


def _seed_baseline_times(num_qubits):
    """Time the pre-PR tree (old path only) in a subprocess, per system."""
    script = f"""
import gc, sys, time
sys.path.insert(0, {SEED_SRC!r})
from repro.algorithms.grover import grover_circuit
from repro.dd.manager import numeric_manager, algebraic_manager, algebraic_gcd_manager
from repro.sim.simulator import Simulator
ops = list(grover_circuit({num_qubits}, 5))
gc.disable()
for name, factory in [("numeric", numeric_manager), ("algebraic-q", algebraic_manager),
                      ("algebraic-gcd", algebraic_gcd_manager)]:
    def run():
        manager = factory({num_qubits})
        sim = Simulator(manager)
        state = manager.zero_state()
        t0 = time.perf_counter()
        for op in ops:
            state = sim.apply(state, op)
        return time.perf_counter() - t0
    run()
    print(name, min(run() for range_ in range(3)))
"""
    output = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    ).stdout
    times = {}
    for line in output.splitlines():
        name, seconds = line.split()
        times[name] = float(seconds)
    return times


@pytest.mark.parametrize("kind", list(SYSTEMS))
def test_final_states_identical(circuits, kind):
    """Both paths must land on byte-identical canonical final states."""
    for label, (operations, num_qubits) in circuits.items():
        manager = SYSTEMS[kind](num_qubits)
        kernel_sim = Simulator(manager)
        matrix_sim = Simulator(manager, config=SimulatorConfig(use_apply_kernel=False))
        kernel_state = manager.zero_state()
        matrix_state = manager.zero_state()
        for operation in operations:
            kernel_state = kernel_sim.apply(kernel_state, operation)
            matrix_state = matrix_sim.apply(matrix_state, operation)
        assert manager.edges_equal(kernel_state, matrix_state), (
            f"kernel final state differs from matrix path on {label}/{kind}"
        )


def test_apply_kernel_report(benchmark, circuits, artifact_writer):
    rows = []
    cache_sections = []
    grover_label = f"grover-{GROVER_QUBITS}q"
    speedups = {}

    def measure():
        for label, (operations, num_qubits) in circuits.items():
            for kind, factory in SYSTEMS.items():
                kernel_samples, old_samples, manager = _interleaved_samples(
                    operations, num_qubits, factory
                )
                kernel_best, old_best = min(kernel_samples), min(old_samples)
                speedup = old_best / kernel_best
                speedups[(label, kind)] = speedup
                rows.append(
                    f"{label:12s} {kind:14s} old={old_best:8.4f}s "
                    f"new={kernel_best:8.4f}s speedup={speedup:5.2f}x verified=yes"
                )
                cache_sections.append(
                    f"  {label}/{kind} (kernel path)\n"
                    + "\n".join(_hit_rate_lines(manager))
                )
        return len(rows)

    benchmark.pedantic(measure, rounds=1, iterations=1)

    sections = [
        "apply kernel vs matrix-DD path "
        f"(min-of-{REPS}, interleaved, gc off, fresh managers; "
        "'verified' = edges_equal final states on a shared manager)",
        "\n".join(rows),
        "cache hit rates after one kernel-path simulation:\n"
        + "\n\n".join(cache_sections),
        "note: the in-tree old path shares this PR's interned weight\n"
        "arithmetic and normalisation fast paths, so the speedup above\n"
        "understates the change against the pre-PR tree (see the seed\n"
        "baseline section of the committed artifact).",
    ]

    if SEED_SRC:
        seed_times = _seed_baseline_times(GROVER_QUBITS)
        seed_lines = []
        for kind in SYSTEMS:
            kernel_time = None
            for row in rows:
                if row.startswith(f"{grover_label:12s} {kind:14s}"):
                    kernel_time = float(row.split("new=")[1].split("s")[0])
            seed_ratio = seed_times[kind] / kernel_time
            seed_lines.append(
                f"{grover_label:12s} {kind:14s} seed={seed_times[kind]:8.4f}s "
                f"new={kernel_time:8.4f}s speedup={seed_ratio:5.2f}x"
            )
            speedups[("seed", kind)] = seed_ratio
        sections.append(
            "pre-PR seed baseline (BENCH_SEED_SRC, old path only, min-of-3):\n"
            + "\n".join(seed_lines)
        )
        assert speedups[("seed", "algebraic-gcd")] >= 2.0

    report = "\n\n".join(sections)
    print("\n" + report)
    artifact_writer("apply_kernel.txt", report)
    # The kernel must win on the paper's headline workload even against
    # the flattered in-tree old path (lenient bound: timings on shared
    # CI machines are noisy).
    assert speedups[(grover_label, "algebraic-gcd")] > 1.0
