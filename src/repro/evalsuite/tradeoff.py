r"""The accuracy-vs-compactness experiment runner (paper Section V-A).

For one benchmark circuit, :func:`run_tradeoff` simulates the same gate
sequence under

* the numerical representation for a sweep of tolerance values ``eps``
  (the paper uses ``0, 1e-20, 1e-15, 1e-10, 1e-5, 1e-3``), and
* the proposed algebraic representation(s),

recording per gate: the QMDD node count (compactness), the cumulative
CPU time, and -- for the numerical runs -- the deviation from the exact
algebraic state per the paper's footnote-8 metric.  These are exactly
the three panels of Figs. 3-5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import RunRequest, SimulatorConfig, run_batch
from repro.circuits.canonical import canonical_hash
from repro.circuits.circuit import Circuit
from repro.errors import SimulationError
from repro.sim.trace import SimulationTrace

__all__ = ["TradeoffResult", "run_tradeoff", "tradeoff_requests", "DEFAULT_EPSILONS"]

#: The tolerance sweep of the paper's Figs. 3-5.
DEFAULT_EPSILONS: Tuple[float, ...] = (0.0, 1e-20, 1e-15, 1e-10, 1e-5, 1e-3)


@dataclass
class TradeoffResult:
    """All traces of one trade-off experiment, keyed by configuration.

    Configuration names: ``eps=<value>`` for numerical runs,
    ``algebraic`` (Q[omega], Algorithm 2) and ``algebraic-gcd``
    (D[omega] GCDs, Algorithm 3) for the exact ones.
    """

    circuit_name: str
    num_qubits: int
    num_gates: int
    traces: Dict[str, SimulationTrace] = field(default_factory=dict)
    final_zero: Dict[str, bool] = field(default_factory=dict)
    #: Canonical structural identity of the swept circuit
    #: (:func:`repro.circuits.canonical_hash`) -- display names like
    #: ``grover_5q_m21`` are presentation, not identity, so archived
    #: experiment results are matched up by this hash.
    circuit_hash: str = ""

    def configurations(self) -> List[str]:
        return list(self.traces)

    def node_series(self, config: str) -> List[int]:
        return self.traces[config].node_counts()

    def error_series(self, config: str) -> List[Optional[float]]:
        return self.traces[config].errors()

    def runtime_series(self, config: str) -> List[float]:
        return [step.cumulative_seconds for step in self.traces[config].steps]

    def bit_width_series(self, config: str) -> List[int]:
        return [step.max_bit_width for step in self.traces[config].steps]

    def summary_rows(self) -> List[Dict[str, object]]:
        """One row per configuration: the quantities the paper discusses."""
        rows = []
        for config, trace in self.traces.items():
            errors = [e for e in trace.errors() if e is not None]
            rows.append(
                {
                    "config": config,
                    "final_nodes": trace.final_node_count,
                    "peak_nodes": trace.peak_node_count,
                    "seconds": round(trace.total_seconds, 4),
                    "final_error": errors[-1] if errors else 0.0,
                    "max_error": max(errors) if errors else 0.0,
                    "zero_collapse": self.final_zero.get(config, False),
                    "max_bit_width": max(
                        (s.max_bit_width for s in trace.steps), default=0
                    ),
                }
            )
        return rows


def tradeoff_requests(
    circuit: Circuit,
    epsilons: Sequence[float] = DEFAULT_EPSILONS,
    include_algebraic: bool = True,
    include_gcd: bool = False,
    compute_errors: bool = True,
    record_bit_widths: bool = False,
    numeric_normalization: str = "leftmost",
    max_dense_qubits: int = 16,
) -> List[RunRequest]:
    """The sweep as a list of independent :class:`~repro.api.RunRequest`.

    Each numeric job carries the exact algebraic configuration as its
    ``error_reference``, so workers compute the footnote-8 error series
    locally -- identical values regardless of worker count, because the
    algebraic reference is exact.
    """
    want_errors = compute_errors and circuit.num_qubits <= max_dense_qubits
    reference = (
        SimulatorConfig(system="algebraic")
        if want_errors and include_algebraic
        else None
    )
    requests: List[RunRequest] = []
    if include_algebraic:
        requests.append(
            RunRequest(
                circuit,
                SimulatorConfig(system="algebraic", record_bit_widths=record_bit_widths),
                label="algebraic",
            )
        )
    if include_gcd:
        requests.append(
            RunRequest(
                circuit,
                SimulatorConfig(
                    system="algebraic-gcd", record_bit_widths=record_bit_widths
                ),
                label="algebraic-gcd",
            )
        )
    for eps in epsilons:
        requests.append(
            RunRequest(
                circuit,
                SimulatorConfig(
                    system="numeric", eps=eps, normalization=numeric_normalization
                ),
                label=f"eps={eps:g}",
                error_reference=reference,
            )
        )
    return requests


def run_tradeoff(
    circuit: Circuit,
    epsilons: Sequence[float] = DEFAULT_EPSILONS,
    include_algebraic: bool = True,
    include_gcd: bool = False,
    compute_errors: bool = True,
    record_bit_widths: bool = False,
    numeric_normalization: str = "leftmost",
    max_dense_qubits: int = 16,
    workers: int = 1,
    timeout: Optional[float] = None,
    retries: int = 0,
) -> TradeoffResult:
    """Run the full sweep on one circuit.

    ``compute_errors`` needs the dense statevectors (bounded by
    ``max_dense_qubits``); disable it for size-only experiments like
    Fig. 2.  ``include_gcd`` adds the (slower) Algorithm-3 run used by
    the normalisation ablation.  The sweep points are independent jobs
    dispatched through :func:`repro.api.run_batch`; ``workers > 1``
    fans them out over worker processes with byte-identical results.
    """
    requests = tradeoff_requests(
        circuit,
        epsilons=epsilons,
        include_algebraic=include_algebraic,
        include_gcd=include_gcd,
        compute_errors=compute_errors,
        record_bit_widths=record_bit_widths,
        numeric_normalization=numeric_normalization,
        max_dense_qubits=max_dense_qubits,
    )
    batch = run_batch(requests, workers=workers, timeout=timeout, retries=retries)
    if batch.failures:
        first = batch.failures[0]
        raise SimulationError(
            f"tradeoff job {first.label!r} failed after {first.attempts} "
            f"attempt(s): [{first.error_type}] {first.message}"
        )
    result = TradeoffResult(
        circuit_name=circuit.name,
        num_qubits=circuit.num_qubits,
        num_gates=len(circuit),
        circuit_hash=canonical_hash(circuit),
    )
    for job in batch.completed:
        result.traces[job.label] = job.trace
        result.final_zero[job.label] = job.is_zero_state
    return result
