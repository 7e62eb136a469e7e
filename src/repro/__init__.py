r"""repro -- algebraic vs numerical decision diagrams for quantum computation.

A from-scratch reproduction of

    P. Niemann, A. Zulehner, R. Drechsler, R. Wille:
    "Accuracy and Compactness in Decision Diagrams for Quantum
    Computation" (DATE 2019; extended TCAD version "Overcoming the
    Trade-off between Accuracy and Compactness ...").

The package provides

* exact cyclotomic arithmetic (:mod:`repro.rings`): ``Z[omega]``,
  ``D[omega]``, ``Q[omega]`` with canonical forms, inverses and GCDs;
* a QMDD decision-diagram engine (:mod:`repro.dd`) generic over the
  edge-weight number system -- floating point with an ``eps`` tolerance
  (the state of the art the paper critiques) or the exact algebraic
  representations the paper proposes (Algorithms 1-3);
* a quantum-circuit substrate (:mod:`repro.circuits`) with exact
  Clifford+T gate matrices, a simulator (:mod:`repro.sim`), DD-based
  equivalence checking (:mod:`repro.verify`), and a Clifford+T
  compiler for arbitrary rotations (:mod:`repro.approx`);
* the paper's benchmark algorithms (:mod:`repro.algorithms`: Grover,
  Binary Welded Tree, GSE phase estimation) and the evaluation harness
  regenerating its figures (:mod:`repro.evalsuite`).

Quickstart (the :mod:`repro.api` facade is the documented surface)::

    from repro import Circuit, RunRequest, SimulatorConfig, run

    circuit = Circuit(2).h(0).cx(0, 1)
    result = run(RunRequest(circuit, SimulatorConfig(system="algebraic")))
    print(result.node_count, result.is_zero_state)

Sweeps fan out over worker processes with :func:`repro.run_batch`; see
``docs/API.md``.
"""

from repro.api import RunRequest, RunResult, SimulatorConfig, run, run_batch
from repro.circuits.circuit import Circuit, Operation
from repro.dd.manager import (
    DDManager,
    algebraic_gcd_manager,
    algebraic_manager,
    numeric_manager,
)
from repro.rings import Dyadic, DOmega, QOmega, ZOmega, ZSqrt2
from repro.sim.simulator import SimulationResult, Simulator
from repro.sim.statevector import StatevectorSimulator
from repro.verify.equivalence import check_equivalence, check_state_equivalence

__version__ = "1.0.0"

__all__ = [
    "Circuit",
    "DDManager",
    "DOmega",
    "Dyadic",
    "Operation",
    "QOmega",
    "RunRequest",
    "RunResult",
    "SimulationResult",
    "Simulator",
    "SimulatorConfig",
    "StatevectorSimulator",
    "ZOmega",
    "ZSqrt2",
    "__version__",
    "algebraic_gcd_manager",
    "algebraic_manager",
    "check_equivalence",
    "check_state_equivalence",
    "numeric_manager",
    "run",
    "run_batch",
]
