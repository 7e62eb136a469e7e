"""Canonical circuit/config hashing: name-independence and sensitivity."""

import math

import pytest

from repro.api import RunRequest, SimulatorConfig, run
from repro.circuits import (
    Circuit,
    canonical_hash,
    circuit_fingerprint,
    config_fingerprint,
)


def _bell(name: str = "circuit") -> Circuit:
    return Circuit(2, name=name).h(0).cx(0, 1)


class TestNameIndependence:
    def test_display_name_does_not_change_hash(self):
        assert canonical_hash(_bell("bell")) == canonical_hash(_bell("bell (copy)"))

    def test_t_equals_phase_pi_over_4(self):
        # T and p(pi/4) apply the same exact unitary; the evalsuite
        # drivers used to treat them as different circuits by name.
        assert canonical_hash(Circuit(1).t(0)) == canonical_hash(
            Circuit(1).p(math.pi / 4, 0)
        )

    def test_sdg_equals_phase_minus_pi_over_2(self):
        assert canonical_hash(Circuit(1).sdg(0)) == canonical_hash(
            Circuit(1).p(-math.pi / 2, 0)
        )

    def test_control_order_is_normalised(self):
        first = Circuit(3).mcx([0, 1], 2)
        second = Circuit(3).mcx([1, 0], 2)
        assert canonical_hash(first) == canonical_hash(second)


class TestSensitivity:
    def test_different_gates_differ(self):
        assert canonical_hash(Circuit(1).x(0)) != canonical_hash(Circuit(1).z(0))

    def test_different_targets_differ(self):
        assert canonical_hash(Circuit(2).x(0)) != canonical_hash(Circuit(2).x(1))

    def test_gate_order_matters(self):
        assert canonical_hash(Circuit(1).h(0).t(0)) != canonical_hash(
            Circuit(1).t(0).h(0)
        )

    def test_width_matters(self):
        assert canonical_hash(Circuit(2).x(0)) != canonical_hash(Circuit(3).x(0))

    def test_numeric_angles_distinguished_at_float_resolution(self):
        assert canonical_hash(Circuit(1).rz(0.1, 0)) != canonical_hash(
            Circuit(1).rz(0.1000000001, 0)
        )

    def test_inverse_pairs_differ(self):
        assert canonical_hash(Circuit(1).t(0)) != canonical_hash(Circuit(1).tdg(0))


class TestConfigFingerprint:
    def test_config_changes_hash(self):
        circuit = _bell()
        exact = SimulatorConfig(system="algebraic")
        lossy = SimulatorConfig(system="numeric", eps=1e-5)
        assert canonical_hash(circuit, exact) != canonical_hash(circuit, lossy)

    def test_every_semantic_field_is_hashed(self):
        circuit = _bell()
        base = SimulatorConfig()
        variants = [
            SimulatorConfig(system="numeric"),
            SimulatorConfig(system="numeric", eps=1e-10),
            SimulatorConfig(system="numeric", normalization="max-magnitude"),
            SimulatorConfig(system="numeric", precision="single"),
            SimulatorConfig(sanitize="check-on-root"),
            SimulatorConfig(gc=512),
            SimulatorConfig(gc=512, gc_min_yield=0.5),
            SimulatorConfig(max_nodes=10_000),
            SimulatorConfig(max_bytes=1 << 20),
            SimulatorConfig(record_bit_widths=True),
        ]
        hashes = {canonical_hash(circuit, config) for config in [base, *variants]}
        assert len(hashes) == len(variants) + 1

    def test_telemetry_mode_is_invisible(self):
        # Observability never changes results, so it must not split
        # cache entries.
        circuit = _bell()
        assert canonical_hash(circuit, SimulatorConfig(telemetry="off")) == (
            canonical_hash(circuit, SimulatorConfig(telemetry="tracing"))
        )

    def test_none_config_is_distinct_from_default(self):
        circuit = _bell()
        assert canonical_hash(circuit) != canonical_hash(circuit, SimulatorConfig())
        assert config_fingerprint(None) == ("none",)


class TestRoundTrip:
    def test_fingerprint_is_stable_across_calls(self):
        circuit = _bell()
        assert circuit_fingerprint(circuit) == circuit_fingerprint(circuit)
        assert canonical_hash(circuit) == canonical_hash(circuit)

    @pytest.mark.parametrize("system", ["algebraic", "algebraic-gcd", "numeric"])
    def test_equal_hash_implies_equal_payload(self, system):
        # The property the serve cache relies on: same canonical hash,
        # same serialized result -- even across gate spellings.
        config = SimulatorConfig(system=system)
        spelled_t = Circuit(2, name="with-t").h(0).t(0).cx(0, 1)
        spelled_p = Circuit(2, name="with-p").h(0).p(math.pi / 4, 0).cx(0, 1)
        assert canonical_hash(spelled_t, config) == canonical_hash(spelled_p, config)
        first = run(RunRequest(spelled_t, config))
        second = run(RunRequest(spelled_p, config))
        assert first.state_payload == second.state_payload
        assert first.node_count == second.node_count


class TestEvalsuiteIdentity:
    def test_tradeoff_records_circuit_hash(self):
        from repro.evalsuite.tradeoff import run_tradeoff

        circuit = _bell("tradeoff-bell")
        result = run_tradeoff(
            circuit, epsilons=(0.0,), include_gcd=False, compute_errors=False
        )
        assert result.circuit_hash == canonical_hash(circuit)
        # Identity survives a display rename; the old name-keyed
        # matching would have broken here.
        assert result.circuit_hash == canonical_hash(_bell("renamed"))
