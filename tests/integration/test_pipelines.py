"""End-to-end pipelines stitching the subsystems together.

These are the "downstream user" flows: import a circuit from QASM and
model-check it; lower a circuit and benchmark it; validate a symbolic
result with Monte-Carlo simulation; restrict a property to a
sub-register with partial trace.
"""

import numpy as np
import pytest

from repro.circuits.qasm import parse_qasm
from repro.image.engine import compute_image
from repro.mc.reachability import reachable_space
from repro.mc.simulation import validate_image
from repro.systems.operations import QuantumOperation
from repro.systems.qts import QuantumTransitionSystem

from tests.helpers import (assert_subspace_matches_dense,
                           dense_image_oracle, subspace_to_dense)

GHZ_QASM = """
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
h q[0];
cx q[0], q[1];
cx q[1], q[2];
"""


class TestQasmToModelChecking:
    def test_imported_circuit_image(self):
        circuit = parse_qasm(GHZ_QASM)
        qts = QuantumTransitionSystem(
            3, [QuantumOperation.unitary("u", circuit)])
        qts.set_initial_basis_states([[0, 0, 0]])
        image = compute_image(qts, method="contraction").subspace
        ghz = qts.space.from_amplitudes(
            np.array([1, 0, 0, 0, 0, 0, 0, 1]) / np.sqrt(2))
        assert image.dimension == 1
        assert image.contains_state(ghz)

    def test_imported_circuit_reachability(self):
        circuit = parse_qasm(GHZ_QASM)
        qts = QuantumTransitionSystem(
            3, [QuantumOperation.unitary("u", circuit)])
        qts.set_initial_basis_states([[0, 0, 0]])
        trace = reachable_space(qts, method="contraction", driver="frontier")
        assert trace.converged


class TestLoweringPipeline:
    @pytest.mark.parametrize("method", ["basic", "contraction", "hybrid"])
    def test_lowered_qrw_all_methods(self, method):
        from repro.circuits.decompose import decompose_circuit
        from repro.circuits.library import qrw_step

        def build(lowered):
            circuit = qrw_step(3)
            if lowered:
                circuit = decompose_circuit(circuit, keep_ccx=True)
            qts = QuantumTransitionSystem(
                3, [QuantumOperation.unitary("T", circuit)])
            qts.set_initial_basis_states([[0, 0, 1]])
            return qts

        expected = dense_image_oracle(build(True))
        result = compute_image(build(True), method=method)
        assert_subspace_matches_dense(result.subspace, expected)
        # and lowering preserved the image of the original circuit
        original = compute_image(build(False), method=method)
        assert subspace_to_dense(original.subspace).equals(
            subspace_to_dense(result.subspace))


class TestValidationPipeline:
    def test_symbolic_image_survives_monte_carlo(self):
        from repro.systems import models
        qts = models.qrw_qts(4, 0.2, steps=2)
        image = compute_image(qts, method="contraction").subspace
        report = validate_image(qts, image, samples=15, seed=3)
        assert report.ok, report.failures

    def test_reduced_property_pipeline(self):
        """Bit-flip correction checked on the data register only,
        through reachability + partial trace."""
        from repro.subspace.reduce import reduced_support
        from repro.systems import models
        qts = models.bitflip_qts()
        trace = reachable_space(qts, method="contraction", k1=3, k2=2)
        support = reduced_support(trace.subspace, [0, 1, 2])
        # reachable data states: the three error states (initial) plus
        # the corrected codeword |000>
        assert support.dimension == 4

    def test_extension_model_reachability(self):
        from repro.systems import models
        qts = models.w_state_qts(3)
        trace = reachable_space(qts, method="basic")
        assert trace.converged
        assert trace.subspace.contains(qts.initial)


class TestQuantumLogicPipeline:
    def test_logic_over_imported_circuit(self):
        from repro.mc.logic import Atomic, check_always
        circuit = parse_qasm(GHZ_QASM)
        qts = QuantumTransitionSystem(
            3, [QuantumOperation.unitary("u", circuit)])
        qts.set_initial_basis_states([[0, 0, 0]])
        # the parity-even subspace contains |000>, GHZ and everything
        # the GHZ circuit reaches from them... use the full space as a
        # trivially-true AG and a single ray as a false one
        full = qts.space.span([
            qts.space.basis_state([int(b) for b in format(i, "03b")])
            for i in range(8)])
        assert check_always(qts, Atomic(full, "true"), method="basic")
        ray = Atomic(qts.space.span([qts.space.basis_state([0, 0, 0])]),
                     "zero")
        assert not check_always(qts, ray, method="basic")
