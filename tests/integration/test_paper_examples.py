"""End-to-end reproduction of every worked example in the paper."""

import numpy as np
import pytest

from repro import CheckerConfig, ModelChecker, models
from repro.image.engine import compute_image
from repro.subspace.projector import basis_decompose

from tests.helpers import MINUS, PLUS, make_space


class TestFig1Projector:
    """Fig. 1: the projector of span{|++->, |11->} and its TDD."""

    def test_matrix_entries(self):
        space = make_space(3)
        s1 = space.product_state([PLUS, PLUS, MINUS])
        s2 = space.product_state([np.array([0., 1.]), np.array([0., 1.]),
                                  MINUS])
        sub = space.span([s1, s2])
        p = sub.to_dense()
        sixth = 1.0 / 6.0
        expect = np.zeros((8, 8))
        # upper-left 6x6 block: alternating +-1/6
        for i in range(6):
            for j in range(6):
                expect[i, j] = sixth * (-1) ** (i + j)
        expect[6, 6] = expect[7, 7] = 0.5
        expect[6, 7] = expect[7, 6] = -0.5
        assert np.allclose(p, expect, atol=1e-9)

    def test_tdd_is_compact(self):
        space = make_space(3)
        s1 = space.product_state([PLUS, PLUS, MINUS])
        s2 = space.product_state([np.array([0., 1.]), np.array([0., 1.]),
                                  MINUS])
        sub = space.span([s1, s2])
        # the paper's Fig. 1 diagram has 8 index nodes + terminal; our
        # construction must be in the same compact regime (far below
        # the 2^6 dense worst case)
        assert sub.projector.size() <= 12


class TestSectionIIIA1_Grover:
    """Combinational circuits: the Grover iteration invariant."""

    @pytest.mark.parametrize("method,params", [
        ("basic", {}),
        ("addition", {"k": 1}),
        ("contraction", {"k1": 4, "k2": 4}),
    ])
    def test_invariant_all_methods(self, method, params):
        qts = models.grover_qts(3, initial="invariant")
        checker = ModelChecker(qts, CheckerConfig(method=method,
                                                  method_params=params))
        assert checker.check_invariant(strict=True)

    def test_input_state_reaches_marked(self):
        qts = models.grover_qts(3)
        image = compute_image(qts, method="basic").subspace
        marked = qts.space.product_state(
            [np.array([0., 1.]), np.array([0., 1.]), MINUS])
        assert image.contains_state(marked)


class TestSectionIIIA2_Bitflip:
    """Dynamic circuits: the bit-flip code corrector."""

    @pytest.mark.parametrize("method,params", [
        ("basic", {}),
        ("addition", {"k": 1}),
        ("contraction", {"k1": 3, "k2": 2}),
    ])
    def test_error_states_corrected(self, method, params):
        qts = models.bitflip_qts()
        expected = qts.space.span([qts.space.basis_state([0] * 6)])
        checker = ModelChecker(qts, CheckerConfig(method=method,
                                                  method_params=params))
        assert checker.check_image_equals(expected)

    def test_paper_partition_parameters(self):
        """Section V.B cuts Fig. 3 with k1 = 3, k2 = 2 into six blocks;
        our partitioner must reproduce a 3-column grid on the syndrome
        sub-circuit (2 crossing CX per column)."""
        from repro.circuits.library import bitflip_syndrome_circuit
        from repro.image.partition import partition_circuit
        blocks = partition_circuit(bitflip_syndrome_circuit(), 3, 2)
        assert 1 + max(b.column for b in blocks) == 3


class TestSectionIIIA3_NoisyWalk:
    """Noisy circuits: quantum walk with a coin bit-flip."""

    def test_image_contained_in_paper_span(self):
        qts = models.qrw_qts(4, 0.25, start_position=3)
        image = compute_image(qts, method="contraction").subspace
        bound = qts.space.span([
            qts.space.basis_state([0, 0, 1, 0]),  # |0>|2>
            qts.space.basis_state([1, 1, 0, 0]),  # |1>|4>
        ])
        assert bound.contains(image)

    def test_noise_does_not_change_image(self):
        """The paper's observation: the bit-flip after the coin
        Hadamard leaves the reachable subspace unchanged (X fixes
        |+->)."""
        noiseless = compute_image(models.qrw_qts(4, 0.0),
                                  method="basic").subspace
        noisy = compute_image(models.qrw_qts(4, 0.4),
                              method="basic").subspace
        from tests.helpers import subspace_to_dense
        assert subspace_to_dense(noiseless).equals(subspace_to_dense(noisy))


class TestExample1and2:
    """Examples 1-2: basis decomposition and join on the Grover space."""

    def test_decompose_fig1(self):
        space = make_space(3)
        s1 = space.product_state([PLUS, PLUS, MINUS])
        s2 = space.product_state([np.array([0., 1.]), np.array([0., 1.]),
                                  MINUS])
        sub = space.span([s1, s2])
        recovered = basis_decompose(space, sub.projector)
        assert recovered.dimension == 2
        v1 = recovered.basis[0].to_numpy().reshape(-1)
        expect = np.kron((np.kron([1, 0], [1, 0]) + np.kron([1, 0], [0, 1])
                          + np.kron([0, 1], [1, 0])) / np.sqrt(3), MINUS)
        assert np.isclose(abs(np.vdot(v1, expect)), 1.0, atol=1e-9)
