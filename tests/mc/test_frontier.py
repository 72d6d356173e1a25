"""Frontier-set reachability refinement, against the sequential driver."""

import pytest

from repro.mc.backends import DenseStatevectorBackend
from repro.mc.checker import ModelChecker
from repro.mc.config import CheckerConfig
from repro.mc.reachability import reachable_space
from repro.systems import models

from tests.helpers import subspace_to_dense


class TestFrontier:
    @pytest.mark.parametrize("builder", [
        lambda: models.qrw_qts(3, 0.2),
        lambda: models.ghz_qts(4),
        lambda: models.bitflip_qts(),
        lambda: models.grover_qts(4),
    ])
    def test_agrees_with_full_iteration(self, builder):
        full = reachable_space(builder(), method="basic",
                               driver="sequential")
        fast = reachable_space(builder(), method="basic",
                               driver="frontier")
        assert full.converged and fast.converged
        assert subspace_to_dense(full.subspace).equals(
            subspace_to_dense(fast.subspace))

    def test_frontier_images_fewer_states(self):
        """In frontier mode the total contraction count across the run
        must be strictly lower once the space has grown."""
        full = reachable_space(models.qrw_qts(3, 0.2), method="basic",
                               driver="sequential")
        fast = reachable_space(models.qrw_qts(3, 0.2), method="basic",
                               driver="frontier")
        assert fast.stats.contractions < full.stats.contractions

    def test_frontier_with_contraction_method(self):
        full = reachable_space(models.qrw_qts(3, 0.3),
                               method="contraction", k1=2, k2=2,
                               driver="sequential")
        fast = reachable_space(models.qrw_qts(3, 0.3),
                               method="contraction", k1=2, k2=2,
                               driver="frontier")
        assert subspace_to_dense(full.subspace).equals(
            subspace_to_dense(fast.subspace))


class TestFrontierBackwardBounded:
    """The frontier driver combined with backward analysis and bound > 0.

    Each feature was previously only tested independently; these pin
    down the combination on both backends, against the sequential
    driver and the dense backend's definitional fixpoint.
    """

    def _tdd(self, driver, bound):
        qts = models.qrw_qts(3, 0.2)
        return reachable_space(qts, method="basic",
                               initial=qts.named_subspace("start"),
                               direction="backward", bound=bound,
                               driver=driver)

    def _dense(self, bound):
        qts = models.qrw_qts(3, 0.2)
        return DenseStatevectorBackend().reachable(
            qts, initial=qts.named_subspace("start"),
            direction="backward", bound=bound)

    @pytest.mark.parametrize("bound", [1, 2, 3])
    def test_tdd_frontier_backward_bounded_matches_full(self, bound):
        full = self._tdd("sequential", bound=bound)
        fast = self._tdd("frontier", bound=bound)
        assert full.stats.extra["driver"] == "sequential"
        assert "driver" not in fast.stats.extra  # the default, frontier
        assert fast.dimensions == full.dimensions
        assert fast.bound == bound
        assert fast.iterations <= bound
        assert subspace_to_dense(fast.subspace).equals(
            subspace_to_dense(full.subspace))

    @pytest.mark.parametrize("bound", [1, 2, 3])
    def test_dense_frontier_backward_bounded_matches_tdd(self, bound):
        symbolic = self._tdd("frontier", bound=bound)
        dense = self._dense(bound=bound)
        assert dense.dimensions == symbolic.dimensions
        assert dense.converged == symbolic.converged
        assert subspace_to_dense(dense.subspace).equals(
            subspace_to_dense(symbolic.subspace))

    def test_both_backends_frontier_backward_unbounded(self):
        symbolic = self._tdd("frontier", bound=0)
        dense = self._dense(bound=0)
        assert symbolic.converged and dense.converged
        assert dense.dimensions == symbolic.dimensions
        assert subspace_to_dense(dense.subspace).equals(
            subspace_to_dense(symbolic.subspace))

    @pytest.mark.parametrize("backend_config", [
        CheckerConfig(method="basic", direction="backward", bound=2,
                      driver="frontier"),
        CheckerConfig(backend="dense", direction="backward", bound=2,
                      driver="frontier"),
    ])
    def test_check_frontier_backward_bounded_verdicts_agree(
            self, backend_config):
        result = ModelChecker(models.grover_qts(3), backend_config).check(
            "AG plus")
        assert result.verdict == "violated"
        assert result.direction == "backward"
        assert result.bound == 2


class TestCombinators:
    def test_then_composes_kraus(self):
        qts = models.bitflip_qts()
        op = qts.operation("correct")
        squared = op.then(op)
        assert squared.num_kraus == 16
        assert squared.is_trace_nonincreasing()

    def test_then_width_mismatch(self):
        from repro.errors import SystemError_
        from repro.systems.operations import QuantumOperation
        from repro.circuits.circuit import QuantumCircuit
        a = QuantumOperation.unitary("a", QuantumCircuit(2))
        b = QuantumOperation.unitary("b", QuantumCircuit(3))
        with pytest.raises(SystemError_):
            a.then(b)

    def test_power_matches_repeated_image(self):
        """image under T^2 == image of image under T."""
        from repro.image.engine import compute_image
        from repro.systems.operations import QuantumOperation
        from repro.systems.qts import QuantumTransitionSystem
        from repro.circuits.library import ghz_circuit

        base = QuantumOperation.unitary("g", ghz_circuit(3))
        qts1 = QuantumTransitionSystem(3, [base.power(2)])
        qts1.set_initial_basis_states([[0, 0, 0]])
        twice = compute_image(qts1, method="basic").subspace

        qts2 = QuantumTransitionSystem(
            3, [QuantumOperation.unitary("g", ghz_circuit(3))])
        qts2.set_initial_basis_states([[0, 0, 0]])
        once = compute_image(qts2, method="basic").subspace
        again = compute_image(qts2, subspace=once, method="basic").subspace
        assert subspace_to_dense(twice).equals(subspace_to_dense(again))

    def test_identity_operation(self):
        from repro.image.engine import compute_image
        from repro.systems.operations import QuantumOperation
        from repro.systems.qts import QuantumTransitionSystem
        qts = QuantumTransitionSystem(
            2, [QuantumOperation.identity("i", 2)])
        qts.set_initial_basis_states([[0, 1]])
        image = compute_image(qts, method="basic").subspace
        assert image.equals(qts.initial)
