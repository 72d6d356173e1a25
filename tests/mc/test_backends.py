"""The pluggable backend layer: tdd vs dense statevector."""

import pytest

from repro.errors import ReproError
from repro.mc.backends import (BACKENDS, DenseStatevectorBackend, TDDBackend,
                               cross_validate, make_backend)
from repro.mc.checker import ModelChecker
from repro.mc.config import CheckerConfig
from repro.systems import models


class TestFactory:
    def test_names(self):
        assert set(BACKENDS) == {"tdd", "dense"}
        assert make_backend("tdd").name == "tdd"
        assert make_backend("dense").name == "dense"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ReproError):
            make_backend("quantum-annealer")

    def test_tdd_backend_validates_method(self):
        with pytest.raises(ReproError):
            TDDBackend(method="nonsense")


class TestDenseBackend:
    def test_image_matches_tdd(self):
        for build in (lambda: models.ghz_qts(3),
                      lambda: models.grover_qts(3),
                      lambda: models.qrw_qts(3, 0.2)):
            tdd_result = TDDBackend("contraction", k1=2, k2=2).compute_image(
                build())
            dense_result = DenseStatevectorBackend().compute_image(build())
            assert (tdd_result.subspace.dimension
                    == dense_result.subspace.dimension)

    def test_image_subspace_is_tdd_backed(self):
        qts = models.ghz_qts(3)
        result = DenseStatevectorBackend().compute_image(qts)
        # same result type as the symbolic backend: a TDD Subspace
        assert result.subspace.space is qts.space
        assert result.stats.extra["backend"] == "dense"

    def test_reachable_matches_tdd(self):
        dense_trace = DenseStatevectorBackend().reachable(
            models.qrw_qts(3, 0.2))
        tdd_trace = TDDBackend("contraction", k1=2, k2=2).reachable(
            models.qrw_qts(3, 0.2))
        assert dense_trace.dimensions == tdd_trace.dimensions
        assert dense_trace.converged

    def test_size_guard(self):
        backend = DenseStatevectorBackend(max_qubits=4)
        with pytest.raises(ReproError, match="dense backend refuses"):
            backend.compute_image(models.ghz_qts(5))


class TestDenseConfigDefaults:
    """``make_backend`` hands the config's direction and bound to the
    dense backend as it does to the tdd one; an explicit call argument
    still wins."""

    @pytest.mark.parametrize("fields", [
        {"direction": "backward"},
        {"bound": 2},
        {"direction": "backward", "bound": 2},
    ])
    def test_reachable_ladder_matches_tdd(self, fields):
        tdd = make_backend(CheckerConfig(**fields)).reachable(
            models.qrw_qts(4))
        dense = make_backend(CheckerConfig(backend="dense", **fields)
                             ).reachable(models.qrw_qts(4))
        assert dense.dimensions == tdd.dimensions
        assert dense.direction == tdd.direction \
            == fields.get("direction", "forward")
        assert dense.bound == tdd.bound == fields.get("bound", 0)
        assert dense.iterations == fields.get("bound", dense.iterations)

    def test_backward_ladder_is_not_the_forward_one(self):
        # otherwise the test above could not tell the directions apart
        qts = models.qrw_qts(4)
        backend = make_backend(CheckerConfig(backend="dense"))
        assert (backend.reachable(qts).dimensions
                != backend.reachable(qts, direction="backward").dimensions)

    def test_explicit_arguments_win(self):
        config = CheckerConfig(backend="dense", direction="backward",
                               bound=2)
        explicit = make_backend(config).reachable(
            models.qrw_qts(4), direction="forward", bound=0)
        plain = make_backend(CheckerConfig(backend="dense")).reachable(
            models.qrw_qts(4))
        assert explicit.direction == "forward"
        assert explicit.bound == 0
        assert explicit.dimensions == plain.dimensions

    def test_image_direction_from_config(self):
        qts = models.qrw_qts(4)
        dense = make_backend(CheckerConfig(backend="dense",
                                           direction="backward"))
        tdd = make_backend(CheckerConfig(direction="backward"))
        preimage = dense.compute_image(qts)
        assert preimage.subspace.equals(tdd.compute_image(qts).subspace)
        assert not preimage.subspace.equals(
            dense.compute_image(qts, direction="forward").subspace)


class TestCrossValidation:
    def test_agreement_on_models(self):
        for build in (lambda: models.ghz_qts(3),
                      lambda: models.bitflip_qts(),
                      lambda: models.qrw_qts(3, 0.1)):
            report = cross_validate(build(), method="contraction",
                                    k1=2, k2=2)
            assert report.ok, repr(report)
            assert report.tdd_dimension == report.dense_dimension

    def test_checker_facade(self):
        checker = ModelChecker(models.grover_qts(3), method="basic")
        report = checker.cross_validate()
        assert report.ok

    def test_params_split_between_backends(self):
        # dense-only and tdd-only params may coexist; each backend
        # takes its own and ignores the other's
        checker = ModelChecker(models.grover_qts(3), method="contraction",
                               k1=2, k2=2, backend="dense", max_qubits=8)
        assert checker.cross_validate().ok


class TestCheckerBackendSelection:
    def test_dense_checker_end_to_end(self):
        qts = models.grover_qts(3, initial="invariant")
        checker = ModelChecker(qts, backend="dense")
        assert checker.backend.name == "dense"
        assert checker.check_invariant(strict=True)
        assert checker.check_safety(qts.initial)

    def test_dense_image_dimension(self):
        checker = ModelChecker(models.ghz_qts(3), backend="dense")
        assert checker.image().dimension == 1

    def test_dense_is_drop_in_for_tdd_method_params(self):
        # the quickstart swap: same call with backend="dense" must not
        # trip over tdd-only parameters like k1/k2
        qts = models.grover_qts(3, initial="invariant")
        checker = ModelChecker(qts, method="contraction", k1=4, k2=4,
                               backend="dense")
        assert checker.check_invariant(strict=True)

    def test_repr_mentions_backend(self):
        checker = ModelChecker(models.ghz_qts(3), backend="dense")
        assert "dense" in repr(checker)
