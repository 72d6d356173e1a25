"""The compute_image entry point and method registry."""

import pytest

from repro.errors import ReproError
from repro.image.engine import (METHODS, ImageEngine, compute_image,
                                make_computer)
from repro.image.sliced import MonolithicExecutor
from repro.systems import models


class TestRegistry:
    def test_methods_tuple(self):
        assert set(METHODS) == {"basic", "addition", "contraction",
                                "hybrid"}

    def test_make_computer_each_method(self):
        qts = models.ghz_qts(3)
        assert make_computer(qts, "basic").method == "basic"
        assert make_computer(qts, "addition", k=2).method == "addition"
        assert make_computer(qts, "contraction", k1=2,
                             k2=3).method == "contraction"

    def test_unknown_method(self):
        with pytest.raises(ReproError):
            make_computer(models.ghz_qts(3), "quantum-magic")

    def test_basic_rejects_params(self):
        with pytest.raises(ReproError):
            make_computer(models.ghz_qts(3), "basic", k=1)


class TestComputeImage:
    def test_records_time(self):
        result = compute_image(models.ghz_qts(3), method="basic")
        assert result.stats.seconds > 0

    def test_all_methods_same_dimension(self):
        dims = set()
        for method, params in (("basic", {}), ("addition", {"k": 1}),
                               ("contraction", {"k1": 2, "k2": 2})):
            result = compute_image(models.grover_qts(4), method=method,
                                   **params)
            dims.add(result.dimension)
        assert len(dims) == 1


class TestContractionCall:
    """Every method makes its transition-relation contractions through
    ``MonolithicExecutor.contract``, looked up at call time, so a
    wrapper installed on the class after the engine is built still sees
    each of them (the benchmark's span recorder relies on this)."""

    @pytest.mark.parametrize("method,params", [
        ("basic", {}), ("addition", {"k": 1}),
        ("contraction", {"k1": 2, "k2": 2}),
        ("hybrid", {"k": 1, "k1": 2, "k2": 2})])
    def test_wrapper_on_the_class_sees_every_contraction(
            self, monkeypatch, method, params):
        calls = []
        contract = MonolithicExecutor.contract

        def counting(self, a, b, sum_over):
            calls.append(sum_over)
            return contract(self, a, b, sum_over)

        engine = ImageEngine(models.grover_qts(3), method, **params)
        monkeypatch.setattr(MonolithicExecutor, "contract", counting)
        result = engine.compute_image()
        assert calls
        assert len(calls) == result.stats.contractions

