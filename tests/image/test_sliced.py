"""The sliced execution strategy: cofactor decomposition + process pool.

The acceptance bar for the strategy is *identical results*: for every
library circuit and slice depth, the sliced strategy must produce the
same image/reachable space as the monolithic baseline, whether the
cofactors run inline or on the worker pool.
"""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.image.engine import ImageEngine, compute_image
from repro.image.sliced import (MonolithicExecutor, SlicedExecutor,
                                STRATEGIES, _contract_task, make_executor)
from repro.image.base import input_sum_indices
from repro.circuits.network import circuit_to_tdd
from repro.mc.checker import ModelChecker
from repro.mc.config import CheckerConfig
from repro.mc.reachability import reachable_space
from repro.systems import models
from repro.tdd.io import order_payload, to_dict

#: (model, size, builder options) — the five library families
LIBRARY = [
    ("ghz", 4, {}),
    ("bv", 4, {}),
    ("grover", 3, {}),
    ("qft", 3, {}),
    ("qrw", 4, {"steps": 2}),
]


def dense_image(model, size, opts, **kwargs):
    qts = models.build_model(model, size, **opts)
    result = compute_image(qts, **kwargs)
    return result.dimension, result.subspace.to_dense()


class TestStrategyRegistry:
    def test_strategies_tuple(self):
        assert set(STRATEGIES) == {"monolithic", "sliced"}

    def test_make_executor(self):
        qts = models.ghz_qts(3)
        assert isinstance(make_executor("monolithic", qts.manager),
                          MonolithicExecutor)
        sliced = make_executor("sliced", qts.manager, jobs=2, slice_depth=3)
        assert sliced.depth == 3 and sliced.jobs == 2
        sliced.close()

    def test_unknown_strategy(self):
        qts = models.ghz_qts(3)
        with pytest.raises(ReproError):
            make_executor("quantum-magic", qts.manager)
        with pytest.raises(ReproError):
            compute_image(models.ghz_qts(3), method="basic",
                          strategy="quantum-magic")

    def test_negative_depth_rejected(self):
        with pytest.raises(ReproError):
            SlicedExecutor(models.ghz_qts(3).manager, depth=-1)


class TestSlicedEqualsMonolithic:
    """Bit-for-bit agreement on the full circuit library, depths 0-3."""

    @pytest.mark.parametrize("model,size,opts", LIBRARY)
    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_basic_method(self, model, size, opts, depth):
        dim_mono, dense_mono = dense_image(model, size, opts,
                                           method="basic")
        dim_sliced, dense_sliced = dense_image(
            model, size, opts, method="basic", strategy="sliced",
            slice_depth=depth)
        assert dim_sliced == dim_mono
        assert np.allclose(dense_sliced, dense_mono)

    @pytest.mark.parametrize("model,size,opts", LIBRARY)
    def test_partition_methods(self, model, size, opts):
        dim_mono, dense_mono = dense_image(model, size, opts,
                                           method="basic")
        for method, params in (("addition", {"k": 1}),
                               ("contraction", {"k1": 2, "k2": 2}),
                               ("hybrid", {"k": 1, "k1": 2, "k2": 2})):
            dim_sliced, dense_sliced = dense_image(
                model, size, opts, method=method, strategy="sliced",
                slice_depth=2, **params)
            assert dim_sliced == dim_mono, method
            assert np.allclose(dense_sliced, dense_mono), method

    def test_slices_counted(self):
        qts = models.build_model("qrw", 4, steps=2)
        result = compute_image(qts, method="basic", strategy="sliced",
                               slice_depth=2)
        assert result.stats.slices > 0
        assert result.stats.extra["strategy"] == "sliced"

    def test_depth_zero_degrades_to_monolithic(self):
        qts = models.build_model("ghz", 4)
        result = compute_image(qts, method="basic", strategy="sliced",
                               slice_depth=0)
        assert result.stats.slices == 0


class TestExecutorUnit:
    def _operator_setup(self, model="ghz", size=4, **opts):
        qts = models.build_model(model, size, **opts)
        circuit = qts.all_kraus_circuits()[0]
        operator, inputs, outputs = circuit_to_tdd(circuit, qts.manager)
        state = qts.initial.basis[0]
        sum_over = input_sum_indices(inputs, outputs)
        return qts, state, operator, sum_over

    def test_inline_matches_plain_contract(self):
        qts, state, operator, sum_over = self._operator_setup()
        expected = state.contract(operator, sum_over)
        executor = SlicedExecutor(qts.manager, depth=2)
        got = executor.contract(state, operator, sum_over)
        assert np.allclose(got.to_numpy(), expected.to_numpy())

    def test_depth_beyond_sum_indices(self):
        # more slice levels than summed indices: just uses what exists
        qts, state, operator, sum_over = self._operator_setup("ghz", 3)
        executor = SlicedExecutor(qts.manager, depth=64)
        expected = state.contract(operator, sum_over)
        got = executor.contract(state, operator, sum_over)
        assert np.allclose(got.to_numpy(), expected.to_numpy())

    def test_operator_slices_cached(self):
        qts, state, operator, sum_over = self._operator_setup()
        executor = SlicedExecutor(qts.manager, depth=2)
        executor.contract(state, operator, sum_over)
        cached = executor._slice_cache[operator]
        executor.contract(state, operator, sum_over)
        assert executor._slice_cache[operator] is cached

    def test_dead_state_slices_evaporate(self):
        import gc
        qts, state, operator, sum_over = self._operator_setup()
        executor = SlicedExecutor(qts.manager, depth=2)
        transient = state.scaled(1.0)  # a handle nothing else holds
        executor.contract(transient, operator, sum_over)
        alive = len(executor._slice_cache)
        del transient
        gc.collect()
        assert len(executor._slice_cache) < alive

    def test_zero_state_gives_zero_image(self):
        from repro.tdd import construction as tc
        qts, state, operator, sum_over = self._operator_setup()
        zero = tc.zero(qts.manager, list(state.indices))
        executor = SlicedExecutor(qts.manager, depth=2)
        result = executor.contract(zero, operator, sum_over)
        assert result.is_zero

    def test_worker_task_round_trip(self):
        # the worker entry point, exercised in-process
        qts, state, operator, sum_over = self._operator_setup()
        expected = state.contract(operator, sum_over)
        task = (order_payload(qts.manager.order), to_dict(state),
                to_dict(operator), [idx.name for idx in sum_over])
        result_data = _contract_task(task)
        from repro.tdd.io import from_dict
        rebuilt = from_dict(qts.manager, result_data)
        assert np.allclose(rebuilt.to_numpy(), expected.to_numpy())


class TestProcessPool:
    """The real IPC path: cofactors cross process boundaries."""

    def test_pool_matches_monolithic(self):
        dim_mono, dense_mono = dense_image("grover", 3, {},
                                           method="basic")
        qts = models.build_model("grover", 3)
        with ImageEngine(qts, "basic", strategy="sliced", jobs=2,
                         slice_depth=2) as engine:
            engine.executor.pool_min_nodes = 0  # force IPC dispatch
            result = engine.compute_image()
        assert result.dimension == dim_mono
        assert np.allclose(result.subspace.to_dense(), dense_mono)
        assert result.stats.parallel_tasks > 0

    def test_pool_reuse_across_calls(self):
        qts = models.build_model("qrw", 3)
        with ImageEngine(qts, "basic", strategy="sliced", jobs=2) as engine:
            engine.executor.pool_min_nodes = 0
            first = engine.compute_image()
            second = engine.compute_image()
        assert first.dimension == second.dimension

    def test_submit_failure_falls_back_inline(self):
        # workers spawn lazily: a pool whose processes cannot start
        # fails at submit time, and the executor must degrade inline
        class ExplodingPool:
            def submit(self, *_args, **_kwargs):
                raise OSError("no processes on this host")

            def shutdown(self, wait=True):
                pass

        dim_mono, dense_mono = dense_image("grover", 3, {},
                                           method="basic")
        qts = models.build_model("grover", 3)
        with ImageEngine(qts, "basic", strategy="sliced", jobs=2) as engine:
            engine.executor.pool_min_nodes = 0
            engine.executor._pool = ExplodingPool()
            result = engine.compute_image()
            assert engine.executor._pool_broken
        assert result.dimension == dim_mono
        assert np.allclose(result.subspace.to_dense(), dense_mono)
        assert result.stats.parallel_tasks == 0

    def test_broken_pool_falls_back_inline(self):
        dim_mono, dense_mono = dense_image("ghz", 3, {}, method="basic")
        qts = models.build_model("ghz", 3)
        with ImageEngine(qts, "basic", strategy="sliced", jobs=2) as engine:
            engine.executor.pool_min_nodes = 0
            engine.executor._pool_broken = True  # simulate no-pool host
            result = engine.compute_image()
        assert result.dimension == dim_mono
        assert np.allclose(result.subspace.to_dense(), dense_mono)
        assert result.stats.parallel_tasks == 0

    def test_pool_fallbacks_counted_on_submit_failure(self):
        # a degraded run must be distinguishable from a sliced one in
        # the stats: every batch that was meant for the pool but ran
        # inline increments pool_fallbacks
        class ExplodingPool:
            def submit(self, *_args, **_kwargs):
                raise OSError("no processes on this host")

            def shutdown(self, wait=True):
                pass

        qts = models.build_model("grover", 3)
        with ImageEngine(qts, "basic", strategy="sliced", jobs=2) as engine:
            engine.executor.pool_min_nodes = 0
            engine.executor._pool = ExplodingPool()
            result = engine.compute_image()
        assert result.stats.pool_fallbacks > 0
        assert result.stats.parallel_tasks == 0

    def test_pool_fallbacks_counted_on_unavailable_pool(self):
        qts = models.build_model("grover", 3)
        with ImageEngine(qts, "basic", strategy="sliced", jobs=2) as engine:
            engine.executor.pool_min_nodes = 0
            engine.executor._pool_broken = True
            result = engine.compute_image()
        assert result.stats.pool_fallbacks > 0
        assert "pool_fallbacks" in result.stats.as_dict()

    def test_healthy_pool_records_no_fallbacks(self):
        qts = models.build_model("grover", 3)
        with ImageEngine(qts, "basic", strategy="sliced", jobs=2) as engine:
            engine.executor.pool_min_nodes = 0
            result = engine.compute_image()
        assert result.stats.parallel_tasks > 0
        assert result.stats.pool_fallbacks == 0

    def test_order_reshipped_once_after_growth(self):
        # regression: the watermark never advanced after a re-ship, so
        # every batch after an index registration re-serialised the
        # full order payload
        from repro.indices.index import Index
        qts, state, operator, sum_over = TestExecutorUnit(
        )._operator_setup("grover", 3)
        executor = SlicedExecutor(qts.manager, depth=2, jobs=2,
                                  pool_min_nodes=0)
        try:
            executor.contract(state, operator, sum_over)
            assert executor._pool is not None
            assert executor._order_ships == 0  # initializer covered it
            baseline = executor._pool_order_len
            qts.manager.register(Index("late_index"))
            executor.contract(state, operator, sum_over)
            assert executor._order_ships == 1
            assert executor._pool_order_len == baseline + 1
            executor.contract(state, operator, sum_over)
            executor.contract(state, operator, sum_over)
            assert executor._order_ships == 1  # not re-serialised again
        finally:
            executor.close()


class TestTopLevelPlumbing:
    def test_reachable_space_sliced(self):
        mono = reachable_space(models.build_model("qrw", 3), "basic",
                               max_iterations=4)
        sliced = reachable_space(models.build_model("qrw", 3), "basic",
                                 max_iterations=4, strategy="sliced")
        assert sliced.dimensions == mono.dimensions
        assert np.allclose(sliced.subspace.to_dense(),
                           mono.subspace.to_dense())

    def test_model_checker_strategy(self):
        qts = models.grover_qts(4, initial="invariant")
        checker = ModelChecker(qts, CheckerConfig(method="basic",
                                                  strategy="sliced"))
        assert checker.check_invariant(strict=True)

    def test_engine_context_manager_closes_pool(self):
        qts = models.build_model("ghz", 3)
        engine = ImageEngine(qts, "basic", strategy="sliced", jobs=2)
        executor = engine.executor
        executor.pool_min_nodes = 0
        engine.compute_image()
        engine.close()
        assert executor._pool is None
