"""The fixpoint driver layer: schedules and the warm-start cache."""

import pytest

from repro.errors import ConfigError, ReproError
from repro.image.engine import ImageEngine
from repro.mc.backends import DenseStatevectorBackend
from repro.mc.checker import ModelChecker
from repro.mc.config import CheckerConfig
from repro.mc.drivers import (DEFAULT_DRIVER, DRIVERS, FrontierDriver,
                              OpShardedDriver, SequentialDriver,
                              make_driver)
from repro.mc.reachability import (ReachabilityCache, reachable_space,
                                   subspace_fingerprint,
                                   system_fingerprint)
from repro.subspace.subspace import Subspace
from repro.systems import models
from repro.utils.stats import StatsRecorder

from tests.helpers import subspace_to_dense

#: the tier-2 model families at driver-test sizes
FAMILIES = [
    ("ghz", lambda: models.ghz_qts(3)),
    ("bv", lambda: models.bv_qts(3)),
    ("grover", lambda: models.grover_qts(3)),
    ("qft", lambda: models.qft_qts(3)),
    ("qrw", lambda: models.qrw_qts(3, 0.2)),
]


def equal_spaces(a, b):
    """Same dimension and mutual containment."""
    return (a.dimension == b.dimension
            and a.contains(b) and b.contains(a))


class TestPartialImage:
    def test_partial_image_with_all_circuits_is_image(self):
        qts = models.grover_qts(3)
        engine = ImageEngine(qts, "basic")
        full = engine.computer.image(qts.initial).subspace
        partial = engine.computer.partial_image(
            qts.initial.basis, qts.all_kraus_circuits()).subspace
        assert equal_spaces(full, partial)


class TestDriverRegistry:
    def test_names(self):
        assert DRIVERS == ("sequential", "frontier")
        assert DEFAULT_DRIVER == "frontier"

    @pytest.mark.parametrize("name,cls", [
        ("sequential", SequentialDriver),
        ("frontier", FrontierDriver),
    ])
    def test_make_driver(self, name, cls):
        driver = make_driver(name)
        assert isinstance(driver, cls)
        assert driver.name == name

    def test_retired_opsharded_name_is_not_selectable(self):
        # the class name survives only as a benchmark trace target
        assert "opsharded" not in DRIVERS
        assert OpShardedDriver.advance is SequentialDriver.advance
        with pytest.raises(ReproError, match="unknown driver"):
            make_driver("opsharded")
        with pytest.raises(ConfigError, match="unknown driver"):
            CheckerConfig(driver="opsharded")

    def test_unknown_driver_rejected(self):
        with pytest.raises(ReproError, match="unknown driver"):
            make_driver("nonsense")

    def test_config_validates_driver(self):
        with pytest.raises(ConfigError, match="unknown driver"):
            CheckerConfig(driver="nonsense")

    def test_config_driver_round_trip(self):
        config = CheckerConfig(driver="sequential")
        assert CheckerConfig.from_json(config.to_json()) == config
        assert "driver=sequential" in config.describe()
        assert "driver" not in CheckerConfig().describe()

    def test_dense_config_accepts_driver(self):
        config = CheckerConfig(backend="dense", driver="frontier")
        assert config.driver == "frontier"

    def test_reachable_space_rejects_contradiction(self):
        # the schedule is picked by driver= only; frontier is not a
        # keyword, whatever driver it comes with
        with pytest.raises(TypeError, match="frontier"):
            reachable_space(models.ghz_qts(2), frontier=True,
                            driver="sequential")


class TestDriverEquality:
    @pytest.mark.parametrize("family,builder", FAMILIES)
    def test_frontier_matches_sequential(self, family, builder):
        qts = builder()
        seq = reachable_space(qts, method="basic", driver="sequential")
        fast = reachable_space(qts, method="basic", driver="frontier")
        assert fast.dimensions == seq.dimensions
        assert equal_spaces(fast.subspace, seq.subspace)
        assert subspace_to_dense(fast.subspace).equals(
            subspace_to_dense(seq.subspace))

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_drivers_agree_backward(self, driver):
        qts = models.qrw_qts(3, 0.2)

        def run(name):
            return reachable_space(qts, method="basic",
                                   initial=qts.named_subspace("start"),
                                   direction="backward", driver=name)
        base = run("sequential")
        trace = run(driver)
        assert trace.dimensions == base.dimensions
        assert equal_spaces(trace.subspace, base.subspace)

    def test_sequential_records_driver_extra(self):
        trace = reachable_space(models.ghz_qts(3), method="basic",
                                driver="sequential")
        assert trace.stats.extra["driver"] == "sequential"
        default = reachable_space(models.ghz_qts(3), method="basic")
        assert "driver" not in default.stats.extra

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_dense_backend_honours_driver(self, driver):
        # each tdd schedule reproduces the dense definitional ladder
        symbolic = reachable_space(models.qrw_qts(3, 0.2), method="basic",
                                   driver=driver)
        dense = DenseStatevectorBackend().reachable(
            models.qrw_qts(3, 0.2), driver=driver)
        assert dense.dimensions == symbolic.dimensions
        assert subspace_to_dense(dense.subspace).equals(
            subspace_to_dense(symbolic.subspace))

    def test_checker_config_driver_same_verdict(self):
        for driver in DRIVERS:
            config = CheckerConfig(method="basic", driver=driver)
            result = ModelChecker(models.grover_qts(3), config).check(
                "AG inv")
            assert result.holds
            assert result.reachable_dimension == 2

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_witness_traces_work_under_every_driver(self, driver):
        config = CheckerConfig(method="basic", driver=driver)
        result = ModelChecker(models.grover_qts(3), config).check(
            "AG plus")
        assert not result.holds
        assert result.witness_trace is not None
        assert result.witness_trace.valid
        assert result.witness_trace.length >= 1


#: qrw5 dimension ladders from its initial (start) state; the
#: benchmark's hand-written expected answers record the same two
QRW5_FORWARD_LADDER = [1, 2, 4, 7, 10, 14, 18, 22, 26, 30, 32, 32]
QRW5_BACKWARD_LADDER = [1, 3, 6, 10, 14, 18, 22, 26, 30, 32, 32]


class TestBackwardLadder:
    """The into-path drivers must image the adjoint system backwards.

    The two ladders differ, so a driver that took its circuits from
    the forward system would turn the backward ladder into the
    forward one.
    """

    @pytest.mark.parametrize("driver", ["frontier", "sequential"])
    def test_tdd_backward_ladder(self, driver):
        qts = models.build_model("qrw", 5)
        trace = reachable_space(qts, method="contraction", k1=4, k2=4,
                                direction="backward", driver=driver)
        assert trace.converged
        assert trace.dimensions == QRW5_BACKWARD_LADDER
        forward = reachable_space(qts, method="contraction", k1=4, k2=4,
                                  driver=driver)
        assert forward.dimensions == QRW5_FORWARD_LADDER

    @pytest.mark.parametrize("driver", ["frontier", "sequential"])
    def test_dense_backward_ladder(self, driver):
        trace = DenseStatevectorBackend().reachable(
            models.build_model("qrw", 5), direction="backward",
            driver=driver)
        assert trace.converged
        assert trace.dimensions == QRW5_BACKWARD_LADDER


class TestSinglePassJoin:
    """One Gram-Schmidt step per image state, straight into ``S_k``."""

    @pytest.mark.parametrize("driver", ["frontier", "sequential"])
    def test_one_add_state_per_image_state(self, monkeypatch, driver):
        calls = []
        add_state = Subspace.add_state

        def counting(self, state, *args, **kwargs):
            calls.append(state)
            return add_state(self, state, *args, **kwargs)

        monkeypatch.setattr(Subspace, "add_state", counting)
        qts = models.qrw_qts(4, 0.2)
        branches = len(qts.all_kraus_circuits())
        fixpoint = make_driver(driver)
        rounds = 0
        engine = ImageEngine(qts, "basic")
        current = qts.initial
        source = len(current.basis)
        fixpoint.begin(engine, current)
        while True:
            basis_before = list(current.basis)
            calls.clear()
            grown = fixpoint.advance(engine, current, StatsRecorder())
            rounds += 1
            # basic images every source state once per Kraus branch
            assert len(calls) == source * branches
            # the accumulator is grown in a copy, never in place
            assert current.basis == basis_before
            # frontier soundness: the old basis is the exact prefix
            assert all(kept is original for kept, original
                       in zip(grown.basis, current.basis))
            assert len(grown.basis) >= len(current.basis)
            if grown.dimension == current.dimension:
                break
            fixpoint.observe(engine, current, grown)
            growth = grown.dimension - current.dimension
            source = (growth if driver == "frontier"
                      else grown.dimension)
            current = grown
        assert rounds > 2
        assert current.dimension == 16


class TestDirectionValidationSinglePoint:
    def test_engine_rejects_unknown_direction(self):
        with pytest.raises(ReproError, match="unknown direction"):
            ImageEngine(models.ghz_qts(2), "basic", direction="sideways")

    def test_reachable_space_propagates_engine_error(self):
        with pytest.raises(ReproError, match="unknown direction"):
            reachable_space(models.ghz_qts(2), method="basic",
                            direction="sideways")

    def test_dense_backend_same_message(self):
        with pytest.raises(ReproError, match="unknown direction"):
            DenseStatevectorBackend().reachable(models.ghz_qts(2),
                                                direction="sideways")


class TestReachabilityTraceRepr:
    def test_repr_fields(self):
        trace = reachable_space(models.qrw_qts(3, 0.2), method="basic")
        text = repr(trace)
        assert f"dim={trace.dimension}" in text
        assert f"iterations={trace.iterations}" in text
        assert "converged=True" in text
        assert "direction='forward'" in text

    def test_dimensions_delta(self):
        trace = reachable_space(models.qrw_qts(3, 0.2), method="basic")
        assert len(trace.dimensions_delta) == trace.iterations
        assert all(delta >= 0 for delta in trace.dimensions_delta)
        assert trace.dimensions[0] + sum(trace.dimensions_delta) == \
            trace.dimension


class TestReachabilityCache:
    def test_system_fingerprint_stable_across_rebuilds(self):
        assert system_fingerprint(models.grover_qts(3)) == \
            system_fingerprint(models.grover_qts(3))
        assert system_fingerprint(models.grover_qts(3)) != \
            system_fingerprint(models.grover_qts(4))

    def test_subspace_fingerprint_tracks_content(self):
        qts = models.ghz_qts(3)
        other = models.ghz_qts(3)
        assert subspace_fingerprint(qts.initial) == \
            subspace_fingerprint(other.initial)
        other.set_initial_basis_states([[1, 1, 1]])
        assert subspace_fingerprint(qts.initial) != \
            subspace_fingerprint(other.initial)

    def test_store_and_lookup_across_managers(self):
        cache = ReachabilityCache()
        first = models.qrw_qts(3, 0.2)
        trace = reachable_space(first, method="basic")
        cache.store(first, first.initial, "forward", 0, trace)
        rebuilt = models.qrw_qts(3, 0.2)
        warm = cache.lookup(rebuilt, rebuilt.initial)
        assert warm is not None
        assert warm.space is rebuilt.space
        assert subspace_to_dense(warm).equals(
            subspace_to_dense(trace.subspace))

    def test_lookup_misses_on_different_key(self):
        cache = ReachabilityCache()
        qts = models.qrw_qts(3, 0.2)
        trace = reachable_space(qts, method="basic")
        cache.store(qts, qts.initial, "forward", 0, trace)
        assert cache.lookup(qts, qts.initial, direction="backward") is None
        assert cache.lookup(qts, qts.initial, bound=2) is None
        assert cache.lookup(models.ghz_qts(3),
                            models.ghz_qts(3).initial) is None

    def test_bounded_and_unconverged_runs_not_stored(self):
        cache = ReachabilityCache()
        qts = models.qrw_qts(3, 0.2)
        bounded = reachable_space(qts, method="basic", bound=1)
        cache.store(qts, qts.initial, "forward", 1, bounded)
        truncated = reachable_space(qts, method="basic", max_iterations=1)
        cache.store(qts, qts.initial, "forward", 0, truncated)
        assert len(cache) == 0

    def test_warm_start_collapses_iterations(self):
        cold = reachable_space(models.qrw_qts(3, 0.2), method="basic")
        assert cold.iterations > 1
        qts = models.qrw_qts(3, 0.2)
        cache = ReachabilityCache()
        cache.store(qts, qts.initial, "forward", 0, cold)
        warm_space = cache.lookup(qts, qts.initial)
        warm = reachable_space(qts, method="contraction", k1=2, k2=2,
                               warm_start=warm_space)
        assert warm.iterations == 1
        assert warm.converged
        assert warm.dimension == cold.dimension
        assert subspace_to_dense(warm.subspace).equals(
            subspace_to_dense(cold.subspace))

    def test_check_with_cache_marks_warm_rows(self):
        cache = ReachabilityCache()
        cold = ModelChecker(models.grover_qts(3),
                            CheckerConfig(method="basic")).check(
            "AG inv", reach_cache=cache)
        warm = ModelChecker(models.grover_qts(3),
                            CheckerConfig(method="contraction",
                                          method_params={"k1": 2,
                                                         "k2": 2})).check(
            "AG inv", reach_cache=cache)
        assert cold.stats.extra["cache_warm"] is False
        assert warm.stats.extra["cache_warm"] is True
        assert warm.holds == cold.holds
        assert warm.reachable_dimension == cold.reachable_dimension

    def test_backward_check_warm_start(self):
        cache = ReachabilityCache()
        config = CheckerConfig(method="basic", direction="backward")
        cold = ModelChecker(models.grover_qts(3), config).check(
            "AG plus", reach_cache=cache)
        warm = ModelChecker(
            models.grover_qts(3),
            CheckerConfig(method="contraction",
                          method_params={"k1": 2, "k2": 2},
                          direction="backward")).check(
            "AG plus", reach_cache=cache)
        assert cold.stats.extra["cache_warm"] is False
        assert warm.stats.extra["cache_warm"] is True
        assert warm.verdict == cold.verdict

    def test_bounded_specs_bypass_the_cache(self):
        cache = ReachabilityCache()
        config = CheckerConfig(method="basic")
        ModelChecker(models.qrw_qts(3, 0.2), config).check(
            "EF[<=2] start", reach_cache=cache)
        assert len(cache) == 0

    def test_bounded_trace_cannot_launder_into_unbounded_key(self):
        # regression: store() used to trust the caller's ``bound``
        # argument alone, so a depth-limited trace handed over with
        # bound=0 landed under the unbounded key — and later seeded
        # unbounded fixpoints with a non-closed subspace.  The guard
        # must judge the *trace* (trace.bound), not the caller.
        cache = ReachabilityCache()
        qts = models.qrw_qts(3, 0.2)
        bounded = reachable_space(qts, method="basic", bound=1)
        assert bounded.bound == 1
        cache.store(qts, qts.initial, "forward", 0, bounded)
        assert len(cache) == 0
        assert cache.lookup(qts, qts.initial) is None

    def test_bounded_query_never_consumes_unbounded_entry(self):
        # the bound is part of the key: a depth-limited query must not
        # be served the saturated reachable space (it would overshoot)
        cache = ReachabilityCache()
        qts = models.qrw_qts(3, 0.2)
        trace = reachable_space(qts, method="basic")
        cache.store(qts, qts.initial, "forward", 0, trace)
        assert len(cache) == 1
        assert cache.lookup(qts, qts.initial, bound=1) is None
        assert cache.lookup(qts, qts.initial, bound=0) is not None

    def test_bounded_check_neither_pollutes_nor_consumes(self):
        # end-to-end over check(): an AG[<=k] run against a cache that
        # already holds the unbounded entry must not touch it at all
        cache = ReachabilityCache()
        config = CheckerConfig(method="basic")
        ModelChecker(models.qrw_qts(3, 0.2), config).check(
            "AG start", reach_cache=cache)
        assert len(cache) == 1
        hits_before = cache.hits
        bounded = ModelChecker(models.qrw_qts(3, 0.2), config).check(
            "AG[<=1] start", reach_cache=cache)
        assert "cache_warm" not in bounded.stats.extra
        assert len(cache) == 1
        assert cache.hits == hits_before

    def test_warm_rows_attribute_their_source(self):
        assert ReachabilityCache.source == "memory"
        cache = ReachabilityCache()
        config = CheckerConfig(method="basic")
        cold = ModelChecker(models.grover_qts(3), config).check(
            "AG inv", reach_cache=cache)
        warm = ModelChecker(models.grover_qts(3), config).check(
            "AG inv", reach_cache=cache)
        assert "cache_source" not in cold.stats.extra
        assert warm.stats.extra["cache_source"] == "memory"
