"""Warm-started fixpoints: a store hit costs less than a cold run.

``reachable_space(warm_start=W)`` joins the seed into the stored space
``W``, so ``W``'s basis is the prefix of the result and the confirming
round images each stored vector once.  A round that starts from the
whole space is recorded but not run, since no image can leave it.
"""

import pytest

from repro.mc.checker import ModelChecker
from repro.mc.config import CheckerConfig
from repro.mc.drivers import FrontierDriver
from repro.mc.reachability import ReachabilityCache, reachable_space
from repro.systems import models


def cached(qts, seed, direction):
    """A cache holding the cold fixpoint from ``seed``, and that run."""
    cache = ReachabilityCache()
    cold = reachable_space(qts, method="basic", initial=seed,
                           direction=direction)
    cache.store(qts, seed, direction, 0, cold)
    return cache, cold


class TestWarmStart:
    def test_whole_space_hit_images_nothing(self):
        qts = models.grover_qts(4)
        seed = qts.initial.complement()  # the backward seed of AG init
        cache, cold = cached(qts, seed, "backward")
        assert cold.dimension == 16
        warm = reachable_space(qts, method="basic", initial=seed,
                               direction="backward",
                               warm_start=cache.lookup(qts, seed,
                                                       "backward"))
        assert warm.stats.contractions == 0
        assert warm.stats.join_offered == 0
        assert warm.dimensions == [16, 16]
        assert warm.iterations == 1
        assert warm.converged

    def test_partial_space_hit_images_each_stored_vector_once(self):
        qts = models.ghz_qts(3)
        cache, cold = cached(qts, qts.initial, "forward")
        assert 1 < cold.dimension < 8
        stored = cache.lookup(qts, qts.initial)
        warm = reachable_space(qts, method="basic", warm_start=stored)
        branches = len(qts.all_kraus_circuits())
        assert warm.stats.contractions == cold.dimension * branches
        assert warm.stats.join_offered == cold.dimension * branches
        assert warm.stats.join_rejected == warm.stats.join_offered
        assert warm.dimensions == [cold.dimension, cold.dimension]
        assert warm.iterations == 1
        assert all(kept is original for kept, original
                   in zip(warm.subspace.basis, stored.basis))
        assert warm.subspace.contains(cold.subspace)


class TestWholeSpaceRound:
    def test_round_from_the_whole_space_is_recorded_not_run(
            self, monkeypatch):
        rounds = []
        advance = FrontierDriver.advance

        def counting(self, engine, current, stats):
            rounds.append(current.dimension)
            return advance(self, engine, current, stats)

        monkeypatch.setattr(FrontierDriver, "advance", counting)
        qts = models.grover_qts(4)
        trace = reachable_space(qts, method="basic",
                                initial=qts.initial.complement(),
                                direction="backward")
        assert rounds == [15]
        assert trace.dimensions == [15, 16, 16]
        assert trace.iterations == 2
        assert trace.converged


GRID = [(model, size, direction)
        for model in ("grover", "ghz", "qrw", "bv")
        for size in (3, 4)
        for direction in ("forward", "backward")]


@pytest.mark.parametrize("model,size,direction", GRID)
def test_cold_and_warm_checks_agree(model, size, direction):
    cache = ReachabilityCache()
    config = CheckerConfig(direction=direction)
    cold = ModelChecker(models.build_model(model, size), config).check(
        "AG init", reach_cache=cache)
    warm = ModelChecker(models.build_model(model, size), config).check(
        "AG init", reach_cache=cache)
    assert cold.stats.extra["cache_warm"] is False
    assert warm.stats.extra["cache_warm"] is True
    assert warm.verdict == cold.verdict
    assert warm.reachable_dimension == cold.reachable_dimension
    assert warm.iterations == 1
