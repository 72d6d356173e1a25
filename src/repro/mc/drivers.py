"""Fixpoint drivers: pluggable schedules for ``S_{k+1} = S_k v T(S_k)``.

The reachability fixpoint has two independent halves: the image
*kernel* (how one ``T(S)`` is computed — method × execution strategy,
see :mod:`repro.image`) and the fixpoint *schedule* (what work each
round issues and how partial results recombine).  A
:class:`FixpointDriver` owns the schedule; :func:`~repro.mc.
reachability.reachable_space` is a thin façade that builds the engine,
picks a driver and delegates the loop.  Three drivers ship:

* ``frontier`` (the default) — each round images only the basis
  vectors added by the previous round (sound because the image
  distributes over joins, Proposition 1) and Gram-Schmidts every image
  state straight into the accumulator:
  ``S_{k+1} = partial_image(F_k, circuits, into=S_k)``.
* ``sequential`` — the classic round: the whole of ``S_k`` is
  re-imaged and joined into the accumulator the same way,
  ``partial_image(S_k, circuits, into=S_k)``.
* ``opsharded`` — each round fans out one
  :class:`~repro.image.engine.ImageTask` per operation (the engine's
  per-operation task API) and recombines the accumulator with the
  partial images through a balanced *tree-reduce of joins*.  Task
  contractions run through the engine's executor, so the sliced
  strategy's cofactor decomposition — and its worker pool — are shared
  between slicing and sharding rather than duplicated per shard.

Under ``frontier`` and ``sequential`` each image state costs exactly
one Gram-Schmidt step, against the accumulator, and the grown basis
keeps ``S_k``'s vectors as its prefix; the frontier of the next round
is the plain list of the vectors appended after that prefix.  In
backward mode the circuits come from ``engine.computer.qts`` — the
adjoint system the engine built — never from ``engine.qts``, the
forward one.

Every driver computes the same reachable subspace (same dimension,
mutual containment); they differ in work granularity and combine
order, so Gram-Schmidt bases — not the spanned spaces — may differ.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import ReproError
from repro.image.engine import ImageEngine
from repro.subspace.subspace import Subspace
from repro.tdd.tdd import TDD
from repro.utils.stats import StatsRecorder

#: the available fixpoint schedules
DRIVERS = ("sequential", "opsharded", "frontier")

#: the driver every config/CLI surface defaults to
DEFAULT_DRIVER = "frontier"


def tree_join(subspaces: Sequence[Subspace]) -> Subspace:
    """Join subspaces pairwise, halving the list each pass.

    The balanced combine keeps each intermediate join small (the
    Gram-Schmidt cost of ``a.join(b)`` is linear in ``dim b`` against
    the accumulated projector of ``a``) instead of funnelling every
    partial image through one ever-growing accumulator.
    """
    items: List[Subspace] = list(subspaces)
    if not items:
        raise ReproError("tree_join needs at least one subspace")
    while len(items) > 1:
        paired = []
        for i in range(0, len(items) - 1, 2):
            paired.append(items[i].join(items[i + 1]))
        if len(items) % 2:
            paired.append(items[-1])
        items = paired
    return items[0]


class FixpointDriver:
    """One fixpoint schedule; subclasses implement :meth:`advance`.

    The shared :meth:`run` loop owns iteration accounting, convergence
    detection and between-round garbage collection, and skips
    :meth:`advance` on a round that starts from the whole space.  It
    mutates the :class:`~repro.mc.reachability.ReachabilityTrace`
    handed in by the façade (subspace, dimensions, iterations,
    converged).
    """

    name = "abstract"

    # ------------------------------------------------------------------
    # schedule hooks
    # ------------------------------------------------------------------
    def begin(self, engine: ImageEngine, initial: Subspace) -> None:
        """Reset per-run state (frontier bookkeeping etc.)."""

    def advance(self, engine: ImageEngine, current: Subspace,
                stats: StatsRecorder) -> Subspace:
        """One fixpoint round: return ``current v T(source)``."""
        raise NotImplementedError

    def observe(self, engine: ImageEngine, previous: Subspace,
                grown: Subspace) -> None:
        """Called after a growing round, before the next one."""

    # ------------------------------------------------------------------
    def run(self, engine: ImageEngine, trace, limit: int,
            gc: bool = True) -> None:
        """Drive ``trace.subspace`` to the fixpoint (or the limit)."""
        current = trace.subspace
        manager = engine.qts.manager
        self.begin(engine, current)
        for _ in range(limit):
            # no image leaves the whole space: the round is recorded
            # (the ladder and iteration count stay the same) but not run
            grown = (current if current.is_full()
                     else self.advance(engine, current, trace.stats))
            trace.iterations += 1
            trace.dimensions.append(grown.dimension)
            if grown.dimension == current.dimension:
                trace.subspace = grown
                break
            self.observe(engine, current, grown)
            current = grown
            trace.subspace = grown
            if gc:
                manager.collect()
        else:
            trace.converged = False

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def join_image(engine: ImageEngine, source: Sequence[TDD],
               current: Subspace, stats: StatsRecorder) -> Subspace:
    """``current v T(source)``: one Gram-Schmidt step per image state.

    The circuits come from the engine's computer, whose system is the
    adjoint one in backward mode.
    """
    computer = engine.computer
    return computer.partial_image(source, computer.qts.all_kraus_circuits(),
                                  stats, into=current).subspace


class SequentialDriver(FixpointDriver):
    """The classic schedule: re-image the whole of ``S_k`` every round."""

    name = "sequential"

    def advance(self, engine: ImageEngine, current: Subspace,
                stats: StatsRecorder) -> Subspace:
        return join_image(engine, current.basis, current, stats)


class OpShardedDriver(FixpointDriver):
    """Per-operation sharding with a tree-reduce of joins.

    Each round asks the engine for its per-operation
    :class:`~repro.image.engine.ImageTask` list, runs every task (its
    contractions go through the one shared executor, so the sliced
    strategy's pool serves the shards too), and tree-reduces
    ``[S_k, T_sigma1(S_k), T_sigma2(S_k), ...]`` into ``S_{k+1}``.
    """

    name = "opsharded"

    def advance(self, engine: ImageEngine, current: Subspace,
                stats: StatsRecorder) -> Subspace:
        partials = [task.run(stats).subspace
                    for task in engine.image_tasks(current)]
        stats.extra["shards"] = (stats.extra.get("shards", 0)
                                 + len(partials))
        return tree_join([current] + partials)


class FrontierDriver(FixpointDriver):
    """Image only the directions added by the previous round."""

    name = "frontier"

    def __init__(self) -> None:
        self._frontier: List[TDD] = []

    def begin(self, engine: ImageEngine, initial: Subspace) -> None:
        self._frontier = list(initial.basis)

    def advance(self, engine: ImageEngine, current: Subspace,
                stats: StatsRecorder) -> Subspace:
        return join_image(engine, self._frontier, current, stats)

    def observe(self, engine: ImageEngine, previous: Subspace,
                grown: Subspace) -> None:
        # the new frontier: the basis vectors Gram-Schmidt appended
        # after the previous space's basis (orthonormal and orthogonal
        # to it by construction of Subspace.add_state)
        self._frontier = grown.basis[previous.dimension:]


_DRIVER_CLASSES = {cls.name: cls for cls in
                   (SequentialDriver, OpShardedDriver, FrontierDriver)}


def make_driver(name: str) -> FixpointDriver:
    """Instantiate a fixpoint driver by name."""
    try:
        return _DRIVER_CLASSES[name]()
    except KeyError:
        raise ReproError(f"unknown driver {name!r}; "
                         f"choose from {DRIVERS}") from None


def resolve_driver(driver: Optional[str], frontier: bool) -> str:
    """Fold the legacy ``frontier`` flag into a driver name.

    An unset driver resolves to :data:`DEFAULT_DRIVER` (``frontier``).
    ``frontier=True`` is shorthand for the frontier driver; next to an
    explicit different driver it is rejected as contradictory.
    """
    if driver is None:
        return "frontier" if frontier else DEFAULT_DRIVER
    if frontier and driver != "frontier":
        raise ReproError(
            f"frontier=True is the frontier driver; it cannot be "
            f"combined with driver={driver!r}")
    return driver
