"""Fixpoint drivers: the two schedules of ``S_{k+1} = S_k v T(S_k)``.

The reachability fixpoint has two independent halves: the image
*kernel* (how one ``T(S)`` is computed — the image method, see
:mod:`repro.image`) and the fixpoint *schedule* (which states each
round images).  A :class:`FixpointDriver` owns the schedule;
:func:`~repro.mc.reachability.reachable_space` is a thin façade that
builds the engine, picks a driver and delegates the loop.  Two drivers
ship:

* ``frontier`` (the default) — each round images only the basis
  vectors added by the previous round (sound because the image
  distributes over joins, Proposition 1) and Gram-Schmidts every image
  state straight into the accumulator:
  ``S_{k+1} = partial_image(F_k, circuits, into=S_k)``.
* ``sequential`` — the definitional round: the whole of ``S_k`` is
  re-imaged and joined into the accumulator the same way,
  ``partial_image(S_k, circuits, into=S_k)``.  It is the reference
  the frontier schedule is tested against.

Each image state costs exactly one Gram-Schmidt step, against the
accumulator, and the grown basis keeps ``S_k``'s vectors as its
prefix; the frontier of the next round is the plain list of the
vectors appended after that prefix.  In backward mode the circuits
come from ``engine.computer.qts`` — the adjoint system the engine
built — never from ``engine.qts``, the forward one.

Both drivers compute the same dimension ladder and the same reachable
subspace (mutual containment); they differ in how many states each
round images, so Gram-Schmidt bases — not the spanned spaces — may
differ.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import ReproError
from repro.image.engine import ImageEngine
from repro.subspace.subspace import Subspace
from repro.tdd.tdd import TDD
from repro.utils.stats import StatsRecorder

#: the available fixpoint schedules
DRIVERS = ("sequential", "frontier")

#: the driver every config/CLI surface defaults to
DEFAULT_DRIVER = "frontier"


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


class OpShardedDriver(SequentialDriver):
    """The retired ``opsharded`` name; not a selectable schedule.

    It is not in :data:`DRIVERS` and nothing constructs it.  The
    benchmark's span recorder (``perfbench/tracing.py``) still lists
    ``OpShardedDriver.advance`` among its ``mc.advance`` targets, and
    the benchmark self-test requires every target to resolve; delete
    this class together with that target.
    """

    advance = SequentialDriver.advance


_DRIVER_CLASSES = {cls.name: cls for cls in
                   (SequentialDriver, FrontierDriver)}


def make_driver(name: str) -> FixpointDriver:
    """Instantiate a fixpoint driver by name."""
    try:
        return _DRIVER_CLASSES[name]()
    except KeyError:
        raise ReproError(f"unknown driver {name!r}; "
                         f"choose from {DRIVERS}") from None

