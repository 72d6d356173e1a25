"""Reachability analysis by repeated image computation.

The reachable space of a QTS is the least subspace containing ``S0``
and closed under every operation:  ``R = lub_k S_k`` with
``S_{k+1} = S_k v T(S_k)``.  Dimensions are integers bounded by
``2^n``, so the iteration terminates as soon as the dimension stops
growing — the standard symbolic-model-checking fixpoint with joins in
place of unions (paper, Sections I and III).

:func:`reachable_space` is a thin façade: it builds the
:class:`~repro.image.engine.ImageEngine`, picks a fixpoint *driver*
(:mod:`repro.mc.drivers` — ``sequential`` / ``frontier``) and
delegates the loop, keeping only the bookkeeping
(trace, stopwatch, GC baseline) here.
:class:`ReachabilityCache` lets batch runners warm-start a fixpoint
from a previously computed reachable space when only the image method
or the driver changed — the reachable subspace itself is
method-independent.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ReproError
from repro.image.engine import ImageEngine
from repro.mc.drivers import DEFAULT_DRIVER, make_driver
from repro.subspace.subspace import Subspace
from repro.systems.qts import QuantumTransitionSystem
from repro.tdd.io import from_dict, payload_digest, to_dict
from repro.utils.stats import StatsRecorder
from repro.utils.timing import Stopwatch


@dataclass
class ReachabilityTrace:
    """The fixpoint iteration record."""

    subspace: Subspace
    dimensions: List[int] = field(default_factory=list)
    iterations: int = 0
    stats: StatsRecorder = field(default_factory=StatsRecorder)
    converged: bool = True
    direction: str = "forward"
    bound: int = 0

    @property
    def dimension(self) -> int:
        return self.subspace.dimension

    @property
    def dimensions_delta(self) -> List[int]:
        """Per-round dimension growth (one entry per iteration)."""
        return [b - a for a, b in zip(self.dimensions,
                                      self.dimensions[1:])]

    def __repr__(self) -> str:
        return (f"ReachabilityTrace(dim={self.dimension}, "
                f"iterations={self.iterations}, "
                f"converged={self.converged}, "
                f"direction={self.direction!r})")


def reachable_space(qts: QuantumTransitionSystem,
                    method: str = "contraction",
                    initial: Optional[Subspace] = None,
                    max_iterations: int = 0,
                    gc: bool = True,
                    direction: str = "forward",
                    bound: int = 0,
                    driver: str = DEFAULT_DRIVER,
                    warm_start: Optional[Subspace] = None,
                    **params) -> ReachabilityTrace:
    """Compute the reachable subspace of ``qts``.

    ``max_iterations`` bounds the fixpoint loop (0 = until the
    dimension saturates, which needs at most ``2^n`` rounds).  The
    image computer (and therefore its cached transition TDDs) is
    reused across iterations.

    ``driver`` selects the fixpoint schedule (see
    :mod:`repro.mc.drivers`): ``frontier`` (the default; each round
    images only the directions the previous round added) or
    ``sequential`` (each round re-images the whole of ``S_k``).  Both
    Gram-Schmidt every image state once, straight into the
    accumulator.

    ``direction="backward"`` runs the same fixpoint against the
    *adjoint* transition relation (cached Kraus-dagger operator TDDs,
    see :meth:`~repro.systems.qts.QuantumTransitionSystem.adjoint`):
    the result is the space of states that can *reach* ``initial``,
    the standard symbolic-model-checking complement of forward
    reachability.  All four methods and both drivers apply unchanged.  Direction validation happens once,
    in the :class:`~repro.image.engine.ImageEngine`; an unknown
    direction propagates from there as a :class:`ReproError`.

    ``bound`` is the depth limit of bounded analysis: a positive value
    stops after at most ``bound`` image steps (so the result is the
    space reachable within ``bound`` transitions) and takes precedence
    over ``max_iterations``.

    ``warm_start`` seeds the fixpoint with an extra subspace: the
    seed ``initial`` is joined *into* it before the first round, so
    its basis is the prefix of the result's and a seed that already
    lies inside costs one rejected Gram-Schmidt step per vector.
    Seeding with a previously computed reachable space of the *same*
    fixpoint (see :class:`ReachabilityCache`) collapses the iteration
    ladder to a single confirming round, which images each stored
    vector once (and none when the stored space is the whole space,
    see :meth:`~repro.mc.drivers.FixpointDriver.run`); soundness
    requires the warm start to lie inside the true reachable space,
    which the cache's exact keying guarantees.

    ``gc=True`` (the default) runs the manager's mark-and-sweep between
    iterations: the accumulated subspace, the frontier and the
    computer's cached operator TDDs stay pinned (they are live
    handles), while the intermediate diagrams of the finished round are
    reclaimed — this is what keeps the live-node population flat over
    long fixpoints.  The trace stats report the cache hit/miss deltas
    and GC activity of the whole run.
    """
    fixpoint = make_driver(driver)
    engine = ImageEngine(qts, method, direction=direction, **params)
    current = initial if initial is not None else qts.initial
    if current.dimension == 0:
        raise ReproError("reachability from the zero subspace is trivial; "
                         "set an initial space first")
    if warm_start is not None:
        # the seed joins into the stored space: it normally lies inside,
        # so the stored basis stays the prefix and each seed vector costs
        # one rejected Gram-Schmidt step (none on the whole space)
        current = warm_start.join(current)
    trace = ReachabilityTrace(subspace=current,
                              dimensions=[current.dimension],
                              direction=direction, bound=bound)
    if direction != "forward":
        trace.stats.extra["direction"] = direction
    if driver != DEFAULT_DRIVER:
        trace.stats.extra["driver"] = driver
    limit = max_iterations if max_iterations > 0 else 2 ** qts.num_qubits
    if bound > 0:
        limit = min(limit, bound)
    manager = qts.manager
    baseline = manager.cache_counters()
    watch = Stopwatch().start()
    fixpoint.run(engine, trace, limit, gc=gc)
    trace.stats.seconds = watch.stop()
    if gc:
        manager.collect()
    trace.stats.record_manager(manager, baseline)
    return trace


# ----------------------------------------------------------------------
# warm-start cache
# ----------------------------------------------------------------------
def admissible(trace: ReachabilityTrace, bound: int) -> bool:
    """May ``trace`` be stored as a reachable space for reuse?

    Only converged, unbounded fixpoints are.  The rule judges the
    trace (``trace.bound``/``trace.converged``) as well as the
    caller's ``bound``: a bounded reachable set is not closed under
    the transition relation, so storing one under an unbounded key
    would later seed an unbounded fixpoint with unreachable
    directions — a wrong answer, not just a slow one.  Shared by
    :class:`ReachabilityCache` and :class:`~repro.store.ResultStore`.
    """
    return trace.converged and bound == 0 and trace.bound == 0


#: per-system memo: the operation list is fixed at construction, so
#: the hash over every gate matrix only ever needs computing once
_SYSTEM_FINGERPRINTS: "weakref.WeakKeyDictionary" = \
    weakref.WeakKeyDictionary()


def system_fingerprint(qts: QuantumTransitionSystem) -> str:
    """A content hash of the transition relation.

    Two QTS instances with the same qubit count and the same operation
    list (symbols, Kraus circuit gate sequences, gate matrices) have
    the same fingerprint even when they live in different managers —
    the property the :class:`ReachabilityCache` keys on.  Memoised per
    instance (a cache lookup-then-store pair must not hash every gate
    matrix twice); the memo is safe because a QTS's operations are
    immutable after construction.
    """
    cached = _SYSTEM_FINGERPRINTS.get(qts)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    digest.update(str(qts.num_qubits).encode())
    for op in qts.operations:
        digest.update(op.symbol.encode())
        for circuit in op.kraus_circuits:
            for gate in circuit.gates:
                digest.update(gate.name.encode())
                digest.update(repr((gate.targets, gate.controls,
                                    gate.control_states)).encode())
                digest.update(np.ascontiguousarray(gate.matrix).tobytes())
    fingerprint = digest.hexdigest()
    _SYSTEM_FINGERPRINTS[qts] = fingerprint
    return fingerprint


def subspace_fingerprint(subspace: Subspace) -> str:
    """A content hash of a subspace's orthonormal basis."""
    return payload_digest([to_dict(vector) for vector in subspace.basis])


class ReachabilityCache:
    """Reachable subspaces keyed by what actually determines them.

    The fixpoint result depends on the transition relation, the
    initial subspace, the analysis direction and the depth bound — not
    on the image method or the driver.  The
    cache stores basis vectors through the :mod:`repro.tdd.io` dict
    codec, so an entry computed in one manager warm-starts a run whose
    QTS was rebuilt from scratch (the batch-sweep shape: every run
    constructs its own system).

    Entries are only stored for *converged* unbounded runs — judged
    from the trace itself (``trace.bound``/``trace.converged``), not
    just the ``bound`` argument, so a depth-limited trace can never be
    laundered into the unbounded key space by a caller passing
    ``bound=0`` — and served only on an exact key match (the key
    includes the bound, so a bounded query never consumes an unbounded
    entry either).  A warm hit is a subspace the caller hands to
    :func:`reachable_space` as ``warm_start``; the fixpoint seed joins
    into it, so the hit costs one confirming round that images each
    stored vector once.  A cold cache is merely slow, never wrong.
    :meth:`lookup` re-spans the decoded basis, which re-checks its
    rank.

    The disk-backed :class:`~repro.store.ResultStore` implements the
    same ``lookup``/``store`` protocol with the same admission rule;
    ``source`` tells warm rows apart (``"memory"`` vs ``"disk"``).
    """

    source = "memory"

    def __init__(self) -> None:
        self._entries: Dict[tuple, List[dict]] = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(qts: QuantumTransitionSystem, initial: Subspace,
            direction: str, bound: int) -> tuple:
        return (system_fingerprint(qts), subspace_fingerprint(initial),
                direction, bound)

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    def lookup(self, qts: QuantumTransitionSystem, initial: Subspace,
               direction: str = "forward",
               bound: int = 0) -> Optional[Subspace]:
        """The cached reachable space, re-interned into ``qts``'s manager."""
        payloads = self._entries.get(self.key(qts, initial, direction,
                                              bound))
        if payloads is None:
            self.misses += 1
            return None
        self.hits += 1
        vectors = [from_dict(qts.manager, data) for data in payloads]
        return qts.space.span(vectors)

    def store(self, qts: QuantumTransitionSystem, initial: Subspace,
              direction: str, bound: int, trace: ReachabilityTrace) -> None:
        """Record a finished fixpoint if :func:`admissible` allows it."""
        if not admissible(trace, bound):
            return
        self._entries[self.key(qts, initial, direction, bound)] = \
            [to_dict(vector) for vector in trace.subspace.basis]

    def __repr__(self) -> str:
        return (f"ReachabilityCache(entries={len(self._entries)}, "
                f"hits={self.hits}, misses={self.misses})")
