"""Counterexample witness traces for temporal specifications.

A verdict alone ("AG inv is violated") tells an engineer *that* the
system misbehaves, not *how*.  This module turns a failed ``AG`` (or a
satisfied ``EF``) into an executable counterexample: a concrete path of
operation symbols ``sigma_1 ... sigma_k`` together with the
intermediate subspaces it traverses, such that replaying the
operations *forward* from the initial space reproduces the violation
(or reaches the target).

The construction is the standard symbolic-model-checking one, adapted
to subspaces:

1. **Layering.**  Re-run the forward fixpoint keeping every layer
   ``S_0 <= S_1 <= ...`` and stop at the first layer ``S_k`` whose
   basis exposes the violation (a direction escaping ``[[phi]]`` for
   ``AG``, a component inside it for ``EF``).  That direction is the
   *seed* state ``v_k``.
2. **Backward walk.**  For ``i = k .. 1`` find an operation ``sigma``
   and a Kraus circuit ``E`` with ``P_{S_{i-1}} E^dagger v_i != 0`` —
   by ``<v_i|E|u> = <E^dagger v_i|u>`` that projection *is* a
   predecessor state ``v_{i-1}`` in the previous layer whose image
   under ``sigma`` overlaps ``v_i``.  The adjoint Kraus circuits come
   from :meth:`~repro.systems.operations.QuantumOperation.adjoint`.
3. **Forward replay.**  Starting from ``span{v_0} <= S_0``, apply the
   recorded operations in order and check the final subspace really
   exhibits the violation/overlap — the trace is only reported
   ``valid`` when the replay confirms it.

Everything here runs on the shared TDD subspace machinery (both
checker backends return the same TDD-backed subspaces), so the same
spec yields the *same* trace — symbols, length, subspace dimensions —
whichever backend produced the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.image.basic import BasicImageComputer
from repro.subspace.subspace import Subspace
from repro.systems.qts import QuantumTransitionSystem
from repro.tdd.tdd import TDD
from repro.utils.stats import StatsRecorder


@dataclass
class WitnessTrace:
    """A concrete counterexample path with its replay validation.

    ``symbols[i]`` is the operation applied between ``subspaces[i]``
    and ``subspaces[i + 1]``; ``states`` are the single backward-walk
    states ``v_0 .. v_k`` (one ray per step), while ``subspaces`` are
    the forward-replay spans (an operation with several Kraus branches
    can fan a ray out into a higher-dimensional subspace).  ``valid``
    is True iff the forward replay reproduced the violation (``AG``)
    or the target overlap (``EF``).
    """

    kind: str                       # "AG" | "EF"
    symbols: List[str] = field(default_factory=list)
    states: List[TDD] = field(default_factory=list)
    subspaces: List[Subspace] = field(default_factory=list)
    valid: bool = False

    @property
    def length(self) -> int:
        return len(self.symbols)

    def as_dict(self) -> dict:
        """The flat trace columns of ``CheckResult.as_dict``."""
        return {"trace_length": self.length,
                "trace_symbols": ";".join(self.symbols),
                "trace_valid": self.valid,
                "trace_dimensions": [s.dimension for s in self.subspaces]}

    def __repr__(self) -> str:
        path = " -> ".join(self.symbols) if self.symbols else "<initial>"
        status = "valid" if self.valid else "INVALID"
        return f"WitnessTrace({self.kind}: {path}, {status})"


def _seed_in_vectors(vectors, target: Subspace, kind: str,
                     tol: float) -> Optional[TDD]:
    """The violating/overlapping direction exposed by basis vectors.

    For ``AG`` the seed is the (normalised) residual of a basis vector
    outside the target; for ``EF`` its projection into the target.
    ``None`` when no vector exposes anything above ``tol``.
    """
    for vector in vectors:
        projected = target.project_state(vector)
        component = projected if kind == "EF" else vector - projected
        norm = component.norm()
        if norm > tol:
            return component.scaled(1.0 / norm)
    return None


def _trace_condition(subspace: Subspace, target: Subspace, kind: str,
                     tol: float) -> bool:
    """Does the final replay subspace reproduce the verdict?"""
    return _seed_in_vectors(subspace.basis, target, kind, tol) is not None


def extract_witness_trace(qts: QuantumTransitionSystem,
                          kind: str,
                          target: Subspace,
                          initial: Optional[Subspace] = None,
                          tol: float = 1e-7,
                          bound: int = 0) -> Optional[WitnessTrace]:
    """Build a counterexample trace for a violated ``AG`` / holding ``EF``.

    ``target`` is the denoted subspace ``[[phi]]`` of the spec body;
    ``kind`` selects what counts as the event ("AG": a reachable
    direction escapes the target, "EF": a reachable direction overlaps
    it).  ``bound`` limits the layering depth exactly like the bounded
    operators (0 = saturation).  Returns ``None`` when no event is
    reachable — i.e. when the corresponding verdict would not call for
    a trace in the first place.
    """
    # one basic-method computer applies every Kraus circuit, adjoint
    # ones included (the adjoint system shares qts's manager and space),
    # building each monolithic operator once and sharing it between the
    # layering, the backward walk and the replay
    computer = BasicImageComputer(qts)
    stats = StatsRecorder()
    start = initial if initial is not None else qts.initial

    # 1. forward layering up to the first event (or saturation) — only
    # the frontier (basis vectors added in the previous round) needs
    # re-imaging, since layers are cumulative, Subspace.join keeps the
    # existing basis as an untouched prefix, and the image operator
    # distributes over joins
    layers: List[Subspace] = [start]
    seed = _seed_in_vectors(start.basis, target, kind, tol)
    limit = bound if bound > 0 else 2 ** qts.num_qubits
    frontier_start = 0
    while seed is None:
        if len(layers) > limit:
            return None
        current = layers[-1]
        grown = current.copy()
        frontier = current.basis[frontier_start:]
        for op in qts.operations:
            for circuit in op.kraus_circuits:
                for vector in frontier:
                    grown.add_state(computer.apply(circuit, vector, stats))
        if grown.dimension == current.dimension:
            return None  # saturated without the event: nothing to show
        frontier_start = current.dimension
        layers.append(grown)
        # pre-frontier vectors were already checked in earlier rounds
        seed = _seed_in_vectors(grown.basis[frontier_start:], target,
                                kind, tol)

    # 2. backward walk: predecessors through the adjoint Kraus family
    k = len(layers) - 1
    states: List[Optional[TDD]] = [None] * k + [seed]
    symbols: List[str] = [""] * k
    for i in range(k, 0, -1):
        best: Optional[Tuple[float, TDD, str]] = None
        for op in qts.operations:
            for circuit in op.adjoint().kraus_circuits:
                pulled = computer.apply(circuit, states[i], stats)
                if pulled.norm() <= tol:
                    continue
                predecessor = layers[i - 1].project_state(pulled)
                norm = predecessor.norm()
                if norm > tol and (best is None or norm > best[0]):
                    best = (norm, predecessor.scaled(1.0 / norm),
                            op.symbol)
        if best is None:
            # no Kraus pull-back meets the previous layer: the event
            # first appeared at layer k, so this is only reachable
            # through tolerance corner cases — report "no trace"
            # rather than a path the replay would reject
            return None
        states[i - 1] = best[1]
        symbols[i - 1] = best[2]

    # 3. forward replay validates the path
    replay = qts.space.span([states[0]])
    subspaces = [replay]
    for symbol in symbols:
        op = qts.operation(symbol)
        step = qts.space.span(
            [computer.apply(circuit, vector, stats)
             for circuit in op.kraus_circuits
             for vector in replay.basis])
        subspaces.append(step)
        replay = step
    valid = _trace_condition(replay, target, kind, tol)
    return WitnessTrace(kind=kind, symbols=symbols,
                        states=[s for s in states if s is not None],
                        subspaces=subspaces, valid=valid)
