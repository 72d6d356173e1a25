"""Shared plumbing for the image computation algorithms."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.image.sliced import MonolithicExecutor
from repro.indices.index import Index
from repro.subspace.subspace import StateSpace, Subspace
from repro.systems.qts import QuantumTransitionSystem
from repro.tdd.tdd import TDD
from repro.utils.stats import StatsRecorder


@dataclass
class ImageResult:
    """The outcome of one image computation: ``T(S)`` plus run costs."""

    subspace: Subspace
    stats: StatsRecorder

    @property
    def dimension(self) -> int:
        return self.subspace.dimension


def rename_outputs_to_kets(space: StateSpace, state: TDD,
                           outputs: Sequence[Index]) -> TDD:
    """Relabel a circuit-output state back onto the canonical kets.

    ``outputs[q]`` is the last wire index of qubit *q*; wires never
    advanced by the circuit already carry the ket name and map
    identically.
    """
    mapping = {}
    for qubit, out_idx in enumerate(outputs):
        ket = space.kets[qubit]
        if out_idx != ket:
            mapping[out_idx] = ket
    if not mapping:
        return state
    return state.rename(mapping)


def input_sum_indices(inputs: Sequence[Index],
                      outputs: Sequence[Index]) -> List[Index]:
    """The circuit-input indices consumed by applying the operator.

    Fused wires (diagonal-only qubits) keep a single shared index that
    serves as both input and output and therefore must stay free.
    """
    output_set = set(outputs)
    return [idx for idx in inputs if idx not in output_set]


class ImageComputerBase:
    """Common state for the four algorithms: system + per-circuit caches.

    Every computer makes its transition-relation contractions through
    ``self.executor.contract`` (see :mod:`repro.image.sliced`).

    Every basis state takes one contraction per Kraus circuit (a
    partition method may fold several partial contractions into that
    one image state).
    """

    method: str = "abstract"

    def __init__(self, qts: QuantumTransitionSystem) -> None:
        self.qts = qts
        self.executor = MonolithicExecutor()
        #: peak nodes observed while building cached operator diagrams
        self.build_stats = StatsRecorder()
        self._monolithic_ops = {}

    def image(self, subspace: Optional[Subspace] = None,
              stats: Optional[StatsRecorder] = None) -> ImageResult:
        """Compute ``T(S)`` (defaults: ``S`` = the system's initial space)."""
        if subspace is None:
            subspace = self.qts.initial
        return self.partial_image(subspace.basis,
                                  self.qts.all_kraus_circuits(), stats)

    def partial_image(self, source: Sequence[TDD], circuits: Sequence,
                      stats: Optional[StatsRecorder] = None,
                      into: Optional[Subspace] = None) -> ImageResult:
        """``into v T(source)`` restricted to a subset of the Kraus circuits.

        ``source`` is a sequence of basis states.  ``T(S)`` is the join
        of per-circuit contributions (Proposition 1), so restricting
        ``circuits`` to one operation's Kraus family yields that
        operation's partial image — the unit of work a fixpoint driver
        schedules (see :mod:`repro.mc.drivers`).  With every circuit of
        the system this *is* ``image``.

        Every image state takes exactly one Gram-Schmidt step
        (:meth:`~repro.subspace.subspace.Subspace.add_state`) into the
        result.  The result starts as a copy of ``into`` (the zero
        subspace when omitted), so a fixpoint round joins its image
        straight into the accumulator; ``into`` itself is left
        unchanged and its basis is the result's basis prefix.
        """
        if stats is None:
            stats = StatsRecorder()
        circuits = list(circuits)
        result = (into.copy() if into is not None
                  else Subspace(self.qts.space))
        family = self.family_for(circuits, stats)
        images = (image_state for state in source
                  for operator in family
                  for image_state in self._operator_images(
                      state, operator, stats))
        for image_state in images:
            stats.observe_tdd(image_state)
            stats.join_offered += 1
            added = result.add_state(image_state)
            if added is None:
                stats.join_rejected += 1
            else:
                stats.observe_tdd(added)
        stats.observe_nodes(result.projector.size())
        return ImageResult(result, stats)

    # ------------------------------------------------------------------
    # cached operators
    # ------------------------------------------------------------------
    def monolithic_operator_for(self, circuit, stats: StatsRecorder):
        """The cached monolithic ``(operator, inputs, outputs)`` triple
        of one Kraus circuit (the basic method's operator)."""
        from repro.circuits.network import circuit_to_tdd
        key = id(circuit)
        entry = self._monolithic_ops.get(key)
        if entry is None:
            entry = circuit_to_tdd(circuit, self.qts.manager,
                                   observer=self.build_stats.observe_tdd)
            self._monolithic_ops[key] = entry
        stats.merge(self.build_stats)
        return entry

    def family_for(self, circuits: Sequence, stats: StatsRecorder) -> list:
        """The method's operator of each circuit of a Kraus family.

        One :meth:`operator_for` entry per circuit, in order, looked up
        once per :meth:`partial_image` call rather than once per basis
        state.
        """
        return [self.operator_for(circuit, stats) for circuit in circuits]

    # subclasses implement: the cached operator of one Kraus circuit
    # (whatever form the method contracts states with) ...
    def operator_for(self, circuit, stats: StatsRecorder):
        raise NotImplementedError

    # ... and all images of one basis state under it (one TDD; partition
    # methods may fold several contributions before yielding)
    def _operator_images(self, state: TDD, operator, stats: StatsRecorder):
        raise NotImplementedError
