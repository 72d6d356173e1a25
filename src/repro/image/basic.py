"""The basic image computation algorithm (paper, Algorithm 1).

Every Kraus circuit is contracted into a single (monolithic) operator
TDD; the image of a subspace is the join of ``cont(|psi>, E)`` over all
basis states ``|psi>`` and Kraus operators ``E``.  The operator TDDs
are cached so that repeated image computations (reachability fixpoints)
pay the — potentially exponential — contraction only once.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.circuits.circuit import QuantumCircuit
from repro.image.base import (ImageComputerBase, input_sum_indices,
                              rename_outputs_to_kets)
from repro.indices.index import Index
from repro.tdd.tdd import TDD
from repro.utils.stats import StatsRecorder


class BasicImageComputer(ImageComputerBase):
    """Algorithm 1: monolithic operator TDD per Kraus circuit."""

    method = "basic"

    # ------------------------------------------------------------------
    def operator_for(self, circuit: QuantumCircuit,
                     stats: StatsRecorder
                     ) -> Tuple[TDD, List[Index], List[Index]]:
        return self.monolithic_operator_for(circuit, stats)

    # ------------------------------------------------------------------
    def _operator_images(self, state: TDD, entry: Tuple[TDD, List[Index],
                                                        List[Index]],
                         stats: StatsRecorder) -> Iterator[TDD]:
        operator, inputs, outputs = entry
        sum_over = input_sum_indices(inputs, outputs)
        image_state = self.executor.contract(state, operator, sum_over)
        stats.contractions += 1
        stats.observe_tdd(image_state)
        yield rename_outputs_to_kets(self.qts.space, image_state, outputs)

    def apply(self, circuit: QuantumCircuit, state: TDD,
              stats: StatsRecorder) -> TDD:
        """The image of one ket state under one Kraus circuit."""
        (image_state,) = self._operator_images(
            state, self.operator_for(circuit, stats), stats)
        return image_state
