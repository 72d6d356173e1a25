"""Addition-partition image computation (paper, Section V.A).

The circuit's undirected index graph is built (hyper-edges merged by
wire-index reuse), the ``k`` highest-degree *internal* indices are
selected, and the circuit tensor is sliced over all ``2^k`` assignments
of those indices.  Each slice contracts into a smaller operator-part
TDD ``phi_i`` with ``cont(|psi>, phi) = sum_i cont(|psi>, phi_i)``, so
the monolithic operator diagram of the basic algorithm is never built.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Tuple

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.network import circuit_to_tdd_network
from repro.config import DEFAULT_ADDITION_K
from repro.image.base import (ImageComputerBase, input_sum_indices,
                              rename_outputs_to_kets)
from repro.indices.index import Index
from repro.systems.qts import QuantumTransitionSystem
from repro.tdd.tdd import TDD
from repro.tensor.graph import IndexGraph
from repro.tensor.network import TensorNetwork
from repro.utils.stats import StatsRecorder


def select_slice_indices(network: TensorNetwork, count: int) -> List[Index]:
    """The ``count`` highest-degree internal indices of the network."""
    graph = IndexGraph.from_tensors(network.tensors)
    return graph.highest_degree(count, exclude=network.open_indices)


def slice_network(network: TensorNetwork, assignment: Dict[Index, int]
                  ) -> TensorNetwork:
    """Fix internal indices to constants in every tensor touching them."""
    tensors = []
    for tensor in network.tensors:
        local = {idx: bit for idx, bit in assignment.items()
                 if idx in set(tensor.indices)}
        tensors.append(tensor.slice(local) if local else tensor)
    return TensorNetwork(tensors, set(network.open_indices))


class AdditionImageComputer(ImageComputerBase):
    """Section V.A: slice high-degree indices, add the contributions."""

    method = "addition"

    def __init__(self, qts: QuantumTransitionSystem,
                 k: int = DEFAULT_ADDITION_K) -> None:
        super().__init__(qts)
        if k < 0:
            raise ValueError("k must be non-negative")
        self.k = k
        self._parts: Dict[int, Tuple[List[TDD], List[Index],
                                     List[Index]]] = {}
        self.build_stats = StatsRecorder()

    # ------------------------------------------------------------------
    def parts_for(self, circuit: QuantumCircuit, stats: StatsRecorder
                  ) -> Tuple[List[TDD], List[Index], List[Index]]:
        key = id(circuit)
        if key not in self._parts:
            network, inputs, outputs = circuit_to_tdd_network(
                circuit, self.qts.manager)
            sliced = select_slice_indices(network, self.k)
            parts: List[TDD] = []
            for bits in itertools.product((0, 1), repeat=len(sliced)):
                assignment = dict(zip(sliced, bits))
                part_network = slice_network(network, assignment)
                part = part_network.contract_all(
                    observer=self.build_stats.observe_tdd)
                parts.append(part)
            self._parts[key] = (parts, inputs, outputs)
        stats.merge(self.build_stats)
        return self._parts[key]

    # ------------------------------------------------------------------
    def operator_for(self, circuit: QuantumCircuit, stats: StatsRecorder
                     ) -> Tuple[List[TDD], List[Index], List[Index]]:
        return self.parts_for(circuit, stats)

    def _operator_images(self, state: TDD, entry: Tuple[List[TDD],
                                                        List[Index],
                                                        List[Index]],
                         stats: StatsRecorder) -> Iterator[TDD]:
        parts, inputs, outputs = entry
        sum_over = input_sum_indices(inputs, outputs)
        total = None
        for part in parts:
            contribution = self.executor.contract(state, part, sum_over)
            stats.contractions += 1
            stats.observe_tdd(contribution)
            total = (contribution if total is None
                     else total + contribution)
            stats.observe_tdd(total)
        if len(parts) > 1:
            stats.additions += len(parts) - 1
        yield rename_outputs_to_kets(self.qts.space, total, outputs)
