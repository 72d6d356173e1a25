"""Tensor networks over any tensor backend (TDD or dense).

A :class:`TensorNetwork` is a list of tensors plus a set of *open*
indices (the network's external legs).  Contraction folds tensors
together pairwise; an index shared by the two operands is summed
exactly when it is not open and appears in no other remaining tensor —
this is what makes hyper-edge indices (shared by three or more tensors,
paper Section V.A) work without special cases.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable, List, Optional, Sequence, Set

from repro.errors import TDDError
from repro.indices.index import Index


class TensorNetwork:
    """An open tensor network.

    Parameters
    ----------
    tensors:
        Tensor values exposing ``indices`` and
        ``contract(other, sum_over)``.
    open_indices:
        The external legs; never summed away.
    """

    def __init__(self, tensors: Iterable[object],
                 open_indices: Iterable[Index]) -> None:
        self.tensors: List[object] = list(tensors)
        self.open_indices: Set[Index] = set(open_indices)

    # ------------------------------------------------------------------
    def index_multiplicity(self) -> Counter:
        """How many tensors mention each index."""
        counts: Counter = Counter()
        for tensor in self.tensors:
            for idx in tensor.indices:
                counts[idx] += 1
        return counts

    def all_indices(self) -> Set[Index]:
        out: Set[Index] = set()
        for tensor in self.tensors:
            out.update(tensor.indices)
        return out

    def validate(self) -> None:
        missing = self.open_indices - self.all_indices()
        if missing:
            raise TDDError(f"open indices {sorted(i.name for i in missing)} "
                           f"do not appear in the network")

    # ------------------------------------------------------------------
    def contract_pair(self, pos_a: int, pos_b: int,
                      observer: Optional[Callable[[object], None]] = None,
                      contract_fn: Optional[Callable] = None) -> None:
        """Contract tensors at two positions in place.

        Sums every index shared by the pair that is closed and unused
        elsewhere.  ``contract_fn(a, b, sum_over)`` overrides the plain
        pairwise contraction — the image methods pass their executor's
        contraction call here, so a network fold makes its pairwise
        contractions through the same call as the basic method.
        """
        if pos_a == pos_b:
            raise ValueError("cannot contract a tensor with itself")
        a = self.tensors[pos_a]
        b = self.tensors[pos_b]
        counts = self.index_multiplicity()
        shared = set(a.indices) & set(b.indices)
        sum_over = {idx for idx in shared
                    if idx not in self.open_indices and counts[idx] == 2}
        if contract_fn is not None:
            result = contract_fn(a, b, sum_over)
        else:
            result = a.contract(b, sum_over)
        if observer is not None:
            observer(result)
        keep = [t for i, t in enumerate(self.tensors)
                if i not in (pos_a, pos_b)]
        keep.append(result)
        self.tensors = keep

    def contract_all(self,
                     order: Optional[Sequence[int]] = None,
                     observer: Optional[Callable[[object], None]] = None,
                     contract_fn: Optional[Callable] = None) -> object:
        """Fold the whole network into a single tensor.

        ``order`` names tensor positions (into the *original* list); the
        fold contracts them left to right into an accumulator.  By
        default the list order is used.  Disconnected tensors are
        combined with a tensor product, so the fold always succeeds.
        ``contract_fn`` is forwarded to every pairwise step (see
        :meth:`contract_pair`).
        """
        if not self.tensors:
            raise TDDError("cannot contract an empty network")
        work = TensorNetwork(list(self.tensors), set(self.open_indices))
        sequence = list(order) if order is not None else list(
            range(len(work.tensors)))
        if sorted(sequence) != list(range(len(work.tensors))):
            raise ValueError("order must be a permutation of tensor positions")
        # Walk the requested order, always folding the next tensor into
        # the accumulator (which is kept at the end of the list).
        remaining = [work.tensors[i] for i in sequence]
        work.tensors = remaining
        while len(work.tensors) > 1:
            work.contract_pair(0, 1, observer=observer,
                               contract_fn=contract_fn)
            # contract_pair appends the result; rotate it to the front
            work.tensors.insert(0, work.tensors.pop())
        return work.tensors[0]

    def __len__(self) -> int:
        return len(self.tensors)

    def __repr__(self) -> str:
        return (f"TensorNetwork(tensors={len(self.tensors)}, "
                f"open={len(self.open_indices)})")
