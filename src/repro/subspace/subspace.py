"""The :class:`Subspace` type and its ambient :class:`StateSpace`.

``StateSpace`` fixes the naming convention DESIGN.md describes: states
live on the *ket* indices ``x_i^0`` and projectors pair each ket with a
*bra* index ``y_i^0`` that sorts immediately after it (the interleaved
``x1 y1 x2 y2 ...`` order of the paper's Fig. 1).

``Subspace`` keeps an orthonormal basis of TDD states *and* the
projector TDD, maintained incrementally by the Gram-Schmidt procedure
of Section IV.B.  A memo of root nodes known to lie inside the
subspace lets the join reject a scalar multiple of an earlier
candidate, or of a basis vector, without projecting it.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.config import GS_EPS
from repro.errors import SubspaceError
from repro.indices.index import Index, wire
from repro.tdd import construction as tc
from repro.tdd.manager import TDDManager
from repro.tdd.node import Node
from repro.tdd.tdd import TDD


class StateSpace:
    """The ambient n-qubit space with its canonical ket/bra indices."""

    def __init__(self, manager: TDDManager, num_qubits: int) -> None:
        self.manager = manager
        self.num_qubits = num_qubits
        self.kets = [wire(q, 0) for q in range(num_qubits)]
        self.bras = [Index(f"y{q}_0", qubit=q, time=0)
                     for q in range(num_qubits)]

    # ------------------------------------------------------------------
    def ket_of(self, qubit: int) -> Index:
        return self.kets[qubit]

    def bra_of(self, qubit: int) -> Index:
        return self.bras[qubit]

    def bra_map(self) -> dict:
        """ket -> bra renaming map."""
        return dict(zip(self.kets, self.bras))

    # ------------------------------------------------------------------
    # state constructors
    # ------------------------------------------------------------------
    def basis_state(self, bits: Sequence[int]) -> TDD:
        return tc.basis_state(self.manager, self.kets, bits)

    def product_state(self, single_qubit_vectors: Sequence[np.ndarray]
                      ) -> TDD:
        """Tensor product of per-qubit 2-vectors (|+>, |->, ...)."""
        if len(single_qubit_vectors) != self.num_qubits:
            raise SubspaceError("need one 2-vector per qubit")
        state = tc.scalar(self.manager, 1)
        for qubit, vec in enumerate(single_qubit_vectors):
            vec = np.asarray(vec, dtype=complex).reshape(2)
            part = tc.from_numpy(self.manager, vec, [self.kets[qubit]])
            state = state.product(part)
        return state

    def from_amplitudes(self, amplitudes: np.ndarray) -> TDD:
        """A dense state vector (length 2^n) as a TDD over the kets."""
        arr = np.asarray(amplitudes, dtype=complex).reshape(
            (2,) * self.num_qubits)
        return tc.from_numpy(self.manager, arr, self.kets)

    def to_bra(self, state: TDD) -> TDD:
        """The bra of a ket state: conjugate + ket->bra renaming."""
        return state.conj().rename(self.bra_map())

    # ------------------------------------------------------------------
    def zero_subspace(self) -> "Subspace":
        return Subspace(self)

    def span(self, states: Iterable[TDD]) -> "Subspace":
        """The span of arbitrary TDD states over the kets."""
        out = Subspace(self)
        for state in states:
            out.add_state(state)
        return out

    def __repr__(self) -> str:
        return f"StateSpace(qubits={self.num_qubits})"


class Subspace:
    """A subspace as an orthonormal TDD basis plus its projector TDD."""

    def __init__(self, space: StateSpace) -> None:
        self.space = space
        self.basis: List[TDD] = []
        #: Projector tensor P[bra, ket]; starts as the zero tensor.
        self.projector: TDD = tc.zero(
            space.manager, list(space.bras) + list(space.kets))
        #: root node -> the largest root-weight magnitude known to lie
        #: inside the subspace.  A state is its root weight times the
        #: tensor of its root node, so the entry covers every multiple
        #: up to that magnitude.  Keyed by the node object itself, which
        #: keeps its id from being recycled after a collect.
        self._contained: Dict[Node, float] = {}

    # ------------------------------------------------------------------
    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def manager(self) -> TDDManager:
        return self.space.manager

    def is_zero(self) -> bool:
        return not self.basis

    def is_full(self) -> bool:
        """Is this the whole ``2^n``-dimensional space?"""
        return len(self.basis) == 2 ** self.space.num_qubits

    # ------------------------------------------------------------------
    def project_state(self, state: TDD) -> TDD:
        """``P |state>``: contract the projector with a ket state."""
        result = self.projector.contract(state, self.space.kets)
        # the result lives on the bras; bring it home to the kets
        return result.rename(dict(zip(self.space.bras, self.space.kets)))

    def add_state(self, state: TDD, tol: float = GS_EPS) -> Optional[TDD]:
        """One Gram-Schmidt step (paper, Section IV.B).

        Subtracts the projection of ``state`` onto the subspace; if a
        non-negligible residual remains it is normalised, appended to
        the basis, and the projector is updated.  Returns the new basis
        vector, or ``None`` when the state was already contained.

        Work whose outcome is already known is skipped: the whole space
        rejects every state, and a state whose root node is in the memo
        with a root weight no larger in magnitude than a contained one
        is a scalar multiple of a contained state.  Both return ``None``
        without a contraction.  An accepted state and its new basis
        vector cover every multiple; a rejected one covers multiples up
        to its own magnitude, since the residual test is absolute.
        """
        if set(state.indices) - set(self.space.kets):
            raise SubspaceError("state must live on the ket indices")
        if self.is_full():
            return None
        node = state.root.node
        magnitude = abs(state.root.weight)
        if magnitude <= self._contained.get(node, -1.0):
            return None
        residual = state - self.project_state(state)
        norm = residual.norm()
        if norm <= tol:
            self._contained[node] = magnitude
            return None
        vector = residual.scaled(1.0 / norm)
        self._contained[node] = math.inf
        self._contained[vector.root.node] = math.inf
        self.basis.append(vector)
        self.projector = self.projector + vector.rename(
            dict(zip(self.space.kets, self.space.bras))).product(
                vector.conj())
        return vector

    # ------------------------------------------------------------------
    def join(self, other: "Subspace") -> "Subspace":
        """``self v other`` — the closed span of the union."""
        if other.space is not self.space:
            raise SubspaceError("subspaces live in different state spaces")
        out = self.copy()
        for state in other.basis:
            out.add_state(state)
        return out

    def copy(self) -> "Subspace":
        out = Subspace(self.space)
        out.basis = list(self.basis)
        out.projector = self.projector
        out._contained = dict(self._contained)
        return out

    # ------------------------------------------------------------------
    def contains_state(self, state: TDD, tol: float = 1e-7) -> bool:
        if self.is_full():
            return True
        norm = state.norm()
        if norm <= tol:
            return True
        residual = state - self.project_state(state)
        return residual.norm() <= tol * norm

    def contains(self, other: "Subspace", tol: float = 1e-7) -> bool:
        return all(self.contains_state(v, tol) for v in other.basis)

    def equals(self, other: "Subspace", tol: float = 1e-7) -> bool:
        return (self.dimension == other.dimension
                and self.contains(other, tol))

    # ------------------------------------------------------------------
    # quantum-logic operations (Birkhoff-von Neumann lattice)
    # ------------------------------------------------------------------
    def complement(self) -> "Subspace":
        """The orthocomplement ``S^perp``.

        Computed by basis-decomposing ``I - P`` (a projector whenever
        ``P`` is one).  Note the result's dimension is ``2^n - dim``,
        so this is only cheap on small systems or near-full subspaces.
        """
        from repro.subspace.projector import basis_decompose
        from repro.tdd import construction as tc
        identity = tc.identity(self.manager, list(self.space.bras),
                               list(self.space.kets))
        return basis_decompose(self.space, identity - self.projector)

    def meet(self, other: "Subspace") -> "Subspace":
        """``S1 ^ S2`` — the lattice meet (subspace intersection).

        Uses De Morgan in the subspace lattice:
        ``S1 ^ S2 = (S1^perp v S2^perp)^perp``.
        """
        if other.space is not self.space:
            raise SubspaceError("subspaces live in different state spaces")
        return self.complement().join(other.complement()).complement()

    def overlap(self, other: "Subspace") -> float:
        """``tr(P1 P2)`` — 0 iff the subspaces are orthogonal.

        For Hermitian projectors ``tr(P1 P2)`` equals the
        Hilbert-Schmidt inner product of the projector tensors.
        """
        if other.space is not self.space:
            raise SubspaceError("subspaces live in different state spaces")
        if self.is_zero() or other.is_zero():
            return 0.0
        value = self.projector.inner(other.projector)
        return float(value.real)

    def is_orthogonal_to(self, other: "Subspace",
                         tol: float = 1e-9) -> bool:
        return self.overlap(other) <= tol

    # ------------------------------------------------------------------
    def to_dense(self) -> "np.ndarray":
        """The projector as a dense 2^n x 2^n matrix (tests only)."""
        n = self.space.num_qubits
        tensor = self.projector.to_numpy()
        # axes are interleaved (bra0? ket0? per qubit) following level
        # order: x_q before y_q by name; to_numpy sorts by level.
        order = self.projector.indices
        bra_axes = [order.index(b) for b in self.space.bras]
        ket_axes = [order.index(k) for k in self.space.kets]
        perm = bra_axes + ket_axes
        matrix = np.transpose(tensor, perm).reshape(2 ** n, 2 ** n)
        return matrix

    def max_basis_nodes(self) -> int:
        """The largest TDD size over basis vectors and the projector."""
        sizes = [v.size() for v in self.basis]
        sizes.append(self.projector.size())
        return max(sizes)

    def __repr__(self) -> str:
        return (f"Subspace(dim={self.dimension}, "
                f"qubits={self.space.num_qubits})")
