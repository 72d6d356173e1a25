"""Hypothesis properties of the subspace algebra."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.subspace.projector import basis_decompose

from tests.helpers import make_space, subspace_to_dense

N_QUBITS = 2
DIM = 2 ** N_QUBITS


def vectors_strategy(count):
    # A well-separated value grid: rank decisions (keep vs drop a
    # Gram-Schmidt residual) are only stable when no direction sits at
    # the tolerance threshold, so components like 6e-8 are excluded by
    # construction.  Rank structure stays fully general.
    grid = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    return st.lists(arrays(np.float64, (DIM,), elements=grid),
                    min_size=1, max_size=count)


def span_of(space, raw_vectors):
    states = [space.from_amplitudes(v.astype(complex))
              for v in raw_vectors if np.linalg.norm(v) > 1e-6]
    return space.span(states)


class TestJoinLaws:
    @given(vectors_strategy(3), vectors_strategy(3))
    def test_commutative(self, va, vb):
        space = make_space(N_QUBITS)
        a, b = span_of(space, va), span_of(space, vb)
        assert a.join(b).equals(b.join(a))

    @given(vectors_strategy(2), vectors_strategy(2), vectors_strategy(2))
    def test_associative(self, va, vb, vc):
        space = make_space(N_QUBITS)
        a, b, c = (span_of(space, v) for v in (va, vb, vc))
        left = a.join(b).join(c)
        right = a.join(b.join(c))
        assert left.equals(right)

    @given(vectors_strategy(3))
    def test_idempotent(self, va):
        space = make_space(N_QUBITS)
        a = span_of(space, va)
        assert a.join(a).equals(a)

    @given(vectors_strategy(2), vectors_strategy(2))
    def test_upper_bound(self, va, vb):
        space = make_space(N_QUBITS)
        a, b = span_of(space, va), span_of(space, vb)
        j = a.join(b)
        assert j.contains(a) and j.contains(b)

    @given(vectors_strategy(3), vectors_strategy(3))
    def test_join_keeps_existing_basis_as_untouched_prefix(self, va, vb):
        # frontier-mode reachability takes grown.basis[dim:] as the new
        # frontier — sound only if join leaves the left
        # operand's basis as an untouched prefix and every appended
        # vector is orthogonal to the left operand
        space = make_space(N_QUBITS)
        a, b = span_of(space, va), span_of(space, vb)
        j = a.join(b)
        assert len(j.basis) >= len(a.basis)
        assert all(kept is original
                   for kept, original in zip(j.basis, a.basis))
        dense_a = subspace_to_dense(a)
        for added in j.basis[a.dimension:]:
            vector = added.to_numpy().reshape(-1)
            projected = dense_a.projector() @ vector
            assert np.linalg.norm(projected) < 1e-7

    @given(vectors_strategy(3))
    def test_projector_hermitian_idempotent(self, va):
        space = make_space(N_QUBITS)
        a = span_of(space, va)
        p = a.to_dense()
        assert np.allclose(p, p.conj().T, atol=1e-8)
        assert np.allclose(p @ p, p, atol=1e-8)

    @given(vectors_strategy(3))
    def test_decompose_roundtrip(self, va):
        space = make_space(N_QUBITS)
        a = span_of(space, va)
        recovered = basis_decompose(space, a.projector)
        assert recovered.equals(a)

    @given(vectors_strategy(3))
    def test_dimension_matches_dense_rank(self, va):
        space = make_space(N_QUBITS)
        a = span_of(space, va)
        dense = subspace_to_dense(a)
        assert a.dimension == dense.dimension
