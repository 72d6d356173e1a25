"""The join memo: ``Subspace.add_state`` skips work whose answer is known.

A state is its root weight times the tensor of its root node, so a
candidate whose root node is already known to lie inside the subspace
is a scalar multiple of a contained state.  These tests pin when the
memo answers without a contraction, when it must still project, and
that it never changes the accepted basis.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.config import GS_EPS
from repro.errors import SubspaceError
from repro.image.engine import ImageEngine
from repro.systems import models
from repro.tdd.io import payload_digest, to_dict
from repro.tdd.tdd import TDD

from tests.helpers import make_space


@pytest.fixture
def contractions(monkeypatch):
    """A list that grows by one entry per ``TDD.contract`` call."""
    calls = []
    contract = TDD.contract

    def counting(self, other, sum_over):
        calls.append(1)
        return contract(self, other, sum_over)

    monkeypatch.setattr(TDD, "contract", counting)
    return calls


def random_state(space, rng):
    size = 2 ** space.num_qubits
    return space.from_amplitudes(rng.normal(size=size)
                                 + 1j * rng.normal(size=size))


def digests(subspace):
    return [payload_digest(to_dict(v)) for v in subspace.basis]


def plain_add_state(subspace, state, tol=GS_EPS):
    """The Gram-Schmidt step with no memo and no whole-space test."""
    residual = state - subspace.project_state(state)
    norm = residual.norm()
    if norm <= tol:
        return None
    vector = residual.scaled(1.0 / norm)
    space = subspace.space
    subspace.basis.append(vector)
    subspace.projector = subspace.projector + vector.rename(
        dict(zip(space.kets, space.bras))).product(vector.conj())
    return vector


class TestKnownContained:
    def test_multiple_of_accepted_candidate(self, rng, contractions):
        space = make_space(3)
        sub = space.zero_subspace()
        psi = random_state(space, rng)
        sub.add_state(random_state(space, rng))
        assert sub.add_state(psi) is not None
        contractions.clear()
        assert sub.add_state(psi.scaled(-7.5 + 2j)) is None
        assert sub.add_state(psi.scaled(1e-3)) is None
        assert contractions == []
        assert sub.dimension == 2

    def test_multiple_of_basis_vector(self, rng, contractions):
        space = make_space(3)
        sub = space.zero_subspace()
        sub.add_state(random_state(space, rng))
        vector = sub.add_state(random_state(space, rng))
        # the second vector is a Gram-Schmidt residual, not a candidate
        assert sub.dimension == 2
        contractions.clear()
        assert sub.add_state(vector.scaled(3j)) is None
        assert contractions == []

    def test_larger_multiple_of_rejected_candidate_is_projected(
            self, contractions):
        space = make_space(2)
        sub = space.span([space.basis_state([0, 0]),
                          space.basis_state([0, 1])])
        inside = space.from_amplitudes([1, 1, 0, 0])
        contractions.clear()
        assert sub.add_state(inside) is None
        assert contractions  # the first offer is projected
        contractions.clear()
        assert sub.add_state(inside.scaled(0.5)) is None
        assert contractions == []
        assert sub.add_state(inside.scaled(10)) is None
        assert contractions  # larger than any known-contained multiple
        contractions.clear()
        assert sub.add_state(inside.scaled(-4)) is None
        assert contractions == []

    def test_whole_space_rejects_without_contraction(self, rng,
                                                     contractions):
        space = make_space(2)
        sub = space.span([space.basis_state([i >> 1, i & 1])
                          for i in range(4)])
        assert sub.is_full()
        state = random_state(space, rng)
        contractions.clear()
        assert sub.add_state(state) is None
        assert sub.contains_state(state)
        assert contractions == []
        assert sub.dimension == 4

    def test_whole_space_still_rejects_states_off_the_kets(self):
        space = make_space(1)
        sub = space.span([space.basis_state([0]), space.basis_state([1])])
        with pytest.raises(SubspaceError, match="ket indices"):
            sub.add_state(sub.projector)

    def test_copy_carries_the_memo(self, rng, contractions):
        space = make_space(3)
        sub = space.zero_subspace()
        psi = random_state(space, rng)
        sub.add_state(psi)
        twin = sub.copy()
        contractions.clear()
        assert twin.add_state(psi.scaled(2)) is None
        assert contractions == []


class TestPartialImageLeavesInto:
    def test_into_basis_and_memo_unchanged(self):
        qts = models.qrw_qts(3, 0.2)
        engine = ImageEngine(qts, "basic")
        computer = engine.computer
        start = computer.partial_image(
            qts.initial.basis, qts.all_kraus_circuits()).subspace
        basis = list(start.basis)
        memo = dict(start._contained)
        grown = computer.partial_image(
            start.basis, qts.all_kraus_circuits(), into=start).subspace
        assert grown.dimension > start.dimension
        assert start.basis == basis
        assert start._contained == memo
        assert all(kept is original
                   for kept, original in zip(grown.basis, basis))


class TestAfterCollect:
    def test_rebuilt_candidate_gets_the_same_decision(self, rng):
        space = make_space(3)
        first = rng.normal(size=8)
        second = rng.normal(size=8)
        outside = rng.normal(size=8)
        sub = space.span([space.from_amplitudes(first),
                          space.from_amplitudes(second)])
        inside = 0.3 * first - 2 * second

        def decisions():
            # the rejection lands in ``sub``'s own memo; the acceptance
            # only in a copy's
            return (sub.add_state(space.from_amplitudes(inside)),
                    sub.copy().add_state(space.from_amplitudes(outside))
                    is None)

        assert decisions() == (None, False)
        remembered = len(sub._contained)
        # the candidate's nodes leave the unique table; its memo entry
        # keeps the old root object, so the rebuilt state interns anew
        assert space.manager.collect() > 0
        assert decisions() == (None, False)
        assert len(sub._contained) == remembered + 1
        assert sub.dimension == 2


#: scalar multiples stay within a few orders of magnitude: the memo
#: treats every multiple of an accepted state as contained, while the
#: plain loop's absolute residual test would eventually accept a huge
#: multiple on rounding error alone
SCALES = st.complex_numbers(min_magnitude=0.1, max_magnitude=10,
                            allow_nan=False, allow_infinity=False)


@st.composite
def offers(draw):
    """Random base states (by seed), then (index, scale) pairs offering
    scalar multiples of them, all in a shuffled order."""
    qubits = draw(st.integers(2, 3))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    count = draw(st.integers(1, 2 ** qubits + 1))
    multiples = draw(st.lists(st.tuples(st.integers(0, count - 1), SCALES),
                              max_size=8))
    order = draw(st.permutations(range(count + len(multiples))))
    return qubits, seed, count, multiples, order


@given(offers())
def test_memo_keeps_dimension_and_basis(offer):
    qubits, seed, count, multiples, order = offer
    space = make_space(qubits)
    rng = np.random.default_rng(seed)
    bases = []
    for _ in range(count):
        amplitudes = rng.normal(size=2 ** qubits)
        # sparse states share nodes and land in each other's spans
        amplitudes[rng.random(2 ** qubits) < 0.5] = 0
        bases.append(space.from_amplitudes(amplitudes))
    states = bases + [bases[i].scaled(scale) for i, scale in multiples]
    with_memo = space.zero_subspace()
    without = space.zero_subspace()
    for i in order:
        added = with_memo.add_state(states[i])
        plain = plain_add_state(without, states[i])
        assert (added is None) == (plain is None)
    assert with_memo.dimension == without.dimension
    assert digests(with_memo) == digests(without)
