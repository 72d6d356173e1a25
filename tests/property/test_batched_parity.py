"""Family-image parity: imaging a whole Kraus family at once changes
nothing but cost.

:meth:`~repro.image.base.ImageComputerBase.partial_image` images a
batch of basis states under a whole Kraus family in one call: the
family's operators are looked up once (``family_for``) and every image
state takes one Gram-Schmidt step into the result.  Its contract is
that the resulting subspace is *element-for-element* identical to the
scalar loop that images one basis state under one Kraus branch at a
time, in the same state-major order, and joins each result into the
accumulator: same interned node for every basis vector's root, equal
root weights.  This is Proposition 1 (``T(S)`` is the join of the
per-circuit contributions) pinned at the level of canonical diagrams.

Checked on the multi-Kraus table-1 families — bitflip (four syndrome
branches) plus depolarizing-noise GHZ and QFT (four channel branches)
— in both analysis directions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.image.engine import ImageEngine, compute_image
from repro.subspace.subspace import Subspace
from repro.systems import models
from repro.systems.noise import noisy_operation
from repro.systems.qts import QuantumTransitionSystem
from repro.tdd import weights as wt
from repro.utils.stats import StatsRecorder

NOISE = 0.25


def _noisy(base: QuantumTransitionSystem, symbol: str) -> \
        QuantumTransitionSystem:
    """A four-branch depolarizing variant of a unitary system."""
    circuit = base.operations[0].kraus_circuits[0]
    op = noisy_operation(symbol, circuit, position=1, qubit=0,
                         channel="depolarizing", parameter=NOISE)
    qts = QuantumTransitionSystem(base.num_qubits, [op],
                                  name=f"noisy_{base.name}")
    qts.set_initial_basis_states([[0] * base.num_qubits])
    return qts


FAMILIES = {
    "bitflip": lambda: models.bitflip_qts(),
    "ghz": lambda: _noisy(models.ghz_qts(3), "g"),
    "qft": lambda: _noisy(models.qft_qts(3), "f"),
}


def scalar_loop(qts, direction="forward"):
    """``T(S)`` rebuilt one (basis state, Kraus branch) pair at a time.

    Returns the joined subspace and the contractions it spent.
    """
    stats = StatsRecorder()
    engine = ImageEngine(qts, "basic", direction=direction)
    result = Subspace(qts.space)
    for state in qts.initial.basis:
        for circuit in engine.system.all_kraus_circuits():
            result = engine.computer.partial_image(
                [state], [circuit], stats, into=result).subspace
    return result, stats.contractions


def assert_canonically_equal(a, b) -> None:
    """Element-level contract: same node, canonically equal weight."""
    assert a.manager is b.manager
    assert a.indices == b.indices
    assert a.root.node is b.root.node
    assert (wt.canonical(complex(a.root.weight))
            == wt.canonical(complex(b.root.weight)))


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_batched_image_matches_scalar_loop(family, direction):
    qts = FAMILIES[family]()
    batched = compute_image(qts, method="basic", direction=direction)
    scalar, _ = scalar_loop(qts, direction)
    assert batched.dimension == scalar.dimension
    assert len(batched.subspace.basis) == len(scalar.basis)
    for a, b in zip(batched.subspace.basis, scalar.basis):
        assert_canonically_equal(a, b)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_batched_spends_one_contraction_per_state(family):
    qts = FAMILIES[family]()
    width = len(qts.all_kraus_circuits())
    assert width > 1
    batched = compute_image(qts, method="basic")
    _, scalar_contractions = scalar_loop(qts)
    # one contraction per basis state per Kraus branch: looking the
    # family up once per call adds no contraction and saves none
    states = len(qts.initial.basis)
    assert batched.stats.contractions == states * width
    assert scalar_contractions == states * width


class TestRandomStates:
    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=8, deadline=None)
    def test_noisy_ghz_parity_on_random_states(self, seed):
        qts = _noisy(models.ghz_qts(3), "g")
        rng = np.random.default_rng(seed)
        dim = 2 ** qts.num_qubits
        state = qts.space.from_amplitudes(rng.normal(size=dim)
                                          + 1j * rng.normal(size=dim))
        qts.set_initial_states([state])
        batched = compute_image(qts, method="basic")
        scalar, _ = scalar_loop(qts)
        assert batched.dimension == scalar.dimension
        for a, b in zip(batched.subspace.basis, scalar.basis):
            assert_canonically_equal(a, b)
