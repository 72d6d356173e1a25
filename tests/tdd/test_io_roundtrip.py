"""TDD serialisation round trips (to_dict / from_dict)."""

import json

import numpy as np

from repro.indices.index import Index
from repro.tdd import construction as tc
from repro.tdd.io import from_dict, to_dict

from tests.helpers import fresh_manager, random_tensor

NAMES = ["a0", "a1", "a2"]


def idx(*names):
    return [Index(n) for n in names]


class TestRoundTrip:
    def test_same_manager(self, rng):
        m = fresh_manager(NAMES)
        arr = random_tensor(rng, 3)
        t = tc.from_numpy(m, arr, idx(*NAMES))
        rebuilt = from_dict(m, to_dict(t))
        assert rebuilt.root.node is t.root.node  # canonical re-interning
        assert np.allclose(rebuilt.to_numpy(), arr)

    def test_cross_manager(self, rng):
        m1 = fresh_manager(NAMES)
        m2 = fresh_manager(NAMES)
        arr = random_tensor(rng, 3)
        t = tc.from_numpy(m1, arr, idx(*NAMES))
        rebuilt = from_dict(m2, to_dict(t))
        assert rebuilt.manager is m2
        assert np.allclose(rebuilt.to_numpy(), arr)

    def test_through_json(self, rng):
        m1 = fresh_manager(NAMES)
        m2 = fresh_manager(NAMES)
        arr = random_tensor(rng, 2)
        t = tc.from_numpy(m1, arr, idx("a0", "a1"))
        text = json.dumps(to_dict(t))
        rebuilt = from_dict(m2, json.loads(text))
        assert np.allclose(rebuilt.to_numpy(), arr)

    def test_zero_tensor(self):
        m = fresh_manager(NAMES)
        t = tc.zero(m, idx("a0"))
        rebuilt = from_dict(m, to_dict(t))
        assert rebuilt.is_zero

    def test_scalar(self):
        m = fresh_manager(NAMES)
        t = tc.scalar(m, 0.5 - 0.25j)
        rebuilt = from_dict(m, to_dict(t))
        assert rebuilt.scalar_value() == 0.5 - 0.25j

    def test_shared_structure_preserved(self):
        m = fresh_manager(NAMES)
        # GHZ-ish tensor has shared subgraphs; round trip must not blow up
        ghz = (tc.basis_state(m, idx(*NAMES), [0, 0, 0])
               + tc.basis_state(m, idx(*NAMES), [1, 1, 1]))
        rebuilt = from_dict(m, to_dict(ghz))
        assert rebuilt.size() == ghz.size()

    def test_projector_round_trip(self, rng):
        from tests.helpers import make_space
        space = make_space(2)
        sub = space.span([space.from_amplitudes(rng.normal(size=4))])
        rebuilt = from_dict(space.manager, to_dict(sub.projector))
        assert rebuilt.allclose(sub.projector)


class TestIPCRoundTripProperty:
    """Property test for the cross-process hand-off (the result store
    ships basis vectors between sweep workers): a random tensor survives

    parent --to_dict--> fresh manager --to_dict--> parent
    with exact (canonical-grid) fidelity.
    """

    def test_random_tensors_cross_manager(self, rng):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=25, deadline=None)
        @given(rank=st.integers(min_value=0, max_value=5),
               seed=st.integers(min_value=0, max_value=2 ** 31))
        def check(rank, seed):
            local = np.random.default_rng(seed)
            names = [f"a{i}" for i in range(5)]
            parent = fresh_manager(names)
            arr = random_tensor(local, rank)
            t = tc.from_numpy(parent, arr, idx(*names[:rank]))
            other = fresh_manager(names)
            shipped = from_dict(other, to_dict(t))
            # other -> parent: the return leg
            returned = from_dict(parent, to_dict(shipped))
            assert np.allclose(shipped.to_numpy(), arr)
            assert returned.root.node is t.root.node  # re-interned

        check()

    def test_cofactor_sum_equals_whole(self, rng):
        """slice -> ship -> recombine reproduces the original tensor."""
        import itertools

        names = ["a0", "a1", "a2", "a3"]
        parent = fresh_manager(names)
        arr = random_tensor(rng, 4)
        t = tc.from_numpy(parent, arr, idx(*names))
        other = fresh_manager(names)
        total = None
        for bits in itertools.product((0, 1), repeat=2):
            part = from_dict(other, to_dict(
                t.slice(dict(zip(idx("a0", "a1"), bits)))))
            total = part if total is None else total + part
        # summing the four cofactors marginalises indices a0, a1
        assert np.allclose(total.to_numpy(), arr.sum(axis=(0, 1)))
