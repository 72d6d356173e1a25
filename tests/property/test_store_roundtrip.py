"""Store round-trip properties: persist, reload, and nothing changes.

Three layers, from codec to fixpoint:

* random TDDs survive the ``tdd/io`` dict codec that the store
  serialises payloads through — including a detour through canonical
  JSON text, which is exactly what lands on disk — while a vector
  weight, at the root or on an edge, never decodes;
* random small subspaces written to a :class:`ResultStore` come back
  dense-identical from a fresh instance with a fresh manager;
* a warm start loaded from disk reproduces the cold fixpoint — same
  subspace, one confirming iteration — on the multi-Kraus table-1
  families (bitflip syndrome extraction, depolarizing-noise GHZ).
"""

from __future__ import annotations

import json
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import TDDError
from repro.mc.reachability import ReachabilityTrace, reachable_space
from repro.store import ResultStore
from repro.systems import models
from repro.systems.noise import noisy_operation
from repro.systems.qts import QuantumTransitionSystem
from repro.tdd import construction as tc
from repro.tdd.io import canonical_json, from_dict, payload_digest, \
    to_dict
from repro.indices.index import Index
from tests.helpers import fresh_manager, subspace_to_dense

N_QUBITS = 2
DIM = 2 ** N_QUBITS

#: well-separated amplitudes (see test_subspace_properties) so span
#: rank decisions stay away from the tolerance threshold
GRID = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
COMPLEX_GRID = st.tuples(GRID, GRID).map(lambda p: complex(*p))


def _roundtrip(manager, tdd):
    """dict -> canonical JSON text -> parsed dict -> re-interned TDD."""
    data = json.loads(canonical_json(to_dict(tdd)))
    return from_dict(manager, data)


class TestCodecRoundTrip:
    @given(arrays(np.complex128, (DIM,), elements=COMPLEX_GRID))
    def test_scalar_weights(self, amplitudes):
        m = fresh_manager(["a0", "a1"])
        t = tc.from_numpy(m, amplitudes.reshape(2, 2),
                          [Index("a0"), Index("a1")])
        m2 = fresh_manager(["a0", "a1"])
        back = _roundtrip(m2, t)
        assert np.allclose(back.to_numpy(), t.to_numpy())
        # content addressing depends on the codec being deterministic
        assert payload_digest(to_dict(back)) == payload_digest(to_dict(t))

    @given(st.lists(arrays(np.complex128, (DIM,),
                           elements=COMPLEX_GRID),
                    min_size=2, max_size=4))
    def test_batched_weights(self, slot_amplitudes):
        # the kernel holds only scalar weights, so a payload carrying a
        # {"re": [...], "im": [...]} vector weight (one slot per stacked
        # state) must never decode into a diagram, at the root or on
        # any edge
        m = fresh_manager(["a0", "a1"])
        slots = [tc.from_numpy(m, a.reshape(2, 2),
                               [Index("a0"), Index("a1")])
                 for a in slot_amplitudes]
        payloads = [json.loads(canonical_json(to_dict(t))) for t in slots]
        vector = {"re": [p["root_weight"][0] for p in payloads],
                  "im": [p["root_weight"][1] for p in payloads]}
        stacked = json.loads(canonical_json(payloads[0]))
        stacked["root_weight"] = vector
        m2 = fresh_manager(["a0", "a1"])
        with pytest.raises(TDDError):
            from_dict(m2, stacked)
        edged = json.loads(canonical_json(payloads[0]))
        edge = next((node[tag] for node in edged["nodes"]
                     for tag in ("low", "high") if node.get(tag)), None)
        if edge is not None:
            edge["weight"] = vector
            with pytest.raises(TDDError):
                from_dict(fresh_manager(["a0", "a1"]), edged)


class TestSubspaceRoundTrip:
    @given(st.lists(arrays(np.float64, (DIM,), elements=GRID),
                    min_size=1, max_size=3))
    @settings(max_examples=15)
    def test_random_subspace_survives_the_store(self, raw_vectors):
        def span(qts):
            states = [qts.space.from_amplitudes(v.astype(complex))
                      for v in raw_vectors
                      if np.linalg.norm(v) > 1e-6]
            return qts.space.span(states)

        qts = models.ghz_qts(N_QUBITS)
        subspace = span(qts)
        if subspace.dimension == 0:
            return  # nothing to persist
        trace = ReachabilityTrace(subspace=subspace, converged=True)
        with tempfile.TemporaryDirectory() as tmp:
            with ResultStore(tmp) as store:
                assert store.store(qts, subspace, "forward", 0, trace)
            rebuilt = models.ghz_qts(N_QUBITS)
            with ResultStore(tmp) as store:
                warm = store.lookup(rebuilt, span(rebuilt))
            assert warm is not None
            assert warm.space is rebuilt.space
            assert warm.dimension == subspace.dimension
            assert subspace_to_dense(warm).equals(
                subspace_to_dense(subspace))


def _noisy_ghz() -> QuantumTransitionSystem:
    """A four-branch depolarizing variant of the GHZ preparation."""
    base = models.ghz_qts(3)
    circuit = base.operations[0].kraus_circuits[0]
    op = noisy_operation("g", circuit, position=1, qubit=0,
                         channel="depolarizing", parameter=0.25)
    qts = QuantumTransitionSystem(base.num_qubits, [op],
                                  name="noisy_ghz")
    qts.set_initial_basis_states([[0] * base.num_qubits])
    return qts


FAMILIES = {
    "bitflip": lambda: models.bitflip_qts(),
    "noisy_ghz": _noisy_ghz,
}


class TestWarmEqualsCold:
    def _assert_warm_equals_cold(self, tmp_path, build):
        cold_qts = build()
        cold = reachable_space(cold_qts, method="contraction")
        assert cold.converged
        with ResultStore(tmp_path / "store") as store:
            assert store.store(cold_qts, cold_qts.initial, "forward", 0,
                               cold)
        # a different process: fresh store instance, rebuilt system,
        # different image method — the fixpoint must not care
        rebuilt = build()
        with ResultStore(tmp_path / "store") as store:
            seed = store.lookup(rebuilt, rebuilt.initial)
        assert seed is not None
        warm = reachable_space(rebuilt, method="basic", warm_start=seed)
        assert warm.iterations == 1
        assert warm.converged
        assert warm.dimension == cold.dimension
        assert subspace_to_dense(warm.subspace).equals(
            subspace_to_dense(cold.subspace))

    def test_bitflip(self, tmp_path):
        self._assert_warm_equals_cold(tmp_path, FAMILIES["bitflip"])

    def test_noisy_ghz(self, tmp_path):
        self._assert_warm_equals_cold(tmp_path, FAMILIES["noisy_ghz"])
