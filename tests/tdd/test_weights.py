"""Unit tests for weight canonicalisation."""

import numpy as np
import pytest

from repro.config import WEIGHT_DECIMALS, WEIGHT_EPS
from repro.indices.index import Index
from repro.tdd import weights as wt
from repro.tdd.manager import TDDManager


class TestCanonical:
    def test_rounds_real_and_imag(self):
        value = wt.canonical(0.1234567890123456 + 1j * 0.9876543210987654)
        assert value == complex(round(0.1234567890123456, 12),
                                round(0.9876543210987654, 12))

    def test_clamps_tiny_real(self):
        assert wt.canonical(1e-14 + 0.5j) == 0.5j

    def test_clamps_tiny_imag(self):
        assert wt.canonical(0.5 + 1e-14j) == 0.5 + 0j

    def test_folds_negative_zero(self):
        value = wt.canonical(complex(-0.0, -0.0))
        assert wt.key(value) == (0.0, 0.0)

    def test_folds_negative_zero_from_clamp(self):
        # a clamped negative component must not leave a -0.0 behind:
        # (re, im) keys distinguish 0.0 from -0.0 by their sign bit
        value = wt.canonical(complex(-1e-14, 0.5))
        assert wt.key(value) == (0.0, 0.5)
        assert not np.signbit(value.real)

    def test_clamp_runs_before_round(self):
        # |component| < WEIGHT_EPS is zeroed even though rounding to
        # WEIGHT_DECIMALS digits alone would keep it: 5e-11 rounds to
        # 5e-11 at 12 digits, but the clamp (eps=1e-10) fires first
        component = WEIGHT_EPS / 2
        assert round(component, WEIGHT_DECIMALS) != 0.0
        assert wt.canonical(complex(component, 1.0)) == 1j

    def test_keeps_values_above_eps(self):
        value = wt.canonical(complex(WEIGHT_EPS * 10, 0))
        assert value.real != 0.0

    def test_exact_one(self):
        assert wt.canonical(1 + 0j) == 1 + 0j


class TestKeyAndZero:
    def test_key_is_hashable_tuple(self):
        key = wt.key(wt.canonical(0.25 - 0.75j))
        assert key == (0.25, -0.75)
        hash(key)

    def test_is_zero(self):
        assert wt.is_zero(0j)
        assert not wt.is_zero(1 + 0j)


class TestDispatchHelpers:
    def test_approx_equal_is_gone(self):
        # removed dead API; kept here so a reintroduction is deliberate
        assert not hasattr(wt, "approx_equal")

    def test_vector_weight_helpers_are_gone(self):
        # the kernel is scalar-only: no array dispatch remains
        for name in ("canonical_array", "key_array", "parallel_shape",
                     "cache_key", "any_key", "any_is_zero", "equal"):
            assert not hasattr(wt, name), name


class TestMakeNodeMatchesCanonical:
    """``TDDManager.make_node`` inlines :func:`wt.canonical`; the child
    weights it stores must be exactly what the rule gives."""

    @pytest.mark.parametrize("w0, w1", [
        (1 + 0j, 0.5 + 1e-14j),
        (0.5 - 1e-14j, 1j),
        (1e-14 + 0j, 1 + 0j),
        (complex(-1e-14, 0.5), 0.75 + 0j),
        (0.3 + 0.4j, -0.3 + 0.4j),
        (2 + 0j, 2 + 0j),
        (1.0000000000005001 + 0j, 2 + 0j),
        (complex(WEIGHT_EPS / 2, 1.0), complex(1.0, -1.0)),
    ])
    def test_child_weights_are_canonical(self, w0, w1):
        m = TDDManager()
        m.register(Index("x"))
        m.register(Index("y"))
        a = m.make_node(1, m.zero_edge(), m.scalar_edge(1))
        b = m.make_node(1, m.scalar_edge(1), m.zero_edge())
        edge = m.make_node(0, m.make_edge(w0, a.node),
                           m.make_edge(w1, b.node))
        norm = w0 if abs(w0) >= abs(w1) else w1
        assert edge.weight == norm
        for child, w in ((edge.node.low, w0), (edge.node.high, w1)):
            expected = wt.canonical(w / norm)
            assert wt.key(child.weight) == wt.key(expected)
            # no -0.0 component (keys compare zeros by value, but the
            # store's JSON text would not)
            for part in (child.weight.real, child.weight.imag):
                assert part != 0.0 or not np.signbit(part)
            if wt.is_zero(expected):
                assert child.node is m.terminal


class TestRoundingParity:
    @pytest.mark.parametrize("value", [
        0.1234567890123456, 0.9999999999994999,
        0.3333333333333333, 2 ** -40, 0.0000000000005,
    ])
    def test_np_round_matches_python_round(self, value):
        # python round() of a numpy float dispatches to np.round; the
        # kernel rounds python floats.  Both are IEEE round-half-even
        # at WEIGHT_DECIMALS digits on ordinary values, so a numpy
        # scalar reaching the weight grid lands on the same key.
        assert float(np.round(value, WEIGHT_DECIMALS)) == round(
            value, WEIGHT_DECIMALS)
        assert wt.key(wt.canonical(np.complex128(value))) == wt.key(
            wt.canonical(complex(value)))

    def test_known_half_way_divergence(self):
        # np.round (scale, round, unscale) and python round (correctly
        # rounded decimal) CAN disagree when a weight sits within one
        # ulp of a half-way point at digit 13.  This is why TDD
        # construction coerces numpy entries with complex() before they
        # reach the kernel: the python rounding is the canonical one.
        value = 1.0000000000005001
        assert float(np.round(value, WEIGHT_DECIMALS)) != round(
            value, WEIGHT_DECIMALS)
        assert wt.canonical(complex(np.complex128(value))).real == round(
            value, WEIGHT_DECIMALS)
