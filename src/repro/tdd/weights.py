"""Complex edge-weight canonicalisation.

TDD canonicity requires weights to be usable as dictionary keys, so
every weight stored in a node is first clamped to zero if negligible
and then rounded to :data:`repro.config.WEIGHT_DECIMALS` digits.  This
module states that rule once; :meth:`repro.tdd.manager.TDDManager.make_node`
runs the same clamp-then-round inline on its hot path, and the unit
tests pin the two to each other.

Every weight is a python ``complex`` scalar.
"""

from __future__ import annotations

from repro.config import WEIGHT_DECIMALS, WEIGHT_EPS

WeightKey = tuple


def canonical(value: complex) -> complex:
    """Clamp-and-round ``value`` to the canonical weight grid.

    Only valid for *normalised* weights (magnitude <= 1, i.e. the child
    weights stored inside nodes): the clamp threshold is absolute, so
    applying it to unnormalised outer weights would destroy genuinely
    tiny amplitudes such as the 2^-n/2 of a wide uniform superposition.

    The clamp runs *before* the round: a component below
    :data:`~repro.config.WEIGHT_EPS` is zeroed even when rounding to
    :data:`~repro.config.WEIGHT_DECIMALS` digits alone would keep it.

    >>> canonical(1e-14 + 1j * (0.5 + 1e-15))
    0.5j
    """
    re = value.real
    im = value.imag
    if abs(re) < WEIGHT_EPS:
        re = 0.0
    if abs(im) < WEIGHT_EPS:
        im = 0.0
    # ``+ 0.0`` folds -0.0 into +0.0 so keys are unambiguous.
    return complex(round(re, WEIGHT_DECIMALS) + 0.0,
                   round(im, WEIGHT_DECIMALS) + 0.0)


def key(value: complex) -> WeightKey:
    """Hashable key of an (already canonical) weight."""
    return (value.real, value.imag)


def is_zero(value: complex) -> bool:
    return value.real == 0.0 and value.imag == 0.0
