"""Model checking on quantum transition systems.

The front door is :class:`~repro.mc.checker.ModelChecker` configured by
one :class:`~repro.mc.config.CheckerConfig` and driven by
:meth:`~repro.mc.checker.ModelChecker.check`, which evaluates temporal
specifications (``"AG (inv & ~bad)"``, ``"EF target"`` — see
:mod:`repro.mc.specs`) over the Birkhoff-von Neumann proposition
algebra of :mod:`repro.mc.logic` and returns one uniform
:class:`~repro.mc.checker.CheckResult` on either backend (symbolic TDD
or dense statevector).  Reachability fixpoints, invariants and
cross-validation ride on the same machinery.
"""

from repro.mc.reachability import (ReachabilityCache, ReachabilityTrace,
                                   reachable_space)
from repro.mc.drivers import (DRIVERS, FixpointDriver, FrontierDriver,
                              SequentialDriver, make_driver)
from repro.mc.invariants import (is_invariant, image_equals, image_contained_in)
from repro.mc.config import BACKENDS, CheckerConfig
from repro.mc.backends import (Backend, CrossValidation,
                               DenseStatevectorBackend, TDDBackend,
                               cross_validate, make_backend)
from repro.mc.checker import CheckResult, ModelChecker
from repro.mc.logic import (Always, Atomic, Eventually, Join, Meet, Name,
                            Not, Proposition, TemporalSpec,
                            check_always, check_eventually_overlaps,
                            satisfies)
from repro.mc.specs import parse_spec, resolve, to_text
from repro.mc.witness import WitnessTrace, extract_witness_trace

__all__ = [
    "reachable_space", "ReachabilityCache", "ReachabilityTrace",
    "DRIVERS", "FixpointDriver", "SequentialDriver", "FrontierDriver",
    "make_driver",
    "is_invariant", "image_equals", "image_contained_in",
    "Backend", "BACKENDS", "CheckerConfig", "CrossValidation",
    "DenseStatevectorBackend", "TDDBackend",
    "cross_validate", "make_backend",
    "CheckResult", "ModelChecker",
    "Always", "Atomic", "Eventually", "Join", "Meet", "Name", "Not",
    "Proposition", "TemporalSpec",
    "check_always", "check_eventually_overlaps", "satisfies",
    "parse_spec", "resolve", "to_text",
    "WitnessTrace", "extract_witness_trace",
]
