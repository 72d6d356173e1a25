"""Engine configuration as a first-class value: :class:`CheckerConfig`.

Before this module existed, every layer re-spelled the same knobs —
``backend`` / ``method`` / ``strategy`` / ``jobs`` / ``slice_depth``
plus per-method parameters — as loose keyword arguments, and a knob
that did not apply to the chosen backend was *silently dropped* (the
old ``make_backend`` filtered them away).  ``CheckerConfig`` is the
single source of truth instead:

* construction **validates**: unknown backends/methods/strategies,
  method parameters that do not belong to the chosen method, and
  tdd-only options combined with the dense backend all raise a
  :class:`~repro.errors.ConfigError` up front;
* it is **frozen** — a config can be shared between a checker, a sweep
  spec and an artifact without defensive copying;
* it **round-trips**: :meth:`to_json` / :meth:`from_json` and
  :meth:`as_dict` / :meth:`from_dict` for sweep artifacts,
  :meth:`from_cli_args` for the argparse namespaces of the CLI;
* the legacy keyword spellings remain available through
  :meth:`from_kwargs`, which reproduces the old tolerant behaviour
  (dropping mismatched knobs) so that deprecated call sites keep
  working while new code gets strict validation.

Threaded through :class:`~repro.mc.checker.ModelChecker`,
:func:`~repro.mc.backends.make_backend`,
:class:`~repro.image.engine.ImageEngine`,
:func:`~repro.image.engine.compute_image`, the CLI and
:class:`~repro.bench.sweep.RunSpec`.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Mapping, Optional

from repro.errors import ConfigError
from repro.image.engine import DIRECTIONS, METHODS
from repro.image.sliced import DEFAULT_SLICE_DEPTH, STRATEGIES
from repro.mc.drivers import DEFAULT_DRIVER, DRIVERS

#: the available computation engines (the dense statevector reference
#: is exponential — small sizes only)
BACKENDS = ("tdd", "dense")

#: method name -> the parameter names that method understands
METHOD_PARAMS = {
    "basic": frozenset(),
    "addition": frozenset({"k"}),
    "contraction": frozenset({"k1", "k2", "order_policy"}),
    "hybrid": frozenset({"k", "k1", "k2", "order_policy"}),
}

#: settings that only the symbolic tdd backend interprets
_TDD_ONLY_FIELDS = ("method", "strategy", "jobs", "slice_depth",
                    "method_params")

#: CLI / legacy defaults for the per-method parameters (Table I values)
_CLI_METHOD_DEFAULTS = {
    "basic": {},
    "addition": {"k": 1},
    "contraction": {"k1": 4, "k2": 4},
    "hybrid": {"k": 1, "k1": 4, "k2": 4},
}


def _warn_legacy(old: str, stacklevel: int = 3) -> None:
    warnings.warn(
        f"{old} is deprecated; build a repro.mc.config.CheckerConfig and "
        f"pass it as `config` instead",
        DeprecationWarning, stacklevel=stacklevel)


@dataclass(frozen=True)
class CheckerConfig:
    """One validated, immutable engine configuration.

    ``method_params`` are the image-method parameters (``k`` for
    addition, ``k1``/``k2``/``order_policy`` for contraction, all of
    them for hybrid); ``jobs``/``slice_depth`` configure the sliced
    execution strategy; ``max_qubits`` raises the dense backend's size
    guard.  ``direction`` selects forward (image) or backward
    (preimage, against the adjoint Kraus family) analysis and ``bound``
    depth-limits reachability fixpoints (0 = run to saturation);
    ``driver`` picks the fixpoint schedule
    (:mod:`repro.mc.drivers`: ``sequential`` / ``opsharded`` /
    ``frontier``) — all three are honoured by *both* backends.  Every
    mismatch is rejected at construction time.
    """

    backend: str = "tdd"
    method: str = "contraction"
    strategy: str = "monolithic"
    jobs: Optional[int] = None
    slice_depth: int = DEFAULT_SLICE_DEPTH
    method_params: Mapping[str, object] = field(default_factory=dict)
    max_qubits: Optional[int] = None
    direction: str = "forward"
    bound: int = 0
    driver: str = DEFAULT_DRIVER

    def __post_init__(self) -> None:
        # freeze a private copy so a caller-held dict cannot mutate us
        object.__setattr__(self, "method_params", dict(self.method_params))
        self.validate()

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Reject unknown names and mismatched parameters loudly."""
        if self.backend not in BACKENDS:
            raise ConfigError(f"unknown backend {self.backend!r}; "
                              f"choose from {BACKENDS}")
        if self.method not in METHODS:
            raise ConfigError(f"unknown image method {self.method!r}; "
                              f"choose from {METHODS}")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}; "
                              f"choose from {STRATEGIES}")
        if self.direction not in DIRECTIONS:
            raise ConfigError(f"unknown direction {self.direction!r}; "
                              f"choose from {DIRECTIONS}")
        if self.driver not in DRIVERS:
            raise ConfigError(f"unknown driver {self.driver!r}; "
                              f"choose from {DRIVERS}")
        if not isinstance(self.bound, int) or self.bound < 0:
            raise ConfigError(f"bound must be a non-negative integer "
                              f"(0 = unbounded), got {self.bound!r}")
        allowed = METHOD_PARAMS[self.method]
        unknown = set(self.method_params) - allowed
        if unknown:
            hints = []
            for name in sorted(unknown):
                owners = sorted(method for method, params
                                in METHOD_PARAMS.items() if name in params)
                hints.append(f"{name!r}"
                             + (f" (a parameter of {', '.join(owners)})"
                                if owners else ""))
            raise ConfigError(
                f"method {self.method!r} does not take {', '.join(hints)}; "
                f"it accepts {sorted(allowed) if allowed else 'no parameters'}")
        if self.jobs is not None:
            if not isinstance(self.jobs, int) or self.jobs < 1:
                raise ConfigError(f"jobs must be a positive integer, "
                                  f"got {self.jobs!r}")
            if self.strategy != "sliced":
                raise ConfigError(
                    f"jobs={self.jobs} only applies to the sliced "
                    f"strategy; got strategy={self.strategy!r}")
        if not isinstance(self.slice_depth, int) or self.slice_depth < 0:
            raise ConfigError(f"slice_depth must be a non-negative "
                              f"integer, got {self.slice_depth!r}")
        if (self.slice_depth != DEFAULT_SLICE_DEPTH
                and self.strategy != "sliced"):
            raise ConfigError(
                f"slice_depth={self.slice_depth} only applies to the "
                f"sliced strategy; got strategy={self.strategy!r}")
        if self.backend == "dense":
            offending = [name for name in _TDD_ONLY_FIELDS
                         if getattr(self, name) != _DEFAULTS[name]]
            if offending:
                raise ConfigError(
                    f"{', '.join(offending)} are tdd-only options; the "
                    f"dense backend would silently ignore them — remove "
                    f"them or use backend='tdd'")
            if self.max_qubits is not None and (
                    not isinstance(self.max_qubits, int)
                    or self.max_qubits < 1):
                raise ConfigError(f"max_qubits must be a positive "
                                  f"integer, got {self.max_qubits!r}")
        elif self.max_qubits is not None:
            raise ConfigError("max_qubits is a dense-only option; the "
                              "tdd backend has no dimension guard")

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_kwargs(cls, backend: str = "tdd",
                    method: str = "contraction",
                    strategy: str = "monolithic",
                    jobs: Optional[int] = None,
                    slice_depth: int = DEFAULT_SLICE_DEPTH,
                    max_qubits: Optional[int] = None,
                    method_params: Optional[Mapping] = None,
                    direction: str = "forward",
                    bound: int = 0,
                    driver: str = DEFAULT_DRIVER,
                    **params) -> "CheckerConfig":
        """The legacy keyword spelling, with the legacy tolerance.

        Old call sites passed tdd knobs alongside ``backend="dense"``
        (or ``jobs`` without the sliced strategy) and relied on them
        being dropped; this shim reproduces that so deprecated
        constructors keep working.  New code should construct
        :class:`CheckerConfig` directly and get strict validation.
        """
        merged = dict(method_params or {})
        merged.update(params)
        if strategy != "sliced":
            jobs = None
            slice_depth = DEFAULT_SLICE_DEPTH
        if backend == "dense":
            return cls(backend="dense", max_qubits=max_qubits,
                       direction=direction, bound=bound, driver=driver)
        return cls(backend=backend, method=method, strategy=strategy,
                   jobs=jobs, slice_depth=slice_depth,
                   method_params=merged, direction=direction, bound=bound,
                   driver=driver)

    @classmethod
    def from_cli_args(cls, args) -> "CheckerConfig":
        """Build a config from an argparse namespace (strictly).

        Explicit tdd-only flags combined with ``--backend dense`` raise
        a :class:`~repro.errors.ConfigError` instead of vanishing (the
        silent-drop bug the old CLI had); flags still at their argparse
        defaults are treated as unset.
        """
        backend = getattr(args, "backend", "tdd")
        method = getattr(args, "method", "contraction")
        strategy = getattr(args, "strategy", "monolithic")
        jobs = getattr(args, "jobs", None)
        slice_depth = getattr(args, "slice_depth", DEFAULT_SLICE_DEPTH)
        direction = getattr(args, "direction", "forward")
        bound = getattr(args, "bound", 0)
        driver = getattr(args, "driver", DEFAULT_DRIVER)
        method_params = {}
        for name in sorted(METHOD_PARAMS[method]):
            if hasattr(args, name):
                method_params[name] = getattr(args, name)
        if backend == "dense":
            # flags left at their CLI defaults were not asked for;
            # anything else reaches validate() and is rejected there
            if method == "contraction" and (
                    method_params == _CLI_METHOD_DEFAULTS["contraction"]):
                method = "contraction"
                method_params = {}
            return cls(backend="dense", method=method,
                       strategy=strategy, jobs=jobs,
                       slice_depth=slice_depth,
                       method_params=method_params,
                       direction=direction, bound=bound, driver=driver)
        return cls(backend=backend, method=method, strategy=strategy,
                   jobs=jobs, slice_depth=slice_depth,
                   method_params=method_params,
                   direction=direction, bound=bound, driver=driver)

    def replace(self, **changes) -> "CheckerConfig":
        """A copy with the given fields replaced (re-validated)."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    # round-trips
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """A JSON-able dict; defaults are included for explicitness."""
        return {"backend": self.backend, "method": self.method,
                "strategy": self.strategy, "jobs": self.jobs,
                "slice_depth": self.slice_depth,
                "method_params": dict(self.method_params),
                "max_qubits": self.max_qubits,
                "direction": self.direction, "bound": self.bound,
                "driver": self.driver}

    @classmethod
    def from_dict(cls, data: Mapping) -> "CheckerConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown CheckerConfig fields "
                              f"{sorted(unknown)}; known: {sorted(known)}")
        return cls(**dict(data))

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CheckerConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ConfigError(f"a CheckerConfig JSON document must be an "
                              f"object, got {type(data).__name__}")
        return cls.from_dict(data)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """A one-line human-readable echo (CLI output, CheckResult)."""
        parts = [f"backend={self.backend}"]
        if self.direction != "forward":
            parts.append(f"direction={self.direction}")
        if self.bound:
            parts.append(f"bound={self.bound}")
        if self.driver != DEFAULT_DRIVER:
            parts.append(f"driver={self.driver}")
        if self.backend == "tdd":
            parts.append(f"method={self.method}")
            if self.strategy != "monolithic":
                parts.append(f"strategy={self.strategy}")
                if self.jobs:
                    parts.append(f"jobs={self.jobs}")
                if self.slice_depth != DEFAULT_SLICE_DEPTH:
                    parts.append(f"slice_depth={self.slice_depth}")
            for name in sorted(self.method_params):
                parts.append(f"{name}={self.method_params[name]}")
        elif self.max_qubits is not None:
            parts.append(f"max_qubits={self.max_qubits}")
        return " ".join(parts)


#: the field defaults, used to detect "explicitly set" tdd-only
#: options — derived from the dataclass so the two cannot drift
_DEFAULTS = {f.name: (f.default_factory() if f.default is MISSING
                      else f.default)
             for f in fields(CheckerConfig)
             if f.name in _TDD_ONLY_FIELDS}


def coerce_config(config, legacy_kwargs: dict, *,
                  owner: str) -> CheckerConfig:
    """Resolve the ``config``-or-legacy-kwargs calling convention.

    Shared by the constructors that accept both the new ``config``
    object and the deprecated keyword spelling.  Passing both is an
    error; the legacy spelling emits a :class:`DeprecationWarning`.
    """
    if config is not None and legacy_kwargs:
        raise ConfigError(f"{owner} takes either a CheckerConfig or the "
                          f"legacy keyword arguments "
                          f"{sorted(legacy_kwargs)}, not both")
    if config is not None:
        if not isinstance(config, CheckerConfig):
            raise ConfigError(f"{owner} config must be a CheckerConfig, "
                              f"got {type(config).__name__}")
        return config
    if legacy_kwargs:
        _warn_legacy(f"{owner} with engine keyword arguments "
                     f"{sorted(legacy_kwargs)}", stacklevel=4)
        return CheckerConfig.from_kwargs(**legacy_kwargs)
    return CheckerConfig()
