"""Pluggable computation backends for model checking.

The :class:`~repro.mc.checker.ModelChecker` (and the CLI) can run every
check on one of two interchangeable engines:

* ``tdd`` — the symbolic TDD kernel (the paper's algorithms; scales
  with diagram size, not Hilbert-space dimension), or
* ``dense`` — the :mod:`repro.sim` statevector reference (explicitly
  exponential; Kraus matrices applied to dense basis vectors, subspaces
  closed by SVD).

Both are configured through one validated
:class:`~repro.mc.config.CheckerConfig` and return the same result
types (``ImageResult`` / ``ReachabilityTrace`` over TDD-backed
subspaces), so results cross-validate structurally:
:func:`cross_validate` runs an image — or a full temporal-spec check —
on both backends and compares the outcomes.  This is the
production-style guard rail for the symbolic engine: any divergence on
a small instance pinpoints a kernel bug before it ships at a scale
where the dense oracle can no longer follow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol

from repro.errors import ConfigError, ReproError
from repro.image.base import ImageResult
from repro.image.engine import compute_image, validate_direction
from repro.mc.config import CheckerConfig
from repro.mc.reachability import ReachabilityTrace, reachable_space
from repro.subspace.subspace import Subspace
from repro.systems.qts import QuantumTransitionSystem
from repro.utils.stats import StatsRecorder
from repro.utils.timing import Stopwatch

#: dense simulation is exponential; refuse silly sizes loudly
DENSE_MAX_QUBITS = 14


class Backend(Protocol):
    """One engine that can compute images and reachable spaces.

    ``direction``/``bound`` select forward or backward (preimage)
    analysis and depth-limited fixpoints, ``driver`` the fixpoint
    schedule (:mod:`repro.mc.drivers`); ``None`` means "use the
    engine's configured default".  ``warm_start`` seeds the fixpoint with
    a subspace known to lie inside the true reachable space — served
    by the in-memory :class:`~repro.mc.reachability.ReachabilityCache`
    or the disk-backed :class:`~repro.store.ResultStore`; both key on
    content fingerprints, so a seed computed by either backend (or in
    another process) warm-starts the other.
    """

    name: str

    def compute_image(self, qts: QuantumTransitionSystem,
                      subspace: Optional[Subspace] = None,
                      direction: Optional[str] = None) -> ImageResult:
        """``T(S)`` — or the preimage ``T^dagger(S)`` — with run stats."""
        ...

    def reachable(self, qts: QuantumTransitionSystem,
                  initial: Optional[Subspace] = None,
                  max_iterations: int = 0,
                  direction: Optional[str] = None,
                  bound: Optional[int] = None,
                  driver: Optional[str] = None,
                  warm_start: Optional[Subspace] = None
                  ) -> ReachabilityTrace:
        """The reachability fixpoint from ``initial`` (default ``S0``)."""
        ...


class TDDBackend:
    """The symbolic backend: delegates to the image/mc engine.

    Built from a tdd :class:`~repro.mc.config.CheckerConfig` (the
    default config when none is given).
    """

    name = "tdd"

    def __init__(self, config: Optional[CheckerConfig] = None) -> None:
        config = config if config is not None else CheckerConfig()
        if config.backend != "tdd":
            raise ConfigError(f"TDDBackend needs a tdd config, got "
                              f"backend={config.backend!r}")
        self.config = config

    # ------------------------------------------------------------------
    def compute_image(self, qts: QuantumTransitionSystem,
                      subspace: Optional[Subspace] = None,
                      direction: Optional[str] = None) -> ImageResult:
        cfg = self.config
        if direction is not None and direction != cfg.direction:
            cfg = cfg.replace(direction=direction)
        return compute_image(qts, subspace, config=cfg)

    def reachable(self, qts: QuantumTransitionSystem,
                  initial: Optional[Subspace] = None,
                  max_iterations: int = 0,
                  direction: Optional[str] = None,
                  bound: Optional[int] = None,
                  driver: Optional[str] = None,
                  warm_start: Optional[Subspace] = None
                  ) -> ReachabilityTrace:
        cfg = self.config
        return reachable_space(
            qts, cfg.method, initial=initial,
            max_iterations=max_iterations,
            direction=cfg.direction if direction is None else direction,
            bound=cfg.bound if bound is None else bound,
            driver=cfg.driver if driver is None else driver,
            warm_start=warm_start,
            **cfg.method_params)

    def __repr__(self) -> str:
        return f"TDDBackend(method={self.config.method!r})"


class DenseStatevectorBackend:
    """The dense reference backend (exponential; small instances only).

    Images are computed with explicit Kraus matrices on dense basis
    vectors (:class:`~repro.sim.subspace_dense.DenseSubspace`); the
    resulting orthonormal basis is lifted back into TDD states so the
    result type matches the symbolic backend exactly.

    :meth:`reachable` computes the definitional fixpoint
    ``S_{k+1} = S_k v T(S_k)`` under every driver: the image
    distributes over joins (Proposition 1), so both tdd schedules
    produce its dimension ladder and the dense backend is their
    common oracle.  ``direction`` and ``bound`` are the defaults a
    call falls back to when it passes ``None`` for them, as the tdd
    backend's config is; an explicit argument still wins.
    """

    name = "dense"

    def __init__(self, max_qubits: int = DENSE_MAX_QUBITS,
                 direction: str = "forward", bound: int = 0) -> None:
        self.max_qubits = max_qubits
        self.direction = validate_direction(direction)
        self.bound = bound

    # ------------------------------------------------------------------
    def _check_size(self, qts: QuantumTransitionSystem) -> None:
        if qts.num_qubits > self.max_qubits:
            raise ReproError(
                f"dense backend refuses {qts.num_qubits} qubits "
                f"(> {self.max_qubits}); it is exponential — use the "
                f"tdd backend, or raise max_qubits explicitly")

    @staticmethod
    def _kraus_matrices(qts: QuantumTransitionSystem) -> list:
        return [matrix for op in qts.operations
                for matrix in op.kraus_matrices()]

    @staticmethod
    def _to_dense(subspace: Subspace):
        from repro.sim.subspace_dense import DenseSubspace
        dim = 2 ** subspace.space.num_qubits
        vectors = [v.to_numpy().reshape(-1) for v in subspace.basis]
        return DenseSubspace.from_vectors(vectors, dim)

    @staticmethod
    def _to_subspace(qts: QuantumTransitionSystem, dense) -> Subspace:
        states = [qts.space.from_amplitudes(dense.basis[:, column])
                  for column in range(dense.dimension)]
        return qts.space.span(states)

    # ------------------------------------------------------------------
    def compute_image(self, qts: QuantumTransitionSystem,
                      subspace: Optional[Subspace] = None,
                      direction: Optional[str] = None) -> ImageResult:
        self._check_size(qts)
        if subspace is None:
            subspace = qts.initial
        backward = validate_direction(
            self.direction if direction is None else direction) == "backward"
        stats = StatsRecorder()
        stats.extra["backend"] = self.name
        watch = Stopwatch().start()
        kraus = self._kraus_matrices(qts)
        source = self._to_dense(subspace)
        dense = source.preimage(kraus) if backward else source.image(kraus)
        result = self._to_subspace(qts, dense)
        stats.seconds = watch.stop()
        stats.observe_nodes(result.projector.size())
        return ImageResult(result, stats)

    def reachable(self, qts: QuantumTransitionSystem,
                  initial: Optional[Subspace] = None,
                  max_iterations: int = 0,
                  direction: Optional[str] = None,
                  bound: Optional[int] = None,
                  driver: Optional[str] = None,
                  warm_start: Optional[Subspace] = None
                  ) -> ReachabilityTrace:
        self._check_size(qts)
        direction = validate_direction(
            self.direction if direction is None else direction)
        backward = direction == "backward"
        bound = self.bound if bound is None else bound
        current = initial if initial is not None else qts.initial
        if current.dimension == 0:
            raise ReproError("reachability from the zero subspace is "
                             "trivial; set an initial space first")
        if warm_start is not None:
            current = current.join(warm_start)
        kraus = self._kraus_matrices(qts)
        dense = self._to_dense(current)
        trace = ReachabilityTrace(subspace=current,
                                  dimensions=[dense.dimension],
                                  direction=direction, bound=bound)
        trace.stats.extra["backend"] = self.name
        if backward:
            trace.stats.extra["direction"] = "backward"
        limit = max_iterations if max_iterations > 0 else 2 ** qts.num_qubits
        if bound > 0:
            limit = min(limit, bound)
        watch = Stopwatch().start()
        for _ in range(limit):
            image = (dense.preimage(kraus) if backward
                     else dense.image(kraus))
            grown = dense.join(image)
            trace.iterations += 1
            trace.dimensions.append(grown.dimension)
            converged = grown.dimension == dense.dimension
            dense = grown
            if converged:
                break
        else:
            trace.converged = False
        trace.subspace = self._to_subspace(qts, dense)
        trace.stats.observe_nodes(trace.subspace.projector.size())
        trace.stats.seconds = watch.stop()
        return trace

    def __repr__(self) -> str:
        return f"DenseStatevectorBackend(max_qubits={self.max_qubits})"


def make_backend(config: Optional[CheckerConfig] = None) -> Backend:
    """Instantiate the backend a :class:`CheckerConfig` describes."""
    cfg = config if config is not None else CheckerConfig()
    if not isinstance(cfg, CheckerConfig):
        raise ConfigError(f"make_backend takes a CheckerConfig, got "
                          f"{type(cfg).__name__}")
    if cfg.backend == "tdd":
        return TDDBackend(cfg)
    return DenseStatevectorBackend(
        max_qubits=cfg.max_qubits if cfg.max_qubits is not None
        else DENSE_MAX_QUBITS,
        direction=cfg.direction, bound=cfg.bound)


# ----------------------------------------------------------------------
# cross-validation
# ----------------------------------------------------------------------
@dataclass
class CrossValidation:
    """Outcome of comparing the same computation on two backends.

    For an image comparison the dimensions are ``dim T(S)`` per
    backend; for a spec comparison (``cross_validate(..., spec=...)``)
    they are the reachable-space dimensions and the verdicts are
    recorded as well.
    """

    tdd_dimension: int
    dense_dimension: int
    agree: bool
    tdd_seconds: float
    dense_seconds: float
    spec: Optional[str] = None
    tdd_verdict: Optional[str] = None
    dense_verdict: Optional[str] = None
    tdd_trace_length: Optional[int] = None
    dense_trace_length: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.agree

    def __repr__(self) -> str:
        status = "agree" if self.agree else "DISAGREE"
        if self.spec is not None:
            return (f"CrossValidation({status} on {self.spec!r}: "
                    f"tdd={self.tdd_verdict}, dense={self.dense_verdict})")
        return (f"CrossValidation({status}: tdd dim={self.tdd_dimension}, "
                f"dense dim={self.dense_dimension})")


def cross_validate(qts: QuantumTransitionSystem,
                   subspace: Optional[Subspace] = None,
                   tol: float = 1e-7,
                   spec=None,
                   config: Optional[CheckerConfig] = None,
                   max_qubits: Optional[int] = None) -> CrossValidation:
    """Run the same computation on both backends and compare.

    Without ``spec``: one image ``T(S)`` per backend; agreement means
    equal dimension *and* mutual containment of the two subspaces
    (projector equality up to ``tol``).

    With ``spec`` (a spec string or AST, see :mod:`repro.mc.specs`):
    one full :meth:`~repro.mc.checker.ModelChecker.check` per backend;
    agreement means identical verdicts and reachable dimensions.

    ``config`` is the symbolic engine's configuration (the default
    config when omitted); the dense side shares its direction, bound
    and driver, and ``max_qubits`` raises the dense size guard.
    """
    from repro.mc.checker import ModelChecker
    tdd_config = config if config is not None else CheckerConfig()
    if tdd_config.backend != "tdd":
        raise ConfigError("cross_validate config must describe the "
                          "tdd engine; the dense side is implicit")
    dense_config = CheckerConfig(backend="dense",
                                 max_qubits=max_qubits,
                                 direction=tdd_config.direction,
                                 bound=tdd_config.bound,
                                 driver=tdd_config.driver)

    if spec is not None:
        symbolic = ModelChecker(qts, tdd_config).check(spec)
        dense = ModelChecker(qts, dense_config).check(spec)
        agree = (symbolic.verdict == dense.verdict
                 and symbolic.reachable_dimension
                 == dense.reachable_dimension
                 and symbolic.trace_length == dense.trace_length)
        return CrossValidation(
            tdd_dimension=symbolic.reachable_dimension,
            dense_dimension=dense.reachable_dimension,
            agree=agree,
            tdd_seconds=symbolic.stats.seconds,
            dense_seconds=dense.stats.seconds,
            spec=symbolic.spec,
            tdd_verdict=symbolic.verdict,
            dense_verdict=dense.verdict,
            tdd_trace_length=symbolic.trace_length,
            dense_trace_length=dense.trace_length)

    symbolic = make_backend(tdd_config).compute_image(
        qts, subspace, direction=tdd_config.direction)
    dense = make_backend(dense_config).compute_image(
        qts, subspace, direction=tdd_config.direction)
    agree = (symbolic.subspace.dimension == dense.subspace.dimension
             and symbolic.subspace.equals(dense.subspace, tol))
    return CrossValidation(
        tdd_dimension=symbolic.subspace.dimension,
        dense_dimension=dense.subspace.dimension,
        agree=agree,
        tdd_seconds=symbolic.stats.seconds,
        dense_seconds=dense.stats.seconds)
