"""Uniform entry point for image computation.

Two orthogonal choices select how an image ``T(S)`` is computed:

* the **method** — which of the paper's four algorithms partitions the
  transition relation (``basic``, ``addition``, ``contraction``,
  ``hybrid``), and
* the **strategy** — how the resulting contractions execute:
  ``monolithic`` (sequential, in-process) or ``sliced`` (cofactor
  decomposition along top summed index levels, optionally fanned out
  over a process pool — see :mod:`repro.image.sliced`).

:class:`ImageEngine` bundles a method computer with an execution
strategy and owns the strategy's worker-pool lifecycle; the
module-level :func:`compute_image` remains the one-shot convenience
wrapper used throughout the benchmarks and the CLI.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ReproError
from repro.image.addition import AdditionImageComputer
from repro.image.base import ImageComputerBase, ImageResult
from repro.image.basic import BasicImageComputer
from repro.image.contraction import ContractionImageComputer
from repro.image.hybrid import HybridImageComputer
from repro.image.sliced import DEFAULT_SLICE_DEPTH, make_executor
from repro.subspace.subspace import Subspace
from repro.systems.qts import QuantumTransitionSystem
from repro.utils.stats import StatsRecorder
from repro.utils.timing import Stopwatch

METHODS = ("basic", "addition", "contraction", "hybrid")

#: image orientations: forward computes ``T(S)``, backward the
#: preimage ``T^dagger(S)`` (images of the adjoint system)
DIRECTIONS = ("forward", "backward")


def validate_direction(direction: str) -> str:
    """The single point of direction validation.

    Every layer that takes a ``direction`` — the engine, the backends,
    ``reachable_space`` — funnels through this check, so the error
    message is spelled once and callers simply propagate the
    :class:`~repro.errors.ReproError`.
    """
    if direction not in DIRECTIONS:
        raise ReproError(f"unknown direction {direction!r}; "
                         f"choose from {DIRECTIONS}")
    return direction


def make_computer(qts: QuantumTransitionSystem, method: str = "basic",
                  **params) -> ImageComputerBase:
    """Instantiate an image computer by method name.

    ``params``: ``k`` for addition, ``k1``/``k2``/``order_policy`` for
    contraction, all of them for hybrid.
    """
    if method == "basic":
        if params:
            raise ReproError(f"basic method takes no parameters, got "
                             f"{sorted(params)}")
        return BasicImageComputer(qts)
    if method == "addition":
        return AdditionImageComputer(qts, **params)
    if method == "contraction":
        return ContractionImageComputer(qts, **params)
    if method == "hybrid":
        return HybridImageComputer(qts, **params)
    raise ReproError(f"unknown image method {method!r}; "
                     f"choose from {METHODS}")


class ImageEngine:
    """An image computer bound to an execution strategy.

    The engine wires a :class:`~repro.image.sliced` executor into the
    chosen method's computer and owns the executor's process pool; use
    it as a context manager (or call :meth:`close`) when
    ``strategy="sliced"`` with ``jobs > 1`` so workers are reaped
    deterministically.  Reusing one engine across calls reuses the
    computer's cached operator diagrams *and* the executor's cofactor
    slices — the intended shape for reachability fixpoints and sweeps.

    ``direction="backward"`` switches the engine to *preimage* mode:
    the computer is built against the adjoint system
    (:meth:`~repro.systems.qts.QuantumTransitionSystem.adjoint`), so
    every method partitions — and every strategy executes — the
    Kraus-dagger transition relation, with the adjoint operator TDDs
    cached across calls exactly like the forward ones.
    """

    def __init__(self, qts: QuantumTransitionSystem,
                 method: str = "basic",
                 strategy: str = "monolithic",
                 jobs: Optional[int] = None,
                 slice_depth: int = DEFAULT_SLICE_DEPTH,
                 direction: str = "forward",
                 config=None,
                 **params) -> None:
        if config is not None:
            # a repro.mc.config.CheckerConfig: the validated single
            # source of truth — it overrides the loose kwargs entirely
            if params or method != "basic" or strategy != "monolithic" \
                    or jobs is not None or slice_depth != DEFAULT_SLICE_DEPTH \
                    or direction != "forward":
                raise ReproError("pass either config= or the individual "
                                 "method/strategy keyword arguments, "
                                 "not both")
            if config.backend != "tdd":
                raise ReproError(
                    f"ImageEngine runs the symbolic tdd engine; got a "
                    f"config for backend={config.backend!r}")
            method = config.method
            strategy = config.strategy
            jobs = config.jobs
            slice_depth = config.slice_depth
            direction = config.direction
            params = dict(config.method_params)
        validate_direction(direction)
        self.qts = qts
        self.method = method
        self.strategy = strategy
        self.jobs = jobs
        self.slice_depth = slice_depth
        self.direction = direction
        #: the system whose transition relation is contracted — the
        #: adjoint one in preimage mode (same manager, same space)
        self.system = qts if direction == "forward" else qts.adjoint()
        self.computer = make_computer(self.system, method, **params)
        self.computer.executor = make_executor(
            strategy, qts.manager, jobs=jobs, slice_depth=slice_depth)

    @property
    def executor(self):
        return self.computer.executor

    # ------------------------------------------------------------------
    def compute_image(self, subspace: Optional[Subspace] = None,
                      gc: bool = True) -> ImageResult:
        """Compute ``T(S)`` and record the full kernel cost profile."""
        stats = StatsRecorder()
        if self.strategy != "monolithic":
            stats.extra["strategy"] = self.strategy
        manager = self.qts.manager
        baseline = manager.cache_counters()
        watch = Stopwatch().start()
        result = self.computer.image(subspace, stats)
        stats.seconds = watch.stop()
        if gc:
            manager.collect()
        stats.record_manager(manager, baseline)
        return result

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the strategy's worker pool (idempotent)."""
        self.computer.executor.close()

    def __enter__(self) -> "ImageEngine":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"ImageEngine(method={self.method!r}, "
                f"strategy={self.strategy!r}, jobs={self.jobs}, "
                f"direction={self.direction!r})")


def compute_image(qts: QuantumTransitionSystem,
                  subspace: Optional[Subspace] = None,
                  method: str = "basic", gc: bool = True,
                  strategy: str = "monolithic",
                  jobs: Optional[int] = None,
                  slice_depth: int = DEFAULT_SLICE_DEPTH,
                  direction: str = "forward",
                  config=None,
                  **params) -> ImageResult:
    """One-shot ``T(S)`` — or preimage ``T^dagger(S)`` — with run stats.

    Engine configuration comes either from a validated
    :class:`repro.mc.config.CheckerConfig` (``config=...``, the
    preferred spelling) or from the individual keyword arguments;
    ``direction="backward"`` computes the preimage (the image under
    the adjoint Kraus family).

    The returned :class:`ImageResult` stats carry wall time, peak TDD
    node count, operation-cache hit/miss counts for this run, sliced
    strategy counters (cofactors executed / shipped to the pool) and —
    after the post-run garbage collection (skipped with ``gc=False``) —
    the peak and surviving live-node populations of the manager.
    """
    with ImageEngine(qts, method, strategy=strategy, jobs=jobs,
                     slice_depth=slice_depth, direction=direction,
                     config=config, **params) as engine:
        return engine.compute_image(subspace, gc=gc)
