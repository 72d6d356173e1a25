"""Uniform entry point for image computation.

The **method** selects which of the paper's four algorithms partitions
the transition relation (``basic``, ``addition``, ``contraction``,
``hybrid``).  :class:`ImageEngine` binds a method computer to a system
and a direction; the module-level :func:`compute_image` is the
one-shot convenience wrapper used throughout the benchmarks and the
CLI.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigError, ReproError
from repro.image.addition import AdditionImageComputer
from repro.image.base import ImageComputerBase, ImageResult
from repro.image.basic import BasicImageComputer
from repro.image.contraction import ContractionImageComputer
from repro.image.hybrid import HybridImageComputer
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
            raise ConfigError(f"basic method takes no parameters, got "
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
    """An image computer bound to a system and a direction.

    Reusing one engine across calls reuses the computer's cached
    operator diagrams — the intended shape for reachability fixpoints
    and sweeps.

    ``direction="backward"`` switches the engine to *preimage* mode:
    the computer is built against the adjoint system
    (:meth:`~repro.systems.qts.QuantumTransitionSystem.adjoint`), so
    every method partitions the Kraus-dagger transition relation, with
    the adjoint operator TDDs cached across calls exactly like the
    forward ones.
    """

    def __init__(self, qts: QuantumTransitionSystem,
                 method: str = "basic",
                 direction: str = "forward",
                 config=None,
                 **params) -> None:
        if config is not None:
            # a repro.mc.config.CheckerConfig: the validated single
            # source of truth — it overrides the loose kwargs entirely
            if params or method != "basic" or direction != "forward":
                raise ReproError("pass either config= or the individual "
                                 "method/direction keyword arguments, "
                                 "not both")
            if config.backend != "tdd":
                raise ReproError(
                    f"ImageEngine runs the symbolic tdd engine; got a "
                    f"config for backend={config.backend!r}")
            method = config.method
            direction = config.direction
            params = dict(config.method_params)
        validate_direction(direction)
        self.qts = qts
        self.method = method
        self.direction = direction
        #: the system whose transition relation is contracted — the
        #: adjoint one in preimage mode (same manager, same space)
        self.system = qts if direction == "forward" else qts.adjoint()
        self.computer = make_computer(self.system, method, **params)

    # ------------------------------------------------------------------
    def compute_image(self, subspace: Optional[Subspace] = None,
                      gc: bool = True) -> ImageResult:
        """Compute ``T(S)`` and record the full kernel cost profile."""
        stats = StatsRecorder()
        manager = self.qts.manager
        baseline = manager.cache_counters()
        watch = Stopwatch().start()
        result = self.computer.image(subspace, stats)
        stats.seconds = watch.stop()
        if gc:
            manager.collect()
        stats.record_manager(manager, baseline)
        return result

    def __repr__(self) -> str:
        return (f"ImageEngine(method={self.method!r}, "
                f"direction={self.direction!r})")


def compute_image(qts: QuantumTransitionSystem,
                  subspace: Optional[Subspace] = None,
                  method: str = "basic", gc: bool = True,
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
    node count, operation-cache hit/miss counts for this run and —
    after the post-run garbage collection (skipped with ``gc=False``) —
    the peak and surviving live-node populations of the manager.
    """
    engine = ImageEngine(qts, method, direction=direction, config=config,
                         **params)
    return engine.compute_image(subspace, gc=gc)
