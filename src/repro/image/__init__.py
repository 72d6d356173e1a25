"""Image computation for quantum transition systems (paper, Sections IV-V).

Four interchangeable algorithms (the *method* axis):

* :class:`~repro.image.basic.BasicImageComputer` — Algorithm 1:
  contract each Kraus circuit into one monolithic operator TDD, apply
  it to every basis state, join the results.
* :class:`~repro.image.addition.AdditionImageComputer` — Section V.A:
  slice the k highest-degree internal indices of the circuit's index
  graph and sum the per-slice contributions.
* :class:`~repro.image.contraction.ContractionImageComputer` — Section
  V.B: cut the circuit into blocks of at most k1 qubits and at most k2
  crossing multi-qubit gates per column, contract each block into a
  small TDD, and contract the state through the block network.
* :class:`~repro.image.hybrid.HybridImageComputer` — addition slicing
  over contraction-partitioned blocks (extension beyond the paper).

Use :func:`~repro.image.engine.compute_image` for a one-shot entry
point, or :class:`~repro.image.engine.ImageEngine` to hold the method
computer (and its cached operators) across calls.
"""

from repro.image.base import ImageResult
from repro.image.basic import BasicImageComputer
from repro.image.addition import AdditionImageComputer
from repro.image.contraction import ContractionImageComputer
from repro.image.hybrid import HybridImageComputer
from repro.image.engine import (ImageEngine, compute_image,
                                make_computer, METHODS)

__all__ = [
    "ImageResult", "BasicImageComputer", "AdditionImageComputer",
    "ContractionImageComputer", "HybridImageComputer",
    "ImageEngine", "compute_image", "make_computer",
    "METHODS",
]
