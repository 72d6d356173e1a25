"""Pointwise TDD arithmetic: addition, scaling, conjugation.

All functions operate on raw :class:`~repro.tdd.node.Edge` values inside
one manager; the index-set bookkeeping lives on the :class:`TDD`
wrapper.  The heavy lifting happens in :mod:`repro.tdd.apply` — an
explicit-work-stack engine, so none of these functions consume Python
stack proportional to the diagram depth.  Addition is memoised in the
manager's ``add_cache`` with a symmetric key, exploiting commutativity.
"""

from __future__ import annotations

from repro.tdd.apply import add_apply, unary_apply
from repro.tdd.manager import TDDManager
from repro.tdd.node import Edge

__all__ = ["add_edges", "scale_edge", "negate_edge", "conjugate_edge"]


def add_edges(manager: TDDManager, a: Edge, b: Edge) -> Edge:
    """Pointwise sum of two edges over the union of their index supports."""
    return add_apply(manager, a, b)


def scale_edge(manager: TDDManager, edge: Edge, factor: complex) -> Edge:
    """``factor`` times the tensor of ``edge``."""
    return manager.make_edge(edge.weight * factor, edge.node)


def negate_edge(manager: TDDManager, edge: Edge) -> Edge:
    return scale_edge(manager, edge, -1)


def conjugate_edge(manager: TDDManager, edge: Edge) -> Edge:
    """Entry-wise complex conjugate of the tensor of ``edge``."""
    return unary_apply(
        manager, edge,
        rebuild=lambda node, low, high: manager.make_node(node.level,
                                                          low, high),
        weight_map=lambda w: w.conjugate())
