"""The iterative apply engine: explicit-work-stack TDD traversals.

Every structural TDD algorithm in this package used to be written as a
level-deep recursion, which forced the manager to raise the interpreter
recursion limit (benchmark circuits register thousands of levels).
This module replaces that with two explicit-stack schemes, so the whole
kernel runs under the interpreter's *default* recursion limit:

* a **binary apply** machine (:func:`add_apply`, :func:`contract_apply`)
  that simulates the recursion with ENTER/EXIT frames on a work stack
  and a value stack, memoised in the manager's instrumented
  :class:`~repro.tdd.cache.OperationCache` tables;
* a **unary rewrite** machine (:func:`unary_apply`) — a memoised
  postorder rebuild used by conjugation, renaming and slicing.

The result edges are bit-for-bit the same as the old recursive code:
the traversal order, normalisation and cache keys are unchanged; only
the call stack moved to the heap.

The binary machines are the kernel's hot loops and are written for a
scalar-only kernel (every weight a python ``complex``): ENTER frames
carry operands as ``(weight, node)`` pairs and cofactor inline from
``node.low``/``node.high``, the stack methods are bound locally, and
memo hits and misses are counted in local ints that reach the
:class:`~repro.tdd.cache.OperationCache` counters once per call.
"""

from __future__ import annotations

from typing import Callable, Optional, TYPE_CHECKING, Tuple

from repro.tdd.node import Edge, Node, TERMINAL_LEVEL

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tdd.manager import TDDManager

#: work-stack frame tags
_ENTER = 0
_EXIT = 1
#: contraction EXIT variants (which combine step to run)
_COMBINE_NODE = 2
_COMBINE_SUM = 3
_COMBINE_FACTOR = 4

#: weight of an operand that does not branch on the current level
_UNIT = 1 + 0j


def _store(cache):
    """The insert function of ``cache``: a plain dict store when the
    table is unbounded, the evicting :meth:`put` otherwise."""
    if cache.max_size is None:
        return cache.table.__setitem__
    return cache.put


# ----------------------------------------------------------------------
# binary apply: addition
# ----------------------------------------------------------------------
def add_apply(manager: "TDDManager", a: Edge, b: Edge) -> Edge:
    """Pointwise sum of two edges (iterative, memoised).

    ENTER frames carry the operands as ``(weight, node)`` pairs, so a
    cofactor is two field reads and a product, with no edge built.
    """
    cache = manager.add_cache
    table = cache.table
    put = _store(cache)
    make_node = manager.make_node
    zero = Edge(0j, manager.terminal)
    hits = misses = 0
    stack = [(_ENTER, a.weight, a.node, b.weight, b.node)]
    push = stack.append
    pop = stack.pop
    values = []
    emit = values.append
    take = values.pop
    try:
        while stack:
            frame = pop()
            if frame[0] == _ENTER:
                _, wa, na, wb, nb = frame
                if wa == 0:
                    emit(Edge(wb, nb) if wb != 0 else zero)
                    continue
                if wb == 0:
                    emit(Edge(wa, na))
                    continue
                if na is nb:
                    w = wa + wb
                    emit(Edge(w, na) if w != 0 else zero)
                    continue
                # Raw (full-precision) keys: rounding here could alias
                # two different weights onto one cache entry and
                # silently return a wrong sum.
                ka = (wa.real, wa.imag, id(na))
                kb = (wb.real, wb.imag, id(nb))
                key = (ka, kb) if ka <= kb else (kb, ka)
                cached = table.get(key)
                if cached is not None:
                    hits += 1
                    emit(cached)
                    continue
                misses += 1
                # the (x=0, x=1) cofactors at the top level; an operand
                # that does not branch there is passed through as is
                la = na.level
                lb = nb.level
                level = la if la <= lb else lb
                if la == level:
                    lo = na.low
                    hi = na.high
                    a0w, a0n = wa * lo.weight, lo.node
                    a1w, a1n = wa * hi.weight, hi.node
                else:
                    a0w = a1w = wa
                    a0n = a1n = na
                if lb == level:
                    lo = nb.low
                    hi = nb.high
                    b0w, b0n = wb * lo.weight, lo.node
                    b1w, b1n = wb * hi.weight, hi.node
                else:
                    b0w = b1w = wb
                    b0n = b1n = nb
                push((_EXIT, key, level))
                push((_ENTER, a1w, a1n, b1w, b1n))
                push((_ENTER, a0w, a0n, b0w, b0n))
            else:
                _, key, level = frame
                high = take()
                low = take()
                result = make_node(level, low, high)
                put(key, result)
                emit(result)
    finally:
        cache.record(hits, misses)
    return values[0]


# ----------------------------------------------------------------------
# binary apply: contraction
# ----------------------------------------------------------------------
def contract_apply(manager: "TDDManager", a: Edge, b: Edge,
                   levels: Tuple[int, ...]) -> Edge:
    """Contract two edges over the sorted ``levels`` (iterative).

    Weights are factored out on entry so the memo key is
    ``(node, node, remaining-sum-levels)``; the EXIT frame re-applies
    the factored weight, exactly mirroring the recursive formulation.
    The factored operands are unit-weight nodes, so their cofactors
    are the nodes' own child edges, read directly.
    """
    cache = manager.cont_cache
    table = cache.table
    put = _store(cache)
    make_node = manager.make_node
    terminal = manager.terminal
    zero = Edge(0j, terminal)
    hits = misses = 0
    stack = [(_ENTER, a.weight, a.node, b.weight, b.node, levels)]
    push = stack.append
    pop = stack.pop
    values = []
    emit = values.append
    take = values.pop
    try:
        while stack:
            frame = pop()
            tag = frame[0]
            if tag == _ENTER:
                _, wa, na, wb, nb, levels = frame
                if wa == 0 or wb == 0:
                    emit(zero)
                    continue
                weight = wa * wb
                la = na.level
                lb = nb.level
                top = la if la <= lb else lb
                if top == TERMINAL_LEVEL:
                    # both operands are the terminal
                    w = weight * (2 ** len(levels))
                    emit(Edge(w, terminal) if w != 0 else zero)
                    continue
                ka, kb = id(na), id(nb)
                key = (ka, kb, levels) if ka <= kb else (kb, ka, levels)
                cached = table.get(key)
                if cached is not None:
                    hits += 1
                    w = cached.weight * weight
                    emit(Edge(w, cached.node) if w != 0 else zero)
                    continue
                misses += 1
                summed = levels[0] if levels else TERMINAL_LEVEL
                if summed < top:
                    # Neither operand depends on this summed index:
                    # factor 2.
                    push((_COMBINE_FACTOR, key, weight))
                    push((_ENTER, _UNIT, na, _UNIT, nb, levels[1:]))
                    continue
                if summed == top:
                    push((_COMBINE_SUM, key, weight))
                    remaining = levels[1:]
                else:
                    push((_COMBINE_NODE, key, weight, top))
                    remaining = levels
                if la == top:
                    lo = na.low
                    hi = na.high
                    a0w, a0n, a1w, a1n = lo.weight, lo.node, hi.weight, hi.node
                else:
                    a0w = a1w = _UNIT
                    a0n = a1n = na
                if lb == top:
                    lo = nb.low
                    hi = nb.high
                    b0w, b0n, b1w, b1n = lo.weight, lo.node, hi.weight, hi.node
                else:
                    b0w = b1w = _UNIT
                    b0n = b1n = nb
                push((_ENTER, a1w, a1n, b1w, b1n, remaining))
                push((_ENTER, a0w, a0n, b0w, b0n, remaining))
                continue
            if tag == _COMBINE_NODE:
                _, key, weight, top = frame
                high = take()
                low = take()
                result = make_node(top, low, high)
            elif tag == _COMBINE_SUM:
                _, key, weight = frame
                high = take()
                low = take()
                result = add_apply(manager, low, high)
            else:  # _COMBINE_FACTOR
                _, key, weight = frame
                inner = take()
                w = 2 * inner.weight
                result = Edge(w, inner.node) if w != 0 else zero
            put(key, result)
            w = result.weight * weight
            emit(Edge(w, result.node) if w != 0 else zero)
    finally:
        cache.record(hits, misses)
    return values[0]


# ----------------------------------------------------------------------
# unary rewrite: memoised postorder rebuild
# ----------------------------------------------------------------------
def unary_apply(manager: "TDDManager", edge: Edge,
                rebuild: Callable[[Node, Edge, Edge], Edge],
                shortcut: Optional[Callable[[Node], Optional[Edge]]] = None,
                weight_map: Callable[[complex], complex] = lambda w: w
                ) -> Edge:
    """Rebuild the diagram under ``edge`` bottom-up without recursion.

    ``rebuild(node, low, high)`` combines the already-rewritten child
    edges of an inner node into its replacement edge; ``shortcut(node)``
    may return a replacement immediately (terminal nodes always
    short-circuit to the unit edge); ``weight_map`` transforms every
    edge weight on the way down (e.g. complex conjugation).
    """
    if edge.is_zero:
        return manager.zero_edge()
    memo = {}
    zero = manager.zero_edge()
    make_edge = manager.make_edge

    def rewritten_child(e: Edge) -> Edge:
        if e.is_zero:
            return zero
        inner = memo[id(e.node)]
        return make_edge(weight_map(e.weight) * inner.weight, inner.node)

    stack = [(_ENTER, edge.node)]
    while stack:
        tag, node = stack.pop()
        if tag == _ENTER:
            if id(node) in memo:
                continue
            if node.is_terminal:
                memo[id(node)] = Edge(1 + 0j, node)
                continue
            if shortcut is not None:
                replacement = shortcut(node)
                if replacement is not None:
                    memo[id(node)] = replacement
                    continue
            stack.append((_EXIT, node))
            for child in (node.high, node.low):
                if not child.is_zero and id(child.node) not in memo:
                    stack.append((_ENTER, child.node))
        else:
            memo[id(node)] = rebuild(node, rewritten_child(node.low),
                                     rewritten_child(node.high))
    inner = memo[id(edge.node)]
    return make_edge(weight_map(edge.weight) * inner.weight, inner.node)
