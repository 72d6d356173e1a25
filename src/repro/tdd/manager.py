"""The TDD manager: unique table, normalisation, caches and GC.

Every TDD computation happens inside one :class:`TDDManager`.  The
manager owns

* the global :class:`~repro.indices.order.IndexOrder` the diagrams are
  canonical against,
* the *unique table* interning nodes (structural equality becomes
  object identity),
* the instrumented :class:`~repro.tdd.cache.OperationCache` memo tables
  for addition and contraction (hit/miss counters, optional bounded
  size),
* a weak registry of live :class:`~repro.tdd.tdd.TDD` handles that
  drives root-based mark-and-sweep garbage collection
  (:meth:`collect`), and
* counters used by the benchmark harness (current/peak live nodes,
  total nodes made, nodes reclaimed).

The kernel is fully iterative (see :mod:`repro.tdd.apply`), so the
manager never touches the interpreter recursion limit.

Normalisation rule (DESIGN.md Section 3): when a node is created, its two
outgoing edge weights are divided by the weight of largest magnitude
(ties resolved toward the low edge), which becomes the weight of the
incoming edge.  Together with interning this makes the representation
canonical for a fixed index order.  Every weight is a python
``complex`` scalar.
"""

from __future__ import annotations

import weakref
from typing import Dict, Iterable, Optional, Tuple

from repro.config import WEIGHT_DECIMALS, WEIGHT_EPS
from repro.indices.index import Index
from repro.indices.order import IndexOrder
from repro.tdd.cache import OperationCache
from repro.tdd.node import Edge, Node, TERMINAL_LEVEL

#: the canonical weight of the normalising child edge: ``w / w`` clamps
#: and rounds to exactly this for every finite non-zero ``w``
_ONE = complex(1.0, 0.0)


def _add_cache_ids(key: tuple, value: Edge) -> Tuple[int, int, int]:
    # key = ((re, im, id_a), (re, im, id_b))
    return (key[0][2], key[1][2], id(value.node))


def _cont_cache_ids(key: tuple, value: Edge) -> Tuple[int, int, int]:
    # key = (id_a, id_b, sum_levels)
    return (key[0], key[1], id(value.node))


class TDDManager:
    """Owner of all nodes, caches and the index order for a family of TDDs.

    ``cache_size`` bounds each operation cache (FIFO eviction); ``None``
    means unbounded, the right default for one-shot computations.  Long
    reachability runs combine a bound with periodic :meth:`collect`
    calls to keep the working set flat.
    """

    def __init__(self, order: Optional[IndexOrder] = None,
                 cache_size: Optional[int] = None) -> None:
        self.order = order if order is not None else IndexOrder()
        self.terminal = Node(TERMINAL_LEVEL, None, None)
        self._unique: Dict[tuple, Node] = {}
        self.add_cache = OperationCache("add", max_size=cache_size,
                                        key_ids=_add_cache_ids)
        self.cont_cache = OperationCache("cont", max_size=cache_size,
                                         key_ids=_cont_cache_ids)
        #: live TDD handles; their roots pin nodes during :meth:`collect`
        self._handles: "weakref.WeakSet" = weakref.WeakSet()
        #: total number of distinct non-terminal nodes ever interned
        self.nodes_made: int = 0
        #: high-water mark of the unique table size
        self.peak_live_nodes: int = 0
        #: number of :meth:`collect` runs / nodes they reclaimed
        self.gc_runs: int = 0
        self.nodes_reclaimed: int = 0

    # ------------------------------------------------------------------
    # index registration
    # ------------------------------------------------------------------
    def register(self, index: Index) -> int:
        """Register ``index`` in the manager's order; return its level."""
        return self.order.register(index)

    def register_all(self, indices: Iterable[Index]) -> None:
        self.order.register_all(indices)

    def level(self, index: Index) -> int:
        return self.order.level(index)

    # ------------------------------------------------------------------
    # edges and nodes
    # ------------------------------------------------------------------
    def zero_edge(self) -> Edge:
        return Edge(0j, self.terminal)

    def scalar_edge(self, value: complex) -> Edge:
        value = complex(value)
        if value == 0:
            return self.zero_edge()
        return Edge(value, self.terminal)

    def make_edge(self, weight: complex, node: Node) -> Edge:
        """Build an edge (exact-zero weight ⇒ the zero edge).

        Outer weights are kept at full precision: clamping or rounding
        here would be scale-dependent and destroy small amplitudes
        (e.g. 2^-n/2 root weights of wide superpositions).  Rounding
        happens only on the normalised child weights in
        :meth:`make_node`.
        """
        if weight == 0:
            return Edge(0j, self.terminal)
        return Edge(complex(weight), node)

    def make_node(self, level: int, low: Edge, high: Edge) -> Edge:
        """Intern a node branching on ``level``; returns a normalised edge.

        Applies the two TDD reduction rules: a node whose outgoing edges
        are identical is redundant (return the common edge), and edge
        weights are normalised by the largest-magnitude weight.  The
        normalised (relative) child weights are rounded to the canonical
        grid; children negligible *relative to their sibling* are
        clamped to zero, which is what keeps float cancellation noise
        out of the diagrams.

        The clamp-then-round is :func:`repro.tdd.weights.canonical`,
        inlined: the normalising child's ratio is exactly ``1`` and
        only the other one is computed.  The unique table is keyed on
        the flat tuple ``(level, re0, im0, id0, re1, im1, id1)``.
        """
        w0 = low.weight
        w1 = high.weight
        if w0 == 0 and w1 == 0:
            return Edge(0j, self.terminal)
        n0 = low.node
        n1 = high.node
        if n0 is n1 and w0 == w1:
            return Edge(w0, n0)
        # normalisation: divide by the larger-magnitude weight (tie: low)
        low_norm = abs(w0) >= abs(w1)
        if low_norm:
            norm = w0
            ratio = w1 / w0
        else:
            norm = w1
            ratio = w0 / w1
        re = ratio.real
        im = ratio.imag
        # clamp before round; ``+ 0.0`` folds -0.0 into +0.0
        re = 0.0 if -WEIGHT_EPS < re < WEIGHT_EPS \
            else round(re, WEIGHT_DECIMALS) + 0.0
        im = 0.0 if -WEIGHT_EPS < im < WEIGHT_EPS \
            else round(im, WEIGHT_DECIMALS) + 0.0
        vanished = re == 0.0 and im == 0.0
        if low_norm:
            if vanished:
                n1 = self.terminal
            key = (level, 1.0, 0.0, id(n0), re, im, id(n1))
            nw0, nw1 = _ONE, complex(re, im)
        else:
            if vanished:
                n0 = self.terminal
            key = (level, re, im, id(n0), 1.0, 0.0, id(n1))
            nw0, nw1 = complex(re, im), _ONE
        unique = self._unique
        node = unique.get(key)
        if node is None:
            node = Node(level, Edge(nw0, n0), Edge(nw1, n1))
            unique[key] = node
            self.nodes_made += 1
            if len(unique) > self.peak_live_nodes:
                self.peak_live_nodes = len(unique)
        return Edge(norm, node)

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    @property
    def live_nodes(self) -> int:
        """Number of distinct non-terminal nodes currently interned."""
        return len(self._unique)

    def clear_caches(self) -> None:
        """Drop the operation memo tables (keeps interned nodes)."""
        self.add_cache.clear()
        self.cont_cache.clear()

    def cache_counters(self) -> Dict[str, int]:
        """Cache counters, combined and per table, for instrumentation.

        The per-table ``add_*``/``cont_*`` counters feed the
        ``add_hit_rate``/``cont_hit_rate`` columns of the sweep CSV:
        addition and contraction caches behave very differently, and a
        combined rate hides which one is earning its memory.
        """
        return {
            "hits": self.add_cache.hits + self.cont_cache.hits,
            "misses": self.add_cache.misses + self.cont_cache.misses,
            "evictions": (self.add_cache.evictions
                          + self.cont_cache.evictions),
            "add_hits": self.add_cache.hits,
            "add_misses": self.add_cache.misses,
            "cont_hits": self.cont_cache.hits,
            "cont_misses": self.cont_cache.misses,
            "gc_runs": self.gc_runs,
            "nodes_reclaimed": self.nodes_reclaimed,
        }

    def reset(self) -> None:
        """Drop all nodes and caches.  Outstanding TDDs become invalid."""
        self._unique.clear()
        self.clear_caches()
        self.nodes_made = 0
        self.peak_live_nodes = 0

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------
    def _register_handle(self, handle) -> None:
        """Called by :class:`~repro.tdd.tdd.TDD` on construction."""
        self._handles.add(handle)

    def live_roots(self) -> list:
        """Root edges of every TDD handle still alive in Python."""
        return [handle.root for handle in self._handles]

    def collect(self, extra_roots: Iterable[Edge] = ()) -> int:
        """Root-based mark-and-sweep; returns the number of nodes freed.

        Every live :class:`~repro.tdd.tdd.TDD` handle (tracked weakly)
        pins the nodes reachable from its root; ``extra_roots`` pins
        additional raw edges.  Everything else leaves the unique table,
        and cache entries mentioning a reclaimed node are invalidated
        (a freed node's ``id`` may be recycled, so stale entries would
        be unsound, not just wasteful).

        Only call between operations: an apply in flight holds
        intermediate edges the registry cannot see, and sweeping those
        would break interning canonicity mid-computation.
        """
        marked = {id(self.terminal)}
        stack = []
        for root in self.live_roots():
            if not root.is_zero:
                stack.append(root.node)
        for root in extra_roots:
            if not root.is_zero:
                stack.append(root.node)
        while stack:
            node = stack.pop()
            if id(node) in marked:
                continue
            marked.add(id(node))
            if node.is_terminal:
                continue
            for child in (node.low, node.high):
                if not child.is_zero and id(child.node) not in marked:
                    stack.append(child.node)
        before = len(self._unique)
        self._unique = {key: node for key, node in self._unique.items()
                        if id(node) in marked}
        reclaimed = before - len(self._unique)
        self.add_cache.purge(marked)
        self.cont_cache.purge(marked)
        self.gc_runs += 1
        self.nodes_reclaimed += reclaimed
        return reclaimed

    # ------------------------------------------------------------------
    # operations (thin wrappers; implementations live in sibling modules)
    # ------------------------------------------------------------------
    def add(self, a: Edge, b: Edge) -> Edge:
        from repro.tdd.arithmetic import add_edges
        return add_edges(self, a, b)

    def contract(self, a: Edge, b: Edge, sum_levels: Tuple[int, ...]) -> Edge:
        from repro.tdd.contraction import contract_edges
        return contract_edges(self, a, b, sum_levels)

    def __repr__(self) -> str:
        return (f"TDDManager(indices={len(self.order)}, "
                f"live_nodes={self.live_nodes})")
