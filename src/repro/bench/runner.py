"""Shared benchmark plumbing.

A benchmark run builds a *fresh* QTS (so transition-TDD construction is
included in the measured time, matching the paper's methodology),
computes one image, and reports wall seconds + peak TDD node count —
the two columns of Table I — plus the kernel instrumentation: cache
hit rate and the peak/post-GC live-node population.

:class:`BenchRow` is the presentation type shared by the table
harnesses; batch execution itself lives in :mod:`repro.bench.sweep`
(the tables are thin wrappers over sweep specs) and
:meth:`BenchRow.from_record` adapts a sweep record into a table row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.image.engine import compute_image
from repro.systems.qts import QuantumTransitionSystem


@dataclass
class BenchRow:
    """One (benchmark, method) cell of Table I."""

    benchmark: str
    method: str
    seconds: float
    max_nodes: int
    dimension: int
    timed_out: bool = False
    #: fraction of operation-cache lookups answered from the memo tables
    cache_hit_rate: float = 0.0
    #: high-water mark of the manager's unique table during the run
    peak_live_nodes: int = 0
    #: unique-table population after the post-run garbage collection
    live_nodes: int = 0

    def metric_cells(self):
        """The per-method table columns: time, max#node, hit%, live/peak."""
        if self.timed_out:
            return ("-", "-", "-", "-")
        return (f"{self.seconds:.2f}", str(self.max_nodes),
                self.hit_rate_percent,
                f"{self.live_nodes}/{self.peak_live_nodes}")

    def cells(self):
        return (self.benchmark, self.method) + self.metric_cells()

    @property
    def hit_rate_percent(self) -> str:
        return f"{100 * self.cache_hit_rate:.0f}%"

    @classmethod
    def from_record(cls, record: dict) -> "BenchRow":
        """Adapt a :mod:`repro.bench.sweep` record into a table row."""
        if record.get("failed"):
            return cls(benchmark=record["label"], method=record["method"],
                       seconds=0.0, max_nodes=0, dimension=0,
                       timed_out=True)
        return cls(benchmark=record["label"], method=record["method"],
                   seconds=record["seconds"],
                   max_nodes=record["max_nodes"],
                   dimension=record["dimension"],
                   cache_hit_rate=record["cache_hit_rate"],
                   peak_live_nodes=record["peak_live_nodes"],
                   live_nodes=record["live_nodes"])


def run_image_benchmark(builder: Callable[[], QuantumTransitionSystem],
                        label: str, method: str,
                        timeout_seconds: Optional[float] = None,
                        **params) -> BenchRow:
    """Run one image computation and collect the Table I columns.

    The escape hatch for ad-hoc builders (tests, custom systems);
    named-model grids go through :mod:`repro.bench.sweep` instead.
    ``timeout_seconds`` is a *soft* cap checked after the run (pure
    Python cannot preempt a contraction); callers use generous caps and
    pre-sized workloads instead of relying on it.
    """
    qts = builder()
    result = compute_image(qts, method=method, **params)
    row = BenchRow(benchmark=label, method=method,
                   seconds=result.stats.seconds,
                   max_nodes=result.stats.max_nodes,
                   dimension=result.dimension,
                   cache_hit_rate=result.stats.cache_hit_rate,
                   peak_live_nodes=result.stats.peak_live_nodes,
                   live_nodes=result.stats.live_nodes)
    if timeout_seconds is not None and row.seconds > timeout_seconds:
        row.timed_out = True
    return row
