"""Smoke benchmark: one small Table-1 row per image method, <60 s total.

Runs a single benchmark instance through all four image computation
methods (basic / addition / contraction / hybrid) and prints the Table
I columns plus the kernel instrumentation — cache hit rate and the
post-GC/peak live-node population.  CI runs this to catch perf or
instrumentation regressions without paying for the full Table I grid.

Run:  ``python -m repro.bench.smoke [--model grover] [--size 6]``
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional

from repro.bench.runner import run_image_benchmark
from repro.systems import models
from repro.utils.tables import format_table

#: method name -> image parameters (Table I settings + the hybrid row)
SMOKE_METHODS: Dict[str, dict] = {
    "basic": {},
    "addition": {"k": 1},
    "contraction": {"k1": 4, "k2": 4},
    "hybrid": {"k": 1, "k1": 4, "k2": 4},
}

_BUILDERS: Dict[str, Callable[[int], object]] = {
    "ghz": models.ghz_qts,
    "bv": models.bv_qts,
    "qft": models.qft_qts,
    "grover": lambda n: models.grover_qts(n, iterations=2),
    "qrw": lambda n: models.qrw_qts(n, 0.1, steps=2),
}

def smoke_rows(model: str = "grover", size: int = 6) -> List:
    builder = _BUILDERS[model]
    label = f"{model}{size}"
    return [run_image_benchmark(lambda: builder(size), label, method,
                                **params)
            for method, params in SMOKE_METHODS.items()]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="grover",
                        choices=sorted(_BUILDERS))
    parser.add_argument("--size", type=int, default=6)
    args = parser.parse_args(argv)
    rows = smoke_rows(args.model, args.size)
    headers = ["Benchmark", "method", "time [s]", "max#node", "dim",
               "cache hit%", "live/peak nodes"]
    table = [[row.benchmark, row.method, f"{row.seconds:.2f}",
              str(row.max_nodes), str(row.dimension),
              row.hit_rate_percent,
              f"{row.live_nodes}/{row.peak_live_nodes}"]
             for row in rows]
    print("Smoke benchmark — one Table-1 row per method")
    print(format_table(headers, table))
    # all four methods must compute the same image dimension
    dims = {row.dimension for row in rows}
    if len(dims) != 1:
        print(f"FAIL: methods disagree on image dimension: {dims}")
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
