"""Table I regeneration: three image computation methods across the
five benchmark families.

The paper runs Grover/QFT/BV/GHZ/QRW at up to 500 qubits on a C++ TDD
engine; this pure-Python reproduction runs the same families with the
same three methods and the same parameters (addition k = 1, contraction
k1 = k2 = 4) at sizes scaled to interpreter speed.  Pass
``--scale paper`` to attempt the paper's original sizes for the
families where pure Python can reach them (GHZ/BV under contraction).

The grid itself is a :mod:`repro.bench.sweep` spec; ``--jobs N`` fans
the cells over a process pool and ``--out DIR`` makes the run
resumable (JSON/CSV artifacts).

Run:  ``python -m repro.bench.table1 [--scale small|medium|paper]``
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench.runner import BenchRow
from repro.bench.sweep import RunSpec, SweepSpec, run_sweep
from repro.mc.config import CheckerConfig
from repro.utils.tables import format_table

#: method name -> image-computation parameters (the Table I settings)
TABLE1_METHODS: Dict[str, dict] = {
    "basic": {},
    "addition": {"k": 1},
    "contraction": {"k1": 4, "k2": 4},
}

#: family -> ((model name, model params), sizes per scale, method skip)
#: Grover runs two composed iterations — the regime where the
#: monolithic operator TDD grows and the partition methods pay off
#: (EXPERIMENTS.md); QRW runs four composed walk steps.
FamilySpec = Tuple[Tuple[str, dict], Dict[str, List[int]],
                   Callable[[str, int], bool]]

FAMILIES: Dict[str, FamilySpec] = {
    "Grover": (
        ("grover", {"iterations": 2}),
        {"small": [6, 8], "medium": [6, 8, 9], "paper": [15, 18, 20, 40]},
        lambda method, size: method != "contraction" and size > 9,
    ),
    "QFT": (
        ("qft", {}),
        {"small": [8, 10], "medium": [8, 10, 12, 16, 20],
         "paper": [15, 18, 20, 30, 50, 100]},
        lambda method, size: method != "contraction" and size > 12,
    ),
    "BV": (
        ("bv", {}),
        {"small": [20, 40], "medium": [20, 40, 60, 100],
         "paper": [100, 200, 300, 400, 500]},
        lambda method, size: method != "contraction" and size > 100,
    ),
    "GHZ": (
        ("ghz", {}),
        {"small": [20, 40], "medium": [20, 40, 60, 100],
         "paper": [100, 200, 300, 400, 500]},
        lambda method, size: method != "contraction" and size > 100,
    ),
    "QRW": (
        ("qrw", {"noise_probability": 0.1, "steps": 4}),
        {"small": [5, 6], "medium": [5, 6, 7, 8], "paper": [15, 18, 20, 30]},
        lambda method, size: method != "contraction" and size > 8,
    ),
}


def _cell_config(method: str, params: dict) -> CheckerConfig:
    return CheckerConfig(method=method, method_params=dict(params))


def table1_spec(scale: str = "small",
                families: Optional[List[str]] = None) -> SweepSpec:
    """The Table I grid as a sweep spec (skipped cells excluded)."""
    runs: List[RunSpec] = []
    for family, ((model, model_params), size_map, skip) in FAMILIES.items():
        if families and family not in families:
            continue
        for size in size_map[scale]:
            for method, params in TABLE1_METHODS.items():
                if skip(method, size):
                    continue
                runs.append(RunSpec(
                    model=model, size=size,
                    config=_cell_config(method, params),
                    model_params=dict(model_params),
                    label=f"{family}{size}"))
    return SweepSpec(name=f"table1-{scale}", runs=runs)


def table1_rows(scale: str = "small",
                families: Optional[List[str]] = None,
                jobs: int = 1,
                out_dir: Optional[str] = None) -> List[BenchRow]:
    """Run the Table I grid and return one row per (family-size, method).

    Cells the skip rule excludes still appear (as timed-out dashes) so
    the printed table keeps the paper's layout.
    """
    spec = table1_spec(scale, families)
    result = run_sweep(spec, jobs=jobs, out_dir=out_dir)
    by_id = {record["run_id"]: record for record in result.records}
    rows: List[BenchRow] = []
    for family, ((model, model_params), size_map, skip) in FAMILIES.items():
        if families and family not in families:
            continue
        for size in size_map[scale]:
            label = f"{family}{size}"
            for method, params in TABLE1_METHODS.items():
                if skip(method, size):
                    rows.append(BenchRow(label, method, 0.0, 0, 0,
                                         timed_out=True))
                    continue
                run = RunSpec(model=model, size=size,
                              config=_cell_config(method, params),
                              model_params=dict(model_params),
                              label=label)
                rows.append(BenchRow.from_record(by_id[run.run_id]))
    return rows


def format_rows(rows: List[BenchRow]) -> str:
    """Paper-style layout: one line per benchmark, methods side by side."""
    by_label: Dict[str, Dict[str, BenchRow]] = {}
    order: List[str] = []
    for row in rows:
        if row.benchmark not in by_label:
            by_label[row.benchmark] = {}
            order.append(row.benchmark)
        by_label[row.benchmark][row.method] = row
    headers = ["Benchmark"]
    for method in TABLE1_METHODS:
        headers += [f"{method} time", f"{method} max#node",
                    f"{method} hit%", f"{method} live"]
    table: List[List[str]] = []
    for label in order:
        cells: List[str] = [label]
        for method in TABLE1_METHODS:
            row = by_label[label].get(method)
            if row is None:
                cells += ["-", "-", "-", "-"]
            else:
                cells += list(row.metric_cells())
        table.append(cells)
    return format_table(headers, table)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=["small", "medium", "paper"],
                        default="small")
    parser.add_argument("--family", action="append",
                        choices=sorted(FAMILIES),
                        help="restrict to a family (repeatable)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="concurrent grid cells (process pool)")
    parser.add_argument("--out", default=None,
                        help="artifact directory (resumable)")
    args = parser.parse_args(argv)
    rows = table1_rows(args.scale, args.family, jobs=args.jobs,
                       out_dir=args.out)
    print("Table I (reproduction) — image computation: time [s], max TDD "
          "nodes, cache hit rate, post-GC/peak live nodes")
    print(format_rows(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
