"""The batch sweep runner over a process pool.

A declarative grid of benchmark configurations (families x sizes x
methods x property specs) is fanned out over worker processes, one run
per configuration, with per-run kernel statistics and resumable
JSON/CSV artifacts.

Run:  python examples/parallel_sweep.py
"""

import tempfile

from repro.bench.sweep import SweepSpec, run_sweep


def main() -> None:
    # --- a declarative sweep: families x sizes x methods x specs ----
    # (the "specs" axis adds property-check rows whose verdicts land
    # in the CSV artifact next to the benchmark rows)
    spec = SweepSpec.from_dict({
        "name": "example",
        "models": ["ghz", "bv"],
        "sizes": [3, 4],
        "methods": ["basic", "contraction"],
        "specs": [None, "AG init"],
        "method_params": {"contraction": {"k1": 2, "k2": 2}},
    })
    with tempfile.TemporaryDirectory() as out_dir:
        result = run_sweep(spec, jobs=2, out_dir=out_dir, progress=print)
        print(f"{len(result.records)} runs -> {result.json_path}")
        # re-running against the same artifacts resumes (skips all):
        again = run_sweep(spec, jobs=2, out_dir=out_dir)
        print(f"resumed sweep skipped {again.skipped} of "
              f"{len(again.records)} runs")


if __name__ == "__main__":
    main()
