"""The repository benchmark: end-to-end and per-layer metrics of three
workloads (see README.md in this directory).

Run from the root of a checkout::

    python3 perfbench/run.py --workload reach-qrw --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload reach-qrw --seed 1 --seconds 40 --trace 1
    python3 perfbench/run.py --workload sweep-store --seconds 40 --steadiness 5

A run generates the workload's inputs from ``--seed``, then spawns
fresh ``workload.py`` processes one after another (a closed loop of one
client) while another sample fits in ``--seconds``, and reports each
metric as the median over those samples.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced samples and
prints the per-layer metrics.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0
only when every answer matched its expected value.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workload as wl  # noqa: E402

WORKLOADS = tuple(wl.WORKLOADS)

#: end-to-end metrics every workload reports (the JSON line's metrics
#: with tracing off)
END_TO_END = {"wall_ref": "ref", "solve_ref": "ref", "setup_s": "s",
              "peak_rss_mb": "MB"}
#: end-to-end metrics of single workloads (printed in the report)
#: raw seconds behind the ``*_ref`` metrics (printed in the report)
RAW_END_TO_END = {"wall_s": "s", "solve_s": "s", "ref_s": "s"}
WORKLOAD_END_TO_END = {
    "reach-qrw": {"forward_s": "s", "backward_s": "s"},
    "image-table1": {"basic_s": "s", "addition_s": "s",
                     "contraction_s": "s"},
    "sweep-store": {"cold_pass_s": "s", "warm_pass_s": "s",
                    "checks_per_s": "1/s"},
}
#: per-layer metrics (the JSON line's metrics with tracing on)
PER_LAYER = {
    "subspace.add_state.calls": "count",
    "subspace.add_state.accepted": "count",
    "subspace.add_state.accept_ratio": "ratio",
    "subspace.add_state.self_s": "s",
    "tdd.contract.calls": "count",
    "tdd.contract.self_s": "s",
    "tdd.add.calls": "count",
    "tdd.add.self_s": "s",
    "tdd.collect.calls": "count",
    "tdd.collect.s": "s",
    "tdd.contractions": "count",
    "tdd.cache_hit_rate": "ratio",
    "tdd.peak_live_nodes": "count",
    "tdd.max_nodes": "count",
    "image.operator_build.calls": "count",
    "image.operator_build.s": "s",
    "image.partial_image.calls": "count",
    "image.partial_image.self_s": "s",
    "image.contract.calls": "count",
    "image.contract.s": "s",
    "mc.iterations": "count",
    "mc.advance.self_s": "s",
    "mc.witness.s": "s",
    "systems.build_model.s": "s",
    "import.s": "s",
    "store.lookup.calls": "count",
    "store.lookup.s": "s",
    "store.lookup.hits": "count",
    "store.store.calls": "count",
    "store.store.s": "s",
    "store.bytes": "bytes",
    "sweep.runs": "count",
    "sweep.jobs": "count",
    "sweep.pool_busy_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}
#: operations per sample, billed as failed when a sample crashes
OPERATIONS = {"reach-qrw": 2, "image-table1": 12, "sweep-store": 32}
#: a sample still running after this long is killed and counted failed
SAMPLE_TIMEOUT_S = 150.0
#: pool width of sweep-store; never more than the machine's cores
SWEEP_JOBS = min(2, os.cpu_count() or 1)


def make_inputs(workload: str, seed: int, sample: int) -> dict:
    """The inputs of one sample: the same seed and sample index give
    the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "reach-qrw":
        return {"start_position": rng.randrange(2 ** (wl.REACH_QRW_SIZE - 1))}
    if workload == "image-table1":
        sizes = {family: size for family, size, _ in wl.TABLE1_FAMILIES}
        bits = sizes["bv"] - 1
        # a fixed number of ones keeps the oracle's size seed-independent
        ones = set(rng.sample(range(bits), bits // 2))
        return {"qrw_start": rng.randrange(2 ** (sizes["qrw"] - 1)),
                "bv_secret": [int(i in ones) for i in range(bits)]}
    # the order decides where the long checks land in the pool, which
    # moves a pass by up to a fifth.  A new order per pair of samples,
    # run forwards then backwards, lets the run's median cover many
    # orders and puts each late check early in the pair's other half
    rng = random.Random(f"{workload}:{seed}:{sample // 2}")
    runs = (len(wl.SWEEP_MODELS) * len(wl.SWEEP_SIZES)
            * len(wl.SWEEP_DIRECTIONS))
    order = rng.sample(range(runs), runs)
    return {"order": order[::-1] if sample % 2 else order,
            "jobs": SWEEP_JOBS}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # one BLAS thread per process, and a fixed hash seed so set
    # iteration order (and with it every count) repeats across runs
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_sample(workload: str, inputs: dict, work_dir: str,
               trace_dir, dense_check: bool, timeout: float) -> dict:
    """Spawn one ``workload.py`` process; its result dict, or a crash
    record that bills every operation as failed."""
    os.makedirs(work_dir)
    payload = dict(inputs, workload=workload, work_dir=work_dir,
                   trace_dir=trace_dir, dense_check=dense_check)
    payload["spawn"] = time.monotonic()
    command = [sys.executable, os.path.join(HERE, "workload.py"),
               json.dumps(payload)]
    try:
        proc = subprocess.run(command, env=child_env(), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return _crashed(workload, f"timed out after {timeout:.0f} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return _crashed(workload, f"exit {proc.returncode}: "
                                  + " | ".join(tail))
    return json.loads(lines[-1])


def _crashed(workload: str, why: str) -> dict:
    ops = OPERATIONS[workload]
    return {"ops": ops, "failed": ops, "failures": [why], "e2e": None}


def warm_up() -> None:
    """Compile the package's bytecode once, untimed: a user's repeated
    calls do not pay for it."""
    subprocess.run([sys.executable, "-c", "import repro, repro.bench.sweep"],
                   env=child_env(), cwd=ROOT, check=True,
                   capture_output=True, timeout=SAMPLE_TIMEOUT_S)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            deadline_s: float = 170.0) -> dict:
    """One benchmark run: samples while another fits in ``seconds``."""
    started = time.monotonic()
    work_root = os.path.join(ROOT, ".perfbench-work", str(os.getpid()))
    plain, traced, failures = [], [], []
    took = {False: [], True: []}  # sample durations, untraced / traced
    attempted = failed = 0
    warm_up()
    try:
        while True:
            index = len(plain) + len(traced)
            tracing_this = trace and index % 2 == 1
            elapsed = time.monotonic() - started
            if plain and (traced or not trace):
                # stop before a sample that would run past the budget
                expected_s = statistics.median(took[tracing_this]
                                               or took[not tracing_this])
                if elapsed + expected_s > seconds:
                    break
            work_dir = os.path.join(work_root, f"sample-{index}")
            trace_dir = (os.path.join(work_dir, "spans") if tracing_this
                         else None)
            inputs = make_inputs(workload, seed, index)
            sample = run_sample(workload, inputs, work_dir, trace_dir,
                                dense_check=index == 0,
                                timeout=min(SAMPLE_TIMEOUT_S,
                                            max(deadline_s - elapsed, 1.0)))
            took[tracing_this].append(
                time.monotonic() - started - elapsed)
            attempted += sample["ops"]
            failed += sample["failed"]
            failures.extend(sample["failures"])
            if sample["e2e"] is None:
                break
            (traced if tracing_this else plain).append(sample)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_root))
        except OSError:
            pass  # another run still works there
    return {"workload": workload, "seed": seed,
            "inputs": make_inputs(workload, seed, 0),
            "plain": plain, "traced": traced, "attempted": attempted,
            "failed": failed, "failures": failures}


def medians(samples, key: str) -> dict:
    names = samples[0][key] if samples else {}
    return {name: statistics.median(s[key][name] for s in samples)
            for name in names}


def summarize(run: dict, trace: bool) -> dict:
    """The metrics of one run: medians over its samples."""
    e2e = medians(run["plain"], "e2e")
    if not trace:
        return e2e
    layers = medians(run["traced"], "layers")
    traced_wall = medians(run["traced"], "e2e").get("wall_s")
    if traced_wall is not None and e2e.get("wall_s"):
        layers["trace.overhead_ratio"] = traced_wall / e2e["wall_s"] - 1.0
    return layers


def report(run: dict, trace: bool) -> dict:
    """Print the readable report; return the result JSON object."""
    workload = run["workload"]
    print(f"perfbench {workload} seed={run['seed']} "
          f"inputs={json.dumps(run['inputs'])}"
          + (" (a new order each pair of samples)"
             if workload == "sweep-store" else ""))
    print(f"samples: {len(run['plain'])} untraced, {len(run['traced'])} "
          f"traced (fresh process each, closed loop of one client)")
    for sample in run["traced"][:1]:
        for target in sample.get("skipped_targets", []):
            print(f"trace: skipped missing target {target}")
    e2e = medians(run["plain"], "e2e")
    units = dict(END_TO_END, **RAW_END_TO_END,
                 **WORKLOAD_END_TO_END[workload])
    for name, unit in units.items():
        if name in e2e:
            print(f"  {name:<34} {e2e[name]:>14.6g} {unit}")
    ratio = run["failed"] / run["attempted"] if run["attempted"] else 1.0
    print(f"  {'failed_ratio':<34} {ratio:>14.6g} ratio "
          f"({run['failed']}/{run['attempted']})")
    metrics = summarize(run, trace)
    if trace:
        if workload == "sweep-store" and metrics.get("sweep.jobs") == 1:
            print("trace: the traced sweep ran with jobs=1")
        for name, unit in PER_LAYER.items():
            print(f"  {name:<34} {metrics.get(name, 0):>14.6g} {unit}")
    for failure in run["failures"][:20]:
        print(f"FAILED: {failure}")
    wanted = PER_LAYER if trace else END_TO_END
    correct = run["failed"] == 0 and all(name in metrics for name in wanted)
    return {"correct": correct, "attempted": run["attempted"],
            "failed": run["failed"],
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in wanted.items()
                        if name in metrics}}


def steadiness(workload: str, seed: int, seconds: float, runs: int,
               trace: bool) -> bool:
    """Run the workload ``runs`` times (seeds ``seed``..) and print,
    per metric, the median, quartiles and (Q3 - Q1) / median."""
    values: dict = {}
    ok = True
    for k in range(runs):
        run = measure(workload, seed + k, seconds, trace)
        ok = ok and run["failed"] == 0
        metrics = summarize(run, trace)
        for name, value in metrics.items():
            values.setdefault(name, []).append(value)
        print(f"run {k + 1}/{runs} seed={seed + k}: "
              + " ".join(f"{n}={v:.4g}" for n, v in metrics.items()
                         if n in END_TO_END), flush=True)
    print(f"{'metric':<34} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>8}")
    for name, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name:<34} {median:>10.4g} {q1:>10.4g} {q3:>10.4g} "
              f"{spread:>8.3f}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="K",
                        help="run K times (seeds SEED..SEED+K-1) and print "
                             "each metric's median, quartiles and spread")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}; run from the "
              f"root of a checkout", file=sys.stderr)
        return 2
    if args.steadiness:
        ok = steadiness(args.workload, args.seed, args.seconds,
                        max(2, args.steadiness), bool(args.trace))
        return 0 if ok else 1
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    result = report(run, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
