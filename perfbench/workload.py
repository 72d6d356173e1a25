"""One sample of one benchmark workload, in a fresh Python process.

``run.py`` spawns this script once per sample with the generated
inputs as one JSON argument; it prints one JSON object as its last
stdout line.  Interpreter start and ``import repro`` are part of the
sample, as they are for a ``repro`` command line call, while answers
are checked from the returned objects after the timed section.

Times use ``time.monotonic`` so they compare with the spawn time the
parent passes in (``CLOCK_MONOTONIC`` is system-wide on Linux).
"""

from __future__ import annotations

import importlib
import json
import multiprocessing
import os
import resource
import sys
import time

import expected

#: Table I method parameters (addition ``k``, contraction ``k1``/``k2``)
TABLE1_PARAMS = {
    "basic": {},
    "addition": {"k": 1},
    "contraction": {"k1": 4, "k2": 4},
}
#: (family, size, builder options) of the image-table1 workload
TABLE1_FAMILIES = (
    ("grover", 8, {"iterations": 2}),
    ("qft", 10, {}),
    ("bv", 40, {}),
    ("qrw", 6, {"steps": 4}),
)
#: families compared with a dense projector after the timed section
DENSE_MAX_QUBITS = 10
REACH_QRW_SIZE = 5
SWEEP_MODELS = ("grover", "ghz", "qrw", "bv")
SWEEP_SIZES = (3, 4)
SWEEP_DIRECTIONS = ("forward", "backward")
#: length of the reference loop (0.15 to 0.2 s on a 2 GHz Xeon vCPU)
REFERENCE_ITERATIONS = 1_500_000


class Timer:
    """Times the top-level API calls; their sum is ``solve_s``.  In a
    traced sample each call is also an ``api`` span whose run id (the
    call's label) its layer spans share."""

    def __init__(self, recorder=None) -> None:
        self.recorder = recorder
        self.solve_s = 0.0
        self.elapsed = 0.0

    def call(self, label: str, fn, *args, **kwargs):
        span = (self.recorder.open("api", label)
                if self.recorder is not None else None)
        start = time.monotonic()
        try:
            return fn(*args, **kwargs)
        finally:
            self.elapsed = time.monotonic() - start
            self.solve_s += self.elapsed
            if span is not None:
                self.recorder.close(span)


def reference_seconds() -> float:
    """Time of a fixed pure-Python integer loop: this machine's speed
    right now.  It allocates no containers and imports nothing, so no
    change to the program can speed it up or slow it down."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


def contraction_config(**fields):
    from repro import CheckerConfig
    return CheckerConfig(method="contraction",
                         method_params=TABLE1_PARAMS["contraction"],
                         **fields)


def kernel_counts(stats) -> dict:
    """Kernel counters over stats dicts (``StatsRecorder.as_dict()``
    or sweep records, which share these keys)."""
    hits = sum(s["cache_hits"] for s in stats)
    misses = sum(s["cache_misses"] for s in stats)
    return {
        "tdd.contractions": sum(s["contractions"] for s in stats),
        "tdd.cache_hit_rate": hits / (hits + misses) if hits + misses
        else 0.0,
        "tdd.peak_live_nodes": max(s["peak_live_nodes"] for s in stats),
        "tdd.max_nodes": max(s["max_nodes"] for s in stats),
    }


# ----------------------------------------------------------------------
# dense checks
# ----------------------------------------------------------------------
def orthonormal(vectors, tol=1e-9):
    """Orthonormal columns spanning ``vectors``."""
    import numpy as np
    u, s, _ = np.linalg.svd(np.stack(vectors, axis=1), full_matrices=False)
    return u[:, s > tol * max(1.0, s[0])]


def dense_vectors(subspace):
    return [v.to_numpy().reshape(-1) for v in subspace.basis]


def dense_image(vectors, operations):
    """Orthonormal span of every Kraus branch of ``operations`` applied
    to ``vectors``, with the program's dense Kraus matrices."""
    return orthonormal([k @ v for op in operations
                        for k in op.kraus_matrices() for v in vectors])


def projector(basis):
    return basis @ basis.conj().T


def replay_escapes(qts, symbols, target) -> bool:
    """Does the witness path, replayed densely from the initial space,
    reach a direction outside ``target``?"""
    import numpy as np
    basis = orthonormal(dense_vectors(qts.initial))
    for symbol in symbols:
        basis = dense_image(list(basis.T), [qts.operation(symbol)])
    inside = projector(orthonormal(dense_vectors(target)))
    return float(np.abs(basis - inside @ basis).max()) > 1e-6


# ----------------------------------------------------------------------
# workloads.  ``setup_*`` builds the inputs (billed to set-up time);
# ``run_*`` makes the timed API calls, calls ``results_returned`` when
# the last returns, then checks the answers and returns
# (phase times, counters, operations, failed operations, failures).
# ----------------------------------------------------------------------
def setup_reach_qrw(inputs):
    from repro import models
    return models.build_model("qrw", REACH_QRW_SIZE,
                              start_position=inputs["start_position"])


def run_reach_qrw(qts, inputs, timer, results_returned):
    from repro import ModelChecker, make_backend
    result = timer.call("forward", ModelChecker(qts, contraction_config())
                        .check, "AG start")
    forward_s = timer.elapsed
    backend = make_backend(contraction_config(direction="backward"))
    trace = timer.call("backward", backend.reachable, qts)
    backward_s = timer.elapsed
    results_returned()

    forward = []
    if result.holds != expected.REACH_FORWARD_HOLDS:
        forward.append(f"verdict {result.verdict}")
    if result.dimensions != expected.REACH_FORWARD_DIMENSIONS:
        forward.append(f"ladder {result.dimensions}")
    witness = result.witness_trace
    if witness is None or not witness.valid:
        forward.append(f"witness {witness!r}")
    elif (witness.symbols != expected.REACH_WITNESS_SYMBOLS
          or not replay_escapes(qts, witness.symbols,
                                qts.named_subspace("start"))):
        forward.append(f"witness replay {witness.symbols}")
    backward = []
    if (trace.dimensions != expected.REACH_BACKWARD_DIMENSIONS
            or not trace.converged):
        backward.append(f"ladder {trace.dimensions}")
    failures = ([f"forward: {p}" for p in forward]
                + [f"backward: {p}" for p in backward])
    counts = kernel_counts([result.stats.as_dict(), trace.stats.as_dict()])
    counts["mc.iterations"] = result.iterations + trace.iterations
    phases = {"forward_s": forward_s, "backward_s": backward_s}
    return phases, counts, 2, bool(forward) + bool(backward), failures


def setup_image_table1(inputs):
    from repro import models
    cells = []
    for family, size, options in TABLE1_FAMILIES:
        options = dict(options)
        if family == "bv":
            options["secret"] = inputs["bv_secret"]
        if family == "qrw":
            options["start_position"] = inputs["qrw_start"]
        for method in TABLE1_PARAMS:
            # a fresh model per cell: no cell inherits another's caches
            cells.append((family, size, method,
                          models.build_model(family, size, **options)))
    return cells


def run_image_table1(cells, inputs, timer, results_returned):
    import numpy as np
    from repro import CheckerConfig, compute_image
    phases = {f"{method}_s": 0.0 for method in TABLE1_PARAMS}
    results = []
    for family, size, method, qts in cells:
        config = CheckerConfig(method=method,
                               method_params=TABLE1_PARAMS[method])
        results.append(timer.call(f"{family}{size}/{method}",
                                  compute_image, qts, config=config))
        phases[f"{method}_s"] += timer.elapsed
    results_returned()

    failures = []
    dense = {}
    for (family, size, method, qts), result in zip(cells, results):
        problems = []
        if result.dimension != expected.TABLE1_DIMENSION[family]:
            problems.append(f"dimension {result.dimension}")
        if inputs["dense_check"] and size <= DENSE_MAX_QUBITS:
            if family not in dense:
                dense[family] = projector(dense_image(
                    dense_vectors(qts.initial), qts.operations))
            mine = projector(orthonormal(dense_vectors(result.subspace)))
            if not np.allclose(mine, dense[family], atol=1e-8):
                problems.append("projector differs from dense")
        if problems:
            failures.append(f"{family}{size}/{method}: "
                            + ", ".join(problems))
    counts = kernel_counts([r.stats.as_dict() for r in results])
    counts["mc.iterations"] = 0
    return phases, counts, len(results), len(failures), failures


def setup_sweep_store(inputs):
    from repro.bench.sweep import SweepSpec
    grid = SweepSpec.from_axes(
        "perfbench", SWEEP_MODELS, SWEEP_SIZES, methods=["contraction"],
        specs=["AG init"], directions=SWEEP_DIRECTIONS,
        method_params={"contraction": TABLE1_PARAMS["contraction"]})
    grid.runs = [grid.runs[i] for i in inputs["order"]]
    return grid


def run_sweep_store(grid, inputs, timer, results_returned):
    from repro.bench.sweep import run_sweep
    from repro.store import ResultStore
    store_dir = os.path.join(inputs["work_dir"], "store")
    jobs = inputs["jobs"]
    if inputs.get("trace_dir") and multiprocessing.get_start_method() \
            != "fork":
        jobs = 1  # workers would not inherit the span wrappers
    cold = timer.call("cold", run_sweep, grid, jobs=jobs,
                      store_dir=store_dir)
    cold_s = timer.elapsed
    warm = timer.call("warm", run_sweep, grid, jobs=jobs,
                      store_dir=store_dir)
    warm_s = timer.elapsed
    results_returned()

    failures = []
    for warm_pass, sweep in ((False, cold), (True, warm)):
        for record in sweep.records:
            key = (record["model"], record["size"], record["direction"])
            want = expected.SWEEP_ROWS[key]
            got = (record["verdict"], record["dimension"])
            problems = []
            if record["failed"]:
                problems.append(record["error"])
            if got != want:
                problems.append(f"{got} != {want}")
            if record["store_hit"] != warm_pass:
                problems.append(f"store_hit={record['store_hit']}")
            if warm_pass and record["iterations"] != 1:
                problems.append(f"iterations={record['iterations']}")
            if problems:
                failures.append(f"{'warm' if warm_pass else 'cold'} "
                                f"{record['run_id']}: "
                                + "; ".join(problems))
    records = cold.records + warm.records
    with ResultStore(store_dir) as store:
        store_bytes = store.total_bytes()
    counts = kernel_counts(records)
    counts.update({"mc.iterations": sum(r["iterations"] for r in records),
                   "store.bytes": store_bytes, "sweep.jobs": jobs,
                   "pass_capacity_s": (cold_s + warm_s) * jobs})
    phases = {"cold_pass_s": cold_s, "warm_pass_s": warm_s,
              "checks_per_s": len(records) / (cold_s + warm_s)}
    return phases, counts, len(records), len(failures), failures


#: workload -> (modules imported at start-up, setup, timed run)
WORKLOADS = {
    "reach-qrw": (("repro",), setup_reach_qrw, run_reach_qrw),
    "image-table1": (("repro",), setup_image_table1, run_image_table1),
    "sweep-store": (("repro", "repro.bench.sweep"), setup_sweep_store,
                    run_sweep_store),
}


# ----------------------------------------------------------------------
def layer_metrics(spans_dir: str, counts: dict) -> dict:
    """The per-layer metrics of one traced sample (``trace.*`` and the
    pool figures are completed by ``run.py``)."""
    import tracing
    agg = tracing.aggregate(tracing.load_spans(spans_dir))

    def get(name, field):
        return agg.get(name, {}).get(field, 0)

    add_calls = get("subspace.add_state", "calls")
    accepted = get("subspace.add_state", "flagged")
    capacity = counts.pop("pass_capacity_s", 0.0)
    out = {
        "subspace.add_state.calls": add_calls,
        "subspace.add_state.accepted": accepted,
        "subspace.add_state.accept_ratio": accepted / add_calls
        if add_calls else 0.0,
        "subspace.add_state.self_s": get("subspace.add_state", "self_s"),
        "tdd.contract.calls": get("tdd.contract", "calls"),
        "tdd.contract.self_s": get("tdd.contract", "self_s"),
        "tdd.add.calls": get("tdd.add", "calls"),
        "tdd.add.self_s": get("tdd.add", "self_s"),
        "tdd.collect.calls": get("tdd.collect", "calls"),
        "tdd.collect.s": get("tdd.collect", "s"),
        "image.operator_build.calls": get("image.operator_build", "calls"),
        "image.operator_build.s": get("image.operator_build", "s"),
        "image.partial_image.calls": get("image.partial_image", "calls"),
        "image.partial_image.self_s": get("image.partial_image", "self_s"),
        "image.contract.calls": get("image.contract", "calls"),
        "image.contract.s": get("image.contract", "s"),
        "mc.advance.self_s": get("mc.advance", "self_s"),
        "mc.witness.s": get("mc.witness", "s"),
        "systems.build_model.s": get("systems.build_model", "s"),
        "store.lookup.calls": get("store.lookup", "calls"),
        "store.lookup.s": get("store.lookup", "s"),
        "store.lookup.hits": get("store.lookup", "flagged"),
        "store.store.calls": get("store.store", "calls"),
        "store.store.s": get("store.store", "s"),
        "store.bytes": 0,
        "sweep.runs": get("sweep.run", "calls"),
        "sweep.jobs": 0,
        "sweep.pool_busy_ratio": get("sweep.run", "s") / capacity
        if capacity else 0.0,
    }
    out.update(counts)
    return out


def main() -> int:
    inputs = json.loads(sys.argv[1])
    spawn = inputs["spawn"]
    modules, setup, run = WORKLOADS[inputs["workload"]]
    recorder = None
    if inputs["trace_dir"]:
        import tracing
        recorder = tracing.SpanRecorder(inputs["trace_dir"])
    start = time.monotonic()
    for module in modules:
        importlib.import_module(module)
    import_s = time.monotonic() - start
    if recorder is not None:
        recorder.install()
        recorder.run_id = "setup"
    prepared = setup(inputs)
    setup_done = time.monotonic()
    # the reference loop brackets the timed calls; wall_s leaves it out
    reference = [reference_seconds()]
    timer = Timer(recorder)
    marks = {}

    def results_returned():
        marks["wall_s"] = time.monotonic() - spawn - reference[0]
        peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                       resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        marks["peak_rss_mb"] = peak_kib / 1024.0
        reference.append(reference_seconds())

    phases, counts, ops, failed_ops, failures = run(
        prepared, inputs, timer, results_returned)
    counts["import.s"] = import_s
    ref_s = sum(reference) / len(reference)
    out = {
        "ops": ops, "failed": failed_ops, "failures": failures,
        "e2e": {"wall_s": marks["wall_s"], "setup_s": setup_done - spawn,
                "solve_s": timer.solve_s,
                "peak_rss_mb": marks["peak_rss_mb"],
                "wall_ref": marks["wall_s"] / ref_s,
                "solve_ref": timer.solve_s / ref_s,
                "ref_s": ref_s, **phases},
    }
    if recorder is not None:
        recorder.uninstall()
        recorder.flush()
        out["layers"] = layer_metrics(inputs["trace_dir"], counts)
        out["skipped_targets"] = recorder.skipped
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
