"""The benchmark's own tests.

Run from the root of a checkout (about three minutes; the file name
keeps it out of the repository's default test collection)::

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import expected  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workload as wl  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def _span(sid, parent, name, start, end, flag=None, pid=1):
    return {"pid": pid, "id": sid, "parent": parent, "name": name,
            "run": "r", "start": start, "end": end, "flag": flag}


def test_self_time_arithmetic_on_a_synthetic_tree():
    spans = [
        _span(0, None, "mc.advance", 0.0, 10.0),
        _span(1, 0, "image.partial_image", 1.0, 7.0),
        _span(2, 1, "image.contract", 2.0, 4.0),
        _span(3, 2, "tdd.contract", 2.5, 3.5),
        _span(4, 1, "subspace.add_state", 5.0, 6.0, flag=True),
        _span(5, 0, "subspace.add_state", 8.0, 9.5, flag=False),
        # a same-name span nested in another counts once in ``s``
        _span(6, None, "image.operator_build", 20.0, 30.0),
        _span(7, 6, "image.operator_build", 21.0, 25.0),
        # another process's spans never subtract from this one's
        _span(0, None, "sweep.run", 0.0, 4.0, pid=2),
    ]
    agg = tracing.aggregate(spans)
    assert agg["mc.advance"]["self_s"] == pytest.approx(10 - 6 - 1.5)
    assert agg["image.partial_image"]["self_s"] == pytest.approx(6 - 2 - 1)
    assert agg["image.contract"]["self_s"] == pytest.approx(1.0)
    assert agg["image.contract"]["s"] == pytest.approx(2.0)
    assert agg["tdd.contract"]["self_s"] == pytest.approx(1.0)
    assert agg["subspace.add_state"]["calls"] == 2
    assert agg["subspace.add_state"]["flagged"] == 1
    assert agg["subspace.add_state"]["s"] == pytest.approx(2.5)
    assert agg["image.operator_build"]["calls"] == 2
    assert agg["image.operator_build"]["s"] == pytest.approx(10.0)
    assert agg["image.operator_build"]["self_s"] == pytest.approx(10.0)
    assert agg["sweep.run"]["self_s"] == pytest.approx(4.0)


def test_recorder_nesting_opaque_spans_and_missing_targets(tmp_path):
    class Layer:
        def inner(self, x):
            return x

        def outer(self, x):
            return self.inner(x) and None

    module = type(sys)("perfbench_fake_layer")
    module.Layer = Layer
    sys.modules[module.__name__] = module
    targets = (
        tracing.Target("fake.outer", module.__name__, "Layer.outer",
                       opaque=True, flag_result=True),
        tracing.Target("fake.inner", module.__name__, "Layer.inner"),
        tracing.Target("fake.gone", module.__name__, "Layer.removed"),
    )
    recorder = tracing.SpanRecorder(str(tmp_path))
    recorder.install(targets)
    try:
        bench = recorder.open("bench", run="r1")
        Layer().inner(1)
        Layer().outer(2)
        recorder.close(bench)
    finally:
        recorder.uninstall()
        del sys.modules[module.__name__]
    assert recorder.skipped == [f"{module.__name__}.Layer.removed"]
    assert Layer.inner.__name__ == "inner" and \
        not hasattr(Layer.inner, "__wrapped__")
    recorder.flush()
    spans = tracing.load_spans(str(tmp_path))
    names = [s["name"] for s in spans]
    # the opaque outer span swallows its inner call
    assert sorted(names) == ["bench", "fake.inner", "fake.outer"]
    bench = next(s for s in spans if s["name"] == "bench")
    assert all(s["parent"] == bench["id"] for s in spans if s is not bench)
    assert all(s["run"] == "r1" for s in spans)
    assert next(s for s in spans if s["name"] == "fake.outer")["flag"] \
        is False


# ----------------------------------------------------------------------
# verification
# ----------------------------------------------------------------------
def test_verification_flags_planted_wrong_answers(monkeypatch, tmp_path):
    from repro import models
    timer = wl.Timer()
    cell = [("qrw", 6, "basic", models.build_model("qrw", 6, steps=4))]
    monkeypatch.setitem(expected.TABLE1_DIMENSION, "qrw", 2)
    _, _, ops, failed, failures = wl.run_image_table1(
        cell, {"dense_check": True}, timer, lambda: None)
    assert (ops, failed) == (1, 1)
    assert "dimension 1" in failures[0]

    grid = wl.setup_sweep_store({"order": [0]})
    key = (grid.runs[0].model, grid.runs[0].size, grid.runs[0].direction)
    monkeypatch.setitem(expected.SWEEP_ROWS, key, ("holds", 2))
    _, _, ops, failed, failures = wl.run_sweep_store(
        grid, {"work_dir": str(tmp_path), "jobs": 1}, timer, lambda: None)
    assert (ops, failed) == (2, 2)
    assert all("!= ('holds', 2)" in f for f in failures)


def test_a_wrong_answer_fails_the_run(tmp_path):
    """A planted wrong expected value: the JSON line says so and the
    command exits non-zero."""
    checkout = tmp_path / "checkout"
    shutil.copytree(HERE, checkout / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    os.symlink(os.path.join(ROOT, "src"), checkout / "src")
    answers = checkout / "perfbench" / "expected.py"
    text = answers.read_text()
    planted = text.replace('("ghz", 3, "forward"): ("violated", 6)',
                           '("ghz", 3, "forward"): ("violated", 5)')
    assert planted != text
    answers.write_text(planted)
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"),
         "--workload", "sweep-store", "--seed", "1", "--seconds", "0",
         "--trace", "0"], capture_output=True, text=True, timeout=170)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 2 and result["attempted"] == 32
    assert not (checkout / ".perfbench-work").exists()


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"),
         "--workload", "reach-qrw", "--seed", "1", "--seconds", "1",
         "--trace", "0"], capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ----------------------------------------------------------------------
# metric names and units
# ----------------------------------------------------------------------
def test_metric_names_units_and_benchmark_json_agree():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert declared_e2e == run.END_TO_END
    assert declared_layer == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    every = dict(run.END_TO_END, **run.RAW_END_TO_END, **run.PER_LAYER)
    for units in run.WORKLOAD_END_TO_END.values():
        every.update(units)
    for name, unit in every.items():
        assert NAME.match(name), name
        assert UNIT.match(unit), unit


# ----------------------------------------------------------------------
# traced runs: every layer fires where it should; counts repeat
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def traced_runs():
    """Two traced runs per workload at one seed (one untraced and one
    traced sample each)."""
    return {name: [run.measure(name, 7, 0, trace=True) for _ in range(2)]
            for name in run.WORKLOADS}


#: per workload: the per-layer counters that must be non-zero on it
FIRES_ON = {
    "reach-qrw": ("subspace.add_state.calls", "subspace.add_state.accepted",
                  "tdd.contract.calls", "tdd.collect.calls",
                  "image.partial_image.calls", "image.contract.calls",
                  "image.operator_build.calls", "mc.iterations",
                  "mc.advance.self_s", "mc.witness.s",
                  "systems.build_model.s", "import.s"),
    "image-table1": ("image.operator_build.calls", "image.operator_build.s",
                     "image.contract.calls", "tdd.add.calls",
                     "tdd.contract.calls", "systems.build_model.s"),
    "sweep-store": ("store.lookup.calls", "store.lookup.hits",
                    "store.store.calls", "store.bytes", "sweep.runs",
                    "sweep.pool_busy_ratio", "subspace.add_state.calls",
                    "systems.build_model.s"),
}


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_each_layer_fires_on_its_workload(traced_runs, name, capsys):
    first = traced_runs[name][0]
    assert first["failed"] == 0, first["failures"]
    assert first["traced"][0]["skipped_targets"] == []
    result = run.report(first, trace=True)
    printed = capsys.readouterr().out
    metrics = {n: m["value"] for n, m in result["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER)
    for metric in FIRES_ON[name]:
        assert metrics[metric] > 0, metric
    for metric, unit in run.PER_LAYER.items():
        assert re.search(rf"^  {re.escape(metric)} +\S+ {re.escape(unit)}$",
                         printed, re.M), metric
    if name != "sweep-store":
        assert metrics["store.lookup.calls"] == 0
        assert metrics["store.store.calls"] == 0


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_counts_repeat_at_one_seed(traced_runs, name):
    counts = ("mc.iterations", "tdd.contractions",
              "subspace.add_state.calls", "store.lookup.hits")
    first, second = (run.summarize(r, trace=True) for r in traced_runs[name])
    assert {c: first[c] for c in counts} == {c: second[c] for c in counts}


def test_untraced_run_prints_every_end_to_end_metric(capsys):
    result = run.report(run.measure("sweep-store", 3, 0, trace=False),
                        trace=False)
    printed = capsys.readouterr().out
    assert result["correct"] and result["attempted"] == 32
    assert set(result["metrics"]) == set(run.END_TO_END)
    units = dict(run.END_TO_END, **run.RAW_END_TO_END,
                 **run.WORKLOAD_END_TO_END["sweep-store"])
    units["failed_ratio"] = "ratio"
    for metric, unit in units.items():
        assert re.search(rf"^  {re.escape(metric)} +\S+ {re.escape(unit)}",
                         printed, re.M), metric
    assert all(value["value"] > 0 for value in result["metrics"].values())


# ----------------------------------------------------------------------
# the hand-written answers against the dense backend
# ----------------------------------------------------------------------
def _dense(direction="forward"):
    from repro import CheckerConfig, make_backend
    return make_backend(CheckerConfig(backend="dense", direction=direction))


def test_expected_answers_match_dense():
    from repro import CheckerConfig, ModelChecker, models
    dense = _dense()
    for position in range(2 ** (wl.REACH_QRW_SIZE - 1)):
        qts = models.build_model("qrw", wl.REACH_QRW_SIZE,
                                 start_position=position)
        forward = dense.reachable(qts, direction="forward")
        backward = dense.reachable(qts, direction="backward")
        assert forward.dimensions == expected.REACH_FORWARD_DIMENSIONS
        assert backward.dimensions == expected.REACH_BACKWARD_DIMENSIONS
        # AG start (a single ray) fails exactly when the walk leaves it
        assert (forward.dimension == 1) == expected.REACH_FORWARD_HOLDS

    for family, size, options in wl.TABLE1_FAMILIES:
        if size > wl.DENSE_MAX_QUBITS:
            continue  # BV 40: a unitary maps one ray to one ray
        starts = (range(2 ** (size - 1)) if family == "qrw" else [None])
        for start in starts:
            opts = dict(options)
            if start is not None:
                opts["start_position"] = start
            qts = models.build_model(family, size, **opts)
            assert dense.compute_image(qts).dimension \
                == expected.TABLE1_DIMENSION[family]

    for (model, size, direction), (verdict, dim) in \
            expected.SWEEP_ROWS.items():
        qts = models.build_model(model, size)
        result = ModelChecker(qts, CheckerConfig(
            backend="dense", direction=direction)).check("AG init")
        assert (result.verdict, result.reachable_dimension) == (verdict, dim)


def test_witness_symbols_match_dense():
    from repro import CheckerConfig, ModelChecker, models
    qts = models.build_model("qrw", wl.REACH_QRW_SIZE)
    result = ModelChecker(qts, CheckerConfig(backend="dense")).check(
        "AG start")
    assert result.witness_trace.valid
    assert result.witness_trace.symbols == expected.REACH_WITNESS_SYMBOLS
    assert wl.replay_escapes(qts, result.witness_trace.symbols,
                             qts.named_subspace("start"))
