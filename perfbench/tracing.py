"""Span recorder for the traced benchmark run.

The recorder wraps the public entry points of each ``repro`` layer
from outside the package: every target in :data:`TARGETS` is replaced,
on the object its callers look the name up on, by a wrapper that
records one span (name, start, end, parent span, run id) per call.
Spans are kept in memory and written out as JSON lines when the
traced process finishes.  :func:`aggregate` turns them into the
per-layer metrics.

Two target properties shape the numbers:

* an *opaque* span bills every instrumented call made inside it to
  itself.  ``subspace.add_state`` is opaque: the Gram-Schmidt join is
  made of kernel calls, and its cost is what the join layer is
  measured by, so the kernel spans (``tdd.*``) count only the kernel
  work the other layers ask for;
* a *first-call* target records only the call that builds an entry of
  the caller's operator cache (keyed by computer and circuits); the
  later cache lookups are not spans.

Targets that no longer exist are skipped and logged, so the benchmark
keeps running while the program drops internals.  Sweep pool workers
forked after :func:`install` inherit the wrappers; each worker appends
its spans to its own file whenever its outermost span closes.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
import weakref
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional


@dataclass(frozen=True)
class Target:
    """One instrumented callable: ``module.attr`` (``attr`` may be
    ``Class.method``)."""

    span: str
    module: str
    attr: str
    opaque: bool = False
    first_call: bool = False
    #: record whether the call returned something other than None
    #: (accepted Gram-Schmidt candidates, store hits)
    flag_result: bool = False
    #: take the run id of the span from ``args[0].run_id``
    run_from_arg: bool = False


TARGETS = (
    Target("systems.build_model", "repro.systems.models", "build_model"),
    Target("image.operator_build", "repro.image.base",
           "ImageComputerBase.monolithic_operator_for", first_call=True),
    Target("image.operator_build", "repro.image.base",
           "ImageComputerBase.family_for", first_call=True),
    Target("image.operator_build", "repro.image.addition",
           "AdditionImageComputer.parts_for", first_call=True),
    Target("image.operator_build", "repro.image.contraction",
           "ContractionImageComputer.blocks_for", first_call=True),
    Target("image.partial_image", "repro.image.base",
           "ImageComputerBase.partial_image"),
    Target("image.contract", "repro.image.sliced",
           "MonolithicExecutor.contract"),
    Target("tdd.contract", "repro.tdd.tdd", "TDD.contract"),
    Target("tdd.add", "repro.tdd.tdd", "TDD.__add__"),
    Target("tdd.collect", "repro.tdd.manager", "TDDManager.collect"),
    Target("subspace.add_state", "repro.subspace.subspace",
           "Subspace.add_state", opaque=True, flag_result=True),
    Target("mc.advance", "repro.mc.drivers", "SequentialDriver.advance"),
    Target("mc.advance", "repro.mc.drivers", "FrontierDriver.advance"),
    Target("mc.advance", "repro.mc.drivers", "OpShardedDriver.advance"),
    Target("mc.witness", "repro.mc.checker", "extract_witness_trace"),
    Target("store.lookup", "repro.store.store", "ResultStore.lookup",
           flag_result=True),
    Target("store.store", "repro.store.store", "ResultStore.store"),
    Target("sweep.run", "repro.bench.sweep", "execute_run",
           run_from_arg=True),
)


class SpanRecorder:
    """In-memory spans of one process; see the module docstring.

    A span is the list ``[id, parent, name, run, start, end, flag]``
    with ``perf_counter`` times; ``parent`` is the id of the enclosing
    span in the same process, or None.
    """

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.spans: List[list] = []
        self.stack: List[list] = []
        self.opaque_depth = 0
        self.run_id: Optional[str] = None
        self.next_id = 0
        self.skipped: List[str] = []
        self._restore: List[tuple] = []
        self._in_worker = False

    # ------------------------------------------------------------------
    def open(self, name: str, run: Optional[str] = None) -> list:
        parent = self.stack[-1] if self.stack else None
        if run is None:
            run = parent[3] if parent is not None else self.run_id
        span = [self.next_id, parent[0] if parent is not None else None,
                name, run, time.perf_counter(), None, None]
        self.next_id += 1
        self.stack.append(span)
        return span

    def close(self, span: list, flag=None) -> None:
        span[5] = time.perf_counter()
        span[6] = flag
        self.stack.pop()
        self.spans.append(span)
        if self._in_worker and not self.stack:
            self.flush()

    # ------------------------------------------------------------------
    def install(self, targets: Iterable[Target] = TARGETS) -> None:
        """Wrap every target that exists; log and skip the others."""
        for target in targets:
            owner, leaf = _resolve(target)
            if owner is None:
                self.skipped.append(f"{target.module}.{target.attr}")
                print(f"trace: target {target.module}.{target.attr} not "
                      f"found; skipped", file=sys.stderr)
                continue
            original = owner.__dict__[leaf] if isinstance(owner, type) \
                else getattr(owner, leaf)
            self._restore.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(target, original))
        os.register_at_fork(after_in_child=self._after_fork)

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._restore):
            setattr(owner, leaf, original)
        self._restore.clear()

    def _wrap(self, target: Target, fn):
        recorder = self
        name = target.span
        seen = weakref.WeakKeyDictionary() if target.first_call else None

        def wrapper(*args, **kwargs):
            if recorder.opaque_depth:
                return fn(*args, **kwargs)
            if seen is not None:
                first = args[1]
                key = (tuple(map(id, first))
                       if isinstance(first, (list, tuple)) else id(first))
                built = seen.setdefault(args[0], set())
                if key in built:
                    return fn(*args, **kwargs)
                built.add(key)
            run = args[0].run_id if target.run_from_arg else None
            span = recorder.open(name, run)
            if target.opaque:
                recorder.opaque_depth += 1
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                if target.opaque:
                    recorder.opaque_depth -= 1
                recorder.close(span, (result is not None)
                               if target.flag_result else None)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # ------------------------------------------------------------------
    def _after_fork(self) -> None:
        # a pool worker: it starts with no spans of its own and writes
        # them out whenever its outermost span closes (worker processes
        # end without running exit handlers)
        self.spans = []
        self.stack = []
        self.opaque_depth = 0
        self.run_id = None
        self._in_worker = True

    def flush(self) -> None:
        """Append this process's finished spans to its own file."""
        if not self.spans:
            return
        os.makedirs(self.out_dir, exist_ok=True)
        pid = os.getpid()
        path = os.path.join(self.out_dir, f"spans-{pid}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps([pid] + span) + "\n")
        self.spans = []


def _resolve(target: Target):
    """The object holding the target's leaf name, or (None, None)."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None, None
    *path, leaf = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    present = (leaf in owner.__dict__ if isinstance(owner, type)
               else hasattr(owner, leaf))
    return (owner, leaf) if present else (None, None)


# ----------------------------------------------------------------------
# reading and aggregating spans
# ----------------------------------------------------------------------
def load_spans(out_dir: str) -> List[dict]:
    """Every span written under ``out_dir``, as dicts."""
    spans = []
    for entry in sorted(os.listdir(out_dir)):
        if not entry.startswith("spans-"):
            continue
        with open(os.path.join(out_dir, entry), encoding="utf-8") as handle:
            for line in handle:
                pid, sid, parent, name, run, start, end, flag = \
                    json.loads(line)
                spans.append({"pid": pid, "id": sid, "parent": parent,
                              "name": name, "run": run, "start": start,
                              "end": end, "flag": flag})
    return spans


def aggregate(spans: List[dict]) -> Dict[str, dict]:
    """Per span name: ``calls``, ``flagged``, ``s`` and ``self_s``.

    ``s`` is the time covered by the name's outermost spans (a span
    nested in another of the same name is not counted twice);
    ``self_s`` sums each span's duration minus its direct children's.
    Parents and children are matched within one process, where spans
    nest strictly.
    """
    by_key = {(s["pid"], s["id"]): s for s in spans}
    child_time: Dict[tuple, float] = {}
    for span in spans:
        if span["parent"] is not None:
            key = (span["pid"], span["parent"])
            child_time[key] = (child_time.get(key, 0.0)
                               + span["end"] - span["start"])
    out: Dict[str, dict] = {}
    for span in spans:
        row = out.setdefault(span["name"], {"calls": 0, "flagged": 0,
                                            "s": 0.0, "self_s": 0.0})
        duration = span["end"] - span["start"]
        row["calls"] += 1
        row["flagged"] += 1 if span["flag"] else 0
        row["self_s"] += duration - child_time.get(
            (span["pid"], span["id"]), 0.0)
        if not _has_ancestor_named(span, by_key):
            row["s"] += duration
    return out


def _has_ancestor_named(span: dict, by_key: Dict[tuple, dict]) -> bool:
    parent = span["parent"]
    while parent is not None:
        ancestor = by_key[(span["pid"], parent)]
        if ancestor["name"] == span["name"]:
            return True
        parent = ancestor["parent"]
    return False
