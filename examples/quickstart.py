"""Quickstart: model-check a Grover iteration with the unified API.

Reproduces the paper's Section III.A.1 case study end to end:

1. build the 3-qubit Grover-iteration quantum transition system (its
   builder registers the spec atoms ``inv``, ``marked``, ``plus``,
   ``ancilla_plus``),
2. compute the image of the invariant subspace S = span{|++->, |11->}
   with all four algorithms (basic / addition / contraction / hybrid),
   each described by a validated ``CheckerConfig``,
3. check temporal specifications with the one ``check`` verb —
   ``AG inv`` (the invariance property), ``EF marked`` (the marked
   state is reached) and ``AG ~ancilla_plus`` (the ancilla never
   flips) — and cross-validate a verdict on the dense backend,
4. print the Fig. 1 projector TDD as Graphviz DOT.

See examples/parallel_sweep.py for the batch sweep runner.

Run:  python examples/quickstart.py
"""

from repro import CheckerConfig, ModelChecker, compute_image, models
from repro.tdd.io import to_dot


def main() -> None:
    # --- the quantum transition system (paper, Definition 2) --------
    qts = models.grover_qts(3, initial="invariant")
    print(f"System: {qts}")
    print(f"Initial subspace dimension: {qts.initial.dimension}")
    print(f"Registered spec atoms: {sorted(qts.named_subspaces)}")

    # --- one-step images with all four algorithms --------------------
    for config in (CheckerConfig(method="basic"),
                   CheckerConfig(method="addition",
                                 method_params={"k": 1}),
                   CheckerConfig(method="contraction",
                                 method_params={"k1": 4, "k2": 4}),
                   CheckerConfig(method="hybrid",
                                 method_params={"k": 1, "k1": 4,
                                                "k2": 4})):
        result = compute_image(models.grover_qts(3, initial="invariant"),
                               config=config)
        print(f"  {config.method:12s} dim(T(S)) = {result.dimension}   "
              f"time = {result.stats.seconds * 1000:.1f} ms   "
              f"max TDD nodes = {result.stats.max_nodes}")

    # --- temporal specifications through the one check verb ----------
    config = CheckerConfig(method="contraction",
                           method_params={"k1": 4, "k2": 4})
    checker = ModelChecker(qts, config)

    always_inv = checker.check("AG inv")
    print(f"AG inv  (Section III.A.1 invariance): {always_inv.verdict}  "
          f"[reachable dims {always_inv.dimensions}]")
    assert always_inv.holds

    reaches_marked = checker.check("EF marked")
    print(f"EF marked (the marked state is reached): "
          f"{reaches_marked.verdict}  "
          f"[witness dim {reaches_marked.witness_dimension}]")
    assert reaches_marked.holds

    never_flips = checker.check("AG ~ancilla_plus")
    print(f"AG ~ancilla_plus (ancilla stays |->): {never_flips.verdict}")
    assert never_flips.holds

    # strict invariance T(S) = S rides on the same machinery
    assert checker.check_invariant(strict=True)

    # --- the dense statevector reference returns the same verdict ----
    report = checker.cross_validate(spec="AG inv")
    print(f"cross-validated on the dense backend: tdd={report.tdd_verdict}"
          f" dense={report.dense_verdict} agree={report.agree}")
    assert report.ok

    # --- the Fig. 1 projector TDD ------------------------------------
    dot = to_dot(qts.initial.projector, name="fig1_projector")
    print("\nProjector TDD of span{|++->, |11->} (paper Fig. 1), "
          "Graphviz DOT:")
    print(dot)


if __name__ == "__main__":
    main()
