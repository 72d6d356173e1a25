"""Command-line interface."""

import pytest

from repro.cli import main


class TestImage:
    def test_grover(self, capsys):
        assert main(["image", "grover", "--size", "4"]) == 0
        out = capsys.readouterr().out
        assert "dim(T(S0)) = 1" in out
        assert "max #node" in out

    def test_bitflip_basic(self, capsys):
        assert main(["image", "bitflip", "--method", "basic"]) == 0
        assert "dim(T(S0)) = 1" in capsys.readouterr().out

    def test_addition_method(self, capsys):
        assert main(["image", "ghz", "--size", "5", "--method",
                     "addition", "--k", "2"]) == 0


class TestReach:
    def test_qrw(self, capsys):
        assert main(["reach", "qrw", "--size", "3", "--steps", "1"]) == 0
        out = capsys.readouterr().out
        assert "converged  = True" in out

    def test_join_line(self, capsys):
        # three Kraus images of S0 = span{|0...0>}: one grows the space,
        # the other two are already inside it
        assert main(["reach", "grover", "--size", "4"]) == 0
        assert "join       = 1/2 accepted" in capsys.readouterr().out


class TestCheck:
    def test_ag_inv_holds(self, capsys):
        assert main(["check", "grover", "--size", "4",
                     "--spec", "AG inv"]) == 0
        out = capsys.readouterr().out
        assert "verdict    = holds" in out
        assert "spec       = AG inv" in out

    def test_n_alias_for_size(self, capsys):
        assert main(["check", "grover", "--n", "4",
                     "--spec", "AG inv"]) == 0

    def test_violated_spec_exits_one(self, capsys):
        assert main(["check", "grover", "--size", "3",
                     "--spec", "AG marked"]) == 1
        out = capsys.readouterr().out
        assert "violated" in out
        assert "witness" in out

    def test_same_verdict_on_dense_backend(self, capsys):
        assert main(["check", "grover", "--size", "3",
                     "--spec", "AG inv", "--backend", "dense"]) == 0
        out = capsys.readouterr().out
        assert "holds" in out
        assert "join" not in out  # the dense reference has no join

    def test_whole_space_store_hit_joins_nothing(self, capsys, tmp_path):
        args = ["check", "grover", "--size", "4", "--spec", "AG init",
                "--direction", "backward", "--store", str(tmp_path)]
        assert main(args) == 1
        assert "store      = miss (recorded)" in capsys.readouterr().out
        assert main(args) == 1
        out = capsys.readouterr().out
        assert "store      = hit" in out
        assert "[16, 16] (converged=True, 1 iterations)" in out
        assert "join       = 0/0 accepted" in out

    def test_all_methods_agree(self, capsys):
        for method in ("basic", "addition", "contraction", "hybrid"):
            assert main(["check", "grover", "--size", "3",
                         "--spec", "EF marked", "--method", method]) == 0

    def test_all_drivers_agree(self, capsys):
        for driver in ("sequential", "frontier"):
            assert main(["check", "grover", "--size", "3",
                         "--spec", "AG inv", "--driver", driver]) == 0
        out = capsys.readouterr().out
        assert "driver=sequential" in out   # non-default drivers echoed

    def test_driver_on_dense_backend(self, capsys):
        assert main(["check", "grover", "--size", "3", "--spec", "AG inv",
                     "--backend", "dense", "--driver", "sequential"]) == 0

    def test_frontier_flag_is_rejected(self, capsys):
        # --driver frontier is the one spelling of the schedule
        with pytest.raises(SystemExit) as excinfo:
            main(["reach", "qrw", "--size", "3", "--frontier"])
        assert excinfo.value.code == 2
        assert "--frontier" in capsys.readouterr().err

    def test_unknown_atom_reports_available(self, capsys):
        assert main(["check", "grover", "--size", "3",
                     "--spec", "AG nonsense"]) == 2
        err = capsys.readouterr().err
        assert "available atoms" in err
        assert "inv" in err

    def test_syntax_error_reports_position(self, capsys):
        assert main(["check", "ghz", "--size", "3",
                     "--spec", "AG (zero"]) == 2
        assert "position" in capsys.readouterr().err


class TestDirectionFlags:
    def test_check_backward_direction(self, capsys):
        assert main(["check", "grover", "--size", "3",
                     "--spec", "AG plus", "--direction", "backward"]) == 1
        out = capsys.readouterr().out
        assert "direction=backward" in out
        assert "initial directions reaching the event" in out

    def test_check_prints_witness_trace(self, capsys):
        assert main(["check", "grover", "--size", "3",
                     "--spec", "AG plus"]) == 1
        out = capsys.readouterr().out
        assert "trace      = G (1 steps, replay ok" in out

    def test_check_bounded_spec_text(self, capsys):
        assert main(["check", "qrw", "--size", "3",
                     "--spec", "AG[<=1] init"]) == 1
        out = capsys.readouterr().out
        assert "spec       = AG[<=1] init" in out

    def test_check_bound_flag(self, capsys):
        assert main(["check", "qrw", "--size", "3",
                     "--spec", "AG init", "--bound", "1"]) == 1
        assert "bound=1" in capsys.readouterr().out

    def test_reach_backward_bounded(self, capsys):
        assert main(["reach", "qrw", "--size", "3", "--direction",
                     "backward", "--bound", "2"]) == 0
        out = capsys.readouterr().out
        assert "direction=backward" in out
        assert "(2 iterations)" in out

    def test_image_backward_preimage(self, capsys):
        assert main(["image", "ghz", "--size", "3", "--method", "basic",
                     "--direction", "backward"]) == 0
        assert "dim(T~(S0))" in capsys.readouterr().out


class TestConfigValidation:
    def test_dense_with_explicit_tdd_flags_rejected(self, capsys):
        # regression: these used to be silently dropped
        assert main(["image", "ghz", "--size", "3", "--backend", "dense",
                     "--method", "basic"]) == 2
        assert "tdd-only" in capsys.readouterr().err

    def test_dense_with_default_flags_still_works(self, capsys):
        assert main(["image", "ghz", "--size", "3",
                     "--backend", "dense"]) == 0


class TestCrosscheckSpec:
    def test_spec_cross_validation(self, capsys):
        assert main(["crosscheck", "grover", "--size", "3",
                     "--spec", "AG inv"]) == 0
        out = capsys.readouterr().out
        assert "tdd       = holds" in out
        assert "dense     = holds" in out
        assert "agree     = True" in out


class TestInvariant:
    def test_grover_invariant_exit_zero(self, capsys):
        code = main(["invariant", "grover", "--size", "4",
                     "--initial", "invariant", "--strict"])
        assert code == 0
        assert "True" in capsys.readouterr().out

    def test_grover_plus_exit_one(self, capsys):
        code = main(["invariant", "grover", "--size", "4"])
        assert code == 1

    def test_qpe_model(self, capsys):
        assert main(["image", "qpe", "--size", "3",
                     "--phase", "0.625"]) == 0

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["image", "nonsense"])


class TestStrategyFlags:
    """The sliced execution strategy's flags are gone: argparse rejects
    them (exit code 2) instead of running a default configuration."""

    @pytest.mark.parametrize("argv", [
        [command, "grover", "--size", "3", flag, value]
        for command in ("image", "reach", "check", "invariant")
        for flag, value in (("--strategy", "sliced"), ("--jobs", "2"),
                            ("--slice-depth", "1"))
    ] + [
        ["smoke", "--strategy", "sliced"],
        ["smoke", "--jobs", "2"],
        ["sweep", "--models", "ghz", "--sizes", "3",
         "--strategies", "monolithic,sliced"],
    ], ids=" ".join)
    def test_rejected_by_argparse(self, argv, capsys):
        if argv[0] == "check":
            argv = argv + ["--spec", "AG inv"]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SystemExit):
            main(["image", "ghz", "--strategy", "nonsense"])


class TestSweepCommand:
    def test_check_axis(self, capsys, tmp_path):
        assert main(["sweep", "--models", "grover", "--sizes", "3",
                     "--methods", "basic", "--check", "AG inv",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "check[AG inv]" in out
        assert "holds" in out
        csv_text = (tmp_path / "sweep.csv").read_text()
        assert "verdict" in csv_text.splitlines()[0]
        assert "holds" in csv_text

    def test_axes_run(self, capsys, tmp_path):
        assert main(["sweep", "--models", "ghz", "--sizes", "3",
                     "--methods", "basic", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "ghz3/basic/tdd: dim=" in out
        assert (tmp_path / "sweep.json").exists()
        assert (tmp_path / "sweep.csv").exists()

    def test_spec_file_run(self, capsys, tmp_path):
        import json
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "name": "cli-test", "models": ["bv"], "sizes": [3],
            "methods": ["basic"]}))
        assert main(["sweep", "--spec", str(spec_path)]) == 0
        assert "bv3/basic/tdd: dim=" in capsys.readouterr().out

    def test_missing_axes_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--models", "ghz"])  # no --sizes

    def test_sweep_errors_use_the_uniform_error_path(self, capsys):
        # the sweep fast-path must share the error contract of every
        # other subcommand: "error: ..." on stderr, exit code 2
        assert main(["sweep", "--models", "nosuch", "--sizes", "3"]) == 2
        assert "error: unknown model" in capsys.readouterr().err


class TestBenchForwarders:
    def test_smoke_forward(self, capsys):
        # the smoke wrapper forwards --model/--size to the harness
        assert main(["smoke", "--model", "ghz", "--size", "3"]) == 0
        out = capsys.readouterr().out
        assert "Smoke benchmark" in out
        assert "ghz3" in out


class TestStoreFlag:
    def test_check_miss_then_hit(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(["check", "grover", "--size", "3", "--spec",
                     "AG inv", "--store", store]) == 0
        assert "store      = miss (recorded)" in capsys.readouterr().out
        assert main(["check", "grover", "--size", "3", "--spec",
                     "AG inv", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "store      = hit" in out
        assert "1 iterations" in out
        assert "verdict    = holds" in out

    def test_reach_miss_then_hit(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(["reach", "qrw", "--size", "3", "--store",
                     store]) == 0
        assert "store      = miss (recorded)" in capsys.readouterr().out
        assert main(["reach", "qrw", "--size", "3", "--store",
                     store]) == 0
        out = capsys.readouterr().out
        assert "store      = hit (seed dim" in out
        assert "(1 iterations)" in out

    def test_bounded_reach_stays_out_of_the_store(self, capsys,
                                                  tmp_path):
        store = str(tmp_path / "store")
        assert main(["reach", "qrw", "--size", "3", "--bound", "1",
                     "--store", store]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--store", store]) == 0
        assert "entries        = 0" in capsys.readouterr().out

    def test_no_store_flag_prints_no_store_line(self, capsys):
        assert main(["reach", "qrw", "--size", "3"]) == 0
        assert "store " not in capsys.readouterr().out


class TestCacheCommand:
    def _populate(self, store):
        assert main(["check", "grover", "--size", "3", "--spec",
                     "AG inv", "--store", store]) == 0

    def test_stats_on_fresh_store(self, capsys, tmp_path):
        assert main(["cache", "stats", "--store",
                     str(tmp_path / "s")]) == 0
        out = capsys.readouterr().out
        assert "entries        = 0" in out
        assert "schema version = 1" in out

    def test_ls_and_stats_after_population(self, capsys, tmp_path):
        store = str(tmp_path / "s")
        self._populate(store)
        capsys.readouterr()
        assert main(["cache", "ls", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "1 entries" in out
        assert "forward" in out
        assert main(["cache", "stats", "--store", store]) == 0
        assert "entries        = 1" in capsys.readouterr().out

    def test_gc_with_tiny_budget_evicts(self, capsys, tmp_path):
        store = str(tmp_path / "s")
        self._populate(store)
        capsys.readouterr()
        assert main(["cache", "gc", "--store", store, "--max-bytes",
                     "1"]) == 0
        assert "1 entries evicted" in capsys.readouterr().out
        assert main(["cache", "stats", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "entries        = 0" in out
        assert "evictions      = 1" in out

    def test_export_import_round_trip(self, capsys, tmp_path):
        store = str(tmp_path / "s")
        bundle = str(tmp_path / "bundle.json")
        self._populate(store)
        capsys.readouterr()
        assert main(["cache", "export", "--store", store, "--out",
                     bundle]) == 0
        assert "exported 1 entries" in capsys.readouterr().out
        other = str(tmp_path / "other")
        assert main(["cache", "import", "--store", other, "--input",
                     bundle]) == 0
        assert "imported 1 entries" in capsys.readouterr().out
        # the imported store warm-starts checks like the original
        assert main(["check", "grover", "--size", "3", "--spec",
                     "AG inv", "--store", other]) == 0
        assert "store      = hit" in capsys.readouterr().out

    def test_import_garbage_uses_uniform_error_path(self, capsys,
                                                    tmp_path):
        junk = tmp_path / "junk.json"
        junk.write_text("{}")
        assert main(["cache", "import", "--store",
                     str(tmp_path / "s"), "--input", str(junk)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            main(["cache"])
