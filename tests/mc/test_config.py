"""CheckerConfig: validation, round-trips, CLI wiring, removed spellings."""

import argparse
import dataclasses
import warnings

import pytest

from repro.bench.sweep import RunSpec, SweepSpec
from repro.errors import ConfigError, ReproError
from repro.image.engine import compute_image
from repro.mc.backends import make_backend
from repro.mc.checker import ModelChecker
from repro.mc.config import BACKENDS, CheckerConfig
from repro.mc.reachability import reachable_space
from repro.systems import models


class TestValidation:
    def test_defaults_are_valid(self):
        config = CheckerConfig()
        assert config.backend == "tdd"
        assert config.method == "contraction"

    @pytest.mark.parametrize("field,value", [
        ("backend", "quantum-annealer"), ("method", "nonsense"),
        ("driver", "nonsense")])
    def test_unknown_names_rejected(self, field, value):
        with pytest.raises(ConfigError, match="unknown"):
            CheckerConfig(**{field: value})

    def test_method_param_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="does not take"):
            CheckerConfig(method="basic", method_params={"k1": 4})
        with pytest.raises(ConfigError, match="contraction"):
            # the error names the methods the parameter belongs to
            CheckerConfig(method="addition", method_params={"k1": 4})

    def test_unknown_method_param_rejected(self):
        with pytest.raises(ConfigError, match="does not take"):
            CheckerConfig(method="contraction",
                          method_params={"granularity": 3})

    def test_valid_method_params_accepted(self):
        config = CheckerConfig(method="hybrid",
                               method_params={"k": 1, "k1": 2, "k2": 2})
        assert config.method_params == {"k": 1, "k1": 2, "k2": 2}

    def test_dense_rejects_tdd_only_options(self):
        # the regression for the old silent-drop behaviour: tdd knobs
        # with the dense backend must raise, not vanish
        with pytest.raises(ConfigError, match="tdd-only"):
            CheckerConfig(backend="dense", method="basic")
        with pytest.raises(ConfigError, match="tdd-only"):
            CheckerConfig(backend="dense",
                          method_params={"k1": 4, "k2": 4})
        with pytest.raises(ConfigError, match="tdd-only"):
            CheckerConfig(backend="dense", method="hybrid")

    def test_dense_accepts_max_qubits(self):
        assert CheckerConfig(backend="dense", max_qubits=8).max_qubits == 8

    def test_tdd_rejects_max_qubits(self):
        with pytest.raises(ConfigError, match="dense-only"):
            CheckerConfig(max_qubits=8)

    def test_frozen(self):
        config = CheckerConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.method = "basic"

    def test_method_params_copied_not_shared(self):
        params = {"k1": 2, "k2": 2}
        config = CheckerConfig(method_params=params)
        params["k1"] = 99
        assert config.method_params["k1"] == 2

    def test_replace_revalidates(self):
        config = CheckerConfig(method="addition", method_params={"k": 2})
        with pytest.raises(ConfigError):
            config.replace(method="basic")
        assert config.replace(method_params={"k": 3}).method_params == \
            {"k": 3}


class TestRoundTrips:
    CONFIGS = [
        CheckerConfig(),
        CheckerConfig(method="addition", method_params={"k": 2}),
        CheckerConfig(method="contraction", method_params={"k1": 2, "k2": 3},
                      direction="backward", bound=2, driver="sequential"),
        CheckerConfig(backend="dense", max_qubits=10),
    ]

    @pytest.mark.parametrize("config", CONFIGS, ids=str)
    def test_json_round_trip(self, config):
        assert CheckerConfig.from_json(config.to_json()) == config

    @pytest.mark.parametrize("config", CONFIGS, ids=str)
    def test_dict_round_trip(self, config):
        assert CheckerConfig.from_dict(config.as_dict()) == config

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="unknown"):
            CheckerConfig.from_dict({"backend": "tdd", "metod": "basic"})

    def test_from_json_rejects_non_object(self):
        with pytest.raises(ConfigError):
            CheckerConfig.from_json("[1, 2]")

    def test_describe_mentions_the_knobs(self):
        text = CheckerConfig(direction="backward", driver="sequential",
                             method_params={"k1": 2, "k2": 2}).describe()
        assert "direction=backward" in text
        assert "driver=sequential" in text
        assert "k1=2" in text
        dense = CheckerConfig(backend="dense").describe()
        assert "backend=dense" in dense
        assert "method" not in dense  # did not take effect — not echoed


def _cli_args(**overrides) -> argparse.Namespace:
    """A namespace mirroring the CLI defaults for engine flags."""
    defaults = dict(backend="tdd", method="contraction", k=1, k1=4, k2=4)
    defaults.update(overrides)
    return argparse.Namespace(**defaults)


class TestFromCliArgs:
    def test_defaults(self):
        config = CheckerConfig.from_cli_args(_cli_args())
        assert config.backend == "tdd"
        assert config.method_params == {"k1": 4, "k2": 4}

    def test_method_selects_its_params(self):
        config = CheckerConfig.from_cli_args(
            _cli_args(method="addition", k=3))
        assert config.method_params == {"k": 3}

    def test_dense_with_default_flags_is_clean(self):
        # `image ghz --backend dense` must keep working: flags still at
        # their argparse defaults are treated as unset
        config = CheckerConfig.from_cli_args(_cli_args(backend="dense"))
        assert config.backend == "dense"
        assert config.method_params == {}

    def test_dense_with_explicit_tdd_flags_raises(self):
        # the cli.py silent-parameter-drop bug, fixed: each of these
        # previously vanished without a trace
        with pytest.raises(ConfigError, match="tdd-only"):
            CheckerConfig.from_cli_args(
                _cli_args(backend="dense", method="basic"))
        with pytest.raises(ConfigError, match="tdd-only"):
            CheckerConfig.from_cli_args(_cli_args(backend="dense", k1=6))
        with pytest.raises(ConfigError):
            CheckerConfig.from_cli_args(
                _cli_args(backend="dense", method="hybrid"))


class TestLegacyShims:
    """The legacy keyword spellings are gone; the config path is the
    only one, and it neither warns nor tolerates leftover keywords."""

    def test_model_checker_config_path_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            ModelChecker(models.ghz_qts(3), CheckerConfig(method="basic"))

    def test_model_checker_rejects_config_plus_kwargs(self):
        with pytest.raises(TypeError, match="method"):
            ModelChecker(models.ghz_qts(3), CheckerConfig(),
                         method="basic")

    def test_make_backend_config_path_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            backend = make_backend(CheckerConfig(method="basic"))
        assert backend.config.method == "basic"

    def test_make_backend_from_config(self):
        assert set(BACKENDS) == {"tdd", "dense"}
        assert make_backend(CheckerConfig()).name == "tdd"
        dense = make_backend(CheckerConfig(backend="dense", max_qubits=9))
        assert dense.name == "dense"
        assert dense.max_qubits == 9

    def test_make_backend_rejects_config_plus_kwargs(self):
        with pytest.raises(TypeError, match="method"):
            make_backend(CheckerConfig(), method="basic")

    def test_tdd_backend_rejects_config_plus_kwargs(self):
        # a leftover legacy kwarg next to a config must not be
        # silently discarded
        from repro.mc.backends import TDDBackend
        with pytest.raises(TypeError, match="jobs"):
            TDDBackend(CheckerConfig(method="basic"), jobs=4,
                       strategy="sliced")

    def test_checker_config_is_repro_error(self):
        # callers catching the package base class keep working
        with pytest.raises(ReproError):
            CheckerConfig(backend="nonsense")


def _qts():
    return models.ghz_qts(3)


#: every spelling the config replaced, the frontier flag, the opsharded
#: driver and the sliced execution strategy's knobs: each must fail at
#: the call, not warn and carry on
REMOVED_SPELLINGS = {
    "checker-method-kwarg": lambda: ModelChecker(_qts(), method="basic"),
    "checker-positional-method": lambda: ModelChecker(_qts(), "basic"),
    "make-backend-name-kwargs": lambda: make_backend("tdd", method="basic"),
    "make-backend-name": lambda: make_backend("dense"),
    "runspec-method-kwarg": lambda: RunSpec("ghz", 3, method="basic"),
    "runspec-flat-schema": lambda: RunSpec.from_dict(
        {"model": "ghz", "size": 3, "method": "basic"}),
    "opsharded-driver": lambda: CheckerConfig(driver="opsharded"),
    "frontier-flag": lambda: reachable_space(_qts(), frontier=True),
    "config-strategy": lambda: CheckerConfig(strategy="sliced"),
    "config-dict-strategy": lambda: CheckerConfig.from_dict(
        {"strategy": "sliced"}),
    "reachable-strategy": lambda: reachable_space(_qts(), strategy="sliced"),
    "compute-image-jobs": lambda: compute_image(_qts(), jobs=2),
    "sweep-strategies-axis": lambda: SweepSpec.from_dict(
        {"models": ["ghz"], "sizes": [3],
         "strategies": ["monolithic", "sliced"]}),
}


class TestRemovedSpellings:
    @pytest.mark.parametrize("call", REMOVED_SPELLINGS.values(),
                             ids=REMOVED_SPELLINGS.keys())
    def test_fails_loudly(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises((ConfigError, TypeError)):
                call()
