"""Run configuration: the text round-trip, line-numbered parse errors, and
the shape-kind checks made when a config is validated."""

import dataclasses

import pytest

from protomae.config import _PRESETS, RunConfig, preset
from protomae.errors import ConfigError
from protomae.shapes import SHAPE_KINDS


@pytest.mark.parametrize("name", sorted(_PRESETS))
def test_every_preset_round_trips_through_text(name):
    cfg = preset(name)
    again = RunConfig.from_text(cfg.to_text())
    assert again == cfg
    assert again.to_text() == cfg.to_text()


@pytest.mark.parametrize("text, message", [
    ("dim = 16\nwarp_drive = 9\n", "line 2: unknown config key 'warp_drive'"),
    ("dim = 16\n# comment\ndim = 32\n", "line 3: duplicate config key 'dim'"),
    ("dim = 16\nepochs 3\n", "line 2: expected 'key = value'"),
    ("knorm_enabled = maybe\n", "line 1: bad value for 'knorm_enabled'"),
    ("\ndim = sixteen\n", "line 2: bad value for 'dim'"),
    ("epochs = 3.5\n", "line 1: bad value for 'epochs'"),
])
def test_malformed_text_names_the_line(text, message):
    with pytest.raises(ConfigError, match=message):
        RunConfig.from_text(text)


def with_kinds(kinds: str) -> RunConfig:
    return dataclasses.replace(preset("toy"), shape_kinds=kinds)


def test_kinds_are_stripped():
    assert with_kinds(" chair, plane ,,").validate().kinds() == ["chair", "plane"]


def test_unknown_kind_is_rejected_at_validation():
    with pytest.raises(ConfigError, match=r"unknown shape kinds \['plain'\]") as exc:
        with_kinds("chair,plain").validate()
    assert all(kind in str(exc.value) for kind in SHAPE_KINDS)


@pytest.mark.parametrize("kinds", ["chair", "", " , ", "chair, chair"])
def test_fewer_than_two_kinds_are_rejected_at_validation(kinds):
    with pytest.raises(ConfigError, match="two shape kinds"):
        with_kinds(kinds).validate()


def test_repeated_kind_is_rejected_at_validation():
    with pytest.raises(ConfigError, match="repeated shape kind"):
        with_kinds("chair,plane,chair").validate()


def test_bad_kind_in_config_text_is_rejected():
    with pytest.raises(ConfigError, match="unknown shape kinds"):
        RunConfig.from_text("preset = toy\nshape_kinds = chair,plane,teapot\n")


@pytest.mark.parametrize("key, value", [
    ("lambda_proto", "nan"), ("lambda_proto", "inf"), ("lambda_proto", "-1"),
    ("lambda_cont", "-inf"), ("lambda_cont", "nan"), ("lambda_cont", "-0.5"),
    ("mlp_ratio", "nan"), ("mlp_ratio", "inf"), ("mlp_ratio", "-2"),
    ("mlp_ratio", "0.03"),  # round(0.03 * 16) == 0 hidden units at toy width
])
def test_bad_loss_weight_or_mlp_ratio_is_rejected_naming_the_key(key, value):
    with pytest.raises(ConfigError, match=key):
        RunConfig.from_text(f"preset = toy\n{key} = {value}\n")


def test_a_config_is_checked_when_built_and_cannot_be_changed():
    with pytest.raises(ConfigError, match="batch_size"):
        RunConfig(batch_size=0)
    cfg = preset("toy")
    with pytest.raises(ConfigError, match="batch_size"):
        dataclasses.replace(cfg, batch_size=0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.batch_size = 0
    assert cfg.batch_size == preset("toy").batch_size


def test_zero_loss_weights_and_a_one_unit_mlp_are_accepted():
    cfg = RunConfig.from_text("preset = toy\nlambda_proto = 0\nlambda_cont = 0\n"
                              "mlp_ratio = 0.0625\n")
    assert (cfg.lambda_proto, cfg.lambda_cont, round(cfg.mlp_ratio * cfg.dim)) == (0.0, 0.0, 1)


@pytest.mark.parametrize("key, value", [
    ("learning_rate", "inf"), ("proto_learning_rate", "inf"),
    ("weight_decay", "inf"), ("proto_weight_decay", "inf"),
    ("cont_temperature", "inf"), ("stop_train_accuracy", "nan"),
    ("finetune_learning_rate", "-1"), ("finetune_learning_rate", "nan"),
    ("finetune_learning_rate", "0"), ("finetune_learning_rate", "inf"),
])
def test_non_finite_or_out_of_range_rate_is_rejected_naming_the_key(key, value):
    with pytest.raises(ConfigError, match=key):
        RunConfig.from_text(f"preset = toy\n{key} = {value}\n")


def test_zero_weight_decays_and_a_disabled_early_stop_are_accepted():
    cfg = RunConfig.from_text("preset = toy\nweight_decay = 0\nproto_weight_decay = 0\n"
                              "stop_train_accuracy = 1.01\n")
    assert (cfg.weight_decay, cfg.proto_weight_decay, cfg.stop_train_accuracy) == (0.0, 0.0, 1.01)


def test_presets_set_their_compute_dtype():
    assert RunConfig().dtype == "float64"
    assert preset("paper-default").dtype == "float32"
    assert preset("test-small").dtype == preset("toy").dtype == "float64"
    assert "dtype = float32" in preset("paper-default").to_text()


@pytest.mark.parametrize("value", ["float16", "bogus"])
def test_unknown_dtype_names_the_key(value):
    with pytest.raises(ConfigError, match=f"dtype must be one of float32, float64, got '{value}'"):
        RunConfig.from_text(f"preset = toy\ndtype = {value}\n")


@pytest.mark.parametrize("value", ["bogus", "CSEM"])
def test_unknown_mask_strategy_names_the_value(value):
    with pytest.raises(ConfigError, match=f"^mask_strategy must be one of randm, randbm, csem, "
                                          f"got '{value}'$"):
        RunConfig.from_text(f"preset = toy\nmask_strategy = {value}\n")


@pytest.mark.parametrize("key", ["seed", "split_seed"])
@pytest.mark.parametrize("value", ["-1", "-5"])
def test_negative_seed_is_rejected_naming_the_key(key, value):
    with pytest.raises(ConfigError, match=f"^{key} must be >= 0, got {value}$"):
        RunConfig.from_text(f"preset = toy\n{key} = {value}\n")


@pytest.mark.parametrize("text", [
    "preset = test-small\nfull_mask_components = 4\n",   # n_prototypes = 4
    "preset = toy\nfull_mask_components = 9\n",
    "preset = toy\nfull_mask_components = -1\n",
])
def test_full_mask_components_must_leave_a_prototype_unselected(text):
    with pytest.raises(ConfigError, match=r"^full_mask_components must be in \[0, n_prototypes\)"):
        RunConfig.from_text(text)


@pytest.mark.parametrize("preset_name, value", [
    ("toy", "0.05"),        # round_half_up(0.4) = 0 of 8 patches
    ("toy", "0.95"),        # round_half_up(7.6) = 8 of 8 patches
    ("test-small", "0.01"), # round_half_up(0.32) = 0 of 32 patches
    ("toy", "0"), ("toy", "1"), ("toy", "nan"), ("toy", "inf"),
])
def test_mask_ratio_must_hide_some_but_not_all_patches(preset_name, value):
    with pytest.raises(ConfigError, match=r"^mask_ratio must mask 1\.\.n_patches-1 of"):
        RunConfig.from_text(f"preset = {preset_name}\nmask_ratio = {value}\n")


def test_the_extreme_masking_settings_that_fit_are_accepted():
    cfg = RunConfig.from_text("preset = toy\nmask_ratio = 0.07\nfull_mask_components = 3\n")
    assert (cfg.mask_ratio, cfg.full_mask_components) == (0.07, 3)  # masks 1 of 8
    assert RunConfig.from_text("preset = toy\nmask_ratio = 0.93\n").mask_ratio == 0.93  # 7 of 8
