"""Exit codes and artifact paths of the command-line entry point.

Training commands run against a config file dumped from the toy preset
so the whole file stays fast; the assertions are about wiring (argument
handling, exit codes, files landing where the help text promises), not
training quality.
"""

import dataclasses
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from protomae import cli
from protomae.config import preset


@pytest.fixture()
def toy_config_file(tmp_path):
    path = tmp_path / "toy.cfg"
    path.write_text(preset("toy").to_text())
    return str(path)


def test_oracle_suite_exits_zero(capsys):
    assert cli.main(["oracle-suite", "--instances", "5"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok ") == 3 and "FAIL" not in out


def test_gradcheck_exits_zero(capsys):
    assert cli.main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok ") == 4 and "FAIL" not in out


def test_gradcheck_honours_the_seed(capsys):
    assert cli.main(["gradcheck"]) == 0
    default = capsys.readouterr().out
    assert cli.main(["--seed", "5", "gradcheck"]) == 0
    seeded = capsys.readouterr().out
    assert seeded.count("ok ") == 4 and seeded != default


def test_failed_suite_exits_three(monkeypatch, capsys):
    bad = SimpleNamespace(op="fps", instances=1, mismatches=1,
                          max_deviation=1.0, ok=False)
    monkeypatch.setattr(cli.verification, "oracle_suite", lambda instances: [bad])
    assert cli.main(["oracle-suite"]) == 3
    assert "numeric error" in capsys.readouterr().err


def test_unknown_preset_exits_two(capsys):
    assert cli.main(["--preset", "galactic", "pretrain"]) == 2
    assert "config error" in capsys.readouterr().err


def test_config_and_preset_are_exclusive(toy_config_file):
    assert cli.main(["--config", toy_config_file, "--preset", "toy",
                     "pretrain"]) == 2


def test_unknown_config_key_exits_two(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("dim = 16\nwarp_drive = 9\n")
    assert cli.main(["--config", str(path), "pretrain"]) == 2


def test_non_finite_loss_weight_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("preset = toy\nlambda_proto = nan\n")
    assert cli.main(["--config", str(path), "--out", str(tmp_path), "pretrain"]) == 2
    assert "lambda_proto" in capsys.readouterr().err


def test_missing_checkpoint_exits_two(toy_config_file, tmp_path):
    assert cli.main(["--config", toy_config_file, "--out", str(tmp_path),
                     "finetune", "--checkpoint", str(tmp_path / "no.bin")]) == 2


def test_corrupt_checkpoint_exits_two(toy_config_file, tmp_path, capsys):
    from protomae import checkpoint, pipeline

    cfg = preset("toy")
    ckpt = tmp_path / "pre.bin"
    checkpoint.save(ckpt, pipeline.init_model(cfg), cfg, np.random.default_rng(0))
    blob = ckpt.read_bytes()
    ckpt.write_bytes(blob[:16] + b"\xff" + blob[17:])  # first byte of the config text
    assert cli.main(["--config", toy_config_file, "--out", str(tmp_path),
                     "finetune", "--checkpoint", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(ckpt) in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["float16", "bogus"])
def test_unknown_dtype_exits_two(tmp_path, capsys, value):
    path = tmp_path / "bad.cfg"
    path.write_text(f"preset = toy\ndtype = {value}\n")
    assert cli.main(["--config", str(path), "--out", str(tmp_path), "pretrain"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "dtype" in err and value in err


@pytest.mark.parametrize("command", ["finetune", "export-groups"])
def test_bad_embedded_config_names_the_checkpoint(tmp_path, capsys, command):
    from protomae import checkpoint, pipeline

    cfg = preset("toy")
    ck = checkpoint.from_store(pipeline.init_model(cfg), cfg, np.random.default_rng(0))
    ck.config_text = "dim = 16\nbogus line\n"
    path = tmp_path / "pre.bin"
    checkpoint.write(path, ck)
    assert cli.main(["--out", str(tmp_path), command, "--checkpoint", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"config error: {path}: embedded config: line 2: expected 'key = value'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key, value", [("learning_rate", "inf"),
                                        ("finetune_learning_rate", "-1")])
def test_bad_rate_exits_two(tmp_path, capsys, key, value):
    path = tmp_path / "bad.cfg"
    path.write_text(f"preset = toy\n{key} = {value}\n")
    assert cli.main(["--config", str(path), "--out", str(tmp_path), "pretrain"]) == 2
    assert key in capsys.readouterr().err


def test_finetune_from_checkpoint_missing_encoder_tensors_exits_two(
        toy_config_file, tmp_path, capsys):
    from protomae import checkpoint, pipeline

    cfg = preset("toy")
    ck = checkpoint.from_store(pipeline.init_model(cfg), cfg, np.random.default_rng(0))
    del ck.tensors["enc.block00.attn.wq"], ck.tensors["embed.pos.w"]
    path = tmp_path / "pre.bin"
    checkpoint.write(path, ck)
    assert cli.main(["--config", toy_config_file, "--out", str(tmp_path),
                     "finetune", "--checkpoint", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert "'embed.pos.w', 'enc.block00.attn.wq'" in err


def test_finetune_from_a_non_finite_checkpoint_exits_two(toy_config_file, tmp_path, capsys):
    from protomae import checkpoint, pipeline

    cfg = preset("toy")
    ck = checkpoint.from_store(pipeline.init_model(cfg), cfg, np.random.default_rng(0))
    ck.tensors["enc.block00.attn.wq"][0, 0] = np.nan
    path = tmp_path / "pre.bin"
    checkpoint.write(path, ck)
    assert cli.main(["--config", toy_config_file, "--out", str(tmp_path),
                     "finetune", "--checkpoint", str(path)]) == 2
    err = capsys.readouterr().err
    assert (f"config error: {path}: tensor 'enc.block00.attn.wq' holds non-finite values"
            in err)
    assert "Traceback" not in err
    assert not (tmp_path / "finetune").exists()


def test_export_groups_from_baseline_finetune_checkpoint_exits_two(tmp_path, capsys):
    from protomae import checkpoint, heads, pipeline

    cfg = preset("toy")
    # the tensors a plain-head fine-tune saves: no prototype branch
    store = pipeline.init_model(cfg, decoder=False, pcsm_branch=False)
    heads.init_head_params(store, cfg, len(cfg.kinds()), csep=False)
    path = tmp_path / "finetune-baseline.bin"
    checkpoint.save(path, store, cfg, np.random.default_rng(0))
    assert cli.main(["--out", str(tmp_path), "export-groups",
                     "--checkpoint", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "'pcsm.prototypes'" in err
    assert not (tmp_path / "groups.txt").exists()


def test_export_groups_unknown_kind_exits_two_naming_the_choices(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--out", str(tmp_path), "export-groups", "--checkpoint",
                  str(tmp_path / "unread.bin"), "--kind", "bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--kind: invalid choice: 'bogus'" in err and "plane" in err and "pair" not in err
    assert not (tmp_path / "groups.txt").exists()


def test_pretrain_finetune_export_chain(toy_config_file, tmp_path, capsys):
    out = str(tmp_path / "runs")
    assert cli.main(["--config", toy_config_file, "--out", out,
                     "pretrain"]) == 0
    ckpt = tmp_path / "runs" / "pretrain" / "checkpoint.bin"
    assert ckpt.exists()
    assert "checkpoint:" in capsys.readouterr().out

    assert cli.main(["--config", toy_config_file, "--out", out, "finetune",
                     "--checkpoint", str(ckpt), "--csep"]) == 0
    csep = tmp_path / "runs" / "finetune" / "finetune-csep.bin"
    assert csep.exists()

    # export falls back to the config embedded in the checkpoint
    assert cli.main(["--out", out, "export-groups", "--checkpoint",
                     str(ckpt), "--kind", "rocket"]) == 0
    groups = tmp_path / "runs" / "groups.txt"
    cfg = preset("toy")
    assert len(groups.read_text().splitlines()) == cfg.n_points

    # the prompted fine-tune's store holds the grouping branch too
    assert cli.main(["--out", str(tmp_path / "csep"), "export-groups",
                     "--checkpoint", str(csep)]) == 0
    assert len((tmp_path / "csep" / "groups.txt").read_text().splitlines()) == cfg.n_points


def test_export_groups_reads_cloud_file(toy_config_file, tmp_path):
    from protomae import checkpoint, pipeline

    cfg = preset("toy")
    store = pipeline.init_model(cfg)
    ckpt = tmp_path / "pre.bin"
    checkpoint.save(ckpt, store, cfg, np.random.default_rng(0))

    rng = np.random.default_rng(4)
    cloud = tmp_path / "cloud.txt"
    cloud.write_text("\n".join(
        " ".join(f"{v:.6f}" for v in row)
        for row in rng.standard_normal((cfg.n_points, 3))) + "\n")

    assert cli.main(["--out", str(tmp_path), "export-groups",
                     "--checkpoint", str(ckpt), "--cloud", str(cloud)]) == 0
    assert (tmp_path / "groups.txt").exists()


def test_export_groups_labels_do_not_depend_on_the_file_units(tmp_path):
    from protomae import geometry, pipeline, shapes

    cfg = preset("toy")
    ckpt = pipeline.pretrain(cfg, tmp_path / "pre").checkpoint_path
    points, _ = shapes.make_shape("chair", cfg.n_points, seed=pipeline.HELD_OUT_SEED_BASE)
    labels = {}
    for scale in (1.0, 1024.0):
        cloud = tmp_path / f"chair-{scale:g}.txt"
        geometry.save_cloud(cloud, points * scale)
        out = tmp_path / f"groups-{scale:g}"
        assert cli.main(["--out", str(out), "export-groups", "--checkpoint", str(ckpt),
                         "--cloud", str(cloud)]) == 0
        written, labels[scale] = geometry.load_cloud(out / "groups.txt")
        assert np.array_equal(written, points * scale)  # the file's own coordinates
    assert np.array_equal(labels[1024.0], labels[1.0])
    assert np.unique(labels[1.0]).size > 1


@pytest.mark.parametrize("rows, message", [
    ("0 0 0\n1 1 1\n", "cannot supply"),
    ("0 0 0\nnan 1 1\n", "cloud.txt:2: non-finite"),
    pytest.param("".join(f"{i % 5}e200 -{i % 3}e200 1e200\n" for i in range(16)),
                 "cloud.txt: normalize of a cloud whose extent overflows float64",
                 id="extent-overflows"),
    pytest.param("1 2 3\n" * 16, "cloud.txt: normalize of a degenerate single-location cloud",
                 id="single-location"),
])
def test_export_groups_bad_cloud_file_exits_two(tmp_path, capsys, rows, message):
    from protomae import checkpoint, pipeline

    cfg = preset("toy")
    ckpt = tmp_path / "pre.bin"
    checkpoint.save(ckpt, pipeline.init_model(cfg), cfg, np.random.default_rng(0))
    cloud = tmp_path / "cloud.txt"
    cloud.write_text(rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning on the way
        assert cli.main(["--out", str(tmp_path), "export-groups",
                         "--checkpoint", str(ckpt), "--cloud", str(cloud)]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and message in err and "Traceback" not in err
    assert str(cloud) in err


@pytest.mark.parametrize("case", ["missing", "directory", "not-utf8", "config-not-utf8"])
def test_unreadable_input_file_exits_two(tmp_path, capsys, case):
    from protomae import checkpoint, pipeline

    cfg = preset("toy")
    ckpt = tmp_path / "pre.bin"
    checkpoint.save(ckpt, pipeline.init_model(cfg), cfg, np.random.default_rng(0))
    path = tmp_path / "input.txt"
    if case == "directory":
        path.mkdir()
    elif case != "missing":
        path.write_bytes(b"0 0 0\n\xff\xfe 1 1\n")
    if case == "config-not-utf8":
        argv = ["--config", str(path), "--out", str(tmp_path), "pretrain"]
    else:
        argv = ["--out", str(tmp_path), "export-groups", "--checkpoint", str(ckpt),
                "--cloud", str(path)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert ("config error" if case.startswith("config") else "input error") in err
    assert str(path) in err and "Traceback" not in err


def test_finetune_falls_back_to_the_checkpoint_config(tmp_path):
    from protomae import checkpoint

    out = str(tmp_path / "runs")
    assert cli.main(["--preset", "toy", "--out", out, "pretrain"]) == 0
    ckpt = tmp_path / "runs" / "pretrain" / "checkpoint.bin"
    assert cli.main(["--seed", "5", "--out", out, "finetune", "--checkpoint", str(ckpt)]) == 0
    saved = checkpoint.load(tmp_path / "runs" / "finetune" / "finetune-baseline.bin").config()
    assert saved == dataclasses.replace(preset("toy"), seed=5)


def test_ablate_single_strategy(toy_config_file, tmp_path, capsys):
    cfg = dataclasses.replace(preset("toy"), epochs=1, finetune_epochs=1)
    path = tmp_path / "fast.cfg"
    path.write_text(cfg.to_text())
    out = str(tmp_path / "runs")
    assert cli.main(["--config", str(path), "--out", out, "ablate",
                     "--strategies", "randm"]) == 0
    assert (tmp_path / "runs" / "ablate" / "ablation.csv").exists()
    assert "randm: total" in capsys.readouterr().out


def test_ablate_repeated_strategy_exits_two(toy_config_file, tmp_path, capsys):
    out = tmp_path / "runs"
    assert cli.main(["--config", toy_config_file, "--out", str(out), "ablate",
                     "--strategies", "randm,randm"]) == 2
    err = capsys.readouterr().err
    assert "config error: repeated masking strategies ['randm']" in err
    assert "Traceback" not in err
    assert not (out / "ablate" / "ablation.csv").exists()


@pytest.mark.parametrize("val_fraction, n_train, n_val", [(0.1, 4, 0), (0.9, 0, 4)])
@pytest.mark.parametrize("command", ["finetune", "ablate"])
def test_empty_finetune_split_exits_two(tmp_path, capsys, monkeypatch, command, val_fraction,
                                        n_train, n_val):
    from protomae import checkpoint, pipeline

    # the split is checked before the first fine-tune step or pretrain runs
    monkeypatch.setattr(pipeline, "_finetune_step", None)
    monkeypatch.setattr(pipeline, "pretrain", None)
    cfg = dataclasses.replace(preset("toy"), val_fraction=val_fraction)
    path = tmp_path / "split.cfg"
    path.write_text(cfg.to_text())
    out = tmp_path / "runs"
    argv = ["--config", str(path), "--out", str(out), command]
    if command == "finetune":
        ckpt = tmp_path / "pre.bin"
        checkpoint.write(ckpt, checkpoint.from_store(pipeline.init_model(cfg), cfg,
                                                     np.random.default_rng(0)))
        argv += ["--checkpoint", str(ckpt)]
    else:
        argv += ["--strategies", "randm"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert (f"config error: val_fraction {val_fraction} of clouds_per_kind 4 leaves "
            f"{n_train} training and {n_val} validation clouds per kind") in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["pretrain", "finetune", "ablate", "export-groups"])
def test_out_under_a_regular_file_exits_two_before_any_step(tmp_path, capsys, monkeypatch,
                                                            command):
    from protomae import checkpoint, pipeline

    def no_work(*args, **kwargs):
        raise AssertionError("ran before checking --out")

    for owner, name in ((pipeline, "train_step"), (pipeline, "_finetune_step"),
                        (pipeline.pcsm, "cloud_assignment")):
        monkeypatch.setattr(owner, name, no_work)
    cfg = dataclasses.replace(preset("toy"), epochs=1, finetune_epochs=1)
    path = tmp_path / "toy.cfg"
    path.write_text(cfg.to_text())
    ckpt = tmp_path / "pre.bin"
    checkpoint.write(ckpt, checkpoint.from_store(pipeline.init_model(cfg), cfg,
                                                 np.random.default_rng(0)))
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    argv = ["--config", str(path), "--out", str(blocker), command]
    if command in ("finetune", "export-groups"):
        argv += ["--checkpoint", str(ckpt)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"input error: cannot create output directory {blocker}" in err
    assert "Traceback" not in err
    assert blocker.read_text() == "not a directory\n"


def test_seed_override_changes_data_stream(toy_config_file, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli.main(["--config", toy_config_file, "--seed", "1",
                     "--out", str(out_a), "pretrain"]) == 0
    assert cli.main(["--config", toy_config_file, "--seed", "2",
                     "--out", str(out_b), "pretrain"]) == 0
    assert (out_a / "pretrain" / "metrics.jsonl").read_bytes() != \
           (out_b / "pretrain" / "metrics.jsonl").read_bytes()

@pytest.mark.parametrize("argv, message", [
    (["--seed", "-1", "pretrain"], "config error: seed must be >= 0, got -1"),
    (["--seed", "-1", "gradcheck"], "config error: seed must be >= 0, got -1"),
    (["export-groups", "--checkpoint", "no.bin", "--cloud-seed", "-1"],
     "input error: --cloud-seed must be >= 0, got -1"),
    (["oracle-suite", "--instances", "0"], "input error: --instances must be >= 1, got 0"),
    (["oracle-suite", "--instances", "-3"], "input error: --instances must be >= 1, got -3"),
])
def test_negative_seed_or_empty_oracle_check_exits_two(tmp_path, capsys, argv, message):
    assert cli.main(["--out", str(tmp_path)] + argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err and "Traceback" not in captured.err
    assert "ok " not in captured.out


@pytest.mark.parametrize("key", ["seed", "split_seed"])
def test_negative_seed_in_a_config_file_exits_two(tmp_path, capsys, key):
    path = tmp_path / "bad.cfg"
    path.write_text(f"preset = toy\n{key} = -5\n")
    assert cli.main(["--config", str(path), "--out", str(tmp_path), "pretrain"]) == 2
    assert f"config error: {key} must be >= 0, got -5" in capsys.readouterr().err
