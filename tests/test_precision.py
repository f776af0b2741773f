"""Float32 compute: one dtype from the store through the tape and AdamW.

A float32 run must stay float32 end to end (parameters, gradients, AdamW
moments), rerun bit for bit under its seed, and track the float64
reference at paper widths within tolerances fixed before the run.
"""

import dataclasses

import numpy as np
import pytest

from protomae import autodiff as ad
from protomae import checkpoint, cli, pipeline, shapes, verification
from protomae.config import preset


def f32(name="toy", **overrides):
    return dataclasses.replace(preset(name), dtype="float32", **overrides).validate()


@pytest.fixture()
def optimizers(monkeypatch):
    """Every AdamW the pipeline builds, so a test can read its moments and,
    parameter by parameter, the gradients its updates consume."""
    built = []

    class Recording(ad.AdamW):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.grad_dtypes = set()
            built.append(self)

        def _update(self, name, p, bc1, bc2):
            if p.grad is not None:
                self.grad_dtypes.add(p.grad.dtype)
            super()._update(name, p, bc1, bc2)

    monkeypatch.setattr(ad, "AdamW", Recording)
    return built


def assert_float32(store, opt=None):
    for name, t in store.items():
        assert t.values.dtype == np.float32, name
        assert t.grad is None, name
    if opt is not None:
        assert opt.grad_dtypes == {np.dtype(np.float32)}
        assert opt._m and opt._m.keys() == opt._v.keys() == set(store.names())
        for arr in list(opt._m.values()) + list(opt._v.values()) + list(opt._scratch[:2]):
            assert arr.dtype == np.float32


def test_float32_pipeline_stays_float32(tmp_path, optimizers):
    cfg = f32()
    pre = pipeline.pretrain(cfg, tmp_path / "pre")
    assert_float32(pre.store, optimizers[0])
    ckpt = tmp_path / "pre" / "checkpoint.bin"

    ft = pipeline.finetune(cfg, ckpt, csep=True, out_dir=tmp_path / "ft")
    assert_float32(ft.store, optimizers[1])
    report = pipeline.evaluate_grouping(ft.store, cfg, n_clouds=2)
    assert all(np.isfinite(report["nmi_per_cloud"]))
    assert_float32(ft.store)

    # export-groups reads its dtype from the checkpoint's embedded config
    assert checkpoint.load(ckpt).config().dtype == "float32"
    assert cli.main(["--out", str(tmp_path / "export"), "export-groups",
                     "--checkpoint", str(ckpt)]) == 0
    store = pipeline.init_model(cfg, decoder=False)
    checkpoint.load_into(store, checkpoint.load(ckpt))
    assert_float32(store)
    points, _ = shapes.make_shape("plane", cfg.n_points, seed=pipeline.HELD_OUT_SEED_BASE)
    labels = pipeline.export_groups(store, points, cfg, tmp_path / "groups.txt")
    assert (tmp_path / "groups.txt").read_text() == \
        (tmp_path / "export" / "groups.txt").read_text()
    assert labels.shape == (cfg.n_points,)
    assert_float32(store)


def test_float32_pretrain_reruns_bit_identically(tmp_path):
    cfg = f32()
    a = pipeline.pretrain(cfg, tmp_path / "a")
    b = pipeline.pretrain(cfg, tmp_path / "b")
    assert pipeline.params_hash(a.store) == pipeline.params_hash(b.store)
    for name in ("metrics.jsonl", "masks.jsonl", "checkpoint.bin"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_float32_tracks_float64_at_paper_widths():
    """Two paper-default steps of batch 2 in each dtype, from the same init.

    Tolerances fixed before the run: 1e-5 relative on ``total`` and 1e-3 on
    each of its components.
    """
    cfg = f32("paper-default", shape_kinds="chair,plane", clouds_per_kind=2,
              batch_size=2, epochs=1)
    single = pipeline.pretrain(cfg).metrics[-1]
    double = pipeline.pretrain(dataclasses.replace(cfg, dtype="float64")).metrics[-1]
    assert single["total"] == pytest.approx(double["total"], rel=1e-5)
    for key in ("l_3d", "l_proto", "l_cont"):
        assert single[key] == pytest.approx(double[key], rel=1e-3), key


def test_gradient_suite_runs_in_float64_whatever_the_config_says():
    assert verification.gradient_suite(f32()) == verification.gradient_suite(preset("toy"))
