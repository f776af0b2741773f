"""Acceptance gate: nine behaviour contracts, one test per contract.

`pytest tests/test_acceptance.py -v` prints one pass/fail line per
criterion; with `-s` each test also prints its measured numbers.
Criteria 5-7 share one full test-small pre-training run through the
session fixture; everything else is self-contained and fast.  Each
test restates its invariant independently instead of importing helper
logic from the unit files, so a weakened unit test cannot weaken the
gate.
"""

import dataclasses
import json
import math
import re
import time

import numpy as np
import pytest

from protomae import checkpoint, heads, pcsm, pipeline, verification
from protomae.autodiff import Tensor
from protomae.config import preset
from protomae.errors import ConfigError
from protomae.masking import csem_mask, round_half_up


def test_criterion_1_gradient_suite():
    cfg = preset("toy")
    assert cfg.n_patches <= 8 and cfg.dim <= 16 and cfg.n_prototypes <= 4
    t0 = time.monotonic()
    reports = verification.gradient_suite(cfg)
    wall = time.monotonic() - t0
    assert {r.loss for r in reports} == {"l_3d", "l_proto", "l_cont",
                                         "cross_entropy"}
    for r in reports:
        assert r.probes > 0, r.loss
        assert r.max_rel_err <= 1e-4, (r.loss, r.max_rel_err, r.worst_parameter)
    assert wall < 60.0
    worst = max(r.max_rel_err for r in reports)
    print(f"PASS criterion 1: 4 losses, worst rel err {worst:.3e}, {wall:.1f}s")


def test_criterion_2_geometry_oracles():
    reports = verification.oracle_suite(instances=200)
    by_op = {r.op: r for r in reports}
    assert set(by_op) == {"fps", "knn", "chamfer"}
    for r in reports:
        assert r.instances == 200
        assert r.mismatches == 0, r
    assert by_op["chamfer"].max_deviation <= 1e-12
    print(f"PASS criterion 2: 200 instances per op exact, chamfer deviation "
          f"{by_op['chamfer'].max_deviation:.3e}")


def test_criterion_3_masking_invariants():
    checked = 0
    seed = 0
    while checked < 1000:
        seed += 1
        rng = np.random.default_rng(seed)
        g = int(rng.integers(8, 97))
        q = int(rng.integers(2, 7))
        assignment = rng.integers(0, q, size=g)
        ratio = float(rng.uniform(0.3, 0.8))
        target = round_half_up(ratio * g)
        if not 1 <= target <= g - 1 or np.unique(assignment).size < 2:
            continue
        masked, selected = csem_mask(assignment, 1, ratio, np.random.default_rng(seed))
        again, again_selected = csem_mask(assignment, 1, ratio, np.random.default_rng(seed))
        assert np.array_equal(masked, again)
        assert np.array_equal(selected, again_selected)
        assert masked.sum() == target and 1 <= masked.sum() <= g - 1
        full = selected.tolist()
        for comp in full:
            assert masked[assignment == comp].all()
        ids, sizes = np.unique(assignment, return_counts=True)
        size_of = {int(i): int(s) for i, s in zip(ids, sizes)}
        deficit = target - sum(size_of[c] for c in full)
        pool = sum(s for c, s in size_of.items() if c not in full)
        for c, s in size_of.items():
            if c in full:
                continue
            assert abs(masked[assignment == c].sum() - deficit * s / pool) < 1.0
        checked += 1
    print("PASS criterion 3: 1000 instances (count, full components, "
          "stratification, determinism)")


def test_criterion_4_contrastive_closed_forms():
    rng = np.random.default_rng(0)
    identical = Tensor(np.tile(rng.standard_normal(16), (2, 1)))
    for eps in (1.0, 0.25, 0.005):
        got = float(pcsm.l_cont(identical, eps).values)
        assert abs(got - 2.0 * math.log(2.0)) <= 1e-9, eps

    orthogonal = Tensor(np.eye(2, 16) * 3.7)  # cosine ignores the scale
    got = float(pcsm.l_cont(orthogonal, 1.0).values)
    assert abs(got - 2.0 * math.log(1.0 + math.exp(-1.0))) <= 1e-9
    print("PASS criterion 4: 2 log 2 and 2 log(1+e^-1) within 1e-9")


def test_criterion_5_training_descent(reference_pretrain, tmp_path):
    cfg, res = reference_pretrain
    first = res.metrics[0]["total"]
    last = res.metrics[-1]["total"]
    assert res.metrics[-1]["epoch"] == cfg.epochs == 30
    assert last <= 0.5 * first, (first, last)
    assert res.wall_seconds < 600.0

    rerun = pipeline.pretrain(cfg, tmp_path)
    reference_bytes = (res.checkpoint_path.parent / "metrics.jsonl").read_bytes()
    assert (tmp_path / "metrics.jsonl").read_bytes() == reference_bytes
    assert pipeline.params_hash(rerun.store) == pipeline.params_hash(res.store)
    print(f"PASS criterion 5: total {first:.4f} -> {last:.4f} "
          f"({last / first:.1%}) in {res.wall_seconds:.0f}s, "
          f"rerun bit-identical")


def test_criterion_6_grouping_beats_random(reference_pretrain):
    cfg, res = reference_pretrain
    report = pipeline.evaluate_grouping(res.store, cfg, kind="plane",
                                        n_clouds=16, draws=100)
    assert report["nmi_mean"] > report["random_mean"]
    print(f"PASS criterion 6: held-out plane NMI {report['nmi_mean']:.3f} "
          f"> random {report['random_mean']:.3f}")


def _readout_block_equality_gap():
    # identical weights everywhere the two heads overlap, encoder made an
    # exact identity by zeroing the residual projections, and the prompted
    # readout given a zero block on the pooled-prototype slice: feeding zero
    # prompt rows must then reproduce the plain classifier's logits
    cfg = preset("toy")
    plain = pipeline.init_model(cfg, decoder=False, pcsm_branch=False)
    heads.init_head_params(plain, cfg, 4, csep=False)
    prompted = pipeline.init_model(cfg, decoder=False, pcsm_branch=True)
    heads.init_head_params(prompted, cfg, 4, csep=True)
    for name in plain.names():
        if name.startswith(("embed.", "enc.")) or name in ("cls.token", "cls.pos"):
            prompted[name].values[...] = plain[name].values
    c = cfg.dim
    w0 = np.zeros((3 * c, cfg.head_hidden))
    w0[:c] = plain["cls.head.w0"].values[:c]
    w0[2 * c:] = plain["cls.head.w0"].values[c:]
    prompted["cls.head.w0"].values[...] = w0
    for name in ("cls.head.b0", "cls.head.w1", "cls.head.b1"):
        prompted[name].values[...] = plain[name].values
    for store in (plain, prompted):
        for name in store.names():
            if name.endswith(".attn.wo") or name.endswith(".mlp.w1"):
                store[name].values[:] = 0.0
    from protomae import shapes
    pts, _ = shapes.make_shape("chair", cfg.n_points, seed=5)
    base = heads.classify_baseline(pts, plain, cfg)
    zeros = Tensor(np.zeros((cfg.n_prototypes, c)))
    with pytest.MonkeyPatch.context() as m:  # the prompted head's rows come from refresh
        m.setattr(pcsm, "refresh", lambda tb, params, cfg: (None, zeros))
        got = heads.classify_csep(pts, prompted, cfg)
    return float(np.abs(got.values - base.values).max())


def test_criterion_7_classification_contract(reference_pretrain):
    cfg, res = reference_pretrain
    plain = pipeline.init_model(cfg, decoder=False, pcsm_branch=False)
    heads.init_head_params(plain, cfg, 4, csep=False)
    prompted = pipeline.init_model(cfg, decoder=False, pcsm_branch=True)
    heads.init_head_params(prompted, cfg, 4, csep=True)
    assert plain["cls.head.w0"].values.shape == (2 * cfg.dim, cfg.head_hidden)
    assert prompted["cls.head.w0"].values.shape == (3 * cfg.dim, cfg.head_hidden)

    gap = _readout_block_equality_gap()
    assert gap <= 1e-12, gap

    best = {}
    for csep in (False, True):
        ft = pipeline.finetune(cfg, res.checkpoint_path, csep=csep)
        assert len(ft.metrics) <= 50
        best[csep] = max(row["train_accuracy"] for row in ft.metrics)
        assert best[csep] >= 0.80, (csep, ft.metrics)
    print(f"PASS criterion 7: widths 2C/3C, block gap {gap:.1e}, train acc "
          f"plain {best[False]:.2f} prompted {best[True]:.2f}")


def test_criterion_8_ablation_controls(tmp_path):
    cfg = dataclasses.replace(preset("test-small"), epochs=2,
                              clouds_per_kind=8, finetune_epochs=2).validate()
    rows = pipeline.ablate(cfg, ["randm", "randbm", "csem"], tmp_path)
    assert [r["strategy"] for r in rows] == ["randm", "randbm", "csem"]
    assert len({r["init_hash"] for r in rows}) == 1
    assert len({r["data_hash"] for r in rows}) == 1

    mask_rows = [json.loads(line) for line in
                 (tmp_path / "csem" / "masks.jsonl").read_text().splitlines()]
    with_selection = [r for r in mask_rows if r["selected"]]
    assert len(with_selection) >= 0.9 * len(mask_rows)
    assert all(r["coverage_selected"] == 1.0 for r in with_selection)
    assert (tmp_path / "ablation.csv").exists()
    print(f"PASS criterion 8: shared hashes across 3 strategies, csem "
          f"coverage 1.0 on {len(with_selection)}/{len(mask_rows)} plans")


def test_criterion_9_persistence(tmp_path):
    cfg = preset("toy")
    store = pipeline.init_model(cfg)
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    checkpoint.save(a, store, cfg, np.random.default_rng(1))
    ck = checkpoint.load(a)
    checkpoint.write(b, ck)
    assert a.read_bytes() == b.read_bytes()

    wide = pipeline.init_model(dataclasses.replace(cfg, dim=32).validate())
    offending = next(n for n in wide.names()
                     if ck.tensors[n].shape != wide[n].values.shape)
    with pytest.raises(ConfigError) as err:
        checkpoint.load_into(wide, ck)
    named = re.search(r"tensor '([^']+)'", str(err.value)).group(1)
    assert named == offending
    print(f"PASS criterion 9: byte-identical round trip, mismatch names "
          f"'{named}'")
