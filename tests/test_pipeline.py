"""End-to-end training loop contracts at miniature scale.

Everything here runs on the toy preset (64-point clouds, one or two
epochs) so the whole file stays in the seconds range.  The claims under
test are structural: determinism of the metric stream, the controlled
variables of the masking comparison, labels staying out of the losses,
and the on-disk artifacts.
"""

import dataclasses
import json
import os
import statistics
import subprocess
import sys
import weakref

import numpy as np
import pytest

from protomae import autodiff as ad
from protomae import backbone, checkpoint, heads, pcsm, pipeline, shapes
from protomae.config import preset
from protomae.errors import ConfigError, InvalidArgument, InvariantViolation, NumericError


def tiny_cfg(**overrides):
    cfg = dataclasses.replace(preset("toy"), **overrides)
    return cfg.validate()


# ------------------------------------------------------------- dataset

def test_build_dataset_cycles_kinds_deterministically():
    cfg = tiny_cfg()
    ds = pipeline.build_dataset(cfg)
    kinds = cfg.shape_kinds.split(",")
    assert ds.points.shape == (len(kinds) * cfg.clouds_per_kind, cfg.n_points, 3)
    assert ds.labels.shape == ds.points.shape[:2] and ds.labels.dtype == np.int64
    assert ds.kinds == kinds
    assert list(ds.kind_ids[:4]) == [0, 1, 2, 3]

    again = pipeline.build_dataset(cfg)
    assert np.array_equal(ds.points, again.points)
    assert np.array_equal(ds.labels, again.labels)


def test_build_dataset_rejects_single_kind():
    with pytest.raises(ConfigError, match="two shape kinds"):
        pipeline.build_dataset(tiny_cfg(shape_kinds="chair"))


def test_split_is_stratified_disjoint_and_deterministic():
    cfg = tiny_cfg(clouds_per_kind=10)
    ds = pipeline.build_dataset(cfg)
    train, val = pipeline.split_dataset(ds, 0.2, split_seed=5)
    assert np.intersect1d(train, val).size == 0
    assert np.union1d(train, val).size == len(ds.points)
    for k in range(len(ds.kinds)):
        assert (ds.kind_ids[val] == k).sum() == 2
    t2, v2 = pipeline.split_dataset(ds, 0.2, split_seed=5)
    assert np.array_equal(train, t2) and np.array_equal(val, v2)
    t3, _ = pipeline.split_dataset(ds, 0.2, split_seed=6)
    assert not np.array_equal(train, t3)


def test_token_truth_majority_with_low_tie():
    labels = np.array([0, 0, 1, 1, 2])
    members = np.array([[0, 1, 2], [2, 3, 4], [1, 2, 0]])
    assert pipeline.token_truth(labels, members).tolist() == [0, 1, 0]
    # tie between labels 1 and 2 resolves to the lower label
    tie = np.array([[3, 4, 4], [2, 3, 3]])
    assert pipeline.token_truth(labels, tie).tolist() == [2, 1]


def test_token_truth_of_a_batch_equals_each_clouds_rows():
    # one bincount over (B, G, k) patches gives each cloud's own (G,) truth,
    # even when the clouds use different label ranges
    rng = np.random.default_rng(3)
    labels = np.stack([rng.integers(0, 2, size=40), rng.integers(0, 5, size=40),
                       rng.integers(3, 4, size=40)])
    members = rng.integers(0, 40, size=(3, 7, 6))
    batch = pipeline.token_truth(labels, members)
    assert batch.shape == (3, 7) and batch.dtype == np.int64
    for b in range(3):
        assert batch[b].tolist() == pipeline.token_truth(labels[b], members[b]).tolist()
        majority = [int(np.argmax(np.bincount(labels[b][row]))) for row in members[b]]
        assert batch[b].tolist() == majority


def test_params_hash_tracks_values():
    cfg = tiny_cfg()
    a = pipeline.init_model(cfg)
    b = pipeline.init_model(cfg)
    assert pipeline.params_hash(a) == pipeline.params_hash(b)
    b["pcsm.prototypes"].values[0, 0] += 1e-9
    assert pipeline.params_hash(a) != pipeline.params_hash(b)


# ------------------------------------------------------- optimizer step

class BackwardThenStep(ad.AdamW):
    """The reference step: the whole backward first, then every parameter in name order."""

    def step(self, loss=None):
        if loss is not None:
            loss.backward()
        super().step()


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_stepping_inside_the_walk_matches_backward_then_step(dtype):
    # 3 pretrain and 3 csep fine-tune steps: parameters and moments bit for
    # bit, and pcsm.enhance.*, which no backward reaches, still decays
    cfg = tiny_cfg(dtype=dtype)
    ds = pipeline.build_dataset(cfg)
    rng = np.random.default_rng(8)
    batches = [rng.choice(len(ds.points), cfg.batch_size, replace=False) for _ in range(3)]
    starts = rng.integers(cfg.n_points, size=cfg.batch_size)

    def pretrain_steps(cls):
        store = pipeline.init_model(cfg)
        init = {name: t.values.copy() for name, t in store.items()}
        opt = cls(store, lr=cfg.learning_rate, betas=(cfg.beta1, cfg.beta2),
                  weight_decay=cfg.weight_decay)
        mask_rng = np.random.default_rng(9)
        for batch in batches:
            pipeline.train_step(store, opt, mask_rng, ds.points[batch], starts, cfg)
        return store, opt, init

    def finetune_steps(cls):
        store = pipeline.init_model(cfg, decoder=False)
        heads.init_head_params(store, cfg, len(ds.kinds), csep=True)
        init = {name: t.values.copy() for name, t in store.items()}
        opt = cls(store, lr=cfg.finetune_learning_rate, betas=(cfg.beta1, cfg.beta2),
                  weight_decay=cfg.weight_decay)
        for batch in batches:
            pipeline._finetune_step(heads.classify_csep, store, opt, ds.points[batch],
                                    ds.kind_ids[batch], cfg)
        return store, opt, init

    for run in (pretrain_steps, finetune_steps):
        (store, opt, init), (ref_store, ref, _) = run(ad.AdamW), run(BackwardThenStep)
        assert opt.t == ref.t == 3
        for name, p in store.items():
            assert p.grad is None, name
            for got, want in ((p.values, ref_store[name].values),
                              (opt._m[name], ref._m[name]), (opt._v[name], ref._v[name])):
                assert got.dtype == want.dtype == np.dtype(dtype)
                assert got.tobytes() == want.tobytes(), name
        enhance = [name for name in store.names() if name.startswith("pcsm.enhance.")]
        assert enhance
        for name in enhance:
            decayed = init[name]
            for _ in range(3):                  # p -= lr * (0 + wd * p), as AdamW orders it
                decayed -= (decayed * cfg.weight_decay) * opt.lr
            assert not opt._m[name].any() and not opt._v[name].any(), name
            assert store[name].values.tobytes() == decayed.tobytes(), name


# ------------------------------------------------------------ pretrain

def test_pretrain_metrics_and_artifacts(tmp_path):
    cfg = tiny_cfg()
    res = pipeline.pretrain(cfg, tmp_path)
    assert len(res.metrics) == cfg.epochs
    steps = len(pipeline.build_dataset(cfg).points) // cfg.batch_size
    assert len(res.mask_log) == cfg.epochs * steps * cfg.batch_size

    for row in res.metrics:
        assert set(row) == {"epoch", "l_3d", "l_proto", "l_cont", "total",
                            "grouping_entropy", "component_purity"}
        recombined = (row["l_3d"] + cfg.lambda_proto * row["l_proto"]
                      + cfg.lambda_cont * row["l_cont"])
        assert row["total"] == pytest.approx(recombined, rel=1e-9)
        assert 0.0 <= row["grouping_entropy"] <= np.log(cfg.n_prototypes) + 1e-12
        assert 0.0 < row["component_purity"] <= 1.0
    for row in res.mask_log:
        assert len(row["bits"]) == cfg.n_patches
        assert row["strategy"] == cfg.mask_strategy
        assert row["bits"].count("1") == round(cfg.mask_ratio * cfg.n_patches)

    lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
    assert [json.loads(s)["epoch"] for s in lines] == [1, 2]
    assert len((tmp_path / "masks.jsonl").read_text().splitlines()) == len(res.mask_log)
    ck = checkpoint.load(tmp_path / "checkpoint.bin")
    assert np.array_equal(ck.tensors["pcsm.prototypes"],
                          res.store["pcsm.prototypes"].values)
    assert ck.config().to_text() == cfg.to_text()


def test_pretrain_is_bit_deterministic(tmp_path):
    cfg = tiny_cfg()
    a = pipeline.pretrain(cfg, tmp_path / "a")
    b = pipeline.pretrain(cfg, tmp_path / "b")
    assert (tmp_path / "a" / "metrics.jsonl").read_bytes() == \
           (tmp_path / "b" / "metrics.jsonl").read_bytes()
    assert a.mask_log == b.mask_log
    assert pipeline.params_hash(a.store) == pipeline.params_hash(b.store)
    assert (a.init_hash, a.data_hash) == (b.init_hash, b.data_hash)

    c = pipeline.pretrain(tiny_cfg(seed=cfg.seed + 1))
    assert c.data_hash != a.data_hash


_THREADED_RUN = """
import dataclasses, hashlib, sys
import numpy as np
from protomae import pipeline
from protomae.config import preset
rng = np.random.default_rng(0)
probe = rng.normal(size=(84, 256)) @ rng.normal(size=(256, 64))
print(hashlib.sha256(probe.tobytes()).hexdigest())
cfg = dataclasses.replace(preset("toy"), n_points=256, n_patches=16, knn_k=16,
                          embed_hidden1=32, embed_hidden2=64, dim=64).validate()
pipeline.pretrain(cfg, sys.argv[1])
pipeline.finetune(cfg, sys.argv[1] + "/checkpoint.bin", csep=True, out_dir=sys.argv[1])
"""


def test_pretrain_and_finetune_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # widths at which the embedding's GEMMs (1024 rows by 64 by 128) are
    # large enough for OpenBLAS to split them over threads.  Each child also
    # prints the digest of one GEMM the fine-tune issues, 84 rows by 256 by
    # 64: OpenBLAS's SkylakeX and Sandybridge kernels give it the same bits at
    # 1 and 2 threads, while Haswell, Zen, Nehalem, Prescott and Katmai round
    # it differently once two threads split its rows, and there no program
    # built on that GEMM can be thread-count invariant
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    outs, probes = [], set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        out = tmp_path / f"threads-{threads}"
        run = subprocess.run([sys.executable, "-c", _THREADED_RUN, str(out)], env=env,
                             check=True, timeout=300, capture_output=True, text=True)
        probes.add(run.stdout.split()[0])
        outs.append(out)
    if len(probes) > 1:
        pytest.skip("this OpenBLAS kernel's GEMM bits depend on the thread count")
    for name in ("metrics.jsonl", "masks.jsonl", "checkpoint.bin", "finetune-csep.bin"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_pretrain_frees_each_step_tape_before_the_next(monkeypatch):
    # Tensor takes no weakref, so watch the loss's value array: the tape
    # holds it until the last node of the step is dropped
    losses = []
    reconstruction_loss = pipeline.backbone.reconstruction_loss
    tokenize = pipeline.embedding.tokenize

    def recording_loss(*args, **kwargs):
        loss = reconstruction_loss(*args, **kwargs)
        losses.append(weakref.ref(loss.values))
        return loss

    def checking_tokenize(*args, **kwargs):
        assert all(ref() is None for ref in losses), "previous step's tape is still alive"
        return tokenize(*args, **kwargs)

    monkeypatch.setattr(pipeline.backbone, "reconstruction_loss", recording_loss)
    monkeypatch.setattr(pipeline.embedding, "tokenize", checking_tokenize)
    cfg = tiny_cfg()
    pipeline.pretrain(cfg)
    assert len(losses) == cfg.epochs * (len(pipeline.build_dataset(cfg).points) // cfg.batch_size)


def _glibc() -> bool:
    try:
        return os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _glibc(), reason="the heap policy is set on glibc only")
def test_warm_pretrain_steps_fault_in_no_memory(monkeypatch):
    # a warm step allocates what the previous one freed; with glibc keeping
    # its heap (autodiff's heap policy) that memory is reused in place, where
    # returning it to the kernel costs thousands of minor faults per step
    import resource

    faults = []
    train_step = pipeline.train_step

    def counting_step(*args, **kwargs):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        out = train_step(*args, **kwargs)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        return out

    monkeypatch.setattr(pipeline, "train_step", counting_step)
    pipeline.pretrain(dataclasses.replace(preset("test-small"), clouds_per_kind=8,
                                          epochs=2).validate())
    assert len(faults) == 8
    assert statistics.median(faults[2:]) < 64, faults


def test_one_call_fps_starts_equal_per_cloud_draws():
    # pretrain draws a step's FPS starts with one integers(n, size=B) call;
    # over several steps it must give the per-cloud loop's values and
    # leave the generator in the same state
    for seed in range(200):
        for n_points in (64, 65, 100, 256, 2048):
            for batch in (1, 2, 3, 8, 32):
                one, loop = np.random.default_rng(seed), np.random.default_rng(seed)
                for _ in range(3):
                    got = one.integers(n_points, size=batch)
                    expected = [int(loop.integers(n_points)) for _ in range(batch)]
                    assert got.tolist() == expected, (seed, n_points, batch)
                assert one.bit_generator.state == loop.bit_generator.state, \
                    (seed, n_points, batch)


def test_labels_influence_metrics_but_never_losses(monkeypatch):
    cfg = tiny_cfg()
    base = pipeline.pretrain(cfg)

    real = shapes.make_corpus

    def unlabeled_world(pairs, n):
        points, labels = real(pairs, n)
        return points, np.zeros_like(labels)

    monkeypatch.setattr(pipeline.shapes, "make_corpus", unlabeled_world)
    mangled = pipeline.pretrain(cfg)

    for ours, theirs in zip(base.metrics, mangled.metrics):
        for key in ("l_3d", "l_proto", "l_cont", "total", "grouping_entropy"):
            assert ours[key] == theirs[key], key
        assert theirs["component_purity"] == 1.0
        assert ours["component_purity"] < 1.0
    for ours, theirs in zip(base.mask_log, mangled.mask_log):
        assert ours["bits"] == theirs["bits"]


def test_pretrain_locates_nonfinite_batches(monkeypatch):
    def poisoned(pred, target):
        return ad.Tensor(np.float64("nan"))

    monkeypatch.setattr(pipeline.backbone, "l_3d", poisoned)
    with pytest.raises(NumericError, match="epoch 1 step 1: non-finite"):
        pipeline.pretrain(tiny_cfg())


def test_pretrain_rejects_undersized_dataset():
    with pytest.raises(ConfigError, match="cannot fill a batch"):
        pipeline.pretrain(tiny_cfg(clouds_per_kind=2, batch_size=16))


# ------------------------------------------------------------ finetune

def in_memory_ckpt(cfg, pcsm_branch=True):
    store = pipeline.init_model(cfg, decoder=True, pcsm_branch=pcsm_branch)
    return checkpoint.from_store(store, cfg, np.random.default_rng(cfg.seed))


def test_finetune_runs_both_heads(tmp_path):
    cfg = tiny_cfg()
    ck = in_memory_ckpt(cfg)
    for csep in (False, True):
        res = pipeline.finetune(cfg, ck, csep=csep, out_dir=tmp_path)
        assert 1 <= len(res.metrics) <= cfg.finetune_epochs
        for row in res.metrics:
            assert set(row) == {"epoch", "ce", "train_accuracy", "val_accuracy"}
            assert 0.0 <= row["train_accuracy"] <= 1.0
            assert 0.0 <= row["val_accuracy"] <= 1.0
        assert "cls.head.w0" in res.store
        assert "dec.mask_token" not in res.store
        name = "csep" if csep else "baseline"
        assert (tmp_path / f"finetune-{name}.jsonl").exists()
        assert (tmp_path / f"finetune-{name}.bin").exists()


def test_finetune_accepts_checkpoint_path(tmp_path):
    cfg = tiny_cfg()
    path = tmp_path / "pre.bin"
    checkpoint.write(path, in_memory_ckpt(cfg))
    res = pipeline.finetune(cfg, path, csep=False)
    assert res.metrics


def test_csep_finetune_requires_prototypes():
    cfg = tiny_cfg()
    bare = in_memory_ckpt(cfg, pcsm_branch=False)
    with pytest.raises(ConfigError, match="prototypes"):
        pipeline.finetune(cfg, bare, csep=True)
    # the plain head never needs them
    assert pipeline.finetune(cfg, bare, csep=False).metrics


@pytest.mark.parametrize("csep", [False, True])
def test_finetune_ignores_extra_tensors_and_starts_a_fresh_head(csep):
    cfg = tiny_cfg(finetune_epochs=1)
    clean = in_memory_ckpt(cfg)
    polluted = in_memory_ckpt(cfg)
    # an old plain head with other values: same shapes as the plain head,
    # different ones from the prompted head
    old_cfg = tiny_cfg(seed=9)
    old = pipeline.init_model(old_cfg, decoder=False, pcsm_branch=False)
    heads.init_head_params(old, old_cfg, len(cfg.kinds()), csep=False)
    polluted.tensors.update((name, t.values) for name, t in old.items()
                            if name.startswith("cls."))
    polluted.tensors["zzz.extra"] = np.zeros(3)
    a = pipeline.finetune(cfg, clean, csep=csep)
    b = pipeline.finetune(cfg, polluted, csep=csep)
    assert a.metrics == b.metrics
    assert pipeline.params_hash(a.store) == pipeline.params_hash(b.store)


def test_finetune_early_stop():
    cfg = tiny_cfg(stop_train_accuracy=0.0)
    res = pipeline.finetune(cfg, in_memory_ckpt(cfg), csep=False)
    assert len(res.metrics) == 1


def test_finetune_frees_each_step_tape_before_the_next(monkeypatch):
    # training and validation forwards alike: no logits outlive their batch
    logits = []
    classify = pipeline.heads.classify_baseline

    def checking_classify(*args, **kwargs):
        assert all(ref() is None for ref in logits), "previous step's tape is still alive"
        out = classify(*args, **kwargs)
        logits.append(weakref.ref(out.values))
        return out

    monkeypatch.setattr(pipeline.heads, "classify_baseline", checking_classify)
    cfg = tiny_cfg()
    res = pipeline.finetune(cfg, in_memory_ckpt(cfg), csep=False)
    assert len(logits) > len(res.metrics) > 0


@pytest.mark.parametrize("csep", [False, True])
def test_finetune_validation_records_no_tape(monkeypatch, csep):
    # training logits carry the tape the step differentiates; validation
    # logits only feed an argmax, so they must carry none
    name = "classify_csep" if csep else "classify_baseline"
    classify, finetune_step = getattr(pipeline.heads, name), pipeline._finetune_step
    training, calls = [False], []

    def recording_classify(*args, **kwargs):
        out = classify(*args, **kwargs)
        calls.append((training[0], out.requires_grad))
        return out

    def flagged_step(*args, **kwargs):
        training[0] = True
        try:
            return finetune_step(*args, **kwargs)
        finally:
            training[0] = False

    monkeypatch.setattr(pipeline.heads, name, recording_classify)
    monkeypatch.setattr(pipeline, "_finetune_step", flagged_step)
    cfg = tiny_cfg()
    pipeline.finetune(cfg, in_memory_ckpt(cfg), csep=csep)
    assert {grad for train, grad in calls if train} == {True}
    assert {grad for train, grad in calls if not train} == {False}


def test_finetune_is_deterministic():
    cfg = tiny_cfg()
    ck = in_memory_ckpt(cfg)
    a = pipeline.finetune(cfg, ck, csep=False)
    b = pipeline.finetune(cfg, ck, csep=False)
    assert a.metrics == b.metrics
    assert pipeline.params_hash(a.store) == pipeline.params_hash(b.store)


# ------------------------------------------------------------ ablation

def test_coverage_audit_hand_case():
    log = [
        {"selected": [0], "coverage_selected": 1.0, "coverage_max": 1.0},
        {"selected": [1, 2], "coverage_selected": 1.0, "coverage_max": 1.0},
        {"selected": [], "coverage_selected": None, "coverage_max": 0.5},
    ]
    audit = pipeline.coverage_audit(log)
    assert audit == {"plans": 3, "plans_with_selection": 2,
                     "selected_full_rate": 1.0,
                     "mean_best_coverage": pytest.approx(2.5 / 3.0)}
    empty = pipeline.coverage_audit([])
    assert empty["selected_full_rate"] is None
    assert empty["mean_best_coverage"] is None


def test_ablate_holds_init_and_data_fixed(tmp_path):
    cfg = tiny_cfg()
    rows = pipeline.ablate(cfg, ["randm", "randbm", "csem"], tmp_path)
    assert [r["strategy"] for r in rows] == ["randm", "randbm", "csem"]
    assert len({r["init_hash"] for r in rows}) == 1
    assert len({r["data_hash"] for r in rows}) == 1

    by_strategy = {r["strategy"]: r for r in rows}
    assert by_strategy["csem"]["selected_full_rate"] == 1.0
    assert by_strategy["randm"]["selected_full_rate"] is None
    assert by_strategy["randbm"]["selected_full_rate"] is None
    assert by_strategy["randm"]["mean_best_coverage"] < 1.0

    table = (tmp_path / "ablation.csv").read_text().splitlines()
    assert len(table) == 4
    assert table[0].startswith("strategy,l_3d,")
    for strat in ("randm", "randbm", "csem"):
        assert (tmp_path / strat / "checkpoint.bin").exists()


def test_ablate_rejects_unknown_strategy(monkeypatch):
    def no_pretrain(*args, **kwargs):
        raise AssertionError("pretrained before rejecting the strategy list")

    monkeypatch.setattr(pipeline, "pretrain", no_pretrain)
    with pytest.raises(ConfigError, match="mask_strategy must be one of randm, randbm, csem, "
                                          "got 'bogus'"):
        pipeline.ablate(tiny_cfg(), ["randm", "bogus"])
    with pytest.raises(ConfigError, match="no masking strategies"):
        pipeline.ablate(tiny_cfg(), [])


def test_ablate_rejects_repeated_strategy(monkeypatch):
    def no_pretrain(*args, **kwargs):
        raise AssertionError("pretrained before rejecting the strategy list")

    monkeypatch.setattr(pipeline, "pretrain", no_pretrain)
    with pytest.raises(ConfigError, match=r"repeated masking strategies \['randm'\]"):
        pipeline.ablate(tiny_cfg(), ["randm", "csem", "randm"])


# ----------------------------------------------- grouping and export

def test_cloud_assignment_shapes_and_ranges(tmp_path):
    cfg = tiny_cfg()
    store = pipeline.init_model(cfg)
    points, _ = shapes.make_shape("plane", cfg.n_points, seed=0)
    tb, assignment = pcsm.cloud_assignment(points, store, cfg)
    members = tb.member_indices
    point_labels = pipeline.export_groups(store, points, cfg, tmp_path / "groups.txt")
    assert point_labels.shape == (cfg.n_points,)
    assert assignment.shape == (cfg.n_patches,)
    assert members.shape == (cfg.n_patches, cfg.knn_k)
    assert set(point_labels) <= set(assignment)
    assert assignment.min() >= 0 and assignment.max() < cfg.n_prototypes


def test_evaluate_grouping_structure_and_determinism():
    cfg = tiny_cfg()
    store = pipeline.init_model(cfg)
    a = pipeline.evaluate_grouping(store, cfg, kind="plane", n_clouds=3, draws=5)
    b = pipeline.evaluate_grouping(store, cfg, kind="plane", n_clouds=3, draws=5)
    assert a == b
    assert a["kind"] == "plane" and a["n_clouds"] == 3
    assert len(a["nmi_per_cloud"]) == 3
    assert 0.0 <= a["nmi_mean"] <= 1.0
    assert 0.0 <= a["random_mean"] <= 1.0
    assert a["nmi_mean"] == pytest.approx(np.mean(a["nmi_per_cloud"]))


def test_evaluate_grouping_report_does_not_depend_on_batch_size(tmp_path):
    # the frozen pass runs batch_size clouds at a time, but the whole
    # held-out set is scored at once, so every batch size gives the same bytes
    cfg = tiny_cfg()
    store = pipeline.pretrain(cfg, tmp_path).store
    reports = {json.dumps(pipeline.evaluate_grouping(
        store, dataclasses.replace(cfg, batch_size=b), kind="chair", n_clouds=8, draws=7),
        sort_keys=True) for b in (1, 3, 8)}
    assert len(reports) == 1
    assert len(set(json.loads(reports.pop())["nmi_per_cloud"])) > 1


def test_evaluate_grouping_rejects_degenerate_arguments():
    cfg = tiny_cfg()
    store = pipeline.init_model(cfg)
    with pytest.raises(InvalidArgument, match="evaluate_grouping needs n_clouds"):
        pipeline.evaluate_grouping(store, cfg, n_clouds=0)
    # before any model pass, not from the baseline of the first cloud
    with pytest.raises(InvalidArgument, match="evaluate_grouping needs draws"):
        pipeline.evaluate_grouping(store, cfg, n_clouds=2, draws=0)


def test_export_groups_file_contract(tmp_path):
    cfg = tiny_cfg()
    store = pipeline.init_model(cfg)
    points, _ = shapes.make_shape("chair", cfg.n_points, seed=3)
    out = tmp_path / "groups.txt"
    labels = pipeline.export_groups(store, points, cfg, out)

    text = out.read_text()
    assert text.endswith("\n")
    lines = text.splitlines()
    assert len(lines) == cfg.n_points
    parsed = np.array([[float(v) for v in line.split()] for line in lines])
    assert np.array_equal(parsed[:, :3], points)  # %.17g round-trips exactly
    assert np.array_equal(parsed[:, 3].astype(np.int64), labels)
    assert np.unique(labels).size <= cfg.n_prototypes


def test_export_groups_writes_coords_but_groups_points(tmp_path):
    cfg = tiny_cfg()
    store = pipeline.init_model(cfg)
    points, _ = shapes.make_shape("chair", cfg.n_points, seed=3)
    labels = pipeline.export_groups(store, points, cfg, tmp_path / "a.txt")
    coords = points * 1000.0 + 7.0
    scaled = pipeline.export_groups(store, points, cfg, tmp_path / "b.txt", coords=coords)
    assert np.array_equal(scaled, labels)
    written = np.loadtxt(tmp_path / "b.txt")
    assert np.array_equal(written[:, :3], coords) and np.array_equal(written[:, 3], labels)
    with pytest.raises(InvalidArgument, match=rf"coords of shape \({cfg.n_points - 1}, 3\)"):
        pipeline.export_groups(store, points, cfg, tmp_path / "c.txt", coords=coords[:-1])
