"""Training and evaluation orchestration.

A pre-training step (``train_step``) has two branches: component grouping runs
on the complete cloud (tape-free tokenize, stop-gradient encoder pass) and
yields the assignment the masking strategy needs, then the masked-autoencoding
branch embeds only the visible patches on the tape and reconstructs the rest.
The data stream (epoch shuffles, patch-seed draws) and
the masking stream use separate generators spawned from the run seed, so
swapping the masking strategy cannot perturb which clouds are seen in which
order - the ablation harness checks exactly that.

The corpus is two arrays, (n, N, 3) points and (n, N) labels.  Each step
indexes its (B, N, 3) batch out of them and runs one batched forward and
backward over (B, G, C) tokens.  Its masks are one (B, G) bool array that
hides the same number of tokens in every cloud.  Only the mask draws go
cloud by cloud, in batch order, so the masking stream is consumed exactly
as a per-cloud loop would; the metrics score the whole batch at once.

Ground-truth component labels exist only in the synthetic dataset and are
consumed exclusively by metrics; the loss builders receive bare point arrays.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import logging
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import backbone, checkpoint, embedding, heads, masking, metrics, pcsm, shapes
from .config import RunConfig
from .errors import ConfigError, InvalidArgument, InvariantViolation, NumericError
from .geometry import save_cloud, sq_dists

LOGGER = logging.getLogger("protomae.pipeline")

HELD_OUT_SEED_BASE = 1_000_000


# ---------------------------------------------------------------------------
# dataset
# ---------------------------------------------------------------------------

@dataclass
class Dataset:
    points: np.ndarray              # (n, N, 3) float64
    labels: np.ndarray              # (n, N) int64 component ids, read by metrics only
    kind_ids: np.ndarray            # (n,) int64 index into kinds
    kinds: list[str]


def build_dataset(cfg: RunConfig) -> Dataset:
    """Generate the synthetic corpus: kinds cycle, cloud i uses seed i."""
    kinds = cfg.kinds()
    kind_ids = np.arange(len(kinds) * cfg.clouds_per_kind, dtype=np.int64) % len(kinds)
    points, labels = shapes.make_corpus(
        [(kinds[k], i) for i, k in enumerate(kind_ids)], cfg.n_points)
    return Dataset(points=points, labels=labels, kind_ids=kind_ids, kinds=kinds)


def token_truth(labels: np.ndarray, member_indices: np.ndarray) -> np.ndarray:
    """Majority label of each (..., G, k) patch of (..., N) labels (ties to the lowest)."""
    member_labels = np.take_along_axis(labels[..., None, :], member_indices, axis=-1)
    return metrics.bincount_rows(member_labels, int(labels.max()) + 1).argmax(axis=-1)


# ---------------------------------------------------------------------------
# model assembly and hashing
# ---------------------------------------------------------------------------

def init_model(cfg: RunConfig, decoder: bool = True,
               pcsm_branch: bool = True) -> ad.ParamStore:
    store = ad.ParamStore(cfg.seed, cfg.dtype)
    embedding.init_embedding_params(store, cfg)
    backbone.init_backbone_params(store, cfg, with_decoder=decoder)
    if pcsm_branch:
        pcsm.init_pcsm_params(store, cfg)
    return store


def params_hash(store: ad.ParamStore) -> str:
    """sha256 over each name and its tensor widened to float64, as a checkpoint stores it."""
    h = hashlib.sha256()
    for name, t in store.items():
        h.update(name.encode("utf-8"))
        h.update(np.ascontiguousarray(t.values, dtype=np.float64))
    return h.hexdigest()


def _batch_hash(points: np.ndarray, starts: np.ndarray) -> str:
    h = hashlib.sha256()
    for cloud, start in zip(points, starts):
        h.update(cloud.tobytes())
        h.update(int(start).to_bytes(8, "little"))
    return h.hexdigest()


# ---------------------------------------------------------------------------
# pre-training
# ---------------------------------------------------------------------------

_LOSS_COLUMNS = ("l_3d", "l_proto", "l_cont", "total")
_CLOUD_COLUMNS = ("grouping_entropy", "component_purity")


def train_step(store: ad.ParamStore, opt: ad.AdamW, mask_rng: np.random.Generator,
               points: np.ndarray, starts: np.ndarray, cfg: RunConfig
               ) -> tuple[dict[str, float], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One pre-training step on a (B, N, 3) batch, as the module docstring describes.

    Returns the four losses as floats, the (B, G) ``masked`` and (B, Q)
    ``selected`` arrays of ``masking.make_plans``, the (B, G) assignment and
    the (B, G, k) patch members: no Tensor, so the step's tape dies with it.
    """
    tb = embedding.tokenize(points, ad.frozen(store), cfg, start=starts)
    assignment, loss_proto, loss_cont = pcsm.pcsm_forward(tb, points, store, cfg)
    masked, selected = masking.make_plans(cfg.mask_strategy, assignment, tb.centers,
                                          cfg.mask_ratio, cfg.full_mask_components, mask_rng)
    vis = np.nonzero(~masked)[1].reshape(len(points), -1)
    msk = np.nonzero(masked)[1].reshape(len(points), -1)
    losses = {"l_3d": backbone.reconstruction_loss(tb, vis, msk, store, cfg),
              "l_proto": loss_proto, "l_cont": loss_cont}
    losses["total"] = ad.add(losses["l_3d"],
                             ad.add(ad.mul_const(losses["l_proto"], cfg.lambda_proto),
                                    ad.mul_const(losses["l_cont"], cfg.lambda_cont)))
    opt.step(losses["total"])
    return ({name: float(t.values) for name, t in losses.items()}, masked, selected,
            assignment, tb.member_indices)


@dataclass
class PretrainResult:
    store: ad.ParamStore
    metrics: list[dict]
    mask_log: list[dict]
    init_hash: str
    data_hash: str
    checkpoint_path: Path | None
    wall_seconds: float


def pretrain(cfg: RunConfig, out_dir: str | Path | None = None) -> PretrainResult:
    """Run the full pre-training loop of ``train_step``.

    Writes ``metrics.jsonl`` (one object per epoch), ``masks.jsonl`` (one
    object per cloud per step), and ``checkpoint.bin`` under ``out_dir`` when
    given.  Metric files contain no wall-clock fields, so identical seeds
    produce byte-identical streams.
    """
    t0 = time.monotonic()
    ds = build_dataset(cfg)
    store = init_model(cfg, decoder=True, pcsm_branch=True)
    init_hash = params_hash(store)
    data_rng, mask_rng = (np.random.default_rng(c)
                          for c in np.random.SeedSequence(cfg.seed).spawn(2))
    opt = ad.AdamW(store, lr=cfg.learning_rate, betas=(cfg.beta1, cfg.beta2),
                   weight_decay=cfg.weight_decay)
    n = len(ds.points)
    if n < cfg.batch_size:
        raise ConfigError(f"{n} clouds cannot fill a batch of {cfg.batch_size}")
    steps = n // cfg.batch_size
    out_dir = _out_dir(out_dir)
    epoch_rows: list[dict] = []
    mask_log: list[dict] = []
    data_hash = ""
    for epoch in range(cfg.epochs):
        frac = epoch / max(1, cfg.epochs - 1)
        plr = cfg.proto_learning_rate * (1.0 - frac + frac * cfg.proto_lr_decay)
        opt.overrides["pcsm.prototypes"] = (plr, cfg.proto_weight_decay)
        order = np.arange(n)
        data_rng.shuffle(order)
        sums = dict.fromkeys(_LOSS_COLUMNS + _CLOUD_COLUMNS, 0.0)
        for step in range(steps):
            batch = order[step * cfg.batch_size:(step + 1) * cfg.batch_size]
            starts = data_rng.integers(cfg.n_points, size=len(batch))
            points = ds.points[batch]
            if epoch == 0 and step == 0:
                data_hash = _batch_hash(points, starts)
            try:
                losses, masked, selected, assignment, members = train_step(
                    store, opt, mask_rng, points, starts, cfg)
            except NumericError as exc:
                raise NumericError(
                    f"epoch {epoch + 1} step {step + 1}: {exc}") from None
            entropy = metrics.group_entropy(assignment, cfg.n_prototypes)
            purity = metrics.purity(assignment, token_truth(ds.labels[batch], members))
            cov_sel, cov_max = masking.component_coverage(masked, selected, assignment)
            bits = (masked + ord("0")).astype(np.uint8)  # ASCII "0"/"1" per token
            # one float add per cloud, in batch order: a sum over the batch would
            # reassociate the epoch sums and move the bytes of metrics.jsonl
            for j, ci in enumerate(batch.tolist()):
                sums["grouping_entropy"] += float(entropy[j])
                sums["component_purity"] += float(purity[j])
                ids = np.flatnonzero(selected[j]).tolist()
                mask_log.append({
                    "epoch": epoch + 1, "step": step + 1, "cloud": ci,
                    "strategy": cfg.mask_strategy,
                    "bits": bits[j].tobytes().decode(),
                    "selected": ids,
                    "coverage_selected": float(cov_sel[j]) if ids else None,
                    "coverage_max": float(cov_max[j]),
                })
            for name, value in losses.items():
                sums[name] += value
        clouds_seen = steps * cfg.batch_size
        epoch_rows.append({"epoch": epoch + 1,
                           **{name: sums[name] / steps for name in _LOSS_COLUMNS},
                           **{name: sums[name] / clouds_seen for name in _CLOUD_COLUMNS}})
        LOGGER.info("pretrain epoch %d/%d total %.6f (%.1fs)", epoch + 1,
                    cfg.epochs, epoch_rows[-1]["total"], time.monotonic() - t0)
    ckpt_path = None
    if out_dir is not None:
        _write_jsonl(out_dir / "metrics.jsonl", epoch_rows)
        _write_jsonl(out_dir / "masks.jsonl", mask_log)
        ckpt_path = out_dir / "checkpoint.bin"
        checkpoint.save(ckpt_path, store, cfg, data_rng)
    return PretrainResult(store=store, metrics=epoch_rows, mask_log=mask_log,
                          init_hash=init_hash, data_hash=data_hash,
                          checkpoint_path=ckpt_path,
                          wall_seconds=time.monotonic() - t0)


def _out_dir(out_dir: str | Path | None) -> Path | None:
    """Create ``out_dir`` before the first step, so an unusable path costs no training."""
    if out_dir is None:
        return None
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InvalidArgument(
            f"cannot create output directory {out_dir}: {exc.strerror}") from None
    return out_dir


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# fine-tuning
# ---------------------------------------------------------------------------

def _val_count(val_fraction: float, n: int) -> int:
    """Validation clouds split off a kind's ``n``; fine-tuning needs at least one on each side."""
    n_val = int(round(val_fraction * n))
    if not 0 < n_val < n:
        raise ConfigError(f"val_fraction {val_fraction} of clouds_per_kind {n} leaves "
                          f"{n - n_val} training and {n_val} validation clouds per kind")
    return n_val


def split_dataset(ds: Dataset, val_fraction: float,
                  split_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Stratified train/validation split, deterministic in the split seed."""
    rng = np.random.default_rng(split_seed)
    train, val = [], []
    for k in range(len(ds.kinds)):
        members = np.flatnonzero(ds.kind_ids == k)
        perm = rng.permutation(members)
        n_val = _val_count(val_fraction, members.size)
        val.extend(perm[:n_val])
        train.extend(perm[n_val:])
    return np.array(sorted(train), dtype=np.int64), np.array(sorted(val), dtype=np.int64)


def _predicted(logits: ad.Tensor) -> np.ndarray:
    """Predicted class of each cloud from (B, 1, n_classes) logits."""
    return np.argmax(logits.values, axis=-1).reshape(-1)


def _finetune_step(classify, store: ad.ParamStore, opt: ad.AdamW, points: np.ndarray,
                   labels: np.ndarray, cfg: RunConfig) -> tuple[int, float]:
    """One fine-tuning step; returns (correct predictions, mean cross-entropy), no Tensor."""
    logits = classify(points, store, cfg)
    batch_ce = ad.cross_entropy(logits, labels)
    opt.step(batch_ce)
    return int(np.sum(_predicted(logits) == labels)), float(batch_ce.values)


@dataclass
class FinetuneResult:
    store: ad.ParamStore
    metrics: list[dict]
    train_accuracy: float
    val_accuracy: float
    checkpoint_path: Path | None


def finetune(cfg: RunConfig, ckpt: str | Path | checkpoint.Checkpoint,
             csep: bool, out_dir: str | Path | None = None) -> FinetuneResult:
    """Train a classification head on top of a pre-training checkpoint.

    The embeddings and encoder (and, for the prompted variant, the prototype
    bank and its branch layers) come from the checkpoint, which must hold
    them all; its decoder is dropped.  The class token and head are always
    created fresh, after loading.  Everything is trainable.  Stops early once
    the train accuracy reaches ``cfg.stop_train_accuracy``.
    """
    ck = ckpt if isinstance(ckpt, checkpoint.Checkpoint) else checkpoint.load(ckpt)
    ds = build_dataset(cfg)
    train_idx, val_idx = split_dataset(ds, cfg.val_fraction, cfg.split_seed)
    store = init_model(cfg, decoder=False, pcsm_branch=csep)
    checkpoint.load_into(store, ck)
    heads.init_head_params(store, cfg, len(ds.kinds), csep=csep)
    classify = heads.classify_csep if csep else heads.classify_baseline
    opt = ad.AdamW(store, lr=cfg.finetune_learning_rate,
                   betas=(cfg.beta1, cfg.beta2), weight_decay=cfg.weight_decay)
    out_dir = _out_dir(out_dir)
    rng = np.random.default_rng([cfg.seed, 17])
    rows: list[dict] = []
    for epoch in range(cfg.finetune_epochs):
        order = train_idx.copy()
        rng.shuffle(order)
        correct = 0
        ce_sum = 0.0
        for lo in range(0, order.size, cfg.batch_size):
            batch = order[lo:lo + cfg.batch_size]
            try:
                hits, ce = _finetune_step(classify, store, opt, ds.points[batch],
                                          ds.kind_ids[batch], cfg)
            except NumericError as exc:
                raise NumericError(f"fine-tune epoch {epoch + 1}: {exc}") from None
            correct += hits
            ce_sum += ce * batch.size
        train_acc = correct / order.size
        val_correct = 0
        frozen = ad.frozen(store)
        for lo in range(0, val_idx.size, cfg.batch_size):
            batch = val_idx[lo:lo + cfg.batch_size]
            predicted = _predicted(classify(ds.points[batch], frozen, cfg))
            val_correct += int(np.sum(predicted == ds.kind_ids[batch]))
        val_acc = val_correct / val_idx.size
        rows.append({"epoch": epoch + 1, "ce": ce_sum / order.size,
                     "train_accuracy": train_acc, "val_accuracy": val_acc})
        LOGGER.info("finetune%s epoch %d/%d train %.3f val %.3f",
                    " (prompted)" if csep else "", epoch + 1,
                    cfg.finetune_epochs, train_acc, val_acc)
        if train_acc >= cfg.stop_train_accuracy:
            break
    ckpt_path = None
    if out_dir is not None:
        name = "csep" if csep else "baseline"
        _write_jsonl(out_dir / f"finetune-{name}.jsonl", rows)
        ckpt_path = out_dir / f"finetune-{name}.bin"
        checkpoint.save(ckpt_path, store, cfg, rng)
    return FinetuneResult(store=store, metrics=rows, train_accuracy=train_acc,
                          val_accuracy=val_acc, checkpoint_path=ckpt_path)


# ---------------------------------------------------------------------------
# masking ablation
# ---------------------------------------------------------------------------

def coverage_audit(mask_log: list[dict]) -> dict:
    """Coverage statistics from a run's mask plans.

    ``selected_full_rate``: over plans that selected components, the fraction
    whose selected components were completely masked (1.0 is the strategy
    contract).  ``mean_best_coverage``: mean of the best per-component
    coverage over all plans, defined for every strategy.
    """
    with_sel = [row for row in mask_log if row["selected"]]
    full = sum(1 for row in with_sel if row["coverage_selected"] == 1.0)
    best = [row["coverage_max"] for row in mask_log]
    return {
        "plans": len(mask_log),
        "plans_with_selection": len(with_sel),
        "selected_full_rate": full / len(with_sel) if with_sel else None,
        "mean_best_coverage": float(np.mean(best)) if best else None,
    }


def ablate(cfg: RunConfig, strategies: list[str],
           out_dir: str | Path | None = None) -> list[dict]:
    """Pretrain + fine-tune once per masking strategy under shared seeds.

    All runs share the initial weights and the data stream; the run aborts if
    the recorded hashes ever differ, because then the comparison would be
    measuring more than the masking strategy.  Every strategy's config is
    built, and so validated, before the first pretrain.
    """
    if not strategies:
        raise ConfigError("no masking strategies requested")
    repeated = sorted({s for s in strategies if strategies.count(s) > 1})
    if repeated:
        raise ConfigError(f"repeated masking strategies {repeated}")
    subs = [dataclasses.replace(cfg, mask_strategy=strat) for strat in strategies]
    _val_count(cfg.val_fraction, cfg.clouds_per_kind)
    rows = []
    ref_init = ref_data = None
    for strat, sub in zip(strategies, subs):
        sdir = Path(out_dir) / strat if out_dir is not None else None
        res = pretrain(sub, sdir)
        if ref_init is None:
            ref_init, ref_data = res.init_hash, res.data_hash
        elif (res.init_hash, res.data_hash) != (ref_init, ref_data):
            raise InvariantViolation(
                f"strategy '{strat}' diverged from the shared init/data stream")
        audit = coverage_audit(res.mask_log)
        ft = finetune(sub,
                      checkpoint.from_store(res.store, sub,
                                            np.random.default_rng(sub.seed)),
                      csep=False, out_dir=sdir)
        final = res.metrics[-1]
        rows.append({
            "strategy": strat,
            "l_3d": final["l_3d"],
            "l_proto": final["l_proto"],
            "l_cont": final["l_cont"],
            "total": final["total"],
            "component_purity": final["component_purity"],
            "selected_full_rate": audit["selected_full_rate"],
            "mean_best_coverage": audit["mean_best_coverage"],
            "downstream_accuracy": ft.val_accuracy,
            "init_hash": res.init_hash,
            "data_hash": res.data_hash,
        })
    if out_dir is not None:
        out_path = Path(out_dir) / "ablation.csv"
        with open(out_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
    return rows


# ---------------------------------------------------------------------------
# grouping evaluation and export
# ---------------------------------------------------------------------------

def evaluate_grouping(store: ad.ParamStore, cfg: RunConfig, kind: str = "plane",
                      n_clouds: int = 16, draws: int = 100,
                      seed_base: int = HELD_OUT_SEED_BASE) -> dict:
    """Token-level grouping NMI on held-out clouds vs a random baseline.

    The held-out clouds use seeds far outside the training range and are
    grouped ``cfg.batch_size`` at a time; the whole set is then scored at
    once, so the report does not depend on the batch size.  The random
    baseline is the mean NMI of ``draws`` uniform Q-way assignments against
    the same ground truth, freshly drawn in-run, cloud by cloud.
    ``n_clouds`` and ``draws`` must be at least 1.
    """
    if n_clouds < 1:
        raise InvalidArgument(f"evaluate_grouping needs n_clouds >= 1, got {n_clouds}")
    if draws < 1:
        raise InvalidArgument(f"evaluate_grouping needs draws >= 1, got {draws}")
    rng = np.random.default_rng([cfg.seed, 101])
    points, labels = shapes.make_corpus(
        [(kind, seed_base + s) for s in range(n_clouds)], cfg.n_points)
    assignments, members = [], []
    for lo in range(0, n_clouds, cfg.batch_size):
        tb, assignment = pcsm.cloud_assignment(points[lo:lo + cfg.batch_size], store, cfg)
        assignments.append(assignment)
        members.append(tb.member_indices)
    truth = token_truth(labels, np.concatenate(members))
    scores = metrics.nmi(np.concatenate(assignments), truth)
    baselines = metrics.random_nmi_baseline(truth, cfg.n_prototypes, draws, rng)
    return {"kind": kind, "n_clouds": n_clouds,
            "nmi_mean": float(np.mean(scores)),
            "nmi_per_cloud": scores.tolist(),
            "random_mean": float(np.mean(baselines))}


def export_groups(store: ad.ParamStore, points: np.ndarray, cfg: RunConfig,
                  out_path: str | Path, *, coords: np.ndarray | None = None) -> np.ndarray:
    """Write one ``x y z component`` line per point of one cloud; returns the labels.

    ``points`` is grouped as given, so it should be normalized as the corpus
    is (``geometry.normalize``).  The file gets ``coords``, the same cloud
    in its own units (default ``points``).  Each point inherits the
    assignment of the token whose patch centre is nearest (ties to the
    lowest token index).
    """
    points = np.asarray(points, dtype=np.float64)
    coords = points if coords is None else np.asarray(coords, dtype=np.float64)
    if coords.shape != points.shape:
        raise InvalidArgument(f"coords of shape {coords.shape} for points of shape {points.shape}")
    _out_dir(Path(out_path).parent)
    tb, assignment = pcsm.cloud_assignment(points, store, cfg)
    point_labels = assignment[sq_dists(points[:, None, :], tb.centers[None, :, :]).argmin(axis=-1)]
    save_cloud(out_path, coords, point_labels)
    return point_labels
