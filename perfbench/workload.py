"""One session of one benchmark workload, in its own process; ``run.py`` starts it.

    python3 perfbench/workload.py --workload NAME --seed N --session K \
        --trace 0|1 --out DIR [--size toy]

A session is a fixed amount of work: set-up, one timed training call, one
timed grouping evaluation on held-out clouds of every kind, then the output
checks.  Each session runs in a fresh process, so each pays the same
first-touch costs a user's run pays.  Every training call uses run seed
``TRAIN_SEED``; ``--seed`` picks the held-out clouds.  The last line of
stdout is one JSON object with the raw samples, which ``run.py`` turns into
metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from protomae import checkpoint, config, pipeline
from tracing import StepClock, Tracer

# The run seed of every training call.  It is fixed, so the training
# trajectory, and with it the quality outputs, are the same in every run of
# the benchmark and move only when the program's arithmetic moves.
TRAIN_SEED = 0

# (preset, config overrides, held-out clouds per kind, fine-tune after pretrain)
WORKLOADS = {
    # per-op overhead bound: 1 epoch of 36 steps of batch 8 on (32, 64) token arrays
    "pretrain-small": ("test-small", dict(clouds_per_kind=72, epochs=1), 32, False),
    # arithmetic and optimizer bound: 30.1M parameters, 4 steps of batch 2
    "pretrain-paper": ("paper-default", dict(clouds_per_kind=2, batch_size=2, epochs=1), 2,
                       False),
    # gradient through the encoder over 1+Q+G rows; heads and checkpoint io
    "finetune-eval-small": ("test-small", dict(clouds_per_kind=12, epochs=1, finetune_epochs=8),
                            32, True),
}
# --size toy (the self-test): the toy preset, one held-out cloud per kind
TOY = ("toy", {}, 1)


def _config(workload: str, size: str):
    preset, overrides, eval_per_kind, finetune = WORKLOADS[workload]
    if size == "toy":
        preset, overrides, eval_per_kind = TOY
    cfg = dataclasses.replace(config.preset(preset), seed=TRAIN_SEED, **overrides).validate()
    return cfg, eval_per_kind, finetune


def _checkpoint_hash(path: Path) -> str:
    """``pipeline.params_hash`` of the tensors stored in a checkpoint file."""
    tensors = checkpoint.load(path).tensors
    view = SimpleNamespace(items=lambda: ((name, SimpleNamespace(values=tensors[name]))
                                          for name in sorted(tensors)))
    return pipeline.params_hash(view)


def _check_rows(rows: list[dict], path: Path, epochs: int, label: str) -> list[str]:
    problems = []
    if not all(math.isfinite(v) for row in rows for v in row.values()):
        problems.append(f"{label}: non-finite loss or metric")
    stored = [json.loads(line) for line in path.read_text().splitlines()]
    if [row["epoch"] for row in stored] != list(range(1, epochs + 1)):
        problems.append(f"{path.name}: expected one row per epoch 1..{epochs}")
    elif stored != rows:
        problems.append(f"{path.name}: rows differ from the returned metrics")
    return problems


def _check(cfg, pre, ft, reports, tmp: Path) -> list[str]:
    problems = _check_rows(pre.metrics, tmp / "metrics.jsonl", cfg.epochs, "pretrain")
    if _checkpoint_hash(tmp / "checkpoint.bin") != pipeline.params_hash(pre.store):
        problems.append("checkpoint.bin does not round-trip to the pretrained params_hash")
    if ft is not None:
        problems += _check_rows(ft.metrics, tmp / "finetune-csep.jsonl", len(ft.metrics),
                                "finetune")
        if _checkpoint_hash(tmp / "finetune-csep.bin") != pipeline.params_hash(ft.store):
            problems.append("finetune-csep.bin does not round-trip to the fine-tuned "
                            "params_hash")
    if not all(math.isfinite(x) for r in reports for x in r["nmi_per_cloud"]):
        problems.append("evaluate_grouping: non-finite NMI")
    return problems


def _session(args, cfg, eval_per_kind: int, finetune: bool, tmp: Path,
             clock: StepClock, tracer: Tracer | None) -> dict:
    def enter(phase: str) -> None:
        if tracer is not None:
            tracer.enter(f"{args.workload}/seed{args.seed}/session{args.session}", phase)

    enter("setup")
    t0 = time.perf_counter()
    ft = None
    if finetune:
        pre = pipeline.pretrain(cfg, tmp)
        ck = checkpoint.load(tmp / "checkpoint.bin")
    enter("train")
    built, stepped = len(clock.built), len(clock.steps)
    if finetune:
        ft = pipeline.finetune(cfg, ck, csep=True, out_dir=tmp)
        store = ft.store
        n_val = int(round(cfg.val_fraction * cfg.clouds_per_kind))
        clouds = len(ft.metrics) * len(cfg.kinds()) * (cfg.clouds_per_kind - n_val)
    else:
        pre = pipeline.pretrain(cfg, tmp)
        store = pre.store
        n = len(cfg.kinds()) * cfg.clouds_per_kind
        clouds = cfg.epochs * (n // cfg.batch_size) * cfg.batch_size
    t_end = time.perf_counter()
    setup_end = clock.built[built]
    marks = [setup_end] + clock.steps[stepped:]

    enter("eval")
    t_eval = time.perf_counter()
    reports = [pipeline.evaluate_grouping(store, cfg, kind=kind, n_clouds=eval_per_kind,
                                          seed_base=pipeline.HELD_OUT_SEED_BASE
                                          + 1000 * args.seed)
               for kind in cfg.kinds()]
    eval_s = time.perf_counter() - t_eval

    enter("check")
    audit = pipeline.coverage_audit(pre.mask_log)
    return {
        "setup_s": setup_end - t0,
        "train_s": t_end - setup_end,
        "train_clouds": clouds,
        "step_ms": [(b - a) * 1e3 for a, b in zip(marks, marks[1:])],
        "eval_s": eval_s,
        "eval_clouds": len(reports) * eval_per_kind,
        "problems": _check(cfg, pre, ft, reports, tmp),
        "quality": {
            "pretrain_loss": pre.metrics[-1]["total"],
            "pretrain_metrics": pre.metrics,
            "selected_plan_ratio": audit["plans_with_selection"] / audit["plans"],
            "val_accuracy": ft.val_accuracy if ft is not None else None,
            "finetune_metrics": ft.metrics if ft is not None else None,
            "nmi_mean": float(np.mean([r["nmi_mean"] for r in reports])),
            "random_nmi_mean": float(np.mean([r["random_mean"] for r in reports])),
            "nmi_per_cloud": [r["nmi_per_cloud"] for r in reports],
        },
    }


def _blas() -> dict:
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy < 1.26 has no dict mode
        return {}
    return {name: {key: dep.get(key) for key in ("name", "version", "openblas configuration")
                   if dep.get(key) is not None}
            for name, dep in deps.items()}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--session", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--size", choices=("full", "toy"), default="full")
    args = p.parse_args()

    cfg, eval_per_kind, finetune = _config(args.workload, args.size)
    clock = StepClock()
    tracer = Tracer() if args.trace else None
    result: dict = {"problems": [], "quality": None}
    with tempfile.TemporaryDirectory(dir=args.out) as tmp:
        try:
            result.update(_session(args, cfg, eval_per_kind, finetune, Path(tmp),
                                   clock, tracer))
        except Exception as exc:  # a failed session is reported, not fatal
            traceback.print_exc()
            result["problems"].append(f"{type(exc).__name__}: {exc}")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = {
        "numpy": np.__version__,
        "blas": _blas(),
        "threads": {v: os.environ.get(v) for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    if tracer is not None and result["quality"] is not None:
        result["op_counts"] = tracer.op_counts()
        result["per_layer"] = tracer.per_layer(
            train_clouds=result["train_clouds"], steps=len(result["step_ms"]),
            eval_clouds=result["eval_clouds"],
            selected_plan_ratio=result["quality"]["selected_plan_ratio"])
        tracer.write(args.out / f"spans-{args.workload}-seed{args.seed}-session{args.session}"
                                ".jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
