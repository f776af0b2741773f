"""Timestamps and spans recorded from outside the ``protomae`` package.

Every hook here replaces a public attribute of a ``protomae`` module (or a
method of one of its classes) with a wrapper.  The package calls its own
functions through module attributes (``ad.matmul``, ``geo.knn``, ...), so the
wrappers see every call, including calls between functions of one module.
Nothing inside the package is edited.

Two recorders:

* ``StepClock`` (always on): the time the optimizer is built, which ends a
  training call's set-up, and the time each optimizer step returns.
* ``Tracer`` (traced runs only): one span per call of the wrapped functions,
  kept in memory and written out when the run ends; per-op call counts of the
  public autodiff ops; garbage-collector time and generation-2 collections
  from ``gc.callbacks``.  Everything is keyed by the phase the workload
  session is in ("setup", "train", "eval" or "check").
"""

from __future__ import annotations

import functools
import gc
import json
import os
import time
from collections import Counter
from pathlib import Path

from catalog import BY_CALLER, EVAL_SPANS, OPS, TRAIN_SPANS
from protomae import (autodiff, backbone, checkpoint, embedding, geometry, heads,
                      masking, metrics, pcsm, shapes)

# Functions wrapped in a span, as (owner, attribute, span name).
SPANNED = (
    (embedding, "tokenize", "embedding.tokenize"),
    (geometry, "fps", "geometry.fps"),
    (geometry, "knn", "geometry.knn"),
    (backbone, "encode", "backbone.encode"),
    (backbone, "decode", "backbone.decode"),
    (backbone, "l_3d", "backbone.l_3d"),
    (pcsm, "pcsm_forward", "pcsm.pcsm_forward"),
    (pcsm, "knorm_enhance", "pcsm.knorm_enhance"),
    (heads, "classify_csep", "heads.classify_csep"),
    (masking, "random_mask", "masking.random_mask"),
    (masking, "block_mask", "masking.block_mask"),
    (masking, "csem_mask", "masking.csem_mask"),
    (metrics, "nmi", "metrics.nmi"),
    (metrics, "purity", "metrics.purity"),
    (metrics, "group_entropy", "metrics.group_entropy"),
    (metrics, "random_nmi_baseline", "metrics.random_nmi_baseline"),
    (shapes, "make_shape", "shapes.make_shape"),
    (checkpoint, "save", "checkpoint.save"),
    (checkpoint, "load", "checkpoint.load"),
    (autodiff.Tensor, "backward", "autodiff.backward"),
    (autodiff.AdamW, "step", "autodiff.adamw"),
)

def _patch(owner, attr: str, make) -> None:
    original = getattr(owner, attr)
    setattr(owner, attr, functools.wraps(original)(make(original)))


class StepClock:
    """Set-up end and optimizer-step timestamps; the only untraced hook."""

    def __init__(self):
        self.built: list[float] = []
        self.steps: list[float] = []
        built, steps, now = self.built, self.steps, time.perf_counter

        def make_init(init):
            def wrapper(*args, **kwargs):
                init(*args, **kwargs)
                built.append(now())
            return wrapper

        def make_step(step):
            def wrapper(*args, **kwargs):
                step(*args, **kwargs)
                steps.append(now())
            return wrapper

        _patch(autodiff.AdamW, "__init__", make_init)
        _patch(autodiff.AdamW, "step", make_step)


class Tracer:
    """In-memory spans, op counts and GC accounting, keyed by phase."""

    def __init__(self):
        # span: [name, start, end, parent index, run id, phase, bytes]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run = ""
        self.phase = "setup"
        self.ops: dict[str, Counter] = {}
        self._ops = self.ops.setdefault(self.phase, Counter())
        self.gc_ms: Counter = Counter()
        self.gc_gen2: Counter = Counter()
        self._gc_start = 0.0
        for owner, attr, name in SPANNED:
            _patch(owner, attr, functools.partial(self._spanned, name))
        for op in OPS:
            if hasattr(autodiff, op):
                _patch(autodiff, op, functools.partial(self._counted, op))
        gc.callbacks.append(self._on_gc)

    def enter(self, run: str, phase: str) -> None:
        """Attribute everything from now on to ``phase`` of session ``run``."""
        self.run, self.phase = run, phase
        self._ops = self.ops.setdefault(phase, Counter())

    def _spanned(self, name: str, fn):
        spans, stack, now = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, now(), 0.0, stack[-1] if stack else -1, self.run, self.phase, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = now()
                stack.pop()
            if name == "backbone.encode" and not out.requires_grad:
                rec[0] = "pcsm.frozen_encode"
            elif name in ("checkpoint.save", "checkpoint.load"):
                rec[6] = os.path.getsize(args[0] if args else kwargs["path"])
            return out
        return wrapper

    def _counted(self, op: str, fn):
        def wrapper(*args, **kwargs):
            self._ops[op] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _on_gc(self, event: str, info: dict) -> None:
        if event == "start":
            self._gc_start = time.perf_counter()
            return
        self.gc_ms[self.phase] += (time.perf_counter() - self._gc_start) * 1e3
        if info["generation"] == 2:
            self.gc_gen2[self.phase] += 1

    def op_counts(self) -> dict[str, dict[str, int]]:
        """Per-op call counts of the train and eval phases."""
        return {phase: dict(sorted(self.ops.get(phase, Counter()).items()))
                for phase in ("train", "eval")}

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, run, phase, size) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": run, "phase": phase,
                                     "bytes": size}) + "\n")

    def per_layer(self, train_clouds: int, steps: int, eval_clouds: int,
                  selected_plan_ratio: float) -> dict[str, float]:
        """Per-layer metrics of one session.

        Span metrics come from the "train" phase (per training cloud or per
        optimizer step) and the "eval" phase (per held-out cloud).  Self time
        is a span's duration minus the durations of its direct children.
        Shape generation and checkpoint io are counted in every phase but
        "eval" and "check".
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_ms: Counter = Counter()
        nbytes: Counter = Counter()
        for i, (name, start, end, parent, _, phase, size) in enumerate(self.spans):
            if name in BY_CALLER and parent >= 0:
                name = f"{name}.{self.spans[parent][0].rsplit('.', 1)[-1]}"
            ms = (end - start - child[i]) * 1e3
            keys = []
            if phase == "train":
                keys.append(name)
            elif phase == "eval":
                keys.append("eval." + name)
            if phase in ("setup", "train"):
                keys.append("io." + name)
            for key in keys:
                calls[key] += 1
                self_ms[key] += ms
                nbytes[key] += size
        ops = {phase: self.ops.get(phase, Counter()) for phase in ("train", "eval")}

        def per(value, base):
            return value / base if base else 0.0

        out = {"autodiff.op_calls_per_cloud": per(sum(ops["train"].values()), train_clouds)}
        for op in OPS:
            out[f"autodiff.op.{op}.calls_per_cloud"] = per(ops["train"][op], train_clouds)
        for name in ("autodiff.backward", "autodiff.adamw"):
            out[f"{name}.calls_per_step"] = per(calls[name], steps)
            out[f"{name}.self_ms_per_step"] = per(self_ms[name], steps)
        out["autodiff.gc_ms_per_step"] = per(self.gc_ms["train"], steps)
        out["autodiff.gc_gen2_collections_per_step"] = per(self.gc_gen2["train"], steps)
        for prefix, names, base in (("", TRAIN_SPANS, train_clouds),
                                    ("eval.", EVAL_SPANS, eval_clouds)):
            for name in names:
                out[f"{prefix}{name}.calls_per_cloud"] = per(calls[prefix + name], base)
                out[f"{prefix}{name}.self_ms_per_cloud"] = per(self_ms[prefix + name], base)
        out["eval.autodiff.op_calls_per_cloud"] = per(sum(ops["eval"].values()), eval_clouds)
        out["shapes.make_shape.ms_per_call"] = per(self_ms["io.shapes.make_shape"],
                                                   calls["io.shapes.make_shape"])
        for fn in ("save", "load"):
            key = f"io.checkpoint.{fn}"
            out[f"checkpoint.{fn}.calls_per_session"] = float(calls[key])
            out[f"checkpoint.{fn}.ms_per_call"] = per(self_ms[key], calls[key])
            out[f"checkpoint.{fn}.mb_per_call"] = per(nbytes[key] / 1e6, calls[key])
        out["masking.selected_plan_ratio"] = selected_plan_ratio
        return out
