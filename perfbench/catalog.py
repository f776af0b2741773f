"""Names and units of every metric the benchmark reports.

Kept apart from the hooks so the parent process can name metrics without
importing the package under test.  ``BENCHMARK.json`` lists the same names;
``selftest.py`` checks that the two agree.
"""

# (name, unit) of the end-to-end metrics, in output order.
END_TO_END = (
    ("clouds_per_s", "1/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("eval_clouds_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pretrain_loss", "loss"),
)

# Public tape ops counted per call.  The list is fixed so the metric names
# stay the same when an op is added, merged or removed: an op that no longer
# exists reports zero calls, and a new op is not counted.
OPS = (
    "add", "scale", "mul_const", "matmul", "transpose", "reshape",
    "concat_last_dim", "concat_rows", "slice_rows", "slice_last_dim",
    "gather_rows", "repeat_rows", "repeat_middle", "max_over_rows", "mean_all",
    "sum_all", "softmax_rows", "logsumexp_rows", "relu", "gelu", "layer_norm",
    "l2_normalize_rows", "chamfer", "chamfer_batch", "linear",
    "multi_head_attention", "cross_entropy",
)

# Spans split by the span that called them: "<name>.<caller>", where caller
# is the last part of the parent span's name.  A call with no parent span
# keeps its own name (metrics.nmi called from evaluate_grouping).
BY_CALLER = ("geometry.knn", "metrics.nmi")

# Spans reported per training cloud, and per held-out cloud under "eval.".
# "pcsm.frozen_encode" is a backbone.encode call whose output carries no
# gradient.
TRAIN_SPANS = (
    "embedding.tokenize", "geometry.fps", "geometry.knn.tokenize",
    "geometry.knn.knorm_enhance", "backbone.encode", "backbone.decode",
    "backbone.l_3d", "pcsm.frozen_encode", "pcsm.pcsm_forward",
    "pcsm.knorm_enhance", "heads.classify_csep", "masking.random_mask",
    "masking.block_mask", "masking.csem_mask", "metrics.purity",
    "metrics.group_entropy",
)
EVAL_SPANS = (
    "embedding.tokenize", "geometry.fps", "geometry.knn.tokenize",
    "geometry.knn.knorm_enhance", "pcsm.frozen_encode", "pcsm.pcsm_forward",
    "pcsm.knorm_enhance", "metrics.nmi", "metrics.random_nmi_baseline",
    "metrics.nmi.random_nmi_baseline",
    "shapes.make_shape",
)


def per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    out = [("autodiff.op_calls_per_cloud", "count", "lower")]
    out += [(f"autodiff.op.{op}.calls_per_cloud", "count", "lower") for op in OPS]
    for name in ("autodiff.backward", "autodiff.adamw"):
        out += [(f"{name}.calls_per_step", "count", "lower"),
                (f"{name}.self_ms_per_step", "ms", "lower")]
    out += [("autodiff.gc_ms_per_step", "ms", "lower"),
            ("autodiff.gc_gen2_collections_per_step", "count", "lower")]
    for prefix, names in (("", TRAIN_SPANS), ("eval.", EVAL_SPANS)):
        for name in names:
            out += [(f"{prefix}{name}.calls_per_cloud", "count", "lower"),
                    (f"{prefix}{name}.self_ms_per_cloud", "ms", "lower")]
    out += [("eval.autodiff.op_calls_per_cloud", "count", "lower"),
            ("shapes.make_shape.ms_per_call", "ms", "lower")]
    for fn in ("save", "load"):
        out += [(f"checkpoint.{fn}.calls_per_session", "count", "lower"),
                (f"checkpoint.{fn}.ms_per_call", "ms", "lower"),
                (f"checkpoint.{fn}.mb_per_call", "MB", "lower")]
    out += [("masking.selected_plan_ratio", "ratio", "higher"),
            ("trace.clouds_per_s_untraced", "1/s", "higher"),
            ("trace.clouds_per_s_traced", "1/s", "higher"),
            ("trace.overhead_pct", "%", "lower")]
    return out
