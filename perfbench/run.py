"""The protomae benchmark: one workload per call, each in a fresh child process.

    python3 perfbench/run.py --workload pretrain-small --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  ``--trace 0`` runs the workload untraced for ``--seconds`` and
prints every end-to-end metric.  ``--trace 1`` alternates traced and untraced
sessions for ``--seconds`` and prints every per-layer metric, including the
tracing overhead (the clouds-per-second difference between the two kinds of
session).  Both print a table of named metrics with units, the output checks and
the environment, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record (raw
samples, quality outputs, environment) goes to ``perfbench/out/``.

Exit status: 0 when a result was printed, 2 when the checkout has no
``protomae`` source, 1 when a child died without reporting.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from catalog import END_TO_END, per_layer_names  # noqa: E402

WORKLOADS = ("pretrain-small", "pretrain-paper", "finetune-eval-small")
CHILD_TIMEOUT_S = 170.0
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _child(workload: str, seed: int, session: int, trace: int, size: str,
           deadline: float) -> dict | None:
    env = dict(os.environ, **THREAD_ENV, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--session", str(session), "--trace", str(trace),
           "--out", str(OUT), "--size", size]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"workload {workload} timed out", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        print(f"workload {workload} exited with {proc.returncode}", file=sys.stderr)
        return None
    if "Traceback" in proc.stderr:
        sys.stderr.write(proc.stderr[-4000:])
    return json.loads(lines[-1])


def _sessions(workload: str, seed: int, budget: float, traces: tuple[int, ...],
              min_sessions: int, size: str, deadline: float) -> list[dict] | None:
    """Start sessions, one process each, until ``budget`` seconds have passed.

    Session ``k`` runs with the trace flag ``traces[k % len(traces)]``, so a
    traced run alternates traced and untraced sessions and both see the same
    spells of machine load.  Stops early at the first session that reports a
    problem.  Returns None if a child died without reporting.
    """
    sessions: list[dict] = []
    start = time.monotonic()
    while len(sessions) < min_sessions or time.monotonic() - start < budget:
        trace = traces[len(sessions) % len(traces)]
        rec = _child(workload, seed, len(sessions), trace, size, deadline)
        if rec is None:
            return None
        rec["trace"] = trace
        sessions.append(rec)
        if rec["problems"]:
            break
    return sessions


def _problems(sessions: list[dict], keys: tuple[str, ...]) -> list[list[str]]:
    """Problems of each session: its own, and any of ``keys`` that differs from
    the first session reporting it (every session runs the same work)."""
    out = []
    for i, s in enumerate(sessions):
        msgs = list(s["problems"])
        for key in keys:
            first = next((t for t in sessions if key in t), s)
            if key in s and s is not first and s[key] != first[key]:
                msgs.append(f"{key} differ from an earlier session under the same seed")
        out.append([f"session {i}: {m}" for m in msgs])
    return out


# Outputs that --seed does not touch (the training trajectory, the mask audit
# and the per-op counts of a training call): every run of the same source at
# the same size must reproduce them bit for bit.
SEED_FREE = ("pretrain_metrics", "finetune_metrics", "selected_plan_ratio")


def _source_key() -> str:
    """Hash of the package and benchmark sources, so a reference recorded by
    one version of the code is never compared against another."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _cross_run_problems(workload: str, size: str, sessions: list[dict]) -> list[str]:
    """Compare this run's seed-free outputs with the first run's in this checkout.

    The first run of a workload records them under ``perfbench/out/``; a later
    run adds what it measured that the record lacks (op counts come only
    from traced runs) and reports every value that differs.
    """
    ok = [s for s in sessions if s["quality"] is not None]
    if not ok:
        return []
    outputs = {key: ok[0]["quality"][key] for key in SEED_FREE}
    counted = [s for s in ok if "op_counts" in s]
    if counted:
        outputs["train_op_counts"] = counted[0]["op_counts"]["train"]
    path = OUT / f"reference-{workload}-{size}-{_source_key()}.json"
    ref = json.loads(path.read_text()) if path.is_file() else {}
    problems = [f"{key} differ from an earlier run of the same source"
                for key in outputs if key in ref and ref[key] != outputs[key]]
    if not problems and outputs.keys() - ref.keys():
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps({**outputs, **ref}, sort_keys=True))
        os.replace(tmp, path)
    return problems


def end_to_end(sessions: list[dict]) -> dict[str, float]:
    """End-to-end metrics pooled over sessions: rates over summed work and
    time, step percentiles over all steps, medians of per-session values."""
    ok = [s for s in sessions if s["quality"] is not None]
    steps = [x for s in ok for x in s["step_ms"]]
    if len(steps) > 1:
        p90 = statistics.quantiles(steps, n=10, method="inclusive")[8]
    else:
        p90 = steps[0] if steps else 0.0

    def rate(count: str, seconds: str) -> float:
        total = sum(s[seconds] for s in ok)
        return sum(s[count] for s in ok) / total if total > 0 else 0.0

    return {
        "clouds_per_s": rate("train_clouds", "train_s"),
        "step_ms_p50": statistics.median(steps) if steps else 0.0,
        "step_ms_p90": p90,
        "eval_clouds_per_s": rate("eval_clouds", "eval_s"),
        "setup_s": statistics.median(s["setup_s"] for s in ok) if ok else 0.0,
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in sessions),
        "pretrain_loss": ok[0]["quality"]["pretrain_loss"] if ok else 0.0,
    }


def measure(workload: str, seed: int, seconds: float, trace: int,
            size: str = "full") -> dict | None:
    """Run one workload and return the full record, or None if a child died."""
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    OUT.mkdir(exist_ok=True)
    # A traced run needs two traced sessions to check that op counts repeat,
    # and one untraced session to measure the tracing overhead against.
    sessions = _sessions(workload, seed, seconds, (1, 0) if trace else (0,),
                         3 if trace else 2, size, deadline)
    if sessions is None:
        return None
    timed = [s for s in sessions if s["trace"] == trace]
    ref = [s for s in sessions if s["trace"] == 0]
    e2e = end_to_end(timed)
    if not trace:
        metrics, units = e2e, dict(END_TO_END)
    else:
        untraced = end_to_end(ref)["clouds_per_s"]
        layers = [s["per_layer"] for s in timed if "per_layer" in s]
        units = {name: unit for name, unit, _ in per_layer_names()}
        metrics = {name: statistics.median(layer.get(name, 0.0) for layer in layers)
                   if layers else 0.0 for name in units}
        metrics["trace.clouds_per_s_untraced"] = untraced
        metrics["trace.clouds_per_s_traced"] = e2e["clouds_per_s"]
        metrics["trace.overhead_pct"] = (100.0 * (untraced - e2e["clouds_per_s"]) / untraced
                                         if untraced else 0.0)
    problems = _problems(sessions, ("quality", "op_counts"))
    problems[0] += [f"run: {m}" for m in _cross_run_problems(workload, size, sessions)]
    failed = sum(1 for msgs in problems if msgs)
    steps = [x for s in timed if s["quality"] is not None for x in s["step_ms"]]
    p90 = e2e["step_ms_p90"]
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "size": size,
        "correct": failed == 0,
        "attempted": len(sessions),
        "failed": failed,
        "error_rate": failed / len(sessions),
        "problems": [m for msgs in problems for m in msgs],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
        "step_samples": len(steps),
        "step_samples_above_p90": sum(1 for x in steps if x > p90),
        "quality": sessions[0]["quality"],
        "sessions": sessions,
        "env": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "git_sha": _git_sha(),
            **sessions[0]["env"],
        },
    }


def main() -> int:
    p = argparse.ArgumentParser(description="protomae benchmark (one workload per call)")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "protomae" / "__init__.py").is_file():
        print(f"no protomae source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    rec = measure(args.workload, args.seed, args.seconds, args.trace)
    if rec is None:
        return 1
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(rec, indent=1, sort_keys=True) + "\n")

    print(f"workload {rec['workload']} seed {rec['seed']} trace {rec['trace']}: "
          f"{rec['attempted']} attempted, {rec['failed']} failed, "
          f"error_rate {rec['error_rate']:.3f}")
    for name, m in rec["metrics"].items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    print(f"  step samples {rec['step_samples']}, above p90 {rec['step_samples_above_p90']}")
    q = rec["quality"] or {}
    print("  not gated (checked for bit-identity, or carried by attempted/failed):")
    for name, value, unit in (("val_accuracy", q.get("val_accuracy"), "ratio"),
                              ("nmi_mean", q.get("nmi_mean"), "nmi"),
                              ("random_nmi_mean", q.get("random_nmi_mean"), "nmi"),
                              ("error_rate", rec["error_rate"], "ratio")):
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<48} {shown:>14} {unit}")
    for problem in rec["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print(f"  env {json.dumps(rec['env'], sort_keys=True)}")
    print(f"  record {path.relative_to(ROOT)}")
    print(json.dumps({"correct": rec["correct"], "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": rec["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
