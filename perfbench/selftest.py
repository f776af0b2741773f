"""Fast self-test of the benchmark on the ``toy`` preset.

    python3 perfbench/selftest.py

Runs every workload at toy size for about a second, untraced and traced, and
checks that each run passes its output checks and reports exactly the
metrics ``BENCHMARK.json`` names, each with the unit it names and a finite
value, no end-to-end value being zero.  Exits 0 when everything holds, 1
otherwise, listing what failed.
"""

from __future__ import annotations

import json
import math
import sys

import run
from catalog import END_TO_END, per_layer_names


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    if want[0] != dict(END_TO_END):
        failures.append("BENCHMARK.json end_to_end differs from catalog.END_TO_END")
    if [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] != per_layer_names():
        failures.append("BENCHMARK.json per_layer differs from catalog.per_layer_names()")
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            rec = run.measure(workload, seed=0, seconds=1.0, trace=trace, size="toy")
            if rec is None:
                failures.append(f"{label}: no result")
                continue
            if not rec["correct"] or rec["failed"]:
                failures.append(f"{label}: output checks failed: {rec['problems']}")
            got = {name: m["unit"] for name, m in rec["metrics"].items()}
            if got != want[trace]:
                failures.append(f"{label}: metric names or units differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(want[trace].items()))}")
            bad = [name for name, m in rec["metrics"].items()
                   if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"])]
            if bad:
                failures.append(f"{label}: non-finite values for {bad}")
            zero = [name for name, m in rec["metrics"].items() if m["value"] == 0]
            if trace == 0 and zero:
                failures.append(f"{label}: end-to-end metrics read zero: {zero}")
            print(f"{label}: {len(got)} metrics, {rec['attempted']} sessions", flush=True)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
