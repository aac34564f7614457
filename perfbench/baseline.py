"""Measure a baseline: every workload under several seeds, untraced and traced.

Run from the repository root:

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json

For each workload it makes ``--runs`` untraced runs, seed 1, 2, ..., and
reports each end-to-end metric's median and its spread (the distance
between the first and third quartiles as a share of the median).  It then
makes two traced runs with the same seed, reports the per-layer medians and
checks that every count repeats exactly.  The output also records the
machine the numbers come from.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def machine() -> dict:
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level, kind = (index / "level").read_text().strip(), (index / "type").read_text().strip()
        caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
    model = next((line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                  if line.startswith("model name")), platform.processor())
    return {"nproc": os.cpu_count(), "cpu": model, "caches": caches,
            "python": platform.python_version(), "platform": platform.platform()}


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["text"] = {p[2]: float(p[4]) for p in (line.split() for line in lines[:-1]) if p[0] == "metric"}
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    report = {"machine": machine(), "run_seconds": seconds, "runs": args.runs, "workloads": {}}
    for name in names:
        runs = [run(name, seed, seconds, 0) for seed in range(1, args.runs + 1)]
        entry = {"attempted": [r["attempted"] for r in runs], "failed": [r["failed"] for r in runs],
                 "correct": all(r["correct"] for r in runs), "end_to_end": {}, "also_printed": {}}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            entry["end_to_end"][metric] = {"unit": runs[0]["metrics"][metric]["unit"], "values": values,
                                           "median": statistics.median(values), "spread": spread(values)}
        for metric in runs[0]["text"]:
            if metric not in runs[0]["metrics"]:
                entry["also_printed"][metric] = statistics.median(r["text"][metric] for r in runs)
        traced = [run(name, 1, seconds, 1) for _ in range(2)]
        first, second = (t["metrics"] for t in traced)
        entry["per_layer"] = {m: {"unit": v["unit"], "value": v["value"]} for m, v in first.items()}
        entry["per_layer_counts_repeat"] = all(
            first[m]["value"] == second[m]["value"] for m in first
            if first[m]["unit"] in ("count", "bytes", "rows/call") or m.endswith("calls_per_classify"))
        report["workloads"][name] = entry
        print(name, json.dumps({m: (round(v["median"], 4), round(v["spread"], 4))
                                for m, v in entry["end_to_end"].items()}), flush=True)
    text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        print(text)


if __name__ == "__main__":
    main()
