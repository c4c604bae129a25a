"""Run the benchmark over several seeds and report run-to-run spread.

    python3 bench/spread.py --workloads enumerate,tower --seeds 1-10 \
        [--out bench/out/spread.json]
    python3 bench/spread.py --compare FIRST.json SECOND.json [--out FILE]

The first form runs ``run.py --trace 0`` once per (seed, workload) for
BENCHMARK.json's ``run_seconds``, seeds in the outer loop so a slow
spell of the machine is shared out over the workloads.  For every
end-to-end metric it reports the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median, next to the bound that
BENCHMARK.json fixes.  The summary is written as JSON to ``--out``.

The second form compares two such summaries of the same code: per
metric both spreads, both medians and how much worse the second median
is than the first, as a share of the first; a value over the bound is
flagged.  With ``--out`` it writes both sets and the comparison to one
file, as in ``bench/results/baseline.json``.
"""

from __future__ import annotations

import argparse
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


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def host():
    """What the numbers were measured on."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": cpu, "cpus": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version()}


def summarize(values, bound):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "values": values}


def run_seeds(names, seeds):
    spec = load_spec()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {w: [] for w in names}
    for seed in seeds:
        for workload in names:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            begun = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = time.monotonic() - begun
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return None
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[workload].append({"seed": seed, "wall_s": wall, **result})
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload:9s} seed {seed:3d} {wall:5.1f} s correct={result['correct']} "
                  f"{values}", flush=True)
    summary = {"host": host(), "seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload, results in runs.items():
        metrics = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            metrics[name] = summarize(values, bounds[name])
            metrics[name]["unit"] = results[0]["metrics"][name]["unit"]
        summary["workloads"][workload] = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "max_wall_s": max(r["wall_s"] for r in results),
            "metrics": metrics,
        }
        for name, m in metrics.items():
            print(f"{workload:9s} {name:18s} median {m['median']:.5g} {m['unit']} "
                  f"spread {m['spread']:.3f} bound {m['bound']:.2f} "
                  f"({m['spread'] / m['bound']:.2f} of it)")
    return summary


def compare(first, second):
    """Per workload and metric: both spreads, both medians, and how much
    worse the second median is than the first (share of the first)."""
    better = {m["name"]: m["better"] for m in load_spec()["end_to_end"]}
    out = {}
    for workload, a in first["workloads"].items():
        b = second["workloads"][workload]
        out[workload] = {}
        for name, ma in a["metrics"].items():
            mb = b["metrics"][name]
            change = (mb["median"] - ma["median"]) / ma["median"]
            worse = change if better[name] == "lower" else -change
            out[workload][name] = {
                "spread_first": round(ma["spread"], 4), "spread_second": round(mb["spread"], 4),
                "median_first": ma["median"], "median_second": mb["median"],
                "second_worse_by": round(worse, 4), "bound": ma["bound"]}
            over = [k for k in ("spread_first", "spread_second", "second_worse_by")
                    if out[workload][name][k] > ma["bound"]
                    and not (name == "setup_s" and k.startswith("spread"))]
            print(f"{workload:9s} {name:18s} spreads {ma['spread']:.3f} {mb['spread']:.3f} "
                  f"second worse by {worse:+.3f} bound {ma['bound']:.2f}"
                  + (f"  OVER: {', '.join(over)}" if over else ""))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    parser.add_argument("--out")
    args = parser.parse_args()
    if args.compare:
        first, second = (json.loads(Path(f).read_text(encoding="utf-8")) for f in args.compare)
        result = {"first_set": first, "second_set": second,
                  "comparison": compare(first, second)}
    elif args.workloads:
        result = run_seeds(args.workloads.split(","), seed_list(args.seeds))
        if result is None:
            return 1
        result["command"] = ["python3", "bench/spread.py", "--workloads", args.workloads,
                             "--seeds", args.seeds]
    else:
        parser.error("give --workloads or --compare")
    if args.out or not args.compare:
        out = Path(args.out or HERE / "out" / "spread.json")
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
