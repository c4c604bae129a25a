"""Benchmark runner for segtriples.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --selfcheck

Run from the root of a checkout.  Each measured round is a fresh worker
interpreter (``worker.py``) driven by one closed-loop client, this
process; the cli workload's worker in turn runs ``python -m
segtriples`` children one at a time.  Rounds repeat with the same
seeded inputs while the next one's midpoint falls within ``--seconds``
(cli: at least MIN_SESSIONS sessions); ``--seconds`` defaults to
BENCHMARK.json's ``run_seconds``.  Throughput and latency pool every
round of the run; memory is the median over rounds.  Set-up time is the
median over the rounds and SETUP_SAMPLES workers that only set up,
spread over the run.  Untraced times are scaled to a reference machine
by the speed each worker samples as it runs (``workloads.SpeedProbe``).

With ``--trace 0`` the result carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it alternates untraced and traced
rounds and carries the per-layer metrics, including the tracing
overhead.  Human-readable detail goes to stdout first and to
``bench/out/<workload>-seed<N>-trace<T>.json``; the last stdout line is
the JSON result.  ``--selfcheck`` runs every workload at a tiny size,
prints every metric with its unit and checks that traced counts repeat
exactly across two traced rounds with one seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
RUN_LIMIT_S = 170.0
SETUP_SAMPLES = 24


def percentile(values, p):
    """Linear interpolation between closest ranks (inclusive method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def worker_env():
    env = {k: v for k, v in os.environ.items() if k != "SEGTRIPLES_CACHE_DIR"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Session:
    """Spawns worker rounds one at a time inside one work directory."""

    def __init__(self, workdir, started):
        self.workdir = workdir
        self.started = started
        self.count = 0

    def spawn(self, workload, seed, size, mode):
        """One worker; ``mode`` is ``plain``, ``trace`` or ``setup``."""
        self.count += 1
        wd = self.workdir / f"round-{self.count}"
        cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), size, mode,
               str(wd)]
        timeout = max(5.0, RUN_LIMIT_S - (time.monotonic() - self.started))
        try:
            proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"crashed": f"worker timed out after {timeout:.0f} s"}
        finally:
            shutil.rmtree(wd, ignore_errors=True)
        if proc.returncode != 0:
            return {"crashed": f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return {"crashed": f"worker printed no record: {proc.stderr.strip()[-2000:]}"}


def tally(records):
    attempted = sum(r.get("attempted", 1) for r in records)
    failed = sum(r.get("failed", 1) for r in records)
    return attempted, failed


def end_to_end(workload, records, setups=()):
    """Throughput over all rounds of the run and latency percentiles over
    all of its operations; memory is the median over rounds, set-up time
    the median over rounds and ``setups``, the set-up-only workers.

    Every time is scaled to the reference machine by the worker's speed
    samples (``workloads.SpeedProbe``); each round's row also shows its
    unscaled throughput and set-up time and its median speed, the
    reference kernel time over the median kernel time.
    """
    p_tail = workloads.TAIL_PERCENTILE[workload]
    pooled = [x for r in records for x in r["latencies"]]
    busy = sum(r["busy_s"] for r in records)
    metrics = {
        "ops_per_s": sum(r["units"] for r in records) / busy if busy else 0.0,
        "latency_p50_ms": 1e3 * percentile(pooled, 50),
        "latency_tail_ms": 1e3 * percentile(pooled, p_tail),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        "setup_s": statistics.median([r["setup_s"] for r in records + list(setups)]),
    }
    rounds = [{
        "ops_per_s": r["units"] / r["busy_s"] if r["busy_s"] else 0.0,
        "latency_p50_ms": 1e3 * percentile(r["latencies"], 50),
        "latency_tail_ms": 1e3 * percentile(r["latencies"], p_tail),
        "peak_rss_mb": r["peak_rss_mb"],
        "setup_s": r["setup_s"],
        "samples": len(r["latencies"]),
        "unscaled_ops_per_s": r["units"] / r["raw_busy_s"] if r["raw_busy_s"] else 0.0,
        "unscaled_setup_s": r["raw_setup_s"],
        "speed": workloads.REFERENCE_TICK_S / statistics.median(r["speed_samples"]),
    } for r in records]
    tail = {"percentile": p_tail, "samples": len(pooled),
            "beyond": len(pooled) * (100 - p_tail) / 100,
            "min_samples_per_round": min(row["samples"] for row in rounds),
            "setup_samples": len(records) + len(setups)}
    return metrics, rounds, tail


def per_layer(pairs, count_names):
    """Counts from the first traced round (checked equal in the others),
    every other value the median over traced rounds.  Shares and overhead
    count side operations too, since they carry spans."""
    rows = [spans.layer_metrics(t["trace"], t["raw_busy_s"] + t["side_s"],
                                t.get("startup_s", 0.0)) for _, t in pairs]
    metrics = {}
    unstable = []
    for name in rows[0]:
        values = [row[name] for row in rows]
        if name in count_names:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                unstable.append(name)
        else:
            metrics[name] = statistics.median(values)
    plain = statistics.median(p["raw_busy_s"] + p["side_s"] for p, _ in pairs)
    traced = statistics.median(t["raw_busy_s"] + t["side_s"] for _, t in pairs)
    metrics["trace.busy_s"] = traced
    metrics["trace.untraced_busy_s"] = plain
    metrics["trace.overhead_s"] = traced - plain
    metrics["trace.overhead_ratio"] = (traced - plain) / plain if plain else 0.0
    return metrics, unstable


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def metric_units(spec):
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def measure(args, session):
    e2e_units, layer_units = metric_units(load_spec())
    size = "full"
    minimum = workloads.MIN_SESSIONS if args.workload == "cli" and not args.trace else 1
    records, pairs, setups = [], [], []
    longest = 0.0

    def probe_setup(upto):
        while len(setups) < upto:
            setups.append(session.spawn(args.workload, args.seed, size, "setup"))

    while True:
        begun = time.monotonic()
        if args.trace:
            pairs.append((session.spawn(args.workload, args.seed, size, "plain"),
                          session.spawn(args.workload, args.seed, size, "trace")))
        else:
            records.append(session.spawn(args.workload, args.seed, size, "plain"))
            # set-up samples in step with the run's progress
            share = min(1.0, (time.monotonic() - session.started) / args.seconds)
            probe_setup(math.ceil(SETUP_SAMPLES * share))
        now = time.monotonic()
        longest = max(longest, now - begun)
        elapsed = now - session.started
        done = len(pairs) if args.trace else len(records)
        # start another round only while its midpoint falls within --seconds
        if done >= minimum and elapsed + longest / 2 >= args.seconds:
            break
        if elapsed + longest > RUN_LIMIT_S - 10:
            break
    if not args.trace:
        probe_setup(SETUP_SAMPLES)

    everything = records + [r for pair in pairs for r in pair]
    everything += [r for r in setups if "crashed" in r]
    crashed = [r["crashed"] for r in everything if "crashed" in r]
    attempted, failed = tally(everything)
    errors = crashed + [e for r in everything for e in r.get("errors", [])]
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": int(args.trace), "wall_s": time.monotonic() - session.started,
              "attempted": attempted, "failed": failed, "errors": errors[:20]}
    good_pairs = [(p, t) for p, t in pairs if "crashed" not in p and "crashed" not in t]
    good = [r for r in records if "crashed" not in r]
    if (args.trace and not good_pairs) or (not args.trace and not good):
        for line in errors[:5]:
            print(f"error: {line}", file=sys.stderr)
        print("error: no round completed, so there is nothing to report", file=sys.stderr)
        return 1

    if args.trace:
        counts = {n for n, u in layer_units.items() if u == "count"}
        values, unstable = per_layer(good_pairs, counts)
        units = layer_units
        report["rounds"] = len(good_pairs)
        report["unstable_counts"] = unstable
        if unstable:
            print(f"warning: traced counts differ between rounds: {', '.join(unstable)}")
    else:
        values, rounds, tail = end_to_end(
            args.workload, good, [r for r in setups if "crashed" not in r])
        units = e2e_units
        report["rounds"] = rounds
        report["tail"] = tail
        for i, row in enumerate(rounds, 1):
            print(f"round {i}: " + " ".join(f"{k}={v:.6g}" for k, v in row.items()))
        print(f"latency_tail_ms is p{tail['percentile']} of {tail['samples']} samples"
              f" pooled over {len(rounds)} rounds ({tail['beyond']:.1f} beyond)")

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    report["metrics"] = metrics
    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:>14.6g} {m['unit']}")
    print(f"attempted {attempted}, failed {failed}")
    for line in errors[:5]:
        print(f"failure: {line}")
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{int(args.trace)}.json"
    out_file.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


def selfcheck(session):
    """Tiny rounds of every workload: one untraced, two traced."""
    e2e_units, layer_units = metric_units(load_spec())
    counts = {n for n, u in layer_units.items() if u == "count"}
    problems = []
    for workload in workloads.WORKLOADS:
        plain = session.spawn(workload, 1, "tiny", "plain")
        traced = [session.spawn(workload, 1, "tiny", "trace") for _ in range(2)]
        everything = [plain] + traced
        crashed = [r["crashed"] for r in everything if "crashed" in r]
        if crashed:
            problems.append(f"{workload}: {crashed[0]}")
            continue
        attempted, failed = tally(everything)
        if failed:
            problems.append(f"{workload}: {failed} of {attempted} checks failed: "
                            f"{[e for r in everything for e in r['errors']][:3]}")
        e2e, _, _ = end_to_end(workload, [plain])
        layers, unstable = per_layer([(plain, t) for t in traced], counts)
        if unstable:
            problems.append(f"{workload}: traced counts differ: {', '.join(unstable)}")
        for name, unit in list(e2e_units.items()) + list(layer_units.items()):
            value = e2e[name] if name in e2e_units else layers[name]
            print(f"{workload:9s} {name:45s} {value:>14.6g} {unit}")
    for line in problems:
        print(f"self-check: {line}")
    print("self-check " + ("failed" if problems else "passed: traced counts repeat exactly"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if not args.selfcheck and args.workload is None:
        parser.error("--workload is required unless --selfcheck is given")
    if not (ROOT / "src" / "segtriples" / "__init__.py").is_file():
        print(f"error: no segtriples sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    started = time.monotonic()
    workdir = OUT / f"work-{os.getpid()}"
    session = Session(workdir, started)
    try:
        return selfcheck(session) if args.selfcheck else measure(args, session)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
