"""One measured round of one workload, in a fresh interpreter.

Usage: python worker.py WORKLOAD SEED SIZE MODE WORKDIR

Every round starts from a cold process, because the library keeps
module-level memos that a user of the command line never finds warm.
MODE is ``plain``, ``trace`` or ``setup``.  Prints one JSON line: set-up
time, busy time, units of work, latency samples, peak resident memory,
verification tallies and, when tracing, the span totals.  A ``setup``
worker only sets up, times it and exits.
"""

import json
import os
import resource
import sys
import time
from pathlib import Path

import spans
import workloads

SETUP_SPEED_SAMPLES = 5  # speed samples on each side of set-up


def pin_to_one_cpu():
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # no affinity control here: unpinned
        pass


def main():
    workload, seed, size, mode, workdir = sys.argv[1:6]
    trace = mode == "trace"
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    spec = workloads.plan(workload, int(seed), size)
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(spec["config"]), encoding="utf-8")

    # untraced timings are scaled to the reference machine (see
    # workloads.SpeedProbe); set-up by the speed sampled around it
    probe = None if trace else workloads.SpeedProbe()
    for _ in range(SETUP_SPEED_SAMPLES if probe else 0):
        probe.sample()
    start = time.perf_counter()
    import segtriples
    import segtriples.config

    cfg = segtriples.config.load_config(config_path)
    table = cfg.expansion_table()
    setup_s = raw_setup_s = time.perf_counter() - start
    if probe is not None:
        for _ in range(SETUP_SPEED_SAMPLES):
            probe.sample()
        setup_s *= probe.scale(start, start)
    if mode == "setup":
        sys.stdout.write(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}) + "\n")
        return

    ctx = {"size": size, "workdir": str(workdir), "config_path": config_path,
           "root": str(workloads.HERE.parent)}
    tracer = None
    merged = {"spans": {}, "counts": {}}
    startup = [0.0]
    if trace and workload == "cli":
        def child_trace(path, wall_s):
            child = json.loads(Path(path).read_text(encoding="utf-8"))
            spans.merge(merged, child)
            startup[0] += wall_s - child["spans"].get("cli.main", [0, 0.0, 0.0])[1]
        ctx["child_tracer"] = child_trace
    elif trace:
        tracer = spans.install(spans.Tracer())

    if probe is not None and workload == "cli":
        # The invocations run in child processes, and the two CPUs of a
        # shared host are not equally fast at one moment.  Pinned to one
        # CPU, with its children, this worker samples the speed of the
        # CPU the next child runs on between invocations; it takes no
        # samples while a child runs, so as not to slow it.
        pin_to_one_cpu()
    elif probe is not None:
        probe.start()
    rnd = workloads.Round(tracer, probe)
    workloads.RUNNERS[workload](segtriples, cfg, table, spec, rnd, ctx)
    if probe is not None:
        probe.stop()
    timings = rnd.timings()

    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    record = {
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        **timings,
        "units": rnd.units,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "attempted": rnd.attempted,
        "failed": rnd.failed,
        "errors": rnd.errors,
        "speed_samples": probe.took if probe is not None else [],
    }
    if trace:
        record["trace"] = tracer.snapshot() if tracer is not None else merged
        record["startup_s"] = startup[0]
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
    # skip tearing down the memo tables and expansions; nothing is left to flush
    os._exit(0)
