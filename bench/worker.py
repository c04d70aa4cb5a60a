"""Run one benchmark workload in a fresh process and report it as JSON.

Started by run.py with the source tree on PYTHONPATH.  The closed loop
starts operations while the next one is expected to end within --seconds.
Operation 0 always uses the golden program seed, so its digests (and,
traced, its work counts) are compared with golden.json in every run; it
is also the warm-up, so the timings cover operations 1 onwards.  Every
operation runs under a timer, so a hang counts as a failure.  The last
stdout line is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import signal
import statistics
import sys
from collections import Counter
from time import perf_counter

from tracing import CLI_WRITERS, LAYER_SPANS, Tracer, patch_library, span_cost_s

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
GOLDEN_PATH = os.path.join(BENCH, "golden.json")
SCRATCH = os.path.join(ROOT, ".bench_out")

# time allowed past --seconds for an operation that overruns its estimate
GRACE_S = 60.0
# operation 0, the warm-up, and at least one timed operation
MIN_OPS = 2


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout("operation timed out")


def op_seeds(seed, golden_seed):
    yield golden_seed
    rng = random.Random(seed)
    while True:
        yield rng.randrange(1, 2**31)


def versions():
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__}


def golden_problems(golden, name, checked, counts):
    want = golden["workloads"][name]
    problems = []
    running = versions()
    note = "" if golden["versions"] == running else f" (recorded with {golden['versions']}, running {running})"
    for key, digest in want["digests"].items():
        if checked.digests.get(key) != digest:
            problems.append(f"golden digest of {key} differs{note}")
    for key, value in want["quality"].items():
        if checked.quality.get(key) != value:
            problems.append(f"golden {key} {checked.quality.get(key)!r} != {value!r}")
    if counts is not None:
        for key, value in want["counts"].items():
            if counts.get(key) != value:
                problems.append(f"golden count {key} {counts.get(key)!r} != {value!r}")
    return problems


def median(values):
    return statistics.median(values) if values else 0.0


def mean(values):
    return statistics.fmean(values) if values else 0.0


def ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(tracer, walls, ok_ops):
    """Per-layer metrics: self times and ratios as medians over the good
    operations, work counts from operation 0."""
    self_s, calls = tracer.self_times()
    cost = span_cost_s()
    per_op = {}
    for op in ok_ops or range(len(walls)):
        selfs, counts = self_s[op], tracer.counts[op]
        m = {f"{name}.self_s": selfs[name] for name in LAYER_SPANS}
        wall = walls[op]
        unattributed = wall - sum(selfs.values())
        m["trace.wall_s"] = wall
        m["trace.unattributed_s"] = unattributed
        m["trace.coverage"] = 1.0 - unattributed / wall
        m["trace.overhead_s"] = sum(calls[op].values()) * cost
        schedule_s = selfs["scheduler.schedule"] + selfs["modulator.duty_cycles"]
        m["scheduler.us_per_cycle"] = ratio(schedule_s, counts["scheduler.cycles"], 1e6)
        m["synthesis.sample.ns_per_sample"] = ratio(selfs["synthesis.sample"], counts["synthesis.samples"], 1e9)
        m["circuit.rl_current.ns_per_segment"] = ratio(
            selfs["circuit.rl_current"], counts["circuit.rl_current.segments"], 1e9
        )
        write_s = sum(selfs[name] for name in CLI_WRITERS)
        m["cli.write_mb_per_s"] = ratio(counts["cli.bytes_written"], write_s, 1e-6)
        per_op[op] = m
    metrics = {key: median([m[key] for m in per_op.values()]) for key in per_op[next(iter(per_op))]}
    metrics.update(op0_counts(tracer))
    return metrics


def op0_counts(tracer):
    """Work counts of operation 0, which repeat exactly in every run."""
    counts = Counter({key: 0 for key in COUNT_KEYS})
    counts.update(tracer.counts[0])
    counts["modulator.duty_cycles.calls"] = tracer.self_times()[1][0]["modulator.duty_cycles"]
    counts["scheduler.lock_yield"] = ratio(counts["scheduler.locked"], counts["scheduler.lock_attempts"])
    return dict(counts)


COUNT_KEYS = (
    "scheduler.cycles",
    "scheduler.locked",
    "scheduler.fallbacks",
    "scheduler.lock_attempts",
    "scheduler.chain_restarts",
    "synthesis.edges",
    "synthesis.samples",
    "synthesis.sample.bytes_computed",
    "synthesis.segments",
    "circuit.rl_current.segments",
    "spectrum.welch_psd.samples_in",
    "spectrum.welch_psd.fft_segments",
    "spectrum.analytic_transform.exp_evals",
    "cli.bytes_written",
)


def run_op(workload, op, tracer, timeout):
    """Run and check one operation under a timer.

    Returns (wall seconds, Checked or None, problems).  The operation's
    outputs are released on return, before the next operation starts.
    """
    signal.setitimer(signal.ITIMER_REAL, timeout)
    wall = 0.0
    try:
        t0 = perf_counter()
        try:
            out = workload.run(op)
        finally:
            wall = perf_counter() - t0
            if tracer is not None:
                tracer.recording = False
        checked = workload.check(op, out)
        return wall, checked, list(checked.problems)
    except Exception as exc:  # any failure of the program counts against it
        return wall, None, [f"{type(exc).__name__}: {exc}"]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        workload.cleanup(op)
        if tracer is not None:
            tracer.recording = True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="report operation 0 without comparing it to golden.json")
    args = parser.parse_args(argv)

    import notchpwm

    expected = os.path.join(ROOT, "src", "notchpwm", "__init__.py")
    if os.path.realpath(notchpwm.__file__) != os.path.realpath(expected):
        print(f"notchpwm imported from {notchpwm.__file__}, not {expected}", file=sys.stderr)
        return 2

    from workloads import GOLDEN_SEED, WORKLOADS

    tracer = Tracer() if args.trace else None
    os.makedirs(SCRATCH, exist_ok=True)
    workload = WORKLOADS[args.workload](SCRATCH, tracer)
    if tracer is not None and workload.in_process:
        patch_library(tracer)
    golden = None
    if not args.record:
        with open(GOLDEN_PATH) as fh:
            golden = json.load(fh)

    signal.signal(signal.SIGALRM, _on_alarm)
    seeds = op_seeds(args.seed, GOLDEN_SEED)
    walls, cycles, laps, ok_ops, problems = [], [], [], [], []
    op0 = None
    start = perf_counter()
    deadline = start + args.seconds + GRACE_S
    # start another operation only while it should end within --seconds,
    # so a run lasts --seconds whatever one operation costs
    while len(walls) < MIN_OPS or perf_counter() - start + median(laps[1:]) <= args.seconds:
        lap_start = perf_counter()
        index = len(walls)
        seed = next(seeds)
        if tracer is not None:
            tracer.op = index
        op = workload.prepare(seed)
        timeout = max(min(workload.timeout_s, deadline - perf_counter()), 0.001)
        wall, checked, errors = run_op(workload, op, tracer, timeout)
        if index == 0 and checked is not None:
            op0 = checked
            if golden is not None:
                counts = op0_counts(tracer) if tracer is not None else None
                errors += golden_problems(golden, workload.name, checked, counts)
        walls.append(wall)
        cycles.append(checked.cycles if checked is not None else 0)
        laps.append(perf_counter() - lap_start)
        if errors:
            problems += [f"op {index} (seed {seed}): {e}" for e in errors]
        else:
            ok_ops.append(index)
        if perf_counter() >= deadline:
            break

    usage = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    timed = [i for i in ok_ops if i > 0]
    timed_walls = [walls[i] for i in timed]
    result = {
        "attempted": len(walls),
        "failed": len(walls) - len(ok_ops),
        "problems": problems[:20],
        "samples": len(timed),
        "versions": versions(),
    }
    if tracer is None:
        quality = op0.quality if op0 is not None else {}
        # means over the timed operations: on a shared host the speed
        # drifts between slow and fast spells, which a mean averages
        # while a median jumps with whichever spell covers more of the run
        result["metrics"] = {
            "wall_s": mean(timed_walls or walls),
            "cycles_per_s": ratio(sum(cycles[i] for i in timed), sum(timed_walls)),
            "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
            "notch_depth_db": quality.get("notch_depth_db", 0.0),
            "residual_ratio_max": quality.get("residual_ratio_max", 0.0),
        }
    else:
        result["metrics"] = layer_metrics(tracer, walls, timed or ok_ops)
        tracer.write(os.path.join(SCRATCH, f"spans_{workload.name}.csv"))
    if args.record and op0 is not None:
        result["golden"] = {
            "digests": op0.digests,
            "quality": op0.quality,
            "counts": op0_counts(tracer) if tracer is not None else {},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
