"""notchpwm benchmark: two closed-loop workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload cli_simulate --seed 0 --seconds 60 --trace 0
    python3 bench/run.py                       # every workload, default seed
    python3 bench/run.py --record-golden       # rewrite bench/golden.json

Run from the root of a source checkout; the library is imported from
./src.  Each workload runs in a fresh worker process, one at a time, with
BLAS/OpenMP pinned to one thread.  Set-up time is measured first, by
importing notchpwm in several fresh interpreters; it counts against
--seconds, which bounds the whole run of a workload.  With --trace 0 the
end-to-end metrics are reported, with --trace 1 the per-layer metrics of
a separate traced run.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from importlib import metadata
from time import perf_counter

from tracing import parse_importtime

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("cli_simulate", "sweep")
SETUP_RUNS = 3
# beyond --seconds: the worker's own grace for an operation that overruns,
# plus start-up; at 60 s a run still ends within 180 s
WORKER_SLACK_S = 90.0
IMPORT_TIMER = "import time; t = time.perf_counter(); import notchpwm; print(time.perf_counter() - t)"


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def measure_setup(env, trace):
    """Median import time of notchpwm over fresh interpreters.

    The first import in a fresh checkout also writes the bytecode cache;
    the median discards it.  Traced, each import runs under -X importtime
    and the result is the median of each setup.* share instead.
    """
    samples = []
    for _ in range(SETUP_RUNS):
        if trace:
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import notchpwm"],
                env=env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
            )
            samples.append(parse_importtime(proc.stderr))
        else:
            proc = subprocess.run(
                [sys.executable, "-c", IMPORT_TIMER],
                env=env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
            )
            samples.append({"setup_s": float(proc.stdout.split()[-1])})
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def run_worker(env, workload, seed, seconds, trace, record=False):
    cmd = [
        sys.executable, os.path.join(BENCH, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if record:
        cmd.append("--record")
    timeout = seconds + WORKER_SLACK_S
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{workload} worker did not finish within {timeout} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def declared_units(trace):
    """{metric: unit} of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in declared}


def run_workload(env, workload, seed, seconds, trace):
    start = perf_counter()
    setup = measure_setup(env, trace)
    result = run_worker(env, workload, seed, max(seconds - (perf_counter() - start), 1.0), trace)
    metrics = {**setup, **result["metrics"]}
    units = declared_units(trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    for problem in result["problems"]:
        print(f"{workload}: FAILED {problem}", file=sys.stderr)
    print(f"# {workload}: {result['attempted']} operations, {result['failed']} failed, "
          f"error_rate {result['failed'] / result['attempted']:.4f}, "
          f"timings over n={result['samples']}")
    for key, value in metrics.items():
        print(f"{workload:>12}  {key:<40} {value:>16.6g} {units[key]}")
    return result, metrics, units


def record_golden(env):
    golden = {"versions": None, "workloads": {}}
    for workload in WORKLOADS:
        result = run_worker(env, workload, 0, 0, 1, record=True)
        if result["failed"]:
            raise RuntimeError(f"{workload}: operation 0 failed: {result['problems']}")
        golden["versions"] = result["versions"]
        golden["workloads"][workload] = result["golden"]
    with open(os.path.join(BENCH, "golden.json"), "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.join(BENCH, 'golden.json')}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true", help="rewrite golden.json from operation 0")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "notchpwm", "__init__.py")):
        print(f"no notchpwm source tree under {ROOT}/src", file=sys.stderr)
        return 2
    env = child_env()
    if args.record_golden:
        record_golden(env)
        return 0

    print(f"# nproc {os.cpu_count()}, python {sys.version.split()[0]}, "
          f"numpy {metadata.version('numpy')}, scipy {metadata.version('scipy')}")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for workload in workloads:
        result, values, units = run_workload(env, workload, args.seed, args.seconds, args.trace)
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = "" if len(workloads) == 1 else f"{workload}."
        metrics.update({prefix + k: {"value": v, "unit": units[k]} for k, v in values.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
