"""Spans around notchpwm's public functions, and import-time attribution.

A traced run replaces module attributes with wrappers that record one span
per call: (name, start, end, parent span, operation).  The wrappers are
installed on the attributes the layers look each other up by, so
`notchpwm.cli.sample` catches the CLI's calls to `sample` and
`notchpwm.scheduler.duty_cycles` catches the scheduler's per-cycle calls.
Spans stay in memory and are written once, at the end of the run.

A layer's self time is its span minus the child spans it covers.  Count
hooks run after a span closes and add work counts derived from the call's
inputs and outputs (samples, edges, segments, exp evaluations, bytes).
"""

from __future__ import annotations

import inspect
import json
import os
import sys
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# every span a workload can record: the CLI child's start-up, import and
# exit, and the library's functions, named after their defining module
LAYER_SPANS = (
    "process.start",
    "process.exit",
    "setup.import",
    "cli.main",
    "cli.parse_config",
    "cli.write_cycles_csv",
    "cli.write_psd_csv",
    "cli.write_waveform_csv",
    "cli.write_current_csv",
    "cli.write_report",
    "scheduler.schedule",
    "modulator.duty_cycles",
    "synthesis.pulse_train",
    "synthesis.sample",
    "synthesis.line_voltage",
    "synthesis.voltage_segments",
    "spectrum.welch_psd",
    "spectrum.analytic_psd",
    "spectrum.analytic_transform",
    "spectrum.cancellation_residual",
    "spectrum.notch_report",
    "circuit.rl_current",
)

CLI_WRITERS = tuple(s for s in LAYER_SPANS if s.startswith("cli.write_"))


class Tracer:
    """In-memory span recorder with per-operation work counts.

    Span fields live in arrays, which the garbage collector never scans,
    so hundreds of thousands of spans do not slow the traced program.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.op_of = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.op = 0
        # off while the benchmark checks an operation, so checks add no spans
        self.recording = True
        self.counts: dict[int, Counter] = defaultdict(Counter)

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _begin(self, name_id):
        sid = len(self.end)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_of.append(self.op)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def _finish(self, sid):
        self.end[sid] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, count=None):
        name_id = self._id(name)
        signature = inspect.signature(fn) if count is not None else None

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            sid = self._begin(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._finish(sid)
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts[self.op].update(count(result, bound.arguments))
            return result

        return traced

    def patch(self, module, attr):
        """Replace module.attr with a traced wrapper named after its defining module."""
        fn = getattr(module, attr)
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        setattr(module, attr, self.wrap(fn, name, COUNTERS.get(name)))

    @contextmanager
    def span(self, name):
        sid = self._begin(self._id(name))
        try:
            yield
        finally:
            self._finish(sid)

    def rows(self):
        """(name, start, end, parent, op) per span, in the order spans opened."""
        for sid in range(len(self.end)):
            yield self.names[self.name[sid]], self.start[sid], self.end[sid], self.parent[sid], self.op_of[sid]

    def absorb(self, spans, counts, op):
        """Append spans and counts recorded by another process as operation op."""
        offset = len(self.end)
        for name, start, end, parent in spans:
            self.name.append(self._id(name))
            self.parent.append(parent + offset if parent >= 0 else -1)
            self.op_of.append(op)
            self.start.append(start)
            self.end.append(end)
        self.counts[op].update(counts)

    def self_times(self):
        """Per operation: {span name: self seconds} and {span name: calls}."""
        covered = [0.0] * len(self.end)
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                covered[parent] += self.end[sid] - self.start[sid]
        self_s: dict[int, Counter] = defaultdict(Counter)
        calls: dict[int, Counter] = defaultdict(Counter)
        for sid, (name, start, end, _parent, op) in enumerate(self.rows()):
            self_s[op][name] += (end - start) - covered[sid]
            calls[op][name] += 1
        return self_s, calls

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write("op,span,parent,name,start_s,end_s\n")
            for sid, (name, start, end, parent, op) in enumerate(self.rows()):
                fh.write(f"{op},{sid},{parent},{name},{start!r},{end!r}\n")


def span_cost_s(samples=20000):
    """Seconds one traced call adds over an untraced one, measured here."""
    tracer = Tracer()

    def noop():
        return None

    traced = tracer.wrap(noop, "noop")
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        for _ in range(samples):
            noop()
        t1 = perf_counter()
        for _ in range(samples):
            traced()
        t2 = perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / samples)
    return max(best, 0.0)


# ---------------------------------------------------------------------------
# work counts derived from each call's inputs and outputs


def _count_schedule(result, _args):
    locked = fallbacks = 0
    for rec in result.records:
        locked += sum(k is not None for k in rec.k_used)
        fallbacks += sum(rec.fallback)
    return {
        "scheduler.cycles": result.stats.cycles,
        "scheduler.locked": locked,
        "scheduler.fallbacks": fallbacks,
        "scheduler.lock_attempts": locked + fallbacks,
        "scheduler.chain_restarts": result.stats.total_chain_restarts,
    }


def _count_welch(_result, args):
    n = args["waveform"].values.size
    seg = args["segment_len"]
    step = seg - int(args["overlap"] * seg)
    return {"spectrum.welch_psd.samples_in": n, "spectrum.welch_psd.fft_segments": (n - seg) // step + 1}


def _count_analytic(_result, args):
    from notchpwm import spectrum

    rises, _falls = spectrum.edge_times(args["records"], args["phase"])
    return {"spectrum.analytic_transform.exp_evals": 2 * rises.size * len(args["freqs"])}


def _count_written(_result, args):
    return {"cli.bytes_written": os.path.getsize(args["path"])}


COUNTERS = {
    "scheduler.schedule": _count_schedule,
    "synthesis.pulse_train": lambda r, a: {"synthesis.edges": r.times.size},
    "synthesis.sample": lambda r, a: {
        "synthesis.samples": r.values.size,
        "synthesis.sample.bytes_computed": r.values.nbytes,
    },
    "synthesis.voltage_segments": lambda r, a: {"synthesis.segments": r[1].size},
    "circuit.rl_current": lambda r, a: {"circuit.rl_current.segments": len(a["voltages"])},
    "spectrum.welch_psd": _count_welch,
    "spectrum.analytic_transform": _count_analytic,
    **{name: _count_written for name in CLI_WRITERS},
}


# ---------------------------------------------------------------------------
# patch sets


def patch_cli(tracer):
    """Wrap every layer `notchpwm simulate` reaches, where the CLI looks it up."""
    from notchpwm import cli, scheduler, spectrum

    for attr in (
        "parse_config",
        "schedule",
        "pulse_train",
        "sample",
        "line_voltage",
        "voltage_segments",
        "welch_psd",
        "notch_report",
        "rl_current",
        "write_cycles_csv",
        "write_psd_csv",
        "write_waveform_csv",
        "write_current_csv",
        "write_report",
    ):
        tracer.patch(cli, attr)
    tracer.patch(scheduler, "duty_cycles")
    tracer.patch(spectrum, "analytic_transform")


def patch_library(tracer):
    """Wrap the layers the in-process workloads call through module attributes."""
    from notchpwm import circuit, scheduler, spectrum, synthesis

    for module, attrs in (
        (scheduler, ("schedule", "duty_cycles")),
        (synthesis, ("pulse_train", "sample", "line_voltage", "voltage_segments")),
        (spectrum, ("welch_psd", "analytic_psd", "analytic_transform", "cancellation_residual", "notch_report")),
        (circuit, ("rl_current",)),
    ):
        for attr in attrs:
            tracer.patch(module, attr)


# ---------------------------------------------------------------------------
# import-time attribution


def parse_importtime(text):
    """Split `python -X importtime -c "import notchpwm"` stderr into seconds.

    Returns {"setup.scipy_s", "setup.numpy_s", "setup.notchpwm_self_s"}:
    the cumulative time of the outermost scipy and numpy imports made
    while importing notchpwm, and the rest of notchpwm's cumulative time.
    """
    pending: list[tuple[int, tuple]] = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        raw = fields[2]
        depth = (len(raw) - len(raw.lstrip(" ")) - 1) // 2
        children = []
        while pending and pending[-1][0] > depth:
            children.append(pending.pop()[1])
        pending.append((depth, (raw.strip(), int(fields[1]) * 1e-6, children)))

    roots = [node for depth, node in pending if depth == 0 and node[0] == "notchpwm"]
    if not roots:
        raise ValueError("no top-level notchpwm import in -X importtime output")
    name, total, children = roots[-1]
    spent = {"scipy": 0.0, "numpy": 0.0}
    todo = list(children)
    while todo:
        child_name, cumulative, grandchildren = todo.pop()
        top = child_name.split(".")[0]
        if top in spent:
            spent[top] += cumulative
        else:
            todo.extend(grandchildren)
    return {
        "setup.scipy_s": spent["scipy"],
        "setup.numpy_s": spent["numpy"],
        "setup.notchpwm_self_s": total - spent["scipy"] - spent["numpy"],
    }


def traced_simulate(config, out, result_path):
    """A traced cli_simulate operation: `notchpwm simulate` run in-process.

    The import of notchpwm is a span of its own, so the parent can account
    for the whole process.  Spans and counts go to result_path as JSON.
    """
    tracer = Tracer()
    with tracer.span("setup.import"):
        from notchpwm import cli
    patch_cli(tracer)
    code = tracer.wrap(cli.main, "cli.main")(["simulate", "--config", config, "--out", out])
    with open(result_path, "w") as fh:
        json.dump({"spans": [row[:4] for row in tracer.rows()], "counts": tracer.counts[0]}, fh)
    return code


if __name__ == "__main__":
    sys.exit(traced_simulate(*sys.argv[1:]))
