"""The benchmark workloads: inputs from a seed, one operation, checks.

Each workload is a closed loop with one client: the worker calls
`prepare(seed)` (untimed), `run(op)` (timed) and `check(op, out)`
(untimed) in turn.  `run` reaches the library only through public
functions looked up on their modules at call time, so a traced run can
wrap them; the tracer does not record while the checks run.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from notchpwm import circuit, scheduler, spectrum, synthesis
from notchpwm.circuit import LoadParams
from notchpwm.modulator import ModulatorConfig
from notchpwm.scheduler import (
    CancelMethod,
    CycleRecord,
    PulsePosition,
    SnsRfRpVariant,
    StrategyKind,
    StrategySpec,
)

PHASES = ("a", "b", "c")

# program seed of operation 0 in every run; golden.json holds its digests
GOLDEN_SEED = 0

# the paper's baseline operating point
F1_HZ = 50.0
U_DC_V = 24.0
FS_HZ = 2500.0
FX_HZ = 7000.0
BAND_HZ = (1500.0, 3500.0)


@dataclass
class Checked:
    """What the checks of one operation found."""

    cycles: int = 0
    digests: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def locked_phases(spec: StrategySpec) -> tuple[int, ...]:
    """Phases whose lock chain the strategy maintains."""
    if spec.kind in (StrategyKind.SNS_RP, StrategyKind.SNS_RF_RP):
        return (0,) if spec.reference_phase_only else (0, 1, 2)
    if spec.kind is StrategyKind.FIXED_POS:
        return (0,)
    return ()


def residual_ratio(spec, residuals, fallbacks, restarts) -> float:
    """Worst residual / (2 (1 + fallbacks_i + chain_restarts_i)) over locked phases."""
    return max(
        (residuals[i] / (2.0 * (1 + fallbacks[i] + restarts[i])) for i in locked_phases(spec)),
        default=0.0,
    )


def tiling_problems(records, duration, label) -> list[str]:
    """Cycles must start at 0, follow each other bit-exactly and cover duration."""
    if not records:
        return [f"{label}: empty schedule"]
    if records[0].t_m != 0.0:
        return [f"{label}: first cycle starts at {records[0].t_m!r}"]
    for prev, rec in zip(records, records[1:]):
        if rec.t_m != prev.t_m + prev.ts:
            return [f"{label}: cycle {rec.m} starts at {rec.t_m!r}, not {prev.t_m + prev.ts!r}"]
    last = records[-1]
    if not last.t_m < duration <= last.t_m + last.ts:
        return [f"{label}: last cycle [{last.t_m!r}, +{last.ts!r}) does not end the run at {duration}"]
    return []


def check_schedule(checked, label, spec, result, duration, residuals, edges) -> float:
    """Tiling and residual bound of one in-process schedule.

    Adds its cycles to checked and its edge times to the edges hash, and
    returns its residual ratio.
    """
    checked.problems += tiling_problems(result.records, duration, label)
    ratio = residual_ratio(spec, residuals, result.stats.fallbacks, result.stats.chain_restarts)
    if ratio > 1.0:
        checked.problems.append(f"{label}: residual bound broken: ratio {ratio!r}")
    checked.cycles += result.stats.cycles
    for phase in PHASES:
        for times in spectrum.edge_times(result.records, phase):
            edges.update(times.tobytes())
    return ratio


def rerun_problems(spec, mod, duration, seed, records, label) -> list[str]:
    """Scheduling the same inputs again must give identical cycles."""
    if scheduler.schedule(spec, mod, duration, seed).records != records:
        return [f"{label}: rerun with seed {seed} gave different cycles"]
    return []


# ---------------------------------------------------------------------------


class CliSimulate:
    """One fresh `python -m notchpwm.cli simulate` per operation."""

    name = "cli_simulate"
    in_process = False
    timeout_s = 60.0
    duration_s = 2.0
    spec = StrategySpec(kind=StrategyKind.SNS_RP, fs=FS_HZ, fx=FX_HZ)
    config = (
        "strategy = sns_rp\n"
        "m_index = 0.7\n"
        f"f1_hz = {F1_HZ!r}\n"
        f"u_dc_v = {U_DC_V!r}\n"
        f"duration_s = {duration_s!r}\n"
        f"fs_hz = {FS_HZ!r}\n"
        f"fx_hz = {FX_HZ!r}\n"
        "seed = {seed}\n"
    )

    def __init__(self, scratch, tracer):
        self.scratch, self.tracer = scratch, tracer
        self.mod = ModulatorConfig(m_index=0.7, f1=F1_HZ, u_dc=U_DC_V)

    def prepare(self, seed):
        work = tempfile.mkdtemp(prefix="cli-", dir=self.scratch)
        config = os.path.join(work, "run.cfg")
        with open(config, "w") as fh:
            fh.write(self.config.format(seed=seed))
        out = os.path.join(work, "out")
        if self.tracer is None:
            cmd = [sys.executable, "-m", "notchpwm.cli", "simulate", "--config", config, "--out", out]
        else:
            tracing = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tracing.py")
            cmd = [sys.executable, tracing, config, out, os.path.join(work, "spans.json")]
        return {"seed": seed, "work": work, "out": out, "cmd": cmd}

    def run(self, op):
        op["spawned"] = perf_counter()
        proc = subprocess.run(op["cmd"], capture_output=True, text=True, timeout=self.timeout_s)
        op["reaped"] = perf_counter()
        return proc

    def check(self, op, proc) -> Checked:
        checked = Checked()
        if proc.returncode != 0:
            checked.problems.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return checked
        if self.tracer is not None:
            with open(os.path.join(op["work"], "spans.json")) as fh:
                traced = json.load(fh)
            # perf_counter is one monotonic clock for every process here, so
            # the child's spans place interpreter start-up and teardown
            spans = traced["spans"]
            first = min(start for _name, start, _end, _parent in spans)
            last = max(end for _name, _start, end, _parent in spans)
            spans += [("process.start", op["spawned"], first, -1), ("process.exit", last, op["reaped"], -1)]
            self.tracer.absorb(spans, traced["counts"], self.tracer.op)
        out = op["out"]
        records = read_cycles(os.path.join(out, "cycles.csv"))
        report = read_report(os.path.join(out, "report.txt"))
        checked.problems += tiling_problems(records, self.duration_s, "cycles.csv")
        checked.problems += rerun_problems(self.spec, self.mod, self.duration_s, op["seed"], records, "cycles.csv")
        residuals = [spectrum.cancellation_residual(records, p, FX_HZ) for p in PHASES]
        fallbacks = [int(report[f"fallbacks_{p}"]) for p in PHASES]
        restarts = [int(report[f"chain_restarts_{p}"]) for p in PHASES]
        ratio = residual_ratio(self.spec, residuals, fallbacks, restarts)
        if ratio > 1.0:
            checked.problems.append(f"residual bound broken: ratio {ratio!r}")
        # the internal RP baseline runs at the same fixed fs, so it tiles
        # the run with the same number of cycles
        checked.cycles = 2 * len(records)
        checked.quality = {
            "notch_depth_db": float(report["max_reduction_db"]),
            "residual_ratio_max": ratio,
        }
        for name in ("cycles.csv", "psd.csv", "report.txt"):
            with open(os.path.join(out, name), "rb") as fh:
                checked.digests[name] = hashlib.sha256(fh.read()).hexdigest()
        return checked

    def cleanup(self, op):
        shutil.rmtree(op["work"], ignore_errors=True)


def read_cycles(path) -> list[CycleRecord]:
    """Cycle records back from cycles.csv; repr floats round-trip exactly."""
    with open(path) as fh:
        rows = fh.read().splitlines()[2:]
    records = []
    for row in rows:
        c = row.split(",")
        records.append(
            CycleRecord(
                m=int(c[0]),
                t_m=float(c[1]),
                ts=float(c[2]),
                sector=int(c[3]),
                duty=tuple(float(v) for v in c[4:7]),
                position=tuple(float(v) for v in c[7:10]),
                k_used=tuple(int(v) if v else None for v in c[10:13]),
                fallback=tuple(v == "1" for v in c[13:16]),
            )
        )
    return records


def read_report(path) -> dict[str, str]:
    with open(path) as fh:
        pairs = (line.split(" = ", 1) for line in fh.read().splitlines()[1:])
        return {key: value for key, value in pairs}


# ---------------------------------------------------------------------------


def _sweep_specs() -> tuple[StrategySpec, ...]:
    lo, hi = BAND_HZ
    specs = [
        StrategySpec(kind=StrategyKind.CSVPWM, fs=FS_HZ),
        StrategySpec(kind=StrategyKind.RP, fs=FS_HZ),
        StrategySpec(kind=StrategyKind.RF, fs_min=lo, fs_max=hi),
    ]
    for method in (CancelMethod.FALL_AFTER_RISE, CancelMethod.RISE_AFTER_FALL):
        specs.append(StrategySpec(kind=StrategyKind.SNS_RP, fs=FS_HZ, fx=FX_HZ, sns_rp_variant=method))
    for variant in SnsRfRpVariant:
        specs.append(
            StrategySpec(kind=StrategyKind.SNS_RF_RP, fs_min=lo, fs_max=hi, fx=FX_HZ, sns_rf_rp_variant=variant)
        )
    for position in PulsePosition:
        for method in (CancelMethod.FALL_AFTER_RISE, CancelMethod.RISE_AFTER_FALL):
            specs.append(
                StrategySpec(
                    kind=StrategyKind.FIXED_POS,
                    fs_min=lo,
                    fs_max=hi,
                    fx=FX_HZ,
                    fixed_position=position,
                    cancel_method=method,
                )
            )
    return tuple(specs)


class Sweep:
    """Every strategy configuration at three modulation indices, sampling-free."""

    name = "sweep"
    in_process = True
    timeout_s = 30.0
    duration_s = 0.5
    specs = _sweep_specs()
    m_indices = (0.3, 0.7, 0.95)
    # 200 bins around fx at the 1 / duration spacing of the run
    grid = FX_HZ + np.arange(-100, 100) / duration_s
    half_band_hz = 100.0
    load = LoadParams(resistance=1.02, inductance=0.00059)

    def __init__(self, scratch, tracer):
        self.mods = [ModulatorConfig(m_index=m, f1=F1_HZ, u_dc=U_DC_V) for m in self.m_indices]
        self.baseline = next(i for i, s in enumerate(self.specs) if s.kind is StrategyKind.RP)

    def prepare(self, seed):
        return seed

    def run(self, seed):
        runs, reports = [], []
        for mod in self.mods:
            psds = []
            for spec in self.specs:
                result = scheduler.schedule(spec, mod, self.duration_s, seed)
                trains = tuple(synthesis.pulse_train(result.records, p) for p in PHASES)
                residuals = [spectrum.cancellation_residual(result.records, p, FX_HZ) for p in PHASES]
                psd = spectrum.analytic_psd(result.records, "a", self.grid)
                breaks, volts = synthesis.voltage_segments(trains, U_DC_V, "a")
                circuit.rl_current(breaks, volts, self.load)
                runs.append((spec, mod, result, residuals, psd))
                psds.append(psd)
            reports += [
                spectrum.notch_report(psd, psds[self.baseline], FX_HZ, self.half_band_hz)
                for spec, psd in zip(self.specs, psds)
                if locked_phases(spec)
            ]
        return runs, reports

    def check(self, seed, out) -> Checked:
        runs, reports = out
        checked = Checked()
        edges, psds = hashlib.sha256(), hashlib.sha256()
        worst = 0.0
        for spec, mod, result, residuals, psd in runs:
            label = f"{spec.kind.value} m={mod.m_index}"
            ratio = check_schedule(checked, label, spec, result, self.duration_s, residuals, edges)
            worst = max(worst, ratio)
            psds.update(psd.values.tobytes())
        spec, mod, result, _residuals, _psd = runs[seed % len(runs)]
        checked.problems += rerun_problems(spec, mod, self.duration_s, seed, result.records, spec.kind.value)
        checked.quality = {
            "notch_depth_db": min(r.max_reduction_db for r in reports),
            "residual_ratio_max": worst,
        }
        checked.digests = {"edges": edges.hexdigest(), "psd": psds.hexdigest()}
        return checked

    def cleanup(self, seed):
        pass


WORKLOADS = {w.name: w for w in (CliSimulate, Sweep)}
