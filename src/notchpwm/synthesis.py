"""Turn cycle records into switch waveforms and bridge voltages.

A schedule fixes, per phase leg, an on-interval inside each switching
cycle.  This module builds the resulting two-level switch functions as
edge lists, samples them on uniform grids (zero-order hold), and maps
switch states to phase and line voltages of an ideal two-level bridge:

    u_A = u_dc * (2 x_A - x_B - x_C) / 3        (cyclically for B, C)
    u_AB = u_dc * (x_A - x_B)

Exact piecewise-constant voltage segments are also exposed so the load
model can integrate without sampling error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .scheduler import PHASES, CycleRecord

# adjacent fall/rise pairs closer than this are treated as one continuous
# on-interval; well above edge-time roundoff, well below one sample period
_MERGE_TOL = 1e-12

# uniform sampling must resolve the shortest cycle comfortably
MIN_SAMPLES_PER_CYCLE = 100.0

_REL_TOL = 1e-9


class MalformedRecordsError(ValueError):
    """Cycle records are not contiguous or hold out-of-range values."""


class RateTooLowError(ValueError):
    """Sample rate cannot resolve the switching detail."""


@dataclass(frozen=True)
class PulseTrain:
    """Two-level switch function of one phase leg as an edge list.

    times[i] is an edge instant and levels[i] the level that holds from
    times[i] (inclusive) until the next edge; the level before the first
    edge is 0.  Edges strictly increase.
    """

    phase: str
    times: np.ndarray
    levels: np.ndarray
    duration: float
    max_switching_freq: float


@dataclass(frozen=True)
class SampledWaveform:
    """Uniformly sampled real waveform; sample k sits at start_time + k / rate."""

    values: np.ndarray
    rate: float
    start_time: float = 0.0

    @property
    def times(self) -> np.ndarray:
        return self.start_time + np.arange(self.values.size) / self.rate


def _phase_index(phase: str) -> int:
    try:
        return PHASES.index(phase)
    except ValueError:
        raise ValueError(f"phase must be one of {PHASES}, got {phase!r}") from None


def pulse_train(records: Sequence[CycleRecord], phase: str) -> PulseTrain:
    """Build one phase leg's switch function from a schedule.

    Validates that cycles tile the time axis without gaps or overlaps and
    that duties and positions are in range.  A pulse ending exactly where
    the next one starts is merged into a single on-interval.
    """
    p = _phase_index(phase)
    intervals: list[tuple[float, float]] = []
    prev_end: float | None = None
    min_ts = float("inf")

    for rec in records:
        if rec.ts <= 0.0:
            raise MalformedRecordsError(f"cycle {rec.m}: nonpositive period {rec.ts}")
        if prev_end is not None and abs(rec.t_m - prev_end) > _REL_TOL * rec.ts:
            raise MalformedRecordsError(
                f"cycle {rec.m}: starts at {rec.t_m}, previous ended at {prev_end}"
            )
        prev_end = rec.t_m + rec.ts
        min_ts = min(min_ts, rec.ts)

        d = rec.duty[p]
        r = rec.position[p]
        if not 0.0 <= d <= 1.0:
            raise MalformedRecordsError(f"cycle {rec.m}: duty {d} outside [0, 1]")
        if r < -_REL_TOL or r > 1.0 - d + _REL_TOL:
            raise MalformedRecordsError(
                f"cycle {rec.m}: position {r} outside [0, {1.0 - d}]"
            )
        if d <= 0.0:
            continue
        a = rec.t_m + r * rec.ts
        b = rec.t_m + (r + d) * rec.ts
        if b <= a:
            continue
        if intervals and a <= intervals[-1][1] + _MERGE_TOL:
            last_a, last_b = intervals[-1]
            intervals[-1] = (last_a, max(last_b, b))
        else:
            intervals.append((a, b))

    if not records:
        return PulseTrain(
            phase=phase,
            times=np.empty(0),
            levels=np.empty(0),
            duration=0.0,
            max_switching_freq=0.0,
        )

    times = np.empty(2 * len(intervals))
    levels = np.empty(2 * len(intervals))
    for i, (a, b) in enumerate(intervals):
        times[2 * i] = a
        times[2 * i + 1] = b
        levels[2 * i] = 1.0
        levels[2 * i + 1] = 0.0

    return PulseTrain(
        phase=phase,
        times=times,
        levels=levels,
        duration=prev_end,
        max_switching_freq=1.0 / min_ts,
    )


def sample(train: PulseTrain, rate: float) -> SampledWaveform:
    """Zero-order-hold samples of a pulse train on a uniform grid.

    Samples lie at k / rate for k = 0 .. floor(duration * rate) - 1.  An
    edge falling exactly on a sample instant takes effect at that sample.
    """
    if rate <= 0.0:
        raise ValueError(f"sample rate must be positive, got {rate}")
    if rate < MIN_SAMPLES_PER_CYCLE * train.max_switching_freq:
        raise RateTooLowError(
            f"rate {rate:g} Hz gives fewer than {MIN_SAMPLES_PER_CYCLE:g} samples "
            f"per cycle at {train.max_switching_freq:g} Hz switching"
        )
    n = int(round(train.duration * rate))
    # first sample at or after each edge; k / rate is the float the sample
    # grid holds, so the product's rounding is corrected against it
    first = np.ceil(train.times * rate)
    first -= (first - 1.0) / rate >= train.times
    first += first / rate < train.times
    # sample k holds the level of the last edge at or before it
    edges_seen = np.bincount(
        np.clip(first, 0, n).astype(np.intp), minlength=n + 1
    )[:n].cumsum()
    levels_ext = np.concatenate(([0.0], train.levels))
    return SampledWaveform(values=levels_ext[edges_seen], rate=rate)


def phase_voltages(
    x_a: np.ndarray, x_b: np.ndarray, x_c: np.ndarray, u_dc: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Load phase voltages of an ideal two-level bridge (isolated star point)."""
    u_a = u_dc * (2.0 * x_a - x_b - x_c) / 3.0
    u_b = u_dc * (2.0 * x_b - x_c - x_a) / 3.0
    u_c = u_dc * (2.0 * x_c - x_a - x_b) / 3.0
    return u_a, u_b, u_c


def line_voltage(x_a: np.ndarray, x_b: np.ndarray, u_dc: float) -> np.ndarray:
    """Line-to-line voltage between two legs."""
    return u_dc * (np.asarray(x_a) - np.asarray(x_b))


def voltage_segments(
    trains: Sequence[PulseTrain], u_dc: float, phase: str = "a"
) -> tuple[np.ndarray, np.ndarray]:
    """Exact piecewise-constant phase voltage across all switching events.

    Returns (breaks, values): breaks are the M + 1 segment boundaries
    starting at 0 and ending at the schedule end; values[j] is the phase
    voltage on [breaks[j], breaks[j + 1]).
    """
    if len(trains) != 3:
        raise ValueError(f"need the three phase trains, got {len(trains)}")
    p = _phase_index(phase)
    duration = max(tr.duration for tr in trains)
    edges = np.concatenate([tr.times for tr in trains])
    pts = np.unique(np.concatenate((edges, [0.0, duration])))
    pts = pts[(pts >= 0.0) & (pts <= duration)]
    breaks = pts
    starts = breaks[:-1]

    states = []
    for tr in trains:
        idx = np.searchsorted(tr.times, starts, side="right")
        levels_ext = np.concatenate(([0.0], tr.levels))
        states.append(levels_ext[idx])
    q, r2 = (p + 1) % 3, (p + 2) % 3
    values = u_dc * (2.0 * states[p] - states[q] - states[r2]) / 3.0
    return breaks, values
