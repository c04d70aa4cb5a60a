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

from .scheduler import PHASES, CycleRecord, Schedule

# adjacent fall/rise pairs closer than this are treated as one continuous
# on-interval; well above edge-time roundoff, well below one sample period
_MERGE_TOL = 1e-12

# uniform sampling must resolve the shortest cycle comfortably
MIN_SAMPLES_PER_CYCLE = 100.0

_REL_TOL = 1e-9

_FILL_BLOCK = 1 << 15  # samples that `sample` fills at a time

_MAX_SAMPLES = np.iinfo(np.intp).max  # the longest array numpy can shape


class MalformedRecordsError(ValueError):
    """Cycle records are not contiguous or hold out-of-range values."""


class RateTooLowError(ValueError):
    """Sample rate cannot resolve the switching detail."""


@dataclass(frozen=True)
class PulseTrain:
    """Two-level switch function of one phase leg as an edge list.

    times holds the strictly increasing edge instants, which alternate on
    and off: the level is 0 before times[0], 1 from times[0] (inclusive)
    until times[1], 0 from times[1], and so on.
    """

    times: np.ndarray
    duration: float
    max_switching_freq: float


@dataclass(frozen=True)
class SampledWaveform:
    """Uniformly sampled real waveform; sample k sits at k / rate."""

    values: np.ndarray
    rate: float


def _phase_index(phase: str) -> int:
    try:
        return PHASES.index(phase)
    except ValueError:
        raise ValueError(f"phase must be one of {PHASES}, got {phase!r}") from None


def _columns(records: Sequence[CycleRecord], p: int) -> tuple[np.ndarray, ...]:
    """t_m, ts, duty[p] and position[p] of every cycle as float64 arrays.

    A Schedule's columns are read as they are; any other record sequence
    is made into a Schedule first.
    """
    cycles = Schedule.from_records(records)
    return cycles.t_m, cycles.ts, cycles.duty[:, p], cycles.position[:, p]


def _edges(t_m, ts, duty, position) -> tuple[np.ndarray, np.ndarray]:
    """Rise and fall instants of the cycles with a positive duty."""
    on = duty > 0.0
    t_m, ts, r = t_m[on], ts[on], position[on]
    return t_m + r * ts, t_m + (r + duty[on]) * ts


def edge_times(
    records: Sequence[CycleRecord], phase: str
) -> tuple[np.ndarray, np.ndarray]:
    """Rising and falling edge instants of one phase, skipping empty cycles."""
    return _edges(*_columns(records, _phase_index(phase)))


def _check_records(t_m, ts, duty, position) -> None:
    """Raise MalformedRecordsError for the first bad cycle, at its first failed check."""
    with np.errstate(invalid="ignore", over="ignore"):
        ends = t_m + ts
        gap = np.abs(t_m[1:] - ends[:-1]) > _REL_TOL * ts[1:]
        in_cycle = (position >= -_REL_TOL) & (position <= 1.0 - duty + _REL_TOL)
        # the range checks are written so that NaN fails them
        checks = (
            (ts <= 0.0, "nonpositive period {ts}"),
            (~np.isfinite(ends), "start {t_m} plus period {ts} is not finite"),
            (np.r_[False, gap], "starts at {t_m}, previous ended at {prev_end}"),
            (~((duty >= 0.0) & (duty <= 1.0)), "duty {d} outside [0, 1]"),
            (~in_cycle, "position {r} outside [0, {span}]"),
        )
    failed = np.array([mask for mask, _ in checks])
    cycles = np.flatnonzero(failed.any(axis=0))
    if cycles.size:
        i = cycles[0]  # the row of cycle i + 1
        t, s, d, r = (float(column[i]) for column in (t_m, ts, duty, position))
        why = checks[np.argmax(failed[:, i])][1].format(
            t_m=t, ts=s, prev_end=float(ends[i - 1]), d=d, r=r, span=1.0 - d
        )
        raise MalformedRecordsError(f"cycle {i + 1}: {why}")


def pulse_train(records: Sequence[CycleRecord], phase: str) -> PulseTrain:
    """Build one phase leg's switch function from a schedule.

    Validates that cycles tile the time axis without gaps or overlaps,
    that times are finite and that duties and positions are in range.  A
    pulse starting where an earlier one ends joins its on-interval.
    """
    p = _phase_index(phase)
    if not records:
        return PulseTrain(np.empty(0), 0.0, 0.0)
    t_m, ts, duty, position = _columns(records, p)
    _check_records(t_m, ts, duty, position)
    rises, falls = _edges(t_m, ts, duty, position)
    a, b = rises[falls > rises], falls[falls > rises]
    # a pulse opens a new on-interval only past the latest end so far
    run_end = np.maximum.accumulate(b)
    opens = np.flatnonzero(a > np.r_[-np.inf, run_end[:-1]] + _MERGE_TOL)
    ends = np.append(run_end[opens[1:] - 1], run_end[-1:])
    return PulseTrain(
        times=np.column_stack((a[opens], ends)).ravel(),
        duration=float(t_m[-1] + ts[-1]),
        max_switching_freq=1.0 / float(ts.min()),
    )


def _grid_ceil(t: np.ndarray, rate: float) -> np.ndarray:
    """Least k with k / rate >= t, for each finite instant t, as floats.

    k / rate is the float the grid holds, so the rounding of t * rate is
    corrected against it.  Raises ValueError, naming the instants and the
    rate, where t * rate overflows.
    """
    with np.errstate(over="ignore"):
        k = np.ceil(t * rate)
    if np.isinf(k).any():
        raise ValueError(f"instants {t[np.isinf(k)].tolist()} s at {rate:g} Hz overflow the grid")
    k -= (k - 1.0) / rate >= t
    k += k / rate < t
    return k


def sample(
    train: PulseTrain, rate: float, *, out: np.ndarray | None = None
) -> SampledWaveform:
    """Zero-order-hold samples of a pulse train on a uniform grid.

    Samples lie at k / rate for k = 0 .. n - 1, where n = round(duration *
    rate) is the nearest integer (ties to even).  An edge falling exactly
    on a sample instant takes effect at that sample, so sample k is 1 when
    an odd number of edges lie at or before k / rate.  Raises ValueError if
    the rate is not positive and finite; else naming the first edge that
    does not follow its predecessor, since the edges must strictly
    increase, or else the first edge that is not finite (a lone NaN edge
    has no predecessor to fail against); else, naming duration and rate,
    if duration * rate is not a sample count an array can have; else if
    an edge times rate overflows.

    With `out` (1-D C-contiguous float64, n or more long) `values` is out[:n],
    out[n:] is untouched, and the next sample into `out` overwrites `values`.
    """
    if not 0.0 < rate < np.inf:
        raise ValueError(f"rate must be positive and finite, got {rate}")
    if rate < MIN_SAMPLES_PER_CYCLE * train.max_switching_freq:
        raise RateTooLowError(
            f"rate {rate:g} Hz gives fewer than {MIN_SAMPLES_PER_CYCLE:g} samples "
            f"per cycle at {train.max_switching_freq:g} Hz switching"
        )
    times = train.times
    unordered = np.flatnonzero(~(times[1:] > times[:-1]))
    if unordered.size:
        i = int(unordered[0]) + 1
        raise ValueError(
            f"edges must strictly increase: edge {i} at {float(times[i])!r} s "
            f"does not follow edge {i - 1} at {float(times[i - 1])!r} s"
        )
    infinite = np.flatnonzero(~np.isfinite(times))
    if infinite.size:
        i = int(infinite[0])
        raise ValueError(f"edge {i} at {float(times[i])!r} s is not finite")
    samples = train.duration * rate
    if not 0.0 <= samples <= _MAX_SAMPLES:
        raise ValueError(
            f"duration {train.duration:g} s at rate {rate:g} Hz gives {samples:g} "
            f"samples, not a count from 0 to {_MAX_SAMPLES}"
        )
    n = int(round(samples))
    values = np.empty(n) if out is None else out[:n]
    fits = values.shape == (n,) and values.dtype == np.float64
    if not (fits and values.flags.c_contiguous):
        raise ValueError(f"out must be 1-D C-contiguous float64 of at least {n} values")
    first = _grid_ceil(times, rate)  # first sample at or after each edge
    # level j holds from sample starts[j] up to the next level's start, or
    # n: from the first sample at or after edge j; ordered edges keep
    # starts nondecreasing
    starts = np.concatenate(([0], np.clip(first, 0, n).astype(np.intp)))
    del first
    # a block of samples at a time caps the repeated levels' temporary,
    # however long a level holds.  Each block start is cut into the level
    # runs, after the levels starting at or before it and with the level
    # in force there, so a block's runs are one slice of `runs`
    block_starts = np.arange(0, n, _FILL_BLOCK)
    at = np.searchsorted(starts, block_starts, side="right")
    levels = np.resize([0.0, 1.0], times.size + 1)  # 0, then the level after each edge
    levels = np.insert(levels, at, levels[at - 1])
    runs = np.diff(np.insert(starts, at, block_starts), append=n)
    del starts
    cuts = (at + np.arange(at.size)).tolist() + [runs.size]
    for lo, p, q in zip(block_starts.tolist(), cuts, cuts[1:]):
        values[lo : lo + _FILL_BLOCK] = np.repeat(levels[p:q], runs[p:q])
    return SampledWaveform(values=values, rate=rate)


def line_voltage(
    x_a: np.ndarray, x_b: np.ndarray, u_dc: float, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Line-to-line voltage between two legs.

    With `out` (which may be x_a or x_b itself) the result is written
    there and no other array is allocated.
    """
    out = np.subtract(x_a, x_b, out=out, dtype=float)
    # u_dc first, as in u_dc * (x_a - x_b): a NaN product keeps u_dc's NaN
    return np.multiply(u_dc, out, out=out)


def voltage_segments(
    trains: Sequence[PulseTrain], u_dc: float, phase: str = "a"
) -> tuple[np.ndarray, np.ndarray]:
    """Exact piecewise-constant phase voltage across all switching events.

    Returns (breaks, values): breaks are the M + 1 segment boundaries
    starting at 0 and ending at the schedule end; values[j] is the phase
    voltage on [breaks[j], breaks[j + 1]).  A leg is on in a segment when
    an odd number of its edges lie at or before the segment's start.
    """
    if len(trains) != 3:
        raise ValueError(f"need the three phase trains, got {len(trains)}")
    p = _phase_index(phase)
    duration = max(tr.duration for tr in trains)
    # np.unique's sort path, the one it takes for float64, spelled out:
    # np.unique first asks numpy.ma whether its input is masked, which
    # imports numpy.ma (about 1.25 MiB and 14 ms) into every run
    pts = np.sort(np.concatenate([tr.times for tr in trains] + [[0.0, duration]]))
    pts = pts[np.r_[True, pts[1:] != pts[:-1]]]
    breaks = pts[(pts >= 0.0) & (pts <= duration)]
    starts = breaks[:-1]

    states = [
        (np.searchsorted(tr.times, starts, side="right") & 1).astype(float)
        for tr in trains
    ]
    q, r2 = (p + 1) % 3, (p + 2) % 3
    values = u_dc * (2.0 * states[p] - states[q] - states[r2]) / 3.0
    return breaks, values
