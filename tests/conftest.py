"""Shared builders for the test suite.

Synthetic single-phase schedules exercising the lock recursions outside the
full scheduler; `SeededRng` delegating to `random.Random`, the oracle of its
copied draw formulas; the per-sector duty laws and clamp as separate
steps, the oracle of `duty_cycles`; brute-force integer scans used as
oracles for the closed-form k ranges; a Schedule's records built from
whole-slice column lists, the oracle of its chunked record views;
record-by-record versions of `edge_times` and `pulse_train` used as
oracles; earlier whole-array versions of `sample`,
`welch_psd`, the edge-phasor sum and the CSV column writer, the indexed
and whole-list knot loops of `rl_current` and its one-expression sampled
branch, and
`voltage_segments`' breaks by its former `np.unique` call, used as exact
oracles; and Hypothesis strategies for well-formed and malformed schedules.
"""

import math
import random
from dataclasses import replace

import numpy as np
from hypothesis import strategies as st

from notchpwm import (
    CancelMethod,
    CycleRecord,
    MalformedRecordsError,
    PulseTrain,
    SampledWaveform,
    SeededRng,
    SnsRfRpVariant,
    fixed_position_next_freq,
    k_range_sns_rf_rp_freq,
    k_range_sns_rf_rp_pos,
    k_range_sns_rp,
    line_voltage,
    next_freq_sns_rf_rp,
    next_position_sns_rf_rp,
    pulse_train,
    rl_current,
    sample,
    sns_rp_position,
    welch_psd,
)
from notchpwm.modulator import SECTOR_SPAN
from notchpwm.scheduler import _BOUND_TOL
from notchpwm.spectrum import _periodic_window, power_to_db
from notchpwm.synthesis import _MERGE_TOL, _REL_TOL

K_SCAN = range(-100, 101)


class StdlibRng:
    """Oracle: `SeededRng` delegating each draw to `random.Random` itself."""

    def __init__(self, seed):
        self._rng = random.Random(int(seed))

    def uniform(self, lo, hi):
        if hi <= lo:
            return lo
        return self._rng.uniform(lo, hi)

    def randint(self, lo, hi):
        if hi <= lo:
            return lo
        return self._rng.randint(lo, hi)


def rec(m, t, ts, d, r):
    """Single-phase cycle record: phase a active, b and c idle."""
    return CycleRecord(
        m=m,
        t_m=t,
        ts=ts,
        sector=1,
        duty=(d, 0.0, 0.0),
        position=(r, 0.5, 0.5),
        k_used=(None, None, None),
        fallback=(False, False, False),
    )


def chain_sns_rp(variant, n, seed, fx=7000.0, fs=2500.0):
    """n-cycle locked chain at fixed switching frequency, never broken.

    Duties are redrawn until the lock range is nonempty, so every cycle
    extends the chain; positions then follow the lock recursion.
    """
    rng = SeededRng(seed)
    ts = 1.0 / fs
    d = rng.uniform(0.1, 0.9)
    r = rng.uniform(0.0, 1.0 - d)
    records = [rec(1, 0.0, ts, d, r)]
    t = ts
    for m in range(2, n + 1):
        while True:
            d_next = rng.uniform(0.1, 0.9)
            kr = k_range_sns_rp(fx, fs, r, d_next, variant=variant, d_prev=d)
            if kr is not None:
                break
        r = sns_rp_position(fx, fs, r, d, d_next, variant, rng.randint(*kr))
        d = d_next
        records.append(rec(m, t, ts, d, r))
        t += ts
    return records


def chain_rf_rp(variant, n, seed, fx=7000.0, fs_min=1500.0, fs_max=3500.0):
    """n-cycle locked chain over a switching-frequency band, never broken."""
    rng = SeededRng(seed)
    fs = rng.uniform(fs_min, fs_max)
    d = rng.uniform(0.1, 0.9)
    r = rng.uniform(0.0, 1.0 - d)
    records = [rec(1, 0.0, 1.0 / fs, d, r)]
    t = 1.0 / fs
    for m in range(2, n + 1):
        if variant is SnsRfRpVariant.POSITION_FROM_FREQ:
            while True:
                fs_next = rng.uniform(fs_min, fs_max)
                d_next = rng.uniform(0.1, 0.9)
                kr = k_range_sns_rf_rp_pos(fx, fs, fs_next, r, d_next)
                if kr is not None:
                    break
            k = rng.randint(*kr)
            r = next_position_sns_rf_rp(fx, fs, fs_next, r, d_next, k)
            assert -1e-9 <= r <= 1.0 - d_next + 1e-9
        else:
            while True:
                d_next = rng.uniform(0.1, 0.9)
                r_next = rng.uniform(0.0, 1.0 - d_next)
                kr = k_range_sns_rf_rp_freq(fx, fs, r, r_next, d_next, fs_min, fs_max)
                if kr is not None:
                    break
            k = rng.randint(*kr)
            fs_next = next_freq_sns_rf_rp(fx, fs, r, r_next, d_next, k)
            assert fs_min * (1.0 - 1e-9) <= fs_next <= fs_max * (1.0 + 1e-9)
            r = r_next
        fs = fs_next
        d = d_next
        records.append(rec(m, t, 1.0 / fs, d, r))
        t += 1.0 / fs
    return records


def chain_rp(n, seed, ts=4e-4):
    """n-cycle random-position schedule (no locking) at fixed frequency."""
    rng = SeededRng(seed)
    records = []
    t = 0.0
    for m in range(1, n + 1):
        d = rng.uniform(0.1, 0.9)
        r = rng.uniform(0.0, 1.0 - d)
        records.append(rec(m, t, ts, d, r))
        t += ts
    return records


def _within(value, lo, hi, slack):
    """lo <= value <= hi with each bound moved out by slack (in, if negative),
    absolute up to a bound of 1 and relative above it."""
    return lo - slack * max(1.0, abs(lo)) <= value <= hi + slack * max(1.0, abs(hi))


def _k_span(valid):
    return (valid[0], valid[-1]) if valid else None


def brute_k_sns_rp(
    fx, fs, r_prev, d_next, variant=CancelMethod.FALL_AFTER_RISE, d_prev=0.0, slack=0.0
):
    """Integer scan oracle for the fixed-frequency lock range.

    The position recursion is linear and increasing in k, so the valid
    set is contiguous and (min, max) characterizes it.  Like every scan
    below, a nonzero slack widens (or, negative, narrows) the admissible
    range as `_within` does.
    """
    return _k_span(
        [
            k
            for k in K_SCAN
            if _within(
                sns_rp_position(fx, fs, r_prev, d_prev, d_next, variant, k),
                0.0,
                1.0 - d_next,
                slack,
            )
        ]
    )


def brute_k_freq(fx, fs_prev, r_prev, r_next, d_next, fs_min, fs_max, slack=0.0):
    """Integer scan oracle for the frequency-direction lock range."""
    valid = []
    for k in K_SCAN:
        den = k / fx + r_prev / fs_prev - 1.0 / fs_prev
        if den == 0.0:
            continue
        if _within((r_next + d_next) / den, fs_min, fs_max, slack):
            valid.append(k)
    return _k_span(valid)


def brute_k_pos(fx, fs_prev, fs_next, r_prev, d_next, slack=0.0):
    """Integer scan oracle for the position-direction lock range."""
    ratio = fs_next / fs_prev
    return _k_span(
        [
            k
            for k in K_SCAN
            if _within(
                (k / fx) * fs_next + ratio * r_prev - d_next - ratio, 0.0, 1.0 - d_next, slack
            )
        ]
    )


def brute_k_fixed(position, method, fx, fs_prev, d_prev, d_next, fs_min, fs_max, slack=0.0):
    """Integer scan oracle for the fixed-position frequency lock range."""
    valid = []
    for k in K_SCAN:
        try:
            fs_next = fixed_position_next_freq(position, method, fx, fs_prev, d_prev, d_next, k)
        except ZeroDivisionError:
            continue
        if _within(fs_next, fs_min, fs_max, slack):
            valid.append(k)
    return _k_span(valid)


def assert_k_range_matches_scan(got, scan, roundoff=_BOUND_TOL):
    """A closed-form k range holds every k the scan finds inside its bounds
    by more than roundoff and none it finds outside them by more.

    scan(slack) is a brute-force scan of the same law with that slack; the
    default roundoff is the lock step's, which snaps a solved value that
    far out of its range back onto it.
    """
    inner, outer = scan(-roundoff), scan(roundoff)
    if inner is not None:
        assert got is not None and got[0] <= inner[0] and inner[1] <= got[1], (got, inner)
    if got is not None:
        assert outer is not None and outer[0] <= got[0] and got[1] <= outer[1], (got, outer)


def whole_slice_records(cycles, rows):
    """Oracle: the records of a Schedule's rows, every column listed at once."""
    ms = range(*rows.indices(len(cycles)))
    return [
        CycleRecord(
            m=m + 1,
            t_m=t_m,
            ts=ts,
            sector=sector,
            duty=tuple(duty),
            position=tuple(position),
            k_used=tuple(None if k < 0 else k for k in ks),
            fallback=tuple(fallback),
        )
        for m, t_m, ts, sector, duty, position, ks, fallback in zip(
            ms, *(col[rows].tolist() for col in cycles._arrays())
        )
    ]


def line_psd(records, u_dc, rate=1e6, segment_len=65536):
    """Welch PSD of the a-b line voltage synthesized from a schedule."""
    trains = [pulse_train(records, p) for p in ("a", "b")]
    x_a = sample(trains[0], rate)
    x_b = sample(trains[1], rate)
    n = min(x_a.values.size, x_b.values.size)
    u_ab = line_voltage(x_a.values[:n], x_b.values[:n], u_dc)
    return welch_psd(SampledWaveform(values=u_ab, rate=rate), segment_len)


# ---------------------------------------------------------------------------
# record-loop oracles


def loop_edge_times(records, phase):
    """Oracle: rising and falling edge instants, skipping empty cycles."""
    p = "abc".index(phase)
    rises = []
    falls = []
    for rec in records:
        d = rec.duty[p]
        if d <= 0.0:
            continue
        r = rec.position[p]
        rises.append(rec.t_m + r * rec.ts)
        falls.append(rec.t_m + (r + d) * rec.ts)
    return np.asarray(rises, dtype=float), np.asarray(falls, dtype=float)


def loop_pulse_train(records, phase):
    """Oracle: one phase's switch function, checked and merged record by record."""
    p = "abc".index(phase)
    intervals = []
    prev_end = None
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
        return PulseTrain(np.empty(0), 0.0, 0.0)
    times = np.empty(2 * len(intervals))
    for i, (a, b) in enumerate(intervals):
        times[2 * i] = a
        times[2 * i + 1] = b
    return PulseTrain(times, prev_end, 1.0 / min_ts)


# ---------------------------------------------------------------------------
# duty law oracle


def clamped_sector_duties(m, theta, sector):
    """Oracle: a sector's duty laws at theta, snapped into [0, 1].

    The per-sector laws and the clamp as separate steps, the form
    `duty_cycles` had before it evaluated them in one frame.
    """
    if sector <= 2:
        raw = m * math.sin(theta + SECTOR_SPAN), m * math.sin(theta), 0.0
    elif sector <= 4:
        raw = 0.0, m * math.sin(theta - SECTOR_SPAN), -m * math.sin(theta + SECTOR_SPAN)
    else:
        raw = -m * math.sin(theta - SECTOR_SPAN), 0.0, -m * math.sin(theta)
    return tuple(0.0 if d < 0.0 else 1.0 if d > 1.0 else d for d in raw)


# ---------------------------------------------------------------------------
# raster and writer oracles


def bincount_sample(train, rate):
    """Oracle: `sample` by counting the edges at or before each sample.

    Edges alternate on and off, so a sample is on after an odd count.
    """
    n = int(round(train.duration * rate))
    first = np.ceil(train.times * rate)
    first -= (first - 1.0) / rate >= train.times
    first += first / rate < train.times
    edges_seen = np.bincount(
        np.clip(first, 0, n).astype(np.intp), minlength=n + 1
    )[:n].cumsum()
    return (edges_seen % 2).astype(float)


def transpose_welch(waveform, segment_len, overlap=0.5, window="hann", detrend="constant"):
    """Oracle: `welch_psd` values from a (segment, bin) power table.

    The table is averaged through a transposed copy, which lays each bin's
    powers out contiguously as the pairwise mean needs them.
    """
    n = waveform.values.size
    noverlap = int(overlap * segment_len)
    hop = segment_len - noverlap
    win = _periodic_window(window, segment_len)
    win = win * (1.0 / np.sqrt(np.cumsum(win**2)[-1] / (1.0 / waveform.rate)))
    n_seg = (n - noverlap) // hop
    power = np.empty((n_seg, segment_len // 2 + 1))
    for s in range(n_seg):
        seg = waveform.values[s * hop : s * hop + segment_len]
        if detrend:
            seg = seg - seg.mean()
        spec = np.fft.rfft(seg * win)
        np.add(spec.real**2, spec.imag**2, out=power[s])
    power[:, 1:-1] *= 2.0
    return power_to_db(power.T.copy().mean(axis=-1))


def whole_grid_edge_sum(rises, falls, freqs):
    """Oracle: the edge-phasor sum of every bin from one fresh temporary."""
    f = freqs[:, None]
    s_rise = np.exp(-2j * np.pi * f * rises[None, :]).sum(axis=1)
    s_fall = np.exp(-2j * np.pi * f * falls[None, :]).sum(axis=1)
    return s_rise - s_fall


def indexed_rl_knots(times, voltages, load):
    """Oracle: `rl_current`'s boundary currents, indexing numpy scalars."""
    steady = voltages / load.resistance
    decay = np.exp(-np.diff(times) / load.tau)
    knots = np.empty(times.size)
    knots[0] = load.initial_current
    i = load.initial_current
    for j in range(voltages.size):
        i = steady[j] + (i - steady[j]) * decay[j]
        knots[j + 1] = i
    return knots


def whole_list_rl_knots(times, voltages, load):
    """Oracle: `rl_current`'s boundary currents, recurred over one list of
    every segment's Python floats and returned from one list of them all."""
    steady = voltages / load.resistance
    decay = np.exp(-np.diff(times) / load.tau)
    i = load.initial_current
    knots = [i]
    for u, g in zip(steady.tolist(), decay.tolist()):
        i = u + (i - u) * g
        knots.append(i)
    return np.array(knots, dtype=float)


def expression_rl_current(times, voltages, load, rate):
    """Oracle: `rl_current`'s values on its uniform grid in one expression.

    The knots come from `rl_current` itself; the grid is built whole,
    filtered to the instants in [times[0], times[-1]), and each sample is
    formed by the expression the sampled branch evaluated before it used
    buffers.
    """
    knots = rl_current(times, voltages, load)
    steady = voltages / load.resistance
    t = np.arange(np.floor(times[0] * rate) - 1, np.ceil(times[-1] * rate) + 1) / rate
    t = t[(times[0] <= t) & (t < times[-1])]
    seg = np.clip(np.searchsorted(times, t, side="right") - 1, 0, voltages.size - 1)
    return steady[seg] + (knots[seg] - steady[seg]) * np.exp(-(t - times[seg]) / load.tau)


def unique_voltage_breaks(trains):
    """Oracle: `voltage_segments`' breaks by its former `np.unique` call."""
    duration = max(tr.duration for tr in trains)
    edges = np.concatenate([tr.times for tr in trains])
    pts = np.unique(np.concatenate((edges, [0.0, duration])))
    return pts[(pts >= 0.0) & (pts <= duration)]


def repr_columns(header, columns):
    """Oracle: CSV text of float columns with one `repr` call per cell."""
    rows = zip(*(map(repr, np.asarray(col, dtype=float).tolist()) for col in columns))
    body = "\n".join(map(",".join, rows))
    return header + body + "\n" if body else header


def same_bits(a, b):
    """True when two float64 arrays hold the same bit patterns."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# ---------------------------------------------------------------------------
# schedules for property tests

PERIODS = (4e-4, 1.0 / 2500.0, 1.0 / 1500.0, 1.0 / 3500.0, 1e-3 / 3.0)


def _leg(d, where):
    """(duty, position) of one leg of a cycle.

    where 0..3 puts the pulse at the front of the cycle, one tolerance
    before it, at the back or one tolerance past it; a float where puts it
    at that fraction of the free span.
    """
    if isinstance(where, float):
        return d, where * (1.0 - d)
    return d, (0.0, -_REL_TOL, 1.0 - d, 1.0 - d + _REL_TOL)[where]


# zero of either sign, tiny, full or drawn duties
_duties = st.sampled_from((0.0, -0.0, 1.0, 5e-324, 1e-300, 1e-15, _REL_TOL)) | st.floats(0.0, 1.0)
_legs = st.builds(_leg, _duties, st.integers(0, 3) | st.floats(0.0, 1.0))
_periods = st.sampled_from(PERIODS) | st.floats(1e-5, 1e-2)


def _tiled(t, cycles):
    """Records of (ts, leg_a, leg_b, leg_c) cycles laid end to end from t."""
    records = []
    for m, (ts, *legs) in enumerate(cycles, start=1):
        records.append(
            CycleRecord(
                m=m,
                t_m=t,
                ts=ts,
                sector=1,
                duty=tuple(d for d, _ in legs),
                position=tuple(r for _, r in legs),
                k_used=(None, None, None),
                fallback=(False, False, False),
            )
        )
        t = t + ts
    return records


def schedules(max_cycles=12):
    """Contiguous cycles of mixed periods, tiled as `schedule` tiles them."""
    cycles = st.tuples(_periods, _legs, _legs, _legs)
    starts = st.sampled_from((0.0, -0.0, 0.5, 123.456))
    return st.builds(_tiled, starts, st.lists(cycles, min_size=1, max_size=max_cycles))


@st.composite
def bookkept_schedules(draw):
    """`schedules` with drawn sectors, lock integers (or None) and fallback flags."""
    return [
        replace(
            rec,
            sector=draw(st.integers(1, 6)),
            k_used=draw(st.tuples(*3 * [st.none() | st.integers(0, 2**31 - 1)])),
            fallback=draw(st.tuples(*3 * [st.booleans()])),
        )
        for rec in draw(schedules())
    ]


def _faults(rec, p):
    """rec broken each way a cycle can be, at leg p where a leg is broken.

    The faults are a nonpositive period, a gap or an overlap with the
    previous cycle, a duty outside [0, 1], and a pulse starting before or
    ending after the cycle.
    """

    def leg(field, value):
        values = list(getattr(rec, field))
        values[p] = value
        return replace(rec, **{field: tuple(values)})

    return (
        replace(rec, ts=0.0),
        replace(rec, ts=-rec.ts),
        replace(rec, t_m=rec.t_m + 2.0 * _REL_TOL * rec.ts),
        replace(rec, t_m=rec.t_m - 0.5 * rec.ts),
        leg("duty", -0.1),
        leg("duty", 1.0 + 1e-12),
        leg("position", -2.0 * _REL_TOL),
        leg("position", 1.0 - rec.duty[p] + 2.0 * _REL_TOL),
    )


@st.composite
def malformed_schedules(draw):
    """Schedules with one to three cycles broken as `_faults` breaks them."""
    records = draw(schedules())
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(records) - 1))
        records[i] = draw(st.sampled_from(_faults(records[i], draw(st.integers(0, 2)))))
    return records
