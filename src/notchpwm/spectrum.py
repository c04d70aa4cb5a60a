"""Spectral analysis: exact pulse-train transforms and estimated PSDs.

A train of unit rectangular pulses with rising edges at times b_m and
falling edges at times a_m has the continuous-time Fourier transform

    X(f) = (sum_m exp(-j 2 pi f b_m) - sum_m exp(-j 2 pi f a_m)) / (j 2 pi f)

so each pulse contributes one complex exponential per edge.  The notch
schedulers force consecutive-cycle edge exponentials at the target
frequency to cancel pairwise; `cancellation_residual` measures the
magnitude of the surviving edge sum, which telescopes to at most 2 for an
unbroken locked chain regardless of its length.

The edge sums are evaluated directly, one complex exponential per edge
and bin.  Bins are taken a block at a time into one reused buffer of
about 0.25 MB, so working memory does not grow with the grid.  The blocks
are shared out to the calling thread and one helper thread per further
CPU the process may run on (its affinity mask), each computing in its own
slice of that one buffer; numpy releases the GIL in the complex `exp`
that dominates.  Each bin's full row of edge phasors is summed at once in
one thread: numpy's pairwise sum then runs the same tree for any block
size and worker count, and the result is bit-identical to evaluating the
whole grid in one temporary.

Estimated spectra use Welch's method (Welch, IEEE Trans. Audio
Electroacoust. 15(2), 1967) on uniformly sampled waveforms.  It is
computed in numpy with the operations of `scipy.signal.welch` (scipy
1.17) in the same order, and matches it bit for bit.  The segments'
powers are not stored as a table: each segment's power is added into a
partial sum in the order numpy's pairwise mean over such a table would
add it, with at most 4 such sums alive, so the estimate needs working
memory of a few bins-long arrays whatever the waveform's length.  Power
densities are reported in dB/Hz with a -200 dB/Hz floor so that exact
zeros stay finite.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .scheduler import CycleRecord, Schedule
from .synthesis import SampledWaveform, edge_times

# minimum power kept when converting to dB; 10*log10 of it is -200 dB/Hz
_POWER_FLOOR = 1e-20

# a notch bin must beat the baseline by at least this much to count
# toward the notch width
NOTCH_THRESHOLD_DB = 6.0

# complex values in the phasor buffer `_edge_sum` allocates and its
# workers split (0.25 MB, so each worker's slice stays in its core's L2
# cache; the sweep runs no slower than with 0.5 or 1 MB and peaks lower)
_EDGE_BLOCK_BUDGET = 1 << 14

# cosine-sum coefficients of the Welch windows: w = sum_k a_k cos(k x)
_COSINE_WINDOWS = {"hann": (0.5, 0.5), "hamming": (0.54, 1.0 - 0.54), "boxcar": (1.0,)}
WELCH_WINDOWS = tuple(_COSINE_WINDOWS)


class GridMismatchError(ValueError):
    """Two spectra do not share one frequency grid."""


class TooShortError(ValueError):
    """Waveform too short for the requested Welch segmentation."""


@dataclass(frozen=True)
class Spectrum:
    """One-sided power spectral density in dB/Hz on a uniform grid."""

    freqs: np.ndarray
    values: np.ndarray
    resolution: float


def power_to_db(power: np.ndarray) -> np.ndarray:
    """Convert linear power density to dB/Hz with the module floor."""
    return 10.0 * np.log10(np.maximum(np.asarray(power, dtype=float), _POWER_FLOOR))


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _edge_block(rises, falls, freqs, scratch, out) -> None:
    """Write _edge_sum of a block of bins to `out`, in `scratch` phasors."""
    w = -2j * np.pi * freqs[:, None]
    sums = []
    for times in (rises, falls):
        z = scratch[: w.size * times.size].reshape(w.size, times.size)
        np.multiply(w, times, out=z)
        np.exp(z, out=z)
        sums.append(z.sum(axis=1))
    np.subtract(*sums, out=out)


def _edge_sum(rises: np.ndarray, falls: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """sum_m exp(-j 2 pi f b_m) - sum_m exp(-j 2 pi f a_m) at each f.

    The phasors are evaluated for a block of bins at a time, in one buffer
    of about _EDGE_BLOCK_BUDGET values that rises and falls share.  The
    calling thread and up to one helper thread per further usable CPU each
    take a slice of that buffer and pull blocks from one shared queue until
    it runs dry.  Each bin's whole edge row is summed at once, in one
    thread, so numpy's pairwise sum, and with it every bit of the result,
    depends on neither the block size nor the worker count.  If any worker
    raises, a signal handler in the caller included, the others stop after
    their current block and are joined before the error reaches the
    caller; only a helper whose `Thread.start` the exception interrupted
    is left to stop on its own.
    """
    out = np.empty(freqs.shape, dtype=complex)
    row_len = max(rises.size, falls.size, 1)
    # bins the buffer holds, and so the most workers: a 1-bin grid, or a
    # row longer than the budget, runs inline
    rows = max(1, min(_EDGE_BLOCK_BUDGET // row_len, freqs.size))
    workers = min(_usable_cpus(), rows)
    share = rows // workers
    # equal blocks of at most `share` bins, `rounds` for each worker, so
    # no worker is left with a long last block while the others idle
    rounds = max(1, -(-freqs.size // (workers * share)))
    block = max(1, -(-freqs.size // (workers * rounds)))
    buf = np.empty(workers * share * row_len, dtype=complex)
    starts = iter(range(0, freqs.size, block))
    lock = threading.Lock()
    stop = threading.Event()
    errors = []

    def work(scratch):
        while True:
            with lock:
                lo = None if stop.is_set() else next(starts, None)
            if lo is None:
                return
            hi = lo + block
            _edge_block(rises, falls, freqs[lo:hi], scratch, out[lo:hi])

    def helper(scratch, done):
        try:
            work(scratch)
        except BaseException as exc:  # handed to the caller
            errors.append(exc)
            stop.set()
        finally:
            done.set()

    slices = buf.reshape(workers, -1)
    started = []
    try:
        for scratch in slices[1:]:
            done = threading.Event()
            thread = threading.Thread(target=helper, args=(scratch, done))
            thread.start()
            started.append((thread, done))
        work(slices[0])
    finally:
        stop.set()
        _join_all(started)
    if errors:
        raise errors[0]
    return out


def _join_all(helpers) -> None:
    """Join each (thread, done event) pair's thread once its event is set.

    An exception raised meanwhile, as a signal handler raises it, does not
    end the wait; the first is raised once every thread is joined.  The
    event is what is waited for, because an exception that interrupts
    `Thread.join` can leave a running thread marked stopped (Python 3.11).
    """
    interrupted = None
    for thread, done in helpers:
        while True:
            try:
                done.wait()
                thread.join()
                break
            except BaseException as exc:
                interrupted = interrupted or exc
    if interrupted is not None:
        raise interrupted


def analytic_transform(
    records: Sequence[CycleRecord], phase: str, freqs: np.ndarray
) -> np.ndarray:
    """Exact Fourier transform of one phase's pulse train on a grid.

    freqs must be nonzero (the transform has a 1/f pole carrying the DC
    content).
    """
    freqs = np.asarray(freqs, dtype=float)
    if np.any(freqs == 0.0):
        raise ValueError("analytic transform is undefined at f = 0")
    rises, falls = edge_times(records, phase)
    if rises.size == 0:  # plain zeros; dividing them would sign some
        return np.zeros(freqs.shape, dtype=complex)
    return _edge_sum(rises, falls, freqs) / (2j * np.pi * freqs)


def cancellation_residual(
    records: Sequence[CycleRecord], phase: str, fx: float
) -> float:
    """Magnitude of the edge exponential sum at fx.

    This is |2 pi fx X(fx)|: the pulse count drops out, leaving only the
    unpaired boundary edges of each locked run, so an unbroken chain is
    bounded by 2 while unlocked schedules grow like sqrt(cycle count).
    """
    rises, falls = edge_times(records, phase)
    return float(abs(_edge_sum(rises, falls, np.array([fx], dtype=float))[0]))


def analytic_psd(
    records: Sequence[CycleRecord], phase: str, freqs: np.ndarray
) -> Spectrum:
    """One-sided PSD in dB/Hz implied by the exact transform.

    Uses |X(f)|^2 * 2 / T on the given grid, T being the schedule span,
    which matches a one-sided periodogram density of the same waveform.
    """
    freqs = np.asarray(freqs, dtype=float)
    records = Schedule.from_records(records)
    x = analytic_transform(records, phase, freqs)
    duration = float(records.t_m[-1] + records.ts[-1]) if records else 0.0
    if duration <= 0.0:
        raise ValueError("empty schedule has no spectrum")
    power = (np.abs(x) ** 2) * 2.0 / duration
    res = float(freqs[1] - freqs[0]) if freqs.size > 1 else 0.0
    return Spectrum(freqs=freqs, values=power_to_db(power), resolution=res)


def _periodic_window(name: str, size: int) -> np.ndarray:
    """DFT-even cosine-sum window, built as scipy's `get_window` builds it."""
    try:
        coeffs = _COSINE_WINDOWS[name]
    except KeyError:
        raise ValueError(
            f"window must be one of {', '.join(WELCH_WINDOWS)}, got {name!r}"
        ) from None
    phase = np.linspace(-np.pi, np.pi, size + 1)
    win = np.zeros(size + 1)
    for k, a in enumerate(coeffs):
        win += a * np.cos(k * phase)
    return win[:-1]


# numpy's pairwise sum adds up to this many values in 8 accumulators
# before it splits a sum in two (PW_BLOCKSIZE in numpy's loops_utils.h.src)
_PW_BLOCKSIZE = 128


def _pairwise_sum(row: Callable[[int], np.ndarray], n: int, start: int = 0) -> np.ndarray:
    """Sum of row(start) .. row(start + n - 1), in numpy's pairwise order.

    Each element is summed as numpy's `pairwise_sum` sums a row of n
    values: in order below 8; with 8 interleaved accumulators up to
    _PW_BLOCKSIZE, the remainder added after they are combined; above that
    as the sum of two halves split at n / 2 rounded down to a multiple of
    8.  So for nonnegative arrays the result equals the sum, and divided
    by n the mean, along the last axis of the arrays stacked as columns,
    bit for bit (checked against numpy 2.4), without holding them at once.
    The accumulators are made one at a time and folded as soon as both of
    a pair exist, in numpy's order ((r0 + r1) + (r2 + r3)) + ((r4 + r5) +
    (r6 + r7)), so at most 4 are alive, plus one partial sum per split
    level.  row(i) is called once for each i, and its array is read, never
    written, before the next call, so it may be one refilled buffer.
    """
    if n > _PW_BLOCKSIZE:
        half = n // 2
        half -= half % 8
        total = _pairwise_sum(row, half, start)
        total += _pairwise_sum(row, n - half, start + half)
        return total
    if n < 8:
        total = row(start).copy()
        for i in range(start + 1, start + n):
            total += row(i)
        return total
    unrolled = n - n % 8
    partial: list[tuple[int, np.ndarray]] = []  # (accumulators in it, sum)
    for j in range(start, start + 8):
        acc, width = row(j).copy(), 1
        for i in range(j + 8, start + unrolled, 8):
            acc += row(i)
        while partial and partial[-1][0] == width:
            total = partial.pop()[1]
            total += acc
            acc, width = total, 2 * width
        partial.append((width, acc))
    total = partial.pop()[1]
    for i in range(start + unrolled, start + n):
        total += row(i)
    return total


def welch_psd(
    waveform: SampledWaveform,
    segment_len: int,
    overlap: float = 0.5,
    window: str = "hann",
    detrend="constant",
) -> Spectrum:
    """Welch PSD estimate of a sampled waveform, in dB/Hz.

    segment_len must be a power of two no longer than the waveform;
    overlap is the fraction of a segment shared with its neighbor.  Each
    segment has its mean removed (unless detrend is False) and is weighted
    by a periodic `window` from WELCH_WINDOWS; the one-sided densities of
    the segments are averaged, each one's power formed in its FFT's output.
    """
    n = waveform.values.size
    if segment_len < 2 or segment_len & (segment_len - 1):
        raise ValueError(f"segment_len must be a power of two, got {segment_len}")
    if segment_len > n:
        raise TooShortError(
            f"waveform has {n} samples, fewer than segment_len {segment_len}"
        )
    if not 0.0 <= overlap < 1.0:
        raise ValueError(f"overlap fraction must be in [0, 1), got {overlap}")
    if detrend not in ("constant", False):
        raise ValueError(f"detrend must be 'constant' or False, got {detrend!r}")
    noverlap = int(overlap * segment_len)
    hop = segment_len - noverlap
    win = _periodic_window(window, segment_len)
    # density scaling; cumsum adds sequentially, as scipy's builtin sum does
    win = win * (1.0 / np.sqrt(np.cumsum(win**2)[-1] / (1.0 / waveform.rate)))
    n_seg = (n - noverlap) // hop
    segments = sliding_window_view(waveform.values, segment_len)[: n_seg * hop : hop]

    windowed = np.empty(segment_len)
    spec = np.empty(segment_len // 2 + 1, dtype=complex)
    power, imag = spec.real, spec.imag  # views of the FFT's output

    def segment_power(i):
        # one set of buffers refilled for every segment, the power in the
        # FFT output's real parts: a segment allocates nothing of its length
        seg = segments[i]
        if detrend:
            np.subtract(seg, seg.mean(), out=windowed)
            seg = windowed
        np.multiply(seg, win, out=windowed)
        np.fft.rfft(windowed, out=spec)
        np.square(power, out=power)
        np.add(power, np.square(imag, out=imag), out=power)
        power[1:-1] *= 2.0
        return power

    # the mean numpy takes over a (bins, n_seg) table of the powers
    mean = _pairwise_sum(segment_power, n_seg) / n_seg
    freqs = np.fft.rfftfreq(segment_len, 1.0 / waveform.rate)
    return Spectrum(
        freqs=freqs, values=power_to_db(mean), resolution=float(freqs[1] - freqs[0])
    )


@dataclass(frozen=True)
class NotchReport:
    """Suppression achieved around the target frequency, test vs baseline."""

    max_reduction_db: float
    mean_reduction_db: float
    notch_width_hz: float
    threshold_db: float = NOTCH_THRESHOLD_DB


def notch_report(
    test: Spectrum, baseline: Spectrum, fx: float, half_band: float
) -> NotchReport:
    """Quantify the notch at fx in `test` relative to `baseline`.

    reduction(f) = baseline_dB(f) - test_dB(f).  Max and mean are taken
    over |f - fx| <= half_band; the width is the extent of the contiguous
    run of bins with reduction >= NOTCH_THRESHOLD_DB that contains the
    bin nearest fx (zero when that bin itself does not qualify).
    """
    if test.freqs.shape != baseline.freqs.shape or not np.array_equal(
        test.freqs, baseline.freqs
    ):
        raise GridMismatchError("test and baseline spectra use different grids")
    freqs = test.freqs
    reduction = baseline.values - test.values

    band = np.abs(freqs - fx) <= half_band
    if not np.any(band):
        raise ValueError(f"no grid bins within {half_band} Hz of {fx} Hz")
    max_red = float(np.max(reduction[band]))
    mean_red = float(np.mean(reduction[band]))

    center = int(np.argmin(np.abs(freqs - fx)))
    width = 0.0
    if reduction[center] >= NOTCH_THRESHOLD_DB:
        lo = center
        while lo > 0 and reduction[lo - 1] >= NOTCH_THRESHOLD_DB:
            lo -= 1
        hi = center
        while hi + 1 < reduction.size and reduction[hi + 1] >= NOTCH_THRESHOLD_DB:
            hi += 1
        width = (hi - lo + 1) * test.resolution

    return NotchReport(
        max_reduction_db=max_red, mean_reduction_db=mean_red, notch_width_hz=width
    )


def band_flatness(spectrum: Spectrum, f_lo: float, f_hi: float) -> tuple[float, float]:
    """(std_db, peak_to_mean_db) of the PSD over [f_lo, f_hi]."""
    mask = (spectrum.freqs >= f_lo) & (spectrum.freqs <= f_hi)
    if not np.any(mask):
        raise ValueError(f"no grid bins in [{f_lo}, {f_hi}] Hz")
    vals = spectrum.values[mask]
    return float(np.std(vals)), float(np.max(vals) - np.mean(vals))
