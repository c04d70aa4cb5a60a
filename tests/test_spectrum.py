"""Tests for the exact transform, Welch estimates, and notch metrics."""

import gc
import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import notchpwm
import notchpwm.spectrum as spectrum_module
from conftest import (
    chain_rp,
    chain_sns_rp,
    loop_edge_times,
    rec,
    same_bits,
    schedules,
    transpose_welch,
    whole_grid_edge_sum,
)
from notchpwm import (
    CancelMethod,
    GridMismatchError,
    ModulatorConfig,
    SampledWaveform,
    Schedule,
    Spectrum,
    StrategyKind,
    StrategySpec,
    TooShortError,
    analytic_psd,
    analytic_transform,
    band_flatness,
    cancellation_residual,
    edge_times,
    notch_report,
    power_to_db,
    schedule,
    welch_psd,
)
from notchpwm.spectrum import WELCH_WINDOWS


def flat_spectrum(level_db, freqs, resolution=10.0):
    values = np.full(freqs.size, float(level_db))
    return Spectrum(freqs=freqs, values=values, resolution=resolution)


# ---------------------------------------------------------------------------
# exact transform


def test_edge_times_skips_empty_cycles():
    records = [rec(1, 0.0, 0.004, 0.5, 0.25), rec(2, 0.004, 0.004, 0.0, 0.5)]
    rises, falls = edge_times(records, "a")
    assert rises == pytest.approx([0.001])
    assert falls == pytest.approx([0.003])


def test_single_pulse_transform_is_sinc_shaped():
    records = [rec(1, 0.0, 1.0, 0.5, 0.25)]  # pulse on (0.25, 0.75), width 0.5
    x = analytic_transform(records, "a", np.array([1e-9, 1.0, 2.0, 4.0]))
    assert abs(x[0]) == pytest.approx(0.5, abs=1e-6)  # low-frequency limit
    assert abs(x[1]) == pytest.approx(abs(math.sin(math.pi * 0.5) / math.pi), rel=1e-9)
    assert abs(x[2]) < 1e-12  # nulls at multiples of 1/width
    assert abs(x[3]) < 1e-12


def test_transform_rejects_dc():
    with pytest.raises(ValueError):
        analytic_transform([rec(1, 0.0, 1.0, 0.5, 0.25)], "a", np.array([0.0]))


def test_transform_of_empty_schedule_is_zero():
    x = analytic_transform([], "a", np.array([1.0, 2.0]))
    assert np.all(x == 0.0)


def test_transform_is_linear_in_records():
    a = chain_rp(20, seed=40)
    end = a[-1].t_m + a[-1].ts
    b = [rec(r.m, r.t_m + end, r.ts, r.duty[0], r.position[0]) for r in chain_rp(20, seed=41)]
    freqs = np.linspace(100.0, 5000.0, 64)
    xa = analytic_transform(a, "a", freqs)
    xb = analytic_transform(b, "a", freqs)
    xab = analytic_transform(a + b, "a", freqs)
    assert np.allclose(xab, xa + xb, atol=1e-12)


def test_transform_conjugate_symmetry():
    records = chain_rp(30, seed=42)
    freqs = np.linspace(100.0, 5000.0, 32)
    xp = analytic_transform(records, "a", freqs)
    xn = analytic_transform(records, "a", -freqs)
    assert np.allclose(xn, np.conj(xp), atol=1e-12)


def test_pulse_width_of_whole_lock_cycles_cancels():
    # a pulse lasting exactly 2 periods of fx contributes nothing at fx
    records = [rec(1, 0.0, 0.004, 0.5, 0.1)]  # width 0.002 s = 2 / 1000 Hz
    assert cancellation_residual(records, "a", 1000.0) < 1e-12
    x = analytic_transform(records, "a", np.array([1000.0]))
    assert abs(x[0]) < 1e-15


def test_locked_chain_residual_is_bounded():
    fx = 7000.0
    for variant in (CancelMethod.FALL_AFTER_RISE, CancelMethod.RISE_AFTER_FALL):
        records = chain_sns_rp(variant, 200, seed=50)
        assert cancellation_residual(records, "a", fx) <= 2.0 + 1e-9
        x = analytic_transform(records, "a", np.array([fx]))
        assert abs(x[0]) <= 2.0 / (2.0 * math.pi * fx) + 1e-12


def loop_cancellation_residual(records, phase, fx):
    """Oracle: the edge exponential sums at fx, each over a 1-D edge array."""
    rises, falls = loop_edge_times(records, phase)
    if rises.size == 0:
        return 0.0
    s_rise = np.exp(-2j * np.pi * fx * rises).sum()
    s_fall = np.exp(-2j * np.pi * fx * falls).sum()
    return float(abs(s_rise - s_fall))


@settings(max_examples=150, deadline=None)
@given(
    schedules(),
    st.sampled_from("abc"),
    st.sampled_from((7000.0, 900.0, 2500.0, 1e5)) | st.floats(-5e4, 5e4),
)
@example(chain_sns_rp(CancelMethod.FALL_AFTER_RISE, 200, seed=3), "a", 7000.0)
def test_cancellation_residual_matches_record_loop(records, phase, fx):
    want = loop_cancellation_residual(records, phase, fx)
    assert cancellation_residual(records, phase, fx) == want
    assert cancellation_residual(Schedule.from_records(records), phase, fx) == want


def test_unlocked_chain_residual_grows():
    records = chain_rp(1000, seed=1000)
    assert cancellation_residual(records, "a", 7000.0) > 2.0


def test_analytic_psd_matches_transform():
    records = chain_rp(50, seed=51)
    freqs = np.linspace(500.0, 10000.0, 128)
    spec = analytic_psd(records, "a", freqs)
    duration = records[-1].t_m + records[-1].ts
    x = analytic_transform(records, "a", freqs)
    want = power_to_db(np.abs(x) ** 2 * 2.0 / duration)
    assert np.array_equal(spec.values, want)
    assert spec.resolution == pytest.approx(freqs[1] - freqs[0])


def _block_rows(budget, rises, falls):
    """Bins `_edge_sum` puts in one block of `budget` phasors."""
    return max(1, budget // max(rises.size, falls.size, 1))


def _cpus(n):
    """Make `_edge_sum` see n usable CPUs."""
    return mock.patch.object(spectrum_module, "_usable_cpus", return_value=n)


@st.composite
def edge_sum_cases(draw):
    """Edge times, a phasor budget, a CPU count, and a grid of 1, block - 1,
    block or block + 1 bins, or more, that may reach negative frequencies.
    8 CPUs are more workers than blocks when the budget holds fewer than 8
    bins or the grid has fewer."""
    budget = draw(st.sampled_from((1, 3, 16, 100, spectrum_module._EDGE_BLOCK_BUDGET)))
    cpus = draw(st.sampled_from((1, 2, 3, 8)))
    times = st.floats(-10.0, 10.0)
    n_rise = draw(st.integers(0, 60))
    n_fall = draw(st.just(n_rise) | st.integers(0, 60))
    rises = draw(arrays(float, n_rise, elements=times))
    falls = draw(arrays(float, n_fall, elements=times))
    block = _block_rows(budget, rises, falls)
    n_bins = draw(
        st.sampled_from(sorted({1, max(1, block - 1), block, block + 1}))
        | st.integers(1, 3 * block + 2)
    )
    f0 = draw(st.floats(-2e4, 2e4))
    df = draw(st.floats(-50.0, 50.0))
    return budget, cpus, rises, falls, f0 + df * np.arange(n_bins)


@settings(max_examples=200, deadline=None)
@given(edge_sum_cases())
@example(
    (spectrum_module._EDGE_BLOCK_BUDGET, 2, np.zeros(0), np.zeros(0), np.array([-7000.0]))
)
def test_edge_sum_matches_whole_grid_oracle(case):
    budget, cpus, rises, falls, freqs = case
    with mock.patch.object(spectrum_module, "_EDGE_BLOCK_BUDGET", budget), _cpus(cpus):
        got = spectrum_module._edge_sum(rises, falls, freqs)
    assert same_bits(got.view(float), whole_grid_edge_sum(rises, falls, freqs).view(float))


def sweep_edges():
    """Phase a's edges of a 0.5 s sns_rp run and the benchmark sweep's
    200-bin grid around fx."""
    mod = ModulatorConfig(m_index=0.7, f1=50.0, u_dc=24.0)
    spec = StrategySpec(kind=StrategyKind.SNS_RP, fs=2500.0, fx=7000.0)
    rises, falls = edge_times(schedule(spec, mod, 0.5, 0).records, "a")
    return rises, falls, 7000.0 + np.arange(-100, 100) / 0.5


def test_edge_sum_bits_do_not_depend_on_worker_count():
    # rows of 825 edges, so the budget holds 79 bins, and the 200-bin grid
    # runs in blocks of 67, 34, 23 or 10 bins on 1, 2, 3 or 7 workers
    rises, falls, freqs = sweep_edges()
    want = whole_grid_edge_sum(rises, falls, freqs).view(float)
    for cpus in (1, 2, 3, 7):
        with _cpus(cpus):
            got = spectrum_module._edge_sum(rises, falls, freqs)
        assert same_bits(got.view(float), want), cpus


def test_edge_workers_share_one_budget():
    # each worker's phasors live in its slice of one buffer the caller
    # allocated: at most the budget, or one row when a row is longer
    long_row = np.arange(spectrum_module._EDGE_BLOCK_BUDGET + 7) * 1e-5
    for rises, falls, freqs in (sweep_edges(), (long_row, long_row, np.arange(1.0, 5.0))):
        scratch = {}
        real = spectrum_module._edge_block

        def record(rises_, falls_, freqs_, scratch_, out_):
            scratch[scratch_.__array_interface__["data"][0]] = scratch_
            real(rises_, falls_, freqs_, scratch_, out_)

        for cpus in (2, 3, 7):
            scratch.clear()
            with _cpus(cpus), mock.patch.object(spectrum_module, "_edge_block", record):
                spectrum_module._edge_sum(rises, falls, freqs)
            bases = {id(z.base) for z in scratch.values()}
            held = sum(z.size for z in scratch.values())
            assert len(bases) == 1
            assert held <= max(spectrum_module._EDGE_BLOCK_BUDGET, rises.size, falls.size)


def test_edge_sum_under_thread_switch_stress():
    # 16 workers on 500 one-bin blocks, switching threads every microsecond:
    # a block handed out twice or never would leave a bin wrong or unset,
    # and every helper is gone once the calls return
    rng = np.random.default_rng(5)
    rises = np.sort(rng.uniform(0.0, 0.1, 40))
    falls = rises + 1e-5
    freqs = rng.uniform(-2e4, 2e4, 500)
    want = whole_grid_edge_sum(rises, falls, freqs).view(float)
    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(spectrum_module, "_EDGE_BLOCK_BUDGET", 16 * 40), _cpus(16):
            for _ in range(5):
                got = spectrum_module._edge_sum(rises, falls, freqs)
                assert same_bits(got.view(float), want)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before


class HelperFailed(Exception):
    pass


def test_a_helper_error_reaches_the_caller_after_every_join():
    rises, falls, freqs = sweep_edges()
    real = spectrum_module._edge_block
    helper_failed = threading.Event()
    failed, caller_blocks = [], []

    def fail_in_helpers(*args):
        if threading.current_thread() is threading.main_thread():
            # let a helper take a block and raise, and wait until it is done
            assert helper_failed.wait(10.0)
            failed[0].join(10.0)
            assert not failed[0].is_alive()
            real(*args)
            caller_blocks.append(args[2].size)
        else:
            failed.append(threading.current_thread())
            helper_failed.set()
            raise HelperFailed

    before = threading.active_count()
    with _cpus(4), mock.patch.object(spectrum_module, "_edge_block", fail_in_helpers):
        with pytest.raises(HelperFailed):
            spectrum_module._edge_sum(rises, falls, freqs)
    assert threading.active_count() == before
    # once a helper failed, the caller finished the block it held, if any,
    # and took no other
    assert len(caller_blocks) <= 1


class Alarm(Exception):
    pass


def _raise_alarm(signum, frame):
    raise Alarm


def _edge_sum_until_alarm(fake_block, cpus):
    """Run _edge_sum on `cpus` workers, with `fake_block` for `_edge_block`,
    until a SIGALRM handler raises in it."""
    rises, falls, freqs = sweep_edges()
    previous = signal.signal(signal.SIGALRM, _raise_alarm)
    try:
        with _cpus(cpus), mock.patch.object(spectrum_module, "_edge_block", fake_block):
            with pytest.raises(Alarm):
                spectrum_module._edge_sum(rises, falls, freqs)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


needs_itimer = pytest.mark.skipif(
    not hasattr(signal, "setitimer"), reason="needs POSIX interval timers"
)


@needs_itimer
def test_a_signal_in_the_callers_block_stops_and_joins_the_helpers():
    # a signal handler's exception, as a timeout raises it, in the middle
    # of the caller's own block
    real = spectrum_module._edge_block
    caller_blocks = []
    # the helpers hold their first blocks until the caller is in its own,
    # so the caller always gets a block however the threads are scheduled
    caller_in = threading.Event()

    def alarm_in_caller(*args):
        if threading.current_thread() is threading.main_thread():
            caller_blocks.append(args[2].size)
            caller_in.set()
            signal.setitimer(signal.ITIMER_REAL, 0.01)
            # short sleeps: an alarm that lands just before a blocking wait
            # starts would not cut that wait short
            for _ in range(10_000):
                time.sleep(1e-3)
        else:
            caller_in.wait(10.0)
        real(*args)

    before = threading.active_count()
    _edge_sum_until_alarm(alarm_in_caller, 4)
    assert threading.active_count() == before
    assert len(caller_blocks) == 1


@needs_itimer
def test_a_signal_in_a_join_still_joins_every_helper():
    # one helper, so no later join covers for a join cut short
    real = spectrum_module._edge_block

    def slow_in_helpers(*args):
        if threading.current_thread() is not threading.main_thread():
            # the caller drains the queue and waits for the helper
            threading.Event().wait(0.3)
        elif not signal.getitimer(signal.ITIMER_REAL)[0]:
            signal.setitimer(signal.ITIMER_REAL, 0.05)
        real(*args)

    before = threading.active_count()
    _edge_sum_until_alarm(slow_in_helpers, 2)
    assert threading.active_count() == before


def test_one_worker_grids_start_no_thread():
    long_row = np.arange(spectrum_module._EDGE_BLOCK_BUDGET + 1) * 1e-5
    cases = (
        (*sweep_edges()[:2], np.array([7000.0])),  # cancellation_residual's grid
        (long_row, long_row[:10], np.array([50.0, 7000.0])),  # rows past the budget
    )
    for rises, falls, freqs in cases:
        with _cpus(8), mock.patch.object(
            spectrum_module.threading, "Thread", wraps=threading.Thread
        ) as made:
            got = spectrum_module._edge_sum(rises, falls, freqs)
        made.assert_not_called()
        assert same_bits(got.view(float), whole_grid_edge_sum(rises, falls, freqs).view(float))


def test_edge_sum_of_rows_longer_than_the_budget():
    # one bin per block, each row more phasors than the budget holds
    rng = np.random.default_rng(12)
    rises = np.sort(rng.uniform(0.0, 2.0, spectrum_module._EDGE_BLOCK_BUDGET + 1))
    falls = rises + 1e-4
    freqs = np.array([-7000.0, 50.0, 7000.0])
    assert _block_rows(spectrum_module._EDGE_BLOCK_BUDGET, rises, falls) == 1
    got = spectrum_module._edge_sum(rises, falls, freqs)
    assert same_bits(got.view(float), whole_grid_edge_sum(rises, falls, freqs).view(float))


def test_analytic_transform_working_memory():
    mod = ModulatorConfig(m_index=0.7, f1=50.0, u_dc=24.0)
    spec = StrategySpec(kind=StrategyKind.SNS_RP, fs=2500.0, fx=7000.0)
    records = schedule(spec, mod, 2.0, 0).records
    freqs = 7000.0 + np.arange(-2048, 2048) / 2.0
    tracemalloc.start()
    try:
        with _cpus(2):
            x = analytic_transform(records, "a", freqs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(records) == 5001 and x.size == 4096
    # one buffer of 2**14 phasors (0.25 MB), split between 2 workers, plus
    # bin-sized results: 0.45 MB measured (0.66 MB with 2**15 phasors,
    # 1.2 MB with 2**16); blocks of 256 bins of all 3301 edges peaked at
    # 27 MB
    assert peak <= 6e5


# ---------------------------------------------------------------------------
# Welch estimation


def test_welch_of_silence_sits_on_the_floor():
    wave = SampledWaveform(values=np.zeros(8192), rate=8192.0)
    spec = welch_psd(wave, 1024)
    assert np.all(spec.values == -200.0)


def test_power_to_db_floor():
    out = power_to_db(np.array([0.0, 1e-30, 1.0]))
    assert list(out) == [-200.0, -200.0, 0.0]


def test_welch_sine_power_integrates_to_half():
    rate, seg = 16384.0, 4096
    t = np.arange(32768) / rate
    wave = SampledWaveform(values=np.sin(2.0 * np.pi * 512.0 * t), rate=rate)
    spec = welch_psd(wave, seg)
    total = np.sum(10.0 ** (spec.values / 10.0)) * spec.resolution
    assert total == pytest.approx(0.5, rel=0.01)
    peak_bin = int(np.argmax(spec.values))
    assert spec.freqs[peak_bin] == pytest.approx(512.0, abs=spec.resolution)


def test_welch_white_noise_is_flat_at_theory_level():
    rng = np.random.default_rng(7)
    rate, seg = 16384.0, 256
    wave = SampledWaveform(values=rng.standard_normal(16384), rate=rate)
    spec = welch_psd(wave, seg, overlap=0.0)
    theory_db = 10.0 * math.log10(2.0 / rate)
    inner = spec.values[2:-2]
    assert abs(float(np.mean(inner)) - theory_db) < 1.0


def test_welch_validation():
    wave = SampledWaveform(values=np.zeros(1000), rate=1000.0)
    with pytest.raises(TooShortError):
        welch_psd(wave, 4096)
    with pytest.raises(ValueError):
        welch_psd(wave, 100)  # not a power of two
    with pytest.raises(ValueError):
        welch_psd(SampledWaveform(values=np.zeros(4096), rate=1e3), 1024, overlap=1.0)


@pytest.mark.parametrize("n", (20001, 20000))  # odd and even lengths
@pytest.mark.parametrize("detrend", ("constant", False))
@pytest.mark.parametrize("overlap", (0.0, 0.25, 0.5, 0.75))
@pytest.mark.parametrize("window", ("hann", "hamming", "boxcar"))
def test_welch_matches_scipy(window, overlap, detrend, n):
    signal = pytest.importorskip("scipy.signal")
    rng = np.random.default_rng(n)
    # a switched line voltage with an offset, plus noise so no bin is exact
    values = 3.0 + 24.0 * rng.integers(-1, 2, n) + rng.standard_normal(n)
    rate, seg = 1e6, 1024
    wave = SampledWaveform(values=values, rate=rate)
    spec = welch_psd(wave, seg, overlap, window, detrend)
    freqs, power = signal.welch(
        values,
        fs=rate,
        window=window,
        nperseg=seg,
        noverlap=int(overlap * seg),
        detrend=detrend,
        return_onesided=True,
        scaling="density",
    )
    assert np.array_equal(spec.freqs, freqs)
    # a relative power difference of 1e-12 is 4.3e-12 dB
    tol_db = 10.0 * math.log10(1.0 + 1e-12)
    assert np.max(np.abs(spec.values - power_to_db(power))) <= tol_db


@st.composite
def welch_cases(draw):
    """A finite waveform with a segment length, overlap and settings it admits."""
    n = draw(st.integers(2, 3000))
    values = draw(arrays(np.float64, n, elements=st.floats(-1e6, 1e6)))
    segment_len = 2 ** draw(st.integers(1, n.bit_length() - 1))
    settings_ = dict(
        overlap=draw(st.floats(0.0, 1.0, exclude_max=True)),
        window=draw(st.sampled_from(WELCH_WINDOWS)),
        detrend=draw(st.sampled_from(("constant", False))),
    )
    rate = draw(st.floats(1.0, 1e7))
    return SampledWaveform(values=values, rate=rate), segment_len, settings_


@settings(max_examples=200, deadline=None)
@given(welch_cases())
def test_welch_matches_transpose_oracle(case):
    wave, segment_len, settings_ = case
    got = welch_psd(wave, segment_len, **settings_).values
    assert same_bits(got, transpose_welch(wave, segment_len, **settings_))


# n_seg below 8, the unrolled block up to 128 and the splits above it,
# both where n / 2 is a multiple of 8 and where it is rounded down
PAIRWISE_COUNTS = (*range(1, 301), 511, 512, 1000, 1025)


def test_pairwise_mean_matches_numpy_mean_bit_for_bit():
    rng = np.random.default_rng(12)
    order_seen = False
    for n_seg in PAIRWISE_COUNTS:
        # powers spread over 20 decades, so every summation order rounds
        # differently
        table = rng.random((5, n_seg)) * 10.0 ** rng.uniform(-10, 10, (5, n_seg))
        want = table.mean(axis=-1)
        buffer, calls = np.empty(5), []

        def row(i):  # one buffer, refilled with column i for every call
            calls.append(i)
            buffer[:] = table[:, i]
            return buffer

        got = spectrum_module._pairwise_sum(row, n_seg) / n_seg
        # equal to numpy's mean, reading each column once and writing none
        assert same_bits(got, want), n_seg
        assert sorted(calls) == list(range(n_seg)), n_seg
        assert same_bits(buffer, table[:, calls[-1]]), n_seg
        order_seen |= not same_bits(np.cumsum(table, axis=-1)[:, -1] / n_seg, want)
    # a plain running sum differs somewhere, so the order is what is checked
    assert order_seen


def test_welch_peak_memory_per_input_sample():
    rng = np.random.default_rng(8)
    wave = SampledWaveform(values=24.0 * rng.integers(-1, 2, 1_000_000), rate=1e6)
    tracemalloc.start()
    try:
        welch_psd(wave, 65536)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # at most 4 bins-long partial sums and one segment's buffers, its
    # power formed in the FFT's output: 2.75 B per sample measured with
    # numpy 2.4; 8 accumulators beside separate power and scratch buffers
    # took 4.3, storing the 29-segment power table to average it 10.4,
    # and averaging it through a transposed copy 17
    assert peak / wave.values.size <= 3.0


@pytest.mark.parametrize("n", [1 << 12, 1 << 16])  # 31 and 511 segments
def test_welch_frees_its_waveform_without_the_garbage_collector(n):
    # a reference cycle through the segment callback would keep the
    # caller's raster alive until a collection: 5 MB more peak RSS in a
    # 2 s simulate, whose raster outlived the PSD into the CSV writers
    values = np.zeros(n)
    alive = weakref.ref(values)
    gc.disable()
    try:
        welch_psd(SampledWaveform(values=values, rate=1e3), 256)
        del values
        assert alive() is None
    finally:
        gc.enable()


def test_welch_rejects_unknown_window_and_detrend():
    wave = SampledWaveform(values=np.zeros(4096), rate=4096.0)
    with pytest.raises(ValueError, match="hann, hamming, boxcar"):
        welch_psd(wave, 1024, window="hanning")
    with pytest.raises(ValueError, match="detrend"):
        welch_psd(wave, 1024, detrend="linear")


def modules_imported_under(package, run=""):
    """Modules of `package` loaded in a fresh interpreter by `import
    notchpwm, notchpwm.cli` and then the statements `run`."""
    code = (
        f"import sys, notchpwm, notchpwm.cli\n{run}\n"
        f"print(sorted(m for m in sys.modules if m == {package!r} "
        f"or m.startswith({package + '.'!r})))"
    )
    src = str(Path(notchpwm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return out.stdout.strip()


def test_import_loads_no_scipy():
    assert modules_imported_under("scipy") == "[]"


def test_import_loads_no_concurrent_futures():
    # the edge sum's workers are plain threads; concurrent.futures would
    # add about 7 ms to every CLI run's import
    assert modules_imported_under("concurrent.futures") == "[]"


def test_no_command_loads_numpy_ma(tmp_path):
    # np.unique imports numpy.ma (about 1.25 MiB resident) on first call
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "strategy = sns_rp\nm_index = 0.7\nf1_hz = 50\nu_dc_v = 24\n"
        "duration_s = 0.04\nseed = 1\nfs_hz = 2500\nfx_hz = 7000\n"
        "psd_segment_len = 4096\nexport_window_s = 0.01\n"
    )
    run = "\n".join(
        f"assert notchpwm.cli.main({[command, '--config', str(cfg), '--out', str(tmp_path / command)]!r}) == 0"
        for command in ("simulate", "compare", "flatness")
    )
    assert modules_imported_under("numpy.ma", run) == "[]"


# the benchmark sweep's library sequence on one locked strategy and its
# rp baseline
_SWEEP_SEQUENCE = """
import numpy as np
from notchpwm import *
mod = ModulatorConfig(m_index=0.7, f1=50.0, u_dc=24.0)
psds = []
for spec in (StrategySpec(kind=StrategyKind.SNS_RP, fs=2500.0, fx=7000.0),
             StrategySpec(kind=StrategyKind.RP, fs=2500.0)):
    records = schedule(spec, mod, 0.1, 3).records
    trains = [pulse_train(records, p) for p in "abc"]
    [cancellation_residual(records, p, 7000.0) for p in "abc"]
    psds.append(analytic_psd(records, "a", 7000.0 + np.arange(-100, 100) * 10.0))
    breaks, volts = voltage_segments(trains, 24.0, "a")
    rl_current(breaks, volts, LoadParams(resistance=1.02, inductance=0.00059))
notch_report(psds[0], psds[1], 7000.0, 100.0)
"""


def test_the_sweep_sequence_loads_no_numpy_ma():
    assert modules_imported_under("numpy.ma", _SWEEP_SEQUENCE) == "[]"


def test_welch_records_its_settings():
    wave = SampledWaveform(values=np.zeros(4096), rate=4096.0)
    spec = welch_psd(wave, 1024, overlap=0.25, window="hamming")
    assert np.array_equal(spec.freqs, np.fft.rfftfreq(1024, d=1.0 / 4096.0))
    assert spec.resolution == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# notch metrics


def test_notch_report_flat_offset():
    freqs = np.arange(10.0, 20000.0, 10.0)
    report = notch_report(
        flat_spectrum(-75.0, freqs), flat_spectrum(-60.0, freqs), 7000.0, 500.0
    )
    assert report.max_reduction_db == 15.0
    assert report.mean_reduction_db == 15.0
    # the whole grid clears the threshold, so the band spans the grid
    assert report.notch_width_hz == pytest.approx(freqs.size * 10.0)
    assert report.threshold_db == 6.0


def test_notch_report_identical_spectra():
    freqs = np.arange(10.0, 20000.0, 10.0)
    spec = flat_spectrum(-60.0, freqs)
    report = notch_report(spec, spec, 7000.0, 500.0)
    assert report.max_reduction_db == 0.0
    assert report.mean_reduction_db == 0.0
    assert report.notch_width_hz == 0.0


def test_notch_width_requires_center_bin():
    freqs = np.arange(10.0, 20000.0, 10.0)
    baseline = flat_spectrum(-60.0, freqs)
    values = np.full(freqs.size, -60.0)
    # a deep island away from fx must not count as the notch
    island = (freqs >= 8000.0) & (freqs <= 8500.0)
    values[island] = -80.0
    test = Spectrum(freqs=freqs, values=values, resolution=10.0)
    report = notch_report(test, baseline, 7000.0, 500.0)
    assert report.notch_width_hz == 0.0
    assert report.max_reduction_db == 0.0  # island is outside fx +- 500

    # an island containing fx counts, and only it
    values = np.full(freqs.size, -60.0)
    island = (freqs >= 6800.0) & (freqs <= 7300.0)
    values[island] = -70.0
    test = Spectrum(freqs=freqs, values=values, resolution=10.0)
    report = notch_report(test, baseline, 7000.0, 500.0)
    assert report.notch_width_hz == pytest.approx(np.sum(island) * 10.0)
    assert report.max_reduction_db == 10.0


def test_notch_report_grid_mismatch():
    f1 = np.arange(10.0, 20000.0, 10.0)
    f2 = np.arange(10.0, 20010.0, 10.0)
    with pytest.raises(GridMismatchError):
        notch_report(flat_spectrum(-60.0, f1), flat_spectrum(-60.0, f2), 7000.0, 500.0)


def test_notch_report_band_outside_grid():
    freqs = np.arange(10.0, 1000.0, 10.0)
    with pytest.raises(ValueError):
        notch_report(flat_spectrum(-60.0, freqs), flat_spectrum(-60.0, freqs), 7000.0, 100.0)


def test_band_flatness():
    freqs = np.array([100.0, 200.0, 300.0, 400.0])
    spec = Spectrum(
        freqs=freqs,
        values=np.array([-10.0, -20.0, -30.0, -99.0]),
        resolution=100.0,
    )
    std_db, peak_to_mean = band_flatness(spec, 100.0, 300.0)
    assert std_db == pytest.approx(float(np.std([-10.0, -20.0, -30.0])))
    assert peak_to_mean == pytest.approx(10.0)
    with pytest.raises(ValueError):
        band_flatness(spec, 500.0, 600.0)
