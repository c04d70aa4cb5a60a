"""Tests for the exact RL load response."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import expression_rl_current, indexed_rl_knots, same_bits, whole_list_rl_knots
from notchpwm import LoadParams, rl_current
from notchpwm.circuit import _SEGMENT_BLOCK

LOAD = LoadParams(resistance=1.02, inductance=0.59e-3)
TAU = 0.59e-3 / 1.02


def test_tau_property():
    assert LOAD.tau == pytest.approx(TAU, rel=1e-15)


def test_load_validation():
    with pytest.raises(ValueError):
        LoadParams(resistance=0.0, inductance=1e-3)
    with pytest.raises(ValueError):
        LoadParams(resistance=1.0, inductance=-1e-3)


def test_step_response_one_time_constant():
    current = rl_current(np.array([0.0, TAU]), np.array([24.0]), LOAD)
    want = (24.0 / 1.02) * (1.0 - math.exp(-1.0))
    assert current[0] == 0.0
    assert current[1] == pytest.approx(want, rel=1e-12)


def test_zero_voltage_decay():
    load = LoadParams(resistance=1.02, inductance=0.59e-3, initial_current=2.0)
    times = np.array([0.0, TAU, 2.0 * TAU, 3.0 * TAU])
    want = 2.0 * np.exp(-times / TAU)
    assert rl_current(times, np.zeros(3), load) == pytest.approx(want, rel=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    arrays(float, st.integers(0, 60), elements=st.floats(0.0, 1e-3)),
    st.data(),
    st.floats(1e-3, 10.0),
    st.floats(1e-6, 1e-2),
    st.floats(-50.0, 50.0) | st.integers(-5, 5),
)
def test_knots_match_indexed_loop(spans, data, resistance, inductance, initial):
    times = np.concatenate(([1e-3], 1e-3 + np.cumsum(spans)))
    voltages = data.draw(arrays(float, spans.size, elements=st.floats(-100.0, 100.0)))
    load = LoadParams(resistance, inductance, initial_current=initial)
    knots = rl_current(times, voltages, load)
    assert isinstance(knots, np.ndarray)
    assert same_bits(knots, indexed_rl_knots(times, voltages, load))


def _switched_segments(n, seed):
    rng = np.random.default_rng(seed)
    times = np.concatenate(([0.0], np.cumsum(rng.uniform(0.0, 1e-4, n))))
    return times, rng.choice([-16.0, -8.0, 0.0, 8.0, 16.0], n)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 3 * _SEGMENT_BLOCK + 1)
    | st.sampled_from([_SEGMENT_BLOCK - 1, _SEGMENT_BLOCK, 2 * _SEGMENT_BLOCK + 1]),
    st.integers(0, 2**32 - 1),
    st.floats(-50.0, 50.0),
)
def test_sliced_knots_match_the_whole_list_loop(n, seed, initial):
    times, voltages = _switched_segments(n, seed)
    load = LoadParams(1.02, 0.59e-3, initial_current=initial)
    assert same_bits(rl_current(times, voltages, load), whole_list_rl_knots(times, voltages, load))


def test_knots_of_a_million_segments_peak_memory_per_segment():
    times, voltages = _switched_segments(1_000_000, 5)
    tracemalloc.start()
    try:
        knots = rl_current(times, voltages, LOAD)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert same_bits(knots, whole_list_rl_knots(times, voltages, LOAD))
    # 24.1 B per segment measured with numpy 2.4: the steady-state and
    # decay arrays and the currents, recurred a slice of segments at a
    # time; one list of every segment's currents and two of its inputs
    # peaked at 120.4
    assert peak / voltages.size <= 32.0


@settings(max_examples=150, deadline=None)
@given(
    arrays(float, st.integers(1, 60), elements=st.floats(0.0, 1e-3)),
    st.data(),
    st.floats(1e-3, 10.0),
    st.floats(1e-6, 1e-2),
    st.floats(-50.0, 50.0),
    st.sampled_from([1e5, 1e6, 1.25e6, 3e6]),
    st.floats(0.0, 1e-2),
)
def test_sampled_current_matches_one_expression_bit_for_bit(
    spans, data, resistance, inductance, initial, rate, start
):
    times = start + np.concatenate(([0.0], np.cumsum(spans)))
    voltages = data.draw(arrays(float, spans.size, elements=st.floats(-100.0, 100.0)))
    load = LoadParams(resistance, inductance, initial_current=initial)
    values = rl_current(times, voltages, load, sample_rate=rate)
    assert same_bits(values, expression_rl_current(times, voltages, load, rate))


def test_sampled_current_peak_memory_per_row():
    rng = np.random.default_rng(4)
    spans = rng.uniform(1e-5, 4e-4, 2000)  # about 0.4 s of segments
    times = np.concatenate(([0.0], np.cumsum(spans)))
    voltages = rng.choice([-16.0, 0.0, 8.0, 16.0], spans.size)
    tracemalloc.start()
    try:
        values = rl_current(times, voltages, LOAD, sample_rate=1e6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 9.9 B per sample measured with numpy 2.4: the values, evaluated a
    # block of instants at a time; the grid's times beside them peaked at
    # 17.1, the grid, its segment indices and two value buffers of its
    # length at 32.2, and one expression with a fresh array per operation
    # at 48.2
    assert peak / values.size <= 11.0


def test_step_response_asymptote():
    current = rl_current(np.array([0.0, 50.0 * TAU]), np.array([24.0]), LOAD)
    assert current[-1] == pytest.approx(24.0 / 1.02, rel=1e-9)


def test_matches_runge_kutta_oracle():
    # compose the classical fourth-order update per constant-voltage segment:
    # for a linear first-order system each step multiplies the offset from
    # steady state by rho(z) = 1 - z + z^2/2 - z^3/6 + z^4/24, z = h / tau
    rng = np.random.default_rng(12)
    n_seg = 200
    seg_span = 5e-5
    h = 1e-8
    steps = int(round(seg_span / h))
    z = h / TAU
    rho = 1.0 - z + z * z / 2.0 - z**3 / 6.0 + z**4 / 24.0
    factor = rho**steps

    voltages = rng.uniform(-24.0, 24.0, n_seg)
    times = np.arange(n_seg + 1) * seg_span
    exact = rl_current(times, voltages, LOAD)[-1]

    i = 0.0
    for u in voltages:
        steady = u / 1.02
        i = steady + (i - steady) * factor
    assert abs(i - exact) <= 1e-6 * max(1.0, abs(exact))


def test_current_moves_monotonically_toward_steady_state():
    current = rl_current(
        np.array([0.0, 5.0 * TAU]), np.array([24.0]), LOAD, sample_rate=2e6
    )
    assert np.all(np.diff(current) > 0.0)
    assert np.all(current < 24.0 / 1.02)


def test_periodic_drive_converges_geometrically():
    period = 4e-4
    half = period / 2.0
    n_periods = 12
    times = np.arange(2 * n_periods + 1) * half
    voltages = np.tile([24.0, 0.0], n_periods)
    starts = rl_current(times, voltages, LOAD)[::2]  # current at each period start
    diffs = np.abs(np.diff(starts))
    ratios = diffs[1:] / diffs[:-1]
    want = math.exp(-period / TAU)
    assert ratios == pytest.approx(want, rel=1e-9)


def test_uniform_resampling_matches_closed_form():
    times = np.array([0.0, TAU, 3.0 * TAU])
    voltages = np.array([24.0, -12.0])
    rate = 1e6
    values = rl_current(times, voltages, LOAD, sample_rate=rate)
    knots = rl_current(times, voltages, LOAD)

    # the instants k / rate in [0, 3 tau)
    assert values.size == math.ceil(3.0 * TAU * rate)
    for k, val in enumerate(values):
        t = k / rate
        j = 0 if t < TAU else 1
        steady = voltages[j] / 1.02
        want = steady + (knots[j] - steady) * math.exp(-(t - times[j]) / TAU)
        assert val == pytest.approx(want, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize(
    "t0,t1,ks",
    [
        (0.0, 2.5e-6, [0, 1, 2]),
        (0.9e-6, 3.1e-6, [1, 2, 3]),
        (0.0, 3e-6, [0, 1, 2]),
        (1e-6, 1e-6, []),
    ],
)
def test_uniform_grid_keeps_the_last_point_before_the_end(t0, t1, ks):
    # -1 A at t0, rising toward 1 A: each instant has its own value
    load = LoadParams(resistance=1.0, inductance=1e-3, initial_current=-1.0)
    values = rl_current(np.array([t0, t1]), np.array([1.0]), load, sample_rate=1e6)
    t = np.array(ks) / 1e6
    assert values.size == len(ks)
    assert same_bits(values, 1.0 + (-1.0 - 1.0) * np.exp(-(t - t0) / load.tau))


def test_uniform_grid_starts_at_or_after_the_first_boundary():
    # t0 * rate lies 1e-13 above 1, so the instant 1e-6 lies before t0
    load = LoadParams(resistance=1.0, inductance=1e-3, initial_current=-1.0)
    t0 = 1.0000000000001e-6
    values = rl_current(np.array([t0, 5e-6]), np.array([1.0]), load, sample_rate=1e6)
    t = np.array([2, 3, 4]) / 1e6
    assert same_bits(values, 1.0 + (-1.0 - 1.0) * np.exp(-(t - t0) / load.tau))


@given(
    st.integers(0, 10**9),
    st.integers(-3, 3),
    st.sampled_from([1e5, 1e6, 1.25e6, 3e6]),
)
def test_uniform_grid_first_instant_is_the_least_at_or_after_t0(k, ulps, rate):
    # t0 within a few ulps of the instant k / rate, on either side
    t0 = k / rate
    for _ in range(abs(ulps)):
        t0 = np.nextafter(t0, math.copysign(math.inf, ulps))
    load = LoadParams(resistance=1.0, inductance=1e-3, initial_current=-1.0)
    values = rl_current(np.array([t0, t0 + 4.5 / rate]), np.array([1.0]), load, sample_rate=rate)
    first = min(j for j in range(k - 2, k + 3) if j / rate >= t0)
    t = np.arange(first, first + values.size) / rate
    assert values.size in (4, 5) and t[-1] < t0 + 4.5 / rate
    assert same_bits(values, 1.0 + (-1.0 - 1.0) * np.exp(-(t - t0) / load.tau))


@pytest.mark.parametrize(
    "times", [[0.0], [1.0000000000001e-6], [1.5e-6, 1.7e-6], [2e-6, 2e-6, 2e-6]]
)
def test_uniform_grid_with_no_instant_is_empty(times):
    voltages = np.ones(len(times) - 1)
    values = rl_current(np.array(times), voltages, LOAD, sample_rate=1e6)
    assert isinstance(values, np.ndarray) and values.shape == (0,)


@given(
    st.floats(1e-7, 1e-2),
    st.sampled_from([1e5, 1e6, 1.25e6, 3e6]),
)
def test_uniform_grid_covers_the_interval(t1, rate):
    values = rl_current(np.array([0.0, t1]), np.array([24.0]), LOAD, sample_rate=rate)
    n = values.size
    # the instants k / rate before t1, and no more
    assert (n - 1) / rate < t1 <= n / rate
    steady = 24.0 / 1.02
    t = np.arange(n) / rate
    assert same_bits(values, steady + (0.0 - steady) * np.exp(-(t - 0.0) / TAU))


@st.composite
def grid_intervals(draw):
    """(t0, t1, rate): each end a grid instant nudged by up to two ulps
    either way, or a free instant, and t1 at most 40 instants past t0."""
    rate = draw(st.sampled_from([1e5, 1e6, 1.25e6, 3e6, 7e9]))

    def end(k):
        if draw(st.booleans()):
            return draw(st.floats(0.0, 1.0)) * 1e3
        ulps = draw(st.integers(-2, 2))
        t = k / rate
        for _ in range(abs(ulps)):
            t = math.nextafter(t, math.copysign(math.inf, ulps))
        return max(t, 0.0)

    k0 = draw(st.integers(0, 10**9))
    t0 = end(k0)
    t1 = end(k0 + draw(st.integers(0, 40)))
    t0, t1 = min(t0, t1), max(t0, t1)
    return t0, min(t1, t0 + 40.0 / rate), rate


@given(grid_intervals())
@settings(max_examples=500)
def test_uniform_grid_count_matches_a_scan(interval):
    t0, t1, rate = interval
    # every k whose instant k / rate lies in [t0, t1), scanned past both ends
    scan = range(math.floor(t0 * rate) - 3, math.ceil(t1 * rate) + 4)
    want = [k for k in scan if t0 <= k / rate < t1]
    load = LoadParams(resistance=1.0, inductance=1e-3, initial_current=-1.0)
    values = rl_current(np.array([t0, t1]), np.array([1.0]), load, sample_rate=rate)
    assert values.size == len(want)
    t = np.array(want, dtype=float) / rate
    assert same_bits(values, 1.0 + (-1.0 - 1.0) * np.exp(-(t - t0) / load.tau))


def test_grid_past_the_float_range_names_the_boundaries_and_rate():
    times = np.array([1e300, 2e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"\[1e\+300, 2e\+300\] s at 1e\+10 Hz"):
            rl_current(times, np.array([1.0]), LOAD, sample_rate=1e10)


def test_input_validation():
    with pytest.raises(ValueError):
        rl_current(np.array([0.0, 1.0]), np.array([1.0, 2.0]), LOAD)
    with pytest.raises(ValueError):
        rl_current(np.array([0.0, 2.0, 1.0]), np.array([1.0, 2.0]), LOAD)
    with pytest.raises(ValueError):
        rl_current(np.array([0.0, 1.0]), np.array([1.0]), LOAD, sample_rate=0.0)


@pytest.mark.parametrize(
    "times, rate, name",
    [
        ([0.0, math.nan], None, "times"),
        ([math.nan, 1e-3], 1e6, "times"),
        ([0.0, math.inf], None, "times"),
        ([0.0, math.inf], 1e6, "times"),
        ([-math.inf, 0.0], 1e6, "times"),
        ([0.0, 1e-3], math.nan, "sample_rate"),
        ([0.0, 1e-3], math.inf, "sample_rate"),
        ([0.0, 1e-3], -math.inf, "sample_rate"),
    ],
)
def test_non_finite_boundaries_and_rates_are_rejected(times, rate, name):
    with pytest.raises(ValueError, match=f"^{name} "):
        rl_current(np.array(times), np.array([1.0]), LOAD, sample_rate=rate)
