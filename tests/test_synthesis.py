"""Tests for pulse-train synthesis and ideal bridge voltages."""

import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import notchpwm.synthesis as synthesis_module
from conftest import (
    bincount_sample,
    chain_rp,
    loop_edge_times,
    loop_pulse_train,
    malformed_schedules,
    rec,
    same_bits,
    schedules,
    unique_voltage_breaks,
)
from notchpwm import (
    MalformedRecordsError,
    ModulatorConfig,
    PulseTrain,
    RateTooLowError,
    Schedule,
    StrategyKind,
    StrategySpec,
    edge_times,
    line_voltage,
    pulse_train,
    sample,
    schedule,
    voltage_segments,
)
from notchpwm.synthesis import _REL_TOL


def test_single_cycle_edges():
    train = pulse_train([rec(1, 0.0, 0.004, 0.5, 0.25)], "a")
    assert train.times == pytest.approx([0.001, 0.003], abs=1e-15)
    assert train.duration == 0.004
    assert train.max_switching_freq == 250.0


def test_zero_duty_emits_no_edges():
    train = pulse_train([rec(1, 0.0, 0.004, 0.0, 0.5)], "a")
    assert train.times.size == 0
    assert train.duration == 0.004


def test_empty_records():
    train = pulse_train([], "a")
    assert train.times.size == 0
    assert train.duration == 0.0
    assert sample(train, 1000.0).values.size == 0


def test_adjacent_full_duty_pulses_merge():
    records = [rec(1, 0.0, 0.004, 1.0, 0.0), rec(2, 0.004, 0.004, 1.0, 0.0)]
    train = pulse_train(records, "a")
    assert train.times == pytest.approx([0.0, 0.008])


def test_pulse_width_is_duty_times_period():
    # volt-seconds per cycle do not depend on the pulse position
    for r in (0.0, 0.17, 0.5):
        train = pulse_train([rec(1, 0.0, 4e-4, 0.5, r)], "a")
        width = train.times[1] - train.times[0]
        assert width == pytest.approx(0.5 * 4e-4, rel=1e-12)


def test_phase_selection():
    records = [rec(1, 0.0, 0.004, 0.5, 0.25)]
    assert pulse_train(records, "b").times.size == 0  # b idle in rec()
    with pytest.raises(ValueError):
        pulse_train(records, "d")


def test_malformed_records_raise():
    with pytest.raises(MalformedRecordsError):
        pulse_train([rec(1, 0.0, -1e-3, 0.5, 0.2)], "a")
    with pytest.raises(MalformedRecordsError):
        # gap between cycles
        pulse_train([rec(1, 0.0, 0.004, 0.5, 0.2), rec(2, 0.005, 0.004, 0.5, 0.2)], "a")
    with pytest.raises(MalformedRecordsError):
        pulse_train([rec(1, 0.0, 0.004, 1.5, 0.0)], "a")
    with pytest.raises(MalformedRecordsError):
        # position pushes the pulse past the cycle end
        pulse_train([rec(1, 0.0, 0.004, 0.5, 0.9)], "a")
    nan, inf = float("nan"), float("inf")
    for records in (
        [rec(1, 0.0, 0.004, 0.5, nan)],
        [rec(1, 0.0, 0.004, nan, 0.2)],
        [rec(1, 0.0, nan, 0.5, 0.2)],
        [rec(1, 0.0, inf, 0.5, 0.2)],
        [rec(1, nan, 0.004, 0.5, 0.2)],
        [rec(1, -inf, 0.004, 0.5, 0.2)],
        [rec(1, 0.0, 0.004, 0.5, inf)],
        [rec(1, 0.0, 0.004, 0.5, 0.2), rec(2, 0.004, nan, 0.5, 0.2)],
        [rec(1, 0.0, 0.004, 0.5, 0.2), rec(2, nan, 0.004, 0.5, 0.2)],
    ):
        with pytest.raises(MalformedRecordsError):
            pulse_train(records, "a")


def test_malformed_records_name_the_first_bad_cycle():
    records = [
        rec(1, 0.0, 0.004, 0.5, 0.2),
        rec(2, 0.004, 0.004, 1.5, 0.9),  # duty and position both bad
        rec(3, 0.009, -1.0, 0.5, 0.2),
    ]
    with pytest.raises(MalformedRecordsError, match=r"^cycle 2: duty 1.5 outside \["):
        pulse_train(records, "a")
    with pytest.raises(MalformedRecordsError, match=r"^cycle 1: start 0.0 plus period nan"):
        pulse_train([rec(1, 0.0, float("nan"), 0.5, 0.2)], "a")


def train_outcome(build, records, phase):
    """A train's edges, span and top frequency, or its error message."""
    try:
        train = build(records, phase)
    except MalformedRecordsError as exc:
        return str(exc)
    return train.times, train.duration, train.max_switching_freq


def assert_same_train(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    assert got[0].dtype == want[0].dtype and np.array_equal(got[0], want[0])
    assert (type(got[1]), got[1]) == (type(want[1]), want[1])
    assert (type(got[2]), got[2]) == (type(want[2]), want[2])


TOUCHING = [rec(1, 0.0, 4e-4, 0.25, 0.75), rec(2, 4e-4, 4e-4, 0.5, 0.0)]
FULL = [rec(m, (m - 1) * 4e-4, 4e-4, 1.0, 0.0) for m in (1, 2, 3)]
# a full pulse one tolerance past its cycle swallows the next, tiny pulse
# starting one tolerance early: the on-interval keeps the earlier end
SWALLOWED = [rec(1, 0.0, 4e-4, 1.0, _REL_TOL), rec(2, 4e-4, 4e-4, 1e-15, -_REL_TOL)]


@settings(max_examples=200, deadline=None)
@given(schedules(), st.sampled_from("abc"))
@example(TOUCHING, "a")
@example(FULL, "a")
@example(SWALLOWED, "a")
def test_pulse_train_matches_record_loop(records, phase):
    got = train_outcome(pulse_train, records, phase)
    assert_same_train(got, train_outcome(loop_pulse_train, records, phase))


@settings(max_examples=150, deadline=None)
@given(malformed_schedules(), st.sampled_from("abc"))
def test_malformed_message_matches_record_loop(records, phase):
    want = train_outcome(loop_pulse_train, records, phase)
    assert_same_train(train_outcome(pulse_train, records, phase), want)


@settings(max_examples=100, deadline=None)
@given(schedules() | malformed_schedules(), st.sampled_from("abc"))
def test_edge_times_match_record_loop(records, phase):
    for got, want in zip(edge_times(records, phase), loop_edge_times(records, phase)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@settings(max_examples=150, deadline=None)
@given(schedules() | malformed_schedules(), st.sampled_from("abc"))
def test_schedule_columns_give_the_trains_records_give(records, phase):
    cycles = Schedule.from_records(records)
    want = train_outcome(pulse_train, records, phase)
    assert_same_train(train_outcome(pulse_train, cycles, phase), want)
    for got, want in zip(edge_times(cycles, phase), edge_times(records, phase)):
        assert same_bits(got, want)


def test_sample_count_and_levels():
    train = pulse_train([rec(1, 0.0, 0.004, 0.5, 0.25)], "a")
    wave = sample(train, 1e6)
    assert wave.values.size == 4000
    assert set(np.unique(wave.values)) <= {0.0, 1.0}
    assert wave.rate == 1e6


def test_edge_on_sample_instant_switches_at_that_sample():
    # rise at exactly sample 1000, fall at exactly sample 3000
    train = pulse_train([rec(1, 0.0, 0.004, 0.5, 0.25)], "a")
    wave = sample(train, 1e6)
    assert wave.values[999] == 0.0
    assert wave.values[1000] == 1.0
    assert wave.values[2999] == 1.0
    assert wave.values[3000] == 0.0


def searchsorted_sample(train, rate):
    """Oracle: on after an odd number of edges at or before each grid instant."""
    n = int(round(train.duration * rate))
    t = np.arange(n) / rate
    idx = np.searchsorted(train.times, t, side="right")
    return (idx % 2).astype(float)


RATES = (1e6, 999_999.0, 1_234_567.0, 48_000.0)


@st.composite
def edge_trains(draw):
    """Edges on, one ulp either side of, and between grid instants, some past the end."""
    rate = draw(st.sampled_from(RATES))
    n = draw(st.integers(1, 3000))
    placements = draw(
        st.lists(
            st.tuples(
                st.integers(-2, n + 5),
                st.sampled_from(("on", "below", "above", "between")),
                st.floats(0.0, 1.0),
            ),
            max_size=60,
        )
    )
    times = set()
    for k, where, frac in placements:
        t = k / rate
        if where == "below":
            t = np.nextafter(t, -np.inf)
        elif where == "above":
            t = np.nextafter(t, np.inf)
        elif where == "between":
            t = (k + frac) / rate
        times.add(float(t))
    return PulseTrain(np.array(sorted(times)), n / rate, 0.0), rate


@settings(max_examples=300, deadline=None)
@given(edge_trains())
def test_sample_matches_searchsorted_at_grid_boundaries(case):
    train, rate = case
    values = sample(train, rate).values
    want = searchsorted_sample(train, rate)
    assert values.dtype == want.dtype
    assert np.array_equal(values, want)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(RATES),
    st.integers(100, 400),
    st.lists(
        st.tuples(st.integers(0, 400), st.integers(0, 400), st.booleans()),
        min_size=1,
        max_size=30,
    ),
)
def test_sample_matches_searchsorted_on_merged_pulses(rate, per_cycle, cycles):
    # periods and edges are whole sample counts, so edges land on grid
    # instants up to rounding; a cycle flagged `touch` ends its pulse at the
    # cycle end, and when the next pulse starts at 0 the two merge
    ts = per_cycle / rate
    records = []
    for m, (on, start, touch) in enumerate(cycles):
        on = min(on, per_cycle)
        start = per_cycle - on if touch else min(start, per_cycle - on)
        records.append(rec(m + 1, m * ts, ts, on / per_cycle, start / per_cycle))
    train = pulse_train(records, "a")
    assert np.array_equal(sample(train, rate).values, searchsorted_sample(train, rate))


@st.composite
def free_trains(draw):
    """Strictly increasing edges anywhere around a run, at any rate."""
    rate = draw(st.floats(1.0, 2e6))
    duration = draw(st.floats(0.0, 4000.0 / rate))
    times = draw(st.lists(st.floats(-duration, 2.0 * duration + 1.0), unique=True))
    return PulseTrain(np.array(sorted(times)), duration, 0.0), rate


@settings(max_examples=300, deadline=None)
@given(edge_trains() | free_trains())
def test_sample_matches_bincount_oracle(case):
    train, rate = case
    wave = sample(train, rate)
    assert same_bits(wave.values, bincount_sample(train, rate))
    assert wave.values.flags.c_contiguous and wave.values.base is None


@settings(max_examples=300, deadline=None)
@given(
    edge_trains() | free_trains(),
    st.integers(1, 50),
    st.sampled_from((1, 3, 64, synthesis_module._FILL_BLOCK)),
)
def test_sample_into_out_matches_fresh_samples(case, spare, block):
    # blocks of 1 and 3 samples put block boundaries between and on edges
    train, rate = case
    fresh = sample(train, rate).values
    out = np.full(fresh.size + spare, np.nan)
    with mock.patch.object(synthesis_module, "_FILL_BLOCK", block):
        wave = sample(train, rate, out=out)
    assert wave.values.base is out and wave.rate == rate
    assert same_bits(wave.values, fresh)
    assert same_bits(wave.values, bincount_sample(train, rate))
    assert same_bits(out[fresh.size :], np.full(spare, np.nan))  # untouched


@pytest.mark.parametrize(
    "make_out",
    [
        lambda n: np.full(n - 1, 7.0),  # too short
        lambda n: np.full(n, 7.0, dtype=np.float32),
        lambda n: np.full(2 * n, 7.0)[::2],  # not contiguous
        lambda n: np.full((n, 1), 7.0),  # not 1-D
    ],
    ids=["short", "float32", "strided", "2-d"],
)
def test_sample_rejects_a_bad_out_before_writing(make_out):
    train = pulse_train([rec(1, 0.0, 0.004, 0.5, 0.25)], "a")  # 4000 samples
    out = make_out(4000)
    with pytest.raises(ValueError, match="out must be 1-D C-contiguous float64"):
        sample(train, 1e6, out=out)
    assert (out == 7.0).all()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0) | st.just(float("nan")), min_size=2, max_size=8))
@example([1e-3, 2e-3, 2e-3, 1e-3])
def test_sample_names_the_first_unordered_edge(times):
    train = PulseTrain(np.array(times), 1.0, 0.0)
    bad = [i for i in range(1, len(times)) if not times[i] > times[i - 1]]
    if not bad:
        assert sample(train, 1e3).values.size == 1000
        return
    i = bad[0]
    with pytest.raises(ValueError) as err:
        sample(train, 1e3)
    assert str(err.value) == (
        f"edges must strictly increase: edge {i} at {times[i]!r} s "
        f"does not follow edge {i - 1} at {times[i - 1]!r} s"
    )


@pytest.mark.parametrize(
    "times, i",
    [
        ([math.nan], 0),
        ([1e-3, math.nan], 1),
        ([math.inf], 0),
        ([-math.inf], 0),
        ([1e-3, math.inf], 1),
        ([-math.inf, 1e-3, math.inf], 0),
    ],
)
def test_sample_names_the_first_nonfinite_edge(times, i):
    train = PulseTrain(np.array(times), 1.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            sample(train, 1e3)
    assert f"edge {i} at {times[i]!r} s" in str(err.value)


@pytest.mark.parametrize(
    "duration, rate",
    [(math.inf, 1e3), (math.nan, 1e3), (-1.0, 1e3), (1.0, 1e308), (1e300, 1e300)],
)
def test_sample_rejects_a_count_no_array_can_have(duration, rate):
    train = PulseTrain(np.array([0.25, 0.5]), duration, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^duration .* s at rate .* Hz gives"):
            sample(train, rate)


def test_sample_rejects_an_edge_past_the_float_grid():
    train = PulseTrain(np.array([0.25, 1e300]), 1e-6, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^instants \[1e\+300\] s at 1e\+10 Hz"):
            sample(train, 1e10)


def test_sample_peak_memory_per_sample():
    mod = ModulatorConfig(m_index=0.7, f1=50.0, u_dc=24.0)
    spec = StrategySpec(kind=StrategyKind.SNS_RP, fs=2500.0, fx=7000.0)
    train = pulse_train(schedule(spec, mod, 1.0, 0).records, "a")
    tracemalloc.start()
    try:
        wave = sample(train, 1e6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 8-byte samples themselves, plus per-edge work; counting the
    # edges at or before each sample with bincount and cumsum peaks at 16
    assert peak / wave.values.size <= 9.0


def test_sample_into_out_allocates_per_edge_and_per_block_only():
    mod = ModulatorConfig(m_index=0.7, f1=50.0, u_dc=24.0)
    spec = StrategySpec(kind=StrategyKind.SNS_RP, fs=2500.0, fx=7000.0)
    train = pulse_train(schedule(spec, mod, 1.0, 0).records, "a")
    out = np.empty(1_000_400)
    tracemalloc.start()
    try:
        wave = sample(train, 1e6, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert wave.values.size == out.size
    # one block of repeated levels (256 kB), plus 25 B per edge measured
    # with numpy 2.4 (the first-sample instants, their bounds, the levels);
    # a full-length temporary, or a second block's, breaks this bound
    assert peak <= synthesis_module._FILL_BLOCK * 8 + 48 * train.times.size


def test_sample_rate_guard():
    train = pulse_train([rec(1, 0.0, 4e-4, 0.5, 0.25)], "a")
    with pytest.raises(RateTooLowError):
        sample(train, 100e3)
    with pytest.raises(ValueError):
        sample(train, 0.0)


@pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
def test_sample_rejects_a_non_finite_rate(rate):
    train = pulse_train([rec(1, 0.0, 4e-4, 0.5, 0.25)], "a")
    with pytest.raises(ValueError, match="^rate must be positive and finite, got"):
        sample(train, rate)


def test_per_cycle_sampled_mean_matches_duty():
    records = chain_rp(50, seed=31)
    train = pulse_train(records, "a")
    wave = sample(train, 1e6)
    for r in records:
        lo = int(round(r.t_m * 1e6))
        hi = int(round((r.t_m + r.ts) * 1e6))
        mean = float(np.mean(wave.values[lo:hi]))
        assert abs(mean - r.duty[0]) <= 2.0 / (1e6 * r.ts)


def rp_trains(duration, seed):
    mod = ModulatorConfig(m_index=0.7, f1=50.0, u_dc=24.0)
    spec = StrategySpec(kind=StrategyKind.RP, fs=2500.0)
    res = schedule(spec, mod, duration, seed)
    return [pulse_train(res.records, p) for p in ("a", "b", "c")]


def test_bridge_voltages_worked_example():
    # leg a on over [1 ms, 3 ms), legs b and c idle
    trains = [pulse_train([rec(1, 0.0, 0.004, 0.5, 0.25)], p) for p in "abc"]
    segments = [voltage_segments(trains, 24.0, phase=p) for p in "abc"]
    for breaks, _ in segments:
        assert list(breaks) == [0.0, 0.001, 0.003, 0.004]
    assert [list(values) for _, values in segments] == [
        [0.0, 16.0, 0.0],
        [0.0, -8.0, 0.0],
        [0.0, -8.0, 0.0],
    ]


def test_bridge_voltages_sum_to_zero():
    trains = rp_trains(0.02, 5)
    (breaks, u_a), (_, u_b), (_, u_c) = (
        voltage_segments(trains, 24.0, phase=p) for p in "abc"
    )
    assert np.all(u_a + u_b + u_c == 0.0)


def test_line_voltage_values():
    x_a = np.array([1.0, 0.0, 1.0, 0.0])
    x_b = np.array([0.0, 1.0, 1.0, 0.0])
    assert list(line_voltage(x_a, x_b, 24.0)) == [24.0, -24.0, 0.0, 0.0]


# any float64 level, NaN and signed zeros included
_levels = st.floats(allow_nan=True, allow_infinity=True, width=64)


@given(
    st.integers(0, 64).flatmap(
        lambda n: st.tuples(*(arrays(np.float64, n, elements=_levels) for _ in "ab"))
    ),
    st.floats(width=64),
    st.sampled_from((0, 1)),
)
def test_line_voltage_in_place_matches_fresh(legs, u_dc, into):
    out = legs[into]
    with np.errstate(invalid="ignore", over="ignore"):
        fresh = line_voltage(*legs, u_dc)
        assert same_bits(fresh, u_dc * (legs[0] - legs[1]))
        assert line_voltage(*legs, u_dc, out=out) is out
    assert same_bits(out, fresh)


def test_line_voltage_equals_phase_difference():
    trains = rp_trains(0.02, 6)
    (breaks, u_a), (_, u_b) = (voltage_segments(trains, 24.0, phase=p) for p in "ab")
    x_a, x_b = (sample(tr, 1e6).values for tr in trains[:2])
    t = np.arange(x_a.size) / 1e6
    idx = np.searchsorted(breaks, t, side="right") - 1
    assert np.array_equal(line_voltage(x_a, x_b, 24.0), (u_a - u_b)[idx])


def test_voltage_segments_match_sampled_voltage():
    trains = rp_trains(0.02, 8)
    breaks, seg_values = voltage_segments(trains, 24.0, phase="a")
    assert breaks[0] == 0.0
    assert breaks[-1] == trains[0].duration
    assert seg_values.size == breaks.size - 1

    waves = [sample(tr, 1e6) for tr in trains]
    x_a, x_b, x_c = (w.values for w in waves)
    u_a = 24.0 * (2.0 * x_a - x_b - x_c) / 3.0  # the bridge law, as the oracle
    t = np.arange(x_a.size) / 1e6
    idx = np.clip(np.searchsorted(breaks, t, side="right") - 1, 0, seg_values.size - 1)
    assert np.array_equal(seg_values[idx], u_a)


@st.composite
def shared_edge_trains(draw):
    """Three phase trains whose edges are drawn from one small pool holding
    0 (or -0.0) and the schedule end, so that edges coincide across phases."""
    duration = draw(st.sampled_from((1e-3, 0.02, 1.0 / 3.0, 0.25)))
    inner = st.floats(0.0, duration, exclude_min=True, exclude_max=True)
    pool = sorted({*draw(st.lists(inner, max_size=6)), duration})
    trains = []
    for _ in "abc":
        zero = draw(st.sampled_from(([], [0.0], [-0.0])))
        picked = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
        times = np.array(zero + sorted(picked))
        end = draw(st.sampled_from((duration, times[-1:].sum())))  # the last edge, or 0
        trains.append(PulseTrain(times, end, 2500.0))
    return trains


@given(shared_edge_trains())
@example([PulseTrain(np.array([0.0, 0.25]), 0.25, 2500.0)] * 3)
def test_voltage_segments_match_the_unique_oracle(trains):
    breaks, _ = voltage_segments(trains, 24.0)
    assert same_bits(breaks, unique_voltage_breaks(trains))


def test_voltage_segments_needs_three_trains():
    records = [rec(1, 0.0, 0.004, 0.5, 0.25)]
    train = pulse_train(records, "a")
    with pytest.raises(ValueError):
        voltage_segments([train, train], 24.0)
