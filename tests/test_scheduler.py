"""Tests for strategy scheduling: step operations, lock ranges, full runs."""

import math
import time
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import notchpwm.scheduler as scheduler_module
from conftest import (
    StdlibRng,
    assert_k_range_matches_scan,
    bookkept_schedules,
    brute_k_fixed,
    brute_k_freq,
    brute_k_pos,
    brute_k_sns_rp,
    whole_slice_records,
)
from notchpwm import (
    CancelMethod,
    ConfigError,
    ModulatorConfig,
    OutOfBandError,
    PulsePosition,
    Schedule,
    SeededRng,
    SnsRfRpVariant,
    StrategyKind,
    StrategySpec,
    angle_at,
    duty_cycles,
    feasibility_min_fx,
    fixed_position_k_range,
    fixed_position_next_freq,
    k_range_sns_rf_rp_freq,
    k_range_sns_rf_rp_pos,
    k_range_sns_rp,
    next_csvpwm,
    next_freq_sns_rf_rp,
    next_position_sns_rf_rp,
    next_rp,
    schedule,
    sector_of,
    sns_rp_position,
)

MOD = ModulatorConfig(m_index=0.7, f1=50.0, u_dc=24.0)


# ---------------------------------------------------------------------------
# deterministic RNG


def test_rng_determinism():
    a = SeededRng(123)
    b = SeededRng(123)
    assert [a.uniform(0.0, 1.0) for _ in range(20)] == [
        b.uniform(0.0, 1.0) for _ in range(20)
    ]
    assert [a.randint(0, 9) for _ in range(20)] == [b.randint(0, 9) for _ in range(20)]


def test_rng_degenerate_interval_consumes_no_draw():
    a = SeededRng(5)
    b = SeededRng(5)
    assert a.uniform(3.0, 3.0) == 3.0
    assert a.randint(7, 7) == 7
    # a stayed aligned with b despite the two degenerate calls
    assert a.uniform(0.0, 1.0) == b.uniform(0.0, 1.0)
    assert a.randint(0, 100) == b.randint(0, 100)


# widths hi - lo: rejection sampling draws n.bit_length() bits for the
# n = width + 1 values, so widths 2^j - 1 (n a power of two), 2^j and
# 2^j + 1 sit on either side of a bit count; past 2^32 getrandbits joins
# several 32-bit outputs; a width of 0 or less draws nothing
_int_widths = (
    st.integers(-3, 1)
    | st.integers(1, 80).flatmap(lambda j: st.sampled_from((2**j - 1, 2**j, 2**j + 1)))
    | st.integers(2**32, 2**80)
)
_int_draws = st.tuples(st.just("randint"), st.integers(-(2**40), 2**40), _int_widths).map(
    lambda d: (d[0], d[1], d[1] + d[2])
)
_finite = st.floats(allow_nan=False, allow_infinity=False)
_float_draws = st.tuples(st.just("uniform"), _finite, _finite) | st.tuples(
    st.just("uniform"), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)
)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**64), st.lists(_int_draws | _float_draws, max_size=30))
def test_rng_draws_what_the_stdlib_draws(seed, draws):
    got, want = SeededRng(seed), StdlibRng(seed)
    for name, lo, hi in draws:
        a, b = getattr(got, name)(lo, hi), getattr(want, name)(lo, hi)
        # repr tells int from float, -0.0 from 0.0 and matches NaN
        assert repr(a) == repr(b), (name, lo, hi)
    assert got._rng.getstate() == want._rng.getstate()


# ---------------------------------------------------------------------------
# baseline step operations


def test_csvpwm_centers_pulses():
    assert next_csvpwm((0.4, 1.0, 0.0)) == (0.3, 0.0, 0.5)


def test_rp_degenerate_duty_pins_position():
    rng = SeededRng(0)
    assert next_rp((1.0, 1.0, 1.0), rng) == (0.0, 0.0, 0.0)


def test_rp_same_seed_same_positions():
    assert next_rp((0.4, 0.2, 0.0), SeededRng(7)) == next_rp(
        (0.4, 0.2, 0.0), SeededRng(7)
    )


def test_rp_uniform_mean():
    rng = SeededRng(11)
    n = 100_000
    total = 0.0
    for _ in range(n // 3 + 1):
        total += sum(next_rp((0.4, 0.4, 0.4), rng))
    mean = total / (3 * (n // 3 + 1))
    assert abs(mean - 0.3) < 0.01


def test_rf_degenerate_band():
    spec = StrategySpec(kind=StrategyKind.RF, fs_min=2500.0, fs_max=2500.0)
    ts = schedule(spec, MOD, 0.02, 0).records.ts
    assert ts.size == 50 and (ts == 1.0 / 2500.0).all()


def test_rf_uniform_mean():
    # one band draw per cycle: about 100k cycles over 40 s
    spec = StrategySpec(kind=StrategyKind.RF, fs_min=1500.0, fs_max=3500.0)
    ts = schedule(spec, MOD, 40.0, 13).records.ts
    assert ts.size > 90_000
    assert abs(np.mean(1.0 / ts) - 2500.0) < 10.0
    assert ((1.0 / 3500.0 <= ts) & (ts <= 1.0 / 1500.0)).all()


# ---------------------------------------------------------------------------
# fixed-frequency lock range and position recursion


def test_k_range_worked_example():
    assert k_range_sns_rp(7000.0, 2500.0, 0.2, 0.4) == (4, 5)


def test_k_range_single_k():
    assert k_range_sns_rp(2500.0, 2500.0, 0.0, 1.0) == (2, 2)


def test_k_range_empty():
    assert k_range_sns_rp(2500.0, 2500.0, 0.05, 0.99) is None


def test_k_range_rise_after_fall_needs_d_prev():
    with pytest.raises(ValueError):
        k_range_sns_rp(7000.0, 2500.0, 0.2, 0.4, variant=CancelMethod.RISE_AFTER_FALL)


def test_k_range_rise_after_fall_hand_case():
    got = k_range_sns_rp(
        7000.0, 2500.0, 0.2, 0.4, variant=CancelMethod.RISE_AFTER_FALL, d_prev=0.3
    )
    assert got == (2, 3)
    # the two admissible k place the pulse inside [0, 0.6]
    for k in (2, 3):
        r = sns_rp_position(
            7000.0, 2500.0, 0.2, 0.3, 0.4, CancelMethod.RISE_AFTER_FALL, k
        )
        assert 0.0 <= r <= 0.6


def test_position_worked_examples():
    r4 = sns_rp_position(7000.0, 2500.0, 0.2, 0.0, 0.4, CancelMethod.FALL_AFTER_RISE, 4)
    r5 = sns_rp_position(7000.0, 2500.0, 0.2, 0.0, 0.4, CancelMethod.FALL_AFTER_RISE, 5)
    assert r4 == pytest.approx(0.228571, abs=1e-6)
    assert r5 == pytest.approx(0.585714, abs=1e-6)
    assert r4 == (4.0 / 7000.0) * 2500.0 + 0.2 - 0.4 - 1.0


def test_position_forced_single_k():
    r = sns_rp_position(2500.0, 2500.0, 0.0, 0.0, 1.0, CancelMethod.FALL_AFTER_RISE, 2)
    assert r == 0.0


def test_next_position_draws_within_range():
    # schedule()'s lock step draws k from the closed-form range of the
    # previous cycle and places the pulse by the recursion, snapped into
    # [0, 1 - d] when outside by roundoff only
    for method in CancelMethod:
        spec = spec_for(StrategyKind.SNS_RP, cancel_method=method)
        res = schedule(spec, MOD, 0.1, 3)
        offsets = set()
        for prev, cur in zip(res.records, res.records[1:]):
            for i in range(3):
                k = cur.k_used[i]
                if k is None:
                    continue
                d_prev, d, r_prev = prev.duty[i], cur.duty[i], prev.position[i]
                lo, hi = k_range_sns_rp(7000.0, 2500.0, r_prev, d, method, d_prev)
                assert lo <= k <= hi
                offsets.add(k - lo)
                r = sns_rp_position(7000.0, 2500.0, r_prev, d_prev, d, method, k)
                assert abs(cur.position[i] - r) <= 1e-9
                assert cur.position[i] == min(max(r, 0.0), 1.0 - d)
        assert len(offsets) > 1  # draws spread over the range


def test_k_range_matches_brute_force_scan():
    rng = SeededRng(42)
    for _ in range(500):
        fx = rng.uniform(3000.0, 20000.0)
        fs = rng.uniform(1000.0, 5000.0)
        r = rng.uniform(0.0, 1.0)
        d = rng.uniform(0.0, 1.0)
        assert k_range_sns_rp(fx, fs, r, d) == brute_k_sns_rp(fx, fs, r, d)
        d_prev = rng.uniform(0.0, 1.0)
        got = k_range_sns_rp(
            fx, fs, r, d, variant=CancelMethod.RISE_AFTER_FALL, d_prev=d_prev
        )
        want = brute_k_sns_rp(fx, fs, r, d, CancelMethod.RISE_AFTER_FALL, d_prev)
        assert got == want


def test_feasibility_limits():
    assert feasibility_min_fx(
        CancelMethod.FALL_AFTER_RISE, 2500.0, 0.0, 1.0
    ) == pytest.approx(2500.0 / 3.0)
    assert feasibility_min_fx(CancelMethod.RISE_AFTER_FALL, 2500.0, 0.0, 1.0) == 1250.0
    assert feasibility_min_fx(
        CancelMethod.FALL_AFTER_RISE, 10000.0, 0.0, 0.7
    ) == pytest.approx(10000.0 / 2.7)


def test_feasibility_limit_is_necessary():
    # below the limit no lock integer exists for any reachable state; the
    # limit is necessary only, so feasibility returns at some higher fx
    fs, d = 2500.0, 0.5
    limit = feasibility_min_fx(CancelMethod.FALL_AFTER_RISE, fs, d, d)
    rng = SeededRng(9)
    below = comfortably_above = 0
    for _ in range(2000):
        r = rng.uniform(0.0, 1.0 - d)
        if k_range_sns_rp(limit * 0.999, fs, r, d) is not None:
            below += 1
        if k_range_sns_rp(2.8 * fs, fs, r, d) is not None:
            comfortably_above += 1
    assert below == 0
    assert comfortably_above > 1500


# ---------------------------------------------------------------------------
# banded lock ranges (frequency direction and position direction)


def test_freq_direction_k_range_worked_example():
    got = k_range_sns_rf_rp_freq(7000.0, 2500.0, 0.2, 0.3, 0.4, 1500.0, 3500.0)
    assert got == (4, 5)


def test_freq_direction_k_range_empty():
    got = k_range_sns_rf_rp_freq(7000.0, 2500.0, 0.99, 0.0, 0.01, 3400.0, 3500.0)
    assert got is None


def test_freq_direction_degenerate_band_single_k():
    rng = SeededRng(21)
    for _ in range(200):
        fx = rng.uniform(3000.0, 20000.0)
        fs_prev = rng.uniform(1500.0, 3500.0)
        f = rng.uniform(1500.0, 3500.0)
        r_prev = rng.uniform(0.0, 1.0)
        r_next = rng.uniform(0.0, 0.6)
        d = rng.uniform(0.0, 1.0 - r_next)
        got = k_range_sns_rf_rp_freq(fx, fs_prev, r_prev, r_next, d, f, f)
        assert got is None or got[0] == got[1]


def test_next_freq_worked_example():
    fs = next_freq_sns_rf_rp(7000.0, 2500.0, 0.2, 0.3, 0.4, 4)
    assert fs == pytest.approx(2784.0909090909086, rel=1e-12)
    assert 1500.0 <= fs <= 3500.0


def test_next_freq_round_trip_reproduces_position():
    fs = next_freq_sns_rf_rp(7000.0, 2500.0, 0.2, 0.3, 0.4, 4)
    r = next_position_sns_rf_rp(7000.0, 2500.0, fs, 0.2, 0.4, 4)
    assert r == pytest.approx(0.3, abs=1e-9)


def test_next_freq_out_of_band_raises():
    # k = 3 is outside the worked example's range (4, 4): the law itself
    # is a closed form, and the lock step's check rejects its value
    fs = next_freq_sns_rf_rp(7000.0, 2500.0, 0.2, 0.3, 0.4, 3)
    assert not 1500.0 <= fs <= 3500.0
    with pytest.raises(OutOfBandError):
        scheduler_module._checked(fs, 1500.0, 3500.0, "sns_rf_rp")


def test_bound_check_snaps_roundoff_only():
    checked = scheduler_module._checked
    # positions: 1e-9 absolute slack at bounds of at most 1 in magnitude
    assert checked(0.25, 0.0, 0.6, "p") == 0.25
    assert checked(-1e-9, 0.0, 0.6, "p") == 0.0
    assert checked(0.6 + 1e-9, 0.0, 0.6, "p") == 0.6
    for r in (-2e-9, 0.6 + 2e-9):
        with pytest.raises(OutOfBandError):
            checked(r, 0.0, 0.6, "p")
    # frequencies: 1e-9 of the bound itself
    assert checked(1500.0 * (1.0 - 0.9e-9), 1500.0, 3500.0, "f") == 1500.0
    assert checked(3500.0 * (1.0 + 0.9e-9), 1500.0, 3500.0, "f") == 3500.0
    for fs in (1500.0 * (1.0 - 1.1e-9), 3500.0 * (1.0 + 1.1e-9)):
        with pytest.raises(OutOfBandError):
            checked(fs, 1500.0, 3500.0, "f")
    with pytest.raises(OutOfBandError, match="sns_rp"):
        checked(math.nan, 0.0, 0.6, "sns_rp")


def test_pos_direction_k_range_worked_example():
    assert k_range_sns_rf_rp_pos(7000.0, 2500.0, 3000.0, 0.2, 0.4) == (4, 4)


def test_pos_direction_full_duty_single_k():
    rng = SeededRng(22)
    for _ in range(200):
        fx = rng.uniform(3000.0, 20000.0)
        fs_prev = rng.uniform(1500.0, 3500.0)
        fs_next = rng.uniform(1500.0, 3500.0)
        r_prev = rng.uniform(0.0, 1.0)
        got = k_range_sns_rf_rp_pos(fx, fs_prev, fs_next, r_prev, 1.0)
        assert got is None or got[0] == got[1]


def test_pos_direction_near_full_duty_matches_scan():
    got = k_range_sns_rf_rp_pos(7000.0, 2500.0, 3000.0, 0.2, 0.99)
    assert got == brute_k_pos(7000.0, 2500.0, 3000.0, 0.2, 0.99)


def test_next_position_banded_worked_example():
    r = next_position_sns_rf_rp(7000.0, 2500.0, 3000.0, 0.2, 0.4, 4)
    assert r == pytest.approx(0.3542857142857143, abs=1e-12)


def test_next_position_banded_inverse_recovers_frequency():
    r = next_position_sns_rf_rp(7000.0, 2500.0, 3000.0, 0.2, 0.4, 4)
    fs = next_freq_sns_rf_rp(7000.0, 2500.0, 0.2, r, 0.4, 4)
    assert fs == pytest.approx(3000.0, rel=1e-6)


def test_constant_frequency_reduces_to_fixed_recursion():
    rng = SeededRng(23)
    for _ in range(500):
        fx = rng.uniform(3000.0, 20000.0)
        fs = rng.uniform(1500.0, 3500.0)
        r = rng.uniform(0.0, 1.0)
        d = rng.uniform(0.0, 1.0)
        kr = k_range_sns_rp(fx, fs, r, d)
        if kr is None:
            continue
        k = rng.randint(*kr)
        fixed = sns_rp_position(fx, fs, r, 0.0, d, CancelMethod.FALL_AFTER_RISE, k)
        banded = next_position_sns_rf_rp(fx, fs, fs, r, d, k)
        assert abs(fixed - banded) <= 1e-12


def test_banded_k_ranges_match_brute_force_scan():
    rng = SeededRng(24)
    for _ in range(500):
        fx = rng.uniform(3000.0, 20000.0)
        fs_prev = rng.uniform(1500.0, 3500.0)
        r_prev = rng.uniform(0.0, 1.0)
        r_next = rng.uniform(0.0, 1.0)
        d = rng.uniform(0.0, 1.0 - r_next)
        lo = rng.uniform(1000.0, 3000.0)
        hi = lo + rng.uniform(0.0, 2000.0)
        assert k_range_sns_rf_rp_freq(
            fx, fs_prev, r_prev, r_next, d, lo, hi
        ) == brute_k_freq(fx, fs_prev, r_prev, r_next, d, lo, hi)
        fs_next = rng.uniform(1500.0, 3500.0)
        d2 = rng.uniform(0.0, 1.0)
        assert k_range_sns_rf_rp_pos(
            fx, fs_prev, fs_next, r_prev, d2
        ) == brute_k_pos(fx, fs_prev, fs_next, r_prev, d2)


# drawn lock states: notch and switching frequencies keep every k of the
# closed forms inside the oracles' K_SCAN, and shares lie in [0, 1].  A
# k at either end of a range may solve to its bound only to within
# roundoff, which the lock step snaps up to _BOUND_TOL, so the ends are
# compared up to that.  The laws that solve a frequency divide a duty
# share by the distance of a*k from c; for a share near 0 both are near
# 0, down to a distance of exactly 0, so those draw shares (and their
# complements) down to the least subnormal
_fx = st.floats(3000.0, 20000.0)
_fs = st.floats(1000.0, 5000.0)
_share = st.floats(0.0, 1.0)
_freq_share = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True) | st.sampled_from(
    (5e-324, 1e-300, 1e-20, 1e-12, 1e-9, 1.0 - 2.0**-53)
)


@settings(max_examples=300, deadline=None)
@given(_fx, _fs, _share, _share, _share, st.sampled_from(CancelMethod))
def test_k_range_sns_rp_matches_brute_force_on_drawn_states(fx, fs, r_prev, d_prev, d_next, method):
    assert_k_range_matches_scan(
        k_range_sns_rp(fx, fs, r_prev, d_next, method, d_prev),
        lambda slack: brute_k_sns_rp(fx, fs, r_prev, d_next, method, d_prev, slack),
    )


@settings(max_examples=300, deadline=None)
@given(_fx, _fs, _share, _share, _freq_share, _fs, _fs)
def test_k_range_sns_rf_rp_freq_matches_brute_force_on_drawn_states(
    fx, fs_prev, r_prev, r_next, d_next, fs_a, fs_b
):
    fs_min, fs_max = min(fs_a, fs_b), max(fs_a, fs_b)
    # the pulse ends inside its cycle, r_next + d_next <= 1
    r_next *= 1.0 - d_next
    assert_k_range_matches_scan(
        k_range_sns_rf_rp_freq(fx, fs_prev, r_prev, r_next, d_next, fs_min, fs_max),
        lambda slack: brute_k_freq(fx, fs_prev, r_prev, r_next, d_next, fs_min, fs_max, slack),
    )


@settings(max_examples=300, deadline=None)
@given(_fx, _fs, _fs, _share, _share)
def test_k_range_sns_rf_rp_pos_matches_brute_force_on_drawn_states(
    fx, fs_prev, fs_next, r_prev, d_next
):
    assert_k_range_matches_scan(
        k_range_sns_rf_rp_pos(fx, fs_prev, fs_next, r_prev, d_next),
        lambda slack: brute_k_pos(fx, fs_prev, fs_next, r_prev, d_next, slack),
    )


def test_a_share_below_roundoff_falls_back_instead_of_dividing_by_zero():
    # fx / fs_prev is exactly 3, and a duty share of 1e-20 is below its
    # roundoff: k = 3 would leave a distance of exactly 0 to divide by
    with pytest.raises(ZeroDivisionError):
        fixed_position_next_freq(
            PulsePosition.FRONT, CancelMethod.FALL_AFTER_RISE, 3000.0, 1000.0, 0.0, 1e-20, 3
        )
    with pytest.raises(ZeroDivisionError):
        next_freq_sns_rf_rp(3000.0, 1000.0, 0.0, 0.0, 1e-20, 3)
    assert (
        fixed_position_k_range(
            PulsePosition.FRONT, CancelMethod.FALL_AFTER_RISE, 3000.0, 1000.0, 0.0, 1e-20, 1000.0, 1000.0
        )
        is None
    )
    assert k_range_sns_rf_rp_freq(3000.0, 1000.0, 0.0, 0.0, 1e-20, 1000.0, 1000.0) is None


def test_a_share_near_roundoff_ranges_the_k_by_their_solves():
    # a share term of 1e-15 against 1e-3: the closed form admits k = 3,
    # whose solve misses the 1000 Hz band by about 1e-4 relative
    fx, fs_prev, r, fs = 3000.0, 1000.0, 1e-12, 1000.0
    solved = next_freq_sns_rf_rp(fx, fs_prev, r, r, 1e-300, 3)
    assert not fs <= solved <= fs and abs(solved - fs) > 1e-9 * fs
    assert k_range_sns_rf_rp_freq(fx, fs_prev, r, r, 1e-300, fs, fs) is None
    # and the other way: its bounds round past k = 3, whose solve lies
    # well inside [4021.2, 4400.1] Hz
    state = (12873.872452183028, 2779.766267303536, 0.35223074231279006, 0.0, 2.3136238337365415e-14)
    band = (4021.204247157232, 4400.130378404499)
    assert band[0] < next_freq_sns_rf_rp(*state, 3) < band[1] * (1.0 - 1e-6)
    assert k_range_sns_rf_rp_freq(*state, *band) == (3, 3)


# ---------------------------------------------------------------------------
# fixed-position frequency laws


def test_fixed_center_worked_example():
    fs = fixed_position_next_freq(
        PulsePosition.CENTER, CancelMethod.FALL_AFTER_RISE,
        7000.0, 2500.0, 0.5, 0.5, 4,
    )
    assert fs == pytest.approx(10500.0 / 3.8, rel=1e-12)


def test_fixed_center_zero_duty_degeneration():
    for k in (3, 4, 5):
        fs = fixed_position_next_freq(
            PulsePosition.CENTER, CancelMethod.FALL_AFTER_RISE,
            7000.0, 2500.0, 0.0, 0.0, k,
        )
        assert fs == pytest.approx(7000.0 / (2.0 * k - 7000.0 / 2500.0), rel=1e-12)


def test_fixed_center_pair_cancels():
    # build the two center-positioned cycles and check the locked edge gap
    fx, fs_prev, d_prev, d_next, k = 7000.0, 2500.0, 0.5, 0.5, 4
    fs_next = fixed_position_next_freq(
        PulsePosition.CENTER, CancelMethod.FALL_AFTER_RISE,
        fx, fs_prev, d_prev, d_next, k,
    )
    ts_prev, ts_next = 1.0 / fs_prev, 1.0 / fs_next
    rise_prev = ((1.0 - d_prev) / 2.0) * ts_prev
    fall_next = ts_prev + ((1.0 - d_next) / 2.0 + d_next) * ts_next
    assert abs((fall_next - rise_prev) * fx - k) < 1e-9


def test_fixed_per_cycle_law_zero_width_infeasible():
    got = fixed_position_k_range(
        PulsePosition.FRONT, CancelMethod.RISE_AFTER_FALL,
        7000.0, 2500.0, 0.5, 1.0, 1500.0, 3500.0,
    )
    assert got is None


def test_fixed_k_range_matches_law_scan():
    rng = SeededRng(25)
    flavors = [
        (p, m)
        for p in (PulsePosition.FRONT, PulsePosition.CENTER, PulsePosition.BACK)
        for m in (CancelMethod.FALL_AFTER_RISE, CancelMethod.RISE_AFTER_FALL)
    ]
    for _ in range(300):
        fx = rng.uniform(3000.0, 20000.0)
        fs_prev = rng.uniform(1500.0, 3500.0)
        d_prev = rng.uniform(0.05, 0.95)
        d_next = rng.uniform(0.05, 0.95)
        lo = rng.uniform(1000.0, 3000.0)
        hi = lo + rng.uniform(0.0, 2000.0)
        for pos_flavor, method in flavors:
            got = fixed_position_k_range(
                pos_flavor, method, fx, fs_prev, d_prev, d_next, lo, hi
            )
            want = brute_k_fixed(pos_flavor, method, fx, fs_prev, d_prev, d_next, lo, hi)
            assert got == want, (pos_flavor, method, fx, fs_prev, d_prev, d_next, lo, hi)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(PulsePosition),
    st.sampled_from(CancelMethod),
    _fx,
    _fs,
    _share,
    _freq_share,
    _fs,
    _fs,
)
def test_fixed_k_range_matches_brute_force_on_drawn_states(
    position, method, fx, fs_prev, d_prev, d_next, fs_a, fs_b
):
    fs_min, fs_max = min(fs_a, fs_b), max(fs_a, fs_b)
    assert_k_range_matches_scan(
        fixed_position_k_range(position, method, fx, fs_prev, d_prev, d_next, fs_min, fs_max),
        lambda slack: brute_k_fixed(
            position, method, fx, fs_prev, d_prev, d_next, fs_min, fs_max, slack
        ),
    )


# ---------------------------------------------------------------------------
# full schedule runs


def spec_for(kind, **kw):
    defaults = dict(fs=2500.0, fx=7000.0)
    if kind in (StrategyKind.RF, StrategyKind.SNS_RF_RP, StrategyKind.FIXED_POS):
        defaults = dict(fs_min=1500.0, fs_max=3500.0, fx=7000.0)
    defaults.update(kw)
    return StrategySpec(kind=kind, **defaults)


ALL_SPECS = [
    spec_for(StrategyKind.CSVPWM),
    spec_for(StrategyKind.RP),
    spec_for(StrategyKind.RF),
    spec_for(StrategyKind.SNS_RP),
    spec_for(StrategyKind.SNS_RP, cancel_method=CancelMethod.RISE_AFTER_FALL),
    spec_for(StrategyKind.SNS_RF_RP),
    spec_for(
        StrategyKind.SNS_RF_RP, sns_rf_rp_variant=SnsRfRpVariant.FREQ_FROM_POSITION
    ),
    spec_for(StrategyKind.FIXED_POS),
    spec_for(StrategyKind.FIXED_POS, cancel_method=CancelMethod.RISE_AFTER_FALL),
]


def test_schedule_determinism():
    for spec in ALL_SPECS:
        a = schedule(spec, MOD, 0.1, 17)
        b = schedule(spec, MOD, 0.1, 17)
        assert a.records == b.records
        c = schedule(spec, MOD, 0.1, 18)
        assert a.records != c.records or spec.kind is StrategyKind.CSVPWM


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_schedule_calls_angle_and_duty_laws_once_per_cycle(monkeypatch, spec):
    # angle_at and duty_cycles are looked up on the module for every
    # cycle, so wrapping them there sees each cycle's angle exactly once
    calls = {"angle_at": [], "duty_cycles": []}
    for name, law in (("angle_at", angle_at), ("duty_cycles", duty_cycles)):

        def counted(*args, _law=law, _calls=calls[name]):
            _calls.append(args)
            return _law(*args)

        monkeypatch.setattr(scheduler_module, name, counted)
    result = schedule(spec, MOD, 0.05, 3)
    thetas = [angle_at(MOD, t) for t in result.records.t_m.tolist()]
    assert len(thetas) == result.stats.cycles > 0
    assert calls["angle_at"] == [(MOD, t) for t in result.records.t_m.tolist()]
    # the scheduler hands over the sector it already found
    assert calls["duty_cycles"] == [(MOD, theta, sector_of(theta)) for theta in thetas]


@pytest.mark.parametrize("position", list(PulsePosition))
def test_fixed_positions_follow_their_closed_forms(position):
    spec = spec_for(StrategyKind.FIXED_POS, fixed_position=position)
    records = schedule(spec, MOD, 0.1, 2).records
    off = 1.0 - records.duty
    want = {
        PulsePosition.FRONT: np.zeros_like(off),
        PulsePosition.CENTER: off / 2.0,
        PulsePosition.BACK: off,
    }[position]
    assert np.array_equal(records.position.view(np.uint64), want.view(np.uint64))


def test_schedule_zero_duration_is_empty():
    res = schedule(spec_for(StrategyKind.RP), MOD, 0.0, 1)
    assert res.records == []
    assert res.stats.cycles == 0


@pytest.mark.parametrize("duration", [-1.0, -1e-12, math.inf, -math.inf, math.nan])
def test_schedule_rejects_negative_and_nonfinite_duration(duration):
    with pytest.raises(ConfigError, match="duration"):
        schedule(spec_for(StrategyKind.RP), MOD, duration, 0)


def _no_cycle_may_start(*args):
    raise AssertionError("schedule() started a cycle past the cycle-count guard")


@pytest.mark.parametrize(
    "spec",
    [
        spec_for(StrategyKind.RP, fs=1e12),
        spec_for(StrategyKind.SNS_RP, fs=1e12),
        spec_for(StrategyKind.RF, fs_max=1e12),
        spec_for(StrategyKind.FIXED_POS, fs_max=1e12),
    ],
)
def test_schedule_cycle_count_guard_fires_before_any_cycle(monkeypatch, spec):
    # every cycle begins with angle_at: a run that got past the guard fails
    # here at once instead of growing 1e12 records
    monkeypatch.setattr(scheduler_module, "angle_at", _no_cycle_may_start)
    with pytest.raises(ConfigError, match="cycles"):
        schedule(spec, MOD, 1.0, 0)


def test_schedule_cycle_count_guard_bound(monkeypatch):
    monkeypatch.setattr(scheduler_module, "MAX_CYCLES", 100)
    spec = spec_for(StrategyKind.RP)
    assert schedule(spec, MOD, 0.04, 0).stats.cycles >= 100  # 0.04 * 2500 = 100
    with pytest.raises(ConfigError, match="more than 100 cycles"):
        schedule(spec, MOD, 0.0404, 0)
    band = spec_for(StrategyKind.RF, fs_min=1000.0, fs_max=3500.0)
    with pytest.raises(ConfigError):  # bounded by fs_max, not the mean rate
        schedule(band, MOD, 0.04, 0)


def test_schedule_covers_duration_contiguously():
    for spec in ALL_SPECS:
        res = schedule(spec, MOD, 0.1, 3)
        recs = res.records
        assert recs[0].t_m == 0.0
        assert recs[-1].t_m < 0.1 <= recs[-1].t_m + recs[-1].ts
        for prev, cur in zip(recs, recs[1:]):
            assert cur.t_m == prev.t_m + prev.ts  # exact accumulation
            assert cur.m == prev.m + 1


def test_schedule_position_bounds():
    for spec in ALL_SPECS:
        res = schedule(spec, MOD, 0.2, 5)
        for rec in res.records:
            for i in range(3):
                d = rec.duty[i]
                if d > 0.0:
                    assert -1e-12 <= rec.position[i] <= 1.0 - d + 1e-12


def test_schedule_fixed_frequency_exact_period():
    for kind in (StrategyKind.CSVPWM, StrategyKind.RP, StrategyKind.SNS_RP):
        res = schedule(spec_for(kind), MOD, 0.05, 1)
        assert all(rec.ts == 1.0 / 2500.0 for rec in res.records)


def test_schedule_banded_frequency_in_band():
    for kind in (StrategyKind.RF, StrategyKind.SNS_RF_RP, StrategyKind.FIXED_POS):
        res = schedule(spec_for(kind), MOD, 0.1, 2)
        for rec in res.records:
            assert 1.0 / 3500.0 * (1 - 1e-9) <= rec.ts <= 1.0 / 1500.0 * (1 + 1e-9)


def test_schedule_zero_duty_placeholder():
    res = schedule(spec_for(StrategyKind.SNS_RP), MOD, 0.1, 1)
    seen = 0
    for rec in res.records:
        for i in range(3):
            if rec.duty[i] == 0.0:
                seen += 1
                assert rec.position[i] == 0.5
                assert rec.k_used[i] is None
    assert seen > 0


def test_schedule_bookkeeping_matches_records():
    for spec in ALL_SPECS:
        res = schedule(spec, MOD, 0.3, 4)
        for i in range(3):
            assert res.stats.fallbacks[i] == sum(r.fallback[i] for r in res.records)
    # chain restarts equal zero-to-nonzero duty transitions for chained kinds
    for spec in (
        spec_for(StrategyKind.SNS_RP),
        spec_for(StrategyKind.SNS_RF_RP),
        spec_for(
            StrategyKind.SNS_RF_RP, sns_rf_rp_variant=SnsRfRpVariant.FREQ_FROM_POSITION
        ),
    ):
        res = schedule(spec, MOD, 0.3, 4)
        recs = res.records
        for i in range(3):
            transitions = sum(
                1
                for prev, cur in zip(recs, recs[1:])
                if prev.duty[i] == 0.0 and cur.duty[i] > 0.0
            )
            assert res.stats.chain_restarts[i] == transitions


@pytest.mark.parametrize(
    "spec, k_range",
    [
        (spec_for(StrategyKind.SNS_RP), "k_range_sns_rp"),
        (spec_for(StrategyKind.SNS_RF_RP), "k_range_sns_rf_rp_pos"),
        (
            spec_for(
                StrategyKind.SNS_RF_RP,
                sns_rf_rp_variant=SnsRfRpVariant.FREQ_FROM_POSITION,
            ),
            "k_range_sns_rf_rp_freq",
        ),
        (spec_for(StrategyKind.FIXED_POS), "fixed_position_k_range"),
    ],
)
def test_schedule_rejects_a_k_range_one_too_wide(monkeypatch, spec, k_range):
    exact = getattr(scheduler_module, k_range)

    def one_too_wide(*args):
        kr = exact(*args)
        return None if kr is None else (kr[0], kr[1] + 1)

    monkeypatch.setattr(scheduler_module, k_range, one_too_wide)
    with pytest.raises(OutOfBandError, match=spec.kind.value):
        schedule(spec, MOD, 0.2, 4)


def test_schedule_high_modulation_falls_back():
    mod = ModulatorConfig(m_index=0.95, f1=50.0, u_dc=24.0)
    res = schedule(spec_for(StrategyKind.SNS_RP), mod, 0.3, 1)
    assert sum(res.stats.fallbacks) > 0


def test_schedule_low_fx_warns():
    spec = spec_for(StrategyKind.SNS_RP, fx=900.0)
    res = schedule(spec, MOD, 0.01, 1)
    assert len(res.stats.feasibility_warnings) == 1


def test_reference_phase_only_limits_locking():
    spec = spec_for(StrategyKind.SNS_RP, reference_phase_only=True)
    res = schedule(spec, MOD, 0.2, 1)
    assert any(rec.k_used[0] is not None for rec in res.records)
    assert all(rec.k_used[1] is None for rec in res.records)
    assert all(rec.k_used[2] is None for rec in res.records)


def test_strategy_spec_validation():
    with pytest.raises(ConfigError):
        StrategySpec(kind=StrategyKind.SNS_RP, fx=7000.0).validate()
    with pytest.raises(ConfigError):
        StrategySpec(kind=StrategyKind.RF, fs_min=3500.0, fs_max=1500.0).validate()
    with pytest.raises(ConfigError):
        StrategySpec(kind=StrategyKind.SNS_RF_RP, fs_min=1500.0, fs_max=3500.0).validate()
    for bad in (
        dict(kind=StrategyKind.RP, fs=math.inf),
        dict(kind=StrategyKind.RP, fs=math.nan),
        dict(kind=StrategyKind.SNS_RP, fs=2500.0, fx=math.nan),
        dict(kind=StrategyKind.SNS_RP, fs=2500.0, fx=math.inf),
        dict(kind=StrategyKind.RF, fs_min=1500.0, fs_max=math.inf),
        dict(kind=StrategyKind.RF, fs_min=math.nan, fs_max=3500.0),
    ):
        with pytest.raises(ConfigError):
            StrategySpec(**bad).validate()
    spec_for(StrategyKind.SNS_RP).validate()
    # the SNS_RF_RP laws pair a fall after a rise only, under either name
    raf = CancelMethod.RISE_AFTER_FALL
    for name in ("cancel_method", "sns_rp_variant"):
        with pytest.raises(ConfigError, match="sns_rf_rp locks fall_after_rise only"):
            spec_for(StrategyKind.SNS_RF_RP, **{name: raf}).validate()
        spec_for(StrategyKind.SNS_RP, **{name: raf}).validate()
        spec_for(StrategyKind.FIXED_POS, **{name: raf}).validate()


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from((StrategyKind.SNS_RP, StrategyKind.FIXED_POS)),
    method=st.sampled_from(CancelMethod),
    m_index=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_former_keyword_sets_cancel_method(kind, method, m_index, seed):
    former = spec_for(kind, sns_rp_variant=method)
    current = spec_for(kind, cancel_method=method)
    assert former == current and former.cancel_method is method
    assert replace(former, fx=7000.0) == current  # replace keeps the pairing
    mod = ModulatorConfig(m_index=m_index, f1=50.0, u_dc=24.0)
    a, b = (schedule(spec, mod, 0.02, seed).records for spec in (former, current))
    for name in ("t_m", "ts", "sector", "duty", "position", "k", "fallback"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


# ---------------------------------------------------------------------------
# cancellation chain property on full runs


def edge_instants(rec, i):
    rise = rec.t_m + rec.position[i] * rec.ts
    return rise, rise + rec.duty[i] * rec.ts


def assert_chain_locked(records, fx, phases, method, k_from_prev=False):
    """Locked consecutive pairs must put the paired edges exactly k cycles
    of fx apart."""
    checked = 0
    for prev, cur in zip(records, records[1:]):
        for i in phases:
            k = prev.k_used[i] if k_from_prev else cur.k_used[i]
            if k is None or prev.duty[i] <= 0.0 or cur.duty[i] <= 0.0:
                continue
            rise_p, fall_p = edge_instants(prev, i)
            rise_c, fall_c = edge_instants(cur, i)
            if method is CancelMethod.FALL_AFTER_RISE:
                gap = fall_c - rise_p
            else:
                gap = rise_c - fall_p
            assert abs(gap * fx - k) * 2.0 * math.pi < 1e-7, (prev.m, i, gap * fx, k)
            checked += 1
    assert checked > 100


def test_chain_property_sns_rp_fall_after_rise():
    res = schedule(spec_for(StrategyKind.SNS_RP), MOD, 0.3, 1)
    assert_chain_locked(res.records, 7000.0, (0, 1, 2), CancelMethod.FALL_AFTER_RISE)


def test_chain_property_sns_rp_rise_after_fall():
    spec = spec_for(StrategyKind.SNS_RP, cancel_method=CancelMethod.RISE_AFTER_FALL)
    res = schedule(spec, MOD, 0.3, 1)
    assert_chain_locked(res.records, 7000.0, (0, 1, 2), CancelMethod.RISE_AFTER_FALL)


def test_chain_property_banded_position_from_freq():
    res = schedule(spec_for(StrategyKind.SNS_RF_RP), MOD, 0.3, 1)
    assert_chain_locked(res.records, 7000.0, (0, 1, 2), CancelMethod.FALL_AFTER_RISE)


def test_chain_property_banded_freq_from_position():
    spec = spec_for(
        StrategyKind.SNS_RF_RP, sns_rf_rp_variant=SnsRfRpVariant.FREQ_FROM_POSITION
    )
    res = schedule(spec, MOD, 0.3, 1)
    assert_chain_locked(res.records, 7000.0, (0, 1, 2), CancelMethod.FALL_AFTER_RISE)


def test_chain_property_fixed_position_center():
    res = schedule(spec_for(StrategyKind.FIXED_POS), MOD, 0.3, 1)
    assert_chain_locked(res.records, 7000.0, (0,), CancelMethod.FALL_AFTER_RISE)


def test_chain_property_fixed_position_center_rise_after_fall():
    spec = spec_for(StrategyKind.FIXED_POS, cancel_method=CancelMethod.RISE_AFTER_FALL)
    res = schedule(spec, MOD, 0.3, 1)
    assert_chain_locked(res.records, 7000.0, (0,), CancelMethod.RISE_AFTER_FALL)


def test_chain_property_fixed_position_front():
    spec = spec_for(StrategyKind.FIXED_POS, fixed_position=PulsePosition.FRONT)
    res = schedule(spec, MOD, 0.3, 1)
    assert_chain_locked(res.records, 7000.0, (0,), CancelMethod.FALL_AFTER_RISE)


def test_chain_property_fixed_position_back_per_cycle_law():
    spec = spec_for(
        StrategyKind.FIXED_POS,
        fixed_position=PulsePosition.BACK,
        cancel_method=CancelMethod.RISE_AFTER_FALL,
    )
    res = schedule(spec, MOD, 0.3, 1)
    assert_chain_locked(res.records, 7000.0, (0,), CancelMethod.RISE_AFTER_FALL)


def test_chain_property_fixed_position_front_per_cycle_law():
    # front pulses under this pairing lock their own trailing gap, so the
    # lock integer that pins a pair sits on the earlier record
    spec = spec_for(
        StrategyKind.FIXED_POS,
        fixed_position=PulsePosition.FRONT,
        cancel_method=CancelMethod.RISE_AFTER_FALL,
    )
    res = schedule(spec, MOD, 0.3, 1)
    assert_chain_locked(
        res.records, 7000.0, (0,), CancelMethod.RISE_AFTER_FALL, k_from_prev=True
    )


# ---------------------------------------------------------------------------
# columnar schedules


@settings(max_examples=150, deadline=None)
@given(bookkept_schedules())
def test_schedule_round_trips_records_exactly(records):
    cycles = Schedule.from_records(records)
    # repr tells -0.0 from 0.0 and a numpy scalar from a Python number
    want = repr(records)
    assert repr(list(cycles)) == want
    assert repr(cycles[:]) == want
    assert repr([cycles[i] for i in range(-len(cycles), 0)]) == want
    assert repr(cycles[::-2]) == repr(records[::-2])
    assert Schedule.from_records(cycles) is cycles
    for i in (len(cycles), -len(cycles) - 1):
        with pytest.raises(IndexError):
            cycles[i]
    with pytest.raises(ValueError):
        cycles.t_m[0] = 1.0


def schedule_variants(records, i):
    """Record sequences equal to records, shorter, longer or one cycle off."""
    flipped = replace(records[i], fallback=tuple(not f for f in records[i].fallback))
    return (
        records,
        tuple(records),
        records[:-1],
        records + records[-1:],
        records[:i] + [flipped] + records[i + 1 :],
        [],
    )


@settings(max_examples=100, deadline=None)
@given(bookkept_schedules(), st.data())
def test_schedule_equality_agrees_with_record_lists(records, data):
    cycles = Schedule.from_records(records)
    i = data.draw(st.integers(0, len(records) - 1))
    for other in schedule_variants(records, i):
        want = records == list(other)
        for lhs, rhs in ((cycles, other), (other, cycles)):
            assert (lhs == rhs) is want
            assert (lhs != rhs) is not want
        assert (cycles == Schedule.from_records(other)) is want


def _drawn_slice(data, n):
    bound = st.none() | st.integers(-n - 2, n + 2)
    step = st.none() | st.integers(-n - 1, n + 1).filter(bool)
    return slice(data.draw(bound), data.draw(bound), data.draw(step))


@settings(max_examples=200, deadline=None)
@given(bookkept_schedules(), st.integers(1, 5), st.data())
def test_chunked_records_match_a_whole_slice_build(records, chunk, data):
    cycles = Schedule.from_records(records)
    rows = _drawn_slice(data, len(cycles))
    with mock.patch.object(scheduler_module, "_RECORD_CHUNK", chunk):
        got = cycles[rows]
        assert repr(list(cycles)) == repr(whole_slice_records(cycles, slice(None)))
    assert repr(got) == repr(whole_slice_records(cycles, rows))
    assert repr(got) == repr(records[rows])


@pytest.mark.parametrize("n", (255, 256, 257, 512, 513, 1023, 1024, 1025, 2048, 2049))
def test_chunked_records_at_the_chunk_boundaries(n):
    # one row either side of the first, second, fourth and eighth chunk's end
    chunk = scheduler_module._RECORD_CHUNK
    assert chunk == 256
    whole = schedule(spec_for(StrategyKind.SNS_RP), MOD, 0.83, 2).records
    cycles = Schedule(*(col[:n] for col in whole._arrays()))
    for rows in (
        slice(None),
        slice(None, None, -1),
        slice(1, None),
        slice(None, -1),
        slice(None, None, 2),
        slice(-2, None, -3),
        slice(n - 1, None, -chunk),
        slice(chunk - 1, chunk + 1),
        slice(chunk, chunk),
        slice(n, 0),
    ):
        assert repr(cycles[rows]) == repr(whole_slice_records(cycles, rows)), rows
    assert repr(list(cycles)) == repr(whole_slice_records(cycles, slice(None)))
    assert repr(cycles[-1]) == repr(whole_slice_records(cycles, slice(n - 1, n))[0])


def test_long_schedule_iterates_and_compares_without_a_whole_copy():
    records = schedule(spec_for(StrategyKind.SNS_RP), MOD, 40.0, 0).records
    assert len(records) >= 100_000
    same = Schedule(*(col.copy() for col in records._arrays()))
    tracemalloc.start()
    try:
        first = next(iter(records))
        _, iter_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        equal = records == same
        _, eq_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first.m == 1 and equal
    # one chunk of records, and one column comparison, at a time
    assert iter_peak < 2 * 2**20
    assert eq_peak < 2 * 2**20
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        assert records == same
        seconds.append(time.perf_counter() - start)
    assert min(seconds) < 0.05


def test_empty_schedule_equality():
    empty = Schedule.from_records([])
    assert empty == [] and [] == empty and empty == ()
    assert not empty != [] and not [] != empty
    assert empty != [None] and [None] != empty
    assert empty != 0 and empty != "" and empty is not None


def test_from_records_rejects_negative_lock_integers():
    rec = schedule(spec_for(StrategyKind.SNS_RP), MOD, 4e-4, 0).records[0]
    with pytest.raises(ValueError, match="nonnegative"):
        Schedule.from_records([replace(rec, k_used=(None, -1, None))])


def test_from_records_rejects_lock_integers_the_k_column_cannot_hold():
    rec = schedule(spec_for(StrategyKind.SNS_RP), MOD, 4e-4, 0).records[0]
    top = np.iinfo(np.int32).max
    assert Schedule.from_records([replace(rec, k_used=(top, None, 0))]).k.tolist() == [[top, -1, 0]]
    with pytest.raises(ValueError, match=str(top)):
        Schedule.from_records([replace(rec, k_used=(None, top + 1, None))])


@pytest.mark.parametrize(
    "spec",
    [
        StrategySpec(kind=StrategyKind.SNS_RP, fs=1e-9, fx=1e11),
        StrategySpec(kind=StrategyKind.SNS_RF_RP, fs_min=1e-9, fs_max=2e-9, fx=1e11),
        StrategySpec(kind=StrategyKind.FIXED_POS, fs_min=1e-9, fs_max=2e-9, fx=1e11),
    ],
    ids=lambda spec: spec.kind.value,
)
def test_lock_integers_too_large_for_the_k_column_are_a_config_error(spec):
    # a 10 s run of 10 to 20 cycles whose lock laws allow k up to 2e20
    with pytest.raises(ConfigError, match="lock integers"):
        schedule(spec, ModulatorConfig(0.7, 1e-9, 24.0), 1e10, 1)
    # just inside: 2 fx / fs_low + 1 equal to the int32 maximum
    fx = (np.iinfo(np.int32).max - 1) / 2.0 * 1e-9
    replace(spec, fx=fx).validate()
    with pytest.raises(ConfigError, match="lock integers"):
        replace(spec, fx=np.nextafter(fx, np.inf)).validate()


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(ALL_SPECS),
    st.sampled_from((0.3, 0.7, 0.95)),
    st.sampled_from((900.0, 7000.0, 15000.0)),
    st.integers(0, 2**32),
)
def test_scheduled_lock_integers_are_nonnegative(spec, m_index, fx, seed):
    draws = []
    randint = SeededRng.randint

    def recorded(self, lo, hi):
        draws.append(randint(self, lo, hi))
        return draws[-1]

    mod = ModulatorConfig(m_index=m_index, f1=50.0, u_dc=24.0)
    with mock.patch.object(SeededRng, "randint", recorded):
        k = schedule(replace(spec, fx=fx), mod, 0.02, seed).records.k
    # every lock integer is drawn, nonnegative, and stored in draw order,
    # so -1 can stand for a phase without one
    assert all(d >= 0 for d in draws)
    assert k[k != -1].tolist() == draws


LOCKING_KINDS = (StrategyKind.SNS_RP, StrategyKind.SNS_RF_RP, StrategyKind.FIXED_POS)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([spec for spec in ALL_SPECS if spec.kind in LOCKING_KINDS]),
    st.sampled_from((0.3, 0.7, 0.95, 1.0)),
    st.floats(900.0, 30000.0),
    st.floats(0.2, 2.0),
    st.integers(0, 2**32),
)
def test_scheduled_lock_integers_stay_under_the_validated_bound(spec, m_index, fx, scale, seed):
    # every lock law's k is at most 2 fx / fs_low: the bound that
    # StrategySpec.validate keeps inside the int32 k column
    spec = replace(
        spec,
        fx=fx,
        **{
            name: getattr(spec, name) * scale
            for name in ("fs", "fs_min", "fs_max")
            if getattr(spec, name) is not None
        },
    )
    fs_low = spec.fs if spec.kind is StrategyKind.SNS_RP else spec.fs_min
    mod = ModulatorConfig(m_index=m_index, f1=50.0, u_dc=24.0)
    k = schedule(spec, mod, 0.02, seed).records.k
    assert k.dtype == np.int32
    assert k.max(initial=-1) <= 2.0 * fx / fs_low + 1.0


# the 13 configurations of the benchmark sweep
SWEEP_SPECS = ALL_SPECS + [
    spec_for(StrategyKind.FIXED_POS, fixed_position=position, cancel_method=method)
    for position in (PulsePosition.FRONT, PulsePosition.BACK)
    for method in CancelMethod
]


@pytest.mark.parametrize("m_index", (0.3, 0.7, 0.95))
def test_schedule_with_the_stdlib_rng_is_bit_identical(monkeypatch, m_index):
    mod = ModulatorConfig(m_index=m_index, f1=50.0, u_dc=24.0)
    want = [schedule(spec, mod, 0.2, 21) for spec in SWEEP_SPECS]
    monkeypatch.setattr(scheduler_module, "SeededRng", StdlibRng)
    for spec, res in zip(SWEEP_SPECS, want):
        got = schedule(spec, mod, 0.2, 21)
        assert got.stats == res.stats, spec
        for col, ref in zip(got.records._arrays(), res.records._arrays()):
            assert col.dtype == ref.dtype and col.tobytes() == ref.tobytes(), spec


@pytest.mark.parametrize("flush_cycles", (1, 2, 7))
def test_schedule_columns_do_not_depend_on_the_list_blocks(monkeypatch, flush_cycles):
    want = [schedule(spec, MOD, 0.01, 4) for spec in ALL_SPECS]
    monkeypatch.setattr(scheduler_module, "_FLUSH_CYCLES", flush_cycles)
    for spec, res in zip(ALL_SPECS, want):
        got = schedule(spec, MOD, 0.01, 4)
        assert got.stats == res.stats
        for col, ref in zip(got.records._arrays(), res.records._arrays()):
            assert col.dtype == ref.dtype and col.shape == ref.shape
            assert col.tobytes() == ref.tobytes()


def test_schedule_builds_no_records():
    def refuse(**_fields):
        raise AssertionError("schedule() built a CycleRecord")

    with mock.patch.object(scheduler_module, "CycleRecord", refuse):
        for spec in ALL_SPECS:
            assert len(schedule(spec, MOD, 0.05, 3).records) > 0


def test_schedule_result_bytes_per_cycle():
    spec = spec_for(StrategyKind.SNS_RP)
    schedule(spec, MOD, 0.01, 0)
    tracemalloc.start()
    try:
        result = schedule(spec, MOD, 2.0, 0)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.records) == 5001
    # the columns take 80 B per cycle (10 eight-byte values, 3 four-byte
    # lock integers, a one-byte sector and 3 flags); held 81.1 B measured
    assert sum(col.nbytes for col in result.records._arrays()) == 80 * len(result.records)
    assert held / len(result.records) <= 82.0
    # building peaks at 118.5 B per cycle (CPython 3.11), in the loop: the
    # array blocks and the Python lists of the last, partial block.  The
    # join, one column at a time, peaks lower, at the blocks and one 24 B
    # column; joining every column at once beside all the blocks peaked
    # at about 201 B, and lists kept for the whole run at about 370 B
    assert peak / len(result.records) <= 125.0
    assert isinstance(result.records.k, np.ndarray)
