"""End-to-end acceptance gate.

Each criterion prints one [PASS]/[FAIL] line with the measured numbers so
the suite output doubles as a run report, then asserts the bound.  Long
runs (2 s of simulated time at a 1 MHz sampling rate) are built once and
cached at module scope; tests are numbered so the cache fills in file
order.
"""

import time

import numpy as np
import scipy.signal

from conftest import (
    brute_k_freq,
    brute_k_pos,
    brute_k_sns_rp,
    chain_rf_rp,
    chain_rp,
    chain_sns_rp,
    line_psd,
)
from notchpwm import (
    CancelMethod,
    ModulatorConfig,
    SampledWaveform,
    SeededRng,
    SnsRfRpVariant,
    StrategyKind,
    StrategySpec,
    analytic_psd,
    band_flatness,
    cancellation_residual,
    k_range_sns_rf_rp_freq,
    k_range_sns_rf_rp_pos,
    k_range_sns_rp,
    next_position_sns_rf_rp,
    notch_report,
    pulse_train,
    sample,
    schedule,
    sns_rp_position,
    welch_psd,
)

MOD = ModulatorConfig(m_index=0.7, f1=50.0, u_dc=24.0)
FX = 7000.0
RATE = 1e6
SEG = 65536
DURATION = 2.0
SEED = 1

SPECS = {
    "rp": StrategySpec(kind=StrategyKind.RP, fs=2500.0),
    "csvpwm": StrategySpec(kind=StrategyKind.CSVPWM, fs=2500.0),
    "rf": StrategySpec(kind=StrategyKind.RF, fs_min=1500.0, fs_max=3500.0),
    "sns_rp_fall": StrategySpec(kind=StrategyKind.SNS_RP, fs=2500.0, fx=FX),
    "sns_rp_rise": StrategySpec(
        kind=StrategyKind.SNS_RP,
        fs=2500.0,
        fx=FX,
        cancel_method=CancelMethod.RISE_AFTER_FALL,
    ),
    "sns_rf_rp": StrategySpec(
        kind=StrategyKind.SNS_RF_RP, fs_min=1500.0, fs_max=3500.0, fx=FX
    ),
}

_CACHE = {}


def long_run(tag):
    """2 s schedule -> line-voltage Welch PSD, cached with its build time."""
    if tag not in _CACHE:
        t0 = time.perf_counter()
        result = schedule(SPECS[tag], MOD, DURATION, SEED)
        est = line_psd(result.records, MOD.u_dc, rate=RATE, segment_len=SEG)
        _CACHE[tag] = (est, time.perf_counter() - t0)
    return _CACHE[tag]


def check(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_sns_rp_notch_depth_and_runtime():
    base, t_base = long_run("rp")
    est, t_test = long_run("sns_rp_fall")
    rep = notch_report(est, base, FX, 500.0)
    built = t_base + t_test
    ok = rep.max_reduction_db >= 8.0 and built < 60.0
    check(
        1,
        ok,
        f"sns_rp vs rp max reduction {rep.max_reduction_db:.2f} dB in "
        f"7 kHz +- 500 Hz (need >= 8), both runs built in {built:.1f} s "
        f"(need < 60)",
    )


def test_criterion_02_sns_rp_notch_width():
    base, _ = long_run("rp")
    est, _ = long_run("sns_rp_rise")
    rep = notch_report(est, base, FX, 500.0)
    ok = rep.notch_width_hz >= 500.0
    check(
        2,
        ok,
        f"rise-after-fall lock notch width {rep.notch_width_hz:.0f} Hz at "
        f"6 dB (need >= 500)",
    )


def test_criterion_03_sns_rf_rp_notch_depth():
    base, _ = long_run("rf")
    est, _ = long_run("sns_rf_rp")
    rep = notch_report(est, base, FX, 500.0)
    ok = rep.max_reduction_db >= 6.0
    check(
        3,
        ok,
        f"sns_rf_rp vs rf max reduction {rep.max_reduction_db:.2f} dB at "
        f"7 kHz (need >= 6)",
    )


def test_criterion_04_banded_spectrum_is_flatter_near_harmonics():
    windows = (2500.0, 5000.0, 7500.0)
    ptm = {name: {w: [] for w in windows} for name in ("sns_rp_fall", "sns_rf_rp")}
    for seed in range(5):
        for name in ptm:
            result = schedule(SPECS[name], MOD, 0.5, seed)
            est = line_psd(result.records, MOD.u_dc, rate=RATE, segment_len=SEG)
            for w in windows:
                ptm[name][w].append(band_flatness(est, w - 200.0, w + 200.0)[1])
    med = {
        name: [float(np.median(ptm[name][w])) for w in windows] for name in ptm
    }
    wins = sum(1 for a, b in zip(med["sns_rf_rp"], med["sns_rp_fall"]) if a < b)
    ok = wins >= 2
    check(
        4,
        ok,
        f"sns_rf_rp flatter in {wins}/3 windows (need >= 2); median "
        f"peak-to-mean sns_rf_rp {[f'{v:.2f}' for v in med['sns_rf_rp']]} vs "
        f"sns_rp {[f'{v:.2f}' for v in med['sns_rp_fall']]} dB at 2.5/5/7.5 kHz",
    )


def test_criterion_05_fixed_frequency_concentration():
    def excess(est):
        floor_mask = (est.freqs >= 3000.0) & (est.freqs <= 4500.0)
        floor = float(np.median(est.values[floor_mask]))
        out = []
        for center in (2500.0, 5000.0):
            m = np.abs(est.freqs - center) <= 200.0
            out.append(float(np.max(est.values[m])) - floor)
        return out

    e_csv = excess(long_run("csvpwm")[0])
    e_rp = excess(long_run("rp")[0])
    e_rf = excess(long_run("rf")[0])
    drops = [c - e for c, e in zip(e_csv, e_rp)] + [
        c - e for c, e in zip(e_csv, e_rf)
    ]
    ok = min(e_csv) >= 15.0 and min(drops) >= 8.0
    check(
        5,
        ok,
        f"csvpwm harmonic excess over its inter-harmonic floor "
        f"{e_csv[0]:.1f}/{e_csv[1]:.1f} dB at 2.5/5 kHz (need >= 15); rp "
        f"drops it by {drops[0]:.1f}/{drops[1]:.1f} dB and rf by "
        f"{drops[2]:.1f}/{drops[3]:.1f} dB (need >= 8)",
    )


def test_criterion_06_locked_chains_stay_bounded_and_rp_does_not():
    t0 = time.perf_counter()
    chains = {
        "sns_rp/fall": lambda s: chain_sns_rp(CancelMethod.FALL_AFTER_RISE, 1000, s),
        "sns_rp/rise": lambda s: chain_sns_rp(CancelMethod.RISE_AFTER_FALL, 1000, s),
        "rf_rp/pos": lambda s: chain_rf_rp(SnsRfRpVariant.POSITION_FROM_FREQ, 1000, s),
        "rf_rp/freq": lambda s: chain_rf_rp(SnsRfRpVariant.FREQ_FROM_POSITION, 1000, s),
    }
    worst = {
        name: max(cancellation_residual(make(seed), "a", FX) for seed in range(10))
        for name, make in chains.items()
    }
    rp_over = sum(
        1
        for seed in range(1000, 1100)
        if cancellation_residual(chain_rp(1000, seed), "a", FX) > 2.0
    )
    elapsed = time.perf_counter() - t0
    ok = max(worst.values()) <= 2.0 + 1e-9 and rp_over >= 99 and elapsed < 5.0
    check(
        6,
        ok,
        f"worst locked-chain residual {max(worst.values()):.4f} over 10 seeds "
        f"x 4 variants x 1000 cycles (need <= 2 + 1e-9); unlocked rp exceeds "
        f"2 in {rp_over}/100 seeds (need >= 99); {elapsed:.1f} s (need < 5)",
    )


def test_criterion_07_k_range_closed_forms_match_brute_force():
    rng = np.random.default_rng(2024)
    mismatch = [0, 0, 0]
    for _ in range(10000):
        fx = rng.uniform(3000.0, 20000.0)
        fs = rng.uniform(1000.0, 5000.0)
        d = rng.uniform(0.0, 1.0)
        r = rng.uniform(0.0, 1.0)
        if k_range_sns_rp(fx, fs, r, d) != brute_k_sns_rp(fx, fs, r, d):
            mismatch[0] += 1
    for _ in range(10000):
        fx = rng.uniform(3000.0, 20000.0)
        fs_prev = rng.uniform(1500.0, 3500.0)
        fs_lo = rng.uniform(1000.0, 3000.0)
        fs_hi = fs_lo + rng.uniform(0.0, 2000.0)
        r_prev = rng.uniform(0.0, 1.0)
        r_next = rng.uniform(0.0, 1.0)
        d = rng.uniform(0.0, 1.0 - r_next)
        got = k_range_sns_rf_rp_freq(fx, fs_prev, r_prev, r_next, d, fs_lo, fs_hi)
        if got != brute_k_freq(fx, fs_prev, r_prev, r_next, d, fs_lo, fs_hi):
            mismatch[1] += 1
    for _ in range(10000):
        fx = rng.uniform(3000.0, 20000.0)
        fs_prev = rng.uniform(1500.0, 3500.0)
        fs_next = rng.uniform(1500.0, 3500.0)
        r = rng.uniform(0.0, 1.0)
        d = rng.uniform(0.0, 1.0)
        got = k_range_sns_rf_rp_pos(fx, fs_prev, fs_next, r, d)
        if got != brute_k_pos(fx, fs_prev, fs_next, r, d):
            mismatch[2] += 1
    ok = mismatch == [0, 0, 0]
    check(
        7,
        ok,
        f"closed-form lock ranges vs integer scans: "
        f"{mismatch[0]}/{mismatch[1]}/{mismatch[2]} mismatches on 10^4 "
        f"tuples each (fixed-fs, frequency-direction, position-direction)",
    )


def test_criterion_08_degenerate_band_reproduces_fixed_fs_positions():
    fx, fs = FX, 2500.0
    rng = SeededRng(11)
    d = rng.uniform(0.1, 0.9)
    r_a = r_b = rng.uniform(0.0, 1.0 - d)
    worst_op = 0.0
    for _ in range(1000):
        while True:
            d_next = rng.uniform(0.1, 0.9)
            kr = k_range_sns_rp(fx, fs, r_a, d_next)
            if kr is not None:
                break
        assert kr == k_range_sns_rf_rp_pos(fx, fs, fs, r_b, d_next)
        k = rng.randint(*kr)
        r_a = sns_rp_position(
            fx, fs, r_a, d, d_next, CancelMethod.FALL_AFTER_RISE, k
        )
        r_b = next_position_sns_rf_rp(fx, fs, fs, r_b, d_next, k)
        worst_op = max(worst_op, abs(r_a - r_b))
        d = d_next

    banded = StrategySpec(
        kind=StrategyKind.SNS_RF_RP, fs_min=2500.0, fs_max=2500.0, fx=fx
    )
    worst_sched = 0.0
    for seed in (0, 1, 7):
        res_a = schedule(SPECS["sns_rp_fall"], MOD, 0.4, seed)
        res_b = schedule(banded, MOD, 0.4, seed)
        assert len(res_a.records) == len(res_b.records)
        for rec_a, rec_b in zip(res_a.records, res_b.records):
            assert rec_a.ts == rec_b.ts
            assert rec_a.k_used == rec_b.k_used
            assert rec_a.fallback == rec_b.fallback
            for i in range(3):
                worst_sched = max(
                    worst_sched, abs(rec_a.position[i] - rec_b.position[i])
                )
    ok = worst_op <= 1e-12 and worst_sched <= 1e-12
    check(
        8,
        ok,
        f"fs_min = fs_max band vs fixed-fs lock: position diff {worst_op:.1e} "
        f"over 1000 shared-k steps and {worst_sched:.1e} across 3 full "
        f"schedules (need <= 1e-12)",
    )


def test_criterion_09_fallback_rate_tracks_modulation_index():
    spec = SPECS["sns_rp_fall"]
    high = schedule(spec, ModulatorConfig(0.95, 50.0, 24.0), DURATION, SEED)
    low = schedule(spec, ModulatorConfig(0.3, 50.0, 24.0), DURATION, SEED)
    hf = sum(high.stats.fallbacks)
    lf = sum(low.stats.fallbacks)
    ok = hf / DURATION > 0.0 and lf <= hf / 10.0
    check(
        9,
        ok,
        f"fallbacks in {DURATION:.0f} s: {hf} at M=0.95 (need > 0/s), {lf} at "
        f"M=0.3 (need <= {hf / 10.0:.0f})",
    )


def test_criterion_10_analytic_transform_matches_fft():
    rate, seg = 1e6, 32768
    fs0 = 3051.7578125  # 100 switching cycles fill one FFT segment exactly
    duration = seg / rate
    fxo = 2.8 * fs0
    band = (0.8 * fs0, 1.2 * fs0)
    kinds = {
        "csvpwm": StrategySpec(kind=StrategyKind.CSVPWM, fs=fs0),
        "rp": StrategySpec(kind=StrategyKind.RP, fs=fs0),
        "rf": StrategySpec(kind=StrategyKind.RF, fs_min=band[0], fs_max=band[1]),
        "sns_rp": StrategySpec(kind=StrategyKind.SNS_RP, fs=fs0, fx=fxo),
        "sns_rf_rp": StrategySpec(
            kind=StrategyKind.SNS_RF_RP, fs_min=band[0], fs_max=band[1], fx=fxo
        ),
        "fixed_pos": StrategySpec(
            kind=StrategyKind.FIXED_POS, fs_min=band[0], fs_max=band[1], fx=fxo
        ),
    }

    def top3(freqs, vals):
        idx, _ = scipy.signal.find_peaks(vals, distance=10)
        order = np.argsort(vals[idx])[::-1][:3]
        return np.sort(freqs[idx[order]])

    worst_corr = 1.0
    worst_shift = 0.0
    for spec in kinds.values():
        result = schedule(spec, MOD, duration, 3)
        wave = sample(pulse_train(result.records, "a"), rate)
        assert wave.values.size >= seg
        est = welch_psd(
            SampledWaveform(values=wave.values[:seg], rate=rate),
            seg,
            overlap=0.0,
            window="boxcar",
            detrend=False,
        )
        ana = analytic_psd(result.records, "a", est.freqs[1:])
        mask = (ana.freqs >= 500.0) & (ana.freqs <= 25000.0)
        corr = float(np.corrcoef(est.values[1:][mask], ana.values[mask])[0, 1])
        shift = float(
            np.max(
                np.abs(
                    top3(ana.freqs[mask], est.values[1:][mask])
                    - top3(ana.freqs[mask], ana.values[mask])
                )
            )
        )
        worst_corr = min(worst_corr, corr)
        worst_shift = max(worst_shift, shift)
    ok = worst_corr >= 0.95 and worst_shift <= est.resolution
    check(
        10,
        ok,
        f"analytic vs Welch over 6 strategies: worst dB-curve correlation "
        f"{worst_corr:.4f} (need >= 0.95), worst top-3 peak shift "
        f"{worst_shift:.1f} Hz (need <= {est.resolution:.1f})",
    )


def test_criterion_11_high_frequency_configuration_smoke():
    rate = 5e6
    mod = ModulatorConfig(m_index=0.25, f1=50.0, u_dc=24.0)
    base_res = schedule(StrategySpec(kind=StrategyKind.RP, fs=10000.0), mod, 1.0, 1)
    base = line_psd(base_res.records, mod.u_dc, rate=rate, segment_len=SEG)
    specs = {
        "sns_rp": StrategySpec(kind=StrategyKind.SNS_RP, fs=10000.0, fx=15000.0),
        "sns_rf_rp": StrategySpec(
            kind=StrategyKind.SNS_RF_RP, fs_min=9000.0, fs_max=11000.0, fx=15000.0
        ),
    }
    depth = {}
    for name, spec in specs.items():
        result = schedule(spec, mod, 1.0, 1)
        est = line_psd(result.records, mod.u_dc, rate=rate, segment_len=SEG)
        rep = notch_report(est, base, 15000.0, 500.0)
        depth[name] = rep.max_reduction_db
    ok = min(depth.values()) >= 6.0
    check(
        11,
        ok,
        f"15 kHz notch at 10 kHz switching on line voltage: sns_rp "
        f"{depth['sns_rp']:.2f} dB, banded sns_rf_rp {depth['sns_rf_rp']:.2f} "
        f"dB (need >= 6)",
    )
