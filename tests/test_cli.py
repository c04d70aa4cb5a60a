"""Tests for config parsing, artifact writing, and the command line."""

import filecmp
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from dataclasses import MISSING, fields
from pathlib import Path
from unittest import mock

import hypothesis
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import notchpwm._cells as cells_module
import notchpwm.cli as cli_module
from conftest import repr_columns
from notchpwm import (
    CancelMethod,
    ConfigError,
    ModulatorConfig,
    PulsePosition,
    SnsRfRpVariant,
    StrategyKind,
    StrategySpec,
    schedule,
)
from notchpwm.cli import (
    ScenarioConfig,
    _validate_scenario,
    baseline_spec,
    main,
    modulator_config,
    parse_config,
    run_compare,
    run_flatness,
    run_simulate,
    strategy_spec,
)
from notchpwm.synthesis import line_voltage, sample

ARTIFACTS = ("cycles.csv", "psd.csv", "waveform.csv", "current.csv", "report.txt")


def write_config(path, drop=(), **overrides):
    base = {
        "strategy": "rp",
        "m_index": 0.7,
        "f1_hz": 50.0,
        "u_dc_v": 24.0,
        "duration_s": 0.04,
        "seed": 1,
        "fs_hz": 2500.0,
        "psd_segment_len": 4096,
        "export_window_s": 0.01,
    }
    base.update(overrides)
    lines = [f"{k} = {v}" for k, v in base.items() if k not in drop]
    path.write_text("\n".join(lines) + "\n")
    return path


def _cell_text(values):
    """Each cell's text as `cells` makes it for the writers, NULs dropped."""
    return [cell.tobytes().replace(b"\0", b"").decode() for cell in cells_module.cells(values).T]


def read_report(path):
    out = {}
    for line in path.read_text().splitlines()[1:]:
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_types_and_comments(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# scenario\n"
        "strategy = sns_rp   # locked positions\n"
        "m_index = 0.7\n"
        "f1_hz = 50\n"
        "u_dc_v = 24\n"
        "duration_s = 0.04\n"
        "seed = 3\n"
        "fs_hz = 2500\n"
        "fx_hz = 7000\n"
        "\n"
        "cancel_method = rise_after_fall\n"
        "reference_phase_only = yes\n"
        "psd_segment_len = 4096\n"
    )
    cfg = parse_config(path)
    assert cfg.strategy is StrategyKind.SNS_RP
    assert cfg.cancel_method is CancelMethod.RISE_AFTER_FALL
    assert cfg.reference_phase_only is True
    assert cfg.seed == 3
    assert cfg.psd_segment_len == 4096
    assert cfg.fx_hz == 7000.0
    assert cfg.out_dir == "out"  # default preserved


# per ScenarioConfig field: config text, the value it parses to (neither
# the field's default nor write_config's base value), and settings it needs
FIELD_CASES = {
    "strategy": ("sns_rp", StrategyKind.SNS_RP, dict(fx_hz=7000.0)),
    "m_index": ("0.5", 0.5, {}),
    "f1_hz": ("60", 60.0, {}),
    "u_dc_v": ("48", 48.0, {}),
    "duration_s": ("0.05", 0.05, {}),
    "seed": ("7", 7, {}),
    "fs_hz": ("2000", 2000.0, {}),
    "fs_min_hz": ("1500", 1500.0, dict(strategy="rf", fs_max_hz=3500.0)),
    "fs_max_hz": ("3500", 3500.0, dict(strategy="rf", fs_min_hz=1500.0)),
    "fx_hz": ("7000", 7000.0, {}),
    "half_band_hz": ("250", 250.0, {}),
    "sns_rf_rp_variant": (
        "freq_from_position",
        SnsRfRpVariant.FREQ_FROM_POSITION,
        {},
    ),
    "fixed_position": ("back", PulsePosition.BACK, {}),
    "cancel_method": ("rise_after_fall", CancelMethod.RISE_AFTER_FALL, {}),
    "reference_phase_only": ("on", True, {}),
    "sample_rate_hz": ("2e6", 2e6, {}),
    "psd_segment_len": ("2048", 2048, {}),
    "psd_overlap": ("0.25", 0.25, {}),
    "psd_window": ("hamming", "hamming", {}),
    "load_r_ohm": ("2.5", 2.5, {}),
    "load_l_h": ("0.001", 0.001, {}),
    "out_dir": ("elsewhere", "elsewhere", {}),
    "export_window_s": ("0.02", 0.02, {}),
}


@pytest.mark.parametrize("field", fields(ScenarioConfig), ids=lambda f: f.name)
def test_parse_config_reads_every_field(tmp_path, field):
    text, expected, needs = FIELD_CASES[field.name]
    assert expected != field.default
    settings = {**needs, field.name: text}
    cfg = parse_config(write_config(tmp_path / "run.cfg", **settings))
    value = getattr(cfg, field.name)
    assert value == expected and type(value) is type(expected)
    if field.default is MISSING:  # a required key
        with pytest.raises(ConfigError, match=f"missing required keys: {field.name}"):
            parse_config(write_config(tmp_path / "run.cfg", drop=(field.name,)))


SNS_RP = dict(strategy="sns_rp", fx_hz=7000.0)
SNS_RF_RP = dict(strategy="sns_rf_rp", fx_hz=7000.0, fs_min_hz=1500.0, fs_max_hz=3500.0)


@pytest.mark.parametrize(
    "mutate",
    [
        dict(strategy="quietest"),  # unknown enum value
        dict(m_index="lots"),  # unparsable float
        dict(duration_s=0.0),
        dict(seed=-1),
        dict(psd_overlap=1.0),
        dict(reference_phase_only="maybe"),
        dict(strategy="sns_rp"),  # missing fx_hz for a notch strategy
        dict(strategy="rf"),  # missing band
        dict(sns_rp_variant="same_cycle"),  # an unknown key
        dict(fs_hz="inf"),  # non-finite values
        dict(fs_hz="nan"),
        dict(duration_s="inf"),
        dict(duration_s="nan"),
        dict(strategy="sns_rp", fx_hz="nan"),
        dict(f1_hz="nan"),
        dict(u_dc_v="nan"),
        dict(psd_segment_len=1000),  # not a power of two
        dict(psd_window="hanning"),  # not a Welch window name
        dict(sample_rate_hz=2e5),  # below 100 samples per 2500 Hz cycle
        dict(strategy="rf", fs_min_hz=1500.0, fs_max_hz=3500.0, sample_rate_hz=3e5),
        dict(psd_segment_len=65536),  # longer than any 0.04 s run at 1 MHz
        # parsed only: 3e8 samples per phase at 1 MHz, tens of GB
        dict(strategy="sns_rp", fx_hz=7000.0, duration_s=300.0),
        # sns_rf_rp locks fall_after_rise only
        dict(SNS_RF_RP, cancel_method="rise_after_fall"),
        # cancel_method's former name is an unknown key, even with a value
        # cancel_method takes
        dict(SNS_RP, sns_rp_variant="rise_after_fall"),
    ],
)
def test_parse_config_rejects_bad_values(tmp_path, mutate):
    path = write_config(tmp_path / "run.cfg", **mutate)
    with pytest.raises(ConfigError):
        parse_config(path)


def test_parse_config_rejects_the_former_cancel_method_key(tmp_path):
    former = write_config(tmp_path / "former.cfg", sns_rp_variant="rise_after_fall", **SNS_RP)
    with pytest.raises(ConfigError, match=r"former.cfg:\d+: unknown key 'sns_rp_variant'$"):
        parse_config(former)
    current = write_config(tmp_path / "run.cfg", cancel_method="rise_after_fall", **SNS_RP)
    assert parse_config(current).cancel_method is CancelMethod.RISE_AFTER_FALL


@pytest.mark.parametrize(
    "settings, extra_line",
    [
        # cancel_method's former name is an unknown key, beside the key or
        # alone, with a value cancel_method takes or not
        (dict(cancel_method="rise_after_fall"), "sns_rp_variant = rise_after_fall"),
        (dict(cancel_method="fall_after_rise"), "sns_rp_variant = rise_after_fall"),
        (dict(sns_rp_variant="same_cycle"), ""),
        (dict(SNS_RF_RP, cancel_method="rise_after_fall"), ""),
        (dict(), "sns_rp_variant = rise_after_fall"),
    ],
)
def test_cancel_method_errors_exit_2_before_any_output(
    tmp_path, capsys, settings, extra_line
):
    path = write_config(tmp_path / "run.cfg", **{**SNS_RP, **settings})
    with open(path, "a") as fh:
        fh.write(extra_line + "\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: ")


def test_segment_filled_only_by_the_last_cycle_is_accepted(tmp_path):
    # 0.0326 s at 1 MHz is 32600 samples, but the run ends with its 82nd
    # 0.4 ms cycle at 0.0328 s, which gives the 32768 the segment needs
    cfg = parse_config(
        write_config(
            tmp_path / "run.cfg",
            duration_s=0.0326,
            psd_segment_len=32768,
            out_dir=tmp_path / "out",
        )
    )
    run_simulate(cfg)
    assert (tmp_path / "out" / "psd.csv").exists()


def test_raster_bound_is_on_the_most_samples_a_run_can_take(tmp_path, monkeypatch):
    sns_rp = dict(strategy="sns_rp", fx_hz=7000.0, psd_segment_len=65536)
    parse_config(write_config(tmp_path / "bench.cfg", duration_s=2.0, **sns_rp))
    parse_config(write_config(tmp_path / "20s.cfg", duration_s=20.0, **sns_rp))
    # a 2 s run at 1 MHz plus one 2500 Hz cycle, plus one
    monkeypatch.setattr(cli_module, "MAX_SAMPLES", 2_000_401)
    parse_config(write_config(tmp_path / "at.cfg", duration_s=2.0, **sns_rp))
    monkeypatch.setattr(cli_module, "MAX_SAMPLES", 2_000_400)
    with pytest.raises(ConfigError, match="samples per phase"):
        parse_config(write_config(tmp_path / "over.cfg", duration_s=2.0, **sns_rp))


@pytest.mark.parametrize(
    "settings",
    [
        dict(strategy="rp", fs_hz=2500.0),
        dict(strategy="rp", fs_hz=1234.5),
        dict(strategy="rf", fs_min_hz=1500.0, fs_max_hz=3500.0),
        dict(strategy="sns_rp", fs_hz=2500.0, fx_hz=7000.0),
    ],
)
@pytest.mark.parametrize("duration_s", [0.0041, 0.0163, 0.0327, 0.0655])
def test_segment_len_check_accepts_every_segment_the_run_fills(
    tmp_path, settings, duration_s
):
    cfg = parse_config(
        write_config(tmp_path / "run.cfg", duration_s=duration_s, **settings)
    )
    result = schedule(strategy_spec(cfg), modulator_config(cfg), duration_s, cfg.seed)
    end = result.records[-1].t_m + result.records[-1].ts
    samples = int(round(end * cfg.sample_rate_hz))
    cfg.psd_segment_len = 1 << (samples.bit_length() - 1)  # the longest that fits
    _validate_scenario(cfg)


def test_parse_config_structural_errors(tmp_path):
    path = tmp_path / "run.cfg"
    write_config(path)
    with open(path, "a") as fh:
        fh.write("volume = 11\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(path)

    write_config(path)
    with open(path, "a") as fh:
        fh.write("seed = 2\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(path)

    write_config(path, drop=("m_index",))
    with pytest.raises(ConfigError, match="missing required"):
        parse_config(path)

    path.write_text("just some words\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config(path)

    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(tmp_path / "absent.cfg")


def test_baseline_spec_band_midpoint(tmp_path):
    path = write_config(
        tmp_path / "run.cfg",
        strategy="sns_rf_rp",
        fx_hz=7000.0,
        fs_min_hz=1500.0,
        fs_max_hz=3500.0,
        drop=("fs_hz",),
    )
    cfg = parse_config(path)
    base = baseline_spec(cfg, "rp")
    assert base.kind is StrategyKind.RP
    assert base.fs == 2500.0
    rf = baseline_spec(cfg, "rf")
    assert (rf.fs_min, rf.fs_max) == (1500.0, 3500.0)
    with pytest.raises(ConfigError):
        baseline_spec(cfg, "spwm")


# ---------------------------------------------------------------------------
# run commands and artifacts


def test_simulate_writes_all_artifacts(tmp_path):
    path = write_config(tmp_path / "run.cfg", out_dir=tmp_path / "out")
    cfg = parse_config(path)
    report = run_simulate(cfg)
    assert report is None  # no notch frequency configured
    for name in ARTIFACTS:
        assert (tmp_path / "out" / name).is_file()
    cycles = (tmp_path / "out" / "cycles.csv").read_text().splitlines()
    assert cycles[0] == "# notchpwm cycles v1"
    assert cycles[1].startswith("m,t_m_s,ts_s,sector,")
    report_data = read_report(tmp_path / "out" / "report.txt")
    assert report_data["strategy"] == "rp"
    assert len(cycles) == 2 + int(report_data["cycles"])
    assert 100 <= int(report_data["cycles"]) <= 101  # 0.04 s at 2500 Hz
    assert report_data["max_reduction_db"] == ""


def test_simulate_reruns_byte_identical(tmp_path):
    path = write_config(tmp_path / "run.cfg")
    for sub in ("one", "two"):
        cfg = parse_config(path)
        cfg.out_dir = str(tmp_path / sub)
        run_simulate(cfg)
    for name in ARTIFACTS:
        assert filecmp.cmp(
            tmp_path / "one" / name, tmp_path / "two" / name, shallow=False
        ), name


def test_simulate_scores_notch_against_internal_baseline(tmp_path):
    path = write_config(
        tmp_path / "run.cfg",
        strategy="sns_rp",
        fx_hz=7000.0,
        out_dir=tmp_path / "out",
    )
    report = run_simulate(parse_config(path))
    assert report is not None
    data = read_report(tmp_path / "out" / "report.txt")
    assert data["baseline"] == "rp"
    assert data["fx_hz"] == "7000.0"
    assert float(data["max_reduction_db"]) == report.max_reduction_db
    assert data["notch_threshold_db"] == "6.0"


def test_compare_with_itself_reports_zero(tmp_path):
    path = write_config(
        tmp_path / "run.cfg", fx_hz=7000.0, out_dir=tmp_path / "out"
    )
    report = run_compare(parse_config(path), "rp")
    # the strategy is the baseline, run with the same seed
    assert report.max_reduction_db == 0.0
    assert report.mean_reduction_db == 0.0
    assert report.notch_width_hz == 0.0
    psd = (tmp_path / "out" / "psd.csv").read_text().splitlines()
    assert psd[1] == "freq_hz,psd_db_hz,psd_baseline_db_hz"


def test_compare_requires_fx(tmp_path):
    path = write_config(tmp_path / "run.cfg")
    with pytest.raises(ConfigError):
        run_compare(parse_config(path), "rp")


def test_flatness_windows(tmp_path):
    path = write_config(
        tmp_path / "run.cfg", strategy="csvpwm", out_dir=tmp_path / "out"
    )
    rows = run_flatness(parse_config(path))
    assert [r[0] for r in rows] == [2500.0, 5000.0, 7500.0, 10000.0]
    lines = (tmp_path / "out" / "flatness.csv").read_text().splitlines()
    assert lines[0] == "# notchpwm flatness v1"
    assert lines[1] == "center_hz,std_db,peak_to_mean_db"
    assert len(lines) == 2 + 4


def test_flatness_window_without_welch_bins_exits_2(tmp_path, capsys):
    # 1 MHz / 2048 gives 488 Hz bins, none within 200 Hz of 10 kHz
    cfg_path = write_config(tmp_path / "run.cfg", psd_segment_len=2048)
    out = tmp_path / "flat"
    assert main(["flatness", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "[9800.0, 10200.0] Hz" in err and "488.281 Hz bin spacing" in err
    assert "unexpected error" not in err
    assert not out.exists()  # rejected before any run


@pytest.mark.parametrize(
    "settings",
    [
        # the schedule ends at 0.030400000000000028 s, past the last sample
        dict(duration_s=0.0301, export_window_s=0.1),
        # it ends at 0.0461725 s, which rounds up to 46173 samples
        dict(fs_hz=1234.5, duration_s=0.046, export_window_s=0.1),
        dict(export_window_s=0.0123456),
        dict(sample_rate_hz=3e6, export_window_s=0.01),
    ],
)
def test_current_and_waveform_share_one_time_column(tmp_path, settings):
    cfg = parse_config(write_config(tmp_path / "run.cfg", out_dir=tmp_path / "out", **settings))
    run_simulate(cfg)

    def time_column(name):
        rows = (tmp_path / "out" / name).read_bytes().split(b"\n")[2:]
        return b"\n".join(row.split(b",")[0] for row in rows)

    waveform, current = time_column("waveform.csv"), time_column("current.csv")
    assert waveform == current
    # one row per sample of the window, as the rate's sample grid writes it
    times = np.arange(waveform.count(b"\n")) / cfg.sample_rate_hz
    assert waveform == b"".join(f"{t!r}\n".encode() for t in times.tolist())


def test_export_window_below_one_sample_writes_header_only(tmp_path):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path / "run.cfg", out_dir=out, export_window_s=1e-9)
    run_simulate(parse_config(cfg_path))
    assert (out / "waveform.csv").read_text() == (
        "# notchpwm waveform v1\ntime_s,x_a,x_b,x_c,u_ab_v\n"
    )
    assert (out / "current.csv").read_text() == (
        "# notchpwm current v1\ntime_s,i_a_amps\n"
    )


# any float64 bit pattern, with the special values drawn often
_specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2250738585072e-308, 1.0, 24.0]
_bits = st.integers(0, 2**64 - 1) | st.sampled_from(
    np.array(_specials).view(np.uint64).tolist() + [0x7FF8000000000001, 0xFFF8000000000000]
)


def _fmt_cell(value) -> str:
    """Oracle: one cell's text, by the type `tolist` gives it."""
    if isinstance(value, bytes):
        return value.decode()
    if isinstance(value, int) and value < 0:
        return ""  # k's -1: no lock integer
    return cli_module._fmt(value)


def _column_of(dtype, n):
    """Hypothesis strategy for one n-row column of the given dtype."""
    if dtype == "float64":
        return st.lists(_bits, min_size=n, max_size=n).map(
            lambda bits: np.array(bits, dtype=np.uint64).view(float)
        )
    if dtype == "int64":
        values = st.integers(-(2**63), 2**63 - 1) | st.integers(-3, 12)
        return st.lists(values, min_size=n, max_size=n).map(
            lambda ints: np.array(ints, dtype=np.int64)
        )
    if dtype == "bool":
        return st.lists(st.booleans(), min_size=n, max_size=n).map(
            lambda flags: np.array(flags, dtype=bool)
        )
    # text formatted earlier: any cell text but a comma or a line break
    text = st.text("0123456789.e+-nainf", max_size=24).map(str.encode)
    return st.lists(text, min_size=n, max_size=n).map(
        lambda cells: np.array(cells, dtype="S")
    )


_dtypes = st.sampled_from(("float64", "int64", "bool", "bytes"))


@hypothesis.settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 40).flatmap(
        lambda n: st.lists(
            _dtypes.flatmap(lambda dtype: _column_of(dtype, n)), min_size=1, max_size=4
        )
    )
)
def test_write_columns_matches_repr_per_cell(tmp_path_factory, columns):
    path = tmp_path_factory.getbasetemp() / "columns.csv"
    header = "# columns\n"
    cli_module._write_columns(path, header, columns)
    rows = zip(*(map(_fmt_cell, col.tolist()) for col in columns))
    body = "".join(",".join(row) + "\n" for row in rows)
    assert path.read_bytes() == (header + body).encode()


def test_write_columns_rejects_unequal_columns(tmp_path):
    with pytest.raises(ValueError):
        cli_module._write_columns(tmp_path / "c.csv", "", [np.ones(2), np.ones(1)])
    assert not (tmp_path / "c.csv").exists()


@hypothesis.settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 25).flatmap(
        lambda n: st.lists(
            st.tuples(st.lists(_bits, min_size=n, max_size=n), st.booleans()),
            min_size=1,
            max_size=3,
        )
    ),
    st.integers(1, 7),
)
def test_write_columns_in_row_blocks_matches_repr_per_cell(
    tmp_path_factory, columns, block_rows
):
    # each column is passed as a float array or as its text in bytes
    values = [np.array(col, dtype=np.uint64).view(float) for col, _ in columns]
    passed = [
        col if as_floats else np.array(list(map(repr, col.tolist())), dtype="S")
        for col, (_, as_floats) in zip(values, columns)
    ]
    path = tmp_path_factory.getbasetemp() / "blocks.csv"
    header = "# columns\n"
    with mock.patch.object(cli_module, "_WRITE_BLOCK_ROWS", block_rows):
        cli_module._write_columns(path, header, passed)
    assert path.read_bytes() == repr_columns(header, values).encode()


def test_write_current_csv_overhead_per_row(tmp_path):
    n = 100_000
    times = np.arange(n) / 1e6
    values = np.cumsum(np.random.default_rng(3).normal(size=n))
    time_text = cli_module._block_text(times)
    path = tmp_path / "current.csv"
    tracemalloc.start()
    try:
        cli_module.write_current_csv(path, values, time_text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    header = "# notchpwm current v1\ntime_s,i_a_amps\n"
    assert path.read_bytes() == repr_columns(header, (times, values)).encode()
    # one block of _WRITE_BLOCK_ROWS rows is formatted at a time: 10.4 B
    # per row measured with numpy 2.4; joining the whole body at once took 186
    assert peak / n <= 16.0


def test_write_waveform_csv_overhead_per_row(tmp_path):
    n = 1_000_000  # a 1 s export window at 1 MHz
    levels = (np.random.default_rng(5).random((3, n)) < 0.5).astype(np.int8)
    artifacts = cli_module.RunArtifacts(result=None, trains=None, levels=levels, psd=None)
    time_text = cli_module._block_text(np.arange(n) / 1e6)
    path = tmp_path / "waveform.csv"
    tracemalloc.start()
    try:
        cli_module.write_waveform_csv(path, artifacts, 24.0, time_text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the file as the float columns of the window wrote it
    floats = (*levels.astype(float), line_voltage(levels[0], levels[1], 24.0))
    cli_module._write_columns(tmp_path / "floats.csv", "", (time_text, *floats))
    header = b"# notchpwm waveform v1\ntime_s,x_a,x_b,x_c,u_ab_v\n"
    assert path.read_bytes() == header + (tmp_path / "floats.csv").read_bytes()
    # 0.4 B per row measured with numpy 2.4: one block of cells at a time;
    # the four float columns of the window peaked at 32.4
    assert peak / n <= 2.0


def test_shared_time_column_is_held_as_block_text():
    n = 100_000
    times = np.arange(n) / 1e6
    tracemalloc.start()
    try:
        column = cli_module._block_text(times)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert column.dtype.kind == "S" and len(column) == n
    assert _cell_text(column) == _cell_text(times)
    # 8.05 B per row held (an S8 array) and 16.1 at peak, while the
    # formatted blocks are joined, measured with numpy 2.4; one string per
    # cell held 65 B per row, and 113 while it was formatted
    assert held / n <= 16.0 and peak / n <= 24.0


def test_a_long_time_column_is_held_once():
    n = 2_000_000  # a 2 s export window at 1 MHz
    times = np.arange(n) / 1e6
    tracemalloc.start()
    try:
        column = cli_module._block_text(times)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert column.dtype == np.dtype("S8")
    assert column[[0, 1, 99_999, n - 1]].tolist() == [b"0.0", b"1e-06", b"0.099999", b"1.999999"]
    # 8.0 B per row held and 8.45 at peak, measured with numpy 2.4: the
    # column is filled in place.  Keeping every block and then their
    # concatenation peaked at 16.1
    assert held / n <= 8.5 and peak / n <= 10.0


# floats that repr writes in every layout, and the values that its digits
# are hardest to find for: sample times, rounded decimals, exact decimal
# ties, powers of two and ten, zeros, inf, nan and subnormals
_RATES = (1e6, 3e6, 44100.0, 1e6 / 3, 7e5)
_hard_floats = st.one_of(
    st.builds(lambda i, rate: i / rate, st.integers(0, 10**8), st.sampled_from(_RATES)),
    st.builds(round, st.floats(-1e6, 1e6), st.integers(0, 15)),
    st.floats(1e-6, 1e17) | st.floats(allow_nan=False, allow_infinity=False),
    # 17 significant digits ending in 5, and 18 ending in 25 or 75
    st.builds(float.__add__, st.integers(10**15, 2**51 - 1).map(float), st.sampled_from((0.25, 0.5, 0.75))),
    # whole numbers whose neighbours' midpoints are short decimals
    st.integers(2**53, 10**17).map(float),
    st.sampled_from((1234567890123456.5, 0.5, 2.5, 1e16, 1e17, 1e23, 2.0**53)),
    st.integers(-1074, 1023).map(lambda e: np.ldexp(1.0, e)),
    st.integers(-30, 30).map(lambda e: 10.0**e),
    st.sampled_from((0.0, np.inf, np.nan, 5e-324, 2.2250738585072014e-308)),
    st.floats(0.0, 2.2250738585072014e-308, allow_subnormal=True),
)


def _ulps_away(x, n):
    """The double n steps from x toward +inf (n > 0) or -inf (n < 0)."""
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return float(x)


_cell_floats = st.builds(
    lambda x, n, negative: -_ulps_away(x, n) if negative else _ulps_away(x, n),
    _hard_floats,
    st.integers(-2, 2),
    st.booleans(),
)


@hypothesis.settings(max_examples=500, deadline=None)
@given(st.lists(_cell_floats, min_size=1, max_size=40))
def test_float_cells_are_repr(values):
    assert _cell_text(np.array(values)) == list(map(repr, values))


def _sweep_values(category, rng, n):
    """n seeded draws of one category of `_hard_floats`, as an array."""
    if category == "sample times":
        return np.arange(n) / rng.choice(_RATES, n)
    if category == "rounded":
        x = np.concatenate([np.round(rng.uniform(-1e6, 1e6, n // 80), d) for d in range(16)])
        return _with_neighbours(x)
    if category == "decimal ties":
        quarters = rng.integers(4 * 10**15, 2**53, n // 2).astype(float) / 4.0
        wholes = rng.integers(2**53, 10**17, n // 2).astype(float)
        return np.concatenate([quarters, wholes, [1234567890123456.5]])
    if category == "whole numbers":
        # below 1e16, where repr writes every digit and ".0"; 1e16 - 2 is
        # the double below 1e16
        x = np.minimum(np.floor(10.0 ** rng.uniform(0.0, 16.0, n)), 1e16 - 2.0)
        x *= rng.choice([-1.0, 1.0], n)
        big = _with_neighbours(np.array([2.0**53, -(2.0**53)]))
        return np.concatenate([[0.0, -0.0], big, x])
    if category == "log-uniform":
        return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8.0, 20.0, n)
    if category == "powers":
        twos = np.ldexp(1.0, np.arange(-1074, 1024))
        tens = 10.0 ** np.arange(-30, 31)
        return _with_neighbours(np.concatenate([twos, tens, -twos, -tens]))
    if category == "special":
        # one in 20 subnormal: repr takes microseconds on each
        x = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan], n)
        subnormal = rng.random(n) < 0.05
        x[subnormal] = rng.integers(1, 2**52, subnormal.sum(), dtype=np.uint64).view(float)
        return x * rng.choice([-1.0, 1.0], n)
    assert category == "bit patterns"
    return rng.integers(0, 2**64, n, dtype=np.uint64).view(float)


def _with_neighbours(x):
    """x with each value's two neighbours on either side."""
    steps = [x]
    for direction in (np.inf, -np.inf):
        y = x
        for _ in range(2):
            y = np.nextafter(y, direction)
            steps.append(y)
    return np.concatenate(steps)


@pytest.mark.parametrize(
    "category",
    [
        "sample times",
        "rounded",
        "decimal ties",
        "whole numbers",
        "log-uniform",
        "powers",
        "special",
        "bit patterns",
    ],
)
def test_float_cells_are_repr_on_a_seeded_sweep(category):
    values = _sweep_values(category, np.random.default_rng(2024), 10**6)
    for lo in range(0, values.size, 1 << 16):
        block = values[lo : lo + (1 << 16)]
        text = "".join(f"{v!r}\n" for v in block.tolist())
        assert cli_module._rows_bytes([block]) == text.encode(), category


@pytest.mark.parametrize("legacy", [False, "1.13"])
def test_fallback_text_is_repr(legacy):
    # what the kernel hands over: nan, inf, zeros, subnormals, the extremes,
    # and whole numbers from 2^53 to 1e17, about 44 % of them ties; the text
    # is repr's whatever numpy's print options are (its float-to-bytes cast
    # writes 12 significant digits under legacy="1.13")
    rng = np.random.default_rng(26)
    big, tiny = np.finfo(float).max, np.finfo(float).tiny
    x = np.concatenate(
        [
            [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324],
            [big, -big, tiny, -tiny, 2.0**53, 1e16, 1e17, 1e-5],
            rng.integers(2**53, 10**17, 200_000).astype(float),
            rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(float),
        ]
    )
    rows = np.flatnonzero(rng.random(x.size) < 0.5)
    kept = np.ones(x.size, bool)
    kept[rows] = False
    with np.printoptions(legacy=legacy):
        out = cells_module._fallback(x, rows, np.full((3, x.size), ord("7"), np.uint8))
    assert out.shape == (24, x.size)
    assert (out[:3, kept] == ord("7")).all() and not out[3:, kept].any()
    got = out[:, rows].T.copy().view(f"S{out.shape[0]}").ravel()
    assert got.tolist() == [repr(v).encode() for v in x[rows].tolist()]


def test_the_fast_path_formats_normal_draws(monkeypatch):
    # a kernel that gave every cell to repr would pass the tests above
    fallen = []
    fallback = cells_module._fallback

    def counted(x, rows, out):
        fallen.append(rows.size)
        return fallback(x, rows, out)

    monkeypatch.setattr(cells_module, "_fallback", counted)
    rng = np.random.default_rng(7)
    values = rng.normal(size=200_000) * 10.0 ** rng.integers(-5, 15, 200_000)
    assert _cell_text(values) == list(map(repr, values.tolist()))
    assert sum(fallen) <= 0.1 * values.size


def test_the_writers_emit_no_runtime_warning(tmp_path):
    rng = np.random.default_rng(11)
    floats = np.concatenate(
        [_sweep_values(category, rng, 2000) for category in ("special", "powers", "bit patterns")]
    )
    cfg = parse_config(
        write_config(tmp_path / "run.cfg", out_dir=tmp_path / "out", **SNS_RP_NOTCH)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cli_module._write_columns(
            tmp_path / "floats.csv",
            "",
            [floats, floats.view(np.int64), floats > 0.0, np.array(list(map(repr, floats.tolist())), "S")],
        )
        cli_module._block_text(floats)
        run_simulate(cfg)
        run_compare(cfg, "csvpwm")
        run_flatness(cfg)
    rows = [row.split(",") for row in (tmp_path / "floats.csv").read_text().splitlines()]
    assert [row[0] for row in rows] == [row[3] for row in rows] == list(map(repr, floats.tolist()))


def test_write_cycles_csv_formats_a_block_at_a_time(tmp_path):
    spec = StrategySpec(kind=StrategyKind.SNS_RP, fs=2500.0, fx=7000.0)
    mod = ModulatorConfig(m_index=0.7, f1=50.0, u_dc=24.0)
    records = schedule(spec, mod, 8.0, 5).records
    tracemalloc.start()
    try:
        cli_module.write_cycles_csv(tmp_path / "cycles.csv", records)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 179 B per cycle measured with numpy 2.4, about 4 MB for one 4096-row
    # block; whole-run text columns and two blocks' cells alive at once
    # took 454
    assert len(records) == 20001 and peak / len(records) <= 300.0


# ---------------------------------------------------------------------------
# memory: full rasters live only until the PSD is estimated

SNS_RP_NOTCH = dict(strategy="sns_rp", fx_hz=7000.0)


def _recorded(monkeypatch, name):
    """Wrap cli.<name>, keeping (first argument, return value) per call."""
    calls = []
    inner = getattr(cli_module, name)

    def wrapper(*args, **kwargs):
        result = inner(*args, **kwargs)
        calls.append((args[0], result))
        return result

    monkeypatch.setattr(cli_module, name, wrapper)
    return calls


def test_run_artifacts_hold_only_the_export_window(tmp_path, monkeypatch):
    runs = _recorded(monkeypatch, "run_strategy")
    cfg = parse_config(
        write_config(tmp_path / "run.cfg", out_dir=tmp_path / "out", **SNS_RP_NOTCH)
    )
    run_simulate(cfg)
    run_compare(cfg, "csvpwm")
    cfg.export_window_s = 1.0  # longer than the 0.04 s run: all of it
    run_simulate(cfg)
    assert len(runs) == 6  # each command runs the strategy and a baseline
    for window_s, (_, artifacts) in zip([0.01] * 4 + [1.0] * 2, runs):
        levels = artifacts.levels
        n_run = sample(artifacts.trains[0], cfg.sample_rate_hz).values.size
        n_export = round(window_s * cfg.sample_rate_hz)
        assert levels.shape == (3, min(n_export, n_run))
        # an int8 array of its own, not a view into the command's raster
        assert levels.dtype == np.int8 and levels.flags.owndata
    assert levels.shape[1] == n_run < n_export


def test_run_artifacts_windows_are_float_copies_of_the_samples(tmp_path, monkeypatch):
    # x_a, x_b and x_c are held as int8 levels, and waveform.csv's cells
    # are the text of the float samples, looked up a block at a time
    runs = _recorded(monkeypatch, "run_strategy")
    columns = []
    write_columns = cli_module._write_columns

    def recorded_columns(path, header, cols):
        cols = tuple(cols)
        if path.name == "waveform.csv":
            columns.append(cols)
        write_columns(path, header, cols)

    monkeypatch.setattr(cli_module, "_write_columns", recorded_columns)
    cfg = parse_config(
        write_config(tmp_path / "run.cfg", out_dir=tmp_path / "out", **SNS_RP_NOTCH)
    )
    run_simulate(cfg)
    run_compare(cfg, "csvpwm")
    n_export = round(cfg.export_window_s * cfg.sample_rate_hz)
    for _, artifacts in runs:
        for row, train in zip(artifacts.levels, artifacts.trains):
            fresh = sample(train, cfg.sample_rate_hz).values[:n_export]
            assert np.array_equal(row, fresh)
    # simulate writes waveform.csv of its configured run, made after the
    # baseline; compare writes none
    assert len(runs) == 4 and len(columns) == 1
    (_, *waves, u_ab), (_, artifacts) = columns[0], runs[1]
    fresh = [sample(t, cfg.sample_rate_hz).values[:n_export] for t in artifacts.trains]
    expected = [*fresh, line_voltage(fresh[0], fresh[1], cfg.u_dc_v)]
    for column, values in zip([*waves, u_ab], expected, strict=True):
        assert len(column) == n_export
        assert _cell_text(column[0:n_export]) == list(map(repr, values.tolist()))


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_the_baseline_run_is_freed_before_the_configured_run_samples(
    tmp_path, monkeypatch, command
):
    runs = []  # (strategy kind, weak reference to the run's RunArtifacts)
    alive = []  # per `sample` call: which runs made so far are still held
    run_strategy, sample_into = cli_module.run_strategy, cli_module.sample

    def recorded_run(spec, *args):
        artifacts = run_strategy(spec, *args)
        runs.append((spec.kind, weakref.ref(artifacts)))
        return artifacts

    def recorded_sample(*args, **kwargs):
        alive.append([ref() is not None for _, ref in runs])
        return sample_into(*args, **kwargs)

    monkeypatch.setattr(cli_module, "run_strategy", recorded_run)
    monkeypatch.setattr(cli_module, "sample", recorded_sample)
    cfg = parse_config(
        write_config(tmp_path / "run.cfg", out_dir=tmp_path / "out", **SNS_RP_NOTCH)
    )
    getattr(cli_module, f"run_{command}")(cfg)
    assert [kind for kind, _ in runs] == [StrategyKind.RP, StrategyKind.SNS_RP]
    # the baseline samples its three phases first; by the configured run's
    # first sample only its PSD is left
    assert alive == [[]] * 3 + [[False]] * 3


def test_simulate_samples_and_estimates_on_full_rasters(tmp_path, monkeypatch):
    # the benchmark's traced work counts rest on these calls
    samples = _recorded(monkeypatch, "sample")
    estimates = _recorded(monkeypatch, "welch_psd")
    cfg = parse_config(
        write_config(tmp_path / "run.cfg", out_dir=tmp_path / "out", **SNS_RP_NOTCH)
    )
    run_simulate(cfg)
    n_full = samples[0][1].values.size
    assert n_full >= cfg.duration_s * cfg.sample_rate_hz
    assert [wave.values.size for _, wave in samples] == [n_full] * 6
    assert [waveform.values.size for waveform, _ in estimates] == [n_full] * 2


@pytest.mark.parametrize(
    "command, calls", [("simulate", 6), ("compare", 6), ("flatness", 3)]
)
def test_a_command_samples_every_phase_into_one_raster(
    tmp_path, monkeypatch, command, calls
):
    samples = _recorded(monkeypatch, "sample")
    runs = _recorded(monkeypatch, "run_strategy")
    cfg = parse_config(
        write_config(tmp_path / "run.cfg", out_dir=tmp_path / "out", **SNS_RP_NOTCH)
    )
    getattr(cli_module, f"run_{command}")(cfg)
    raster = samples[0][1].values.base
    assert raster.size == cli_module._most_samples(cfg)
    assert len(samples) == calls
    assert all(wave.values.base is raster for _, wave in samples)
    # what a run keeps is copied out of the raster that later runs overwrite
    for _, artifacts in runs:
        assert not np.shares_memory(artifacts.levels, raster)


def test_simulate_peak_memory_per_sample(tmp_path):
    cfg = parse_config(
        write_config(
            tmp_path / "run.cfg",
            duration_s=1.0,
            psd_segment_len=65536,
            export_window_s=0.1,
            out_dir=tmp_path / "out",
            **SNS_RP_NOTCH,
        )
    )
    tracemalloc.start()
    try:
        run_simulate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 13.5 B per sample measured with numpy 2.4, 9 of them the int8 x_a
    # raster and the float u_ab; running the baseline after the configured
    # run, beside what that run keeps, gave 19, holding two float rasters,
    # Welch's power table and the time column's text 25, and keeping the
    # main run's full rasters through its baseline 85
    assert peak / (cfg.duration_s * cfg.sample_rate_hz) <= 16.0


# spawns `python *argv[1:]`, stderr to /dev/null, and prints its exit code
# and ru_maxrss, from os.wait4 on it alone
_REPORT_CHILD_RSS = """
import os, sys
pid = os.posix_spawn(
    sys.executable, [sys.executable, *sys.argv[1:]], os.environ,
    file_actions=[(os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0)],
)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _child_peak_rss(*args) -> int:
    """ru_maxrss in bytes of one `python *args` child.

    Linux starts a spawned child's ru_maxrss at its parent's high-water
    mark, which for this test process can be above the child's own peak.
    So the child is spawned by a fresh interpreter, whose mark (about
    14 MB) is below any child measured here.
    """
    src = str(Path(cli_module.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    reported = subprocess.run(
        [sys.executable, "-c", _REPORT_CHILD_RSS, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    code, maxrss = map(int, reported.stdout.split())
    assert code == 0
    return maxrss * 1024  # kilobytes on Linux


def _simulate_child_peak_rss(cfg_path, out) -> int:
    """ru_maxrss in bytes of one `simulate` child."""
    argv = ("-m", "notchpwm.cli", "simulate", "--config", str(cfg_path))
    return _child_peak_rss(*argv, "--out", str(out))


@pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in kilobytes")
def test_simulate_peaks_near_its_raster_above_the_import(tmp_path):
    cfg_path = write_config(
        tmp_path / "run.cfg",
        duration_s=2.0,
        psd_segment_len=65536,
        export_window_s=0.1,
        **SNS_RP_NOTCH,
    )
    raster = 8 * cli_module._most_samples(parse_config(cfg_path))
    imported = _child_peak_rss("-c", "import notchpwm.cli")
    peak = _simulate_child_peak_rss(cfg_path, tmp_path / "out")
    # 8.9 MB above on x86-64 Linux (glibc, numpy 2.4): Welch's buffers, the
    # int8 x_a and a schedule with its trains; running the baseline after
    # the configured run, beside its schedule, trains and float export
    # windows, gave 14.7
    assert peak - imported - raster <= 11.5e6


@pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in kilobytes")
def test_a_long_export_window_peaks_after_the_raster_is_freed(tmp_path):
    cfg_path = write_config(
        tmp_path / "run.cfg",
        duration_s=2.0,
        psd_segment_len=65536,
        export_window_s=1.0,
        **SNS_RP_NOTCH,
    )
    raster = 8 * cli_module._most_samples(parse_config(cfg_path))
    imported = _child_peak_rss("-c", "import notchpwm.cli")
    peak = _simulate_child_peak_rss(cfg_path, tmp_path / "out")
    # 10.6 MB above on x86-64 Linux (glibc, numpy 2.4), after the raster is
    # freed: the window is held as int8 levels and written from lookups, and
    # rl_current holds only the current's values.  Its grid's times beside
    # them gave 18.6 (19.8 when remeasured), float columns made in
    # write_waveform_csv and rl_current's grid-length temporaries 35.3, and
    # holding four float windows from the run through every writer 82
    assert peak - imported - raster <= 16e6


@pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in kilobytes")
def test_a_whole_run_export_window_peak_rss(tmp_path):
    cfg_path = write_config(
        tmp_path / "run.cfg",
        duration_s=2.0,
        seed=3,
        psd_segment_len=65536,
        export_window_s=2.0,
        **SNS_RP_NOTCH,
    )
    peak = _simulate_child_peak_rss(cfg_path, tmp_path / "out")
    # 75.0 MiB on x86-64 Linux (glibc, numpy 2.4), in rl_current: the time
    # column's text, the int8 levels and the current's values.  The grid's
    # times beside them peaked at 90.5, and float columns in
    # write_waveform_csv and rl_current's grid-length temporaries at 121.3
    assert peak <= 80 * 2**20


@pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in kilobytes")
def test_simulate_rss_per_simulated_sample(tmp_path):
    peaks = {}
    for duration in (1.0, 8.0):
        cfg_path = write_config(
            tmp_path / f"{duration}.cfg",
            duration_s=duration,
            psd_segment_len=65536,
            export_window_s=0.1,
            **SNS_RP_NOTCH,
        )
        peaks[duration] = _simulate_child_peak_rss(cfg_path, tmp_path / f"{duration}")
    # 9.3 B per sample of a longer run, measured on x86-64 Linux (glibc,
    # numpy 2.4): the int8 x_a raster and the float u_ab; two float rasters
    # and Welch's power table alive at once gave 17
    slope = (peaks[8.0] - peaks[1.0]) / ((8.0 - 1.0) * 1e6)
    assert slope <= 10.0


@pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in kilobytes")
def test_simulate_rss_per_sample_below_the_mmap_threshold(tmp_path):
    # a 3 s run's 24 MB raster is below the 32 MiB that glibc's dynamic mmap
    # threshold can rise to, so a freed raster stays on its heap, resident
    peaks = {}
    for duration in (1.0, 3.0):
        cfg_path = write_config(
            tmp_path / f"{duration}.cfg",
            duration_s=duration,
            psd_segment_len=65536,
            export_window_s=0.1,
            **SNS_RP_NOTCH,
        )
        peaks[duration] = _simulate_child_peak_rss(cfg_path, tmp_path / f"{duration}")
    # 8.8 B per sample on x86-64 Linux (glibc, numpy 2.4) with one raster
    # for all six samples, about the raster's 8 and the int8 x_a's 1: no
    # run's raster is placed beside an earlier run's freed one
    slope = (peaks[3.0] - peaks[1.0]) / ((3.0 - 1.0) * 1e6)
    assert slope <= 12.0


def test_main_exit_codes_and_overrides(tmp_path):
    cfg_path = write_config(tmp_path / "run.cfg")
    out = tmp_path / "cli_out"
    code = main(
        ["simulate", "--config", str(cfg_path), "--out", str(out), "--seed", "9"]
    )
    assert code == 0
    data = read_report(out / "report.txt")
    assert data["seed"] == "9"

    bad = write_config(tmp_path / "bad.cfg", duration_s=-1.0)
    assert main(["simulate", "--config", str(bad)]) == 2
    # overrides are checked like values from the file, before any run
    seed_out = tmp_path / "seed_out"
    args = ["simulate", "--config", str(cfg_path), "--out", str(seed_out)]
    assert main([*args, "--seed", "-1"]) == 2
    assert not seed_out.exists()
    assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert (
        main(["compare", "--config", str(cfg_path), "--out", str(out)]) == 2
    )  # no fx_hz


@pytest.mark.parametrize(
    "mutate",
    [dict(psd_segment_len=1000), dict(psd_window="hanning"), dict(sample_rate_hz=2e5)],
)
def test_main_bad_analysis_settings_exit_2(tmp_path, capsys, mutate):
    bad = write_config(tmp_path / "bad.cfg", **mutate)
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "unexpected error" not in capsys.readouterr().err
    assert not (tmp_path / "o").exists()  # rejected before any run


@pytest.mark.parametrize("mutate", [dict(load_r_ohm=0.0), dict(load_l_h=-1.0)])
def test_main_bad_load_exit_2(tmp_path, capsys, mutate):
    bad = write_config(tmp_path / "bad.cfg", **mutate)
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "must be positive" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()  # rejected before any run


def test_rate_too_low_at_run_time_is_a_config_error(tmp_path):
    cfg = parse_config(write_config(tmp_path / "run.cfg", out_dir=tmp_path / "out"))
    cfg.sample_rate_hz = 1e5  # set after validation, as an API caller may
    with pytest.raises(ConfigError, match="samples per cycle"):
        run_simulate(cfg)


def test_main_compare_baseline_choice(tmp_path):
    cfg_path = write_config(
        tmp_path / "run.cfg",
        strategy="sns_rp",
        fx_hz=7000.0,
    )
    out = tmp_path / "cmp_out"
    code = main(
        [
            "compare",
            "--config",
            str(cfg_path),
            "--out",
            str(out),
            "--baseline",
            "csvpwm",
        ]
    )
    assert code == 0
    assert read_report(out / "report.txt")["baseline"] == "csvpwm"
