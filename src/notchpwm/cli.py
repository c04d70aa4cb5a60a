"""Scenario runner: schedule, synthesize, analyze, and export artifacts.

Subcommands:

* simulate  - run one strategy, write cycles.csv, waveform.csv, psd.csv,
  current.csv, and report.txt into the output directory.  When a notch
  frequency is configured, the report also scores the notch against an
  internally run random-position baseline with the same seed.
* compare   - run the configured strategy plus a chosen baseline kind on
  a common PSD grid; psd.csv carries both columns.
* flatness  - run one strategy and score PSD flatness in +-200 Hz
  windows centered on the first four switching-frequency multiples.

Configs are flat `key = value` text files ('#' starts a comment).
Unknown or duplicate keys are rejected: every run is fully determined by
the config file and the seed, and re-running writes byte-identical
artifacts.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from pathlib import Path
from typing import Iterable, Optional, Sequence, TextIO, get_type_hints

import numpy as np

from ._cells import cells
from .circuit import LoadParams, rl_current
from .modulator import ModulatorConfig
from .scheduler import (
    PHASES,
    CancelMethod,
    ConfigError,
    CycleRecord,
    PulsePosition,
    Schedule,
    ScheduleResult,
    SnsRfRpVariant,
    StrategyKind,
    StrategySpec,
    schedule,
)
from .spectrum import (
    WELCH_WINDOWS,
    NotchReport,
    Spectrum,
    TooShortError,
    band_flatness,
    notch_report,
    welch_psd,
)
from .synthesis import (
    MIN_SAMPLES_PER_CYCLE,
    PulseTrain,
    RateTooLowError,
    SampledWaveform,
    line_voltage,
    pulse_train,
    sample,
    voltage_segments,
)

FLATNESS_HALF_WINDOW_HZ = 200.0
FLATNESS_MULTIPLES = 4

# runs shorter than this many fundamental periods give noisy PSDs
MIN_FUNDAMENTAL_PERIODS = 50.0

# strategy kinds `compare --baseline` accepts
BASELINE_KINDS = ("rp", "csvpwm", "rf")

# most samples per phase a run may raster.  `simulate` peaks near 10 B
# per sample of a long run, 80 B per cycle of its one schedule alive at a
# time and about 13 B per export row.  At the default 0.1 s export
# window, peak RSS of 49.9 s runs at 1 MHz (numpy 2.4) was 0.52 GB for
# sns_rp at 2.5 kHz and 0.62 GB for rp at 10 kHz, so a run stays under 1 GB
MAX_SAMPLES = 50_000_000


@dataclass
class ScenarioConfig:
    """Everything a run needs, as read from one config file.

    The fields are the config keys, one name each: each value is parsed by
    its field's annotated type; fields without a default are required.
    """

    strategy: StrategyKind
    m_index: float
    f1_hz: float
    u_dc_v: float
    duration_s: float
    seed: int
    fs_hz: Optional[float] = None
    fs_min_hz: Optional[float] = None
    fs_max_hz: Optional[float] = None
    fx_hz: Optional[float] = None
    half_band_hz: float = 500.0
    sns_rf_rp_variant: SnsRfRpVariant = SnsRfRpVariant.POSITION_FROM_FREQ
    fixed_position: PulsePosition = PulsePosition.CENTER
    cancel_method: CancelMethod = CancelMethod.FALL_AFTER_RISE
    reference_phase_only: bool = False
    sample_rate_hz: float = 1e6
    psd_segment_len: int = 65536
    psd_overlap: float = 0.5
    psd_window: str = "hann"
    load_r_ohm: float = 1.02
    load_l_h: float = 0.00059
    out_dir: str = "out"
    export_window_s: float = 0.1


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_enum(enum_cls):
    def convert(text: str):
        try:
            return enum_cls(text.lower())
        except ValueError:
            choices = ", ".join(e.value for e in enum_cls)
            raise ValueError(f"expected one of {choices}, got {text!r}") from None

    return convert


# every config key is a ScenarioConfig field, parsed by its annotated type
_PARSERS = {float: float, Optional[float]: float, int: int, str: str, bool: _parse_bool}


def _converter(hint):
    if isinstance(hint, type) and issubclass(hint, Enum):
        return _parse_enum(hint)
    return _PARSERS[hint]


_CONVERTERS = {
    name: _converter(hint) for name, hint in get_type_hints(ScenarioConfig).items()
}
_REQUIRED = tuple(f.name for f in fields(ScenarioConfig) if f.default is MISSING)


def parse_config(path) -> ScenarioConfig:
    """Read a flat key = value config file into a ScenarioConfig.

    Raises ConfigError for unreadable files, unknown or duplicate keys,
    unparsable values, missing required keys, or inconsistent values.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc

    seen: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONVERTERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            seen[key] = _CONVERTERS[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc

    missing = [k for k in _REQUIRED if k not in seen]
    if missing:
        raise ConfigError(f"{path}: missing required keys: {', '.join(missing)}")

    cfg = ScenarioConfig(**seen)  # type: ignore[arg-type]
    _validate_scenario(cfg)
    return cfg


def _validate_scenario(cfg: ScenarioConfig) -> None:
    for key, value in vars(cfg).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}")
    for key in ("duration_s", "sample_rate_hz", "half_band_hz", "export_window_s"):
        value = getattr(cfg, key)
        if value <= 0.0:
            raise ConfigError(f"{key} must be positive, got {value}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {cfg.seed}")
    if not 0.0 <= cfg.psd_overlap < 1.0:
        raise ConfigError(f"psd_overlap must be in [0, 1), got {cfg.psd_overlap}")
    if cfg.psd_segment_len < 2 or cfg.psd_segment_len & (cfg.psd_segment_len - 1):
        raise ConfigError(
            f"psd_segment_len must be a power of two, got {cfg.psd_segment_len}"
        )
    if cfg.psd_window not in WELCH_WINDOWS:
        raise ConfigError(
            f"psd_window must be one of {', '.join(WELCH_WINDOWS)}, "
            f"got {cfg.psd_window!r}"
        )
    strategy_spec(cfg).validate()
    modulator_config(cfg)
    try:
        LoadParams(resistance=cfg.load_r_ohm, inductance=cfg.load_l_h)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    fs_top = max(f for f in (cfg.fs_hz, cfg.fs_max_hz) if f is not None)
    if cfg.sample_rate_hz < MIN_SAMPLES_PER_CYCLE * fs_top:
        raise ConfigError(
            f"sample_rate_hz {cfg.sample_rate_hz:g} gives fewer than "
            f"{MIN_SAMPLES_PER_CYCLE:g} samples per cycle at {fs_top:g} Hz switching"
        )
    most_samples = _most_samples(cfg)
    if most_samples > MAX_SAMPLES:
        raise ConfigError(
            f"a {cfg.duration_s:g} s run at {cfg.sample_rate_hz:g} Hz needs up to "
            f"{most_samples} samples per phase, more than the {MAX_SAMPLES} allowed"
        )
    if cfg.psd_segment_len > most_samples:
        raise ConfigError(
            f"psd_segment_len {cfg.psd_segment_len} is longer than a "
            f"{cfg.duration_s:g} s run can sample (at most {most_samples})"
        )


def _most_samples(cfg: ScenarioConfig) -> int:
    """Most samples per phase that a run of cfg, or of its baseline, rasters."""
    # the last cycle starts before duration_s and lasts at most 1 / fs_low
    fs_low = min(f for f in (cfg.fs_hz, cfg.fs_min_hz) if f is not None)
    return int((cfg.duration_s + 1.0 / fs_low) * cfg.sample_rate_hz) + 1


def strategy_spec(cfg: ScenarioConfig) -> StrategySpec:
    return StrategySpec(
        kind=cfg.strategy,
        fs=cfg.fs_hz,
        fs_min=cfg.fs_min_hz,
        fs_max=cfg.fs_max_hz,
        fx=cfg.fx_hz,
        sns_rf_rp_variant=cfg.sns_rf_rp_variant,
        fixed_position=cfg.fixed_position,
        cancel_method=cfg.cancel_method,
        reference_phase_only=cfg.reference_phase_only,
    )


def modulator_config(cfg: ScenarioConfig) -> ModulatorConfig:
    try:
        return ModulatorConfig(
            m_index=cfg.m_index, f1=cfg.f1_hz, u_dc=cfg.u_dc_v
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def baseline_spec(cfg: ScenarioConfig, kind: str) -> StrategySpec:
    """Baseline strategy inheriting the shared parameters of the config."""
    if kind not in BASELINE_KINDS:
        raise ConfigError(f"unknown baseline kind {kind!r}")
    if kind == "rf":
        if cfg.fs_min_hz is None or cfg.fs_max_hz is None:
            raise ConfigError("baseline 'rf' needs fs_min_hz and fs_max_hz")
        return StrategySpec(
            kind=StrategyKind.RF, fs_min=cfg.fs_min_hz, fs_max=cfg.fs_max_hz
        )
    fs = cfg.fs_hz
    if fs is None:
        if cfg.fs_min_hz is None or cfg.fs_max_hz is None:
            raise ConfigError(f"baseline {kind!r} needs fs_hz or a band")
        fs = 0.5 * (cfg.fs_min_hz + cfg.fs_max_hz)
    return StrategySpec(kind=StrategyKind(kind), fs=fs)


@dataclass
class RunArtifacts:
    """In-memory results of one strategy run.

    `levels` holds only the export window that waveform.csv writes: the
    0/1 switch levels of x_a, x_b and x_c (rows 0, 1 and 2) over the first
    round(export_window_s * sample_rate_hz) samples of the run, or all of
    them in a shorter run.  It is one int8 array of its own (1 byte per
    sample and phase), not a view of the command's one float raster,
    which every phase of every run is sampled into in turn.
    `write_waveform_csv` looks up the text of x_a, x_b, x_c and u_ab by it.
    """

    result: ScheduleResult
    trains: tuple[PulseTrain, PulseTrain, PulseTrain]
    levels: np.ndarray
    psd: Spectrum


def run_strategy(
    spec: StrategySpec, modcfg: ModulatorConfig, cfg: ScenarioConfig, raster: np.ndarray
) -> RunArtifacts:
    """Schedule, sample into `raster`, keep the int8 export window, and estimate u_ab's PSD."""
    result = schedule(spec, modcfg, cfg.duration_s, cfg.seed)
    trains = tuple(pulse_train(result.records, p) for p in PHASES)
    rate = cfg.sample_rate_hz
    n_export = int(round(cfg.export_window_s * rate))

    def sampled(train: PulseTrain) -> np.ndarray:
        try:
            return sample(train, rate, out=raster).values
        except RateTooLowError as exc:
            raise ConfigError(str(exc)) from exc

    # levels are exactly 0 and 1, so x_a is kept whole as int8, and each
    # export window is an int8 copy made while its phase is in `raster`:
    # x_b's before u_ab is formed in its samples, and x_c's once u_ab's
    # last full-length use is done
    levels_a = sampled(trains[0]).astype(np.int8)
    u_ab = sampled(trains[1])
    levels = np.empty((3, min(n_export, u_ab.size)), dtype=np.int8)
    levels[0] = levels_a[: levels.shape[1]]
    levels[1] = u_ab[: levels.shape[1]]
    line_voltage(levels_a, u_ab, cfg.u_dc_v, out=u_ab)
    del levels_a
    try:
        psd = welch_psd(
            SampledWaveform(values=u_ab, rate=rate),
            cfg.psd_segment_len,
            cfg.psd_overlap,
            cfg.psd_window,
        )
    except TooShortError as exc:
        raise ConfigError(str(exc)) from exc
    levels[2] = sampled(trains[2])[: levels.shape[1]]
    return RunArtifacts(result=result, trains=trains, levels=levels, psd=psd)


def _run_warnings(cfg: ScenarioConfig, artifacts: RunArtifacts) -> list[str]:
    warnings = list(artifacts.result.stats.feasibility_warnings)
    periods = cfg.duration_s * cfg.f1_hz
    if periods < MIN_FUNDAMENTAL_PERIODS:
        warnings.append(
            f"duration_s covers {periods:g} fundamental periods; "
            f"PSD variance benefits from at least {MIN_FUNDAMENTAL_PERIODS:g}"
        )
    return warnings


# ---------------------------------------------------------------------------
# artifact writers (deterministic bytes: repr floats, LF newlines, no clocks)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)  # a float's str is its repr


def _open_out(path: Path) -> TextIO:
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", newline="\n")


# rows of CSV text that `_write_columns` formats and writes at a time
_WRITE_BLOCK_ROWS = 1 << 12


def _rows_bytes(blocks: Sequence[np.ndarray]) -> bytes:
    """CSV rows of equal-length 1-D column blocks, as bytes.

    Each column's cells come from `cells` as a (width, rows) matrix;
    they are laid side by side in one NUL-padded uint8 matrix of rows,
    with a comma after each cell and a newline after the last, and the
    NULs are dropped.
    """
    matrices = [cells(block) for block in blocks]
    rows = np.empty((len(blocks[0]), sum(m.shape[0] + 1 for m in matrices)), np.uint8)
    at = 0
    for m in matrices:
        rows[:, at : at + m.shape[0]] = m.T
        at += m.shape[0] + 1
        rows[:, at - 1] = ord(",")
    rows[:, -1] = ord("\n")
    return rows.tobytes().translate(None, b"\0")


def _block_text(values: np.ndarray) -> np.ndarray:
    """A column's cells as one bytes (`S`) array, for writing more than once.

    It is filled _WRITE_BLOCK_ROWS rows at a time into one array as wide
    as the first block's widest cell; a later block with a wider cell
    copies it once into a wider array.  Sample times at 1 MHz hold 8 B
    per row.
    """
    text = np.zeros(0, dtype="S1")  # 0 rows
    for lo in range(0, values.size, _WRITE_BLOCK_ROWS):
        matrix = cells(values[lo : lo + _WRITE_BLOCK_ROWS])
        lengths = np.count_nonzero(matrix, axis=0)
        width = int(lengths.max())
        if lo == 0:
            text = np.zeros(values.size, dtype=f"S{max(width, 1)}")
        elif width > text.itemsize:
            text = text.astype(f"S{width}")
        block = text[lo : lo + lengths.size].view(np.uint8).reshape(lengths.size, -1)
        block[np.arange(text.itemsize) < lengths[:, None]] = np.frombuffer(
            matrix.T.tobytes().translate(None, b"\0"), np.uint8
        )
    return text


def _write_columns(path: Path, header: str, columns: Iterable[np.ndarray]) -> None:
    """Write equal-length 1-D arrays as CSV columns under a header.

    `_rows_bytes` formats the rows _WRITE_BLOCK_ROWS at a time, and a
    block's text is freed before the next block's is made, so the text of
    the whole file is never held.
    """
    columns = list(columns)
    lengths = sorted({len(col) for col in columns})
    if len(lengths) > 1:
        raise ValueError(f"columns have unequal lengths {lengths}")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(header.encode())
        for lo in range(0, lengths[0] if lengths else 0, _WRITE_BLOCK_ROWS):
            fh.write(_rows_bytes([col[lo : lo + _WRITE_BLOCK_ROWS] for col in columns]))


def write_cycles_csv(path: Path, records: Sequence[CycleRecord]) -> None:
    """cycles.csv, one row per cycle; k is empty where no lock was drawn."""
    cycles = Schedule.from_records(records)
    _write_columns(
        path,
        "# notchpwm cycles v1\n"
        "m,t_m_s,ts_s,sector,d_a,d_b,d_c,r_a,r_b,r_c,"
        "k_a,k_b,k_c,fallback_a,fallback_b,fallback_c\n",
        (
            np.arange(1, len(cycles) + 1),
            cycles.t_m,
            cycles.ts,
            cycles.sector,
            *cycles.duty.T,
            *cycles.position.T,
            *cycles.k.T,
            *cycles.fallback.T,
        ),
    )


def write_psd_csv(path: Path, psd: Spectrum, baseline: Optional[Spectrum] = None) -> None:
    if baseline is None:
        header = "# notchpwm psd v1\nfreq_hz,psd_db_hz\n"
        columns = (psd.freqs, psd.values)
    else:
        header = "# notchpwm psd v1\nfreq_hz,psd_db_hz,psd_baseline_db_hz\n"
        columns = (psd.freqs, psd.values, baseline.values)
    _write_columns(path, header, columns)


@dataclass(frozen=True)
class _LevelCells:
    """A column whose cells are looked up by 0/1 int8 level rows.

    Row i of `rows` is bit i of the lookup, so `table` has 2 ** len(rows)
    cells; a block of rows is gathered from it only when `_write_columns`
    slices that block, and the column is never held whole.
    """

    table: np.ndarray
    rows: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return len(self.rows[0])

    def __getitem__(self, block: slice) -> np.ndarray:
        return self.table[sum(row[block] << bit for bit, row in enumerate(self.rows))]


# (x_a, x_b) of each u_ab lookup code: bit 0 is x_a, bit 1 x_b
_LEVEL_PAIRS = np.array([[0, 1, 0, 1], [0, 0, 1, 1]], np.int8)


def write_waveform_csv(
    path: Path, artifacts: RunArtifacts, u_dc: float, time_text: np.ndarray
) -> None:
    """waveform.csv of the export window; `time_text` is its time column.

    Each cell of x_a, x_b, x_c and u_ab is looked up, a block of rows at a
    time, in the text of its value over the 2 levels or the 4 level pairs,
    made as the float column would be (`astype(float)` and
    `line_voltage`): no float column of the window is made.
    """
    levels = artifacts.levels
    x_text = _block_text(np.array([0, 1], np.int8).astype(float))
    u_text = _block_text(line_voltage(_LEVEL_PAIRS[0], _LEVEL_PAIRS[1], u_dc))
    _write_columns(
        path,
        "# notchpwm waveform v1\ntime_s,x_a,x_b,x_c,u_ab_v\n",
        (
            time_text,
            *(_LevelCells(x_text, (row,)) for row in levels),
            _LevelCells(u_text, (levels[0], levels[1])),
        ),
    )


def write_current_csv(path: Path, values: np.ndarray, time_text: np.ndarray) -> None:
    """current.csv; `time_text` is the instants of `values` through `_block_text`."""
    _write_columns(
        path,
        "# notchpwm current v1\ntime_s,i_a_amps\n",
        (time_text, values),
    )


def write_report(path: Path, entries: Sequence[tuple[str, object]]) -> None:
    with _open_out(path) as fh:
        fh.write("# notchpwm report v1\n")
        for key, value in entries:
            fh.write(f"{key} = {_fmt(value)}\n")


def _report_entries(
    cfg: ScenarioConfig,
    artifacts: RunArtifacts,
    warnings: Sequence[str],
    report: Optional[NotchReport],
    baseline_name: Optional[str],
) -> list[tuple[str, object]]:
    stats = artifacts.result.stats
    entries: list[tuple[str, object]] = [
        ("strategy", cfg.strategy.value),
        ("seed", cfg.seed),
        ("duration_s", cfg.duration_s),
        ("cycles", stats.cycles),
    ]
    for name, per_phase in (
        ("fallbacks", stats.fallbacks),
        ("chain_restarts", stats.chain_restarts),
    ):
        entries.append((name, sum(per_phase)))
        entries.extend((f"{name}_{p}", n) for p, n in zip(PHASES, per_phase))
    entries.append(("feasibility_warnings", len(stats.feasibility_warnings)))
    entries.append(("warnings", len(warnings)))
    for idx, text in enumerate(warnings, start=1):
        entries.append((f"warning_{idx}", text))
    entries.append(("psd_resolution_hz", artifacts.psd.resolution))
    entries.append(("baseline", baseline_name))
    entries.append(("fx_hz", cfg.fx_hz))
    entries.append(("half_band_hz", cfg.half_band_hz if cfg.fx_hz else None))
    for key, attr in (
        ("max_reduction_db", "max_reduction_db"),
        ("mean_reduction_db", "mean_reduction_db"),
        ("notch_width_hz", "notch_width_hz"),
        ("notch_threshold_db", "threshold_db"),
    ):
        entries.append((key, getattr(report, attr, None)))  # None without a report
    return entries


def _phase_a_current(artifacts: RunArtifacts, cfg: ScenarioConfig) -> np.ndarray:
    breaks, volts = voltage_segments(artifacts.trains, cfg.u_dc_v, "a")
    # truncate the segment list where waveform.csv's samples end, closing
    # the last partial segment there, so both files share one time column;
    # a schedule end that rounds up to that count ends the grid itself,
    # since [0, end) still holds every sample of the run
    t_end = min(artifacts.levels.shape[1] / cfg.sample_rate_hz, float(breaks[-1]))
    keep = int(np.searchsorted(breaks, t_end, side="left"))
    clipped = np.append(breaks[:keep], t_end)
    load = LoadParams(resistance=cfg.load_r_ohm, inductance=cfg.load_l_h)
    return rl_current(
        clipped, volts[: clipped.size - 1], load, sample_rate=cfg.sample_rate_hz
    )


def _run_configured(
    cfg: ScenarioConfig, raster: np.ndarray
) -> tuple[Path, RunArtifacts, list[str]]:
    """Run the configured strategy and print its warnings to stderr.

    Returns the output directory, the run, and its warnings for
    report.txt.
    """
    artifacts = run_strategy(strategy_spec(cfg), modulator_config(cfg), cfg, raster)
    warnings = _run_warnings(cfg, artifacts)
    for text in warnings:
        print(f"warning: {text}", file=sys.stderr)
    return Path(cfg.out_dir), artifacts, warnings


def _baseline_psd(
    cfg: ScenarioConfig, base_spec: StrategySpec, raster: np.ndarray
) -> Spectrum:
    """PSD of a same-seed baseline run, the first run into `raster`.

    The rest of the baseline run (schedule, trains and export windows) is
    freed on return, before the configured run starts.
    """
    return run_strategy(base_spec, modulator_config(cfg), cfg, raster).psd


def run_simulate(cfg: ScenarioConfig) -> Optional[NotchReport]:
    """Run the configured strategy and write the full artifact set.

    With a notch frequency configured, an RP baseline with the same seed
    is run internally to score the notch in report.txt; psd.csv carries
    the strategy's own PSD only.
    """
    raster = np.empty(_most_samples(cfg))
    baseline_name = None if cfg.fx_hz is None else "rp"
    base_psd = None
    if baseline_name is not None:
        base_psd = _baseline_psd(cfg, baseline_spec(cfg, baseline_name), raster)
    out, artifacts, warnings = _run_configured(cfg, raster)
    del raster  # before the writers, which would otherwise peak beside it
    report = None
    if base_psd is not None:
        report = notch_report(artifacts.psd, base_psd, cfg.fx_hz, cfg.half_band_hz)

    write_cycles_csv(out / "cycles.csv", artifacts.result.records)
    write_psd_csv(out / "psd.csv", artifacts.psd)
    # waveform.csv and current.csv share one time column: format it once
    n_export = artifacts.levels.shape[1]
    time_text = _block_text(np.arange(n_export) / cfg.sample_rate_hz)
    write_waveform_csv(out / "waveform.csv", artifacts, cfg.u_dc_v, time_text)
    write_current_csv(out / "current.csv", _phase_a_current(artifacts, cfg), time_text)
    write_report(
        out / "report.txt",
        _report_entries(cfg, artifacts, warnings, report, baseline_name),
    )
    return report


def run_compare(cfg: ScenarioConfig, baseline_kind: str = "rp") -> NotchReport:
    """Run baseline and strategy on a common grid; write the overlay PSD."""
    if cfg.fx_hz is None:
        raise ConfigError("compare requires fx_hz")
    raster = np.empty(_most_samples(cfg))
    base_psd = _baseline_psd(cfg, baseline_spec(cfg, baseline_kind), raster)
    out, artifacts, warnings = _run_configured(cfg, raster)
    del raster  # before the writers, which would otherwise peak beside it
    report = notch_report(artifacts.psd, base_psd, cfg.fx_hz, cfg.half_band_hz)
    write_cycles_csv(out / "cycles.csv", artifacts.result.records)
    write_psd_csv(out / "psd.csv", artifacts.psd, baseline=base_psd)
    write_report(
        out / "report.txt",
        _report_entries(cfg, artifacts, warnings, report, baseline_kind),
    )
    return report


def run_flatness(cfg: ScenarioConfig) -> list[tuple[float, float, float]]:
    """Score PSD flatness around switching-frequency multiples.

    Windows are center +- 200 Hz at c * f_center for c = 1..4, f_center
    being the fixed switching frequency or the band midpoint.  Returns
    and writes (center_hz, std_db, peak_to_mean_db) per window.
    """
    if cfg.fs_hz is not None:
        f_center = cfg.fs_hz
    else:
        f_center = 0.5 * (cfg.fs_min_hz + cfg.fs_max_hz)
    half = FLATNESS_HALF_WINDOW_HZ
    centers = [c * f_center for c in range(1, FLATNESS_MULTIPLES + 1)]
    # welch_psd's grid, checked with band_flatness's mask before any run
    grid = np.fft.rfftfreq(cfg.psd_segment_len, 1.0 / cfg.sample_rate_hz)
    for center in centers:
        if not np.any((grid >= center - half) & (grid <= center + half)):
            raise ConfigError(
                f"flatness window [{center - half}, {center + half}] Hz holds no "
                f"PSD bin at {grid[1]:g} Hz bin spacing; raise psd_segment_len"
            )
    out, artifacts, warnings = _run_configured(cfg, np.empty(_most_samples(cfg)))
    rows = [
        (center, *band_flatness(artifacts.psd, center - half, center + half))
        for center in centers
    ]
    _write_columns(
        out / "flatness.csv",
        "# notchpwm flatness v1\ncenter_hz,std_db,peak_to_mean_db\n",
        np.array(rows, dtype=float).T,
    )
    write_report(
        out / "report.txt",
        _report_entries(cfg, artifacts, warnings, None, None),
    )
    return rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="notchpwm",
        description="Pulse scheduling and spectral-notch analysis for "
        "two-level three-phase PWM",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "run one strategy and export all artifacts"),
        ("compare", "overlay the strategy PSD against a baseline"),
        ("flatness", "score PSD flatness near switching-frequency multiples"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to key=value config")
        p.add_argument("--out", help="output directory override")
        p.add_argument("--seed", type=int, help="seed override")
        if name == "compare":
            p.add_argument(
                "--baseline",
                choices=BASELINE_KINDS,
                default="rp",
                help="baseline strategy kind",
            )
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
        if args.out is not None:
            cfg.out_dir = args.out
        if args.seed is not None:
            cfg.seed = args.seed
        _validate_scenario(cfg)
        if args.command == "simulate":
            run_simulate(cfg)
        elif args.command == "compare":
            run_compare(cfg, args.baseline)
        else:
            run_flatness(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"unexpected error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
