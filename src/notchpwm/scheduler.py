"""Switching-cycle schedulers: conventional, randomized, and notch-locking.

Every pulse contributes two complex exponentials to the pulse-train
transform at a frequency f, one per edge.  The notch-locking ("selective
noise suppression", SNS) strategies construct consecutive cycles so that
one edge of the new pulse lands, at the target frequency fx, an integer
number of carrier periods of fx after an edge of the previous pulse.  The
paired exponentials then cancel and the transform at fx telescopes down to
the two unpaired boundary terms, no matter how long the run is.

Two pairings are available (`CancelMethod`); SNS_RP and FIXED_POS lock
the one `StrategySpec.cancel_method` names, SNS_RF_RP the first only:

* FALL_AFTER_RISE - the new cycle's falling edge locks to the previous
  cycle's rising edge; the recursion needs only the new cycle's duty.
* RISE_AFTER_FALL - the new cycle's rising edge locks to the previous
  cycle's falling edge; the recursion needs the previous cycle's duty.

Strategies:

* CSVPWM - fixed frequency, center-aligned pulses.
* RP     - fixed frequency, uniformly random pulse position.
* RF     - random frequency in a band, center-aligned pulses.
* SNS_RP - fixed frequency; pulse position solves the lock each cycle
  with a uniformly drawn integer k from the admissible range.
* SNS_RF_RP - randomized frequency and position, locked each cycle.
  Either the position is drawn and the new frequency solves the lock
  (FREQ_FROM_POSITION, phase A acting as the reference that fixes the
  shared clock) or the frequency is drawn and each phase's position
  solves the lock (POSITION_FROM_FREQ).
* FIXED_POS - pulses pinned to front/center/back of their cycle; the
  shared switching frequency follows the closed-form lock of the
  reference phase A.  The other two legs generally cannot satisfy the
  lock as well, which is the classic weakness of fixed-position locking
  in three-phase bridges.

All randomness flows through `SeededRng`; a run is a pure function of
(strategy, modulator config, duration, seed).
"""

from __future__ import annotations

import math
import operator
import random
from collections.abc import Callable, Iterator, Sequence
from dataclasses import InitVar, dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .modulator import (
    ModulatorConfig,
    angle_at,
    duty_cycles,
    sector_of,
)

PHASES = ("a", "b", "c")

# slop allowed before a solved position or frequency is treated as a bug
# rather than roundoff: absolute up to a bound of 1, relative above it
_BOUND_TOL = 1e-9

# most cycles one schedule() call may generate: a cycle's columns hold
# 80 B (about 0.12 kB at the peak of building them) and take 1.5 us
# (rf) to 3.4 us (sns_rf_rp) on a shared 2-vCPU x86-64 host under
# CPython 3.11, so this bounds a run near 0.1 GB and 4 s
MAX_CYCLES = 1_000_000

# cycles schedule() keeps in plain lists before moving them into arrays
# (about 0.4 MB of Python objects)
_FLUSH_CYCLES = 1024

# rows a Schedule turns into records at a time when it is iterated,
# sliced or compared with records (about 0.1 MB of Python objects)
_RECORD_CHUNK = 256

# dtypes of the sector and lock-integer columns; every lock law's k is
# at most 2 fx / fs_low, which StrategySpec.validate keeps within _K_MAX
_SECTOR_DTYPE = np.int8
_K_DTYPE = np.int32
_K_MAX = int(np.iinfo(_K_DTYPE).max)

# a frequency law's share term below this fraction of its constant term
# may round its closed-form k bounds one off (above it, the bounds err by
# at most about 2e-10 of the share term), so the ends are checked by solving
_NEAR_ROUNDOFF = 1e-5


class ConfigError(ValueError):
    """Inconsistent or incomplete strategy/scenario configuration."""


class OutOfBandError(RuntimeError):
    """A computed position or frequency violates its admissible range."""


class StrategyKind(Enum):
    CSVPWM = "csvpwm"
    RP = "rp"
    RF = "rf"
    SNS_RP = "sns_rp"
    SNS_RF_RP = "sns_rf_rp"
    FIXED_POS = "fixed_pos"


class CancelMethod(Enum):
    """Which edge pair is phase-locked at the notch frequency."""

    FALL_AFTER_RISE = "fall_after_rise"
    RISE_AFTER_FALL = "rise_after_fall"


class SnsRfRpVariant(Enum):
    FREQ_FROM_POSITION = "freq_from_position"
    POSITION_FROM_FREQ = "position_from_freq"


class PulsePosition(Enum):
    FRONT = "front"
    CENTER = "center"
    BACK = "back"


# the lock laws run once or twice per cycle; these aliases spare each an
# enum or `math` attribute lookup
_FALL = CancelMethod.FALL_AFTER_RISE
_FRONT = PulsePosition.FRONT
_CENTER = PulsePosition.CENTER
_ceil, _floor = math.ceil, math.floor

# a cycle's k and fallback column entries until a lock step marks them
_NO_LOCK = (-1, -1, -1)
_NO_FALLBACK = (False, False, False)


class SeededRng:
    """Deterministic scalar RNG for schedule generation.

    Draws exactly what the stdlib Mersenne Twister's `random.Random(seed)`
    would: `uniform` and `randint` evaluate CPython's own formulas (those of
    3.10 to 3.13) on its `random` and `getrandbits`, without their call
    chain.  Identical seed and draw order reproduce identical sequences on
    any platform.  Degenerate intervals return their endpoint without
    consuming a draw, so two runs that differ only in a collapsed random
    range stay draw-aligned.
    """

    def __init__(self, seed: int):
        self._rng = random.Random(int(seed))
        self._random = self._rng.random
        self._getrandbits = self._rng.getrandbits

    def uniform(self, lo: float, hi: float) -> float:
        """Uniform real on [lo, hi], as `random.Random.uniform` draws it."""
        if hi <= lo:
            return lo
        return lo + (hi - lo) * self._random()

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer on {lo, ..., hi} (inclusive), as `random.Random.randint`.

        `randrange`'s rejection sampling: draw n.bit_length() bits until
        they fall below the width n.
        """
        if hi <= lo:
            return lo
        n = hi - lo + 1
        k = n.bit_length()
        r = self._getrandbits(k)
        while r >= n:
            r = self._getrandbits(k)
        return lo + r


@dataclass(frozen=True)
class StrategySpec:
    """Parameters selecting and configuring one scheduling strategy.

    fs is the fixed switching frequency (CSVPWM/RP/SNS_RP); banded kinds
    (RF/SNS_RF_RP/FIXED_POS) use [fs_min, fs_max] instead.  fx is the
    notch target and cancel_method the edge pair that SNS_RP and FIXED_POS
    lock (SNS_RF_RP locks FALL_AFTER_RISE only); sns_rp_variant, its former
    name, is an init-only keyword that sets it.  With
    reference_phase_only=True the SNS recursion is applied to phase A
    only and the other legs fall back to plain random positions.  validate
    rejects an fx whose lock integers, at most 2 fx / fs_low with fs_low
    the fs or fs_min, could overflow the int32 k column.
    """

    kind: StrategyKind
    fs: Optional[float] = None
    fs_min: Optional[float] = None
    fs_max: Optional[float] = None
    fx: Optional[float] = None
    sns_rf_rp_variant: SnsRfRpVariant = SnsRfRpVariant.POSITION_FROM_FREQ
    fixed_position: PulsePosition = PulsePosition.CENTER
    cancel_method: CancelMethod = CancelMethod.FALL_AFTER_RISE
    reference_phase_only: bool = False
    sns_rp_variant: InitVar[Optional[CancelMethod]] = None

    def __post_init__(self, sns_rp_variant: Optional[CancelMethod]) -> None:
        if sns_rp_variant is not None:
            object.__setattr__(self, "cancel_method", sns_rp_variant)

    def validate(self) -> None:
        kind = self.kind
        for name in ("fs", "fs_min", "fs_max", "fx"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if kind in (StrategyKind.CSVPWM, StrategyKind.RP, StrategyKind.SNS_RP):
            if self.fs is None or self.fs <= 0.0:
                raise ConfigError(f"{kind.value} requires a positive fixed fs")
        if kind in (StrategyKind.RF, StrategyKind.SNS_RF_RP, StrategyKind.FIXED_POS):
            if self.fs_min is None or self.fs_max is None:
                raise ConfigError(f"{kind.value} requires fs_min and fs_max")
            if not 0.0 < self.fs_min <= self.fs_max:
                raise ConfigError(
                    f"need 0 < fs_min <= fs_max, got [{self.fs_min}, {self.fs_max}]"
                )
        if kind in (StrategyKind.SNS_RP, StrategyKind.SNS_RF_RP, StrategyKind.FIXED_POS):
            if self.fx is None or self.fx <= 0.0:
                raise ConfigError(f"{kind.value} requires a positive notch frequency fx")
        method = self.cancel_method
        if kind is StrategyKind.SNS_RF_RP and method is not CancelMethod.FALL_AFTER_RISE:
            raise ConfigError(f"sns_rf_rp locks fall_after_rise only, got {method.value}")
        if kind in (StrategyKind.SNS_RP, StrategyKind.SNS_RF_RP, StrategyKind.FIXED_POS):
            fs_low = self.fs if kind is StrategyKind.SNS_RP else self.fs_min
            if 2.0 * self.fx / fs_low + 1.0 > _K_MAX:
                raise ConfigError(
                    f"fx={self.fx:g} Hz over fs={fs_low:g} Hz allows lock integers "
                    f"up to {2.0 * self.fx / fs_low:g}, more than {_K_MAX}"
                )


@dataclass(frozen=True)
class CycleRecord:
    """One switching cycle: timing, duties, pulse positions, lock bookkeeping.

    position is the pulse start as a fraction of the cycle, in
    [0, 1 - duty] per phase.  k_used holds the lock integer when the
    phase's position/frequency came from a notch recursion, None
    otherwise.  fallback flags phases whose lock was infeasible this
    cycle and that got a plain random draw instead.
    """

    m: int
    t_m: float
    ts: float
    sector: int
    duty: tuple[float, float, float]
    position: tuple[float, float, float]
    k_used: tuple[Optional[int], Optional[int], Optional[int]]
    fallback: tuple[bool, bool, bool]


@dataclass(frozen=True, eq=False)
class Schedule(Sequence[CycleRecord]):
    """A run's switching cycles as read-only columns, one row per cycle.

    Row i is cycle m = i + 1.  t_m and ts (float64) and sector (int8)
    have one value per cycle; duty and position (float64), k (int32) and
    fallback (bool) have one column per phase (shape (n, 3)), 80 B per
    cycle in all.  k holds the lock integer, or -1 where k_used is None.
    As a Sequence the schedule yields CycleRecords, built on access a
    chunk of rows at a time, and it compares equal to any sequence of
    equal records; two Schedules compare their columns.
    """

    t_m: np.ndarray
    ts: np.ndarray
    sector: np.ndarray
    duty: np.ndarray
    position: np.ndarray
    k: np.ndarray
    fallback: np.ndarray

    def __post_init__(self) -> None:
        n = self.t_m.shape
        shapes = [col.shape for col in self._arrays()]
        if len(n) != 1 or shapes != 3 * [n] + 4 * [n + (3,)]:
            raise ValueError(f"column shapes {shapes} do not agree")
        for col in self._arrays():
            col.flags.writeable = False

    def _arrays(self) -> tuple[np.ndarray, ...]:
        return (self.t_m, self.ts, self.sector, self.duty, self.position, self.k, self.fallback)

    @classmethod
    def from_records(cls, records: Sequence[CycleRecord]) -> Schedule:
        """The columns of a record sequence; a Schedule is returned as is.

        Each record's m is taken to be its row + 1.  Raises ValueError for a
        negative lock integer, which the -1 of k could not tell from None,
        and for one above _K_MAX, which k could not hold.
        """
        if isinstance(records, Schedule):
            return records
        n = len(records)
        k_used = [k for rec in records for k in rec.k_used]
        if any(k is not None and not 0 <= k <= _K_MAX for k in k_used):
            raise ValueError(f"lock integers k_used must be nonnegative and at most {_K_MAX}")

        def scalars(name, dtype):
            return np.fromiter(map(operator.attrgetter(name), records), dtype=dtype, count=n)

        def triples(values, dtype):
            return np.fromiter(values, dtype=dtype, count=3 * n).reshape(n, 3)

        return cls(
            t_m=scalars("t_m", float),
            ts=scalars("ts", float),
            sector=scalars("sector", _SECTOR_DTYPE),
            duty=triples((d for rec in records for d in rec.duty), float),
            position=triples((r for rec in records for r in rec.position), float),
            k=triples((-1 if k is None else k for k in k_used), _K_DTYPE),
            fallback=triples((f for rec in records for f in rec.fallback), bool),
        )

    def __len__(self) -> int:
        return self.t_m.size

    def _records(self, rows: slice) -> Iterator[CycleRecord]:
        """The records of rows, converted _RECORD_CHUNK rows at a time."""
        ms = range(*rows.indices(len(self)))
        for first in range(0, len(ms), _RECORD_CHUNK):
            part = ms[first : first + _RECORD_CHUNK]
            # a descending part that ends at row 0 stops at -1, which a
            # slice would read as the last row
            chunk = slice(part.start, part.stop if part.stop >= 0 else None, part.step)
            for m, t_m, ts, sector, duty, position, ks, fallback in zip(
                part, *(col[chunk].tolist() for col in self._arrays())
            ):
                yield CycleRecord(
                    m=m + 1,
                    t_m=t_m,
                    ts=ts,
                    sector=sector,
                    duty=tuple(duty),
                    position=tuple(position),
                    k_used=tuple(None if k < 0 else k for k in ks),
                    fallback=tuple(fallback),
                )

    def __getitem__(self, index):
        """The record of one row, or a list of the records of a slice."""
        if isinstance(index, slice):
            return list(self._records(index))
        n = len(self)
        i = operator.index(index)
        if not -n <= i < n:
            raise IndexError(f"cycle index {index} out of range for {n} cycles")
        i %= n
        return next(self._records(slice(i, i + 1)))

    def __iter__(self) -> Iterator[CycleRecord]:
        return self._records(slice(None))

    def __eq__(self, other):
        if isinstance(other, Schedule):
            # the values records compare: NaN unequal, -0.0 equal to 0.0
            return all(map(np.array_equal, self._arrays(), other._arrays()))
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))


@dataclass
class RunStats:
    cycles: int = 0
    fallbacks: list[int] = field(default_factory=lambda: [0, 0, 0])
    chain_restarts: list[int] = field(default_factory=lambda: [0, 0, 0])
    feasibility_warnings: list[str] = field(default_factory=list)

    @property
    def total_chain_restarts(self) -> int:
        return sum(self.chain_restarts)


@dataclass
class ScheduleResult:
    records: Schedule
    stats: RunStats


# ---------------------------------------------------------------------------
# single-step operations


def next_csvpwm(duty_next: Sequence[float]) -> tuple[float, float, float]:
    """Center-aligned positions R = (1 - D) / 2 per phase."""
    d_a, d_b, d_c = duty_next
    return ((1.0 - d_a) / 2.0, (1.0 - d_b) / 2.0, (1.0 - d_c) / 2.0)


def next_rp(duty_next: Sequence[float], rng: SeededRng) -> tuple[float, float, float]:
    """Positions drawn uniformly from [0, 1 - D], independently per phase."""
    d_a, d_b, d_c = duty_next
    return (
        rng.uniform(0.0, 1.0 - d_a),
        rng.uniform(0.0, 1.0 - d_b),
        rng.uniform(0.0, 1.0 - d_c),
    )


def k_range_sns_rp(
    fx: float,
    fs: float,
    r_prev: float,
    d_next: float,
    variant: CancelMethod = CancelMethod.FALL_AFTER_RISE,
    d_prev: Optional[float] = None,
) -> Optional[tuple[int, int]]:
    """Admissible lock integers at constant switching frequency.

    Returns (k_min, k_max) such that every k in the range keeps the next
    pulse position inside [0, 1 - d_next], or None when the range is
    empty.  The RISE_AFTER_FALL pairing additionally needs the previous
    cycle's duty.
    """
    ratio = fx / fs
    if variant is _FALL:
        k_min = _ceil(ratio * (1.0 - r_prev + d_next))
        k_max = _floor(ratio * (2.0 - r_prev))
    else:
        if d_prev is None:
            raise ValueError("RISE_AFTER_FALL pairing needs d_prev")
        k_min = _ceil(ratio * (1.0 - r_prev - d_prev))
        k_max = _floor(ratio * (2.0 - r_prev - d_prev - d_next))
    if k_min > k_max:
        return None
    return k_min, k_max


def sns_rp_position(
    fx: float,
    fs: float,
    r_prev: float,
    d_prev: float,
    d_next: float,
    variant: CancelMethod,
    k: int,
) -> float:
    """Next pulse position that realizes the lock for a given integer k."""
    if variant is _FALL:
        return (k / fx) * fs + r_prev - d_next - 1.0
    return (k / fx) * fs + r_prev + d_prev - 1.0


def _checked(value: float, lo: float, hi: float, context: str) -> float:
    """A solved value snapped into [lo, hi] when outside by roundoff only.

    Beyond _BOUND_TOL (relative to a bound above 1 in magnitude) a k-range
    bug is at fault and OutOfBandError is raised, also for NaN.
    """
    if lo <= value <= hi:
        return value
    if not _snaps(value, lo, hi):
        raise OutOfBandError(f"{context}: solved value {value} outside [{lo}, {hi}]")
    return min(max(value, lo), hi)


def _snaps(value: float, lo: float, hi: float) -> bool:
    """Whether value lies in [lo, hi] or outside by roundoff only, at most
    _BOUND_TOL relative to a bound above 1 in magnitude; never for NaN."""
    bound = min(max(value, lo), hi)
    return abs(value - bound) <= _BOUND_TOL * max(1.0, abs(bound))


def _solved_k_range(
    k_min: int,
    k_max: int,
    solve: Callable[[int], float],
    fs_min: float,
    fs_max: float,
) -> Optional[tuple[int, int]]:
    """The lock integers whose solved frequency the lock step accepts.

    [k_min, k_max] is a frequency law's closed-form range where its share
    term is near the roundoff of its constant term, so either end may be
    one off.  solve(k) is the law's frequency, decreasing in k where the
    distance it divides by is positive.  A neighbour whose solve lies in
    the band joins the range; then each end whose solve `_checked` would
    reject, or which divides by zero, leaves it.
    """

    def solved(k):
        try:
            return solve(k)
        except ZeroDivisionError:
            return math.nan

    k_min -= fs_min <= solved(k_min - 1) <= fs_max
    k_max += fs_min <= solved(k_max + 1) <= fs_max
    while k_min <= k_max and not _snaps(solved(k_min), fs_min, fs_max):
        k_min += 1
    while k_min <= k_max and not _snaps(solved(k_max), fs_min, fs_max):
        k_max -= 1
    if k_min > k_max:
        return None
    return k_min, k_max


def feasibility_min_fx(
    variant: CancelMethod, fs: float, d_min: float, d_max: float
) -> float:
    """Lowest notch frequency for which a lock integer can exist at all.

    A necessary lower limit over the duty range [d_min, d_max]; below it
    the k range is empty for every reachable state, above it feasibility
    still depends on the actual positions and duties.
    """
    if variant is _FALL:
        return fs / (2.0 + d_max)
    return fs / (2.0 - d_min)


def k_range_sns_rf_rp_freq(
    fx: float,
    fs_prev: float,
    r_prev: float,
    r_next: float,
    d_next: float,
    fs_min: float,
    fs_max: float,
) -> Optional[tuple[int, int]]:
    """Lock integers whose solved next frequency stays inside the band.

    FREQ_FROM_POSITION direction: the next position is already drawn and
    the next switching frequency will be solved from it.
    """
    share = r_next + d_next
    low = share / fs_max
    k_min = _ceil(fx * (low - r_prev / fs_prev + 1.0 / fs_prev))
    k_max = _floor(fx * (share / fs_min - r_prev / fs_prev + 1.0 / fs_prev))
    if low * fs_prev < _NEAR_ROUNDOFF:
        return _solved_k_range(
            k_min,
            k_max,
            lambda k: next_freq_sns_rf_rp(fx, fs_prev, r_prev, r_next, d_next, k),
            fs_min,
            fs_max,
        )
    if k_min > k_max:
        return None
    return k_min, k_max


def next_freq_sns_rf_rp(
    fx: float,
    fs_prev: float,
    r_prev: float,
    r_next: float,
    d_next: float,
    k: int,
) -> float:
    """Next switching frequency that realizes the lock for a given k.

    A closed form, in the band for k in `k_range_sns_rf_rp_freq`'s range.
    """
    denom = k / fx + r_prev / fs_prev - 1.0 / fs_prev
    return (r_next + d_next) / denom


def k_range_sns_rf_rp_pos(
    fx: float,
    fs_prev: float,
    fs_next: float,
    r_prev: float,
    d_next: float,
) -> Optional[tuple[int, int]]:
    """Lock integers whose solved next position stays inside [0, 1 - d_next].

    POSITION_FROM_FREQ direction: the next switching frequency is already
    drawn and the next position will be solved from it.
    """
    k_min = _ceil(fx * (d_next / fs_next - r_prev / fs_prev + 1.0 / fs_prev))
    k_max = _floor(fx * (1.0 / fs_next - r_prev / fs_prev + 1.0 / fs_prev))
    if k_min > k_max:
        return None
    return k_min, k_max


def next_position_sns_rf_rp(
    fx: float,
    fs_prev: float,
    fs_next: float,
    r_prev: float,
    d_next: float,
    k: int,
) -> float:
    """Next pulse position that realizes the lock across a frequency change.

    A closed form, in [0, 1 - d_next] for k in `k_range_sns_rf_rp_pos`'s
    range.  With fs_next == fs_prev it reduces exactly to the
    constant-frequency FALL_AFTER_RISE recursion.
    """
    ratio = fs_next / fs_prev
    return (k / fx) * fs_next + ratio * r_prev - d_next - ratio


# ---------------------------------------------------------------------------
# fixed-position frequency laws

# where a fixed pulse starts, as a share of its cycle's off time 1 - d
_FIXED_POSITION_SHARE = {
    PulsePosition.FRONT: 0.0,
    PulsePosition.CENTER: 0.5,
    PulsePosition.BACK: 1.0,
}

# Each (method, position) pair reduces to fs_next = N / (a*k - C) with the
# coefficients below; a*k - C > 0 on the admissible branch, so fs_next is
# strictly decreasing in k and the in-band k set is an integer interval.


def _fixed_pos_coeffs(
    position: PulsePosition,
    method: CancelMethod,
    fx: float,
    fs_prev: float,
    d_prev: float,
    d_next: float,
) -> tuple[float, float, int]:
    if method is _FALL:
        if position is _FRONT:
            return fx * d_next, fx / fs_prev, 1
        if position is _CENTER:
            return fx * (1.0 + d_next), (1.0 + d_prev) * fx / fs_prev, 2
        return fx, d_prev * fx / fs_prev, 1
    # RISE_AFTER_FALL: only the center position couples consecutive cycles;
    # at front and back the locked edge gap spans exactly one cycle, so the
    # law collapses to the per-cycle rule fs = fx * (1 - duty) / k
    if position is _CENTER:
        return fx * (1.0 - d_next), (1.0 - d_prev) * fx / fs_prev, 2
    return fx * (1.0 - d_next), 0.0, 1


def fixed_position_next_freq(
    position: PulsePosition,
    method: CancelMethod,
    fx: float,
    fs_prev: float,
    d_prev: float,
    d_next: float,
    k: int,
) -> float:
    """Closed-form next switching frequency for fixed-position locking."""
    n, c, a = _fixed_pos_coeffs(position, method, fx, fs_prev, d_prev, d_next)
    return n / (a * k - c)


def fixed_position_k_range(
    position: PulsePosition,
    method: CancelMethod,
    fx: float,
    fs_prev: float,
    d_prev: float,
    d_next: float,
    fs_min: float,
    fs_max: float,
) -> Optional[tuple[int, int]]:
    """Lock integers whose fixed-position law lands inside the band."""
    n, c, a = _fixed_pos_coeffs(position, method, fx, fs_prev, d_prev, d_next)
    if n <= 0.0:
        return None
    low = n / fs_max
    k_min = _ceil((c + low) / a)
    k_max = _floor((c + n / fs_min) / a)
    if low < _NEAR_ROUNDOFF * c:
        return _solved_k_range(
            k_min,
            k_max,
            lambda k: fixed_position_next_freq(position, method, fx, fs_prev, d_prev, d_next, k),
            fs_min,
            fs_max,
        )
    if k_min > k_max:
        return None
    return k_min, k_max


# ---------------------------------------------------------------------------
# full-run scheduler


def schedule(
    strategy: StrategySpec,
    modcfg: ModulatorConfig,
    duration: float,
    seed: int,
) -> ScheduleResult:
    """Generate the switching cycles covering [0, duration).

    Cycle m+1 starts exactly where cycle m ends; the last cycle may run
    past `duration`.  Each cycle takes its switching frequency from a
    frequency policy (fixed fs, a band draw, or solved from the lock of
    reference phase A) and then its pulse positions from a position
    policy (center, uniform, fixed, or solved per locked phase).  Draw
    order per cycle is fixed (banded frequency draw first, then phases
    a, b, c), so a run is fully determined by the arguments.

    Every solved value goes through one lock step, which checks it against
    its position range or band (OutOfBandError beyond roundoff).  Per
    phase, a zero-duty cycle emits no pulse and the lock chain restarts at
    the next pulse (counted in chain_restarts); an empty k range falls
    back to a plain uniform position or frequency draw for that cycle
    (counted in fallbacks).

    Raises ConfigError, before any cycle is generated, for an invalid
    spec, a negative or non-finite duration, or a run that would need
    more than MAX_CYCLES cycles.
    """
    strategy.validate()
    if not 0.0 <= duration < math.inf:
        raise ConfigError(f"duration must be finite and nonnegative, got {duration}")
    stats = RunStats()
    kind, method = strategy.kind, strategy.cancel_method
    fx, fs, fs_min, fs_max = strategy.fx, strategy.fs, strategy.fs_min, strategy.fs_max
    fixed_fs = kind in (StrategyKind.CSVPWM, StrategyKind.RP, StrategyKind.SNS_RP)
    fs_top = fs if fixed_fs else fs_max  # banded draws and solves stay <= fs_max
    if duration * fs_top > MAX_CYCLES:
        raise ConfigError(
            f"a {duration:g} s run at up to {fs_top:g} Hz needs more than "
            f"{MAX_CYCLES} cycles"
        )
    # FIXED_POS and FREQ_FROM_POSITION solve the shared frequency from the
    # lock of reference phase A; the SNS kinds solve the positions of their
    # locked phases, except a phase A already locked by the frequency
    freq_locked = kind is StrategyKind.FIXED_POS or (
        kind is StrategyKind.SNS_RF_RP
        and strategy.sns_rf_rp_variant is SnsRfRpVariant.FREQ_FROM_POSITION
    )
    locked = (0,) if strategy.reference_phase_only else (0, 1, 2)
    solved = range(1 if freq_locked else 0, 3)
    # the position policy, chosen once per run; the SNS kinds solve their
    # positions into a fresh list each cycle
    centered = kind is StrategyKind.CSVPWM or kind is StrategyKind.RF
    rp = kind is StrategyKind.RP
    fixed = kind is StrategyKind.FIXED_POS
    sns = kind is StrategyKind.SNS_RP or kind is StrategyKind.SNS_RF_RP

    rng = SeededRng(seed)
    uniform, randint = rng.uniform, rng.randint
    # per-cycle values go to plain lists, the cheapest to append to, and
    # move into per-column array blocks every _FLUSH_CYCLES cycles, so a
    # run does not keep a Python object per value alive; each column's
    # blocks are joined, and dropped, at the end
    cols = t_col, ts_col, sector_col, duty_col, pos_col, k_col, fb_col = tuple(
        [] for _ in range(7)
    )
    t_add, ts_add, sector_add = t_col.append, ts_col.append, sector_col.append
    duty_add, pos_add, k_add, fb_add = (
        duty_col.extend, pos_col.extend, k_col.extend, fb_col.extend
    )
    dtypes = (float, float, _SECTOR_DTYPE, float, float, _K_DTYPE, bool)
    blocks = tuple([] for _ in cols)

    def flush():
        for col, dtype, parts in zip(cols, dtypes, blocks):
            parts.append(np.array(col, dtype))
            col.clear()

    def joined(parts):
        col = np.concatenate(parts)
        parts.clear()
        return col

    # a phase's lock chain is its previous cycle, alive when that held a pulse
    r_prev: Sequence[float] = (0.0, 0.0, 0.0)
    d_prev: Sequence[float] = (0.0, 0.0, 0.0)
    fs_prev: Optional[float] = None

    # Lock laws: the admissible k range of phase i at duty d, and the
    # position or frequency a drawn k solves.  They read the previous
    # cycle and this cycle's fs_next and drawn position of phase A.
    if kind is StrategyKind.SNS_RP:
        limit = feasibility_min_fx(method, fs, 0.0, modcfg.m_index)
        if fx < limit:
            stats.feasibility_warnings.append(
                f"fx={fx:g} Hz is below the feasibility limit "
                f"{limit:g} Hz for fs={fs:g} Hz; every cycle will fall back"
            )

        def pos_k_range(i, d):
            return k_range_sns_rp(fx, fs, r_prev[i], d, method, d_prev[i])

        def pos_solve(i, d, k):
            return sns_rp_position(fx, fs, r_prev[i], d_prev[i], d, method, k)

    elif kind is StrategyKind.SNS_RF_RP:

        def pos_k_range(i, d):
            return k_range_sns_rf_rp_pos(fx, fs_prev, fs_next, r_prev[i], d)

        def pos_solve(i, d, k):
            return next_position_sns_rf_rp(fx, fs_prev, fs_next, r_prev[i], d, k)

        def freq_k_range(i, d):
            return k_range_sns_rf_rp_freq(
                fx, fs_prev, r_prev[i], pos[i], d, fs_min, fs_max
            )

        def freq_solve(i, d, k):
            return next_freq_sns_rf_rp(fx, fs_prev, r_prev[i], pos[i], d, k)

    elif fixed:
        position = strategy.fixed_position
        share = _FIXED_POSITION_SHARE[position]

        def freq_k_range(i, d):
            return fixed_position_k_range(
                position, method, fx, fs_prev, d_prev[i], d, fs_min, fs_max
            )

        def freq_solve(i, d, k):
            return fixed_position_next_freq(
                position, method, fx, fs_prev, d_prev[i], d, k
            )

    context = kind.value

    def lock(i, d, lo, hi, k_range, solve):
        """Phase i's value solved by a lock law, or a plain draw on [lo, hi].

        The plain draw stands in when the phase has no chain, in the run's
        first cycle or after a zero-duty cycle (the chain restarts here),
        and when the k range is empty (a fallback).  A solved value is
        checked against [lo, hi].  The drawn k or the fallback is marked in
        this cycle's entries of the k and fallback columns, their last three.
        """
        if d_prev[i] <= 0.0:
            if m > 1:
                stats.chain_restarts[i] += 1
            return uniform(lo, hi)
        kr = k_range(i, d)
        if kr is None:
            stats.fallbacks[i] += 1
            fb_col[i - 3] = True
            return uniform(lo, hi)
        k = k_col[i - 3] = randint(*kr)
        value = solve(i, d, k)
        return value if lo <= value <= hi else _checked(value, lo, hi, context)

    t = 0.0
    m = 0
    while t < duration:
        m += 1
        theta = angle_at(modcfg, t)
        sec = sector_of(theta)
        duty = duty_cycles(modcfg, theta, sec)
        d_a, d_b, d_c = duty
        if sns:
            pos = [0.5, 0.5, 0.5]  # a zero-duty leg stays here
        k_add(_NO_LOCK)
        fb_add(_NO_FALLBACK)

        # --- switching frequency of this cycle ---
        if fixed_fs:
            fs_next = fs
        elif freq_locked and d_a > 0.0:
            if sns:  # FREQ_FROM_POSITION solves fs from a drawn position
                pos[0] = uniform(0.0, 1.0 - d_a)
            fs_next = lock(0, d_a, fs_min, fs_max, freq_k_range, freq_solve)
        else:
            fs_next = uniform(fs_min, fs_max)

        # --- pulse positions of this cycle ---
        if centered:
            pos = next_csvpwm(duty)
        elif rp:
            pos = next_rp(duty, rng)
        elif fixed:
            pos = (share * (1.0 - d_a), share * (1.0 - d_b), share * (1.0 - d_c))
        else:  # SNS kinds
            for i in solved:
                d = duty[i]
                if d <= 0.0:
                    continue
                if i in locked:
                    pos[i] = lock(i, d, 0.0, 1.0 - d, pos_k_range, pos_solve)
                else:
                    pos[i] = uniform(0.0, 1.0 - d)

        ts = 1.0 / fs_next
        t_add(t)
        ts_add(ts)
        sector_add(sec)
        duty_add(duty)
        pos_add(pos)
        r_prev, d_prev, fs_prev = pos, duty, fs_next
        t = t + ts
        if m % _FLUSH_CYCLES == 0:
            flush()

    flush()
    stats.cycles = m
    t_m, ts_all, sector, *per_phase = map(joined, blocks)
    records = Schedule(t_m, ts_all, sector, *(col.reshape(m, 3) for col in per_phase))
    return ScheduleResult(records=records, stats=stats)

