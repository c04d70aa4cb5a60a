"""Series RL load response to piecewise-constant phase voltage.

Between switching events the phase voltage U is constant, so the current
obeys L di/dt + R i = U exactly and each segment advances by

    i(t0 + h) = U / R + (i(t0) - U / R) * exp(-h / tau),   tau = L / R.

Chaining this over the segment list gives the current without any
integration error; optional uniform resampling evaluates the same closed
form inside each segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .synthesis import _grid_ceil

_GRID_BLOCK = 1 << 14  # grid points that a sampled `rl_current` evaluates at a time
_SEGMENT_BLOCK = 1 << 10  # segments whose boundary currents are recurred at a time


@dataclass(frozen=True)
class LoadParams:
    """Series resistance-inductance load on one phase."""

    resistance: float
    inductance: float
    initial_current: float = 0.0

    def __post_init__(self) -> None:
        if self.resistance <= 0.0:
            raise ValueError(f"resistance must be positive, got {self.resistance}")
        if self.inductance <= 0.0:
            raise ValueError(f"inductance must be positive, got {self.inductance}")

    @property
    def tau(self) -> float:
        return self.inductance / self.resistance


def rl_current(
    times: np.ndarray,
    voltages: np.ndarray,
    load: LoadParams,
    sample_rate: Optional[float] = None,
) -> np.ndarray:
    """Exact RL current for a piecewise-constant voltage.

    times holds the M + 1 finite segment boundaries, voltages the M segment
    values.  With sample_rate None the current is returned at the segment
    boundaries, i(times[j]); otherwise at k / sample_rate for each k whose
    instant lies in [times[0], times[-1]), which may be none, evaluated a
    block of instants at a time into the result, so that besides it (8 B
    per instant) only per-segment arrays and one block's temporaries are
    held.  The boundary currents are recurred a slice of segments at a
    time into their array, so they hold about 24 B per segment at peak:
    the steady-state and decay arrays and the currents themselves.
    """
    times = np.asarray(times, dtype=float)
    voltages = np.asarray(voltages, dtype=float)
    if times.ndim != 1 or voltages.ndim != 1 or times.size != voltages.size + 1:
        raise ValueError(
            f"need len(times) == len(voltages) + 1, got {times.size} and {voltages.size}"
        )
    if not np.isfinite(times).all():
        raise ValueError("times (the segment boundaries) must be finite")
    # exp(-span / tau) of each segment, formed in the spans' own array
    decay = np.diff(times)
    if np.any(decay < 0.0):
        raise ValueError("segment boundaries must be nondecreasing")
    if sample_rate is not None and not 0.0 < sample_rate < np.inf:
        raise ValueError(f"sample_rate must be positive and finite, got {sample_rate}")

    tau = load.tau
    steady = voltages / load.resistance
    np.negative(decay, out=decay)
    np.divide(decay, tau, out=decay)
    np.exp(decay, out=decay)

    # current at every segment boundary, recurred over Python floats, which
    # round as numpy's float64 scalars do but index far faster, a slice of
    # segments at a time into the result
    i = load.initial_current
    knots = np.empty(times.size)
    knots[0] = i
    for lo in range(0, voltages.size, _SEGMENT_BLOCK):
        hi = lo + _SEGMENT_BLOCK
        part = []
        for u, g in zip(steady[lo:hi].tolist(), decay[lo:hi].tolist()):
            i = u + (i - u) * g
            part.append(i)
        knots[lo + 1 : hi + 1] = part

    if sample_rate is None:
        return knots

    # the instants k / rate in [t0, t1): k from the least at or after t0 up
    # to, not including, the least at or after t1
    first, stop = map(int, _grid_ceil(times[[0, -1]], sample_rate))
    n = max(stop - first, 0)
    offset = knots[:-1] - steady
    values = np.empty(n)
    # steady[seg] + (knots[seg] - steady[seg]) * exp(-(t - times[seg]) / tau),
    # the same operations in the same order, a block of instants at a time
    for lo in range(0, n, _GRID_BLOCK):
        block = values[lo : lo + _GRID_BLOCK]
        t_block = np.arange(first + lo, first + lo + block.size) / sample_rate
        seg = np.searchsorted(times, t_block, side="right")
        seg -= 1
        np.clip(seg, 0, voltages.size - 1, out=seg)
        decay = times[seg]
        np.subtract(t_block, decay, out=decay)
        np.negative(decay, out=decay)
        np.divide(decay, tau, out=decay)
        np.exp(decay, out=decay)
        np.take(offset, seg, out=block, mode="clip")  # seg is in range
        block *= decay
        np.take(steady, seg, out=decay, mode="clip")
        np.add(decay, block, out=block)
    return values
