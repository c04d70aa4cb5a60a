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

_GRID_BLOCK = 1 << 14  # grid points that a sampled `rl_current` evaluates at a time


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


@dataclass(frozen=True)
class CurrentTrace:
    """Current samples i(times[k]) through the load."""

    times: np.ndarray
    values: np.ndarray


def rl_current(
    times: np.ndarray,
    voltages: np.ndarray,
    load: LoadParams,
    sample_rate: Optional[float] = None,
) -> CurrentTrace:
    """Exact RL current for a piecewise-constant voltage.

    times holds the M + 1 segment boundaries, voltages the M segment
    values.  With sample_rate None the trace is returned at the segment
    boundaries; otherwise on the uniform grid k / sample_rate covering
    [times[0], times[-1]), evaluated a block of grid points at a time into
    `values`, so that besides `times` and `values` (16 B per grid point) it
    holds only per-segment arrays and one block's temporaries.
    """
    times = np.asarray(times, dtype=float)
    voltages = np.asarray(voltages, dtype=float)
    if times.ndim != 1 or voltages.ndim != 1 or times.size != voltages.size + 1:
        raise ValueError(
            f"need len(times) == len(voltages) + 1, got {times.size} and {voltages.size}"
        )
    if np.any(np.diff(times) < 0.0):
        raise ValueError("segment boundaries must be nondecreasing")

    tau = load.tau
    steady = voltages / load.resistance
    spans = np.diff(times)
    decay = np.exp(-spans / tau)

    # current at every segment boundary, recurred over Python floats, which
    # round as numpy's float64 scalars do but index far faster
    i = load.initial_current
    knots = [i]
    for u, g in zip(steady.tolist(), decay.tolist()):
        i = u + (i - u) * g
        knots.append(i)
    knots = np.array(knots, dtype=float)

    if sample_rate is None:
        return CurrentTrace(times=times, values=knots)

    if sample_rate <= 0.0:
        raise ValueError(f"sample rate must be positive, got {sample_rate}")
    t0, t1 = times[0], times[-1]
    first = int(np.ceil(t0 * sample_rate - 1e-12))
    # one grid point past ceil(t1 * rate) covers the product's rounding
    t = np.arange(first, int(np.ceil(t1 * sample_rate)) + 1) / sample_rate
    # the grid increases, so the points before t1 are a prefix of it
    t = t[: np.searchsorted(t, t1, side="left")]
    offset = knots[:-1] - steady
    values = np.empty(t.size)
    # steady[seg] + (knots[seg] - steady[seg]) * exp(-(t - times[seg]) / tau),
    # the same operations in the same order, a block of the grid at a time
    for lo in range(0, t.size, _GRID_BLOCK):
        t_block = t[lo : lo + _GRID_BLOCK]
        seg = np.searchsorted(times, t_block, side="right")
        seg -= 1
        np.clip(seg, 0, voltages.size - 1, out=seg)
        decay = times[seg]
        np.subtract(t_block, decay, out=decay)
        np.negative(decay, out=decay)
        np.divide(decay, tau, out=decay)
        np.exp(decay, out=decay)
        block = values[lo : lo + _GRID_BLOCK]
        np.take(offset, seg, out=block, mode="clip")  # seg is in range
        block *= decay
        np.take(steady, seg, out=decay, mode="clip")
        np.add(decay, block, out=block)
    return CurrentTrace(times=t, values=values)
