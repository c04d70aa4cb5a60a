"""Per-phase duty laws for 5-segment (bus-clamped) space-vector PWM.

The voltage-vector plane splits into six 60-degree sectors.  In every
sector one inverter leg stays clamped low for the whole switching cycle,
so each duty triple has exactly one zero entry; the other two legs follow
sinusoidal laws of the absolute vector angle.  The clamped leg hops every
two sectors (C low in sectors 1-2, A in 3-4, B in 5-6), which makes the
duty triple cyclically permute under a 120-degree shift of the angle.

Duties are sampled once per switching cycle, at the cycle start, and held
constant over that cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi
SECTOR_SPAN = math.pi / 3.0


@dataclass(frozen=True)
class ModulatorConfig:
    """Operating point: modulation index, fundamental frequency, DC link.

    m_index is the commanded vector magnitude relative to its maximum and
    must lie in (0, 1] (no overmodulation).  f1 is the fundamental output
    frequency in Hz, u_dc the DC link voltage in volts.
    """

    m_index: float
    f1: float
    u_dc: float

    def __post_init__(self) -> None:
        if not 0.0 < self.m_index <= 1.0:
            raise ValueError(f"m_index must be in (0, 1], got {self.m_index}")
        if not 0.0 < self.f1 < math.inf:
            raise ValueError(f"f1 must be positive and finite, got {self.f1}")
        if not 0.0 < self.u_dc < math.inf:
            raise ValueError(f"u_dc must be positive and finite, got {self.u_dc}")


def sector_of(theta: float) -> int:
    """Sector index in 1..6 for an angle already normalized to [0, 2*pi).

    Angles exactly on a sector boundary belong to the higher sector
    (theta = 0 is sector 1).  The rule is arbitrary but fixed, so runs
    reproduce bit for bit; the duty laws of adjacent sectors agree on the
    boundary anyway.
    """
    sector = int(theta // SECTOR_SPAN) + 1
    return 6 if sector > 6 else sector


def angle_at(cfg: ModulatorConfig, t: float) -> float:
    """Electrical angle 2*pi*f1*t wrapped to [0, 2*pi)."""
    return math.fmod(TWO_PI * cfg.f1 * t, TWO_PI)


def duty_cycles(
    cfg: ModulatorConfig, theta: float, sector: int | None = None
) -> tuple[float, float, float]:
    """Duty triple (d_a, d_b, d_c) at absolute vector angle theta.

    Exactly one component is zero (the clamped leg of the sector) and every
    component lies in [0, m_index].  `sector` is `sector_of(theta)`, which
    a caller that already has it can pass instead of having it recomputed.
    """
    if sector is None:
        sector = sector_of(theta)
    m = cfg.m_index
    if sector <= 2:
        d_a, d_b, d_c = m * math.sin(theta + SECTOR_SPAN), m * math.sin(theta), 0.0
    elif sector <= 4:
        d_a, d_b, d_c = 0.0, m * math.sin(theta - SECTOR_SPAN), -m * math.sin(theta + SECTOR_SPAN)
    else:
        d_a, d_b, d_c = -m * math.sin(theta - SECTOR_SPAN), 0.0, -m * math.sin(theta)
    # sector-edge roundoff can leave values like -1e-17; the laws are
    # nonnegative inside their own sector, so snap into [0, 1]
    return (
        0.0 if d_a < 0.0 else 1.0 if d_a > 1.0 else d_a,
        0.0 if d_b < 0.0 else 1.0 if d_b > 1.0 else d_b,
        0.0 if d_c < 0.0 else 1.0 if d_c > 1.0 else d_c,
    )
