"""Tests for the bus-clamped SVPWM duty laws."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import clamped_sector_duties
from notchpwm import ModulatorConfig, angle_at, duty_cycles, sector_of

TWO_PI = 2.0 * math.pi
SECTOR = math.pi / 3.0
CFG = ModulatorConfig(m_index=0.7, f1=50.0, u_dc=24.0)


def interior_angles(per_sector=50, margin=0.01):
    """Angles strictly inside each sector, away from the boundaries."""
    out = []
    for s in range(6):
        lo = s * SECTOR + margin
        hi = (s + 1) * SECTOR - margin
        out.extend(np.linspace(lo, hi, per_sector))
    return out


def test_worked_examples():
    d_a, d_b, d_c = duty_cycles(CFG, math.pi / 6.0)
    assert d_a == pytest.approx(0.7, abs=1e-12)
    assert d_b == pytest.approx(0.35, abs=1e-12)
    assert d_c == 0.0

    d_a, d_b, d_c = duty_cycles(CFG, math.pi / 2.0)
    assert d_a == pytest.approx(0.35, abs=1e-12)
    assert d_b == pytest.approx(0.7, abs=1e-12)
    assert d_c == 0.0


def test_returns_a_plain_tuple():
    d = duty_cycles(CFG, 0.3)
    assert type(d) is tuple and len(d) == 3


def _near_sector_edges():
    """Angles at, one ulp below and one ulp above each k * pi / 3."""
    edges = [k * SECTOR for k in range(7)]
    return [
        t
        for e in edges
        for t in (math.nextafter(e, -math.inf), e, math.nextafter(e, math.inf))
        if 0.0 <= t < TWO_PI
    ]


@given(
    st.one_of(
        st.floats(0.0, TWO_PI, exclude_max=True),
        st.sampled_from(_near_sector_edges()),
    ),
    st.floats(0.0, 1.0, exclude_min=True),
)
def test_duty_cycles_match_the_per_sector_laws_bit_for_bit(theta, m):
    def bits(duties):
        return [x.hex() for x in duties]

    cfg = ModulatorConfig(m_index=m, f1=50.0, u_dc=24.0)
    want = clamped_sector_duties(m, theta, sector_of(theta))
    assert bits(duty_cycles(cfg, theta)) == bits(want)
    for sector in range(1, 7):  # a passed sector selects its own laws
        want = clamped_sector_duties(m, theta, sector)
        assert bits(duty_cycles(cfg, theta, sector)) == bits(want)


def test_sector_of():
    assert sector_of(0.0) == 1
    assert sector_of(SECTOR - 1e-9) == 1
    assert sector_of(SECTOR) == 2
    assert sector_of(math.pi) == 4
    assert sector_of(TWO_PI - 1e-9) == 6
    for s in range(6):
        assert sector_of((s + 0.5) * SECTOR) == s + 1


def test_angle_at_wraps():
    assert angle_at(CFG, 0.0) == 0.0
    period = 1.0 / CFG.f1
    # one full fundamental period later the angle is back near 0 (mod 2*pi)
    a = angle_at(CFG, period)
    assert min(a, TWO_PI - a) < 1e-9
    rng = np.random.default_rng(0)
    for t in rng.uniform(0.0, 10.0, 200):
        a = angle_at(CFG, float(t))
        assert 0.0 <= a < TWO_PI


def test_exactly_one_clamped_leg_inside_sectors():
    for theta in interior_angles():
        d = duty_cycles(CFG, float(theta))
        assert sum(1 for x in d if x == 0.0) == 1


def test_clamped_leg_rotates_with_sector():
    # C is clamped in sectors 1-2, A in 3-4, B in 5-6
    clamped = {1: 2, 2: 2, 3: 0, 4: 0, 5: 1, 6: 1}
    for theta in interior_angles():
        d = duty_cycles(CFG, float(theta))
        assert d[clamped[sector_of(float(theta))]] == 0.0


def test_passed_sector_gives_the_computed_sectors_duties():
    rng = np.random.default_rng(4)
    boundaries = [k * SECTOR for k in range(6)] + [TWO_PI - 1e-12]
    for theta in [*rng.uniform(0.0, TWO_PI, 300).tolist(), *boundaries]:
        assert duty_cycles(CFG, theta, sector_of(theta)) == duty_cycles(CFG, theta)


def test_duties_bounded_by_m_index():
    rng = np.random.default_rng(1)
    for m in (0.1, 0.7, 1.0):
        cfg = ModulatorConfig(m_index=m, f1=50.0, u_dc=24.0)
        for theta in rng.uniform(0.0, TWO_PI, 500):
            d = duty_cycles(cfg, float(theta))
            for x in d:
                assert 0.0 <= x <= m + 1e-15


def test_full_modulation_reaches_unity_duty():
    cfg = ModulatorConfig(m_index=1.0, f1=50.0, u_dc=24.0)
    # at the middle of sector 1 the a-leg law peaks at sin(pi/2) = 1
    d_a, _, _ = duty_cycles(cfg, SECTOR / 2.0)
    assert d_a == pytest.approx(1.0, abs=1e-12)


def test_continuity_across_sector_boundaries():
    eps = 1e-6
    for k in range(6):
        b = k * SECTOR
        lo = duty_cycles(CFG, math.fmod(b - eps + TWO_PI, TWO_PI))
        hi = duty_cycles(CFG, b + eps)
        for x, y in zip(lo, hi):
            assert abs(x - y) < 1e-5


def test_cyclic_permutation_under_120_degree_shift():
    shift = TWO_PI / 3.0
    rng = np.random.default_rng(2)
    for theta in rng.uniform(0.0, TWO_PI, 300):
        d0 = duty_cycles(CFG, float(theta))
        d1 = duty_cycles(CFG, math.fmod(float(theta) + shift, TWO_PI))
        # shifting the vector by one third of a turn relabels the legs
        assert d1 == pytest.approx((d0[2], d0[0], d0[1]), abs=1e-9)


def test_small_modulation_scales_linearly():
    cfg = ModulatorConfig(m_index=1e-6, f1=50.0, u_dc=24.0)
    for theta in interior_angles(per_sector=10):
        for x in duty_cycles(cfg, float(theta)):
            assert x <= 1e-6


def test_config_validation():
    with pytest.raises(ValueError):
        ModulatorConfig(m_index=0.0, f1=50.0, u_dc=24.0)
    with pytest.raises(ValueError):
        ModulatorConfig(m_index=1.01, f1=50.0, u_dc=24.0)
    with pytest.raises(ValueError):
        ModulatorConfig(m_index=0.7, f1=0.0, u_dc=24.0)
    with pytest.raises(ValueError):
        ModulatorConfig(m_index=0.7, f1=50.0, u_dc=-1.0)
    ModulatorConfig(m_index=1.0, f1=50.0, u_dc=24.0)
