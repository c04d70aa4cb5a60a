"""The package's public names."""

from dataclasses import fields
from typing import get_type_hints

import notchpwm
from notchpwm import (
    CancelMethod,
    NotchReport,
    PulseTrain,
    RunStats,
    SampledWaveform,
    SeededRng,
    Spectrum,
    StrategySpec,
    circuit,
    modulator,
    scheduler,
    spectrum,
    synthesis,
)
from notchpwm.cli import ScenarioConfig

# helpers that only tests called, the error only one of them raised, a
# result type whose times column no caller read, and a named duty triple
# whose fields no caller read
REMOVED = {
    circuit: ("CurrentTrace",),
    modulator: ("DutyTriple", "_sector_duties"),
    scheduler: ("InfeasibleError", "next_position_sns_rp", "next_rf"),
    synthesis: ("phase_voltages",),
    spectrum: ("rfft_grid",),
}


def test_public_names_resolve_and_removed_names_are_gone():
    assert len(set(notchpwm.__all__)) == len(notchpwm.__all__)
    for name in notchpwm.__all__:
        getattr(notchpwm, name)
    for module, names in REMOVED.items():
        for name in names:
            assert name not in notchpwm.__all__
            assert not hasattr(notchpwm, name)
            assert not hasattr(module, name)
    # result fields that nothing read
    assert [f.name for f in fields(Spectrum)] == ["freqs", "values", "resolution"]
    assert [f.name for f in fields(NotchReport)] == [
        "max_reduction_db",
        "mean_reduction_db",
        "notch_width_hz",
        "threshold_db",
    ]
    assert [f.name for f in fields(SampledWaveform)] == ["values", "rate"]
    assert not hasattr(SampledWaveform, "times")  # sample k sits at k / rate
    # state that nothing read
    assert [f.name for f in fields(PulseTrain)] == ["times", "duration", "max_switching_freq"]
    assert not hasattr(RunStats(), "total_fallbacks")
    assert not hasattr(SeededRng(1), "seed")


def test_one_cancel_method_field():
    # sns_rp_variant survives only as an init-only StrategySpec keyword
    for cls, count in ((StrategySpec, 9), (ScenarioConfig, 23)):
        names = [f.name for f in fields(cls)]
        assert len(names) == count and "sns_rp_variant" not in names
        hints = get_type_hints(cls)
        assert [n for n in names if hints[n] is CancelMethod] == ["cancel_method"]
