"""The package's public names."""

from dataclasses import fields

import notchpwm
from notchpwm import NotchReport, SampledWaveform, Spectrum, scheduler, spectrum, synthesis

# helpers that only tests called, and the error only one of them raised
REMOVED = {
    scheduler: ("InfeasibleError", "next_position_sns_rp"),
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
