"""Every physical input passes one rule: it must be finite, and then lie in
its interval.  NaN and +-inf never pass, whichever entry point they reach."""
import math

import pytest

from thzplasmon import (DipoleGeometry, GrapheneSheet, ModeSolution,
                        PhysicalConstants, ResonancePrediction,
                        ScenarioRequirements, chemical_potential_from_bias,
                        fits_footprint, graphene_on_substrate,
                        metal_dipole_resonance, resonance_frequency,
                        scenario_by_name, sdm_cell_size, trace_dispersion)

SHEET = GrapheneSheet(0.2, 1e-12)
MODE = ModeSolution(2e12 * math.pi, 1e5 + 1e3j, 0.0)

ENTRY_POINTS = {
    "ModeSolution": lambda bad: ModeSolution(bad, 1 + 1j, 0.0),
    "ModeSolution.wavevector.real":
        lambda bad: ModeSolution(1.0, complex(bad, 1.0), 0.0),
    "ModeSolution.wavevector.imag":
        lambda bad: ModeSolution(1.0, complex(1.0, bad), 0.0),
    "ModeSolution.residual": lambda bad: ModeSolution(1.0, 1 + 1j, bad),
    "ResonancePrediction": lambda bad: ResonancePrediction(bad, MODE, 1e12,
                                                           1.0, 0.5),
    "PhysicalConstants.electron_charge":
        lambda bad: PhysicalConstants(electron_charge=bad),
    "PhysicalConstants.free_space_impedance":
        lambda bad: PhysicalConstants(free_space_impedance=bad),
    "fits_footprint": lambda bad: fits_footprint(bad, 8e-6, scenario_by_name("SDM")),
    "metal_dipole_resonance.length": lambda bad: metal_dipole_resonance(bad, 3.8),
    "metal_dipole_resonance.permittivity":
        lambda bad: metal_dipole_resonance(20e-6, bad),
    "sdm_cell_size": sdm_cell_size,
    "chemical_potential_from_bias": lambda bad: chemical_potential_from_bias(1.0, bad),
    "ScenarioRequirements": lambda bad: ScenarioRequirements(
        "x", (1e-12, bad), (1e-3, 1.0), (1e6, 1e8)),
    "resonance_frequency.band_hz": lambda bad: resonance_frequency(
        DipoleGeometry(8e-6, 20e-6, 3e-6, 3.8), SHEET, band_hz=(1e11, bad)),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_input_is_rejected(entry, bad):
    with pytest.raises(ValueError, match="must be finite"):
        ENTRY_POINTS[entry](bad)


def test_nan_in_trace_grid_is_rejected():
    # every comparison with NaN is False, so a test for a descent misses it
    stack = graphene_on_substrate(SHEET, 3.8)
    with pytest.raises(ValueError, match="strictly increasing"):
        trace_dispersion(stack, [2e12, math.nan, 1e12])


@pytest.mark.parametrize("wavevector, residual, message", [
    (1 + 1j, -1.0, "residual must be >= 0"),
    (1 + 0j, 0.0, "Im wavevector must be > 0"),
])
def test_mode_solution_out_of_range_is_rejected(wavevector, residual, message):
    with pytest.raises(ValueError, match=message):
        ModeSolution(1.0, wavevector, residual)
