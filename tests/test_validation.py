"""Every physical input passes one rule: it must be finite, and then lie in
its interval.  NaN and +-inf never pass, whichever entry point they reach."""
import cmath
import dataclasses
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thzplasmon import modesolver
from thzplasmon import (DipoleGeometry, GrapheneSheet, ModeSolution,
                        ModeSolverError, NoResonanceInBandError,
                        ResonancePrediction, ScenarioRequirements,
                        builtin_scenarios, chemical_potential_from_bias,
                        dispersion_residual, find_mode, fits_footprint,
                        graphene_on_substrate, intraband_conductivity,
                        metal_dipole_resonance, quasi_static_wavevector,
                        residual_scale, resonance_frequency, scenario_by_name,
                        sdm_cell_size, stack_metrics_sweep, surface_impedance,
                        trace_dispersion)

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
    "fits_footprint": lambda bad: fits_footprint(bad, 8e-6, scenario_by_name("SDM")),
    "metal_dipole_resonance.length": lambda bad: metal_dipole_resonance(bad, 3.8),
    "metal_dipole_resonance.permittivity":
        lambda bad: metal_dipole_resonance(20e-6, bad),
    "sdm_cell_size": sdm_cell_size,
    "chemical_potential_from_bias": lambda bad: chemical_potential_from_bias(1.0, bad),
    "ScenarioRequirements": lambda bad: ScenarioRequirements(
        "x", (1e-12, bad), (1e-3, 1.0), (1e6, 1e8)),
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
    (complex(0.0, 1.0), 0.0, "Re wavevector must be > 0"),
    (complex(-1.0, 1.0), 0.0, "Re wavevector must be > 0"),
    # 2 pi / Re q overflows, and so does Re q / (4 pi Im q)
    (complex(5e-324, 1.0), 0.0, "normalized propagation length must be > 0"),
    (complex(1e300, 1e-10), 0.0, "normalized propagation length must be finite"),
])
def test_mode_solution_out_of_range_is_rejected(wavevector, residual, message):
    with pytest.raises(ValueError, match=message):
        ModeSolution(1.0, wavevector, residual)


def test_nearly_lossless_mode_whose_figures_overflow_is_rejected():
    # on a 1e19 superstrate a 1e298 s sheet's root at 0.1 THz has
    # Im q = 4.7e-290 against Re q = 3.0e20 rad/m, so L_p / lambda_g
    # overflows; a trace records the point as failed
    stack = graphene_on_substrate(GrapheneSheet(1.0, 1e298, 1.0), 1.0, 1e19)
    with pytest.raises(ValueError,
                       match="^normalized propagation length must be finite$"):
        find_mode(stack, 2.0 * math.pi * 1e11)
    point, = trace_dispersion(stack, [1e11])
    assert point.status == "failed:normalized propagation length must be finite"


# the errors the API documents for an input it cannot serve
DOCUMENTED = (ValueError, ModeSolverError, NoResonanceInBandError)


def _decades(lo, hi):
    """A float spread evenly over the decades of [lo, hi]."""
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


# any finite float, subnormals and both signs included, or a positive one
# spread evenly over the decades of the whole range
ANY = st.floats(allow_nan=False, allow_infinity=False) | _decades(5e-324, 1.7e308)


def _values(lo, hi):
    """ANY, or a float spread evenly over the decades of [lo, hi], where
    the physical inputs live."""
    return ANY | _decades(lo, hi)


def _numbers(result):
    """Every number a result holds, a mode's derived figures included."""
    if isinstance(result, (float, complex)):
        yield result
    elif isinstance(result, (list, tuple)):
        for item in result:
            yield from _numbers(item)
    elif isinstance(result, ModeSolution):
        yield from (result.wavevector, result.residual, result.frequency_hz,
                    result.k0, result.effective_index,
                    result.guided_wavelength_m, result.propagation_length_m,
                    result.normalized_propagation_length)
    elif dataclasses.is_dataclass(result):
        for field in dataclasses.fields(result):
            yield from _numbers(getattr(result, field.name))


def _finite_or_documented(call, *args):
    """call(*args), or None where it raised a documented error; every number
    it returns is finite."""
    try:
        result = call(*args)
    except DOCUMENTED:
        return None
    assert all(cmath.isfinite(value) for value in _numbers(result)), \
        (call.__name__, args, result)
    return result


def _check_residuals(stack, q, omega):
    # residual_scale is infinite only at a pole of D: a zero (quartered)
    # product of the walks' denominators
    _finite_or_documented(dispersion_residual, stack, q, omega)
    try:
        scale = residual_scale(stack, q, omega)
    except DOCUMENTED:
        return
    if scale == math.inf:
        _, geometry = modesolver._mode_problem(stack, omega)
        parts = modesolver._mode_function(q / geometry[0], geometry, 0j)
        assert 0.25 * (parts[2] * parts[3]) == 0.0
    else:
        assert math.isfinite(scale)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(pool=st.lists(ANY, min_size=6, max_size=6),
       scenario=st.sampled_from(builtin_scenarios()),
       ef=_values(0.01, 1.0), tau=_values(1e-14, 1e-11),
       temperature=_values(1.0, 1e3), frequency=_values(1e11, 1e14),
       frequency_2=_values(1e11, 1e14), substrate=_values(1.0, 12.0),
       superstrate=_values(1.0, 12.0),
       q=st.builds(complex, _values(1e3, 1e13), _values(1.0, 1e13)),
       length=_values(1e-6, 1e-4), width=_values(1e-7, 1e-5),
       gap=_values(1e-8, 1e-6), end_correction=_values(0.5, 1.5),
       budget=_values(1e-3, 1.0),
       dipole_sheet=st.builds(GrapheneSheet, _decades(0.01, 1.0),
                              _decades(1e-14, 1e-11)))
def test_public_api_is_finite_or_raises_a_documented_error(
        pool, scenario, ef, tau, temperature, frequency, frequency_2,
        substrate, superstrate, q, length, width, gap, end_correction, budget,
        dipole_sheet):
    # one frequency serves as w where an entry point takes rad/s and as f
    # where it takes Hz
    check = _finite_or_documented
    # a closed form overflows where two inputs are extreme together, so
    # each runs on every pair of the pool
    for a, b in itertools.product(pool, repeat=2):
        check(chemical_potential_from_bias, a, b)
        check(metal_dipole_resonance, a, b)
        check(fits_footprint, a, b, scenario, budget)
    for a in pool:
        check(sdm_cell_size, a)
    dipole = check(DipoleGeometry, width, length, gap, substrate,
                   end_correction)
    if dipole is not None:
        # on a sheet of the physical ranges: one far outside them has no
        # bound mode in the band, so its search would end at the band-edge
        # error every time
        check(resonance_frequency, dipole, dipole_sheet)
    sheet = check(GrapheneSheet, ef, tau, temperature)
    if sheet is None:
        return
    check(intraband_conductivity, sheet, frequency)
    check(surface_impedance, sheet, frequency)
    # the cheap calls also on the pool's substrates, where the seed's
    # product and the residuals' terms overflow
    for eps in pool:
        stack = check(graphene_on_substrate, sheet, eps)
        if stack is not None:
            check(quasi_static_wavevector, stack, frequency)
            _check_residuals(stack, q, frequency)
    # the solves run on a sheet between two half-spaces, where each is cheap
    stack = check(graphene_on_substrate, sheet, substrate, superstrate)
    if stack is not None:
        check(quasi_static_wavevector, stack, frequency)
        check(find_mode, stack, frequency)
        check(trace_dispersion, stack, sorted((frequency, frequency_2)))
        check(stack_metrics_sweep, stack, frequency, (ef, frequency_2))
        _check_residuals(stack, q, frequency)
