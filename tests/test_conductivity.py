import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from thzplasmon import (CODATA, DegenerateConductivityError, DipoleGeometry,
                        GrapheneSheet, chemical_potential_from_bias,
                        drude_weight, intraband_conductivity, preset_stack,
                        resonance_frequency, stack_metrics_sweep,
                        surface_impedance)

EV = CODATA.electron_charge
OMEGA_1THZ = 2.0 * math.pi * 1e12


def rel_err(a, b):
    return abs(a - b) / abs(b)


# --- constants ---------------------------------------------------------------

def test_constants_positive_and_consistent():
    c = CODATA
    assert c.electron_charge > 0 and c.reduced_planck > 0 and c.boltzmann > 0
    assert c.vacuum_permittivity > 0 and c.light_speed > 0
    alt = 1.0 / (c.vacuum_permittivity * c.light_speed)
    assert rel_err(c.free_space_impedance, alt) < 1e-12


# --- sheet validation --------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    dict(chemical_potential_ev=-0.1, relaxation_time_s=1e-12),
    dict(chemical_potential_ev=0.2, relaxation_time_s=0.0),
    dict(chemical_potential_ev=0.2, relaxation_time_s=1e-12, temperature_k=0.0),
])
def test_sheet_invariants(kwargs):
    with pytest.raises(ValueError):
        GrapheneSheet(**kwargs)


@pytest.mark.parametrize("field", ["chemical_potential_ev", "relaxation_time_s",
                                   "temperature_k"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sheet_rejects_non_finite(field, bad):
    kwargs = dict(chemical_potential_ev=0.2, relaxation_time_s=1e-12,
                  temperature_k=300.0)
    kwargs[field] = bad
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        GrapheneSheet(**kwargs)


def test_sheet_temperature_default():
    assert GrapheneSheet(0.2, 1e-12).temperature_k == 300.0


# --- drude weight ------------------------------------------------------------

def test_drude_weight_zero_potential_is_ln2():
    sheet = GrapheneSheet(0.0, 1e-12)
    prefactor = (2.0 * CODATA.electron_charge**2 / (math.pi * CODATA.reduced_planck)
                 * CODATA.boltzmann * 300.0 / CODATA.reduced_planck)
    assert rel_err(drude_weight(sheet) / prefactor, math.log(2.0)) < 1e-12


def test_drude_weight_degenerate_limit():
    # E_F >> kB T: A approaches e^2 E_F / (pi hbar^2)
    sheet = GrapheneSheet(0.6, 1e-12)
    degenerate = (CODATA.electron_charge**2 * 0.6 * EV
                  / (math.pi * CODATA.reduced_planck**2))
    assert rel_err(drude_weight(sheet), degenerate) < 5e-3


def test_drude_weight_pinned():
    assert rel_err(drude_weight(GrapheneSheet(0.6, 1e-12)),
                   oracles.DRUDE_WEIGHT_0P6EV_300K) < 1e-12
    assert rel_err(drude_weight(GrapheneSheet(0.2, 1e-12)),
                   oracles.DRUDE_WEIGHT_0P2EV_300K) < 1e-12
    assert rel_err(drude_weight(GrapheneSheet(0.0, 1e-12)),
                   oracles.DRUDE_WEIGHT_0EV_300K) < 1e-12


def test_drude_weight_no_overflow_at_large_potential():
    assert math.isfinite(drude_weight(GrapheneSheet(500.0, 1e-12)))


def test_drude_weight_that_overflows_is_rejected():
    # GrapheneSheet accepts 2e297 eV but A overflows: every consumer names
    # the weight instead of failing later on a NaN conductivity
    sheet = GrapheneSheet(2e297, 1e-12)
    for call in (lambda: drude_weight(sheet),
                 lambda: intraband_conductivity(sheet, OMEGA_1THZ),
                 lambda: resonance_frequency(
                     DipoleGeometry(8e-6, 20e-6, 1e-6, 3.8), sheet)):
        with pytest.raises(ValueError, match="^drude_weight must be finite$"):
            call()
    rows = stack_metrics_sweep(preset_stack("H1G", sheet), 4e12, [2e297])
    assert rows[0].status == "failed:drude_weight must be finite"


@given(st.floats(0.01, 2.0), st.floats(0.01, 2.0))
@settings(max_examples=50, deadline=None, derandomize=True)
def test_thermal_ratio_matches_high_precision(ef1, ef2):
    # A(E_F)/A(0) = ln(2 cosh(E_F/2kT)) / ln 2
    ratio = (drude_weight(GrapheneSheet(ef1, 1e-12))
             / drude_weight(GrapheneSheet(0.0, 1e-12)))
    x = ef1 * EV / (2.0 * CODATA.boltzmann * 300.0)
    expected = (x + math.log1p(math.exp(-2.0 * x))) / math.log(2.0)
    assert rel_err(ratio, expected) < 1e-12
    if ef2 > ef1:
        assert (drude_weight(GrapheneSheet(ef2, 1e-12))
                > drude_weight(GrapheneSheet(ef1, 1e-12)))


def test_thermal_ratio_against_mpmath():
    ratio = (drude_weight(GrapheneSheet(0.35, 1e-12))
             / drude_weight(GrapheneSheet(0.0, 1e-12)))
    expected = float(oracles.mp_drude_weight(0.35) / oracles.mp_drude_weight(0.0))
    assert rel_err(ratio, expected) < 1e-12


# --- conductivity ------------------------------------------------------------

def test_dc_limit_is_real_a_tau():
    sheet = GrapheneSheet(0.4, 0.7e-12)
    sigma = intraband_conductivity(sheet, 0.0)
    assert sigma.imag == 0.0
    assert rel_err(sigma.real, drude_weight(sheet) * 0.7e-12) < 1e-12


def test_conductivity_pinned_at_1thz():
    sigma = intraband_conductivity(GrapheneSheet(0.6, 1e-12), OMEGA_1THZ)
    assert rel_err(sigma.real, oracles.SIGMA_0P6EV_1PS_1THZ_RE) < 1e-12
    assert rel_err(sigma.imag, oracles.SIGMA_0P6EV_1PS_1THZ_IM) < 1e-12
    assert rel_err(abs(sigma), oracles.SIGMA_0P6EV_1PS_1THZ_ABS) < 1e-12
    # |sigma| = A tau / sqrt(1 + (w tau)^2)
    expected_abs = (drude_weight(GrapheneSheet(0.6, 1e-12)) * 1e-12
                    / math.sqrt(1.0 + (OMEGA_1THZ * 1e-12) ** 2))
    assert rel_err(abs(sigma), expected_abs) < 1e-12


def test_conductivity_live_mpmath():
    sigma = intraband_conductivity(GrapheneSheet(0.37, 0.45e-12), 2.0 * math.pi * 2.3e12)
    expected = oracles.mp_conductivity(0.37, 0.45e-12, 2.3e12)
    assert rel_err(sigma, expected) < 1e-12


def test_conductivity_grows_with_chemical_potential():
    low = intraband_conductivity(GrapheneSheet(0.2, 1e-12), OMEGA_1THZ)
    high = intraband_conductivity(GrapheneSheet(0.6, 1e-12), OMEGA_1THZ)
    assert abs(high) > abs(low)
    assert high.real > low.real


def test_negative_frequency_rejected():
    with pytest.raises(ValueError):
        intraband_conductivity(GrapheneSheet(0.2, 1e-12), -1.0)


@given(st.floats(0.05, 1.5), st.floats(0.05, 2.0), st.floats(0.05, 8.0),
       st.floats(1.05, 3.0))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_conductivity_sign_and_monotonicity(ef, tau_ps, f_thz, f_factor):
    sheet = GrapheneSheet(ef, tau_ps * 1e-12)
    omega = 2.0 * math.pi * f_thz * 1e12
    sigma = intraband_conductivity(sheet, omega)
    assert sigma.real > 0.0 and sigma.imag > 0.0
    # |sigma| strictly decreasing in frequency
    assert abs(intraband_conductivity(sheet, omega * f_factor)) < abs(sigma)
    # Re(sigma) * (w^2 + 1/tau^2) / A = 1/tau exactly
    tau = tau_ps * 1e-12
    lhs = sigma.real * (omega**2 + tau**-2) / drude_weight(sheet)
    assert rel_err(lhs, 1.0 / tau) < 1e-12


# --- surface impedance -------------------------------------------------------

def test_impedance_reciprocal_identity():
    sheet = GrapheneSheet(0.3, 0.8e-12)
    omega = 2.0 * math.pi * 1.7e12
    product = surface_impedance(sheet, omega) * intraband_conductivity(sheet, omega)
    assert abs(product - 1.0) < 1e-12


def test_impedance_dc_limit():
    sheet = GrapheneSheet(0.5, 1e-12)
    z = surface_impedance(sheet, 0.0)
    assert z.imag == 0.0
    assert rel_err(z.real, 1.0 / (drude_weight(sheet) * 1e-12)) < 1e-12


def test_impedance_pinned():
    z = surface_impedance(GrapheneSheet(0.6, 1e-12), OMEGA_1THZ)
    assert rel_err(z.real, oracles.IMPEDANCE_0P6EV_1PS_1THZ_RE) < 1e-12
    assert rel_err(z.imag, oracles.IMPEDANCE_0P6EV_1PS_1THZ_IM) < 1e-12


def test_impedance_degenerate_conductivity():
    with pytest.raises(DegenerateConductivityError):
        surface_impedance(GrapheneSheet(0.0, 1e-32, temperature_k=1e-6), OMEGA_1THZ)


# --- bias mapping ------------------------------------------------------------

def test_bias_zero_and_direct_value():
    assert chemical_potential_from_bias(0.0, 0.2) == 0.0
    assert rel_err(chemical_potential_from_bias(4.0, 0.2), 0.4) < 1e-15


def test_bias_sign_symmetry():
    assert (chemical_potential_from_bias(-4.0, 0.2)
            == chemical_potential_from_bias(4.0, 0.2))


@given(st.floats(0.0, 100.0), st.floats(0.0, 100.0), st.floats(0.01, 2.0))
@settings(max_examples=50, deadline=None, derandomize=True)
def test_bias_monotone_in_magnitude(v1, v2, k):
    lo, hi = sorted((v1, v2))
    assert (chemical_potential_from_bias(lo, k)
            <= chemical_potential_from_bias(hi, k))


def test_bias_requires_positive_sensitivity():
    with pytest.raises(ValueError):
        chemical_potential_from_bias(1.0, 0.0)
