import math

import pytest

import oracles
from thzplasmon import antenna
from thzplasmon import (CODATA, ConvergenceError, DipoleGeometry,
                        GrapheneSheet, ModeSolution,
                        NoResonanceInBandError, efficiency_proxy, find_mode,
                        graphene_on_substrate, intraband_conductivity,
                        metal_dipole_resonance, miniaturization_factor,
                        preset_stack, resonance_frequency, resonant_length)

OMEGA_1THZ = 2.0 * math.pi * 1e12
SHEET_02 = GrapheneSheet(0.2, 1e-12)
QUARTZ_DIPOLE = dict(width_m=8e-6, gap_m=3e-6, substrate_permittivity=3.8)


def test_dipole_validation():
    with pytest.raises(ValueError):
        DipoleGeometry(0.0, 20e-6, 3e-6, 3.8)
    with pytest.raises(ValueError):
        DipoleGeometry(8e-6, 20e-6, 25e-6, 3.8)     # gap >= length
    with pytest.raises(ValueError):
        DipoleGeometry(8e-6, 20e-6, 3e-6, 0.9)
    with pytest.raises(ValueError):
        DipoleGeometry(8e-6, 20e-6, 3e-6, 3.8, end_correction=0.1)


# --- resonant length ---------------------------------------------------------

def test_resonant_length_is_half_guided_wavelength():
    stack = preset_stack("G", SHEET_02)
    mode = find_mode(stack, OMEGA_1THZ)
    value = resonant_length(stack, 1e12)
    assert value == pytest.approx(mode.guided_wavelength_m / 2.0, rel=1e-12)
    assert value == pytest.approx(math.pi / mode.wavevector.real, rel=1e-12)


def test_resonant_length_pinned():
    value = resonant_length(preset_stack("G", SHEET_02), 1e12)
    assert abs(value - oracles.SUPPORTED38_RESONANT_LENGTH_M) \
        < 1e-10 * oracles.SUPPORTED38_RESONANT_LENGTH_M


def test_resonant_length_hybrid_exceeds_plain():
    sheet = GrapheneSheet(0.4, 0.6e-12)
    plain = resonant_length(preset_stack("G", sheet), 4e12)
    hybrid = resonant_length(preset_stack("H1G", sheet), 4e12)
    assert hybrid > plain


# --- metal reference ---------------------------------------------------------

def test_metal_reference_values():
    f = metal_dipole_resonance(20e-6, 3.8)
    expected = CODATA.light_speed / (2.0 * 20e-6 * math.sqrt(2.4))
    assert f == pytest.approx(expected, rel=1e-12)
    assert f == pytest.approx(4.838e12, rel=1e-3)
    assert metal_dipole_resonance(20e-6, 1.0) == pytest.approx(
        CODATA.light_speed / (2.0 * 20e-6), rel=1e-12)


def test_metal_reference_monotone():
    assert metal_dipole_resonance(30e-6, 3.8) < metal_dipole_resonance(20e-6, 3.8)
    assert metal_dipole_resonance(20e-6, 8.0) < metal_dipole_resonance(20e-6, 3.8)
    with pytest.raises(ValueError):
        metal_dipole_resonance(0.0, 3.8)


# --- resonance search --------------------------------------------------------

def test_resonance_against_independent_oracle():
    dipole = DipoleGeometry(total_length_m=20e-6, **QUARTZ_DIPOLE)
    prediction = resonance_frequency(dipole, SHEET_02)

    def sigma_of(omega):
        return intraband_conductivity(SHEET_02, omega)

    reference = oracles.resonance_frequency_oracle(20e-6, 3.8, sigma_of)
    assert abs(prediction.resonance_frequency_hz - reference) < 1e-6 * reference
    # half-wavelength condition satisfied tightly at the returned frequency
    mode = prediction.mode
    assert abs(mode.wavevector.real * 20e-6 - math.pi) < 1e-9
    # miniaturization is the exact quotient of the two outputs
    assert miniaturization_factor(prediction) == pytest.approx(
        prediction.metal_reference_hz / prediction.resonance_frequency_hz, rel=1e-15)
    assert prediction.miniaturization_factor > 1.0


def test_resonance_round_trip_with_resonant_length():
    dipole = DipoleGeometry(total_length_m=20e-6, **QUARTZ_DIPOLE)
    prediction = resonance_frequency(dipole, SHEET_02)
    stack = graphene_on_substrate(SHEET_02, 3.8)
    length = resonant_length(stack, prediction.resonance_frequency_hz)
    assert abs(length - 20e-6) < 1e-3 * 20e-6


def test_resonance_decreases_with_length():
    values = []
    for length_um in (10.0, 20.0, 30.0):
        dipole = DipoleGeometry(total_length_m=length_um * 1e-6, **QUARTZ_DIPOLE)
        values.append(resonance_frequency(dipole, SHEET_02).resonance_frequency_hz)
    assert values[0] > values[1] > values[2]


def test_resonance_increases_with_chemical_potential():
    dipole = DipoleGeometry(total_length_m=20e-6, **QUARTZ_DIPOLE)
    previous = 0.0
    for ef in (0.2, 0.4, 0.6):
        sheet = GrapheneSheet(ef, 1e-12)
        value = resonance_frequency(dipole, sheet).resonance_frequency_hz
        assert value > previous
        previous = value


def test_end_correction_equivalent_to_shorter_dipole():
    # alpha * L enters the condition only through the product
    full = DipoleGeometry(8e-6, 16e-6, 3e-6, 3.8, end_correction=1.0)
    corrected = DipoleGeometry(8e-6, 20e-6, 3e-6, 3.8, end_correction=0.8)
    f1 = resonance_frequency(full, SHEET_02).resonance_frequency_hz
    f2 = resonance_frequency(corrected, SHEET_02).resonance_frequency_hz
    assert abs(f1 - f2) < 1e-6 * f1


def test_no_resonance_outside_band():
    too_long = DipoleGeometry(total_length_m=2e-3, **QUARTZ_DIPOLE)
    with pytest.raises(NoResonanceInBandError):
        resonance_frequency(too_long, SHEET_02)
    too_short = DipoleGeometry(width_m=0.05e-6, total_length_m=0.2e-6,
                               gap_m=0.05e-6, substrate_permittivity=3.8)
    with pytest.raises(NoResonanceInBandError):
        resonance_frequency(too_short, SHEET_02)


def _oracle_resonance(length_m, sheet):
    def sigma_of(omega):
        return intraband_conductivity(sheet, omega)

    return oracles.resonance_frequency_oracle(length_m, 3.8, sigma_of)


RESONANCE_GRID = (
    [(length_um, ef, tau_ps, 1.0) for length_um in (8.0, 20.0, 40.0)
     for ef, tau_ps in ((0.2, 1.0), (0.6, 0.1), (1.0, 0.5))]
    + [(20.0, ef, tau_ps, alpha) for ef, tau_ps in ((0.2, 1.0), (0.6, 0.1),
                                                    (1.0, 0.5))
       for alpha in (0.5, 1.5)])


@pytest.mark.parametrize("length_um, ef, tau_ps, alpha", RESONANCE_GRID)
def test_resonance_matches_oracle_over_grid(length_um, ef, tau_ps, alpha):
    sheet = GrapheneSheet(ef, tau_ps * 1e-12)
    dipole = DipoleGeometry(total_length_m=length_um * 1e-6,
                            end_correction=alpha, **QUARTZ_DIPOLE)
    value = resonance_frequency(dipole, sheet).resonance_frequency_hz
    # the condition involves only the product alpha * L
    reference = _oracle_resonance(alpha * length_um * 1e-6, sheet)
    assert abs(value - reference) < 1e-9 * reference


@pytest.mark.parametrize("length_m", [2e-3, 0.2e-6])
def test_no_resonance_message_names_band_edges(length_m):
    dipole = DipoleGeometry(width_m=0.05e-6, total_length_m=length_m,
                            gap_m=0.05e-6, substrate_permittivity=3.8)
    with pytest.raises(NoResonanceInBandError) as info:
        resonance_frequency(dipole, SHEET_02)
    message = str(info.value)
    assert message.startswith(
        "no half-wavelength resonance in [1.000e+11, 1.000e+13] Hz "
        "(low edge 1.000e+11 Hz: not bound: Re q = ")
    assert message.endswith("; high edge 1.000e+13 Hz: ok)")


def test_overflowing_seed_goes_to_the_band_scan():
    # on eps_r = 1e300 the quasi-static estimate overflows to a NaN
    # frequency; the band scan reports both edges instead of solving there
    dipole = DipoleGeometry(8e-6, 20e-6, 1e-6, 1e300)
    with pytest.raises(NoResonanceInBandError) as info:
        resonance_frequency(dipole, SHEET_02)
    edge = ("no root of the mode condition converged within 100 iterations "
            "at f = {} Hz")
    assert str(info.value) == (
        "no half-wavelength resonance in [1.000e+11, 1.000e+13] Hz "
        f"(low edge 1.000e+11 Hz: {edge.format('1e+11')}; "
        f"high edge 1.000e+13 Hz: {edge.format('1e+13')})")


@pytest.mark.parametrize("length_m", [1e-23, 1e-30])
def test_tiny_dipole_is_too_short(length_m):
    # Re q * L falls below half an ulp of pi, so g + pi rounds to 0: the
    # secant's log(g + pi) is -inf, and the error is the too-short one
    def message(length):
        with pytest.raises(NoResonanceInBandError) as info:
            resonance_frequency(DipoleGeometry(8e-6, length, length / 10, 3.8),
                                SHEET_02)
        return str(info.value)

    assert message(length_m) == message(1e-22)


# messages of the band scan, recorded before too-short dipoles skipped it
_LOW_NOT_BOUND = ("no half-wavelength resonance in [1.000e+11, 1.000e+13] Hz "
                  "(low edge 1.000e+11 Hz: not bound: Re q = {} k0 does not "
                  "exceed the cladding index {}; high edge 1.000e+13 Hz: ok)")
_LOW_OK = ("no half-wavelength resonance in [1.000e+11, 1.000e+13] Hz "
           "(low edge 1.000e+11 Hz: ok; high edge 1.000e+13 Hz: ok)")


@pytest.mark.parametrize("eps, ef, tau_ps, message", [
    (1.0, 0.2, 1.0, _LOW_NOT_BOUND.format("0.98503", "1")),
    (1.0, 0.6, 0.1, _LOW_NOT_BOUND.format("0.663406", "1")),
    (1.0, 0.4, 2.0, _LOW_OK),
    (3.8, 0.2, 1.0, _LOW_NOT_BOUND.format("1.90996", "1.94936")),
    (3.8, 0.6, 0.1, _LOW_NOT_BOUND.format("0.237033", "1.94936")),
    (3.8, 0.4, 2.0, _LOW_OK),
    (3.8, 0.8, 1.0, _LOW_NOT_BOUND.format("1.94741", "1.94936")),
    (11.9, 0.6, 0.1, _LOW_NOT_BOUND.format("0.401177", "3.44964")),
    (11.9, 0.4, 2.0, _LOW_OK),
])
def test_too_short_dipole_message_unchanged(eps, ef, tau_ps, message):
    dipole = DipoleGeometry(0.05e-6, 0.2e-6, 0.02e-6, eps, 1.5)
    with pytest.raises(NoResonanceInBandError) as info:
        resonance_frequency(dipole, GrapheneSheet(ef, tau_ps * 1e-12))
    assert str(info.value) == message


def test_resonance_fallback_scan_returns_oracle_root(monkeypatch):
    calls = []
    real_find_mode = antenna.find_mode

    def first_cold_solve_fails(stack, omega, guess=None, **kwargs):
        calls.append(guess is None)
        if len(calls) == 1:
            raise ConvergenceError("injected failure of the seed solve")
        return real_find_mode(stack, omega, guess, **kwargs)

    monkeypatch.setattr(antenna, "find_mode", first_cold_solve_fails)
    dipole = DipoleGeometry(total_length_m=20e-6, **QUARTZ_DIPOLE)
    value = resonance_frequency(dipole, SHEET_02).resonance_frequency_hz
    assert calls[0] is True
    assert len(calls) > 48            # the band scan ran
    reference = _oracle_resonance(20e-6, SHEET_02)
    assert abs(value - reference) < 1e-9 * reference


# _secant_root on synthetic gap functions: g jumps from -1 to +1 at f = 2
JUMP_AT = 2.0


def _jump(evaluated):
    def gap(f):
        evaluated.append(f)
        return -1.0 if f < JUMP_AT else 1.0
    return gap


def test_secant_stops_when_g_falls_and_the_bracket_is_half_open():
    # a falling g has no secant step; with no upper bracket end there is
    # nothing to bisect, so the search stops unconverged without evaluating
    def never(f):
        raise AssertionError("g evaluated")
    assert antenna._secant_root(never, 1.0, 4.0, [(1.0, 0.5), (2.0, -0.5)]) \
        == (2.0, -0.5, False)


def test_secant_bisects_inside_a_known_bracket():
    evaluated = []
    f_a, f_b = JUMP_AT * (1 - 1e-9), JUMP_AT * (1 + 1e-9)
    f, g, converged = antenna._secant_root(_jump(evaluated), 1.0, 4.0,
                                           [(f_a, -1.0), (f_b, 1.0)], f_a, f_b)
    # a jump leaves the secant flat, so the bracket is halved until a step
    # is no longer than 4 ulp
    assert converged and g == 1.0
    assert 0.0 <= f - JUMP_AT <= 8 * math.ulp(JUMP_AT)
    assert len(evaluated) < antenna._SECANT_STEPS
    assert all(f_a < x < f_b for x in evaluated)


def test_secant_runs_out_of_steps_on_a_wide_bracket():
    # 40 bisections of [1, 4] cannot close it to 4 ulp
    evaluated = []
    f, _, converged = antenna._secant_root(_jump(evaluated), 1.0, 4.0,
                                           [(1.0, -1.0), (4.0, 1.0)], 1.0, 4.0)
    assert not converged
    assert len(evaluated) == antenna._SECANT_STEPS
    assert all(1.0 < x < 4.0 for x in evaluated) and f == evaluated[-1]
    assert abs(f - JUMP_AT) < 1e-9


@pytest.mark.parametrize("field", ["width_m", "total_length_m", "gap_m",
                                   "substrate_permittivity", "end_correction"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_dipole_rejects_non_finite(field, bad):
    kwargs = dict(width_m=8e-6, total_length_m=20e-6, gap_m=3e-6,
                  substrate_permittivity=3.8, end_correction=1.0)
    kwargs[field] = bad
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        DipoleGeometry(**kwargs)


# --- efficiency proxy --------------------------------------------------------

def _mode(q, omega=OMEGA_1THZ):
    return ModeSolution(omega, q, 0.0)


def test_proxy_bounds_and_monotonicity():
    base = _mode(50e3 + 5e3j)
    assert 0.0 < efficiency_proxy(base) < 1.0
    # more loss at fixed Re q: proxy drops
    assert efficiency_proxy(_mode(50e3 + 10e3j)) < efficiency_proxy(base)
    # larger guided wavelength at fixed propagation length: proxy drops
    assert efficiency_proxy(_mode(25e3 + 5e3j)) < efficiency_proxy(base)


def test_proxy_increases_with_relaxation_time():
    values = []
    for tau_ps in (0.25, 0.5, 1.0):
        mode = find_mode(preset_stack("G", GrapheneSheet(0.6, tau_ps * 1e-12)),
                         2.0 * math.pi * 2e12)
        values.append(efficiency_proxy(mode))
    assert values[0] < values[1] < values[2]


def test_proxy_higher_for_hybrid_stacks():
    sheet = GrapheneSheet(0.4, 0.6e-12)
    omega = 2.0 * math.pi * 4e12
    plain = efficiency_proxy(find_mode(preset_stack("G", sheet), omega))
    for name in ("H1G", "H2G"):
        assert efficiency_proxy(find_mode(preset_stack(name, sheet), omega)) > plain
