import math

import pytest

import oracles
from thzplasmon import antenna, modesolver
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


@pytest.mark.parametrize("length_m, eps, message", [
    (5e-324, 1.0, "metal dipole resonance must be finite"),
    # 2 L overflows, so c0 over it is 0 Hz
    (1.7e308, 1.0, "metal dipole resonance must be > 0"),
])
def test_metal_reference_rejects_an_overflowing_frequency(length_m, eps, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        metal_dipole_resonance(length_m, eps)


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
    prediction = resonance_frequency(dipole, sheet)
    value = prediction.resonance_frequency_hz
    # the condition involves only the product alpha * L
    reference = _oracle_resonance(alpha * length_um * 1e-6, sheet)
    assert abs(value - reference) < 1e-9 * reference
    # both Newton unknowns: at the returned frequency the 30-digit bound
    # plasmon is half a wavelength long and has the returned Im q
    q = oracles.mp_two_half_space_mode(1.0, 3.8, ef, tau_ps * 1e-12, value)
    length = alpha * (length_um * 1e-6)
    assert abs(q.real * length - math.pi) < 1e-12 * math.pi
    assert abs(q.imag - prediction.mode.wavevector.imag) < 1e-12 * q.imag


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


def test_overflowing_seed_names_both_band_edges():
    # on eps_r = 1e300, q_qs at 0.1 THz is finite (1.48e302 + 2.36e302j
    # rad/m), so f0 = 3.3e-138 Hz clamps to the low edge; the cold solve
    # there fails, so there is no start and the error reports both edges
    dipole = DipoleGeometry(8e-6, 20e-6, 1e-6, 1e300)
    with pytest.raises(NoResonanceInBandError) as info:
        resonance_frequency(dipole, SHEET_02)
    edge = ("no root of the mode condition converged within 100 iterations "
            "at f = {} Hz")
    assert str(info.value) == (
        "no half-wavelength resonance in [1.000e+11, 1.000e+13] Hz "
        f"(low edge 1.000e+11 Hz: {edge.format('1e+11')}; "
        f"high edge 1.000e+13 Hz: {edge.format('1e+13')})")


def test_underflowing_seed_names_both_band_edges():
    # Im sigma underflows, so Re q_qs at the band's low edge is 0 and the
    # quasi-static seed would divide by it: there is no start
    dipole = DipoleGeometry(8e-6, 20e-6, 3e-6, 3.8)
    with pytest.raises(NoResonanceInBandError) as info:
        resonance_frequency(dipole, GrapheneSheet(1e266, 1e-307))
    assert str(info.value) == (
        "no half-wavelength resonance in [1.000e+11, 1.000e+13] Hz "
        "(low edge 1.000e+11 Hz: not bound: Re q = 0 k0 does not exceed the "
        "cladding index 1.94936; high edge 1.000e+13 Hz: ok)")


@pytest.mark.parametrize("length_m", [1e-23, 1e-30])
def test_tiny_dipole_is_too_short(length_m):
    # Re q * L is far below pi (g + pi even rounds to pi) at the top of the
    # band, where the seed is clamped: the error is the too-short one
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


@pytest.mark.parametrize("ef, re_x", [(0.6, "0.237033"), (1.0, "0.897886")])
def test_too_long_dipole_raises_at_once(ef, re_x):
    # Newton converges to a root below the cladding index (x = 1.945 + 1.30i
    # at 0.6 eV, 1.833 + 0.447i at 1.0 eV); Re x only grows with f, so no
    # bound sign change is left in the band.  The message is the band
    # scan's, which took 16 637 evaluations at 0.6 eV
    dipole = DipoleGeometry(total_length_m=40e-6, end_correction=1.5,
                            **QUARTZ_DIPOLE)
    messages = []

    def call():
        with pytest.raises(NoResonanceInBandError) as info:
            resonance_frequency(dipole, GrapheneSheet(ef, 0.1e-12))
        messages.append(str(info.value))

    evals = oracles.count_evals(call)
    assert messages == [_LOW_NOT_BOUND.format(re_x, "1.94936")]
    if ef == 0.6:
        # the cold solves at f0 and at both band edges, and 6 Newton steps
        assert evals <= 500


# 20 mm: f0 clamps to the low edge, whose cold solve raises, so there is no
# start
LONG_DIPOLE = DipoleGeometry(0.05e-6, 20e-3, 1e-6, 3.8)


def test_long_dipole_message():
    with pytest.raises(NoResonanceInBandError) as info:
        resonance_frequency(LONG_DIPOLE, SHEET_02)
    assert str(info.value) == _LOW_NOT_BOUND.format("1.90996", "1.94936")


@pytest.mark.parametrize("dipole, sheet, fail_seed", [
    (LONG_DIPOLE, SHEET_02, False),
    (DipoleGeometry(8e-6, 20e-6, 1e-6, 1e300), SHEET_02, False),
    (DipoleGeometry(0.05e-6, 2e-3, 0.05e-6, 3.8), SHEET_02, False),
    (DipoleGeometry(total_length_m=40e-6, end_correction=1.5, **QUARTZ_DIPOLE),
     GrapheneSheet(0.6, 0.1e-12), False),
    (DipoleGeometry(0.05e-6, 0.2e-6, 0.05e-6, 3.8), SHEET_02, False),
    (DipoleGeometry(total_length_m=20e-6, **QUARTZ_DIPOLE), SHEET_02, True),
], ids=["20mm", "eps1e300", "2mm", "too-long-40um", "too-short",
        "failed-seed"])
def test_no_frequency_is_solved_twice_in_one_search(monkeypatch, dipole,
                                                    sheet, fail_seed):
    # the seed and the band-edge statuses read one record of cold solves;
    # a seed whose solve fails leaves no start
    omegas = []
    real_find_mode = antenna.find_mode

    def recorded(stack, omega, guess=None):
        omegas.append(omega)
        if fail_seed and len(omegas) == 1:
            raise ConvergenceError("injected failure of the seed solve")
        return real_find_mode(stack, omega, guess)

    monkeypatch.setattr(antenna, "find_mode", recorded)
    with pytest.raises(NoResonanceInBandError):
        resonance_frequency(dipole, sheet)
    assert len(omegas) == len(set(omegas)) > 1


def test_newton_step_is_damped(monkeypatch):
    # the moved seed lies far from the root: the first step is shortened to
    # |d f| = _MAX_STEP f; undamped, it steps below f = 0
    dipole = DipoleGeometry(1e-6, 40e-6, 1e-6, 11.9)
    sheet = GrapheneSheet(1.5, 0.5e-12)
    freqs = []
    real_form = modesolver._form_with_derivatives

    def recorded(stack, omega, x):
        freqs.append(omega / (2.0 * math.pi))
        return real_form(stack, omega, x)

    monkeypatch.setattr(modesolver, "_form_with_derivatives", recorded)
    value = resonance_frequency(dipole, sheet).resonance_frequency_hz
    reference = oracles.resonance_frequency_oracle(
        40e-6, 11.9, lambda omega: intraband_conductivity(sheet, omega))
    assert abs(value - reference) < 1e-9 * reference
    steps = [abs(b - a) / a for a, b in zip(freqs, freqs[1:])]
    assert any(abs(step - modesolver._MAX_STEP) < 1e-12 for step in steps)
    monkeypatch.setattr(modesolver, "_MAX_STEP", math.inf)
    with pytest.raises(ValueError, match="^angular_frequency must be > 0$"):
        resonance_frequency(dipole, sheet)


@pytest.mark.parametrize("fault", ["overflow", "nan-derivative"])
def test_newton_gives_up_to_the_light_line_start(monkeypatch, fault):
    # Newton's first evaluation overflows, or hands back a NaN dF/dx and so
    # a non-finite step: the first start gives up, and the start on the
    # light line reaches the same root from the seed's one cold solve
    dipole = DipoleGeometry(total_length_m=20e-6, **QUARTZ_DIPOLE)
    fast = resonance_frequency(dipole, SHEET_02)
    real_form = modesolver._form_with_derivatives
    forms = []

    def first_form_fails(stack, omega, x):
        forms.append(omega)
        value, scale, d_x, d_w = real_form(stack, omega, x)
        if len(forms) == 1:
            if fault == "overflow":
                raise OverflowError("injected overflow of the first form")
            d_x = complex(math.nan, math.nan)
        return value, scale, d_x, d_w

    seeds = []
    real_find_mode = antenna.find_mode

    def recorded(stack, omega, guess=None):
        seeds.append(real_find_mode(stack, omega, guess))
        return seeds[-1]

    monkeypatch.setattr(modesolver, "_form_with_derivatives", first_form_fails)
    monkeypatch.setattr(antenna, "find_mode", recorded)
    value = resonance_frequency(dipole, SHEET_02).resonance_frequency_hz
    assert len(seeds) == 1
    # the starts move f0 by sqrt(shift) and by shift, shift being the
    # ratio of the target Re q to the seed root's
    shift = math.pi / 20e-6 / seeds[0].wavevector.real
    assert forms[1] / forms[0] == pytest.approx(math.sqrt(shift), rel=1e-12)
    assert value == fast.resonance_frequency_hz


def test_resonance_reports_a_stalled_bracketing(monkeypatch):
    # one Newton step cannot converge from either start, so the search
    # ends in the band-edge error
    monkeypatch.setattr(modesolver, "_NEWTON_STEPS", 1)
    dipole = DipoleGeometry(total_length_m=20e-6, **QUARTZ_DIPOLE)
    with pytest.raises(NoResonanceInBandError) as info:
        resonance_frequency(dipole, SHEET_02)
    assert str(info.value) == _LOW_NOT_BOUND.format("1.90996", "1.94936")


# dipoles whose quasi-static move lands below the cladding light line: the
# first start gives up, or (the last two) converges to a point below that
# line, which fails the bound check inside _newton as a Muller root would;
# the start on the light line converges
LIGHT_LINE_DIPOLES = [(200e-6, 3.8, 0.6, 1.0), (100e-6, 11.9, 1.0, 1.0),
                      (200e-6, 3.8, 1.0, 0.5), (500e-6, 3.8, 0.6, 3.0)]


@pytest.mark.parametrize("length_m, eps, ef, tau_ps", LIGHT_LINE_DIPOLES,
                         ids=["200um-quartz", "100um-silicon",
                              "200um-quartz-unbound", "500um-quartz-unbound"])
def test_long_dipole_restarts_on_the_light_line(monkeypatch, length_m, eps,
                                                ef, tau_ps):
    sheet = GrapheneSheet(ef, tau_ps * 1e-12)
    dipole = DipoleGeometry(8e-6, length_m, 3e-6, eps)
    results = []
    real_newton = antenna._newton

    def recorded(*args):
        results.append(real_newton(*args))
        return results[-1]

    omegas = []
    real_find_mode = antenna.find_mode

    def cold(stack, omega, guess=None):
        omegas.append(omega)
        return real_find_mode(stack, omega, guess)

    monkeypatch.setattr(antenna, "_newton", recorded)
    monkeypatch.setattr(antenna, "find_mode", cold)
    prediction = resonance_frequency(dipole, sheet)
    # both starts come from the seed's one cold solve
    assert len(omegas) == 1
    assert results[0] is None and len(results) == 2
    assert results[1][0] == prediction.resonance_frequency_hz
    mode = prediction.mode
    assert modesolver._accepted(graphene_on_substrate(sheet, eps),
                                mode.wavevector / mode.k0, (0j, 1.0)) == 0.0
    reference = oracles.resonance_frequency_oracle(
        length_m, eps, lambda omega: intraband_conductivity(sheet, omega))
    assert abs(prediction.resonance_frequency_hz - reference) < 1e-9 * reference


@pytest.mark.parametrize("ef, tau_ps, eps, f_hz, x", [
    (0.2, 1.0, 3.8, 1.2e12, 2.3 + 0.2j),
    (0.6, 0.1, 3.8, 1.28e12, 1.945 + 1.30j),  # below the cladding index
    (1.0, 0.5, 11.9, 5e12, 4.0 + 0.05j),
    (0.4, 2.0, 1.0, 3e12, 30.0 + 2.0j),
])
def test_newton_jacobian_matches_extended_precision(ef, tau_ps, eps, f_hz, x):
    # dF/dx, and dF/dw at fixed q = x w / c0, of the bilinear form against
    # mpmath's numerical derivatives of a 30-digit transcription
    from mpmath import diff, mpc, mpf
    stack = graphene_on_substrate(GrapheneSheet(ef, tau_ps * 1e-12), eps)
    omega = 2.0 * math.pi * f_hz
    got = modesolver._form_with_derivatives(stack, omega, x)
    _, form = oracles.mp_sheet_condition(1.0, eps, ef, tau_ps * 1e-12)
    x_mp, w_mp = mpc(x.real, x.imag), mpf(omega)
    expected = (form(x_mp, w_mp), diff(lambda z: form(z, w_mp), x_mp),
                diff(lambda w: form(x_mp * w_mp / w, w), w_mp))
    for value, reference in zip((got[0], got[2], got[3]), expected):
        reference = complex(reference)
        assert abs(value - reference) < 1e-10 * abs(reference)


def test_closed_form_derivatives_need_two_layers():
    with pytest.raises(ValueError,
                       match="^closed-form derivatives need exactly two layers$"):
        modesolver._form_with_derivatives(preset_stack("H1G", SHEET_02),
                                          OMEGA_1THZ, 3.0 + 0.1j)


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
