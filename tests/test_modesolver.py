import cmath
import copy
import dataclasses
import json
import math
import pickle
import re
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from thzplasmon import conductivity, modesolver
from thzplasmon import (BranchCutProximityError, CODATA, ConvergenceError,
                        DegenerateConductivityError, DielectricLayer,
                        DipoleGeometry, GrapheneSheet, LayeredStack,
                        ModeSolverError, NonBoundModeError,
                        dispersion_residual, find_mode,
                        free_standing_sheet, graphene_on_substrate,
                        intraband_conductivity, preset_stack,
                        quasi_static_wavevector, residual_scale,
                        resonance_frequency, stack_metrics_sweep,
                        trace_dispersion)

C0 = CODATA.light_speed
EPS0 = CODATA.vacuum_permittivity
OMEGA_1THZ = 2.0 * math.pi * 1e12

SHEET_02 = GrapheneSheet(0.2, 1e-12)


def closed_form_free_standing(sheet, omega):
    # kappa = 2 i w eps0 / sigma, q = sqrt(kappa^2 + k0^2)
    sigma = intraband_conductivity(sheet, omega)
    kappa = 2j * omega * EPS0 / sigma
    k0 = omega / C0
    q = cmath.sqrt(kappa * kappa + k0 * k0)
    return -q if q.real < 0 else q


# --- stack validation --------------------------------------------------------

def test_stack_invariants():
    vac = DielectricLayer(1.0)
    film = DielectricLayer(4.0, 1e-6)
    with pytest.raises(ValueError):
        LayeredStack((vac,), {0: SHEET_02})
    with pytest.raises(ValueError):
        LayeredStack((vac, film), {0: SHEET_02})        # cladding with thickness
    with pytest.raises(ValueError):
        LayeredStack((vac, vac, vac), {0: SHEET_02})    # interior semi-infinite
    with pytest.raises(ValueError):
        LayeredStack((vac, vac), {})                    # no sheet
    with pytest.raises(ValueError):
        LayeredStack((vac, vac), {5: SHEET_02})         # bad interface index
    with pytest.raises(ValueError):
        DielectricLayer(0.5)


@pytest.mark.parametrize("kwargs", [
    dict(relative_permittivity=math.nan),
    dict(relative_permittivity=math.inf),
    dict(relative_permittivity=2.0, thickness_m=math.nan),
    dict(relative_permittivity=2.0, thickness_m=math.inf),
])
def test_layer_rejects_non_finite(kwargs):
    with pytest.raises(ValueError, match="must be finite"):
        DielectricLayer(**kwargs)


@pytest.mark.parametrize("entry", [
    lambda stack, w: find_mode(stack, w),
    lambda stack, w: dispersion_residual(stack, 1e5 + 1e4j, w),
    lambda stack, w: quasi_static_wavevector(stack, w),
    lambda stack, w: residual_scale(stack, 1e5 + 1e4j, w),
    lambda stack, w: intraband_conductivity(SHEET_02, w),
], ids=["find_mode", "dispersion_residual", "quasi_static_wavevector",
        "residual_scale", "intraband_conductivity"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_solver_entry_points_reject_non_finite_frequency(entry, bad):
    with pytest.raises(ValueError, match="angular_frequency must be finite"):
        entry(graphene_on_substrate(SHEET_02, 3.8), bad)


def test_preset_layouts():
    g = preset_stack("G", SHEET_02)
    assert len(g.layers) == 2 and g.sheets[0] is SHEET_02
    h1g = preset_stack("H1G", SHEET_02)
    assert len(h1g.layers) == 3 and h1g.layers[1].thickness_m == 10e-6
    h2g = preset_stack("H2G", SHEET_02)
    assert len(h2g.layers) == 4 and h2g.top_sheet_interface == 1
    with pytest.raises(ValueError):
        preset_stack("bogus", SHEET_02)


# --- dispersion residual -----------------------------------------------------

def test_residual_vanishes_at_closed_form_root():
    stack = free_standing_sheet(SHEET_02)
    q = closed_form_free_standing(SHEET_02, OMEGA_1THZ)
    value = dispersion_residual(stack, q, OMEGA_1THZ)
    assert abs(value) < 1e-10 * residual_scale(stack, q, OMEGA_1THZ)


def test_residual_matches_two_half_space_formula():
    stack = graphene_on_substrate(SHEET_02, 3.8)
    k0 = OMEGA_1THZ / C0
    q = (3.1 + 0.2j) * k0
    sigma = intraband_conductivity(SHEET_02, OMEGA_1THZ)
    x = q / k0
    k1 = cmath.sqrt(x * x - 1.0)
    k2 = cmath.sqrt(x * x - 3.8)
    expected = 1.0 / k1 + 3.8 / k2 + 1j * sigma / (EPS0 * C0)
    assert abs(dispersion_residual(stack, q, OMEGA_1THZ) - expected) < 1e-12 * abs(expected)


@pytest.mark.parametrize("x, frequency_hz", [
    (3.1 + 0.2j, 1e12), (1.2 + 0.05j, 3e12), (40.0 + 4.0j, 0.5e12)])
def test_residual_scale_is_largest_two_half_space_term(x, frequency_hz):
    # the largest of the three terms of 1/k1 + 3.8/k2 + i sigma/(eps0 c0)
    omega = 2.0 * math.pi * frequency_hz
    stack = graphene_on_substrate(SHEET_02, 3.8)
    sigma = intraband_conductivity(SHEET_02, omega)
    k1 = cmath.sqrt(x * x - 1.0)
    k2 = cmath.sqrt(x * x - 3.8)
    expected = max(abs(1.0 / k1), abs(3.8 / k2), abs(1j * sigma / (EPS0 * C0)))
    assert residual_scale(stack, x * omega / C0, omega) \
        == pytest.approx(expected, rel=1e-12)


def test_residual_scale_is_infinite_at_a_pole():
    # q = k0 makes the vacuum side's decay constant k1, the denominator of
    # its admittance 1/k1, exactly 0
    stack = graphene_on_substrate(SHEET_02, 3.8)
    assert residual_scale(stack, OMEGA_1THZ / C0, OMEGA_1THZ) == math.inf


def test_residual_nonzero_off_mode():
    stack = graphene_on_substrate(SHEET_02, 3.8)
    q = 5.0 * OMEGA_1THZ / C0
    assert abs(dispersion_residual(stack, q, OMEGA_1THZ)) > 0.0


def test_residual_reversal_invariance():
    # single sheet: the reference interface maps onto itself under the flip
    sheet = GrapheneSheet(0.3, 0.6e-12)
    stack = LayeredStack(
        (DielectricLayer(1.0), DielectricLayer(11.9, 5e-6),
         DielectricLayer(2.25, 3e-6), DielectricLayer(3.8)),
        {0: sheet})
    mirrored = stack.reversed()
    k0 = OMEGA_1THZ / C0
    for x in (2.5 + 0.1j, 4.0 + 0.5j, 12.0 + 2.0j):
        q = x * k0
        d1 = dispersion_residual(stack, q, OMEGA_1THZ)
        d2 = dispersion_residual(mirrored, q, OMEGA_1THZ)
        assert abs(d1 - d2) < 1e-9 * abs(d1)


def test_reversed_stack_same_mode():
    sheet = GrapheneSheet(0.3, 0.6e-12)
    stack = LayeredStack(
        (DielectricLayer(1.0), DielectricLayer(11.9, 5e-6),
         DielectricLayer(2.25, 3e-6), DielectricLayer(3.8)),
        {0: sheet, 2: sheet})
    omega = 2.0 * math.pi * 3e12
    q1 = find_mode(stack, omega).wavevector
    q2 = find_mode(stack.reversed(), omega).wavevector
    assert abs(q1 - q2) < 1e-9 * abs(q1)


# the same stack retuned, where only its reversed() cold solve reaches the
# root of smallest Re x: (E_F eV, f Hz, that root as q/k0)
FLIPPED_ROOTS = [(0.4, 3e12, 6.9307 + 0.5194j), (0.8, 6e12, 6.6986 + 0.2698j)]
TWO_SHEET_LAYERS = ((1.0, None), (11.9, 5e-6), (2.25, 3e-6), (3.8, None))


@pytest.mark.parametrize("ef, f_hz, smaller", FLIPPED_ROOTS,
                         ids=["0.4eV-3THz", "0.8eV-6THz"])
def test_reversed_root_is_a_bound_mode_of_the_forward_stack(ef, f_hz, smaller):
    # the flipped stack's root is bound for the forward one and zeroes the
    # independent transfer-matrix residual on the forward layers
    stack = _two_sheet_stack().with_chemical_potential(ef)
    omega = 2.0 * math.pi * f_hz
    mode = find_mode(stack.reversed(), omega)
    x = mode.wavevector / mode.k0
    assert abs(x - smaller) < 1e-4 * abs(x)
    assert modesolver._classify_root(stack, x) is None
    sigma = oracles.mp_conductivity(ef, 0.6e-12, f_hz)
    assert oracles.layered_mode_residual(
        TWO_SHEET_LAYERS, {0: sigma, 2: sigma}, mode.wavevector, omega) <= 1e-11


@pytest.mark.xfail(strict=True, reason="the forward cold solve returns a root "
                   "of larger Re x (FOUND line on the two-sheet flip in "
                   "CHANGES.md; ROADMAP items 1 and 13)")
@pytest.mark.parametrize("ef, f_hz", [case[:2] for case in FLIPPED_ROOTS],
                         ids=["0.4eV-3THz", "0.8eV-6THz"])
def test_forward_stack_finds_the_reversed_root(ef, f_hz):
    stack = _two_sheet_stack().with_chemical_potential(ef)
    omega = 2.0 * math.pi * f_hz
    q_forward = find_mode(stack, omega).wavevector
    q_reversed = find_mode(stack.reversed(), omega).wavevector
    assert abs(q_forward - q_reversed) < 1e-9 * abs(q_reversed)


def _sheet(draw):
    return GrapheneSheet(draw(st.floats(0.05, 1.0)),
                         draw(st.floats(0.1e-12, 1e-12)))


@st.composite
def single_sheet_stacks(draw, min_layers=2):
    """min_layers-4 layers with eps in [1, 12] and d in [10 nm, 10 um], and
    one sheet (0.05-1 eV, 0.1-1 ps) at a random interface."""
    eps = draw(st.lists(st.floats(1.0, 12.0), min_size=min_layers, max_size=4))
    inner = [DielectricLayer(e, draw(st.floats(1e-8, 1e-5))) for e in eps[1:-1]]
    layers = (DielectricLayer(eps[0]), *inner, DielectricLayer(eps[-1]))
    sheet = _sheet(draw)
    return LayeredStack(layers, {draw(st.integers(0, len(layers) - 2)): sheet})


@st.composite
def two_sheet_stacks(draw):
    """A single-sheet stack of 3-4 layers with a second sheet, drawn alike,
    at another interface."""
    stack = draw(single_sheet_stacks(min_layers=3))
    free = [i for i in range(len(stack.layers) - 1) if i not in stack.sheets]
    return LayeredStack(stack.layers,
                        {**stack.sheets, draw(st.sampled_from(free)): _sheet(draw)})


def _mode_or_error(stack, omega):
    try:
        return find_mode(stack, omega)
    except (ModeSolverError, ValueError) as err:
        return type(err)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(stack=single_sheet_stacks(), f_hz=st.floats(0.5e12, 6e12))
def test_find_mode_is_flip_invariant(stack, f_hz):
    # looking up the stack is looking down its mirror: the same mode, or the
    # same failure
    omega = 2.0 * math.pi * f_hz
    mode = _mode_or_error(stack, omega)
    flipped = _mode_or_error(stack.reversed(), omega)
    if isinstance(mode, type) or isinstance(flipped, type):
        assert mode == flipped
    else:
        q = mode.wavevector
        assert abs(flipped.wavevector - q) <= 1e-12 * abs(q)


def test_residual_symmetric_stack_reversal_is_identity():
    h2g = preset_stack("H2G", SHEET_02)
    q = (2.2 + 0.01j) * OMEGA_1THZ / C0
    d1 = dispersion_residual(h2g, q, OMEGA_1THZ)
    d2 = dispersion_residual(h2g.reversed(), q, OMEGA_1THZ)
    assert d1 == d2


def test_residual_branch_cut_proximity_flagged():
    stack = graphene_on_substrate(SHEET_02, 3.8)
    k0 = OMEGA_1THZ / C0
    with pytest.raises(BranchCutProximityError):
        dispersion_residual(stack, math.sqrt(3.8) * k0, OMEGA_1THZ)


def test_thick_layer_does_not_overflow():
    # evanescent layer 1000x thicker than the decay length
    stack = LayeredStack(
        (DielectricLayer(1.0), DielectricLayer(2.0, 5e-2), DielectricLayer(3.8)),
        {0: SHEET_02})
    q = (4.0 + 0.3j) * OMEGA_1THZ / C0
    assert cmath.isfinite(dispersion_residual(stack, q, OMEGA_1THZ))


@pytest.mark.parametrize("entry", [dispersion_residual, residual_scale])
def test_residuals_reject_an_overflowing_term(entry):
    # on a 1e300 substrate |below| overflows at q = 1.3e8 (1 + 1j) k0,
    # although both of its parts are finite
    stack = graphene_on_substrate(SHEET_02, 1e300)
    q = 1.3e8 * (1.0 + 1.0j) * OMEGA_1THZ / C0
    with pytest.raises(ValueError, match=r"terms overflow at q/k0 = 1\.3e\+08"):
        entry(stack, q, OMEGA_1THZ)


@pytest.mark.parametrize("entry", [dispersion_residual, residual_scale])
@pytest.mark.parametrize("s", [2e8])
def test_residuals_reject_an_overflowing_quotient(entry, s):
    # on the same stack at 2e8 (1 + 1j) k0 the parts overflow to inf
    # without raising (nan-infj, scale inf)
    stack = graphene_on_substrate(SHEET_02, 1e300)
    q = s * (1.0 + 1.0j) * OMEGA_1THZ / C0
    with pytest.raises(ValueError, match=re.escape(f"terms overflow at q/k0 = {s:.6g}")):
        entry(stack, q, OMEGA_1THZ)


def _mp_residual(x, omega):
    mismatch, _ = oracles.mp_sheet_condition(1.0, 1e300, 0.2, 1e-12)
    return complex(mismatch(x, omega))


def _mp_largest_term(x, omega):
    # the largest term is eps2 / |k2| = 1e300 / |sqrt(x^2 - 1e300)|
    return float(1e300 / abs(mpmath.sqrt(x * x - mpmath.mpf(1e300))))


@pytest.mark.parametrize("entry, oracle",
                         [(dispersion_residual, _mp_residual),
                          (residual_scale, _mp_largest_term)],
                         ids=["dispersion_residual", "residual_scale"])
@pytest.mark.parametrize("s", [1.05e8, 1.1e8, 1.15e8, 1.2e8])
def test_residuals_survive_a_division_overflow(entry, oracle, s):
    # on the same stack the form is finite at these q = s (1 + 1j) k0 and
    # D is about -1e150j, but dividing the form by the denominators
    # directly overflows inside Python's complex division (-0-infj)
    stack = graphene_on_substrate(SHEET_02, 1e300)
    q = s * (1.0 + 1.0j) * OMEGA_1THZ / C0
    x = q / (OMEGA_1THZ / C0)
    expected = oracle(mpmath.mpc(x.real, x.imag), mpmath.mpf(OMEGA_1THZ))
    assert abs(entry(stack, q, OMEGA_1THZ) - expected) < 1e-12 * abs(expected)


def _two_attempt_checked_form(term, geometry, x):
    # the residuals' form as it was checked before every division used the
    # quartered values: divided directly first, and by a quarter of all
    # three only where a direct quotient was not finite
    def quotients_finite(value, scale, denom):
        return cmath.isfinite(value / denom) and scale / abs(denom) < math.inf

    try:
        parts = modesolver._mode_function(x, geometry)
        value, scale = modesolver._with_term(term, parts)
        denom = parts[2] * parts[3]
        if denom == 0.0 or quotients_finite(value, scale, denom):
            return value, scale, denom
        value, scale, denom = 0.25 * value, 0.25 * scale, 0.25 * denom
        if quotients_finite(value, scale, denom):
            return value, scale, denom
    except OverflowError:
        pass
    raise ValueError(f"the mode condition's terms overflow at q/k0 = {x:.6g}")


def _residual_outcomes(stack, omega, points):
    # the bits of both residuals at each x = q/k0, or each one's exception
    # type and text
    outcomes = []
    for x in points:
        for entry in (dispersion_residual, residual_scale):
            try:
                result = entry(stack, x * omega / C0, omega)
                outcomes.append(result.hex() if isinstance(result, float)
                                else _hex(result))
            except (ArithmeticError, ValueError, ModeSolverError) as err:
                outcomes.append((type(err).__name__, str(err)))
    return outcomes


# on a 1e300 substrate the direct division overflows from 1.05e8 (1 + 1j)
# on, the form itself from 1.3e8 (1 + 1j), its parts by 2e8 (1 + 1j)
OVERFLOW_BAND = st.floats(1.05e8, 2e8).map(lambda s: s * (1.0 + 1.0j))


@example(stack=graphene_on_substrate(SHEET_02, 1e300), f_hz=1e12,
         points=[s * (1.0 + 1.0j) for s in (1.05e8, 1.2e8, 1.3e8, 2e8)])
@settings(max_examples=120, deadline=None, derandomize=True)
@given(stack=st.one_of(single_sheet_stacks(), two_sheet_stacks(),
                       st.builds(graphene_on_substrate, st.just(SHEET_02),
                                 st.just(1e300))),
       f_hz=st.floats(0.1e12, 10e12),
       points=st.lists(st.one_of(
           st.complex_numbers(max_magnitude=1e200, allow_nan=False,
                              allow_infinity=False), OVERFLOW_BAND),
           min_size=1, max_size=6))
def test_quartered_residuals_equal_the_two_attempt_division(stack, f_hz, points):
    # a quarter of the form, its scale and the denominators divides to the
    # bits the direct division gave wherever that was finite, and to those
    # of the old retry elsewhere (these sheets keep every part of the form
    # normal); errors keep their type and text
    omega = 2.0 * math.pi * f_hz
    quartered = _residual_outcomes(stack, omega, points)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modesolver, "_checked_form", _two_attempt_checked_form)
        assert quartered == _residual_outcomes(stack, omega, points)


def test_residual_scale_is_infinite_where_the_quartered_denominators_underflow(
        monkeypatch):
    # denominators of 3e-162 multiply to 1e-323, twice the smallest
    # subnormal, and a quarter of that rounds to 0: to the division, a pole
    # of D (a direct attempt, then a quartered retry, raised
    # ZeroDivisionError in residual_scale)
    monkeypatch.setattr(modesolver, "_mode_function", lambda x, geometry: (
        1.0 + 1.0j, 2.0, 3e-162 + 0j, 3e-162 + 0j))
    stack = graphene_on_substrate(SHEET_02, 3.8)
    q = 3.0 * OMEGA_1THZ / C0
    assert residual_scale(stack, q, OMEGA_1THZ) == math.inf
    with pytest.raises(ZeroDivisionError):
        dispersion_residual(stack, q, OMEGA_1THZ)


def test_quartering_rounds_only_a_subnormal_part_of_the_form():
    # with tau = 1e300 s the sheet is lossless to within a subnormal: on
    # the real axis Im D is about 1e-320, and its quarter loses low bits,
    # so Im D moves here by a few of the smallest subnormals, while Re D
    # and the scale keep the bits of the direct division
    stack = free_standing_sheet(GrapheneSheet(0.2, 1e300))
    q = 2.0032160556962575 * OMEGA_1THZ / C0
    value = dispersion_residual(stack, q, OMEGA_1THZ)
    scale = residual_scale(stack, q, OMEGA_1THZ)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modesolver, "_checked_form", _two_attempt_checked_form)
        direct = dispersion_residual(stack, q, OMEGA_1THZ)
        assert residual_scale(stack, q, OMEGA_1THZ) == scale
    assert value.real == direct.real
    assert 0.0 < abs(direct.imag) < 2.2250738585072014e-308
    assert abs(value.imag - direct.imag) < 1e-321


# --- find_mode ---------------------------------------------------------------

def test_find_mode_free_standing_pinned():
    mode = find_mode(free_standing_sheet(SHEET_02), OMEGA_1THZ)
    assert abs(mode.wavevector - oracles.FREESTANDING_Q_0P2EV_1PS_1THZ) \
        < 1e-10 * abs(oracles.FREESTANDING_Q_0P2EV_1PS_1THZ)
    assert mode.residual < 1e-10


def test_find_mode_free_standing_matches_live_scan():
    sigma = intraband_conductivity(SHEET_02, OMEGA_1THZ)
    reference = oracles.brute_force_mode_scan(1.0, 1.0, sigma, OMEGA_1THZ)
    mode = find_mode(free_standing_sheet(SHEET_02), OMEGA_1THZ)
    assert abs(mode.wavevector - reference) < 1e-6 * abs(reference)
    # the frozen regression constant and the scan agree with each other too
    assert abs(reference - oracles.FREESTANDING_Q_0P2EV_1PS_1THZ) \
        < 1e-6 * abs(reference)


def test_find_mode_supported_pinned():
    mode = find_mode(graphene_on_substrate(SHEET_02, 3.8), OMEGA_1THZ)
    assert abs(mode.wavevector - oracles.SUPPORTED38_Q_0P2EV_1PS_1THZ) \
        < 1e-10 * abs(oracles.SUPPORTED38_Q_0P2EV_1PS_1THZ)


def test_find_mode_agrees_with_quartic_oracle_near_light_line():
    # weakly confined regime where the quasi-static seed is useless
    sheet = GrapheneSheet(0.9, 0.6e-12)
    omega = 2.0 * math.pi * 0.7e12
    sigma = intraband_conductivity(sheet, omega)
    expected = oracles.quartic_bound_mode(1.0, 3.8, sigma, omega)
    mode = find_mode(graphene_on_substrate(sheet, 3.8), omega)
    assert abs(mode.wavevector - expected) < 1e-10 * abs(expected)


@pytest.mark.parametrize("substrate", [1.0, 3.8, 11.9])
def test_two_half_space_roots_match_extended_precision(substrate):
    # Muller's last point is the root to a few ulp, cold and continued (8
    # points from 0.7 to 9 THz, geometric); the largest relative error over
    # these cases is 7.1e-16
    freqs = [0.7e12 * (9.0 / 0.7) ** (i / 7) for i in range(8)]
    for ef in (0.05, 0.2, 0.8):
        for tau in (0.3e-12, 1e-12):
            stack = graphene_on_substrate(GrapheneSheet(ef, tau), substrate)
            trace = trace_dispersion(stack, freqs)
            for f_hz, point in zip(freqs, trace):
                expected = oracles.mp_two_half_space_mode(1.0, substrate,
                                                          ef, tau, f_hz)
                cold = find_mode(stack, 2.0 * math.pi * f_hz)
                for q in (cold.wavevector, point.solution.wavevector):
                    assert abs(q - expected) <= 1e-15 * abs(expected)


def test_find_mode_lossless_limit():
    sheet = GrapheneSheet(0.2, 1e-8)  # effectively collisionless
    mode = find_mode(free_standing_sheet(sheet), OMEGA_1THZ)
    assert mode.wavevector.imag / mode.wavevector.real < 1e-4
    assert mode.propagation_length_m > 0.1


def test_find_mode_relaxation_time_ordering():
    stack_fast = free_standing_sheet(GrapheneSheet(0.2, 0.5e-12))
    stack_slow = free_standing_sheet(GrapheneSheet(0.2, 1e-12))
    lp_fast = find_mode(stack_fast, OMEGA_1THZ).propagation_length_m
    lp_slow = find_mode(stack_slow, OMEGA_1THZ).propagation_length_m
    assert lp_slow > lp_fast


def test_find_mode_initial_guess_continuation():
    stack = graphene_on_substrate(SHEET_02, 3.8)
    direct = find_mode(stack, OMEGA_1THZ)
    seeded = find_mode(stack, OMEGA_1THZ, direct.wavevector * 1.02)
    assert abs(seeded.wavevector - direct.wavevector) < 1e-10 * abs(direct.wavevector)


def test_find_mode_reports_nonbound_distinctly():
    # seed onto the known non-bound root: it converges but must be rejected
    sheet = GrapheneSheet(0.8, 0.6e-12)
    omega = 2.0 * math.pi * 0.5e12
    k0 = omega / C0
    stack = graphene_on_substrate(sheet, 3.8)
    with pytest.raises(NonBoundModeError):
        find_mode(stack, omega, (1.0052 + 0.003j) * k0)


# below 1e150 no square overflows; Im x reaches down to the subnormals
_IMAG = st.one_of(st.floats(0.0, 1e150, exclude_min=True),
                  st.floats(5e-324, 2.2250738585072014e-308))


@settings(max_examples=300, deadline=None)
@given(eps=st.floats(1.0, 1e150), excess=st.floats(0.0, 1e150, exclude_min=True),
       ulps=st.integers(0, 4), imag=_IMAG)
def test_principal_root_decays_above_the_cladding_index(eps, excess, ulps, imag):
    # Re x > sqrt(eps) and Im x > 0 give Im(x^2 - eps) > 0, so the principal
    # square root is the decaying branch, Re k > 0
    n = math.sqrt(eps)
    real = n + excess
    if ulps:
        real = n
        for _ in range(ulps):
            real = math.nextafter(real, math.inf)
    x = complex(real, imag)
    assert cmath.sqrt(x * x - eps).real > 0.0


def test_leaky_branch_fires_where_the_square_overflows():
    # found by the property above over the whole float range: x^2 overflows
    # to -inf + 5.4e154j and its principal root is 0 + inf j
    stack = graphene_on_substrate(SHEET_02, 3.8)
    x = complex(2.0, 1.3407807929942597e154)
    assert modesolver._classify_root(stack, x) == "leaky: no decay into a cladding"


def test_classifier_rejects_a_root_below_the_real_axis():
    stack = graphene_on_substrate(SHEET_02, 3.8)
    assert modesolver._classify_root(stack, 3.0 - 0.1j) \
        == "not bound: Im q = -0.1 k0 is not positive"


# _muller_polish on synthetic functions with the root R, started from 2R:
# each is x - R, except where its relative distance d from R is below 0.6;
# the scale of each pair is the number of its call
ROOT = 3.0 + 0.01j


def _polish(near):
    """_muller_polish's result for x - R with near(x, d) where d < 0.6, and
    the points it evaluated."""
    calls = []

    def fn(x):
        calls.append(x)
        d = abs(x - ROOT) / abs(ROOT)
        return (near(x, d) if d < 0.6 else x - ROOT), float(len(calls))
    return modesolver._muller_polish(fn, 2.0 * ROOT), calls


def _overflow(*_):
    raise OverflowError("synthetic")


def _assert_last_call(found, calls):
    # a stop hands back the point it evaluated last, with that call's value
    # and scale
    root, value, scale = found
    assert root == calls[-1] and scale == len(calls)
    assert value == root - ROOT


def test_muller_gives_up_when_a_start_point_raises():
    calls = []

    def fn(x):
        calls.append(x)
        return 1.0 / 0.0, 1.0
    assert modesolver._muller_polish(fn, ROOT) is None
    assert len(calls) == 1


def test_muller_gives_up_when_a_step_raises():
    # the first step lands next to R, where the function raises
    root, calls = _polish(_overflow)
    assert root is None and len(calls) == 4


@pytest.mark.parametrize("near", [
    lambda x, d: complex(math.inf),
    lambda x, d: complex(math.inf) if d < 1e-6 else _overflow(),
], ids=["back-off-not-finite", "back-off-raises"])
def test_muller_gives_up_when_the_back_off_fails(near):
    # the step is not finite, and neither is the midpoint toward 2R
    root, calls = _polish(near)
    assert root is None and len(calls) == 5
    assert calls[4] == 0.5 * (calls[3] + calls[2])


def test_muller_backs_off_from_a_non_finite_point():
    # R itself overflows: each step that lands on it is halved back toward
    # the last good point, so the stop is only TOLERANCE-accurate
    found, calls = _polish(
        lambda x, d: complex(math.inf) if d == 0.0 else x - ROOT)
    assert calls[5] == 0.5 * (calls[4] + calls[3])
    assert abs(found[0] - ROOT) <= modesolver.TOLERANCE * abs(ROOT)
    # the stop follows a back-off: the halved point is the last one called
    assert calls[-2] == ROOT and calls[-1] == 0.5 * (ROOT + calls[-3])
    _assert_last_call(found, calls)


def test_muller_returns_the_step_that_met_the_tolerance():
    # on x - R every step before the last moves by at least TOLERANCE; the
    # last one does not, and its point is returned with nothing evaluated
    # after it
    found, calls = _polish(lambda x, d: x - ROOT)
    steps = [abs(b - a) / abs(b) for a, b in zip(calls[2:], calls[3:])]
    assert all(step >= modesolver.TOLERANCE for step in steps[:-1])
    assert steps[-1] < modesolver.TOLERANCE
    _assert_last_call(found, calls)
    assert abs(found[0] - ROOT) <= 1e-15 * abs(ROOT)


def test_muller_stops_on_a_zero_step():
    # a zero seed gives three equal start points: the first difference is
    # zero, and the seed is returned with its own (third) evaluation
    calls = []

    def fn(x):
        calls.append(x)
        return x - ROOT, float(len(calls))
    found = modesolver._muller_polish(fn, 0j)
    assert calls == [0j, 0j, 0j]
    _assert_last_call(found, calls)


def test_muller_nudges_a_flat_parabola_and_gives_up():
    # f = 0 everywhere: the parabola has no denominator, so each step only
    # nudges x by 1e-6, which never meets the tolerance
    calls = []

    def flat(x):
        calls.append(x)
        return 0j, 1.0
    assert modesolver._muller_polish(flat, ROOT) is None
    assert len(calls) == 3 + modesolver.MAX_ITERATIONS
    assert calls[3] == ROOT * (1.0 + 1e-6) and calls[4] == calls[3] * (1.0 + 1e-6)


def test_inverted_scan_band_is_skipped(monkeypatch):
    # at cladding index 1e7 the dielectric band's first point lies 1e-6
    # above it, past the 1 um film's index + 1, so that scan has no points:
    # it gives no seeds and evaluates nothing, and with one sheet it is the
    # only scan
    scans = []
    scan = modesolver._scan_seeds

    def recording(term, geometry, store, reals):
        seeds = []
        evals = oracles.count_evals(
            lambda: seeds.extend(scan(term, geometry, store, reals)))
        scans.append((len(reals), evals, seeds))
        return seeds
    monkeypatch.setattr(modesolver, "_scan_seeds", recording)
    clad = DielectricLayer(1e14)
    stack = LayeredStack((clad, DielectricLayer(1e14 + 1e8, 1e-6), clad),
                         {0: SHEET_02})
    mode = find_mode(stack, OMEGA_1THZ)
    assert scans == [(0, 0, [])]
    assert mode.wavevector.real > stack.max_cladding_index * OMEGA_1THZ / C0


def test_find_mode_convergence_error(monkeypatch):
    monkeypatch.setattr(modesolver, "MAX_ITERATIONS", 2)
    stack = graphene_on_substrate(SHEET_02, 3.8)
    with pytest.raises(ConvergenceError):
        find_mode(stack, OMEGA_1THZ)


def test_permittivity_scaling_increases_confinement():
    omega = OMEGA_1THZ
    previous = None
    for scale in (1.0, 1.5, 2.25):
        stack = graphene_on_substrate(SHEET_02, 3.8 * scale, 1.0 * scale)
        q = find_mode(stack, omega).wavevector.real
        if previous is not None:
            assert q > previous
        previous = q


def test_lossless_limit_monotone_in_relaxation_time():
    ratios = []
    for tau_ps in (0.1, 0.2, 0.5, 1.0, 5.0, 20.0):
        mode = find_mode(free_standing_sheet(GrapheneSheet(0.2, tau_ps * 1e-12)),
                         OMEGA_1THZ)
        ratios.append(mode.wavevector.imag / mode.wavevector.real)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_quasi_static_seed_consistency_when_confined():
    # high-confinement free-standing case: seed within 1% of converged root
    sheet = GrapheneSheet(0.1, 0.6e-12)
    omega = 2.0 * math.pi * 4e12
    stack = free_standing_sheet(sheet)
    mode = find_mode(stack, omega)
    assert mode.effective_index > 10.0
    seed = quasi_static_wavevector(stack, omega)
    assert abs(seed - mode.wavevector) < 0.01 * abs(mode.wavevector)


def test_returned_solutions_satisfy_residual_gate():
    for stack in (free_standing_sheet(SHEET_02),
                  graphene_on_substrate(SHEET_02, 11.9),
                  preset_stack("H1G", GrapheneSheet(0.4, 0.6e-12)),
                  preset_stack("H2G", GrapheneSheet(0.4, 0.6e-12))):
        mode = find_mode(stack, 2.0 * math.pi * 4e12)
        assert mode.residual < 1e-10
        q = mode.wavevector
        assert abs(dispersion_residual(stack, q, 2.0 * math.pi * 4e12)) \
            < 1e-10 * residual_scale(stack, q, 2.0 * math.pi * 4e12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(stack=st.one_of(single_sheet_stacks(), two_sheet_stacks()),
       f_hz=st.floats(0.5e12, 6e12))
def test_root_residual_is_the_relative_value_at_the_root(stack, f_hz):
    # the residual comes from the evaluation Muller's method stopped on, not
    # from a new one; it equals the relative mode function at the root x
    # (the classified root that gives the returned q), evaluated afresh
    omega = 2.0 * math.pi * f_hz
    classified = []
    classify = modesolver._classify_root

    def recording(stack, x):
        reason = classify(stack, x)
        classified.append((x, reason))
        return reason

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modesolver, "_classify_root", recording)
        mode = _mode_or_error(stack, omega)
    if isinstance(mode, type):
        return
    term, geometry = modesolver._mode_problem(stack, omega)
    x = next(x for x, reason in classified
             if reason is None and x * geometry[0] == mode.wavevector)
    expected = modesolver._relative_value(
        term, modesolver._sheet_free_parts(geometry, x))
    assert mode.residual.hex() == expected.hex()


def test_mode_solution_derived_quantities():
    mode = find_mode(graphene_on_substrate(SHEET_02, 3.8), OMEGA_1THZ)
    k0 = OMEGA_1THZ / C0
    q = mode.wavevector
    assert mode.effective_index == q.real / k0
    assert mode.guided_wavelength_m == 2.0 * math.pi / q.real
    assert mode.propagation_length_m == 1.0 / (2.0 * q.imag)
    assert mode.normalized_propagation_length == pytest.approx(
        mode.propagation_length_m / mode.guided_wavelength_m)
    assert mode.frequency_hz == pytest.approx(1e12)


# --- multilayer reduction ----------------------------------------------------

def test_multilayer_reduces_to_closed_form():
    stack = free_standing_sheet(SHEET_02)
    for f in np.linspace(0.5e12, 5e12, 20):
        omega = 2.0 * math.pi * f
        expected = closed_form_free_standing(SHEET_02, omega)
        mode = find_mode(stack, omega)
        assert abs(mode.wavevector - expected) < 1e-8 * abs(expected)


def test_multilayer_reduces_to_quartic_supported():
    sheet = GrapheneSheet(0.35, 0.8e-12)
    stack = graphene_on_substrate(sheet, 6.5, 2.1)
    for f in (0.8e12, 2e12, 4.5e12):
        omega = 2.0 * math.pi * f
        sigma = intraband_conductivity(sheet, omega)
        expected = oracles.quartic_bound_mode(2.1, 6.5, sigma, omega)
        mode = find_mode(stack, omega)
        assert abs(mode.wavevector - expected) < 1e-8 * abs(expected)


def test_degenerate_films_match_free_standing():
    # interior vacuum films around the sheet must not change the mode
    sheet = SHEET_02
    vac = DielectricLayer(1.0)
    stack = LayeredStack(
        (vac, DielectricLayer(1.0, 5e-6), DielectricLayer(1.0, 5e-6), vac),
        {1: sheet})
    expected = closed_form_free_standing(sheet, OMEGA_1THZ)
    mode = find_mode(stack, OMEGA_1THZ)
    assert abs(mode.wavevector - expected) < 1e-8 * abs(expected)


# --- cold seeds on layered stacks ---------------------------------------------

# the preset geometries, written out apart from stacks.py: layers top to
# bottom as (eps, thickness m or None), and the sheet's interface
PRESET_LAYERS = {
    "H1G": (((1.0, None), (11.9, 10e-6), (3.8, None)), 0),
    "H2G": (((1.0, None), (11.9, 5e-6), (11.9, 5e-6), (3.8, None)), 1),
}

# (preset, E_F eV, f THz) at tau 0.6 ps where the cladding quasi-static
# seed, the light-line ladder and the two scans all missed a bound root
# (the benchmark's FAULT_SWEEPS rows)
COLD_MISSES = [("H1G", 0.05, 1.5), ("H1G", 0.05, 1.75), ("H1G", 0.05, 2.0),
               ("H1G", 0.05, 2.25), ("H2G", 0.1, 0.5), ("H2G", 0.1, 1.5),
               ("H2G", 0.1, 1.75), ("H2G", 0.1, 2.0), ("H2G", 0.1, 2.25),
               ("H2G", 0.15, 2.25)]


def _oracle_residual(preset, ef, f_hz, q):
    layers, interface = PRESET_LAYERS[preset]
    sigma = oracles.mp_conductivity(ef, 0.6e-12, f_hz)
    return oracles.layered_mode_residual(layers, {interface: sigma}, q,
                                         2.0 * math.pi * f_hz)


@pytest.mark.parametrize("preset, ef, f_thz", COLD_MISSES)
def test_cold_misses_find_bound_roots_the_oracle_confirms(preset, ef, f_thz):
    # the adjacent-layer quasi-static seed reaches them: each row is ok, its
    # root is bound and it zeroes the independent transfer-matrix residual,
    # which a point 1e-6 off does not
    stack = preset_stack(preset, GrapheneSheet(ef, 0.6e-12))
    row, = stack_metrics_sweep(stack, f_thz * 1e12, (ef,))
    assert row.status == "ok"
    mode = find_mode(stack, 2.0 * math.pi * f_thz * 1e12)
    assert row.effective_index == mode.effective_index
    x = mode.wavevector / mode.k0
    assert x.real > math.sqrt(3.8) and x.imag > 0.0
    assert _oracle_residual(preset, ef, f_thz * 1e12, mode.wavevector) <= 1e-9
    assert _oracle_residual(preset, ef, f_thz * 1e12,
                            mode.wavevector * (1.0 + 1e-6)) > 1e-8


@pytest.mark.parametrize("preset, ef, f_thz, expected", [
    ("H2G", 0.1, 1.5, 50.16117 + 8.82976j),
    ("H1G", 0.05, 2.0, 64.23669 + 8.49722j)])
def test_recovered_roots_match_the_continuation_oracle(preset, ef, f_thz,
                                                       expected):
    # q/k0 of two bound roots that a transfer-matrix determinant scan and
    # continuation from 0.8 THz found while the cold solve missed them
    mode = find_mode(preset_stack(preset, GrapheneSheet(ef, 0.6e-12)),
                     2.0 * math.pi * f_thz * 1e12)
    x = mode.wavevector / mode.k0
    assert abs(x - expected) <= 1e-6 * abs(expected)


def _polished_seeds(call) -> list[complex]:
    # the seeds Muller's method is started from, in order
    seeds = []
    polish = modesolver._muller_polish

    def recording(fn, seed):
        seeds.append(seed)
        return polish(fn, seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modesolver, "_muller_polish", recording)
        call()
    return seeds


def _ladder(stack) -> list[complex]:
    n_clad = stack.max_cladding_index
    return [n_clad * (1.0 + d + 0.5j * d)
            for d in (1e-4, 1e-3, 3e-3, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0)]


@pytest.mark.parametrize("preset", ["H1G", "H2G"])
def test_layered_cold_seeds_skip_the_late_rungs_once_a_root_is_bound(preset):
    # the cladding and adjacent-layer quasi-static seeds, the first rung and
    # the scans' minima come first; rungs 2-9 run only while nothing bound
    # was found, which on these rows never happens
    for ef in (0.05, 0.2, 0.8):
        stack = preset_stack(preset, GrapheneSheet(ef, 0.6e-12))
        layers, interface = PRESET_LAYERS[preset]
        adjacent = ((layers[interface][0] + layers[interface + 1][0])
                    / (layers[0][0] + layers[-1][0]))
        for f_thz in (0.5, 1.5, 4.0, 7.0):
            omega = 2.0 * math.pi * f_thz * 1e12
            seeds = _polished_seeds(lambda: find_mode(stack, omega))
            qs = quasi_static_wavevector(stack, omega) / (omega / C0)
            assert seeds[:3] == [qs, qs * adjacent, _ladder(stack)[0]]
            assert not set(_ladder(stack)[1:]) & set(seeds)


@pytest.mark.parametrize("ef, f_thz, bound", [
    (0.2, 2.0, True), (0.4, 0.5, True), (0.2, 0.1, False)])
def test_two_half_space_cold_seeds_are_the_quasi_static_seed_then_the_ladder(
        ef, f_thz, bound):
    # no scan and no adjacent-layer seed: the quasi-static seed, then the
    # nine rungs, until the first bound root (at 0.1 THz none is found)
    stack = preset_stack("G", GrapheneSheet(ef, 1e-12))
    omega = 2.0 * math.pi * f_thz * 1e12
    qs = quasi_static_wavevector(stack, omega) / (omega / C0)
    outcome = []
    seeds = _polished_seeds(lambda: outcome.append(_mode_or_error(stack, omega)))
    expected = [qs] + _ladder(stack)
    assert seeds == (expected[:len(seeds)] if bound else expected)
    assert bound == (outcome[0] is not NonBoundModeError)


def test_a_second_sheet_root_is_reached_from_the_48_point_scan():
    # with two sheets the fundamental root can lie above the dielectric
    # band, where neither quasi-static seed nor a rung converges to a bound
    # root; only the scan above the band reaches it
    stack = _sheets_around_silicon(0.1338e-12)
    f_hz = 0.9887e12
    mode = find_mode(stack, 2.0 * math.pi * f_hz)
    x = mode.wavevector / mode.k0
    assert x.real > math.sqrt(3.8) and x.imag > 0.0
    assert abs(x - (13.19987 + 6.45230j)) <= 1e-6 * abs(x)
    sigmas = {i: oracles.mp_conductivity(sheet.chemical_potential_ev,
                                         sheet.relaxation_time_s, f_hz)
              for i, sheet in stack.sheets.items()}
    layers = ((1.0, None), (11.9, 2.808e-6), (3.8, None))
    assert oracles.layered_mode_residual(
        layers, sigmas, mode.wavevector, 2.0 * math.pi * f_hz) <= 1e-15


# --- dispersion traces -------------------------------------------------------

def test_trace_single_point_equals_find_mode():
    stack = graphene_on_substrate(SHEET_02, 3.8)
    points = trace_dispersion(stack, [1e12])
    direct = find_mode(stack, OMEGA_1THZ)
    assert len(points) == 1 and points[0].ok
    assert points[0].solution.wavevector == pytest.approx(direct.wavevector)


def test_trace_requires_increasing_grid():
    stack = graphene_on_substrate(SHEET_02, 3.8)
    with pytest.raises(ValueError):
        trace_dispersion(stack, [2e12, 1e12])
    with pytest.raises(ValueError):
        trace_dispersion(stack, [])


def test_trace_dense_grid_continuity():
    stack = graphene_on_substrate(SHEET_02, 3.8)
    freqs = [1e12 * 1.01**i for i in range(12)]
    points = trace_dispersion(stack, freqs)
    assert all(p.ok for p in points)
    qs = [p.solution.wavevector for p in points]
    for q1, q2 in zip(qs, qs[1:]):
        assert abs(q2 - q1) / abs(q1) < 0.1


def test_trace_matches_scan_oracle_at_random_points():
    stack = graphene_on_substrate(SHEET_02, 3.8)
    freqs = list(np.linspace(0.5e12, 5e12, 24))
    points = trace_dispersion(stack, freqs)
    assert all(p.ok for p in points)
    rng = np.random.default_rng(20240811)
    for index in rng.choice(len(freqs), size=5, replace=False):
        point = points[index]
        omega = 2.0 * math.pi * point.frequency_hz
        sigma = intraband_conductivity(SHEET_02, omega)
        reference = oracles.brute_force_mode_scan(1.0, 3.8, sigma, omega)
        assert abs(point.solution.wavevector - reference) < 1e-6 * abs(reference)


def test_trace_g_preset_stays_bound_and_above_unity():
    points = trace_dispersion(preset_stack("G", SHEET_02),
                              list(np.linspace(0.5e12, 5e12, 16)))
    assert all(p.ok for p in points)
    assert all(p.solution.effective_index > 1.0 for p in points)


def test_trace_records_failures_per_point(monkeypatch):
    monkeypatch.setattr(modesolver, "MAX_ITERATIONS", 2)
    stack = graphene_on_substrate(SHEET_02, 3.8)
    points = trace_dispersion(stack, [0.5e12, 1e12, 2e12])
    assert len(points) == 3
    assert all(not p.ok and p.status.startswith("failed:") for p in points)


def test_trace_records_invalid_point_and_continues():
    # f = 0 is no valid frequency; the trace fails that point only
    points = trace_dispersion(preset_stack("G", SHEET_02), [0.0, 1e12])
    assert points[0].status == "failed:angular_frequency must be > 0"
    assert points[1].ok
    assert points[1].solution == find_mode(preset_stack("G", SHEET_02),
                                           OMEGA_1THZ)


@pytest.mark.parametrize("stack, freqs_hz", [
    (preset_stack("H2G", GrapheneSheet(0.1, 0.6e-12)), (0.5e12, 1e12, 4e12)),
    (free_standing_sheet(SHEET_02), (0.7e12, 1.5e12))], ids=["H2G", "G"])
def test_a_lost_trace_point_is_solved_cold(stack, freqs_hz):
    # continued from the first root, the second point raises; the trace
    # solves it cold instead, to the bits of a lone cold find_mode
    points = trace_dispersion(stack, freqs_hz)
    first, f_hz = points[0].solution, freqs_hz[1]
    omega = 2.0 * math.pi * f_hz
    guess = first.wavevector / first.k0 * (2.0 * math.pi * f_hz / C0)
    with pytest.raises(ModeSolverError):
        find_mode(stack, omega, guess)
    lone = find_mode(stack, omega)
    assert points[1].ok
    assert (_hex(points[1].solution.wavevector), points[1].solution.residual.hex()
            ) == (_hex(lone.wavevector), lone.residual.hex())
    assert all(point.ok for point in points)


def test_quasi_static_seed_rejects_degenerate_sheet():
    # 1/tau overflows at tau = 1e-312 s, so sigma = 0 exactly
    stack = graphene_on_substrate(GrapheneSheet(0.2, 1e-312), 3.8)
    with pytest.raises(DegenerateConductivityError):
        quasi_static_wavevector(stack, OMEGA_1THZ)
    points = trace_dispersion(stack, [1e12])
    assert points[0].status.startswith("failed:|sigma| = 0.000e+00 S")


def test_quasi_static_seed_rejects_overflowing_conductivity():
    # tau = 1e300 s and f = 1e-300 Hz: sigma = inf + inf i, whose inverse
    # would be a nan seed
    stack = graphene_on_substrate(GrapheneSheet(0.4, 1e300), 3.8)
    with pytest.raises(ValueError, match=r"^\|sigma\| must be finite$"):
        quasi_static_wavevector(stack, 2.0 * math.pi * 1e-300)


def test_quasi_static_seed_survives_an_overflowing_product():
    # on a 1e300 substrate i eps_sum w overflows before the division by
    # sigma brings the estimate back to about 1.5e304 rad/m; q0 is linear in
    # eps_sum, so it is the 3.8-substrate estimate scaled
    sheet = GrapheneSheet(0.2, 1e-12)
    stack = graphene_on_substrate(sheet, 1e300)
    q0 = quasi_static_wavevector(stack, OMEGA_1THZ)
    scaled = (quasi_static_wavevector(graphene_on_substrate(sheet, 3.8), OMEGA_1THZ)
              * ((1e300 + 1.0) / (3.8 + 1.0)))
    assert cmath.isfinite(q0) and abs(q0 - scaled) <= 1e-14 * abs(scaled)

    def cold():
        # the finite seed changes no outcome: every seed still fails
        with pytest.raises(ConvergenceError):
            find_mode(stack, OMEGA_1THZ)
    assert oracles.count_evals(cold) == 30
    # where even eps_sum times w eps0 / sigma overflows, the estimate is an
    # error rather than nan
    with pytest.raises(ValueError, match="^the quasi-static wavevector overflows$"):
        quasi_static_wavevector(graphene_on_substrate(sheet, 1.7e308), OMEGA_1THZ)


def test_underflowing_wavenumber_is_rejected():
    # w = 2 pi 5e-324 rad/s is positive, but w / c0 underflows to 0, which
    # the seeds divide by
    sheet = GrapheneSheet(5e-324, 1e-12)
    stack = graphene_on_substrate(sheet, 3.8)
    omega = 2.0 * math.pi * 5e-324
    assert omega > 0.0 and omega / C0 == 0.0
    with pytest.raises(ValueError,
                       match="^free-space wavenumber must be > 0$"):
        find_mode(stack, omega)
    # the drivers record it as a failed point instead of raising
    status = "failed:free-space wavenumber must be > 0"
    assert trace_dispersion(stack, [5e-324])[0].status == status
    rows = stack_metrics_sweep(preset_stack("H1G", sheet), 5e-324, [0.2])
    assert rows[0].status == status


# --- stack metrics -----------------------------------------------------------

def test_stack_metrics_orderings_at_matched_parameters():
    ef_grid = (0.2, 0.6, 1.0)
    f_hz = 4e12
    tables = {}
    for name in ("G", "H1G", "H2G"):
        stack = preset_stack(name, GrapheneSheet(0.2, 0.6e-12))
        tables[name] = stack_metrics_sweep(stack, f_hz, ef_grid)
        assert [row.status for row in tables[name]] == ["ok"] * len(ef_grid)
    for hybrid in ("H1G", "H2G"):
        for row_h, row_g in zip(tables[hybrid], tables["G"]):
            assert row_h.normalized_propagation_length > row_g.normalized_propagation_length
            assert row_h.resonant_length_m > row_g.resonant_length_m


def test_stack_metrics_rows_record_failures(monkeypatch):
    monkeypatch.setattr(modesolver, "MAX_ITERATIONS", 2)
    stack = preset_stack("G", GrapheneSheet(0.2, 0.6e-12))
    rows = stack_metrics_sweep(stack, 4e12, (0.2, 0.4))
    assert len(rows) == 2
    assert all(row.status.startswith("failed:") for row in rows)
    assert all(row.effective_index is None for row in rows)


def test_stack_metrics_rows_record_invalid_chemical_potential():
    stack = preset_stack("G", GrapheneSheet(0.2, 0.6e-12))
    rows = stack_metrics_sweep(stack, 4e12, (-0.1, 0.2))
    assert rows[0].status == "failed:chemical_potential_ev must be >= 0"
    assert rows[0].effective_index is None
    assert rows[1].status == "ok"
    assert rows[1].effective_index > 1.0


def _row_bits(row):
    return (None if row.effective_index is None else row.effective_index.hex(),
            None if row.normalized_propagation_length is None
            else row.normalized_propagation_length.hex(),
            row.status)


def _find_mode_rows(stack, f_hz, ef_grid):
    """The rows stack_metrics_sweep must give: one lone find_mode per row."""
    rows = []
    for ef in ef_grid:
        try:
            mode = find_mode(stack.with_chemical_potential(ef),
                             2.0 * math.pi * f_hz)
        except (ModeSolverError, ValueError) as err:
            rows.append((None, None, f"failed:{err}"))
            continue
        rows.append((mode.effective_index.hex(),
                     mode.normalized_propagation_length.hex(), "ok"))
    return rows


# the first E_F is invalid, so the sweep builds its shared scans on row 2
SHARED_SCAN_GRID = (-0.1, 0.05, 0.2, 0.45, 0.7, 1.0)


@pytest.mark.parametrize("f_thz", [1.5, 4.0, 7.0])
@pytest.mark.parametrize("preset", ["H1G", "H2G"])
def test_stack_sweep_rows_equal_lone_find_mode_bit_for_bit(preset, f_thz):
    stack = preset_stack(preset, GrapheneSheet(0.2, 0.6e-12))
    rows, expected = [], []
    sweep_evals = oracles.count_evals(lambda: rows.extend(
        stack_metrics_sweep(stack, f_thz * 1e12, SHARED_SCAN_GRID)))
    lone_evals = oracles.count_evals(lambda: expected.extend(
        _find_mode_rows(stack, f_thz * 1e12, SHARED_SCAN_GRID)))
    assert [_row_bits(row) for row in rows] == expected
    # the same seeds, polished alike: every valid row but the one that
    # builds it saves the 215 walk pairs of the band scan, the one scan a
    # single-sheet stack runs
    assert lone_evals - sweep_evals == 215 * (len(SHARED_SCAN_GRID) - 2)
    assert rows[0].status == "failed:chemical_potential_ev must be >= 0"
    assert all(row.status == "ok" for row in rows[1:])


@pytest.mark.parametrize("preset, ef, f_thz", [
    ("H1G", 0.05, 1.5), ("H1G", 0.4, 4.0), ("H2G", 0.2, 7.0), ("H2G", 1.0, 0.5)])
def test_shared_scan_values_equal_direct_evaluations(preset, ef, f_thz):
    # the sheet term applied to the sheet-free parts gives every scan value
    # and every (value, scale) pair the root finder iterates on bit for bit,
    # not merely the same seeds
    stack = preset_stack(preset, GrapheneSheet(ef, 0.6e-12))
    points = [complex(p, modesolver._SCAN_IMAG_FRAC * p)
              for p in np.linspace(1.0, 60.0, 400)]
    _assert_single_pass_bits(stack, 2.0 * math.pi * f_thz * 1e12, points)


def _single_pass(x, term, geometry):
    # the bilinear form and its scale in one pass, the sheet term applied
    # inside, as the mode function was written before the term was split
    # off: an independent statement of what the split must reproduce
    k0, bottom, top = geometry
    x_sq = x * x
    a_bottom, b_bottom = modesolver._walk(bottom, x_sq, k0)
    a_top, b_top = modesolver._walk(top, x_sq, k0)
    below = a_bottom * b_top
    above = -a_top * b_bottom
    sheet = term * b_bottom * b_top
    scale = abs(below)
    m = abs(above)
    if m > scale:
        scale = m
    m = abs(sheet)
    if m > scale:
        scale = m
    return below - above + sheet, scale


def _single_pass_relative(z, term, geometry) -> float:
    # the relative mode function as a scan evaluates it
    try:
        value, scale = _single_pass(z, term, geometry)
        return abs(value) / scale if scale > 0.0 else math.inf
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _outcome(call):
    # a (value, scale) pair's bits, or the arithmetic error that stopped it
    try:
        value, scale = call()
        return _hex(value), scale.hex()
    except (OverflowError, ZeroDivisionError) as err:
        return type(err).__name__


def _solver_fn(stack, omega):
    # the function the solve hands to Muller's method, caught at the hand-off
    # of a guessed solve; no seed is polished, so no root is found
    handed = []

    def catch(fn, seed):
        handed.append(fn)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modesolver, "_muller_polish", catch)
        with pytest.raises(ConvergenceError):
            find_mode(stack, omega, 1.0 + 1.0j)
    return handed[0]


def _assert_single_pass_bits(stack, omega, points):
    # the scan's relative values and the (value, scale) pairs Muller's
    # method iterates on and stops with equal the single-pass form's bits,
    # overflow included
    term, geometry = modesolver._mode_problem(stack, omega)
    scan = [modesolver._relative_value(
        term, modesolver._sheet_free_parts(geometry, z)) for z in points]
    assert [v.hex() for v in scan] == [
        _single_pass_relative(z, term, geometry).hex() for z in points]
    fn = _solver_fn(stack, omega)
    assert [_outcome(lambda: fn(z)) for z in points] == [
        _outcome(lambda: _single_pass(z, term, geometry)) for z in points]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(stack=st.one_of(single_sheet_stacks(), two_sheet_stacks()),
       f_hz=st.floats(0.1e12, 10e12),
       points=st.lists(st.complex_numbers(max_magnitude=1e200, allow_nan=False,
                                          allow_infinity=False),
                       min_size=1, max_size=8))
def test_shared_scan_values_mirror_the_mode_function(stack, f_hz, points):
    # any point of the plane up to |x| = 1e200 must agree with the
    # single-pass form, also where a second sheet's term sits in a walk
    _assert_single_pass_bits(stack, 2.0 * math.pi * f_hz, points)


def test_overflowing_points_agree_with_the_single_pass_form():
    # where a modulus overflows the scan reads inf and Muller's function
    # raises, as the single-pass form does
    cases = [
        # near |x| = 1e154 the sheet term's product is finite but its
        # modulus overflows
        (preset_stack("G", GrapheneSheet(1.0, 1e-12)), 4e12,
         [cmath.rect(1e154 * (1.0 + 0.002 * k), angle)
          for k in range(20) for angle in (0.0, 0.3, 0.785, 1.2)]),
        # on a 1e300 substrate |below| of the sheet-free parts overflows
        # from x = 1.3e8 (1 + 1j) on, and the parts are inf by 2e8 (1 + 1j)
        (graphene_on_substrate(GrapheneSheet(0.2, 1e-12), 1e300), 1e12,
         [s * 1e8 * (1.0 + 1.0j) for s in (1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 2.0)]),
    ]
    for stack, f_hz, points in cases:
        omega = 2.0 * math.pi * f_hz
        term, geometry = modesolver._mode_problem(stack, omega)
        raised = [_outcome(lambda: _single_pass(z, term, geometry))
                  for z in points].count("OverflowError")
        assert 0 < raised < len(points)
        _assert_single_pass_bits(stack, omega, points)


def _two_sheet_stack():
    sheet = GrapheneSheet(0.3, 0.6e-12)
    return LayeredStack(
        (DielectricLayer(1.0), DielectricLayer(11.9, 5e-6),
         DielectricLayer(2.25, 3e-6), DielectricLayer(3.8)),
        {0: sheet, 2: sheet})


def _sheets_around_silicon(tau_s):
    # vacuum | 0.3935 eV | 2.808 um silicon | 0.592 eV | quartz
    return LayeredStack(
        (DielectricLayer(1.0), DielectricLayer(11.9, 2.808e-6),
         DielectricLayer(3.8)),
        {0: GrapheneSheet(0.3935, tau_s), 1: GrapheneSheet(0.592, tau_s)})


def test_two_sheet_stack_sweep_scans_every_row():
    # a second sheet puts its term into a walk, so no scan can be shared:
    # the sweep makes exactly the evaluations of its rows' lone solves
    stack = _two_sheet_stack()
    grid = (0.2, 0.5, 0.8)
    rows, expected = [], []
    sweep_evals = oracles.count_evals(lambda: rows.extend(
        stack_metrics_sweep(stack, 3e12, grid)))
    lone_evals = oracles.count_evals(lambda: expected.extend(
        _find_mode_rows(stack, 3e12, grid)))
    assert sweep_evals == lone_evals
    assert [_row_bits(row) for row in rows] == expected
    assert all(row.status == "ok" for row in rows)


@pytest.mark.parametrize("preset, expected", [("H1G", 1378), ("H2G", 1448)],
                         ids=["H1G", "H2G"])
def test_stack_sweep_evaluation_count(preset, expected):
    # 9 points, 0.2-1.0 eV, 0.6 ps, 4 THz: the rows share the 215-point band
    # scan, whose sheet-free parts are built and counted once; with one
    # sheet there is no 48-point scan
    stack = preset_stack(preset, GrapheneSheet(0.2, 0.6e-12))
    grid = [0.2 + 0.1 * i for i in range(9)]
    evals = oracles.count_evals(lambda: stack_metrics_sweep(stack, 4e12, grid))
    assert evals == expected


@pytest.mark.parametrize("call", [
    lambda: find_mode(preset_stack("H1G", GrapheneSheet(0.4, 1e-12)),
                      2.0 * math.pi * 2e12),
    lambda: find_mode(preset_stack("H2G", GrapheneSheet(0.4, 1e-12)),
                      2.0 * math.pi * 2e12),
    lambda: stack_metrics_sweep(preset_stack("H1G", GrapheneSheet(0.2, 0.6e-12)),
                                4e12, (0.2, 0.5, 0.8)),
    lambda: stack_metrics_sweep(_two_sheet_stack(), 3e12, (0.2, 0.5, 0.8)),
    lambda: resonance_frequency(DipoleGeometry(8e-6, 20e-6, 3e-6, 3.8),
                                GrapheneSheet(0.2, 1e-12)),
], ids=["find_mode H1G", "find_mode H2G", "sweep H1G", "sweep two sheets",
        "resonance"])
def test_every_walk_pair_is_a_counted_evaluation(monkeypatch, call):
    # _walk runs only inside _mode_function, so the evaluation counter that
    # tests and the benchmark tracer patch sees every walk pair
    walk, walks = modesolver._walk, 0

    def counted(*args):
        nonlocal walks
        walks += 1
        return walk(*args)

    monkeypatch.setattr(modesolver, "_walk", counted)
    evals = oracles.count_evals(call)
    assert evals > 0
    assert walks == 2 * evals


def test_stack_sweep_rejects_a_non_numeric_grid_before_solving():
    # the grid is converted once, up front: no row is solved, and the error
    # is not raised again from inside a row's failure handling
    stack = preset_stack("H1G", GrapheneSheet(0.2, 0.6e-12))

    def sweep():
        with pytest.raises(ValueError, match="could not convert") as info:
            stack_metrics_sweep(stack, 4e12, [0.2, "x"])
        assert info.value.__context__ is None

    assert oracles.count_evals(sweep) == 0


# --- facts kept per sheet and per stack --------------------------------------

def _rebuilt_mode_problem(stack, angular_frequency):
    """The mode problem rebuilt from the stack's fields at every call, with
    each sheet's Drude weight computed anew: the reference for the sheet's
    kept weight and the stack's kept walks (valid inputs only)."""
    k0 = angular_frequency / C0
    terms = {}
    for i, sheet in stack.sheets.items():
        sigma = (conductivity.drude_weight(sheet) * 1j
                 / (angular_frequency + 1j / sheet.relaxation_time_s))
        terms[i] = 1j * sigma / (EPS0 * C0)
    layers = stack.layers

    def walk(cladding, steps):
        eps = cladding.relative_permittivity
        return eps, complex(eps), tuple(
            (terms.get(i), layer.relative_permittivity, layer.thickness_m)
            for i, layer in steps)

    ref = min(stack.sheets)
    bottom = walk(layers[-1],
                  ((i, layers[i]) for i in range(len(layers) - 2, ref, -1)))
    top = walk(layers[0], ((i, layers[i + 1]) for i in range(ref)))
    return terms[ref], (k0, bottom, top)


@st.composite
def multi_sheet_stacks(draw):
    """2-5 layers drawn like single_sheet_stacks', with 1-3 sheets at
    distinct interfaces."""
    eps = draw(st.lists(st.floats(1.0, 12.0), min_size=2, max_size=5))
    inner = [DielectricLayer(e, draw(st.floats(1e-8, 1e-5))) for e in eps[1:-1]]
    layers = (DielectricLayer(eps[0]), *inner, DielectricLayer(eps[-1]))
    interfaces = draw(st.lists(st.integers(0, len(layers) - 2), min_size=1,
                               max_size=3, unique=True))
    return LayeredStack(layers, {i: _sheet(draw) for i in interfaces})


# the top sheet at interface 0 and a second one inside the bottom walk
SHEET_IN_BOTTOM_WALK = LayeredStack(
    (DielectricLayer(1.0), DielectricLayer(11.9, 5e-6),
     DielectricLayer(2.25, 3e-6), DielectricLayer(3.8)),
    {0: GrapheneSheet(0.3, 0.6e-12), 2: GrapheneSheet(0.5, 0.2e-12)})


@settings(max_examples=200, deadline=None, derandomize=True)
@given(stack=multi_sheet_stacks(), f_hz=st.floats(1e9, 1e14),
       f_hz_2=st.floats(1e9, 1e14))
@example(stack=SHEET_IN_BOTTOM_WALK, f_hz=1e12, f_hz_2=4e12)
def test_kept_walks_give_the_rebuilt_mode_problem(stack, f_hz, f_hz_2):
    # the same stack object at two frequencies: a sheet inside the bottom
    # walk gets each frequency's term, and no term outlives its call
    for f in (f_hz, f_hz_2, f_hz):
        omega = 2.0 * math.pi * f
        assert (repr(modesolver._mode_problem(stack, omega))
                == repr(_rebuilt_mode_problem(stack, omega)))


def test_multi_sheet_example_has_a_sheet_in_the_bottom_walk():
    # the example above reaches the one branch no preset takes
    _, (_, bottom, top) = modesolver._mode_problem(SHEET_IN_BOTTOM_WALK,
                                                   OMEGA_1THZ)
    assert [type(step[0]) for step in bottom[2]] == [complex, type(None)]
    assert all(step[0] is None for step in top[2])


def _kept(obj):
    # what an object keeps beyond its fields
    fields = {f.name for f in dataclasses.fields(obj)}
    return sorted(set(vars(obj)) - fields)


def _mode_bits(stack, omega):
    mode = find_mode(stack, omega)
    return (mode.wavevector.real.hex(), mode.wavevector.imag.hex(),
            mode.residual.hex(),
            repr(modesolver._mode_problem(stack, omega)))


def _two_sheet_h2g(ef):
    film = DielectricLayer(11.9, 5e-6)
    return LayeredStack(
        (DielectricLayer(1.0), film, film, DielectricLayer(3.8)),
        {1: GrapheneSheet(ef, 1e-12), 2: GrapheneSheet(0.3, 0.5e-12)})


def test_kept_facts_are_invisible():
    # solving fills what the sheet and the stack keep; equality, hash and
    # repr see only the fields
    stack = _two_sheet_h2g(0.4)
    sheet = stack.sheets[1]
    seen = repr(stack), repr(sheet), hash(sheet)
    omega = 2.0 * math.pi * 2e12
    find_mode(stack, omega)
    assert _kept(sheet) == ["_drude_weight"]
    assert _kept(stack) == ["_walk_layout", "max_cladding_index",
                            "max_layer_index", "top_sheet_interface"]
    assert (repr(stack), repr(sheet), hash(sheet)) == seen
    assert stack == _two_sheet_h2g(0.4)
    assert sheet == GrapheneSheet(0.4, 1e-12)


def test_new_objects_do_not_inherit_kept_facts():
    # every way of making a new sheet or stack from a solved one gives the
    # bits a stack built from scratch gives; a copy of a sheet carries its
    # kept weight, which depends on the fields alone
    omega = 2.0 * math.pi * 2e12
    stack = _two_sheet_h2g(0.4)
    find_mode(stack, omega)
    sheet = stack.sheets[1]
    retuned = stack.with_chemical_potential(0.7)
    replaced = LayeredStack(stack.layers, {
        1: dataclasses.replace(sheet, chemical_potential_ev=0.7),
        2: dataclasses.replace(stack.sheets[2], chemical_potential_ev=0.7)})
    flipped = stack.reversed()
    for new in (retuned, replaced, flipped):
        assert _kept(new) == []
    for new in (retuned.sheets[1], replaced.sheets[1]):
        assert _kept(new) == []
    fresh = LayeredStack(stack.layers, {1: GrapheneSheet(0.7, 1e-12),
                                        2: GrapheneSheet(0.7, 0.5e-12)})
    assert _mode_bits(retuned, omega) == _mode_bits(fresh, omega)
    assert _mode_bits(replaced, omega) == _mode_bits(fresh, omega)
    assert (_mode_bits(flipped, omega)
            == _mode_bits(_two_sheet_h2g(0.4).reversed(), omega))
    for copied in (copy.deepcopy(sheet), pickle.loads(pickle.dumps(sheet))):
        assert copied == sheet and hash(copied) == hash(sheet)
        assert copied._drude_weight == conductivity.drude_weight(sheet)
        rebuilt = LayeredStack(stack.layers, {1: copied, 2: stack.sheets[2]})
        assert _mode_bits(rebuilt, omega) == _mode_bits(_two_sheet_h2g(0.4),
                                                        omega)


@pytest.mark.parametrize("make", [
    lambda: preset_stack("G", GrapheneSheet(0.4, 1e-12)),
    lambda: preset_stack("H1G", GrapheneSheet(0.4, 1e-12)),
    lambda: preset_stack("H2G", GrapheneSheet(0.4, 1e-12)),
    lambda: _two_sheet_h2g(0.4),
], ids=["G", "H1G", "H2G", "two-sheet"])
def test_stack_copies_rebuild_from_the_fields(make):
    # a solved stack pickles and copies; each copy is rebuilt through
    # __post_init__, so it keeps nothing beyond its fields and solves to
    # the same bits
    omega = 2.0 * math.pi * 4e12
    stack = make()
    expected = _mode_bits(make(), omega)
    find_mode(stack, omega)
    for copied in (pickle.loads(pickle.dumps(stack)), copy.copy(stack),
                   copy.deepcopy(stack)):
        assert copied == stack and repr(copied) == repr(stack)
        assert sorted(vars(copied)) == ["layers", "sheets"]
        assert _mode_bits(copied, omega) == expected


# --- bit identity ------------------------------------------------------------

SOLVER_BITS = Path(__file__).parent / "data" / "solver_bits.json"


def _hex(z: complex) -> str:
    return f"{z.real.hex()} {z.imag.hex()}"


def _cold_root_bits(bits: dict, stack, label: str, f_thz: float):
    key = f"find_mode {label} {f_thz} THz"
    try:
        mode = find_mode(stack, 2.0 * math.pi * f_thz * 1e12)
        bits[key] = [_hex(mode.wavevector), mode.residual.hex()]
    except ModeSolverError as err:
        bits[key] = f"{type(err).__name__}: {err}"


def solver_bits() -> dict:
    """float.hex of cold roots (or the error of a solve that raises) on
    single- and two-sheet stacks, off-mode residuals and scales, a
    dispersion trace and three resonances.
    A kernel rewrite that claims the same IEEE operations must reproduce
    every bit."""
    bits = {}
    for name in ("G", "H1G", "H2G"):
        for flipped in (False, True):
            for ef in (0.05, 0.1, 0.4, 0.8):
                stack = preset_stack(name, GrapheneSheet(ef, 0.6e-12))
                if flipped:
                    stack = stack.reversed()
                label = f"{name}{' reversed' if flipped else ''} {ef} eV"
                for f_thz in (0.5, 1.5, 3.0, 6.0):
                    _cold_root_bits(bits, stack, label, f_thz)
                omega = 2.0 * math.pi * 2e12
                for x in (1.2 + 0.05j, 2.5 + 0.3j, 30.0 + 3.0j, 80.0 + 1.0j):
                    q = x * omega / C0
                    key = f"residual {label} 2 THz x={x}"
                    bits[key] = [_hex(dispersion_residual(stack, q, omega)),
                                 residual_scale(stack, q, omega).hex()]
    for name, stack in (("two sheets", _two_sheet_stack()),
                        ("sheets around silicon",
                         _sheets_around_silicon(0.6e-12))):
        for ef in (0.05, 0.1, 0.4, 0.8):
            for f_thz in (0.5, 1.5, 3.0, 6.0):
                _cold_root_bits(bits, stack.with_chemical_potential(ef),
                                f"{name} {ef} eV", f_thz)
    trace = trace_dispersion(preset_stack("H2G", GrapheneSheet(0.8, 1e-12)),
                             [1.5e12 + i * 0.15e12 for i in range(30)])
    for point in trace:
        bits[f"trace H2G 0.8 eV {point.frequency_hz / 1e12:.2f} THz"] = (
            _hex(point.solution.wavevector) if point.ok else point.status)
    for dipole, sheet in (
            (DipoleGeometry(8e-6, 20e-6, 3e-6, 3.8), GrapheneSheet(0.2, 1e-12)),
            (DipoleGeometry(2e-6, 5e-6, 1e-6, 3.8), GrapheneSheet(0.6, 0.5e-12)),
            (DipoleGeometry(4e-6, 12e-6, 2e-6, 11.9, 1.3),
             GrapheneSheet(0.4, 0.3e-12))):
        result = resonance_frequency(dipole, sheet)
        bits[f"resonance {dipole} {sheet}"] = [
            result.resonance_frequency_hz.hex(), _hex(result.mode.wavevector)]
    return bits


def test_solver_outputs_bit_identical_to_reference():
    # tests/data/solver_bits.json was written by this module's __main__
    assert solver_bits() == json.loads(SOLVER_BITS.read_text())


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_modesolver.py rewrites the reference
    SOLVER_BITS.write_text(json.dumps(solver_bits(), indent=1) + "\n")
