import cmath
import copy
import dataclasses
import json
import math
import pickle
import re
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings
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
    assert modesolver._accepted(stack, x, (0j, 1.0)) == 0.0
    sigma = oracles.mp_conductivity(ef, 0.6e-12, f_hz)
    assert oracles.layered_mode_residual(
        TWO_SHEET_LAYERS, {0: sigma, 2: sigma}, mode.wavevector, omega) <= 1e-11


@pytest.mark.parametrize("ef, f_hz", [case[:2] for case in FLIPPED_ROOTS],
                         ids=["0.4eV-3THz", "0.8eV-6THz"])
def test_forward_stack_finds_the_reversed_root(ef, f_hz):
    # the lower sheet's own quasi-static seed reaches the root that the
    # flipped stack's top-sheet seeds find
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


# --- physical no-ops: edits of a stack that leave its modes unchanged --------

def _assert_same_mode(stack, edited, f_hz):
    # the same root to 1e-9 relative, or the same failure
    omega = 2.0 * math.pi * f_hz
    mode, other = _mode_or_error(stack, omega), _mode_or_error(edited, omega)
    if isinstance(mode, type) or isinstance(other, type):
        assert mode == other
    else:
        q = mode.wavevector
        assert abs(other.wavevector - q) <= 1e-9 * abs(q)


def _split(stack, j, fraction):
    """The stack with interior layer j cut in two layers of its permittivity
    at fraction of its thickness; the sheets below it move down one
    interface."""
    eps, d = stack.layers[j].relative_permittivity, stack.layers[j].thickness_m
    layers = (*stack.layers[:j], DielectricLayer(eps, fraction * d),
              DielectricLayer(eps, (1.0 - fraction) * d), *stack.layers[j + 1:])
    return LayeredStack(layers, {i + (i >= j): s for i, s in stack.sheets.items()})


def _padded(stack, d):
    """The stack with a layer of the top cladding's permittivity and
    thickness d under the top cladding; every sheet moves down one
    interface."""
    pad = DielectricLayer(stack.layers[0].relative_permittivity, d)
    return LayeredStack((stack.layers[0], pad, *stack.layers[1:]),
                        {i + 1: s for i, s in stack.sheets.items()})


def _layered(layers, sheets):
    """A stack from (eps, thickness m or None) layers, top to bottom, and
    {interface: (E_F eV, tau s)} sheets."""
    return LayeredStack(tuple(DielectricLayer(*layer) for layer in layers),
                        {i: GrapheneSheet(*sheet) for i, sheet in sheets.items()})


# a failing property stops at its first failure: shrinking two-sheet cold
# solves would cost seconds and show nothing more
NO_OP_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                          phases=(Phase.explicit, Phase.generate))


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 15: the top sheet's mode function cannot resolve a root "
    "bound to a lower sheet across layers where the field grows by decades, "
    "so the two orientations can return different roots"))
@NO_OP_SETTINGS
@given(stack=two_sheet_stacks(), f_hz=st.floats(0.5e12, 6e12))
def test_two_sheet_find_mode_is_flip_invariant(stack, f_hz):
    _assert_same_mode(stack, stack.reversed(), f_hz)


NO_OP_MISS = ("ROADMAP items 13 and 2: the cold seeds can miss the bound root "
              "of smallest Re x, and no count of the roots below the one "
              "returned says so")


# a single-sheet row whose failure changes type, and a two-sheet row whose
# root 2.717 + 0.142i the split stack misses (it returns 40.76 + 2.10i)
@pytest.mark.xfail(strict=True, reason=NO_OP_MISS)
@example(stack=_layered(
    ((6.669454130357646, None), (6.794613035218725, 4.907209093732956e-07),
     (8.368097477789274, 8.40761435496306e-07), (7.762361718192801, None)),
    {1: (0.993916406688019, 2.8337176025465583e-13)}),
    f_hz=583287201321.7739, pick=0, fraction=0.5319495294435811)
@example(stack=_layered(
    ((3.6581383699429733, None), (8.103800231652693, 1.2568436424231273e-07),
     (3.5785608477324837, None)),
    {0: (0.7036953904802183, 7.161199965743586e-13),
     1: (0.4651896137029298, 7.238993631481387e-13)}),
    f_hz=2190186290705.7935, pick=0, fraction=0.5935804772863397)
@NO_OP_SETTINGS
@given(stack=st.one_of(single_sheet_stacks(min_layers=3), two_sheet_stacks()),
       f_hz=st.floats(0.5e12, 6e12), pick=st.integers(0, 1),
       fraction=st.floats(0.1, 0.9))
def test_splitting_a_layer_leaves_the_mode(stack, f_hz, pick, fraction):
    j = 1 + pick % (len(stack.layers) - 2)
    _assert_same_mode(stack, _split(stack, j, fraction), f_hz)


# a root at 17.61 + 2.82i that the padded stack fails to converge to, and a
# root 2.328 + 2.1e-6i by the light line that it misses (11.01 + 0.517i)
@pytest.mark.xfail(strict=True, reason=NO_OP_MISS)
@example(stack=_layered(
    ((6.351048133522401, None), (5.282399039574594, 2.2360467665528245e-08),
     (11.425461163112145, 1.0874581082725164e-06), (7.001232097308506, None)),
    {0: (0.8670161259603706, 1.4738354687092542e-13)}),
    f_hz=6293583034232.026, d=1.158139544333294e-06)
@example(stack=_layered(
    ((5.415557434101701, None), (3.876211546167755, 5.17225688210364e-08),
     (8.13520435232005, 6.830446231232741e-06), (3.7336162215359514, None)),
    {1: (0.839802134669183, 6.650797874592616e-13)}),
    f_hz=4740022842465.844, d=1.039320909577619e-06)
@NO_OP_SETTINGS
@given(stack=single_sheet_stacks(), f_hz=st.floats(0.5e12, 6e12),
       d=st.floats(1e-8, 1e-5))
def test_padding_under_the_top_cladding_leaves_the_mode(stack, f_hz, d):
    _assert_same_mode(stack, _padded(stack, d), f_hz)


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
    # three only where a direct quotient was not finite.  The form comes
    # from the single-pass reference and the denominators from the two
    # walks, so it calls neither _checked_form nor _mode_function
    def quotients_finite(value, scale, denom):
        return cmath.isfinite(value / denom) and scale / abs(denom) < math.inf

    k0, bottom, top = geometry
    x_sq = x * x
    try:
        value, scale = _single_pass(x, term, geometry)
        denom = (modesolver._walk(bottom, x_sq, k0)[1]
                 * modesolver._walk(top, x_sq, k0)[1])
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
    monkeypatch.setattr(modesolver, "_mode_function",
                        lambda x, geometry, term: (
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


def test_nonbound_error_reports_the_root_with_positive_re_q():
    # Muller's method can return -x, the same root of a mode function that
    # depends on x^2 only; the error names it with Re q > 0
    stack = _layered(
        ((2.843377730032417, None), (1.102178178036954, 7.441778270045792e-08),
         (11.79370715427091, 1.1008459879530215e-06), (7.47553088272611, None)),
        {2: (0.5785767027109348, 1.2928638330554552e-13)})
    with pytest.raises(NonBoundModeError) as err:
        find_mode(stack, 2.0 * math.pi * 362857750882.79315)
    assert str(err.value) == ("not bound: Re q = 1.18009 k0 does not exceed "
                              "the cladding index 2.73414")


# a square overflows above sqrt(max float) ~ 1.34e154; Im x reaches down to
# the subnormals
_SQRT_MAX = math.sqrt(sys.float_info.max)
_IMAG = st.one_of(st.floats(0.0, _SQRT_MAX, exclude_min=True),
                  st.floats(5e-324, 2.2250738585072014e-308))


@settings(max_examples=300, deadline=None)
@given(eps=st.floats(1.0, 1e150), excess=st.floats(0.0, _SQRT_MAX, exclude_min=True),
       ulps=st.integers(0, 4), imag=_IMAG)
def test_principal_root_decays_above_the_cladding_index(eps, excess, ulps, imag):
    # Re x > sqrt(eps) and Im x > 0 give Im(x^2 - eps) > 0, so the principal
    # square root is the decaying branch, Re k > 0, wherever x^2 is finite
    n = math.sqrt(eps)
    real = n + excess
    if ulps:
        real = n
        for _ in range(ulps):
            real = math.nextafter(real, math.inf)
    x = complex(real, imag)
    assume(cmath.isfinite(x * x))
    assert cmath.sqrt(x * x - eps).real > 0.0


@st.composite
def _overflowing_x(draw):
    # one part above sqrt(max float), either sign, so that x^2 overflows
    huge = draw(st.floats(1.35e154, 1e308)) * draw(st.sampled_from([1.0, -1.0]))
    other = draw(st.floats(-1e308, 1e308))
    return complex(huge, other) if draw(st.booleans()) else complex(other, huge)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(stack=st.one_of(single_sheet_stacks(), two_sheet_stacks(),
                       multi_sheet_stacks()),
       f_hz=st.floats(1e9, 1e14), x=_overflowing_x())
@example(stack=graphene_on_substrate(SHEET_02, 3.8), f_hz=1e12,
         x=complex(2.0, 1.3407807929942597e154))
def test_no_overflowing_square_passes_the_gate(stack, f_hz, x):
    # with the property above, this is why the rule needs no decay check:
    # where x^2 overflows every walk term goes inf or NaN, so no fresh pair
    # passes the gate and Muller's method, which stops on finite values
    # only, returns no such point
    assert not cmath.isfinite(x * x)
    omega = 2.0 * math.pi * f_hz
    term, geometry = modesolver._mode_problem(stack, omega)
    try:
        pair = modesolver._mode_function(x, geometry, term)[:2]
    except OverflowError:
        pass
    else:
        assert modesolver._accepted(stack, x, pair) is None
    assert modesolver._muller_polish(_solver_fn(stack, omega), x) is None


def test_classifier_rejects_a_root_below_the_real_axis():
    stack = graphene_on_substrate(SHEET_02, 3.8)
    assert modesolver._accepted(stack, 3.0 - 0.1j, (0j, 1.0)) \
        == "not bound: Im q = -0.1 k0 is not positive"


# _muller_polish on synthetic functions with the root R, started from 2R:
# each is x - R, except where its relative distance d from R is below 0.6;
# the scale of each pair is the number of its call
ROOT = 3.0 + 0.01j


def _polish(near, form=lambda fn: fn):
    """_muller_polish's result for x - R with near(x, d) where d < 0.6, and
    the points it evaluated; form wraps the (value, scale) function."""
    calls = []

    def fn(x):
        calls.append(x)
        d = abs(x - ROOT) / abs(ROOT)
        return (near(x, d) if d < 0.6 else x - ROOT), float(len(calls))
    return modesolver._muller_polish(form(fn), 2.0 * ROOT), calls


def _with_denominators(fn):
    # fn's pair widened to the four items _mode_function returns
    return lambda x: (*fn(x), 0j, 0j)


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


@pytest.mark.parametrize("form", [lambda fn: fn, _with_denominators],
                         ids=["pair", "four-items"])
def test_muller_returns_the_step_that_met_the_tolerance(form):
    # on x - R every step before the last moves by at least TOLERANCE; the
    # last one does not, and its point is returned with nothing evaluated
    # after it.  Muller's method reads value and scale from the first two
    # items, so a function that returns more stops at the same bits
    found, calls = _polish(lambda x, d: x - ROOT, form)
    steps = [abs(b - a) / abs(b) for a, b in zip(calls[2:], calls[3:])]
    assert all(step >= modesolver.TOLERANCE for step in steps[:-1])
    assert steps[-1] < modesolver.TOLERANCE
    _assert_last_call(found, calls)
    assert abs(found[0] - ROOT) <= 1e-15 * abs(ROOT)
    point, value, scale = found
    pair_point, pair_value, pair_scale = _polish(lambda x, d: x - ROOT)[0]
    assert (_hex(point), _hex(value), scale.hex()) == (
        _hex(pair_point), _hex(pair_value), pair_scale.hex())


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


def _inverted_band_stack():
    clad = DielectricLayer(1e14)
    return LayeredStack((clad, DielectricLayer(1e14 + 1e8, 1e-6), clad),
                        {0: SHEET_02})


def test_inverted_scan_band_is_skipped(monkeypatch):
    # at cladding index 1e7 the dielectric band's first point lies 1e-6
    # above it, past the 1 um film's index + 1, so that scan has no points
    # and the bracket grid below the film's index none either: it gives no
    # seeds and evaluates nothing, and with one sheet it is the only scan
    scans, grids, minima = [], [], []
    band, brackets, deepest = (modesolver._band_scan, modesolver._bracket_seeds,
                               modesolver._scan_minima)

    def recording(geometry, n_clad, n_max, one_sheet):
        scan = []
        evals = oracles.count_evals(
            lambda: scan.extend(band(geometry, n_clad, n_max, one_sheet)))
        scans.append((scan, evals))
        return tuple(scan)

    def recording_grid(geometry, grid):
        grids.append(grid)
        return brackets(geometry, grid)

    def recording_minima(term, points, parts):
        minima.append(deepest(term, points, parts))
        return minima[-1]
    monkeypatch.setattr(modesolver, "_band_scan", recording)
    monkeypatch.setattr(modesolver, "_bracket_seeds", recording_grid)
    monkeypatch.setattr(modesolver, "_scan_minima", recording_minima)
    stack = _inverted_band_stack()
    mode = find_mode(stack, OMEGA_1THZ)
    assert len(scans) == len(grids) == len(minima) == 1
    [((points, _, seeds), evals)], [grid], [found] = scans, grids, minima
    assert (len(points), len(grid), evals, seeds + found) == (0, 0, 0, [])
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


def _roots_or_error(stack, omega):
    try:
        return modesolver._bound_roots(stack, omega, None, [])
    except (ModeSolverError, ValueError) as err:
        return type(err)


def _fresh_pair(stack, omega, x):
    # the (value, scale) pair at x from a new evaluation
    term, geometry = modesolver._mode_problem(stack, omega)
    return modesolver._mode_function(x, geometry, term)[:2]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(stack=st.one_of(single_sheet_stacks(), two_sheet_stacks()),
       f_hz=st.floats(0.5e12, 6e12))
def test_root_residual_is_the_relative_value_at_the_root(stack, f_hz):
    # the residual comes from the evaluation Muller's method stopped on, not
    # from a new one; it equals the relative mode function evaluated afresh
    # at every member x of the bound-root set, the returned root's included
    omega = 2.0 * math.pi * f_hz
    roots = _roots_or_error(stack, omega)
    if isinstance(roots, type):
        return
    for x, residual in roots:
        value, scale = _fresh_pair(stack, omega, x)
        assert residual.hex() == (abs(value) / scale).hex()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(stack=st.one_of(single_sheet_stacks(), two_sheet_stacks()),
       f_hz=st.floats(0.5e12, 6e12))
def test_bound_roots_are_distinct_accepted_and_sorted(stack, f_hz):
    # every member passes the one rule and is bound, the set is sorted by
    # Re x, no two members lie within the merge distance of each other, and
    # find_mode returns the first member, bit for bit, or the same error
    omega = 2.0 * math.pi * f_hz
    roots = _roots_or_error(stack, omega)
    mode = _mode_or_error(stack, omega)
    if isinstance(roots, type):
        assert mode is roots
        return
    assert roots
    for x, residual in roots:
        assert modesolver._accepted(stack, x, (0j, 1.0)) == 0.0
        assert modesolver._accepted(stack, x, _fresh_pair(stack, omega, x)) \
            == residual
    reals = [x.real for x, _ in roots]
    assert reals == sorted(reals)
    for i, (x, _) in enumerate(roots):
        for y, _ in roots[:i]:
            assert abs(x - y) >= modesolver._SAME_ROOT * min(abs(x), abs(y))
    x, residual = roots[0]
    assert _hex(mode.wavevector) == _hex(x * (omega / C0))
    assert mode.residual.hex() == residual.hex()


@pytest.mark.parametrize("preset, f_thz, expected", [
    ("H1G", 4.0, (2.08362 + 0.00237j, 18.57722 + 0.71544j)),
    ("H2G", 4.0, (2.14191 + 0.00030j, 33.89647 + 1.33475j)),
    ("H1G", 2.0, (9.72140 + 0.68496j,)),
    ("H2G", 2.0, (17.19033 + 1.32370j,))])
def test_pinned_bound_root_sets(preset, f_thz, expected):
    # at 4 THz a film root below the densest layer's index and the plasmon
    # above it, of which find_mode returns the film root; at 2 THz one root
    stack = preset_stack(preset, GrapheneSheet(0.4, 1e-12))
    roots = modesolver._bound_roots(stack, 2.0 * math.pi * f_thz * 1e12,
                                    None, [])
    assert len(roots) == len(expected)
    for (x, _), pinned in zip(roots, expected):
        assert abs(x - pinned) < 1e-5
    if len(roots) == 2:
        assert roots[0][0].real < stack.max_layer_index < roots[1][0].real


# --- the one acceptance rule ---------------------------------------------------

RULE_STACK = preset_stack("G", SHEET_02)    # bound above sqrt(3.8) ~ 1.95


@pytest.mark.parametrize("pair, expected", [
    ((complex(modesolver.RESIDUAL_GATE), 1.0), None),    # the gate is strict
    ((complex(math.nextafter(modesolver.RESIDUAL_GATE, 0.0)), 1.0),
     math.nextafter(modesolver.RESIDUAL_GATE, 0.0)),
    ((0j, 0.0), None),                                   # a zero scale
    ((complex(1e308, 1e308), 1.0), None),                # |value| overflows
    ((complex(math.nan), 1.0), None),
    ((0j, 1.0), 0.0)], ids=["at-gate", "below-gate", "zero-scale",
                            "overflow", "nan", "zero"])
def test_rule_judges_the_residual(pair, expected):
    assert modesolver._accepted(RULE_STACK, 3.0 + 0.1j, pair) == expected


# the reasons reach the CSV statuses through NonBoundModeError
UNBOUND_REASONS = {
    1.5 + 0.1j: ("not bound: Re q = 1.5 k0 does not exceed the cladding "
                 "index 1.94936"),
    3.0 - 0.1j: "not bound: Im q = -0.1 k0 is not positive",
    3.0 + 0.0j: "not bound: Im q = 0 k0 is not positive"}


@pytest.mark.parametrize("x", UNBOUND_REASONS)
def test_rule_gives_the_classifier_reason_for_an_unbound_root(x):
    assert modesolver._accepted(RULE_STACK, x, (0j, 1.0)) == UNBOUND_REASONS[x]
    # a residual that fails the gate is refused before the bound test runs
    assert modesolver._accepted(RULE_STACK, x, (1j, 1.0)) is None


def test_rule_judges_both_root_finders(monkeypatch):
    # Muller's roots in find_mode and the resonance search's Newton root
    # pass through the same function, and each returned residual is what
    # it gave
    rule = modesolver._accepted
    calls = []

    def recording(stack, x, pair):
        verdict = rule(stack, x, pair)
        calls.append((sys._getframe(1).f_code.co_name, verdict))
        return verdict

    monkeypatch.setattr(modesolver, "_accepted", recording)
    mode = find_mode(preset_stack("H1G", GrapheneSheet(0.4, 1e-12)),
                     2.0 * math.pi * 2e12)
    assert {caller for caller, _ in calls} == {"_bound_roots"}
    assert mode.residual in [v for _, v in calls]
    calls.clear()
    result = resonance_frequency(DipoleGeometry(8e-6, 20e-6, 3e-6, 3.8),
                                 GrapheneSheet(0.2, 1e-12))
    assert {caller for caller, _ in calls} == {"_bound_roots", "_newton"}
    assert calls[-1] == ("_newton", result.mode.residual)


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


# --- the film band's branch cut ------------------------------------------------

def _even_walk(walk, x_sq, k0):
    # a walk of _mode_problem's geometry by the transfer matrix
    # a' = a C + (eps/k) S b, b' = (k/eps) S a + b C, whose entries are
    # entire in k^2; C and S are scaled by exp(-|Re k k0 d|) > 0, which
    # keeps them bounded and leaves the form's phase as it is
    eps_clad, a, steps = walk
    b = cmath.sqrt(x_sq - eps_clad)
    for term, eps_i, d_i in steps:
        if term is not None:
            a = a + term * b
        k_i = cmath.sqrt(x_sq - eps_i)
        t = k_i * k0 * d_i
        grow, decay = cmath.exp(t - abs(t.real)), cmath.exp(-t - abs(t.real))
        c, s = 0.5 * (grow + decay), 0.5 * (grow - decay)
        a, b = a * c + eps_i / k_i * s * b, k_i / eps_i * s * a + b * c
    return a, b


def _even_relative(term, geometry, x):
    k0, bottom, top = geometry
    a_bottom, b_bottom = _even_walk(bottom, x * x, k0)
    a_top, b_top = _even_walk(top, x * x, k0)
    below, above = a_bottom * b_top, -a_top * b_bottom
    sheet = term * b_bottom * b_top
    return (below - above + sheet) / max(abs(below), abs(above), abs(sheet))


@pytest.mark.parametrize("preset", ["H1G", "H2G"])
def test_the_film_band_axis_is_a_cut_of_the_form_alone(preset):
    # between the cladding index 1.95 and the film's 3.45 the principal k of
    # the film flips sign across the real axis, and the form, whose walk is
    # not even in that k, jumps; above the film index, and in the even walk
    # everywhere, it changes by first order in the 2e-9 step only
    stack = preset_stack(preset, GrapheneSheet(0.4, 1e-12))
    omega = 2.0 * math.pi * 4e12
    term, geometry = modesolver._mode_problem(stack, omega)

    def today(x):
        value, scale = _fresh_pair(stack, omega, x)
        return value / scale

    def even(x):
        return _even_relative(term, geometry, x)

    def jump(relative, x):
        return abs(relative(complex(x, 1e-9)) - relative(complex(x, -1e-9)))

    assert stack.max_cladding_index < 2.5 < 3.2 < stack.max_layer_index < 3.6
    assert jump(today, 2.5) > 0.5 and jump(today, 3.2) > 0.5
    assert jump(today, 3.6) < 1e-7
    for x in (2.5, 3.2, 3.6):
        assert jump(even, x) < 1e-7


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
    # with one sheet the adjacent-layer quasi-static seed, the brackets'
    # seeds and the scan's minima come first; the cladding quasi-static seed
    # and all nine rungs run only while nothing bound was found, which on
    # these rows never happens
    for ef in (0.05, 0.2, 0.8):
        stack = preset_stack(preset, GrapheneSheet(ef, 0.6e-12))
        layers, interface = PRESET_LAYERS[preset]
        adjacent = ((layers[interface][0] + layers[interface + 1][0])
                    / (layers[0][0] + layers[-1][0]))
        for f_thz in (0.5, 1.5, 4.0, 7.0):
            omega = 2.0 * math.pi * f_thz * 1e12
            seeds = _polished_seeds(lambda: find_mode(stack, omega))
            qs = quasi_static_wavevector(stack, omega) / (omega / C0)
            assert seeds[0] == qs * adjacent
            assert not set([qs] + _ladder(stack)) & set(seeds)


# single-sheet stacks whose root only the late cladding quasi-static seed
# reaches: (layers top to bottom, sheet interface, E_F eV, tau s, f Hz, x)
LATE_CLADDING_ROOTS = [
    (((11.72, None), (3.06, 62e-9), (4.03, None)), 1, 0.053, 0.785e-12,
     1.148e12, 38.0892 + 5.9784j),
    (((7.84, None), (1.73, 41.5e-9), (2.87, None)), 1, 0.25, 0.74e-12,
     4.7e12, 22.7659 + 0.8732j)]


@pytest.mark.parametrize("layers, interface, ef, tau, f_hz, expected",
                         LATE_CLADDING_ROOTS, ids=["1.148THz", "4.7THz"])
def test_the_late_cladding_seed_reaches_a_root_the_early_seeds_miss(
        layers, interface, ef, tau, f_hz, expected):
    # the early seeds reach no bound root, so the cladding seed, which heads
    # the ladder, is polished next and its root is returned; no rung runs
    stack = LayeredStack(tuple(DielectricLayer(*layer) for layer in layers),
                         {interface: GrapheneSheet(ef, tau)})
    omega = 2.0 * math.pi * f_hz
    outcome = []
    seeds = _polished_seeds(lambda: outcome.append(find_mode(stack, omega)))
    qs = quasi_static_wavevector(stack, omega) / (omega / C0)
    assert seeds[-1] == qs and not set(_ladder(stack)) & set(seeds)
    x = outcome[0].wavevector / outcome[0].k0
    assert abs(x - expected) <= 1e-5 * abs(expected)
    sigma = oracles.mp_conductivity(ef, tau, f_hz)
    assert oracles.layered_mode_residual(
        layers, {interface: sigma}, outcome[0].wavevector, omega) <= 1e-15


# H2G film roots by the substrate light line that an early seed reaches
# only from a bracket of the sheet-free function on the real axis: (f Hz,
# tau s, E_F eV, x).  Without the brackets the first two rows return a root
# of Re x 2.985; the last, a wide-grid row, returns 13.68 + 0.278i unless the
# grid holds n_clad * 1.1
BRACKET_ROOTS = [
    (7.870185823245252e12, 0.6e-12, 0.6758792047085261,
     1.949670488924797 + 4.2765897534625683e-05j),
    (7.870185823245252e12, 0.6e-12, 0.9785901142044015,
     1.9493601651114383 + 6.724870853063852e-06j),
    (3917154524492.8467, 1.8700314463280446e-12, 0.9975792091919032,
     2.1086286277323585 + 0.0004596953992304102j)]


@pytest.mark.parametrize("f_hz, tau, ef, expected", BRACKET_ROOTS,
                         ids=["0.676eV", "0.979eV", "wide-grid"])
def test_bracket_seeds_reach_the_film_roots_by_the_light_line(f_hz, tau, ef,
                                                               expected):
    stack = preset_stack("H2G", GrapheneSheet(ef, tau))
    omega = 2.0 * math.pi * f_hz
    outcome = []
    seeds = _polished_seeds(lambda: outcome.append(find_mode(stack, omega)))
    qs = quasi_static_wavevector(stack, omega) / (omega / C0)
    assert not set([qs] + _ladder(stack)) & set(seeds)
    x = outcome[0].wavevector / outcome[0].k0
    assert x.real > math.sqrt(3.8) and x.imag > 0.0
    assert abs(x - expected) <= 1e-9 * abs(expected)
    layers, interface = PRESET_LAYERS["H2G"]
    sigma = oracles.mp_conductivity(ef, tau, f_hz)
    assert oracles.layered_mode_residual(
        layers, {interface: sigma}, outcome[0].wavevector, omega) <= 1e-12


def test_two_sheet_cold_seeds_lead_with_the_cladding_seed():
    # with more than one sheet the cladding quasi-static seed stays the
    # first early seed, then each lower sheet's own estimate
    # i (eps_i + eps_i+1) w eps0 / sigma_i / k0
    stack = _two_sheet_stack()
    omega = 2.0 * math.pi * 3e12
    k0 = omega / C0
    seeds = _polished_seeds(lambda: find_mode(stack, omega))
    sigma = intraband_conductivity(stack.sheets[2], omega)
    lower = 1j * (2.25 + 3.8) * omega * EPS0 / sigma / k0
    assert seeds[:2] == [quasi_static_wavevector(stack, omega) / k0, lower]


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


def test_a_lower_sheet_with_zero_conductivity_adds_no_seed():
    # sigma = 0 exactly on the lower sheet: its own quasi-static estimate
    # would divide by zero, and the sheet adds nothing to the mode function,
    # so the solve finds the root of the stack without it
    layers = (DielectricLayer(1.0), DielectricLayer(11.9, 5e-6),
              DielectricLayer(3.8))
    top = GrapheneSheet(0.2, 1e-12)
    stack = LayeredStack(layers, {0: top, 1: GrapheneSheet(0.2, 1e-312)})
    mode = find_mode(stack, 2.0 * math.pi * 3e12)
    alone = find_mode(LayeredStack(layers, {0: top}), 2.0 * math.pi * 3e12)
    assert mode.wavevector == alone.wavevector


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
    # builds them saves the 215 walk pairs of the band scan, the one scan a
    # single-sheet stack runs, and the 16 real points it brackets
    assert lone_evals - sweep_evals == (215 + 16) * (len(SHARED_SCAN_GRID) - 2)
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


def _scan_value(term, parts):
    # one point's value as the scan's per-row pass computes it, read through
    # a three-point scan with inf on both sides: a finite value comes back as
    # the one minimum; where none does the value is inf or NaN, and a
    # neighbour of value 0 tells them apart, a minimum beside inf but not
    # beside NaN
    points = [0j, 1j, 2j]
    found = modesolver._scan_minima(term, points, [None, parts, None])
    if found:
        [(value, point)] = found
        assert point == 1j
        return value
    zero = (0j, 1.0, 0j, 0j)
    beside = modesolver._scan_minima(term, points, [parts, zero, None])
    return math.inf if beside else math.nan


def _assert_single_pass_bits(stack, omega, points):
    # the scan's relative values, from the pass its rows run, and the
    # (value, scale) pairs Muller's method iterates on and stops with equal
    # the single-pass form's bits, overflow included
    term, geometry = modesolver._mode_problem(stack, omega)
    scan = [_scan_value(term, modesolver._sheet_free_parts(geometry, z))
            for z in points]
    assert [v.hex() for v in scan] == [
        _single_pass_relative(z, term, geometry).hex() for z in points]
    fn = _solver_fn(stack, omega)
    assert [_outcome(lambda: fn(z)[:2]) for z in points] == [
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


def _index_minima(values, points):
    # the local-minimum rule as an index loop with math.isfinite, the form
    # the scan used before its comprehension over neighbouring triples
    minima = [(values[i], points[i]) for i in range(1, len(points) - 1)
              if values[i] < values[i - 1] and values[i] < values[i + 1]
              and math.isfinite(values[i])]
    minima.sort(key=lambda item: item[0])
    return minima


# a scan value is |D| / scale: non-negative, inf or NaN; the few fixed ones
# give repeats and plateaus
SCAN_VALUES = st.one_of(st.sampled_from([0.0, 1.0, 2.0, math.inf, math.nan]),
                        st.floats(0.0, 1e300))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(values=st.one_of(st.lists(SCAN_VALUES, max_size=6),
                        st.lists(SCAN_VALUES, min_size=7, max_size=80)))
def test_scan_minima_follow_the_index_rule(values):
    # the same (value, point) list in the same order, up to the six the scan
    # keeps; the points are distinct, so the stable sort's order of equal
    # values shows.  Under a finite term the parts (v, 1, 0, 0) read v
    # exactly: the sheet term is 0 and the scale 1
    points = [complex(i, 1e-4 * i) for i in range(len(values))]
    got = modesolver._scan_minima(
        1.0 + 1.0j, points, [(complex(v), 1.0, 0j, 0j) for v in values])
    expected = _index_minima(values, points)[:6]
    assert [(v.hex(), z) for v, z in got] == [(v.hex(), z) for v, z in expected]


def _per_solve_band_grids(n_clad, n_max, one_sheet):
    # the band's scan points and bracket grid as each cold solve built them
    # before a store kept them
    hi = n_max + 1.0
    log = [n_clad * (1.0 + 10.0 ** (k / 3.0 - 6.0)) for k in range(15)]
    lo = n_clad * 1.1
    linear = ([lo + i * ((hi - lo) / 199) for i in range(200)]
              if hi > lo else [])
    reals = [r for r in log if r < hi] + linear
    grid = [r for r in log + [n_clad * 1.1] if r < n_max] if one_sheet else []
    return reals, grid


@pytest.mark.parametrize("name", ["H1G", "H2G", "inverted band", "two sheets"])
def test_band_grids_equal_the_per_solve_expressions(monkeypatch, name):
    make = {"H1G": lambda: preset_stack("H1G", SHEET_02),
            "H2G": lambda: preset_stack("H2G", SHEET_02),
            "inverted band": _inverted_band_stack,
            "two sheets": _two_sheet_stack}[name]
    stack = make()
    key = (stack.max_cladding_index, stack.max_layer_index,
           len(stack.sheets) == 1)
    grids, bracket = [], modesolver._bracket_seeds

    def recording(geometry, grid):
        grids.append(grid)
        return bracket(geometry, grid)
    monkeypatch.setattr(modesolver, "_bracket_seeds", recording)
    _, geometry = modesolver._mode_problem(stack, OMEGA_1THZ)
    points = modesolver._band_scan(geometry, *key)[0]
    reals, (grid,) = [z.real for z in points], grids
    expected = _per_solve_band_grids(*key)
    assert [r.hex() for r in reals] == [r.hex() for r in expected[0]]
    assert [r.hex() for r in grid] == [r.hex() for r in expected[1]]
    assert (len(reals), len(grid)) == {"H1G": (215, 16), "H2G": (215, 16),
                                       "inverted band": (0, 0),
                                       "two sheets": (215, 0)}[name]
    # kept for the next solve of an equal geometry, not built again
    store = []
    modesolver._solve(stack, OMEGA_1THZ, None, store)
    kept = store[1]
    modesolver._solve(make(), OMEGA_1THZ, None, store)
    assert store[0] == geometry and store[1] is kept and len(grids) == 2


def test_stack_sweep_builds_the_band_grids_once(monkeypatch):
    # nine single-sheet rows share one build of the band grids (a
    # single-sheet solve's one _linear call) and hand Muller's method the
    # seeds of nine lone solves, each of which builds its own
    stack = preset_stack("H1G", GrapheneSheet(0.2, 0.6e-12))
    potentials = [0.2 + 0.1 * i for i in range(9)]
    built, seeds = [], []
    linear, polish = modesolver._linear, modesolver._muller_polish

    def counted(*args):
        built.append(args)
        return linear(*args)

    def recording(fn, seed):
        seeds.append(seed)
        return polish(fn, seed)
    monkeypatch.setattr(modesolver, "_linear", counted)
    monkeypatch.setattr(modesolver, "_muller_polish", recording)
    rows = stack_metrics_sweep(stack, 4e12, potentials)
    swept = (len(built), list(seeds))
    built.clear()
    seeds.clear()
    for ef in potentials:
        find_mode(stack.with_chemical_potential(ef), 2.0 * math.pi * 4e12)
    assert all(row.status == "ok" for row in rows)
    assert swept == (1, seeds)
    assert len(built) == len(potentials)


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


# rows of the two-sheet sample whose root needs an early seed that a
# single-sheet stack runs late: (layers, sheets {interface: (E_F eV, tau s)},
# f Hz, x).  The first needs the first rung (late, the solve returns
# 31.14 + 14.38i), the second the first rung or the cladding quasi-static
# seed (both late, 7.912 + 0.892i), the third that seed (late, 14.81 + 1.13i)
TWO_SHEET_EARLY_ROOTS = [
    (((5.788699862627491, None), (4.431257401801149, 1.1388987277922036e-07),
      (9.884553872006821, None)),
     {1: (0.5900569192063043, 1.7916864291561413e-13),
      0: (0.8490904101340723, 6.500377386951464e-13)},
     569433642226.412, 3.169795915036656 + 0.1297810283717307j),
    (((1.1996874719935, None), (1.324803641797386, 4.2999943277938637e-07),
      (4.921512119942427, None)),
     {1: (0.7984504427241085, 3.5104840355521893e-13),
      0: (0.7707492235989417, 6.577594031133236e-13)},
     1669338837977.4932, 2.341185106677933 + 0.05782209412038191j),
    (((3.4773470135085613, None), (9.047508979844123, 8.623407590636083e-06),
      (1.6769932455256558, 2.1924533501596006e-07), (6.670010143721379, None)),
     {0: (0.3577254174405668, 6.844816995000214e-13),
      1: (0.7692382717061671, 4.720216412640165e-13)},
     2934231925180.619, 7.9869374600481216 + 0.7479663843069739j)]


@pytest.mark.parametrize("layers, sheets, f_hz, expected",
                         TWO_SHEET_EARLY_ROOTS,
                         ids=["first-rung", "either", "cladding"])
def test_two_sheet_early_seeds_reach_the_smallest_root(layers, sheets, f_hz,
                                                       expected):
    mode = find_mode(_layered(layers, sheets), 2.0 * math.pi * f_hz)
    x = mode.wavevector / mode.k0
    assert abs(x - expected) <= 1e-9 * abs(expected)
    sigmas = {i: oracles.mp_conductivity(ef, tau, f_hz)
              for i, (ef, tau) in sheets.items()}
    assert oracles.layered_mode_residual(
        layers, sigmas, mode.wavevector, 2.0 * math.pi * f_hz) <= 1e-12


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


@settings(max_examples=30, deadline=None, derandomize=True)
@given(stack=st.one_of(single_sheet_stacks(min_layers=3), two_sheet_stacks()),
       f_hz=st.floats(0.5e12, 6e12))
def test_stack_sweep_rows_equal_lone_find_mode_on_random_stacks(stack, f_hz):
    # on any layered stack the sweep's rows are its lone solves bit for bit:
    # a shared band scan only saves evaluations, and where a second sheet's
    # retuned term sits in a walk nothing is shared
    grid = (0.1, 0.4, 0.7)
    rows, expected = [], []
    sweep_evals = oracles.count_evals(lambda: rows.extend(
        stack_metrics_sweep(stack, f_hz, grid)))
    lone_evals = oracles.count_evals(lambda: expected.extend(
        _find_mode_rows(stack, f_hz, grid)))
    assert [_row_bits(row) for row in rows] == expected
    if len(stack.sheets) > 1:
        assert sweep_evals == lone_evals
    else:
        assert sweep_evals <= lone_evals


@pytest.mark.parametrize("name, expected", [("H1G", 398), ("H2G", 377),
                                           ("two sheets", 4527)],
                         ids=["H1G", "H2G", "two sheets"])
def test_stack_sweep_evaluation_count(name, expected):
    # 9 points, 0.2-1.0 eV, 0.6 ps, 4 THz: single-sheet rows share the
    # 215-point band scan and the 16-point bracket grid, whose sheet-free
    # parts are built and counted once, and run no 48-point scan; two-sheet
    # rows, whose bottom walk holds the retuned lower sheet, build both
    # scans each, as nine lone find_mode calls do
    stack = (_two_sheet_stack() if name == "two sheets"
             else preset_stack(name, GrapheneSheet(0.2, 0.6e-12)))
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


COLD_THZ = (0.5, 1.5, 3.0, 6.0)


def _cold_stacks():
    # (label, stack, whether its off-mode residuals are pinned too) of each
    # stack whose cold roots solver_bits pins at COLD_THZ
    for name in ("G", "H1G", "H2G"):
        for flipped in (False, True):
            for ef in (0.05, 0.1, 0.4, 0.8):
                stack = preset_stack(name, GrapheneSheet(ef, 0.6e-12))
                yield (f"{name}{' reversed' if flipped else ''} {ef} eV",
                       stack.reversed() if flipped else stack, True)
    for name, stack in (("two sheets", _two_sheet_stack()),
                        ("sheets around silicon",
                         _sheets_around_silicon(0.6e-12))):
        for ef in (0.05, 0.1, 0.4, 0.8):
            yield f"{name} {ef} eV", stack.with_chemical_potential(ef), False


def _cold_root_key(label: str, f_thz: float) -> str:
    return f"find_mode {label} {f_thz} THz"


def solver_bits() -> dict:
    """float.hex of cold roots (or the error of a solve that raises) on
    single- and two-sheet stacks, off-mode residuals and scales, a
    dispersion trace and three resonances.
    A kernel rewrite that claims the same IEEE operations must reproduce
    every bit."""
    bits = {}
    for label, stack, off_mode in _cold_stacks():
        for f_thz in COLD_THZ:
            key = _cold_root_key(label, f_thz)
            try:
                mode = find_mode(stack, 2.0 * math.pi * f_thz * 1e12)
                bits[key] = [_hex(mode.wavevector), mode.residual.hex()]
            except ModeSolverError as err:
                bits[key] = f"{type(err).__name__}: {err}"
        if not off_mode:
            continue
        omega = 2.0 * math.pi * 2e12
        for x in (1.2 + 0.05j, 2.5 + 0.3j, 30.0 + 3.0j, 80.0 + 1.0j):
            q = x * omega / C0
            bits[f"residual {label} 2 THz x={x}"] = [
                _hex(dispersion_residual(stack, q, omega)),
                residual_scale(stack, q, omega).hex()]
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


def test_first_bound_root_is_the_reference_cold_root():
    # every cold case of the reference: the bound-root set's first member,
    # scaled by w / c0, is find_mode's root and residual, or the set raises
    # find_mode's error
    reference = json.loads(SOLVER_BITS.read_text())
    for label, stack, _ in _cold_stacks():
        for f_thz in COLD_THZ:
            omega = 2.0 * math.pi * f_thz * 1e12
            try:
                (x, residual), *_ = modesolver._bound_roots(stack, omega,
                                                            None, [])
                got = [_hex(x * (omega / C0)), residual.hex()]
            except ModeSolverError as err:
                got = f"{type(err).__name__}: {err}"
            assert got == reference[_cold_root_key(label, f_thz)]


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_modesolver.py rewrites the reference
    SOLVER_BITS.write_text(json.dumps(solver_bits(), indent=1) + "\n")
