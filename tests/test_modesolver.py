import cmath
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from thzplasmon import modesolver
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


def test_quasi_static_seed_rejects_degenerate_sheet():
    # 1/tau overflows at tau = 1e-312 s, so sigma = 0 exactly
    stack = graphene_on_substrate(GrapheneSheet(0.2, 1e-312), 3.8)
    with pytest.raises(DegenerateConductivityError):
        quasi_static_wavevector(stack, OMEGA_1THZ)
    points = trace_dispersion(stack, [1e12])
    assert points[0].status.startswith("failed:|sigma| = 0.000e+00 S")


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


# the first E_F is invalid, so the sweep builds its shared scans on row 2;
# H1G at 0.05 eV, 1.5 THz is a cold miss that raises ConvergenceError
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
    # the same seeds, polished alike: the valid rows save exactly their 200 +
    # 48 scan points, less the walk pairs the sweep builds (the 48-point
    # scan again where its top moves, once at 4 and 7 THz)
    built = 248 if f_thz == 1.5 else 296
    assert lone_evals - sweep_evals == 248 * (len(SHARED_SCAN_GRID) - 1) - built
    assert rows[0].status == "failed:chemical_potential_ev must be >= 0"
    assert all(row.status == "ok" for row in rows[2:])
    if (preset, f_thz) == ("H1G", 1.5):
        assert rows[1].status.startswith(
            "failed:no root of the mode condition converged")


@pytest.mark.parametrize("preset, ef, f_thz", [
    ("H1G", 0.05, 1.5), ("H1G", 0.4, 4.0), ("H2G", 0.2, 7.0), ("H2G", 1.0, 0.5)])
def test_shared_scan_values_equal_direct_evaluations(preset, ef, f_thz):
    # the sheet term applied to the sheet-free parts gives every scan value
    # and every value the root finder iterates on bit for bit, not merely
    # the same seeds
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
    # a value's bits, or the arithmetic error that stopped it
    try:
        return _hex(call())
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
    # the scan's relative values and the values Muller's method iterates on
    # equal the single-pass form's bits, overflow included
    term, geometry = modesolver._mode_problem(stack, omega)
    scan = [modesolver._relative_value(
        term, modesolver._sheet_free_parts(geometry, z)) for z in points]
    assert [v.hex() for v in scan] == [
        _single_pass_relative(z, term, geometry).hex() for z in points]
    fn = _solver_fn(stack, omega)
    assert [_outcome(lambda: fn(z)) for z in points] == [
        _outcome(lambda: _single_pass(z, term, geometry)[0]) for z in points]


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
    # near |x| = 1e154 the sheet term's product is finite but its modulus
    # overflows: the scan reads inf there and Muller's function raises, as
    # the single-pass form does
    stack = preset_stack("G", GrapheneSheet(1.0, 1e-12))
    points = [cmath.rect(1e154 * (1.0 + 0.002 * k), angle)
              for k in range(20) for angle in (0.0, 0.3, 0.785, 1.2)]
    term, geometry = modesolver._mode_problem(stack, 2.0 * math.pi * 4e12)
    raised = [_outcome(lambda: _single_pass(z, term, geometry)[0])
              for z in points].count("OverflowError")
    assert 0 < raised < len(points)
    _assert_single_pass_bits(stack, 2.0 * math.pi * 4e12, points)


def _two_sheet_stack():
    sheet = GrapheneSheet(0.3, 0.6e-12)
    return LayeredStack(
        (DielectricLayer(1.0), DielectricLayer(11.9, 5e-6),
         DielectricLayer(2.25, 3e-6), DielectricLayer(3.8)),
        {0: sheet, 2: sheet})


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


@pytest.mark.parametrize("preset, expected", [("H1G", 4057), ("H2G", 4607)])
def test_stack_sweep_evaluation_count(preset, expected):
    # 9 points, 0.2-1.0 eV, 0.6 ps, 4 THz: the rows share the 200-point band
    # scan and the 48-point scan, whose sheet-free parts are built and
    # counted once (lone find_mode calls per row: 6 041 and 6 591)
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
], ids=["find_mode H1G", "find_mode H2G", "sweep H1G", "sweep two sheets"])
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


# --- bit identity ------------------------------------------------------------

SOLVER_BITS = Path(__file__).parent / "data" / "solver_bits.json"


def _hex(z: complex) -> str:
    return f"{z.real.hex()} {z.imag.hex()}"


def solver_bits() -> dict:
    """float.hex of cold roots (or the error of a solve that raises),
    off-mode residuals and scales, a dispersion trace and three resonances.
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
                    key = f"find_mode {label} {f_thz} THz"
                    try:
                        mode = find_mode(stack, 2.0 * math.pi * f_thz * 1e12)
                        bits[key] = [_hex(mode.wavevector), mode.residual.hex()]
                    except ModeSolverError as err:
                        bits[key] = f"{type(err).__name__}: {err}"
                omega = 2.0 * math.pi * 2e12
                for x in (1.2 + 0.05j, 2.5 + 0.3j, 30.0 + 3.0j, 80.0 + 1.0j):
                    q = x * omega / C0
                    key = f"residual {label} 2 THz x={x}"
                    bits[key] = [_hex(dispersion_residual(stack, q, omega)),
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


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_modesolver.py rewrites the reference
    SOLVER_BITS.write_text(json.dumps(solver_bits(), indent=1) + "\n")
