"""The runtime needs nothing beyond the standard library, and the gains that
rest on it stay in place: no heavy import, the same constants, a small
evaluation budget for the resonance search.  The exported parameters are
pinned, so that a new knob or a dropped parameter shows in review."""
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.constants as sc

import oracles
import thzplasmon
from thzplasmon import conductivity, modesolver
from thzplasmon import (CODATA, DielectricLayer, DipoleGeometry,
                        GrapheneSheet, LayeredStack, NoResonanceInBandError,
                        find_mode, preset_stack, resonance_frequency,
                        stack_metrics_sweep, trace_dispersion)

SRC = str(Path(thzplasmon.__file__).resolve().parent.parent)


def test_import_loads_neither_scipy_nor_numpy():
    code = ("import sys, thzplasmon.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'numpy')))")
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60,
                            check=True)
    assert result.stdout.strip() == "[]"


def test_constants_equal_scipy_bit_for_bit():
    assert CODATA.electron_charge == sc.e
    assert CODATA.reduced_planck == sc.hbar
    assert CODATA.boltzmann == sc.k
    assert CODATA.vacuum_permittivity == sc.epsilon_0
    assert CODATA.light_speed == sc.c
    assert CODATA.free_space_impedance == math.sqrt(sc.mu_0 / sc.epsilon_0)


def test_resonance_evaluation_budget():
    dipole = DipoleGeometry(8e-6, 20e-6, 3e-6, 3.8)
    sheet = GrapheneSheet(0.2, 1e-12)
    evals = oracles.count_evals(lambda: resonance_frequency(dipole, sheet))
    # a band scan refined by Brent's method took 1643
    assert 0 < evals <= 150


@pytest.mark.parametrize("preset, expected", [
    ("G", 7), ("H1G", 240), ("H2G", 240)], ids=["G", "H1G", "H2G"])
def test_cold_solve_evaluation_count(preset, expected):
    # exact and deterministic: every evaluation must pass through
    # modesolver._mode_function
    stack = preset_stack(preset, GrapheneSheet(0.4, 1e-12))
    evals = oracles.count_evals(lambda: find_mode(stack, 2.0 * math.pi * 2e12))
    assert evals == expected
    # the whole bound-root set costs what find_mode's one root does: the
    # solve keeps the set's first member and evaluates nothing more
    assert oracles.count_evals(lambda: modesolver._bound_roots(
        stack, 2.0 * math.pi * 2e12, None, [])) == expected


def test_two_sheet_cold_solve_evaluation_count():
    # vacuum | sheet | Si 5 um | eps 2.25 3 um | sheet | quartz, both sheets
    # at 0.4 eV and 1 ps: the band scan, the 48-point scan above it and the
    # lower sheet's own seed all run
    sheet = GrapheneSheet(0.4, 1e-12)
    stack = LayeredStack(
        (DielectricLayer(1.0), DielectricLayer(11.9, 5e-6),
         DielectricLayer(2.25, 3e-6), DielectricLayer(3.8)),
        {0: sheet, 2: sheet})
    evals = oracles.count_evals(lambda: find_mode(stack, 2.0 * math.pi * 2e12))
    assert evals == 503
    assert oracles.count_evals(lambda: modesolver._bound_roots(
        stack, 2.0 * math.pi * 2e12, None, [])) == 503


def test_guessed_solve_evaluation_count():
    # a continued solve: the root is 1.6146e5 + 9.956e3j rad/m, and the
    # guess is 1 % above it
    stack = preset_stack("G", GrapheneSheet(0.4, 1e-12))
    guess = 1.6307e5 + 1.0056e4j
    evals = oracles.count_evals(
        lambda: find_mode(stack, 2.0 * math.pi * 2e12, guess))
    assert evals == 6


def test_trace_evaluation_count():
    # 50 points, 0.6-5 THz: one cold solve, then each point continued from
    # the last root
    stack = preset_stack("H1G", GrapheneSheet(0.4, 1e-12))
    freqs = [0.6e12 + i * 4.4e12 / 49 for i in range(50)]
    points = []
    evals = oracles.count_evals(
        lambda: points.extend(trace_dispersion(stack, freqs)))
    assert all(point.ok for point in points)
    assert evals == 704


def test_resonance_evaluation_count():
    dipole = DipoleGeometry(8e-6, 20e-6, 3e-6, 3.8)
    sheet = GrapheneSheet(0.2, 1e-12)
    # the cold solve at the quasi-static f0 (7), then Newton on (Im q, f):
    # the moved seed and four steps, the last shorter than TOLERANCE (5);
    # the secant on nested mode solves took 30
    assert oracles.count_evals(lambda: resonance_frequency(dipole, sheet)) == 12


def test_too_short_dipole_evaluation_count():
    too_short = DipoleGeometry(0.05e-6, 0.2e-6, 0.05e-6, 3.8)
    sheet = GrapheneSheet(0.2, 1e-12)

    def call():
        with pytest.raises(NoResonanceInBandError):
            resonance_frequency(too_short, sheet)

    # the cold solve at f0, clamped to the top of the band (5), where
    # Re q alpha L < pi, then the low edge's status, a cold solve that
    # raises (137); no Newton step.  A continued solve at the low edge
    # added 16, and the 48-point band scan took 1 644
    assert oracles.count_evals(call) == 142


def test_long_dipole_evaluation_count():
    long_dipole = DipoleGeometry(0.05e-6, 20e-3, 1e-6, 3.8)
    sheet = GrapheneSheet(0.2, 1e-12)

    def call():
        with pytest.raises(NoResonanceInBandError):
            resonance_frequency(long_dipole, sheet)

    # f0 clamps to the low edge, whose cold solve raises (137), so there is
    # no start; the high edge's status is one more cold solve (5).  The
    # 48-point band scan that once followed took 862, and 999 when it
    # solved the low edge again
    assert oracles.count_evals(call) == 142


@pytest.mark.parametrize("length_m, eps, ef, expected", [
    (200e-6, 3.8, 0.6, 163), (100e-6, 11.9, 1.0, 160)],
    ids=["200um-quartz", "100um-silicon"])
def test_light_line_restart_evaluation_count(length_m, eps, ef, expected):
    # the seed's cold solve, the first start, which gives up, and the
    # start on the light line; the 48-point band scan took 2 142 and 2 407
    dipole = DipoleGeometry(8e-6, length_m, 3e-6, eps)
    sheet = GrapheneSheet(ef, 1e-12)
    assert oracles.count_evals(
        lambda: resonance_frequency(dipole, sheet)) == expected


def _drude_weight_calls(call) -> int:
    """Drude weights computed by call(), counted at the module attribute
    that a sheet's kept weight is computed by."""
    original = conductivity.drude_weight
    calls = 0

    def counted(sheet):
        nonlocal calls
        calls += 1
        return original(sheet)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(conductivity, "drude_weight", counted)
        call()
    return calls


def test_resonance_drude_weight_count():
    # one sheet: its weight serves the quasi-static seed, the cold solve and
    # every Newton step; rebuilding it per mode problem took 8
    dipole = DipoleGeometry(8e-6, 20e-6, 3e-6, 3.8)
    sheet = GrapheneSheet(0.2, 1e-12)
    assert _drude_weight_calls(lambda: resonance_frequency(dipole, sheet)) == 1


def test_trace_drude_weight_count():
    # 50 points of one stack; rebuilding per point took 51
    stack = preset_stack("H1G", GrapheneSheet(0.4, 1e-12))
    freqs = [0.6e12 + i * 4.4e12 / 49 for i in range(50)]
    assert _drude_weight_calls(lambda: trace_dispersion(stack, freqs)) == 1


def test_sweep_drude_weight_count():
    # one retuned sheet per row; its seed and its solve computed one each,
    # 18 in all
    stack = preset_stack("H1G", GrapheneSheet(0.4, 0.6e-12))
    grid = [0.2 + 0.1 * i for i in range(9)]
    assert _drude_weight_calls(
        lambda: stack_metrics_sweep(stack, 4e12, grid)) == 9


# the parameter names of every exported callable; None for an exception
# class that keeps its builtin constructor
EXPORTED_PARAMETERS = {
    "BranchCutProximityError": None,
    "Column": ("name", "unit"),
    "ConfigError": ("message", "line"),
    "ConvergenceError": None,
    "DegenerateConductivityError": None,
    "DielectricLayer": ("relative_permittivity", "thickness_m"),
    "DipoleGeometry": ("width_m", "total_length_m", "gap_m",
                       "substrate_permittivity", "end_correction"),
    "FeasibilityReport": ("scenario_name", "footprint_m2", "fits", "margin",
                          "notes"),
    "GrapheneSheet": ("chemical_potential_ev", "relaxation_time_s",
                      "temperature_k"),
    "LayeredStack": ("layers", "sheets"),
    "ModeSolution": ("angular_frequency", "wavevector", "residual"),
    "ModeSolverError": None,
    "NoResonanceInBandError": None,
    "NonBoundModeError": None,
    "PhysicalConstants": (),
    "ResonancePrediction": ("resonance_frequency_hz", "mode",
                            "metal_reference_hz", "miniaturization_factor",
                            "efficiency_proxy"),
    "ResultTable": ("columns", "rows", "statuses"),
    "ScenarioRequirements": ("name", "node_size_m2", "tx_range_m",
                             "data_rate_bps"),
    "StackMetricsRow": ("chemical_potential_ev", "effective_index",
                        "normalized_propagation_length", "resonant_length_m",
                        "status"),
    "SweepSpec": ("target", "variable", "grid", "fixed", "output_path",
                  "output_format", "plot_x", "plot_y"),
    "TracePoint": ("frequency_hz", "solution", "status"),
    "UnknownColumnError": None,
    "builtin_scenarios": (),
    "chemical_potential_from_bias": ("voltage_delta_v",
                                     "sensitivity_ev_per_sqrt_v"),
    "dispersion_residual": ("stack", "wavevector", "angular_frequency"),
    "drude_weight": ("sheet",),
    "efficiency_proxy": ("mode",),
    "emit_csv": ("table", "path"),
    "emit_plotdata": ("table", "x", "y_columns", "path"),
    "find_mode": ("stack", "angular_frequency", "initial_guess"),
    "fits_footprint": ("resonant_length_m", "width_m", "scenario",
                       "budget_fraction"),
    "free_standing_sheet": ("sheet",),
    "graphene_on_substrate": ("sheet", "substrate_permittivity",
                              "superstrate_permittivity"),
    "intraband_conductivity": ("sheet", "angular_frequency"),
    "metal_dipole_resonance": ("total_length_m", "substrate_permittivity"),
    "miniaturization_factor": ("prediction",),
    "parse_config": ("text",),
    "parse_result_csv": ("text",),
    "preset_stack": ("name", "sheet"),
    "quasi_static_wavevector": ("stack", "angular_frequency"),
    "residual_scale": ("stack", "wavevector", "angular_frequency"),
    "resonance_frequency": ("dipole", "sheet"),
    "resonant_length": ("stack", "frequency_hz"),
    "run_sweep": ("spec",),
    "scenario_by_name": ("name",),
    "scenarios_csv": (),
    "sdm_cell_size": ("frequency_hz",),
    "stack_metrics_sweep": ("stack", "frequency_hz", "chemical_potentials_ev"),
    "surface_impedance": ("sheet", "angular_frequency"),
    "trace_dispersion": ("stack", "frequencies_hz"),
    "write_scenarios_csv": ("path",),
}


def _parameters(obj):
    try:
        return tuple(inspect.signature(obj).parameters)
    except ValueError:  # no signature: a builtin constructor
        return None


def test_exported_parameters_are_pinned():
    exported = {name: getattr(thzplasmon, name) for name in thzplasmon.__all__}
    assert {name: _parameters(obj) for name, obj in exported.items()
            if callable(obj)} == EXPORTED_PARAMETERS
