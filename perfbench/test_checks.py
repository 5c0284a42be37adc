"""The benchmark's checkers must be able to fail.

    python3 -m pytest perfbench -q

Not part of the package's test suite (pyproject's testpaths is tests/).
"""
import math
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import thzplasmon  # noqa: E402
from thzplasmon import GrapheneSheet, find_mode, preset_stack  # noqa: E402
from workloads import Sweep  # noqa: E402

ORACLES = checks.load_oracles()
PERTURBATION = 1e-6


def _g_case(ef=0.2, tau_s=1e-12, f_hz=1e12):
    omega = 2.0 * math.pi * f_hz
    sigma = checks.sheet_conductivity(ef, tau_s, omega)
    layers, interface = checks.PRESET_GEOMETRY["G"]
    q = ORACLES.quartic_bound_mode(layers[0][0], layers[1][0], sigma, omega)
    return layers, {interface: sigma}, q, omega


def test_residual_passes_at_quartic_root_and_fails_off_it():
    layers, sheets, q, omega = _g_case()
    assert checks.tm_residual(layers, sheets, q, omega) < checks.TM_RESIDUAL_GATE
    for step in (PERTURBATION, -PERTURBATION, 1j * PERTURBATION):
        moved = q * (1.0 + step)
        assert checks.tm_residual(layers, sheets, moved, omega) \
            > checks.TM_RESIDUAL_GATE


@pytest.mark.parametrize("preset", ["H1G", "H2G"])
@pytest.mark.parametrize("f_thz", [1.0, 2.5, 4.0, 8.0])
def test_residual_separates_layered_roots_from_moved_ones(preset, f_thz):
    ef, tau_s = 0.4, 0.6e-12
    omega = 2.0 * math.pi * f_thz * 1e12
    q = find_mode(preset_stack(preset, GrapheneSheet(ef, tau_s)), omega).wavevector
    layers, interface = checks.PRESET_GEOMETRY[preset]
    sheets = {interface: checks.sheet_conductivity(ef, tau_s, omega)}
    assert checks.tm_residual(layers, sheets, q, omega) < checks.TM_RESIDUAL_GATE
    moved = q * (1.0 + PERTURBATION)
    assert checks.tm_residual(layers, sheets, moved, omega) > checks.TM_RESIDUAL_GATE


def test_check_mode_flags_unbound_and_moved_roots():
    layers, sheets, q, omega = _g_case()
    f_thz = omega / (2.0 * math.pi) / 1e12
    assert checks.check_mode(ORACLES, layers, 0, 0.2, 1e-12, f_thz, q) == []
    assert checks.check_mode(ORACLES, layers, 0, 0.2, 1e-12, f_thz,
                             q * (1.0 + PERTURBATION))
    assert checks.check_mode(ORACLES, layers, 0, 0.2, 1e-12, f_thz, q.conjugate())


def _antenna_sweep():
    return Sweep("antenna-test", "antenna", "length_um", (10.0, 20.0),
                 {"width_um": 8.0, "gap_um": 3.0, "substrate_permittivity": 3.8,
                  "chemical_potential_ev": 0.2, "relaxation_time_ps": 1.0})


def _antenna_csv(sweep, edit=None):
    from thzplasmon.sweep import emit_csv, parse_config, run_sweep
    text = emit_csv(run_sweep(parse_config(sweep.config_text("unused.csv"))))
    if edit is not None:
        lines = text.split("\n")
        lines[1] = edit(lines[1])
        text = "\n".join(lines)
    return text


def test_antenna_checks_pass_on_real_rows_and_fail_on_edited_ones():
    from thzplasmon.sweep import parse_result_csv
    sweep = _antenna_sweep()
    assert checks.check_sweep(ORACLES, parse_result_csv, sweep,
                              _antenna_csv(sweep), 0) == []

    def bump_miniaturization(line):
        cells = line.split(",")
        cells[3] = repr(float(cells[3]) * (1.0 + 1e-9))
        return ",".join(cells)

    def swap_f_res(line):
        cells = line.split(",")
        cells[1] = repr(float(cells[1]) * (1.0 + 1e-5))
        return ",".join(cells)

    for edit in (bump_miniaturization, swap_f_res):
        assert checks.check_sweep(ORACLES, parse_result_csv, sweep,
                                  _antenna_csv(sweep, edit), 0)


def test_table_check_needs_one_row_per_grid_point_and_matching_exit_code():
    from thzplasmon.sweep import parse_result_csv
    sweep = _antenna_sweep()
    text = _antenna_csv(sweep)
    dropped = "\n".join(text.split("\n")[:-2]) + "\n"
    assert checks.check_sweep(ORACLES, parse_result_csv, sweep, dropped, 0)
    assert checks.check_sweep(ORACLES, parse_result_csv, sweep, text, 2)


def test_counter_guard_trips_when_mode_function_is_absent():
    fake = types.SimpleNamespace(
        modesolver=types.SimpleNamespace(find_mode=lambda *a, **k: None))
    with pytest.raises(tracing.TraceError, match="_mode_function"):
        tracing.Tracer(fake).install()


def test_counter_guard_trips_when_count_is_zero_while_rows_succeed():
    tracer = tracing.Tracer(thzplasmon)
    with pytest.raises(tracing.TraceError, match="read 0"):
        tracing.per_layer_metrics(tracer, {}, rows=9, antenna_rows=0, ok_rows=9)


def _traced_counts(out):
    from thzplasmon import cli
    tracer = tracing.Tracer(thzplasmon).install()
    try:
        cli.main(["stack", "--preset", "H1G", "--frequency-thz", "4",
                  "--relaxation-time-ps", "0.6", "--grid", "0.2:1.0:3",
                  "--quiet", "--out", str(out)])
    finally:
        tracer.uninstall()
    return tracer.evals, tracer.conductivity_calls, [s[1] for s in tracer.spans]


def test_traced_counts_repeat_exactly_and_hooks_come_off(tmp_path):
    original = thzplasmon.modesolver._mode_function
    first = _traced_counts(tmp_path / "a.csv")
    assert first[0] > 0
    assert _traced_counts(tmp_path / "b.csv") == first
    assert thzplasmon.modesolver._mode_function is original
