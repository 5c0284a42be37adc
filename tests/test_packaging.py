"""The runtime needs nothing beyond the standard library, and the gains that
rest on it stay in place: no heavy import, the same constants, a small
evaluation budget for the resonance search."""
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.constants as sc

import thzplasmon
from thzplasmon import (CODATA, DipoleGeometry, GrapheneSheet,
                        NoResonanceInBandError, find_mode, preset_stack,
                        resonance_frequency)
from thzplasmon import modesolver

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


def _count_evals(call) -> int:
    """Mode-function evaluations made by call(), counted at the module
    attribute that perfbench/tracing.py patches."""
    original = modesolver._mode_function
    evals = 0

    def counted(*args, **kwargs):
        nonlocal evals
        evals += 1
        return original(*args, **kwargs)

    modesolver._mode_function = counted
    try:
        call()
    finally:
        modesolver._mode_function = original
    return evals


def test_resonance_evaluation_budget():
    dipole = DipoleGeometry(8e-6, 20e-6, 3e-6, 3.8)
    sheet = GrapheneSheet(0.2, 1e-12)
    evals = _count_evals(lambda: resonance_frequency(dipole, sheet))
    # a band scan refined by Brent's method took 1643
    assert 0 < evals <= 150


@pytest.mark.parametrize("preset, expected", [
    ("G", 10), ("H1G", 1203), ("H2G", 1293)])
def test_cold_solve_evaluation_count(preset, expected):
    # exact and deterministic: every evaluation must pass through
    # modesolver._mode_function (before the Newton polish reused the last
    # Muller value: 11, 1205, 1294)
    stack = preset_stack(preset, GrapheneSheet(0.4, 1e-12))
    assert _count_evals(lambda: find_mode(stack, 2.0 * math.pi * 2e12)) == expected


def test_resonance_evaluation_count():
    dipole = DipoleGeometry(8e-6, 20e-6, 3e-6, 3.8)
    sheet = GrapheneSheet(0.2, 1e-12)
    # 50 before the Newton polish reused the last Muller value
    assert _count_evals(lambda: resonance_frequency(dipole, sheet)) == 45


def test_too_short_dipole_evaluation_count():
    too_short = DipoleGeometry(0.05e-6, 0.2e-6, 0.05e-6, 3.8)
    sheet = GrapheneSheet(0.2, 1e-12)

    def call():
        with pytest.raises(NoResonanceInBandError):
            resonance_frequency(too_short, sheet)

    # the cold solve at the top of the band (8), then the low edge's status:
    # a continued solve (19) and a cold one (167) that both raise; the
    # 48-point band scan took 1 644
    assert _count_evals(call) == 194
