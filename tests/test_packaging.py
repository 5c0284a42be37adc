"""The runtime needs nothing beyond the standard library, and the gains that
rest on it stay in place: no heavy import, the same constants, a small
evaluation budget for the resonance search."""
import math
import os
import subprocess
import sys
from pathlib import Path

import scipy.constants as sc

import thzplasmon
from thzplasmon import CODATA, DipoleGeometry, GrapheneSheet, resonance_frequency
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


def test_resonance_evaluation_budget():
    dipole = DipoleGeometry(8e-6, 20e-6, 3e-6, 3.8)
    sheet = GrapheneSheet(0.2, 1e-12)
    original = modesolver._mode_function
    evals = 0

    def counted(*args, **kwargs):
        nonlocal evals
        evals += 1
        return original(*args, **kwargs)

    modesolver._mode_function = counted
    try:
        resonance_frequency(dipole, sheet)
    finally:
        modesolver._mode_function = original
    # a band scan refined by Brent's method took 1643
    assert 0 < evals <= 150
