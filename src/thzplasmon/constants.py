"""Physical constants used throughout the toolkit (CODATA 2022).

The literals are the CODATA 2022 values, written to the same doubles that
``scipy.constants`` 1.17 holds, so results do not depend on whether scipy
is installed.  e, h (hence hbar), k and c are exact in the SI; eps0 and
mu0 are measured.

``_check_range`` is the one validation rule for every physical input of the
package: a value must be finite, and then lie in its interval.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

_EPSILON_0 = 8.8541878188e-12   # F/m
_MU_0 = 1.25663706127e-06       # N/A^2


def _check_range(name: str, value: float, low: float = -math.inf,
                 high: float = math.inf, ends: str = "()") -> None:
    """Raise ValueError unless value is finite and lies between low and high;
    ends gives the interval's brackets, "(" or "[" then ")" or "]".  NaN and
    +-inf are rejected first, so they never reach the comparisons."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite")
    above = value > low if ends[0] == "(" else value >= low
    below = value < high if ends[1] == ")" else value <= high
    if not (above and below):
        if high == math.inf:
            raise ValueError(f"{name} must be {'>' if ends[0] == '(' else '>='} {low:g}")
        raise ValueError(f"{name} must lie in {ends[0]}{low:g}, {high:g}{ends[1]}")


@dataclass(frozen=True)
class PhysicalConstants:
    """SI constants bundle. All values finite and > 0; the free-space
    impedance must be consistent with c0 and eps0 to 1e-12 relative."""

    electron_charge: float = 1.602176634e-19        # C
    reduced_planck: float = 1.0545718176461565e-34  # J s, h / (2 pi)
    boltzmann: float = 1.380649e-23                 # J/K
    vacuum_permittivity: float = _EPSILON_0         # F/m
    light_speed: float = 299792458.0                # m/s
    free_space_impedance: float = math.sqrt(_MU_0 / _EPSILON_0)  # ohm

    def __post_init__(self):
        for name in ("electron_charge", "reduced_planck", "boltzmann",
                     "vacuum_permittivity", "light_speed", "free_space_impedance"):
            _check_range(name, getattr(self, name), 0.0)
        # eta0 eps0 c0 = 1 up to the rounding of the tabulated constants; a
        # product that under- or overflows fails the test, it never divides
        unity = self.free_space_impedance * self.vacuum_permittivity * self.light_speed
        if not abs(unity - 1.0) <= 1e-12:
            raise ValueError("free_space_impedance inconsistent with eps0 and c0")


CODATA = PhysicalConstants()

EPS0 = CODATA.vacuum_permittivity
C0 = CODATA.light_speed
