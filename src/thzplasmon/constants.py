"""Physical constants used throughout the toolkit (CODATA 2022).

The literals are the CODATA 2022 values, written to the same doubles that
``scipy.constants`` 1.17 holds, so results do not depend on whether scipy
is installed.  e, h (hence hbar), k and c are exact in the SI; eps0 and
mu0 are measured.  They are constants, not options; the tests check the
literals against ``scipy.constants`` and eta0 eps0 c0 = 1.

``_check_range`` is the one validation rule for every physical input of the
package: a value must be finite, and then lie in its interval.
``_memoized`` keeps a frozen dataclass's derived facts, computed once per
object at first use.
"""
from __future__ import annotations

import math

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


class _memoized:
    """A read-only property computed at first use and stored in the
    instance's ``__dict__``, which later reads find before the class
    attribute; it is not a field, so a dataclass's ==, hash, repr and
    ``dataclasses.replace`` ignore it, and a value that raises is not kept.
    ``functools.cached_property`` does the same under a lock, which on
    Python 3.11 makes a first read several times dearer, and a solve on
    new objects makes several first reads."""

    def __init__(self, func):
        self.func = func
        self.name = func.__name__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


class PhysicalConstants:
    """SI constants bundle: the CODATA 2022 values as class attributes; it
    takes no arguments, and every computation reads its one instance,
    ``CODATA``."""

    __slots__ = ()

    electron_charge = 1.602176634e-19          # C
    reduced_planck = 1.0545718176461565e-34    # J s, h / (2 pi)
    boltzmann = 1.380649e-23                   # J/K
    vacuum_permittivity = _EPSILON_0           # F/m
    light_speed = 299792458.0                  # m/s
    free_space_impedance = math.sqrt(_MU_0 / _EPSILON_0)  # ohm


CODATA = PhysicalConstants()

EPS0 = CODATA.vacuum_permittivity
C0 = CODATA.light_speed
