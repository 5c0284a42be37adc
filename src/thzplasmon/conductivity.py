"""Intraband (Drude-like) sheet conductivity of graphene and derived quantities.

The model is the single-band low-frequency limit used for terahertz work:

    sigma(w) = A * i / (w + i/tau),
    A = (2 e^2 / pi hbar) * (kB T / hbar) * ln[2 cosh(E_F / 2 kB T)]

with the chemical potential E_F taken in eV at the interface and converted
to joules internally.  With this sign convention both Re(sigma) and
Im(sigma) are positive for w > 0 (inductive sheet, supports TM plasmons).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import CODATA, _check_range, _memoized

DEFAULT_TEMPERATURE_K = 300.0

# |sigma| below this is treated as a degenerate sheet when inverting.
_MIN_CONDUCTIVITY_S = 1e-30


class DegenerateConductivityError(ValueError):
    """Sheet conductivity magnitude is too small to invert."""


@dataclass(frozen=True)
class GrapheneSheet:
    """A graphene monolayer: chemical potential (eV), carrier relaxation
    time (s) and temperature (K)."""

    chemical_potential_ev: float
    relaxation_time_s: float
    temperature_k: float = DEFAULT_TEMPERATURE_K

    def __post_init__(self):
        _check_range("temperature_k", self.temperature_k, 0.0)
        _check_range("chemical_potential_ev", self.chemical_potential_ev, 0.0,
                     ends="[)")
        _check_range("relaxation_time_s", self.relaxation_time_s, 0.0)

    def with_chemical_potential(self, chemical_potential_ev: float) -> "GrapheneSheet":
        return GrapheneSheet(chemical_potential_ev, self.relaxation_time_s,
                             self.temperature_k)

    @_memoized
    def _drude_weight(self) -> float:
        """drude_weight(self), kept from its first use; a weight that
        overflows raises at every use."""
        return drude_weight(self)


def drude_weight(sheet: GrapheneSheet) -> float:
    """Drude weight A (S rad/s) of the intraband conductivity.

    The thermal factor is evaluated as ln(2 cosh x) = x + log1p(exp(-2x)),
    which is exact at x = 0 and never overflows for large chemical potential.
    A temperature so small that kB T underflows to 0 J is rejected, and so
    is a sheet whose weight overflows.
    """
    e = CODATA.electron_charge
    hbar = CODATA.reduced_planck
    kbt = CODATA.boltzmann * sheet.temperature_k
    _check_range("boltzmann * temperature_k", kbt, 0.0)
    x = sheet.chemical_potential_ev * e / (2.0 * kbt)
    ln_term = x + math.log1p(math.exp(-2.0 * x))
    weight = (2.0 * e * e / (math.pi * hbar)) * (kbt / hbar) * ln_term
    _check_range("drude_weight", weight, 0.0)
    return weight


def intraband_conductivity(sheet: GrapheneSheet,
                           angular_frequency: float) -> complex:
    """Sheet conductivity sigma(w) in siemens (per square).

    At w = 0 this reduces to the purely real DC value A * tau.  A finite
    weight can still overflow sigma, or its modulus, when w and 1/tau are
    both tiny; such a sheet is rejected.
    """
    _check_range("angular_frequency", angular_frequency, 0.0, ends="[)")
    sigma = (sheet._drude_weight * 1j
             / (angular_frequency + 1j / sheet.relaxation_time_s))
    # hypot is inf where a part is, and never raises where abs(sigma) would
    _check_range("|sigma|", math.hypot(sigma.real, sigma.imag))
    return sigma


def _check_invertible(sigma: complex) -> None:
    """Raise DegenerateConductivityError if 1/sigma is not meaningful."""
    if abs(sigma) < _MIN_CONDUCTIVITY_S:
        raise DegenerateConductivityError(
            f"|sigma| = {abs(sigma):.3e} S is below {_MIN_CONDUCTIVITY_S:.0e} S")


def surface_impedance(sheet: GrapheneSheet, angular_frequency: float) -> complex:
    """Sheet impedance Z(w) in ohm per square, the reciprocal of the sheet
    conductivity: Z(w) * sigma(w) = 1."""
    sigma = intraband_conductivity(sheet, angular_frequency)
    _check_invertible(sigma)
    return 1.0 / sigma


def chemical_potential_from_bias(voltage_delta_v: float,
                                 sensitivity_ev_per_sqrt_v: float) -> float:
    """Chemical-potential shift (eV) produced by an electrostatic bias change.

    The shift grows with the square root of the absolute voltage change;
    the proportionality constant is device-specific and has no physical
    default, so it is a required input.  A shift that overflows is rejected.
    """
    _check_range("sensitivity_ev_per_sqrt_v", sensitivity_ev_per_sqrt_v, 0.0)
    _check_range("voltage_delta_v", voltage_delta_v)
    shift = sensitivity_ev_per_sqrt_v * math.sqrt(abs(voltage_delta_v))
    _check_range("chemical potential shift", shift)
    return shift
