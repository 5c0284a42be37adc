"""Plasmonic dipole resonance prediction and figure-of-merit trends.

A graphene dipole resonates where half a guided plasmon wavelength fits the
radiating length: Re q(f) * (alpha * L) = pi, with a configurable end
correction alpha (default 1).  L is the total length, feed gap included;
the gap and the width enter only the geometry's validation.  The efficiency
proxy below orders designs by normalized propagation length only; it is not
an absolute radiation efficiency.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .conductivity import GrapheneSheet
from .constants import C0, _check_range
from .modesolver import (ModeSolution, ModeSolverError, _newton, find_mode,
                         quasi_static_wavevector)
from .stacks import LayeredStack, graphene_on_substrate

BAND_HZ = (0.1e12, 10e12)  # the resonance search band, Hz


class NoResonanceInBandError(RuntimeError):
    """The half-wavelength condition has no solution in the search band, or
    the resonance search found none: its error names the mode status at
    both band edges."""


@dataclass(frozen=True)
class DipoleGeometry:
    """Planar dipole: width, total length (both arms plus gap), feed gap,
    substrate permittivity and end-correction factor."""

    width_m: float
    total_length_m: float
    gap_m: float
    substrate_permittivity: float
    end_correction: float = 1.0

    def __post_init__(self):
        _check_range("width_m", self.width_m, 0.0)
        _check_range("total_length_m", self.total_length_m)
        _check_range("gap_m", self.gap_m)
        if not 0.0 < self.gap_m < self.total_length_m:
            raise ValueError("gap_m must satisfy 0 < gap < total_length")
        _check_range("substrate_permittivity", self.substrate_permittivity, 1.0,
                     ends="[)")
        _check_range("end_correction", self.end_correction, 0.5, 1.5, "[]")


@dataclass(frozen=True)
class ResonancePrediction:
    resonance_frequency_hz: float
    mode: ModeSolution
    metal_reference_hz: float
    miniaturization_factor: float
    efficiency_proxy: float

    def __post_init__(self):
        _check_range("resonance_frequency_hz", self.resonance_frequency_hz, 0.0)
        _check_range("miniaturization_factor", self.miniaturization_factor, 0.0)


def resonant_length(stack: LayeredStack, frequency_hz: float) -> float:
    """Half the guided wavelength of the fundamental mode: pi / Re q."""
    mode = find_mode(stack, 2.0 * math.pi * frequency_hz)
    return mode.guided_wavelength_m / 2.0


def metal_dipole_resonance(total_length_m: float,
                           substrate_permittivity: float) -> float:
    """Half-wave resonance (Hz) of a perfect-conductor dipole of the same
    length, with the half-space average eps_eff = (eps_r + 1) / 2.  A
    frequency that overflows, or underflows to 0, is rejected."""
    _check_range("total_length_m", total_length_m, 0.0)
    _check_range("substrate_permittivity", substrate_permittivity, 1.0,
                 ends="[)")
    eps_eff = 0.5 * (substrate_permittivity + 1.0)
    f_metal = C0 / (2.0 * total_length_m * math.sqrt(eps_eff))
    _check_range("metal dipole resonance", f_metal, 0.0)
    return f_metal


def efficiency_proxy(mode: ModeSolution) -> float:
    """Ordering-only surrogate in (0, 1): FOM / (FOM + 1) with
    FOM = propagation length / guided wavelength.  Strictly increasing in
    the normalized propagation length; never an absolute efficiency."""
    fom = mode.normalized_propagation_length
    return 1.0 - 1.0 / (1.0 + fom)


def miniaturization_factor(prediction: ResonancePrediction) -> float:
    """How far below the equal-length metal dipole this design resonates."""
    return prediction.metal_reference_hz / prediction.resonance_frequency_hz


def _no_resonance(solve) -> NoResonanceInBandError:
    """The error naming both band edges' statuses: "ok" where the search's
    cold solve there found a bound mode, else the text of its error."""
    lo, hi = BAND_HZ
    low, high = ("ok" if isinstance(mode, ModeSolution) else mode
                 for mode in map(solve, BAND_HZ))
    return NoResonanceInBandError(
        f"no half-wavelength resonance in [{lo:.3e}, {hi:.3e}] Hz "
        f"(low edge {lo:.3e} Hz: {low}; high edge {hi:.3e} Hz: {high})")


def resonance_frequency(dipole: DipoleGeometry,
                        sheet: GrapheneSheet) -> ResonancePrediction:
    """Smallest frequency in ``BAND_HZ`` (0.1-10 THz) where the dipole is
    half a guided wavelength long, for the sheet on a semi-infinite
    substrate under vacuum.

    At resonance Re q = pi / (alpha L) is known, so the complex mode
    condition F(pi / (alpha L) + i beta, w) = 0 is two real equations in
    two real unknowns, beta = Im q and f, solved by a damped Newton
    iteration with closed-form derivatives.  It starts from one cold mode
    solve at the quasi-static root: for the intraband sheet,
    Re q_qs = (eps1 + eps2) eps0 w^2 / A exactly, so
    f0 = f_p * sqrt(pi / (Re q_qs(f_p) * alpha * L)) for any probe f_p,
    clamped to the band; the root found there is moved to the target Re q
    along q ~ w^2.  A 20 um dipole on quartz at 0.2 eV and 1 ps takes one
    mode solve and 12 mode-function evaluations.

    g(f) = Re q(f) * alpha * L - pi increases with frequency, so no
    resonance lies in the band when g has the wrong sign at a clamped f0,
    or when Newton's root is outside the band.  That root counts only by
    the mode solver's rule for every root: a residual below its gate and a
    bound mode.  Where the first start finds none, Newton starts once more
    from the same root moved along the light line, q ~ w, which a weakly
    confined mode follows (f0 times the ratio of the Re q); dipoles of
    about 50 um and longer need it, because there the quasi-static move
    lands below the cladding light line.  When both starts find none,
    Re q_qs underflows to 0 or the cold solve raises, the search has no
    resonance either.  Every
    such error names both band edges' statuses; the seed and the edges
    read one record of cold solves, so each frequency is solved at most
    once per search.  The returned mode is the last point Newton
    evaluated, with that evaluation's residual.
    """
    lo, hi = BAND_HZ
    stack = graphene_on_substrate(sheet, dipole.substrate_permittivity)
    length = dipole.end_correction * dipole.total_length_m

    record = {}

    def solve(f_hz):
        """The cold solve at f_hz, made once: its mode, or its error's text."""
        if f_hz not in record:
            try:
                record[f_hz] = find_mode(stack, 2.0 * math.pi * f_hz)
            except ModeSolverError as err:
                record[f_hz] = str(err)
        return record[f_hz]

    q_lo = quasi_static_wavevector(stack, 2.0 * math.pi * lo).real
    # Re q_qs is 0 where Im sigma underflows: there is no seed
    if not q_lo > 0.0:
        raise _no_resonance(solve)
    f_seed = min(max(lo * math.sqrt(math.pi / q_lo / length), lo), hi)
    mode = solve(f_seed)
    if not isinstance(mode, ModeSolution):
        raise _no_resonance(solve)
    g = mode.wavevector.real * length - math.pi
    # g increases with f: at a clamped seed with the wrong sign the
    # resonance lies beyond that band edge
    if (f_seed == hi and g < 0.0) or (f_seed == lo and g > 0.0):
        raise _no_resonance(solve)
    q_re = math.pi / length
    shift = q_re / mode.wavevector.real
    beta = mode.wavevector.imag * shift
    found = (_newton(stack, q_re, f_seed * math.sqrt(shift), beta)
             or _newton(stack, q_re, f_seed * shift, beta))
    if found is None or not lo <= found[0] <= hi:
        raise _no_resonance(solve)
    f_res, mode = found
    f_metal = metal_dipole_resonance(dipole.total_length_m,
                                     dipole.substrate_permittivity)
    return ResonancePrediction(
        resonance_frequency_hz=f_res,
        mode=mode,
        metal_reference_hz=f_metal,
        miniaturization_factor=f_metal / f_res,
        efficiency_proxy=efficiency_proxy(mode),
    )
