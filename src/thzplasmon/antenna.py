"""Plasmonic dipole resonance prediction and figure-of-merit trends.

A graphene dipole resonates where half a guided plasmon wavelength fits the
radiating length: Re q(f) * (alpha * L) = pi, with a configurable end
correction alpha (default 1).  The gap is treated as feed region and is not
part of the resonant length.  The efficiency proxy below orders designs by
normalized propagation length only; it is not an absolute radiation
efficiency.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .conductivity import GrapheneSheet
from .constants import C0, _check_range
from .modesolver import (ModeSolution, ModeSolverError, find_mode,
                         quasi_static_wavevector)
from .stacks import LayeredStack, graphene_on_substrate

BAND_HZ = (0.1e12, 10e12)  # the resonance search band, Hz
_RESONANCE_GATE = 1e-9  # |Re q * alpha L - pi| at the returned frequency
_QS_SLOPE = 2.0         # d log Re q / d log f of the quasi-static plasmon
_SECANT_STEPS = 40      # refinement steps before the band scan takes over
_SCAN_POINTS = 48       # log-spaced points of that band scan
_STEP_ULPS = 4.0        # a step this many ulp of f or shorter ends the search


class NoResonanceInBandError(RuntimeError):
    """The half-wavelength condition has no solution in the search band."""


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


def _log_offset(g: float) -> float:
    """log(g + pi); -inf where g + pi <= 0, which happens when
    Re q * alpha * L is below half an ulp of pi."""
    shifted = g + math.pi
    return math.log(shifted) if shifted > 0.0 else -math.inf


def _secant_root(gap, lo: float, hi: float, points, f_a: float | None = None,
                 f_b: float | None = None) -> tuple[float, float, bool]:
    """Root of the increasing g(f) by a secant on log(g + pi) against log f.

    ``points`` holds one or two evaluated (f, g) pairs, the latest last; from
    a single point the first step takes the quasi-static slope 2.  The
    bracket f_a < root <= f_b tightens with every evaluation, and a step that
    would leave it takes the bracket's geometric midpoint instead, so g is
    never evaluated outside [lo, hi].  Returns the last evaluated (f, g) and
    whether the search converged: it has not when a step would leave the
    band while one side of the bracket is still unknown, or when the steps
    run out.
    """
    span = math.log(hi / lo)
    f, g = points[-1]
    slope = _QS_SLOPE
    if len(points) > 1:
        f_prev, g_prev = points[-2]
        slope = (_log_offset(g) - _log_offset(g_prev)) / math.log(f / f_prev)
    for _ in range(_SECANT_STEPS):
        if g < 0.0:
            f_a = f if f_a is None else max(f_a, f)
        else:
            f_b = f if f_b is None else min(f_b, f)
        if g == 0.0:
            return f, g, True
        if slope > 0.0:
            step = (math.log(math.pi) - _log_offset(g)) / slope
            # a step longer than the band leaves it anyway; the cap keeps
            # exp finite
            f_new = f * math.exp(max(-span, min(span, step)))
        else:
            f_new = math.nan  # no secant: bisect, or stop while half-open
        above = f_new > f_a if f_a is not None else f_new >= lo
        below = f_new < f_b if f_b is not None else f_new <= hi
        if not (above and below):
            if f_a is None or f_b is None:
                return f, g, False
            f_new = math.sqrt(f_a * f_b)
        if abs(f_new - f) <= _STEP_ULPS * math.ulp(f):
            return f, g, True
        g_new = gap(f_new)
        slope = (_log_offset(g_new) - _log_offset(g)) / math.log(f_new / f)
        f, g = f_new, g_new
    return f, g, False


def _edge_status(gap, f_hz: float) -> tuple[float | None, str]:
    """g at one frequency and "ok", or None and why no bound mode exists."""
    try:
        return gap(f_hz), "ok"
    except ModeSolverError as err:
        return None, str(err)


def _no_resonance(lo: float, hi: float, low_status: str,
                  high_status: str) -> NoResonanceInBandError:
    return NoResonanceInBandError(
        f"no half-wavelength resonance in [{lo:.3e}, {hi:.3e}] Hz "
        f"(low edge {lo:.3e} Hz: {low_status}; "
        f"high edge {hi:.3e} Hz: {high_status})")


def _scan_bracket(gap, lo: float, hi: float):
    """First sign change g1 < 0 <= g2 of a log-spaced band scan, as two
    (f, g) pairs.  Band edges where no bound mode exists are reported in the
    error when no bracket is found."""
    ratio = (hi / lo) ** (1.0 / (_SCAN_POINTS - 1))
    grid = [lo * ratio**i for i in range(_SCAN_POINTS)]
    grid[-1] = hi
    values, statuses = zip(*(_edge_status(gap, f) for f in grid))
    for i in range(_SCAN_POINTS - 1):
        g1, g2 = values[i], values[i + 1]
        if g1 is not None and g2 is not None and g1 < 0.0 <= g2:
            return (grid[i], g1), (grid[i + 1], g2)
    raise _no_resonance(lo, hi, statuses[0], statuses[-1])


def resonance_frequency(dipole: DipoleGeometry,
                        sheet: GrapheneSheet) -> ResonancePrediction:
    """Smallest frequency in ``BAND_HZ`` (0.1-10 THz) where the dipole is
    half a guided wavelength long, for the sheet on a semi-infinite
    substrate under vacuum.

    g(f) = Re q(f) * alpha * L - pi increases with frequency.  The search
    starts from the quasi-static root: for the intraband sheet,
    Re q_qs = (eps1 + eps2) eps0 w^2 / A exactly, so
    f0 = f_p * sqrt(pi / (Re q_qs(f_p) * alpha * L)) for any probe f_p.  One
    cold mode solve at f0 (clamped to the band) is followed by a
    bracket-safeguarded secant on log(g + pi) against log f, a nearly
    straight line of slope about 2; every further solve is continued from
    the nearest root found so far.  A 20 um dipole on quartz at 0.2 eV and
    1 ps takes 5 solves and 30 mode-function evaluations, against 1643 for a
    full band scan followed by Brent's method.

    When the fast path stops at the top of the band with g(hi) < 0, the
    dipole is too short: the error is raised at once, after one solve at the
    low edge for its status.  When the fast path fails otherwise (Re q_qs
    underflows to 0 or f0 overflows, a solve raises, a step would leave the
    band or the steps run out), a 48-point log-spaced band scan brackets the
    first sign change and the same secant refines it.  Band edges where no
    bound mode exists are reported in the error when no bracket is found;
    the returned root satisfies |g| < 1e-9.
    """
    lo, hi = BAND_HZ
    stack = graphene_on_substrate(sheet, dipole.substrate_permittivity)
    length = dipole.end_correction * dipole.total_length_m
    cache: dict[float, ModeSolution] = {}

    def solve(f_hz: float) -> ModeSolution:
        guess = None
        if cache:
            nearest = min(cache, key=lambda fk: abs(fk - f_hz))
            # scale to the new light cone so the seed stays a bound guess
            guess = cache[nearest].wavevector * (f_hz / nearest)
        try:
            mode = find_mode(stack, 2.0 * math.pi * f_hz, guess)
        except ModeSolverError:
            if guess is None:
                raise
            mode = find_mode(stack, 2.0 * math.pi * f_hz)
        cache[f_hz] = mode
        return mode

    def gap(f_hz: float) -> float:
        return solve(f_hz).wavevector.real * length - math.pi

    q_lo = quasi_static_wavevector(stack, 2.0 * math.pi * lo).real
    # Re q_qs is 0 where Im sigma underflows: no seed, the band scan decides
    f_seed = (min(max(lo * math.sqrt(math.pi / q_lo / length), lo), hi)
              if q_lo > 0.0 else math.inf)
    f_res, converged = None, False
    if math.isfinite(f_seed):
        try:
            f_res, g_res, converged = _secant_root(gap, lo, hi,
                                                   [(f_seed, gap(f_seed))])
        except ModeSolverError:
            pass
    if not converged:
        if f_res == hi and g_res < 0.0:
            # g increases with f: the resonance lies above the band, where
            # no scan can bracket it; the scan's first point would see this
            # cache
            raise _no_resonance(lo, hi, _edge_status(gap, lo)[1], "ok")
        low, high = _scan_bracket(gap, lo, hi)
        # start from the end nearer the root; the other end fixes the slope
        points = sorted((low, high), key=lambda point: -abs(point[1]))
        f_res, g_res, converged = _secant_root(gap, lo, hi, points,
                                               low[0], high[0])
    if not converged or abs(g_res) > _RESONANCE_GATE:
        raise NoResonanceInBandError(
            f"bracketing stalled at |g| = {abs(g_res):.3e} > {_RESONANCE_GATE:.0e}")
    mode = cache[f_res]
    f_metal = metal_dipole_resonance(dipole.total_length_m,
                                     dipole.substrate_permittivity)
    return ResonancePrediction(
        resonance_frequency_hz=f_res,
        mode=mode,
        metal_reference_hz=f_metal,
        miniaturization_factor=f_metal / f_res,
        efficiency_proxy=efficiency_proxy(mode),
    )
