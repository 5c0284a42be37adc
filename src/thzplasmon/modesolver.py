"""Transverse-magnetic surface-plasmon mode solver for layered graphene stacks.

The mode condition is assembled in the dimensionless in-plane variable
x = q / k0.  Tangential-field admittances y = H_y / (i w eps0 E_x) * k0 are
propagated from both semi-infinite claddings to a reference interface; a
guided mode makes the admittances match across the sheet current there:

    D(x) = y_below(x) - y_above(x) + i sigma / (eps0 c0) = 0.

For a single sheet between two half-spaces this reduces exactly to

    D(x) = eps1 / k1 + eps2 / k2 + i sigma / (eps0 c0),
    k_i = sqrt(x^2 - eps_i),  Re k_i >= 0,

i.e. the classical thin-sheet plasmon condition normalized by k0.  The
principal square root (cmath.sqrt) is the decaying branch: Re k_i >= 0
always, and Re k_i > 0 for Re x above the cladding index and Im x > 0
wherever x^2 is finite.  No point whose x^2 overflows passes the residual
gate, so those two comparisons are the whole bound test.  Layer
propagation uses decaying exponentials only (phase factors exp(-2 k d k0)
with |.| <= 1), so thick layers cannot overflow.  One recursion walks up
from the bottom cladding; the upper half is walked as its mirror (looking
up is looking down in the flipped stack, admittance negated), which is
exact in IEEE arithmetic because negation commutes with rounding.

Root finding runs on the pole-free bilinear numerator of D rather than on D
itself: when a sheet sits near a node of the tangential electric field
(buried-sheet stacks), both one-sided admittances diverge at the mode and
the zero of D collides with a pole.  The bilinear form has the same zeros
off the branch cuts and stays finite.  One evaluation, _mode_function,
adds the top sheet's term for every consumer (the root finder,
dispersion_residual, residual_scale and the resonance search's Newton
step, whose closed-form derivatives for two half-spaces reuse its
denominators).  Neither walk crosses the top sheet, so the form is affine
in that term: the seed scans store each point's form at term 0, and their
per-row pass, _scan_minima, adds a row's term inline in the same
operations and order, the one mirror, which the tests pin to
_mode_function bit for bit.  A root's residual is the evaluation Muller's
method stopped on, judged by the one rule _accepted, as the Newton step's
is; find_mode returns the first of the bound roots.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .conductivity import _check_invertible, intraband_conductivity
from .constants import C0, EPS0, _check_range
from .stacks import LayeredStack

# the fixed convergence rule of the root finder
TOLERANCE = 1e-12       # relative step |dq|/|q| at convergence
MAX_ITERATIONS = 100    # Muller steps before a seed is given up
RESIDUAL_GATE = 1e-10   # |D| relative to its largest term, at a root
_SAME_ROOT = 1e-8       # polished roots closer than this, relative, are one
_NEWTON_STEPS = 40      # damped Newton steps before a start is given up
_MAX_STEP = 0.3         # the largest |d f| / f of one Newton step

_BRANCH_CUT_GUARD = 1e-12     # |x^2 - eps| below this flags branch-cut proximity
_SCAN_IMAG_FRAC = 1e-4        # seed scans run along Im x = this * Re x


class ModeSolverError(RuntimeError):
    """Base class for mode-solver failures."""


class ConvergenceError(ModeSolverError):
    """The iteration did not converge to a root of the mode condition."""


class NonBoundModeError(ModeSolverError):
    """A root was found but it does not decay into both claddings."""


class BranchCutProximityError(ModeSolverError):
    """The requested wavevector is too close to a branch point of the
    dispersion function."""


@dataclass(frozen=True)
class ModeSolution:
    """A converged bound TM mode at one frequency.

    ``residual`` is |D| relative to the largest term of the mode condition.
    """

    angular_frequency: float
    wavevector: complex            # in-plane q, rad/m, Re q > 0, Im q > 0
    residual: float

    def __post_init__(self):
        _check_range("angular_frequency", self.angular_frequency, 0.0)
        _check_range("Re wavevector", self.wavevector.real, 0.0)
        _check_range("Im wavevector", self.wavevector.imag, 0.0)
        _check_range("residual", self.residual, 0.0, ends="[)")
        # 0 where 2 pi / Re q overflows, and inf where 1 / (2 Im q) or the
        # quotient of the two does
        _check_range("normalized propagation length",
                     self.normalized_propagation_length, 0.0)

    @property
    def frequency_hz(self) -> float:
        return self.angular_frequency / (2.0 * math.pi)

    @property
    def k0(self) -> float:
        return self.angular_frequency / C0

    @property
    def effective_index(self) -> float:
        return self.wavevector.real / self.k0

    @property
    def guided_wavelength_m(self) -> float:
        return 2.0 * math.pi / self.wavevector.real

    @property
    def propagation_length_m(self) -> float:
        return 1.0 / (2.0 * self.wavevector.imag)

    @property
    def normalized_propagation_length(self) -> float:
        return self.propagation_length_m / self.guided_wavelength_m


@dataclass(frozen=True)
class TracePoint:
    """One entry of a dispersion trace: a solution or a failure record."""

    frequency_hz: float
    solution: ModeSolution | None
    status: str  # "ok" or "failed:<reason>"

    @property
    def ok(self) -> bool:
        return self.solution is not None


@dataclass(frozen=True)
class StackMetricsRow:
    chemical_potential_ev: float
    effective_index: float | None
    normalized_propagation_length: float | None
    resonant_length_m: float | None
    status: str


def _mode_problem(stack: LayeredStack, angular_frequency: float):
    """The mode condition at one frequency: (the top sheet's term, the
    geometry).  The geometry is (k0, the walk from the bottom cladding, the
    walk from the top cladding); a walk is a cladding permittivity, the
    complex start of the numerator and the (sheet term or None, eps_i, d_i)
    steps toward the top sheet, the reference interface.  The walks are
    the stack's layout, kept on the stack; only where other sheets sit in
    the bottom walk are their terms filled in at this frequency."""
    _check_range("angular_frequency", angular_frequency, 0.0)
    k0 = angular_frequency / C0
    # a subnormal w underflows to k0 = 0, which the seeds divide by
    _check_range("free-space wavenumber", k0, 0.0)
    # i sigma k0 / (w eps0) = i sigma / (eps0 c0), dimensionless
    terms = {i: 1j * intraband_conductivity(sheet, angular_frequency) / (EPS0 * C0)
             for i, sheet in stack.sheets.items()}
    bottom, top, ref = stack._walk_layout
    if len(terms) > 1:
        eps, start, steps = bottom
        bottom = eps, start, tuple(
            (None if i is None else terms[i], eps_i, d_i)
            for i, eps_i, d_i in steps)
    return terms[ref], (k0, bottom, top)


def _walk(walk, x_sq: complex, k0: float, sqrt=cmath.sqrt, exp=cmath.exp):
    """Homogeneous (numerator, denominator) pair of the looking-down
    admittance at the end of a walk.  The pair is renormalized each step by
    its largest modulus to avoid over/underflow; the ratio is unchanged.
    The principal square root is the decaying branch (Re k >= 0).  sqrt and
    exp are bound once, as defaults, because this loop is the hot path."""
    eps_clad, a, steps = walk
    b = sqrt(x_sq - eps_clad)
    for term, eps_i, d_i in steps:
        if term is not None:
            a = a + term * b
        k_i = sqrt(x_sq - eps_i)
        ak = a * k_i
        eb = eps_i * b
        pt = (ak - eb) * exp(-2.0 * k_i * k0 * d_i)
        s = ak + eb
        a = eps_i * (s + pt)
        b = k_i * (s - pt)
        aa = abs(a)
        bb = abs(b)
        m = bb if bb > aa else aa    # max(aa, bb), NaN and ties included
        if m > 0.0:
            a = a / m
            b = b / m
    return a, b


def _mode_function(x: complex, geometry, term: complex):
    """The pole-free bilinear form of the mode condition with the top
    sheet's term: (below - above + term b_bottom b_top, its term scale
    max(|below|, |above|, |sheet|), and the two walks' denominators
    b_bottom and b_top, whose product the form was multiplied by).  The
    only caller of _walk, so one call is one counted evaluation."""
    k0, bottom, top = geometry
    x_sq = x * x
    a_bottom, b_bottom = _walk(bottom, x_sq, k0)
    a_top, b_top = _walk(top, x_sq, k0)
    below = a_bottom * b_top
    above = -a_top * b_bottom    # the top walk's admittance is negated
    sheet = term * b_bottom * b_top
    scale = abs(below)
    m = abs(above)
    if m > scale:
        scale = m
    m = abs(sheet)
    if m > scale:
        scale = m
    return below - above + sheet, scale, b_bottom, b_top


def _form_with_derivatives(stack: LayeredStack, angular_frequency: float,
                           x: complex):
    """(F, its term scale, dF/dx, dF/dw at fixed q) at x = q/k0 for one
    Drude sheet between two half-spaces, where both walks are empty, the
    denominators are k_bot and k_top and
    F = eps_bot k_top + eps_top k_bot + term k_bot k_top.  With x = q c0/w
    and term'(w) = -term / (w + i/tau), the derivatives are closed forms in
    the parts of the one evaluation of F."""
    if len(stack.layers) != 2:
        raise ValueError("closed-form derivatives need exactly two layers")
    term, geometry = _mode_problem(stack, angular_frequency)
    value, scale, k_bot, k_top = _mode_function(x, geometry, term)
    eps_bot, eps_top = geometry[1][0], geometry[2][0]
    d_x = x * (eps_bot / k_top + eps_top / k_bot
               + term * (k_top / k_bot + k_bot / k_top))
    tau = stack.sheets[stack.top_sheet_interface].relaxation_time_s
    d_w = (-d_x * x / angular_frequency
           - term * k_bot * k_top / (angular_frequency + 1j / tau))
    return value, scale, d_x, d_w


def _checked_form(term: complex, geometry, x: complex):
    """(bilinear form, term scale, the walks' denominator product) of one
    _mode_function evaluation at x, each quartered, for the public
    residuals, which divide the first two by the third.  They raise
    ValueError where the form, its scale or a quotient is not finite (a
    modulus overflows); the solver reads such a point as no value instead.
    A zero denominator product is a pole of D."""
    try:
        value, scale, b_bottom, b_top = _mode_function(x, geometry, term)
        # Python's complex division forms a.real + a.imag * r with |r| <= 1,
        # which overflows where a part of the form tops half the float
        # range although the quotient is finite; a quarter of all three
        # cannot, and divides to the same bits unless a quarter is subnormal
        value, scale = 0.25 * value, 0.25 * scale
        denom = 0.25 * (b_bottom * b_top)
        if denom == 0.0 or (cmath.isfinite(value / denom)
                            and scale / abs(denom) < math.inf):
            return value, scale, denom
    except OverflowError:
        pass
    raise ValueError(
        f"the mode condition's terms overflow at q/k0 = {x:.6g}")


def dispersion_residual(stack: LayeredStack, wavevector: complex,
                        angular_frequency: float) -> complex:
    """Admittance mismatch D at (q, w); D = 0 exactly at guided modes.

    Dimensionless: the two-half-space case evaluates to
    eps1/k1 + eps2/k2 + i sigma/(eps0 c0) with k_i = sqrt((q/k0)^2 - eps_i).
    ValueError where a term's modulus overflows.
    """
    term, geometry = _mode_problem(stack, angular_frequency)
    x = wavevector / geometry[0]
    x_sq = x * x
    for layer in stack.layers:
        if abs(x_sq - layer.relative_permittivity) < _BRANCH_CUT_GUARD:
            raise BranchCutProximityError(
                f"q too close to the eps_r = {layer.relative_permittivity} branch point")
    value, _, denom = _checked_form(term, geometry, x)
    return value / denom


def residual_scale(stack: LayeredStack, wavevector: complex,
                   angular_frequency: float) -> float:
    """Magnitude of the largest term of the mode condition at (q, w); the
    reference scale against which |dispersion_residual| is judged.  Infinite
    at a pole of D; ValueError where a term's modulus overflows."""
    term, geometry = _mode_problem(stack, angular_frequency)
    _, scale, denom = _checked_form(term, geometry, wavevector / geometry[0])
    return scale / abs(denom) if denom != 0.0 else math.inf


def quasi_static_wavevector(stack: LayeredStack,
                            angular_frequency: float) -> complex:
    """Closed-form large-q estimate of the plasmon wavevector (rad/m), used
    as the default root-finder seed:  q0 = i (eps_top + eps_bot) w eps0 / sigma.
    ValueError where q0 itself overflows."""
    _check_range("angular_frequency", angular_frequency, 0.0)
    sheet = stack.sheets[stack.top_sheet_interface]
    sigma = intraband_conductivity(sheet, angular_frequency)
    _check_invertible(sigma)
    eps_sum = (stack.layers[0].relative_permittivity
               + stack.layers[-1].relative_permittivity)
    q0 = 1j * eps_sum * angular_frequency * EPS0 / sigma
    if not cmath.isfinite(q0):
        # on a huge substrate the product overflows before the division
        q0 = 1j * eps_sum * (angular_frequency * EPS0 / sigma)
        if not cmath.isfinite(q0):
            raise ValueError("the quasi-static wavevector overflows")
    return q0


def _muller_polish(fn, seed: complex):
    """Muller's method on the value fn returns first, from three points
    around the seed; its scale comes second, and any further items, such
    as _mode_function's denominators, are ignored.

    Returns (point, value, scale) of the last point evaluated, the one the
    first step shorter than TOLERANCE relative (or a zero step) reached, or
    None.  The derivative-free start tolerates seeds next to branch cuts,
    where Newton from a poor seed would jump.  Muller converges with order
    about 1.84, so at a simple root that point is already at rounding level.
    A stop whose last steps were halved back from a non-finite point is
    only TOLERANCE-accurate; the caller's residual gate judges it.
    """
    # bound once as locals, like _walk's defaults; read at call time
    sqrt, isfinite, tolerance = cmath.sqrt, cmath.isfinite, TOLERANCE
    x0, x1, x2 = seed * (1.0 + 1e-3), seed * (1.0 - 1e-3 + 1e-3j), seed
    try:
        f0, f1, last = fn(x0)[0], fn(x1)[0], fn(x2)
    except (OverflowError, ZeroDivisionError):
        return None
    f2 = last[0]
    if not (isfinite(f0) and isfinite(f1) and isfinite(f2)):
        return None
    limit = 1e6 * (abs(seed) + 1.0)
    for _ in range(MAX_ITERATIONS):
        dx10 = x1 - x0
        dx21 = x2 - x1
        if dx10 == 0 or dx21 == 0:
            return x2, f2, last[1]
        q = dx21 / dx10
        q1 = 1.0 + q
        qqf0 = q * q * f0
        a = q * f2 - q * q1 * f1 + qqf0
        b = (2.0 * q + 1.0) * f2 - q1 ** 2 * f1 + qqf0
        c = q1 * f2
        disc = sqrt(b * b - 4.0 * a * c)
        b_plus = b + disc
        b_minus = b - disc
        den = b_plus if abs(b_plus) >= abs(b_minus) else b_minus
        if den == 0:
            x_new = x2 * (1.0 + 1e-6)
        else:
            x_new = x2 - dx21 * (2.0 * c / den)
        if not isfinite(x_new) or abs(x_new) > limit:
            return None
        try:
            new = fn(x_new)
        except (OverflowError, ZeroDivisionError):
            return None
        if not isfinite(new[0]):
            # back off toward the last good point
            x_new = 0.5 * (x_new + x2)
            try:
                new = fn(x_new)
            except (OverflowError, ZeroDivisionError):
                return None
            if not isfinite(new[0]):
                return None
        x0, x1, x2 = x1, x2, x_new
        f0, f1, f2, last = f1, f2, new[0], new
        if abs(x2 - x1) < tolerance * abs(x2):
            return x2, f2, last[1]
    return None


def _newton(stack: LayeredStack, q_re: float, f: float, beta: float):
    """Damped Newton iteration on the two real unknowns (beta = Im q, f) of
    F(q_re + i beta, 2 pi f) = 0 for one Drude sheet between two
    half-spaces, from the start (f, beta).

    Each step solves dF/dbeta d_beta + dF/df d_f = -F for real d_beta and
    d_f, shortened to |d_f| <= _MAX_STEP f and to keep beta > 0.  Returns
    f and the mode at the point a step shorter than TOLERANCE relative
    reached (Newton converges quadratically, so it is at rounding level),
    with that evaluation's residual, where _accepted, the rule every Muller
    root meets, takes it.  None where the rule refuses it, the steps run
    out or a value is not finite.
    """
    done = False
    for _ in range(_NEWTON_STEPS + 1):
        omega = 2.0 * math.pi * f
        k0 = omega / C0
        q = complex(q_re, beta)
        try:
            value, scale, d_x, d_w = _form_with_derivatives(stack, omega,
                                                            q / k0)
            if done:
                rel = _accepted(stack, q / k0, (value, scale))
                return ((f, ModeSolution(omega, q, rel))
                        if isinstance(rel, float) else None)
            d_beta = 1j * d_x / k0
            d_f = 2.0 * math.pi * d_w
            det = (d_beta.conjugate() * d_f).imag
            step_beta = (d_f.conjugate() * value).imag / det
            step_f = -(d_beta.conjugate() * value).imag / det
        except (OverflowError, ZeroDivisionError):
            return None
        if not (math.isfinite(step_beta) and math.isfinite(step_f)):
            return None
        t = 1.0
        if abs(step_f) > _MAX_STEP * f:
            t = _MAX_STEP * f / abs(step_f)
        if beta + t * step_beta <= 0.0:
            t = 0.5 * beta / -step_beta
        f_new, beta_new = f + t * step_f, beta + t * step_beta
        done = (abs(f_new - f) < TOLERANCE * f
                and abs(beta_new - beta) < TOLERANCE * abs(q))
        f, beta = f_new, beta_new
    return None


def _sheet_free_parts(geometry, x: complex):
    """_mode_function at x with term 0, the sheet-free parts a scan stores
    for every row's term, or None where it overflowed; looked up at call
    time, so a counter patched onto the module counts every walk pair."""
    try:
        return _mode_function(x, geometry, 0j)
    except (OverflowError, ZeroDivisionError):
        return None


def _accepted(stack: LayeredStack, x: complex, pair) -> float | str | None:
    """The rule every root x = q/k0 meets, Muller's and Newton's, on the
    (value, scale) pair that stopped its solve: None where |value| / scale
    is not below RESIDUAL_GATE (a zero scale or an overflowing |value| is
    not); else the reason where x is not bound, Re x above the cladding
    index and Im x > 0; else that residual.  No decay check is needed:
    wherever x^2 is finite the two give Re k > 0 in both claddings, and
    where it overflows every walk term goes inf or NaN, so no pair there
    passes the gate."""
    value, scale = pair
    try:
        rel = abs(value) / scale if scale > 0.0 else math.inf
    except OverflowError:
        return None
    if not rel < RESIDUAL_GATE:
        return None
    n_clad = stack.max_cladding_index
    if x.real <= n_clad:
        return (f"not bound: Re q = {x.real:.6g} k0 does not exceed the "
                f"cladding index {n_clad:.6g}")
    if x.imag <= 0.0:
        return f"not bound: Im q = {x.imag:.3g} k0 is not positive"
    return rel


def _scan_minima(term: complex, points: list, parts: list) -> list:
    """(value, point) of the deepest six local minima of the relative mode
    function over scan points, the smallest first (a stable sort), in one
    pass.  A point's value adds the row's term to its parts at term 0 as
    _mode_function adds it, then takes _accepted's residual, inline and in
    their order, the one copy the tests pin to them bit for bit; inf where
    the parts are None (they overflowed), the scale is 0 or a modulus
    overflows.  The previous value is a minimum where it is below both
    neighbours, which inf, NaN and the first point, led by two NaNs, never
    are."""
    inf = math.inf
    minima = []
    u = v = math.nan
    y = None
    for z, p in zip(points, parts):
        if p is None:
            w = inf
        else:
            value, scale, b_bottom, b_top = p
            try:
                sheet = term * b_bottom * b_top
                m = abs(sheet)
                if m > scale:
                    scale = m
                w = abs(value + sheet) / scale if scale > 0.0 else inf
            except OverflowError:
                w = inf
        if v < u and v < w:
            minima.append((v, y))
        u, v, y = v, w, z
    minima.sort(key=lambda item: item[0])
    return minima[:6]


def _bracket_seeds(geometry, grid: list[float]) -> list[complex]:
    """One seed per bracket of the sheet-free mode function on the real
    points ``grid``: a pair of neighbouring points between which the real
    or the imaginary part of the sheet-free value changes sign.  With real
    permittivities the bare stack's guided modes are real roots above the
    cladding index, so each bracket's midpoint + 1e-6i is a seed for a film
    root the sheet has pushed off the axis."""
    values = [_sheet_free_parts(geometry, complex(r)) for r in grid]
    seeds = []
    for i in range(1, len(grid)):
        u, v = values[i - 1], values[i]
        if u is not None and v is not None and (
                u[0].real * v[0].real < 0.0 or u[0].imag * v[0].imag < 0.0):
            seeds.append(complex(0.5 * (grid[i - 1] + grid[i]), 1e-6))
    return seeds


def _scan_line(geometry, reals: list[float]) -> tuple[list, list]:
    """(points, their sheet-free parts) of a scan at the real parts
    ``reals`` along the near-real line Im x = _SCAN_IMAG_FRAC Re x."""
    points = [complex(p, _SCAN_IMAG_FRAC * p) for p in reals]
    return points, [_sheet_free_parts(geometry, x) for x in points]


def _linear(lo: float, hi: float, count: int) -> list[float]:
    """count evenly spaced points from lo to hi, none if hi <= lo."""
    if hi <= lo:
        return []
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _band_scan(geometry, n_clad: float, n_max: float, one_sheet: bool):
    """(points, parts, bracket seeds) of the dielectric-guided band, where
    hybrid stacks have sharp minima, the weakly guided ones close to the
    light line: 16 log-spaced offsets n_clad (1 + 1e-6 ... 1e-1) lead in,
    the last of them the first point of the linear part up to n_max + 1.
    With one sheet the 16 offsets below n_max, on the real axis, are
    bracketed too (a second sheet's lossy term in a walk moves the bare
    stack's roots off the axis).  None of it depends on the top sheet's
    term."""
    hi = n_max + 1.0
    log = [n_clad * (1.0 + 10.0 ** (k / 3.0 - 6.0)) for k in range(15)]
    points, parts = _scan_line(
        geometry, [r for r in log if r < hi] + _linear(n_clad * 1.1, hi, 200))
    grid = [r for r in log + [n_clad * 1.1] if r < n_max] if one_sheet else []
    return points, parts, _bracket_seeds(geometry, grid)


def _bound_roots(stack: LayeredStack, angular_frequency: float,
                 initial_guess: complex | None, store: list) -> tuple:
    """find_mode's seeds and polish: the (x = q/k0, residual) pairs of the
    distinct bound roots (none within _SAME_ROOT of another), sorted by Re x.
    Every early seed is polished, the late ones (the ladder less the early
    seeds) only while no root was found; _accepted judges the pair Muller's
    method stopped on.  With no root, NonBoundModeError (the last reason)
    if one passed the gate, else ConvergenceError.  ``store``, a one-slot
    list [geometry, band scan], keeps the band scan (_band_scan) for the
    next solve of an equal geometry, such as one sweep's single-sheet rows:
    k0 and the two walks fix every value the scan holds."""
    term, geometry = _mode_problem(stack, angular_frequency)
    k0 = geometry[0]

    def fn(x: complex):
        return _mode_function(x, geometry, term)

    n_clad = stack.max_cladding_index
    layers = stack.layers
    if initial_guess is not None:
        early = [initial_guess / k0]
        ladder = []
    else:
        qs = quasi_static_wavevector(stack, angular_frequency) / k0
        # weakly confined modes hug the cladding light line; a geometric
        # offset ladder reaches them when the quasi-static seed is far off.
        # The cladding quasi-static seed heads it: with one sheet, the
        # adjacent-layer seed below reaches the tightly confined roots and
        # the brackets of the band scan the film roots by the light line, so
        # the ladder runs only while nothing bound was found
        rungs = [n_clad * (1.0 + d + 0.5j * d)
                 for d in (1e-4, 1e-3, 3e-3, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0)]
        ladder = [qs] + rungs
        # at large q the sheet sees the layers next to it, not the claddings
        # the quasi-static estimate sums; on two half-spaces they are the
        # claddings, and the estimate is the cladding seed itself
        ref = stack.top_sheet_interface
        adjacent = qs * ((layers[ref].relative_permittivity
                          + layers[ref + 1].relative_permittivity)
                         / (layers[0].relative_permittivity
                            + layers[-1].relative_permittivity))
        one_sheet = len(stack.sheets) == 1
        if one_sheet:
            early = [adjacent]
        else:
            # with a second sheet the cladding seed reaches roots of smaller
            # Re x that no other seed does, so it is early, followed by each
            # lower sheet's own quasi-static estimate (the plasmon bound to
            # that sheet can have the smaller Re x; a conductivity that
            # underflowed to 0 gives none), the adjacent one and a rung
            early = [qs]
            for i in sorted(stack.sheets)[1:]:
                sigma = intraband_conductivity(stack.sheets[i], angular_frequency)
                if sigma != 0:
                    early.append(1j * (layers[i].relative_permittivity
                                       + layers[i + 1].relative_permittivity)
                                 * angular_frequency * EPS0 / sigma / k0)
            early += [adjacent, rungs[0]]
        # only a stack of more than two layers has a band or a second sheet
        n_max = stack.max_layer_index
        if n_max > n_clad:
            if not store or store[0] != geometry:
                store[:] = [geometry,
                            _band_scan(geometry, n_clad, n_max, one_sheet)]
            points, parts, brackets = store[1]
            early += brackets + [z for _, z in _scan_minima(term, points, parts)]
        if not one_sheet:
            # a second sheet's term in the bottom walk can put the
            # fundamental root above the band
            hi = max(2.0 * abs(qs), n_max + 2.0, 50.0)
            points, parts = _scan_line(geometry, _linear(n_max + 1.0, hi, 48))
            early += [z for _, z in _scan_minima(term, points, parts)]

    bound: list[tuple[complex, float]] = []
    unbound_reason: str | None = None
    for i, seed in enumerate(early + [s for s in ladder if s not in early]):
        if bound and i >= len(early):
            break
        found = _muller_polish(fn, seed)
        if found is None:
            continue
        root = found[0]
        if root.real < 0.0:
            root = -root    # the same root: the mode function is even in x
        verdict = _accepted(stack, root, found[1:])
        if isinstance(verdict, str):
            unbound_reason = verdict
        elif verdict is not None and not any(
                abs(root - r) < _SAME_ROOT * abs(r) for r, _ in bound):
            bound.append((root, verdict))

    if not bound:
        if unbound_reason is not None:
            raise NonBoundModeError(unbound_reason)
        raise ConvergenceError(
            f"no root of the mode condition converged within {MAX_ITERATIONS} "
            f"iterations at f = {angular_frequency / (2 * math.pi):.4g} Hz")
    return tuple(sorted(bound, key=lambda item: item[0].real))


def _solve(stack: LayeredStack, angular_frequency: float,
           initial_guess: complex | None, store: list) -> ModeSolution:
    """find_mode's root: the first of _bound_roots, of smallest Re x."""
    (x, rel), *_ = _bound_roots(stack, angular_frequency, initial_guess, store)
    return ModeSolution(angular_frequency, x * (angular_frequency / C0), rel)


def find_mode(stack: LayeredStack, angular_frequency: float,
              initial_guess: complex | None = None) -> ModeSolution:
    """Fundamental bound TM mode of the stack at one angular frequency.

    Without a guess, early seeds are all polished; the distinct bound roots
    they reach form one set sorted by Re q, whose first is returned.  Late
    seeds run in order only while no bound root has been found.  A root
    counts by _accepted's rule, a residual below RESIDUAL_GATE and Re q, Im q
    above n_clad k0 and 0: ConvergenceError where no seed passes the gate,
    else NonBoundModeError where none is bound.  Early, in order:
    - with more than one sheet, the quasi-static estimate
      q0 = i (eps top + eps bottom cladding) w eps0 / sigma, then each
      lower sheet's own i (eps_i + eps_i+1) w eps0 / sigma_i (interface i);
    - the top sheet's estimate with the two layers next to it in place of
      the claddings, which a tightly confined plasmon sees (on two
      half-spaces, q0 itself);
    - with more than one sheet, the first rung of the ladder below;
    - where a layer is denser than the claddings: with one sheet, one seed
      per bracket of the sheet-free mode function on the 16 real points
      n_clad (1 + 1e-6 ... 1e-1) below the densest layer's index (a pair of
      neighbours between which its real or imaginary part changes sign,
      seeded at the midpoint + 1e-6i); then the deepest minima of a
      215-point scan of the dielectric-guided band (those 16 offsets, then
      linear up to the densest layer's index + 1);
    - with more than one sheet, those of a 48-point scan above the band.
    Late: the ladder, q0 and then the rungs just above the cladding light
    line x = n_clad (1 + d + 0.5i d) for d = 1e-4 ... 3, less the early
    seeds.  With a guess, only that seed is iterated (continuation use).
    Each call builds its own band scan; stack_metrics_sweep's rows share
    one while their geometry is equal.
    """
    return _solve(stack, angular_frequency, initial_guess, [])


def trace_dispersion(stack: LayeredStack, frequencies_hz) -> list[TracePoint]:
    """Solve the stack across a frequency grid with continuation.

    The first point starts from the default seeds; each later point starts
    from the last converged root, and where that continued solve raises a
    ModeSolverError the point is solved again with the cold seeds.  Solver
    errors and invalid points (ValueError) are recorded as failed points
    and do not abort the trace.
    """
    freqs = [float(f) for f in frequencies_hz]
    if not freqs:
        raise ValueError("frequency grid must not be empty")
    if not all(f2 > f1 for f1, f2 in zip(freqs, freqs[1:])):
        raise ValueError("frequency grid must be strictly increasing")
    points: list[TracePoint] = []
    guess_index: complex | None = None  # previous root as effective index
    for f in freqs:
        # scale the previous root to the new light cone so the seed stays in
        # the bound region (q/k0 would otherwise drop below the claddings)
        guess = guess_index * (2.0 * math.pi * f / C0) if guess_index else None
        try:
            try:
                solution = find_mode(stack, 2.0 * math.pi * f, guess)
            except ModeSolverError:
                if guess is None:
                    raise
                # the continued seed lost the root: solve this point cold
                solution = find_mode(stack, 2.0 * math.pi * f)
            guess_index = solution.wavevector / solution.k0
            points.append(TracePoint(f, solution, "ok"))
        except (ModeSolverError, ValueError) as err:
            points.append(TracePoint(f, None, f"failed:{err}"))
    return points


def stack_metrics_sweep(stack: LayeredStack, frequency_hz: float,
                        chemical_potentials_ev) -> list[StackMetricsRow]:
    """Fundamental-mode figures of merit versus sheet chemical potential.

    Every sheet of the stack is retuned to each grid value; rows report the
    effective index, the propagation length per guided wavelength and the
    half-wavelength resonant length.  Solver errors and invalid rows
    (ValueError) are recorded as failed rows.
    """
    omega = 2.0 * math.pi * frequency_hz
    grid = [float(ef) for ef in chemical_potentials_ev]
    # the rows share the band scan while their geometry is equal: with one
    # sheet, at the reference interface, no walk holds the retuned term
    store: list = []
    rows: list[StackMetricsRow] = []
    for ef in grid:
        try:
            mode = _solve(stack.with_chemical_potential(ef), omega, None, store)
        except (ModeSolverError, ValueError) as err:
            rows.append(StackMetricsRow(ef, None, None, None, f"failed:{err}"))
            continue
        rows.append(StackMetricsRow(
            ef,
            mode.effective_index,
            mode.normalized_propagation_length,
            mode.guided_wavelength_m / 2.0,
            "ok",
        ))
    return rows
