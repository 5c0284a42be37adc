"""Independent verification tools for the test suite.

Everything here deliberately avoids the package's solver path: conductivity
checks run through mpmath at 50 digits, two-half-space modes come from a
vectorized brute-force scan of the complex wavevector plane, from an
algebraic quartic reduction solved with numpy's eigenvalue-based root
finder and from mpmath's root finder at 30 digits, which also evaluates
the two-half-space mode condition and its bilinear form for value and
derivative checks.  Layered stacks get an mpmath field transfer-matrix
residual of the mode condition.  Frozen constants below were produced by
these same routines.
The one helper that touches the package, count_evals, only counts its
mode-function evaluations, for the tests that pin them.
"""
from __future__ import annotations

import numpy as np
import scipy.constants as sc

# ---------------------------------------------------------------------------
# frozen high-precision regression constants (mpmath, 50 digits, CODATA via
# scipy.constants; temperature 300 K)

# Drude weights A (S rad/s)
DRUDE_WEIGHT_0P6EV_300K = 70628541290.663370410436227384779094
DRUDE_WEIGHT_0P2EV_300K = 23545504186.314849980893654931040095
DRUDE_WEIGHT_0EV_300K = 4218699453.9153176430199138118370634

# sigma at (0.6 eV, 1 ps, 300 K, 1 THz), siemens
SIGMA_0P6EV_1PS_1THZ_RE = 0.0017448444250217015686587861514119582
SIGMA_0P6EV_1PS_1THZ_IM = 0.010963180854610568915408111907422634
SIGMA_0P6EV_1PS_1THZ_ABS = 0.011101162845325215593454484262316312

# sheet impedance at the same point, ohm per square
IMPEDANCE_0P6EV_1PS_1THZ_RE = 14.158582093386564625530228547313842
IMPEDANCE_0P6EV_1PS_1THZ_IM = -88.960994979662454602746233783929411

# free-standing sheet (0.2 eV, 1 ps, 300 K) at 1 THz, vacuum claddings:
# closed-form plasmon wavevector q = sqrt((2 i w eps0 / sigma)^2 + k0^2)
FREESTANDING_Q_0P2EV_1PS_1THZ = 36242.1311970625332918561057391 + 3871.39370445801674310127635834j

# same sheet on a semi-infinite eps_r = 3.8 substrate (vacuum above) at
# 1 THz, from the quartic reduction at 60 digits
SUPPORTED38_Q_0P2EV_1PS_1THZ = 80577.3151150799819266472622004 + 9974.10824472990113665903256942j

# half guided wavelength of that supported mode, metres
SUPPORTED38_RESONANT_LENGTH_M = 3.89885496817930908436910019062e-05


# ---------------------------------------------------------------------------
# high-precision conductivity (mpmath)

def mp_drude_weight(chemical_potential_ev, temperature_k=300.0, dps=50):
    from mpmath import cosh, ln, mp, mpf, pi
    mp.dps = dps
    e = mpf(repr(sc.e))
    hbar = mpf(repr(sc.hbar))
    kb = mpf(repr(sc.k))
    x = mpf(repr(float(chemical_potential_ev))) * e / (2 * kb * mpf(repr(float(temperature_k))))
    return (2 * e**2 / (pi * hbar)) * (kb * mpf(repr(float(temperature_k))) / hbar) * ln(2 * cosh(x))


def _mp_sigma(chemical_potential_ev, relaxation_time_s, frequency_hz,
              temperature_k, dps):
    from mpmath import mp, mpc, mpf, pi
    mp.dps = dps
    weight = mp_drude_weight(chemical_potential_ev, temperature_k, dps)
    omega = 2 * pi * mpf(repr(float(frequency_hz)))
    tau = mpf(repr(float(relaxation_time_s)))
    return weight * mpc(0, 1) / (omega + mpc(0, 1) / tau)


def mp_conductivity(chemical_potential_ev, relaxation_time_s, frequency_hz,
                    temperature_k=300.0, dps=50):
    value = _mp_sigma(chemical_potential_ev, relaxation_time_s, frequency_hz,
                      temperature_k, dps)
    return complex(value.real, value.imag)


# ---------------------------------------------------------------------------
# brute-force complex-plane scan (two half-spaces, one sheet)

def _residual_grid(eps1, eps2, sigma, omega, q):
    k0 = omega / sc.c
    k1 = np.sqrt(q * q - eps1 * k0 * k0)
    k1 = np.where(k1.real < 0, -k1, k1)
    k2 = np.sqrt(q * q - eps2 * k0 * k0)
    k2 = np.where(k2.real < 0, -k2, k2)
    return np.abs(eps1 / k1 + eps2 / k2 + 1j * sigma / (omega * sc.epsilon_0))


_SCAN_ROW_BLOCK = 50


def brute_force_mode_scan(eps1, eps2, sigma, omega, *,
                          re_window=(1.0, 100.0), im_window=(0.0, 10.0),
                          grid_points=2000, zoom_levels=6, zoom_points=81):
    """Global minimum of |D| over a rectangle of the complex q plane.

    The first pass grids the window (in units of k0, excluding the lower
    edges); each zoom re-grids a shrinking box around the best cell.
    Completely independent of the package solver.
    """
    k0 = omega / sc.c
    re = np.linspace(re_window[0] * k0 * (1 + 1 / grid_points),
                     re_window[1] * k0, grid_points)
    im = np.linspace(im_window[1] * k0 / grid_points,
                     im_window[1] * k0, grid_points)
    # the first pass runs in blocks of rows that stay in cache; it keeps the
    # first minimum in C order, as np.argmin over the whole grid does (the
    # first NaN, if there is one)
    least = None
    for j0 in range(0, grid_points, _SCAN_ROW_BLOCK):
        values = _residual_grid(eps1, eps2, sigma, omega,
                                re[None, :] + 1j * im[j0:j0 + _SCAN_ROW_BLOCK, None])
        k = np.argmin(values)
        value = values.flat[k]
        if least is None or value < least or np.isnan(value):
            least = value
            j, i = j0 + k // grid_points, k % grid_points
            if np.isnan(value):
                break
    best = re[i] + 1j * im[j]
    d_re, d_im = re[1] - re[0], im[1] - im[0]
    for _ in range(zoom_levels):
        re = np.linspace(max(best.real - 2 * d_re, 1e-6 * k0),
                         best.real + 2 * d_re, zoom_points)
        im = np.linspace(max(best.imag - 2 * d_im, 1e-12 * k0),
                         best.imag + 2 * d_im, zoom_points)
        values = _residual_grid(eps1, eps2, sigma, omega,
                                re[None, :] + 1j * im[:, None])
        j, i = np.unravel_index(np.argmin(values), values.shape)
        best = re[i] + 1j * im[j]
        d_re, d_im = re[1] - re[0], im[1] - im[0]
    return complex(best)


# ---------------------------------------------------------------------------
# algebraic quartic reduction (two half-spaces, one sheet)

def quartic_mode_roots(eps1, eps2, sigma, omega):
    """All physical roots of eps1/k1 + eps2/k2 = -i sigma/(w eps0) obtained
    by squaring the condition twice into a quartic in u = q^2."""
    k0 = omega / sc.c
    a = eps1 * k0 * k0
    b = eps2 * k0 * k0
    c = -1j * sigma / (omega * sc.epsilon_0)
    ua = np.array([1.0, -a], dtype=complex)
    ub = np.array([1.0, -b], dtype=complex)
    uaub = np.polymul(ua, ub)
    rhs = np.polysub(np.polysub(c * c * uaub,
                                np.polymul(np.array([eps1 * eps1], dtype=complex), ub)),
                     np.polymul(np.array([eps2 * eps2], dtype=complex), ua))
    poly = np.polysub(np.polymul(rhs, rhs), 4 * eps1**2 * eps2**2 * uaub)
    physical = []
    for u in np.roots(poly):
        q = np.sqrt(u)
        if q.real < 0:
            q = -q
        k1 = np.sqrt(u - a)
        if k1.real < 0:
            k1 = -k1
        k2 = np.sqrt(u - b)
        if k2.real < 0:
            k2 = -k2
        residual = eps1 / k1 + eps2 / k2 - c
        if abs(residual) > 1e-8 * abs(c):
            continue
        physical.append(complex(q))
    return physical


def quartic_bound_mode(eps1, eps2, sigma, omega):
    k0 = omega / sc.c
    n_clad = max(np.sqrt(eps1), np.sqrt(eps2))
    bound = [q for q in quartic_mode_roots(eps1, eps2, sigma, omega)
             if q.real > n_clad * k0 and q.imag > 0]
    if not bound:
        raise AssertionError("quartic oracle found no bound mode")
    return min(bound, key=lambda q: q.real)


def mp_two_half_space_mode(eps1, eps2, chemical_potential_ev,
                           relaxation_time_s, frequency_hz,
                           temperature_k=300.0, dps=30):
    """The bound plasmon q (rad/m) of one sheet between half-spaces eps1
    and eps2, from mpmath.findroot at dps digits on
    eps1/k1 + eps2/k2 + i sigma/(eps0 c0) = 0 in x = q/k0, with principal
    roots k_i = sqrt(x^2 - eps_i) and sigma from mp_conductivity's
    arithmetic at the same precision.  The quartic oracle's root seeds it."""
    from mpmath import findroot, mp, mpc, mpf, pi, sqrt
    sigma = _mp_sigma(chemical_potential_ev, relaxation_time_s, frequency_hz,
                      temperature_k, dps)
    c0, eps0 = mpf(repr(sc.c)), mpf(repr(sc.epsilon_0))
    omega = 2 * pi * mpf(repr(float(frequency_hz)))
    k0 = omega / c0
    e1, e2 = mpf(repr(float(eps1))), mpf(repr(float(eps2)))
    term = mpc(0, 1) * sigma / (eps0 * c0)

    def condition(x):
        return e1 / sqrt(x * x - e1) + e2 / sqrt(x * x - e2) + term

    seed = quartic_bound_mode(eps1, eps2, complex(sigma),
                              float(omega)) / float(k0)
    x = findroot(condition, mpc(seed.real, seed.imag))
    if not (x.imag > 0 and sqrt(x * x - e1).real > 0
            and sqrt(x * x - e2).real > 0):
        raise AssertionError("the extended-precision root is not bound")
    q = x * k0
    return complex(q.real, q.imag)


def mp_sheet_condition(eps1, eps2, chemical_potential_ev, relaxation_time_s,
                       temperature_k=300.0, dps=30):
    """The thin-sheet TM condition of one Drude sheet between half-spaces
    eps1 and eps2 at dps digits, as two mpmath functions of (x, omega)
    with x = q/k0: the admittance mismatch
    D = eps1/k1 + eps2/k2 + i sigma(omega)/(eps0 c0) and its pole-free
    bilinear form F = k1 k2 D = eps1 k2 + eps2 k1 + i sigma k1 k2/(eps0 c0),
    with principal roots k_i = sqrt(x^2 - eps_i) and
    sigma(omega) = A i / (omega + i/tau), A from mp_drude_weight."""
    from mpmath import mp, mpc, mpf, sqrt
    mp.dps = dps
    weight = mp_drude_weight(chemical_potential_ev, temperature_k, dps)
    tau = mpf(repr(float(relaxation_time_s)))
    c0, eps0 = mpf(repr(sc.c)), mpf(repr(sc.epsilon_0))
    e1, e2 = mpf(repr(float(eps1))), mpf(repr(float(eps2)))

    def term(omega):
        sigma = weight * mpc(0, 1) / (omega + mpc(0, 1) / tau)
        return mpc(0, 1) * sigma / (eps0 * c0)

    def mismatch(x, omega):
        return e1 / sqrt(x * x - e1) + e2 / sqrt(x * x - e2) + term(omega)

    def form(x, omega):
        k1, k2 = sqrt(x * x - e1), sqrt(x * x - e2)
        return e1 * k2 + e2 * k1 + term(omega) * k1 * k2

    return mismatch, form


def resonance_frequency_oracle(total_length_m, eps_substrate, sigma_of_omega,
                               band_hz=(0.1e12, 10e12), steps=200):
    """Independent half-wavelength resonance: bisection on
    Re q(f) * L - pi with q from the quartic oracle."""
    import math

    def gap(f_hz):
        omega = 2 * math.pi * f_hz
        q = quartic_bound_mode(1.0, eps_substrate, sigma_of_omega(omega), omega)
        return q.real * total_length_m - math.pi

    lo, hi = band_hz
    grid = np.geomspace(lo, hi, 64)
    bracket = None
    previous = None
    for f in grid:
        try:
            value = gap(f)
        except AssertionError:
            previous = None
            continue
        if previous is not None and previous[1] < 0.0 <= value:
            bracket = (previous[0], f)
            break
        previous = (f, value)
    if bracket is None:
        raise AssertionError("resonance oracle found no bracket")
    f1, f2 = bracket
    for _ in range(steps):
        mid = 0.5 * (f1 + f2)
        if gap(mid) < 0.0:
            f1 = mid
        else:
            f2 = mid
    return 0.5 * (f1 + f2)


# ---------------------------------------------------------------------------
# layered stacks (any number of layers and sheets)

def layered_mode_residual(layers, sheets, q, omega, dps=40):
    """Relative residual of the TM guided-mode condition of a layered stack
    at in-plane wavevector q (rad/m), from field transfer matrices at dps
    digits.

    layers: ((eps, thickness m or None), ...) from the top cladding to the
    bottom one; sheets: {interface i: sigma (S)}, interface i lying below
    layers[i].  With z upward, H_y = A e^{kz} + B e^{-kz} in each layer,
    k = sqrt(q^2 - eps k0^2) with Re k >= 0, and F = (dH_y/dz) / eps, which
    is continuous (it is proportional to E_x); crossing a sheet upward
    raises H_y by g F, g = i sigma / (w eps0).  Each cladding's decaying
    field, (H_y, F) = (1, k/eps) below and (1, -k/eps) above, is carried
    through the layers to the uppermost sheet with the cosh/sinh matrix,
    the direction in which a bound field grows, so no leg cancels.  A mode
    makes the lower leg, raised across that sheet, parallel to the upper
    leg: det[(h_b + g f_b, f_b), (h_a, f_a)] = 0, returned as |det| over the
    sum of the magnitudes of its terms."""
    from mpmath import cosh, mp, mpc, mpf, sinh, sqrt
    mp.dps = dps
    omega = mpf(repr(float(omega)))
    k0 = omega / mpf(repr(sc.c))
    q = mpc(repr(complex(q).real), repr(complex(q).imag))

    def mp_float(value):
        return mpf(repr(float(value)))

    def decay(eps):
        k = sqrt(q * q - mp_float(eps) * k0 * k0)
        return -k if k.real < 0 else k

    def jump(i):
        sigma = complex(sheets[i])
        return (mpc(0, 1) * mpc(repr(sigma.real), repr(sigma.imag))
                / (omega * mp_float(sc.epsilon_0)))

    def carry(h, f, eps, thickness, sign):
        # across one layer, up (sign +1) or down (sign -1)
        k, e = decay(eps), mp_float(eps)
        kd = k * mp_float(thickness)
        c, s = cosh(kd), sign * sinh(kd)
        return c * h + e / k * s * f, k / e * s * h + c * f

    ref = min(sheets)
    eps = layers[-1][0]
    h_b, f_b = mpc(1), decay(eps) / mp_float(eps)
    for i in range(len(layers) - 2, ref, -1):
        if i in sheets:
            h_b += jump(i) * f_b
        h_b, f_b = carry(h_b, f_b, *layers[i], 1)
    eps = layers[0][0]
    h_a, f_a = mpc(1), -decay(eps) / mp_float(eps)
    for i in range(1, ref + 1):
        h_a, f_a = carry(h_a, f_a, *layers[i], -1)
    terms = (h_b * f_a, jump(ref) * f_b * f_a, -f_b * h_a)
    return float(abs(sum(terms)) / sum(abs(t) for t in terms))


# ---------------------------------------------------------------------------
# evaluation counting

def count_evals(call) -> int:
    """Mode-function evaluations made by call(), counted at the module
    attribute that perfbench/tracing.py patches."""
    from thzplasmon import modesolver

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
