"""Independent checks of the sweep CSV the benchmark produces.

Nothing here calls the package's solver path.  Two-half-space modes are
compared with the quartic reduction in tests/oracles.py; layered (H1G/H2G)
modes are checked with a field transfer-matrix residual written here, apart
from the package's admittance recursion; antenna rows are compared with the
oracle resonance and with closed forms.  The sheet conductivity is written
out again from its formula.

Each check function returns a list of error strings (empty when the rows
pass).  Run these outside the timed region: they import numpy and the
oracles.
"""
from __future__ import annotations

import cmath
import importlib.util
import math
from pathlib import Path

import scipy.constants as sc

ROOT = Path(__file__).resolve().parent.parent

QUARTIC_RTOL = 1e-8          # two-half-space q against the quartic reduction
TM_RESIDUAL_GATE = 1e-9      # relative transfer-matrix residual at a mode
RESONANCE_RTOL = 1e-6        # f_res against the oracle resonance
CLOSED_FORM_RTOL = 1e-12     # f_metal and miniaturization
TEMPERATURE_K = 300.0

# layers top to bottom as (relative permittivity, thickness m or None) and
# the interface index of the sheet; the G/H1G/H2G preset geometry
PRESET_GEOMETRY = {
    "G": (((1.0, None), (3.8, None)), 0),
    "H1G": (((1.0, None), (11.9, 10e-6), (3.8, None)), 0),
    "H2G": (((1.0, None), (11.9, 5e-6), (11.9, 5e-6), (3.8, None)), 1),
}


def load_oracles():
    spec = importlib.util.spec_from_file_location(
        "perfbench_oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sheet_conductivity(ef_ev: float, tau_s: float, omega: float,
                       temperature_k: float = TEMPERATURE_K) -> complex:
    """Intraband sheet conductivity (S), exp(-i w t) convention."""
    kt = sc.k * temperature_k
    x = ef_ev * sc.e / (2.0 * kt)
    weight = (2.0 * sc.e**2 / (math.pi * sc.hbar)) * (kt / sc.hbar) \
        * (x + math.log1p(math.exp(-2.0 * x)))
    return weight * 1j / (omega + 1j / tau_s)


def _decay(q_sq: complex, eps: float, k0: float) -> complex:
    kappa = cmath.sqrt(q_sq - eps * k0 * k0)
    return -kappa if kappa.real < 0.0 else kappa


def _propagate(h, f, kappa, eps, thickness, sign):
    """Carry (H_y, F) across a layer, up (sign +1) or down (sign -1).

    cosh and sinh appear with their common factor exp(kappa d) / 2 dropped:
    every condition below is homogeneous in (H_y, F)."""
    t = cmath.exp(-2.0 * kappa * thickness)
    c, s = 1.0 + t, sign * (1.0 - t)
    h, f = c * h + (eps / kappa) * s * f, (kappa / eps) * s * h + c * f
    m = max(abs(h), abs(f))
    return h / m, f / m


def tm_residual(layers, sheets, q: complex, omega: float) -> float:
    """Relative residual of the TM mode condition at in-plane wavevector q.

    layers: ((eps, thickness or None), ...) from top to bottom cladding;
    sheets: {interface index: sigma (S)}, interface i below layers[i].
    With z upward and F = (dH_y/dz) / eps (proportional to E_x), the field
    (H_y, F) of each cladding's decaying solution is carried through the
    layers toward the top sheet: upward from the bottom cladding, downward
    from the top one, so that both legs run in the direction in which a
    mode bound to the sheet grows.  Crossing a sheet keeps F and raises H_y
    by g F, g = i sigma / (w eps0).  A mode makes the two legs agree across
    the top sheet: det[(h_a, f_a), (h_b + g f_b, f_b)] = 0.  Returned as |det|
    over the sum of the magnitudes of its terms.
    """
    k0 = omega / sc.c
    q_sq = q * q
    ref = min(sheets)
    jump = {i: 1j * sigma / (omega * sc.epsilon_0) for i, sigma in sheets.items()}

    eps_bot = layers[-1][0]
    h_b, f_b = 1.0 + 0j, _decay(q_sq, eps_bot, k0) / eps_bot
    for i in range(len(layers) - 2, ref, -1):
        h_b += jump.get(i, 0.0) * f_b
        eps, thickness = layers[i]
        h_b, f_b = _propagate(h_b, f_b, _decay(q_sq, eps, k0), eps, thickness, 1)

    eps_top = layers[0][0]
    h_a, f_a = 1.0 + 0j, -_decay(q_sq, eps_top, k0) / eps_top
    for i in range(ref):
        h_a -= jump.get(i, 0.0) * f_a
        eps, thickness = layers[i + 1]
        h_a, f_a = _propagate(h_a, f_a, _decay(q_sq, eps, k0), eps, thickness, -1)

    g = jump[ref]
    terms = (h_a * f_b, -f_a * h_b, -f_a * g * f_b)
    return abs(sum(terms)) / sum(abs(t) for t in terms)


def bound_error(layers, q: complex, omega: float) -> str | None:
    """None when q is a bound mode: Re q / k0 above the largest cladding
    index and Im q > 0."""
    n_clad = math.sqrt(max(layers[0][0], layers[-1][0]))
    x = q / (omega / sc.c)
    if not x.real > n_clad:
        return f"Re q/k0 = {x.real:.6g} not above cladding index {n_clad:.6g}"
    if not q.imag > 0.0:
        return f"Im q = {q.imag:.3g} not positive"
    return None


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def check_mode(oracles, layers, sheet_interface: int, ef: float,
               tau_s: float, f_thz: float, q: complex) -> list[str]:
    """Check one returned mode against the independent references."""
    omega = 2.0 * math.pi * f_thz * 1e12
    sigma = sheet_conductivity(ef, tau_s, omega)
    errors = []
    reason = bound_error(layers, q, omega)
    if reason is not None:
        errors.append(reason)
    if len(layers) == 2:
        q_ref = oracles.quartic_bound_mode(layers[0][0], layers[1][0],
                                           sigma, omega)
        if abs(q - q_ref) > QUARTIC_RTOL * abs(q_ref):
            errors.append(f"q = {q} differs from quartic {q_ref}")
    else:
        res = tm_residual(layers, {sheet_interface: sigma}, q, omega)
        if not res < TM_RESIDUAL_GATE:
            errors.append(f"transfer-matrix residual {res:.3e} at q = {q}")
    return errors


def check_table(sweep, text: str, parse_result_csv) -> tuple[object, list[str]]:
    """Re-parse a CSV and check it has one row per grid point, in order."""
    try:
        table = parse_result_csv(text)
    except ValueError as err:
        return None, [f"CSV does not re-parse: {err}"]
    if len(table.rows) != len(sweep.grid):
        return None, [f"{len(table.rows)} rows for {len(sweep.grid)} grid points"]
    first = [row[0] for row in table.rows]
    if first != list(sweep.grid):
        return None, ["first column does not match the grid"]
    return table, []


def check_stack(oracles, sweep, table) -> list[str]:
    layers, interface = PRESET_GEOMETRY[sweep.fixed["preset"]]
    f_thz = sweep.fixed["frequency_thz"]
    tau_s = sweep.fixed["relaxation_time_ps"] * 1e-12
    k0 = 2.0 * math.pi * f_thz * 1e12 / sc.c
    errors = []
    for row, status in zip(table.rows, table.statuses):
        if status != "ok":
            continue
        ef, n_eff, nlp, res_len = row
        q_re = n_eff * k0
        if _rel(res_len, math.pi / q_re) > 1e-12:
            errors.append(f"E_F {ef}: resonant length != pi / Re q")
        q = complex(q_re, q_re / (4.0 * math.pi * nlp))
        errors += [f"E_F {ef}: {e}" for e in
                   check_mode(oracles, layers, interface, ef, tau_s, f_thz, q)]
    return errors


def check_dispersion(oracles, sweep, table) -> list[str]:
    fixed = sweep.fixed
    if "preset" in fixed:
        layers, interface = PRESET_GEOMETRY[fixed["preset"]]
    else:
        layers = ((fixed["superstrate_permittivity"], None),
                  (fixed["substrate_permittivity"], None))
        interface = 0
    ef = fixed["chemical_potential_ev"]
    tau_s = fixed["relaxation_time_ps"] * 1e-12
    errors = []
    for row, status in zip(table.rows, table.statuses):
        if status != "ok":
            continue
        f_thz, q_re, q_im, n_eff = row[:4]
        k0 = 2.0 * math.pi * f_thz * 1e12 / sc.c
        if _rel(n_eff, q_re / k0) > 1e-12:
            errors.append(f"{f_thz} THz: n_eff != Re q / k0")
        errors += [f"{f_thz} THz: {e}" for e in
                   check_mode(oracles, layers, interface, ef, tau_s, f_thz,
                              complex(q_re, q_im))]
    return errors


def check_antenna(oracles, sweep, table) -> list[str]:
    errors = []
    eps = sweep.fixed["substrate_permittivity"]
    params = dict(sweep.fixed)
    f_prev = None
    for row, status in zip(table.rows, table.statuses):
        if status != "ok":
            f_prev = None
            continue
        value, f_res, f_metal, mini, proxy = row
        params[sweep.variable] = value
        length = params["length_um"] * 1e-6
        ef = params["chemical_potential_ev"]
        tau_s = params["relaxation_time_ps"] * 1e-12
        tag = f"{sweep.variable} {value}"
        f_ref = oracles.resonance_frequency_oracle(
            length, eps, lambda w: sheet_conductivity(ef, tau_s, w)) / 1e12
        if _rel(f_res, f_ref) > RESONANCE_RTOL:
            errors.append(f"{tag}: f_res {f_res} vs oracle {f_ref}")
        f_closed = sc.c / (2.0 * length * math.sqrt(0.5 * (eps + 1.0))) / 1e12
        if _rel(f_metal, f_closed) > CLOSED_FORM_RTOL:
            errors.append(f"{tag}: f_metal {f_metal} vs closed form {f_closed}")
        if _rel(mini, f_metal / f_res) > CLOSED_FORM_RTOL:
            errors.append(f"{tag}: miniaturization != f_metal / f_res")
        if not 0.0 < proxy < 1.0:
            errors.append(f"{tag}: efficiency proxy {proxy} outside (0, 1)")
        omega = 2.0 * math.pi * f_res * 1e12
        q = oracles.quartic_bound_mode(1.0, eps,
                                       sheet_conductivity(ef, tau_s, omega),
                                       omega)
        fom = q.real / (4.0 * math.pi * q.imag)
        if _rel(proxy, fom / (1.0 + fom)) > QUARTIC_RTOL:
            errors.append(f"{tag}: efficiency proxy {proxy} vs quartic "
                          f"{fom / (1.0 + fom)}")
        if sweep.variable == "length_um" and f_prev is not None \
                and not f_res < f_prev:
            errors.append(f"{tag}: f_res does not fall as length grows")
        f_prev = f_res
    return errors


_BY_TARGET = {"stack": check_stack, "dispersion": check_dispersion,
              "antenna": check_antenna}


def check_sweep(oracles, parse_result_csv, sweep, text: str,
                exit_code: int) -> list[str]:
    """All checks for one sweep's CSV and exit code."""
    table, errors = check_table(sweep, text, parse_result_csv)
    if table is None:
        return errors
    failed = sum(1 for s in table.statuses if s != "ok")
    if exit_code != (2 if failed else 0):
        errors.append(f"exit code {exit_code} with {failed} failed rows")
    bad = [s for s in table.statuses if s != "ok" and not s.startswith("failed:")]
    if bad:
        errors.append(f"status not 'ok' or 'failed:...': {bad[0]!r}")
    errors += _BY_TARGET[sweep.target](oracles, sweep, table)
    return [f"{sweep.name}: {e}" for e in errors]
