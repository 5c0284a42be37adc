"""Host-speed calibration for wall-clock timings.

The benchmark host changes speed underneath the process (steal time on a
shared machine), so raw wall time of identical work spreads widely from run
to run.  Every timed call is therefore bracketed by a fixed reference loop of
stdlib complex arithmetic, run in the same thread right before and after the
call, and reported as

    calibrated = raw * T_NOM / T_ref,    T_ref = mean(ref_before, ref_after).

T_NOM is a constant: it only fixes the unit ("seconds on a host where the
reference loop takes T_NOM") and must never be re-tuned, or calibrated
figures from different commits stop being comparable.

The one assumption: the program does no work between timed calls, so the
reference loop sees the same host the call saw.
"""
from __future__ import annotations

import cmath
import time

REF_ITERATIONS = 2000
T_NOM = 0.003  # seconds; fixed once, never re-tuned


def reference_loop() -> float:
    """Wall time (s) of a fixed block of complex arithmetic shaped like one
    mode-function evaluation: square roots, exponentials, products and
    magnitudes of complex numbers."""
    start = time.perf_counter()
    x = 30.0 + 3.0j
    acc = 0j
    for _ in range(REF_ITERATIONS):
        k = cmath.sqrt(x * x - 3.8)
        t = cmath.exp(-0.05 * k)
        a, b = 3.8 * (k + t), k * (k - t)
        m = max(abs(a), abs(b))
        acc += a / m - b / m
        x += 1e-3j
    if acc != acc:  # keeps the result live; never true for these inputs
        raise ArithmeticError("reference loop produced NaN")
    return time.perf_counter() - start


def calibrated_call(fn, *args):
    """Run fn(*args) between two reference loops.

    Returns (result, raw_s, calibrated_s, t_ref_s)."""
    before = reference_loop()
    start = time.perf_counter()
    result = fn(*args)
    raw = time.perf_counter() - start
    t_ref = 0.5 * (before + reference_loop())
    return result, raw, raw * T_NOM / t_ref, t_ref
