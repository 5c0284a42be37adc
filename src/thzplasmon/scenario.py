"""Area-constrained application requirements and antenna footprint checks.

Three built-in scenarios carry the node-size, transmission-range and
data-rate envelopes of wireless nanosensor networks (WNSN), software-defined
metamaterials (SDM) and wireless networks-on-chip (WNoC).  The footprint
model is the bounding rectangle of one radiating element; the node-size
budget is treated as an upper bound on that rectangle, with an optional
fraction reserved for electronics.  Range and rate are carried for context
only; no link budget is computed.
"""
from __future__ import annotations

import math
import os
import stat
from dataclasses import dataclass

from .constants import C0, _check_range


@dataclass(frozen=True)
class ScenarioRequirements:
    name: str
    node_size_m2: tuple[float, float]
    tx_range_m: tuple[float, float]
    data_rate_bps: tuple[float, float]

    def __post_init__(self):
        for label in ("node_size_m2", "tx_range_m", "data_rate_bps"):
            lo, hi = getattr(self, label)
            _check_range(label, hi)
            if not 0.0 < lo <= hi:
                raise ValueError(f"{label} must be a positive (min, max) range")


@dataclass(frozen=True)
class FeasibilityReport:
    scenario_name: str
    footprint_m2: float
    fits: bool
    margin: float           # linear: sqrt(area budget / footprint)
    notes: str


WNSN = ScenarioRequirements("WNSN", (1e-12, 100e-12), (1e-3, 1.0), (1e6, 1e8))
SDM = ScenarioRequirements("SDM", (0.01e-6, 100e-6), (1e-3, 1.0), (1e7, 1e9))
WNOC = ScenarioRequirements("WNoC", (0.01e-6, 1e-6), (1e-3, 0.1), (1e10, 1e11))


def builtin_scenarios() -> tuple[ScenarioRequirements, ...]:
    return (WNSN, SDM, WNOC)


def scenario_by_name(name: str) -> ScenarioRequirements:
    for scenario in builtin_scenarios():
        if scenario.name.lower() == name.lower():
            return scenario
    raise ValueError(f"unknown scenario {name!r}; expected WNSN, SDM or WNoC")


def fits_footprint(resonant_length_m: float, width_m: float,
                   scenario: ScenarioRequirements,
                   budget_fraction: float = 1.0) -> FeasibilityReport:
    """Check a resonant-length x width rectangle against the scenario's
    node-size budget.  fits is equivalent to margin >= 1.  A footprint or
    margin that overflows, or a footprint that underflows to 0, is
    rejected."""
    _check_range("antenna dimensions", resonant_length_m, 0.0)
    _check_range("antenna dimensions", width_m, 0.0)
    _check_range("budget_fraction", budget_fraction, 0.0, 1.0, "(]")
    footprint = resonant_length_m * width_m
    _check_range("antenna footprint", footprint)
    if footprint == 0.0:
        raise ValueError("antenna footprint underflows to 0 m2")
    budget = budget_fraction * scenario.node_size_m2[1]
    margin = math.sqrt(budget / footprint)
    _check_range("margin", margin)
    notes = (f"tx range {scenario.tx_range_m[0]:g}-{scenario.tx_range_m[1]:g} m; "
             f"data rate {scenario.data_rate_bps[0]:g}-{scenario.data_rate_bps[1]:g} bit/s")
    return FeasibilityReport(scenario.name, footprint, footprint <= budget,
                             margin, notes)


def sdm_cell_size(frequency_hz: float) -> float:
    """Metamaterial unit-cell scale at the operating frequency: a tenth of
    the free-space wavelength.  An embedded controller antenna should not
    exceed this length.  A wavelength that overflows is rejected."""
    _check_range("frequency_hz", frequency_hz, 0.0)
    wavelength = C0 / frequency_hz
    _check_range("free-space wavelength", wavelength)
    return wavelength / 10.0


def scenarios_csv() -> str:
    """Scenario constants as CSV (SI units), one row per scenario."""
    lines = ["scenario(-),node_size_min(m2),node_size_max(m2),"
             "tx_range_min(m),tx_range_max(m),data_rate_min(bit/s),data_rate_max(bit/s)"]
    for s in builtin_scenarios():
        cells = [s.name]
        for pair in (s.node_size_m2, s.tx_range_m, s.data_rate_bps):
            cells += [f"{pair[0]:.17e}", f"{pair[1]:.17e}"]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _write_text(path, text: str, what: str) -> None:
    """Write text to path as UTF-8 with its linefeeds kept; an OSError says
    what could not be written where.

    An existing output is overwritten in place, so it keeps its inode, mode
    bits and links (a symlinked path stays a link); a regular file longer
    than the text is first cut to the text's length.  Rewriting an existing
    output this way measured faster than truncating it to zero first; why
    was not probed.  The write is not atomic: one cut short can leave the
    old output's bytes after the new ones, up to the new text's length."""
    data = text.encode("utf-8")
    try:
        # open() passes its own flags (O_BINARY on Windows, O_CLOEXEC) to
        # the opener and owns the descriptor it returns
        with open(path, "wb", opener=lambda name, flags:
                  os.open(name, flags & ~os.O_TRUNC, 0o666)) as handle:
            # not seekable(): /dev/null seeks, but ftruncate rejects it
            old = os.fstat(handle.fileno())
            if stat.S_ISREG(old.st_mode) and old.st_size > len(data):
                handle.truncate(len(data))
            handle.write(data)
    except OSError as err:
        raise OSError(f"cannot write {what} to {path}: {err}") from err


def write_scenarios_csv(path) -> None:
    _write_text(path, scenarios_csv(), "scenario table")
