"""Seeded sweep configurations for the three benchmark workloads.

A workload is a *round*: a fixed list of sweeps generated once from the
seed.  A run repeats the round until its time is up, so every run attempts
whole rounds of the same operations and the share of failed rows is the
same whatever the seed or run length.

Draws are stratified (one value per equal slice of each range) so that the
cost make-up of a round barely changes from seed to seed; only the values
inside each slice move.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("cold-stack", "warm-trace", "antenna-design")

STACK_PRESETS = ("G", "H1G", "H2G")
STACK_FREQUENCY_SLICES = 14         # one sweep per 0.5 THz slice of 1-8 THz
STACK_GRID_POINTS = 6               # chemical potentials per sweep
STACK_TAU_PS = 0.6

TRACE_KINDS = ("G", "H1G", "H2G", "custom")
TRACES_PER_KIND = 4                 # one per 0.2 eV slice of 0.2-1.0 eV
TRACE_POINTS = 100
# H2G traces that start below about 2 THz lose the root under continuation
# for most (E_F, tau) at tau = 1 ps; see the FOUND line in CHANGES.md.
TRACE_START_THZ = {"G": 0.6, "H1G": 0.6, "H2G": 2.0, "custom": 0.6}
TRACE_STOP_THZ = 8.0

ANTENNA_GRID_POINTS = 4
ANTENNA_CELLS = (3, 2)              # slices of the two fixed parameters
ANTENNA_FIXED = {"width_um": 8.0, "gap_um": 3.0, "substrate_permittivity": 3.8}
# Below about 0.5 ps the leaky low band makes the cost of a row climb
# steeply (four times the evaluations at 0.3 ps and 0.2 eV), so the cost of
# a round would hinge on a few draws.
ANTENNA_RANGES = {"length_um": (8.0, 40.0), "chemical_potential_ev": (0.2, 1.0),
                  "relaxation_time_ps": (0.5, 1.0)}

# Named fault: a cold find_mode raises ConvergenceError at these stack
# points although a bound root exists there (H2G at 0.1 eV, 0.6 ps, 1.5 THz
# has n_eff = 50.16 + 8.83i).  They do not depend on the seed and fail on
# every round until the solver is fixed.  (preset, frequency THz, E_F grid)
FAULT_SWEEPS = (
    ("H1G", 1.5, (0.05,)), ("H1G", 1.75, (0.05,)), ("H1G", 2.0, (0.05,)),
    ("H1G", 2.25, (0.05,)),
    ("H2G", 0.5, (0.1,)), ("H2G", 1.5, (0.1,)), ("H2G", 1.75, (0.1,)),
    ("H2G", 2.0, (0.1,)), ("H2G", 2.25, (0.1, 0.15)),
)


@dataclass(frozen=True)
class Sweep:
    """One `thzplasmon sweep` configuration and what its output must hold."""

    name: str
    target: str
    variable: str
    grid: tuple[float, ...]
    fixed: dict = field(default_factory=dict)

    def config_text(self, out_path: str) -> str:
        lines = ["[sweep]", f"target = {self.target}",
                 f"variable = {self.variable}",
                 "grid = " + " ".join(repr(v) for v in self.grid),
                 "[fixed]"]
        lines += [f"{k} = {v if isinstance(v, str) else repr(v)}"
                  for k, v in self.fixed.items()]
        lines += ["[output]", f"path = {out_path}"]
        return "\n".join(lines) + "\n"


def _slices(rng: random.Random, lo: float, hi: float, count: int):
    """One uniform draw in each of `count` equal slices of [lo, hi),
    increasing."""
    width = (hi - lo) / count
    return tuple(lo + width * (i + rng.random()) for i in range(count))


def _linspace(lo: float, hi: float, count: int):
    return tuple(lo + (hi - lo) * i / (count - 1) for i in range(count))


def cold_stack(rng: random.Random) -> list[Sweep]:
    sweeps = []
    for preset in STACK_PRESETS:
        freqs = _slices(rng, 1.0, 8.0, STACK_FREQUENCY_SLICES)
        for i, f in enumerate(freqs):
            lo = 0.2 + 0.05 * rng.random()
            hi = 1.0 - 0.05 * rng.random()
            sweeps.append(Sweep(
                f"stack-{preset}-{i}", "stack", "chemical_potential_ev",
                _linspace(lo, hi, STACK_GRID_POINTS),
                {"preset": preset, "frequency_thz": f,
                 "relaxation_time_ps": STACK_TAU_PS}))
    for i, (preset, f, grid) in enumerate(FAULT_SWEEPS):
        sweeps.append(Sweep(
            f"fault-{preset}-{i}", "stack", "chemical_potential_ev", grid,
            {"preset": preset, "frequency_thz": f,
             "relaxation_time_ps": STACK_TAU_PS}))
    return sweeps


def warm_trace(rng: random.Random) -> list[Sweep]:
    sweeps = []
    for kind in TRACE_KINDS:
        efs = _slices(rng, 0.2, 1.0, TRACES_PER_KIND)
        flip = rng.random() < 0.5
        for i, ef in enumerate(efs):
            lo = TRACE_START_THZ[kind] + 0.1 * rng.random()
            hi = TRACE_STOP_THZ - 0.1 * rng.random()
            fixed = {"chemical_potential_ev": ef,
                     "relaxation_time_ps": (0.6, 1.0)[(i + flip) % 2]}
            if kind == "custom":
                fixed["substrate_permittivity"] = 1.5 + 10.5 * rng.random()
                fixed["superstrate_permittivity"] = 1.0 + 0.5 * rng.random()
            else:
                fixed["preset"] = kind
            sweeps.append(Sweep(f"trace-{kind}-{i}", "dispersion",
                                "frequency_thz",
                                _linspace(lo, hi, TRACE_POINTS), fixed))
    return sweeps


def antenna_design(rng: random.Random) -> list[Sweep]:
    sweeps = []
    for variable, (lo, hi) in ANTENNA_RANGES.items():
        (key_a, range_a), (key_b, range_b) = [
            item for item in ANTENNA_RANGES.items() if item[0] != variable]
        for a in _slices(rng, *range_a, ANTENNA_CELLS[0]):
            for b in _slices(rng, *range_b, ANTENNA_CELLS[1]):
                fixed = dict(ANTENNA_FIXED, **{key_a: a, key_b: b})
                sweeps.append(Sweep(
                    f"antenna-{variable}-{len(sweeps)}", "antenna", variable,
                    _slices(rng, lo, hi, ANTENNA_GRID_POINTS), fixed))
    return sweeps


_GENERATORS = {"cold-stack": cold_stack, "warm-trace": warm_trace,
               "antenna-design": antenna_design}


def make_round(workload: str, seed: int) -> list[Sweep]:
    """The sweeps of one round; the same (workload, seed) always gives the
    same sweeps."""
    return _GENERATORS[workload](random.Random(f"{workload}/{seed}"))


def write_configs(sweeps, directory) -> list[tuple[Sweep, str, str]]:
    """Write one config per sweep; returns (sweep, config path, csv path)."""
    out = []
    for sweep in sweeps:
        cfg = f"{directory}/{sweep.name}.cfg"
        csv = f"{directory}/{sweep.name}.csv"
        with open(cfg, "w", encoding="utf-8") as handle:
            handle.write(sweep.config_text(csv))
        out.append((sweep, cfg, csv))
    return out
