"""Config-driven batch sweeps with deterministic CSV and plot-data output.

The configuration format is a flat key-value document with section headers,
chosen so regression fixtures diff cleanly:

    [sweep]
    # conductivity | dispersion | stack | antenna | scenario
    target = stack
    variable = chemical_potential_ev
    # start:stop:count, or explicit values
    grid = 0.2:1.0:9

    [fixed]
    preset = H1G
    frequency_thz = 4.0
    relaxation_time_ps = 0.6

    [output]
    path = h1g.csv
    # csv or plot
    format = csv

A comment is a line of its own; after a value, "#" is part of the value.
An unknown section or key is an error on its line, not a warning.  Sweeps
never abort on a row failure, whether the solver fails, an input is invalid
(a negative chemical potential, a zero frequency, a dipole shorter than its
gap) or a result is not finite: the row is kept with status "failed:<reason>"
and empty numeric cells, and an invalid fixed sheet or stack fails every row.
Emitted files are byte-identical across reruns; all numeric cells use full
round-trip scientific notation and every column header carries a unit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import antenna as _antenna
from . import modesolver as _modesolver
from . import scenario as _scenario
from .conductivity import DEFAULT_TEMPERATURE_K, GrapheneSheet, intraband_conductivity
from .stacks import PRESET_NAMES, graphene_on_substrate, preset_stack

FORMATS = ("csv", "plot")  # the first is the default


class ConfigError(ValueError):
    # the ([section], key) an error is about, if it is about one: the config
    # parser puts that key's line in front of the message
    _where = ("", "")

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")


def _fault(section: str, key: str, message: str) -> ConfigError:
    """A ConfigError about the key of [section]."""
    err = ConfigError(message)
    err._where = (section, key)
    return err


class UnknownColumnError(KeyError):
    pass


@dataclass(frozen=True)
class Column:
    name: str
    unit: str

    @property
    def header(self) -> str:
        return f"{self.name}({self.unit})"


@dataclass
class ResultTable:
    """Rectangular sweep output: unit-annotated columns, one row per grid
    point, and a status per row ("ok" or "failed:<reason>")."""

    columns: list[Column]
    rows: list[list[float | str | None]] = field(default_factory=list)
    statuses: list[str] = field(default_factory=list)

    def __post_init__(self):
        if len(self.rows) != len(self.statuses):
            raise ValueError("one status per row required")
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("rows must match the column count")

    @property
    def all_ok(self) -> bool:
        return all(status == "ok" for status in self.statuses)

    def column_values(self, name: str):
        for i, col in enumerate(self.columns):
            if col.name == name:
                return [row[i] for row in self.rows]
        raise UnknownColumnError(name)


@dataclass(frozen=True)
class SweepSpec:
    target: str
    variable: str
    grid: tuple[float, ...]
    fixed: dict[str, float | str]
    output_path: str | None = None
    output_format: str = FORMATS[0]
    plot_x: str | None = None
    plot_y: tuple[str, ...] | None = None

    def __post_init__(self):
        # every spec, parsed or built by hand, passes here, and this is the
        # one place that judges it: both get the same defaults, the same
        # errors and the same floats
        schema = _schema(self.target, self.variable)
        grid = tuple(_number(value, "grid value", "sweep", "grid")
                     for value in self.grid)
        if not grid:
            raise _fault("sweep", "grid", "grid: must not be empty")
        steps = list(zip(grid, grid[1:]))
        if not (all(a < b for a, b in steps) or all(a > b for a, b in steps)):
            raise _fault("sweep", "grid", "grid: values must be strictly monotone")
        if self.target == "dispersion" and grid[0] > grid[-1]:
            raise _fault("sweep", "grid",
                         "grid: dispersion traces need an increasing grid")
        if self.variable in self.fixed:
            raise _fault("fixed", self.variable,
                         f"{self.variable!r} is both the swept variable and a "
                         "fixed parameter")
        fixed = {key: str(self.fixed[key]) if key in _TEXT_KEYS
                 else _number(self.fixed[key], key, "fixed", key)
                 for key in schema["fixed"] if key in self.fixed}
        for key in self.fixed:
            if key not in fixed:
                raise _fault("fixed", key, f"unknown key {key!r} in [fixed] "
                                           f"for target {self.target!r}")
        for key in schema["fixed"]:
            if key in fixed or key == self.variable or key in schema.get("optional", ()):
                continue
            if key not in _DEFAULTS:
                raise ConfigError(f"missing required key {key!r} "
                                  f"for target {self.target!r}")
            fixed[key] = _DEFAULTS[key]
        if self.target == "dispersion":
            # the stack is a preset, or a custom substrate under a superstrate
            if ("preset" in fixed) == ("substrate_permittivity" in fixed):
                raise ConfigError("dispersion needs exactly one of 'preset' "
                                  "or 'substrate_permittivity'")
            if "preset" in fixed and "superstrate_permittivity" in fixed:
                raise ConfigError("superstrate_permittivity only applies "
                                  "with substrate_permittivity")
            if "substrate_permittivity" in fixed:
                fixed.setdefault("superstrate_permittivity",
                                 _DEFAULTS["superstrate_permittivity"])
        # a name is checked once the spec has every key it needs
        for key, check in _TEXT_KEYS.items():
            if key in fixed:
                try:
                    check(fixed[key])
                except ValueError as err:
                    raise _fault("fixed", key, str(err)) from None
        if self.output_format not in FORMATS:
            raise _fault("output", "format", f"format: expected one of {FORMATS}, "
                                             f"got {self.output_format!r}")
        if self.output_path is not None and not _is_name(self.output_path):
            raise _fault("output", "path", "path: expected a non-empty file "
                                           f"path, got {self.output_path!r}")
        if self.plot_x is not None and not _is_name(self.plot_x):
            raise _fault("output", "plot_x", "plot_x: expected a column name, "
                                             f"got {self.plot_x!r}")
        if self.plot_y is not None and not (isinstance(self.plot_y, tuple)
                                            and all(map(_is_name, self.plot_y))):
            raise _fault("output", "plot_y", "plot_y: expected a tuple of column "
                                             f"names, got {self.plot_y!r}")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "fixed", fixed)


# ---------------------------------------------------------------------------
# configuration parsing

_VAR_META = {
    "chemical_potential_ev": ("chemical_potential", "eV"),
    "relaxation_time_ps": ("relaxation_time", "ps"),
    "frequency_thz": ("frequency", "THz"),
    "temperature_k": ("temperature", "K"),
    "length_um": ("length", "um"),
}

# the value an omitted [fixed] key takes (superstrate_permittivity only
# under a custom substrate)
_DEFAULTS = {
    "temperature_k": DEFAULT_TEMPERATURE_K,
    "end_correction": 1.0,
    "budget_fraction": 1.0,
    "superstrate_permittivity": 1.0,
}


def _check_preset(name: str) -> None:
    if name not in PRESET_NAMES:
        raise ValueError(f"preset: expected one of {PRESET_NAMES}, got {name!r}")


# [fixed] keys kept as text, each with the check of its name; every other
# [fixed] key is a float
_TEXT_KEYS = {"preset": _check_preset, "scenario": _scenario.scenario_by_name}

# each section and its keys: [sweep] needs all of its keys, [output] may
# omit any, and [fixed] takes any key, which SweepSpec judges per target
_SECTIONS = {"sweep": ("target", "variable", "grid"), "fixed": None,
             "output": ("path", "format", "plot_x", "plot_y")}


def _parse_sections(text: str):
    """A document's sections (key -> text) and the line of each
    (section, key); an unknown key is an error on the line that holds it."""
    sections: dict[str, dict[str, str]] = {}
    lines: dict[tuple[str, str], int] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ConfigError(f"unknown section [{name}]", lineno)
            if name in sections:
                raise ConfigError(f"duplicate section [{name}]", lineno)
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", lineno)
        if current is None:
            raise ConfigError("key outside any [section]", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError("empty key", lineno)
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r} in [{current}]", lineno)
        if _SECTIONS[current] is not None and key not in _SECTIONS[current]:
            raise ConfigError(f"unknown key {key!r} in [{current}]", lineno)
        sections[current][key] = value
        lines[current, key] = lineno
    return sections, lines


def _number(value, name: str, section: str, key: str) -> float:
    """value as a finite float; an error starts with name and is about the
    key of [section]."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise _fault(section, key, f"{name}: not a number: {value!r}") from None
    if not math.isfinite(number):
        raise _fault(section, key, f"{name}: must be finite")
    return number


def _is_name(value) -> bool:
    """Whether value is a non-empty string: a path or a column name."""
    return isinstance(value, str) and value != ""


def _grid(text: str) -> tuple[float | str, ...]:
    """The values of a grid's text, start:stop:count or a comma- or
    space-separated list; listed values stay text for SweepSpec to read."""
    if ":" not in text:
        return tuple(text.replace(",", " ").split())
    parts = text.split(":")
    if len(parts) != 3:
        raise _fault("sweep", "grid", "grid: range form is start:stop:count")
    start = _number(parts[0], "grid start", "sweep", "grid")
    stop = _number(parts[1], "grid stop", "sweep", "grid")
    try:
        count = int(parts[2])
    except ValueError:
        raise _fault("sweep", "grid", "grid: count must be an integer") from None
    if count < 1:
        raise _fault("sweep", "grid", "grid: count must be >= 1")
    if count == 1:
        return (start,)
    step = (stop - start) / (count - 1)
    return tuple(start + i * step for i in range(count - 1)) + (stop,)


def _schema(target: str, variable: str) -> dict:
    """The _TARGETS entry of target, which must sweep variable."""
    if target not in _TARGETS:
        raise _fault("sweep", "target",
                     f"target: expected one of {tuple(_TARGETS)}, got {target!r}")
    schema = _TARGETS[target]
    if variable not in schema["variables"]:
        raise _fault("sweep", "variable",
                     f"variable: target {target!r} sweeps one of "
                     f"{sorted(schema['variables'])}, got {variable!r}")
    return schema


def _output_settings(output: dict[str, str]) -> dict:
    """The SweepSpec fields that [output] settings (key -> text) set; an
    empty format, x column or y column list sets nothing."""
    # the y columns are a comma- or space-separated list
    plot_y = tuple(output.get("plot_y", "").replace(",", " ").split())
    settings = {name: value for name, value in (
        ("output_format", output.get("format")), ("plot_x", output.get("plot_x")),
        ("plot_y", plot_y)) if value}
    if "path" in output:
        settings["output_path"] = output["path"]
    return settings


def parse_config(text: str) -> SweepSpec:
    """Parse and fully validate a sweep configuration document.  SweepSpec
    judges the values, and an error about a key gets that key's line."""
    sections, lines = _parse_sections(text)
    if "sweep" not in sections:
        raise ConfigError("missing [sweep] section")
    sweep = sections["sweep"]
    for key in _SECTIONS["sweep"]:
        if key not in sweep:
            raise ConfigError(f"missing required key {key!r}")
    try:
        return SweepSpec(sweep["target"], sweep["variable"], _grid(sweep["grid"]),
                         sections.get("fixed", {}),
                         **_output_settings(sections.get("output", {})))
    except ConfigError as err:
        raise ConfigError(str(err), lines.get(err._where)) from None


# ---------------------------------------------------------------------------
# sweep execution

# A target is its value columns plus its outcomes: one per grid value, either
# the numeric cells of an ok row or the "failed:<reason>" status of a failed
# one.  run_sweep alone turns outcomes into rows.

def _outcome(fn, *args):
    """fn(*args), or the failed status of the row error it raises."""
    try:
        return fn(*args)
    except (ValueError, _modesolver.ModeSolverError,
            _antenna.NoResonanceInBandError) as err:
        return f"failed:{err}"


def _make_sheet(params: dict) -> GrapheneSheet:
    return GrapheneSheet(params["chemical_potential_ev"],
                         params["relaxation_time_ps"] * 1e-12,
                         params["temperature_k"])


def _each_row(cells):
    """Outcomes of a target whose cells(params) evaluates one grid value."""
    def outcomes(spec: SweepSpec):
        return [_outcome(cells, {**spec.fixed, spec.variable: value})
                for value in spec.grid]
    return outcomes


def _conductivity_cells(params):
    omega = 2.0 * math.pi * params["frequency_thz"] * 1e12
    sigma = intraband_conductivity(_make_sheet(params), omega)
    return [sigma.real, sigma.imag, abs(sigma), -sigma.imag]


def _antenna_cells(params):
    dipole = _antenna.DipoleGeometry(
        width_m=params["width_um"] * 1e-6,
        total_length_m=params["length_um"] * 1e-6,
        gap_m=params["gap_um"] * 1e-6,
        substrate_permittivity=params["substrate_permittivity"],
        end_correction=params["end_correction"])
    pred = _antenna.resonance_frequency(dipole, _make_sheet(params))
    return [pred.resonance_frequency_hz / 1e12, pred.metal_reference_hz / 1e12,
            pred.miniaturization_factor, pred.efficiency_proxy]


def _scenario_cells(params):
    report = _scenario.fits_footprint(
        params["length_um"] * 1e-6, params["width_um"] * 1e-6,
        _scenario.scenario_by_name(params["scenario"]),
        params["budget_fraction"])
    return [report.footprint_m2, 1.0 if report.fits else 0.0, report.margin]


def _dispersion_outcomes(spec: SweepSpec):
    sheet = _make_sheet(spec.fixed)
    if "preset" in spec.fixed:
        stack = preset_stack(spec.fixed["preset"], sheet)
    else:
        stack = graphene_on_substrate(
            sheet, spec.fixed["substrate_permittivity"],
            spec.fixed["superstrate_permittivity"])
    points = _modesolver.trace_dispersion(stack, [f * 1e12 for f in spec.grid])
    results = []
    for point in points:
        mode = point.solution
        results.append(point.status if mode is None else [
            mode.wavevector.real, mode.wavevector.imag, mode.effective_index,
            mode.guided_wavelength_m, mode.propagation_length_m,
            mode.normalized_propagation_length, mode.guided_wavelength_m / 2.0,
            mode.residual])
    return results


def _stack_outcomes(spec: SweepSpec):
    # stack_metrics_sweep retunes the sheet to each grid value
    sheet = _make_sheet({**spec.fixed, "chemical_potential_ev": 0.0})
    stack = preset_stack(spec.fixed["preset"], sheet)
    rows = _modesolver.stack_metrics_sweep(
        stack, spec.fixed["frequency_thz"] * 1e12, spec.grid)
    return [[row.effective_index, row.normalized_propagation_length,
             row.resonant_length_m] if row.status == "ok" else row.status
            for row in rows]


def _columns(headers: list[str]) -> list[Column]:
    """The columns of "name(unit)" headers."""
    for header in headers:
        if not header.endswith(")") or "(" not in header:
            raise ValueError(f"header without unit annotation: {header!r}")
    return [Column(*header[:-1].split("(", 1)) for header in headers]


# Per target: a one-line summary, the variables it sweeps (the first is the
# command line's default), its [fixed] keys in command-line flag order, the
# keys it may omit though they have no default, its value columns after the
# swept variable's column, and its outcomes.  A [fixed] key is required
# unless _DEFAULTS or "optional" lists it.
_TARGETS: dict[str, dict] = {
    "conductivity": {
        "help": "sheet conductivity sweep",
        "variables": ("frequency_thz", "chemical_potential_ev",
                      "relaxation_time_ps", "temperature_k"),
        "fixed": ("chemical_potential_ev", "relaxation_time_ps",
                  "frequency_thz", "temperature_k"),
        "columns": _columns("sigma_real(S) sigma_imag(S) sigma_abs(S) "
                            "sigma_neg_imag(S)".split()),
        "outcomes": _each_row(_conductivity_cells),
    },
    "dispersion": {
        "help": "mode trace over frequency",
        "variables": ("frequency_thz",),
        "fixed": ("chemical_potential_ev", "relaxation_time_ps",
                  "temperature_k", "preset", "substrate_permittivity",
                  "superstrate_permittivity"),
        "optional": ("preset", "substrate_permittivity",
                     "superstrate_permittivity"),
        "columns": _columns("q_real(rad/m) q_imag(rad/m) n_eff(1) lambda_spp(m) "
                            "propagation_length(m) normalized_lp(1) "
                            "resonant_length(m) residual(1)".split()),
        "outcomes": _dispersion_outcomes,
    },
    "stack": {
        "help": "stack metrics over chemical potential",
        "variables": ("chemical_potential_ev",),
        "fixed": ("preset", "frequency_thz", "relaxation_time_ps",
                  "temperature_k"),
        "columns": _columns("n_eff(1) normalized_lp(1) resonant_length(m)".split()),
        "outcomes": _stack_outcomes,
    },
    "antenna": {
        "help": "dipole resonance sweep",
        "variables": ("length_um", "chemical_potential_ev", "relaxation_time_ps"),
        "fixed": ("length_um", "width_um", "gap_um", "substrate_permittivity",
                  "chemical_potential_ev", "relaxation_time_ps",
                  "temperature_k", "end_correction"),
        "columns": _columns("f_res(THz) f_metal(THz) miniaturization(1) "
                            "efficiency_proxy(1)".split()),
        "outcomes": _each_row(_antenna_cells),
    },
    "scenario": {
        "help": "footprint feasibility sweep",
        "variables": ("length_um",),
        "fixed": ("width_um", "scenario", "budget_fraction"),
        "columns": _columns("footprint(m2) fits(1) margin(1)".split()),
        "outcomes": _each_row(_scenario_cells),
    },
}


def run_sweep(spec: SweepSpec) -> ResultTable:
    """Execute a validated sweep.  Deterministic: identical specs produce
    identical tables (and therefore byte-identical emitted files)."""
    target = _TARGETS[spec.target]
    value_columns = target["columns"]
    results = _outcome(target["outcomes"], spec)
    if isinstance(results, str):
        # a setup error (the fixed sheet or stack) fails every row
        results = [results] * len(spec.grid)
    rows, statuses = [], []
    for value, result in zip(spec.grid, results):
        if not isinstance(result, str):
            # an overflowed or undefined cell fails its row rather than
            # passing as "ok"
            bad = [col.name for col, cell in zip(value_columns, result)
                   if not math.isfinite(cell)]
            if bad:
                result = f"failed:non-finite {bad[0]}"
        if isinstance(result, str):
            rows.append([value] + [None] * len(value_columns))
            statuses.append(result.replace(",", ";").replace("\n", " "))
        else:
            rows.append([value, *result])
            statuses.append("ok")
    return ResultTable([Column(*_VAR_META[spec.variable]), *value_columns],
                       rows, statuses)


# ---------------------------------------------------------------------------
# emitters

def _format_cell(cell: float | str | None) -> str:
    if cell is None:
        return ""
    if isinstance(cell, str):
        return cell.replace(",", ";").replace("\n", " ")
    return f"{cell:.17e}"


def emit_csv(table: ResultTable, path=None) -> str:
    """Render the table as CSV (single linefeed terminators, status column
    last, full round-trip numeric precision); optionally write it to path."""
    header = ",".join([col.header for col in table.columns] + ["status(-)"])
    lines = [header]
    for row, status in zip(table.rows, table.statuses):
        lines.append(",".join([_format_cell(c) for c in row]
                              + [_format_cell(status)]))
    text = "\n".join(lines) + "\n"
    if path is not None:
        _scenario._write_text(path, text, "CSV")
    return text


def _parse_cell(text: str) -> float | str | None:
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def parse_result_csv(text: str) -> ResultTable:
    """Inverse of emit_csv; numeric cells round-trip bit-exactly."""
    lines = [line for line in text.split("\n") if line != ""]
    if not lines:
        raise ValueError("empty CSV")
    headers = lines[0].split(",")
    if headers[-1] != "status(-)":
        raise ValueError("CSV missing trailing status column")
    columns = _columns(headers[:-1])
    rows, statuses = [], []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(columns) + 1:
            raise ValueError(f"row width {len(cells)} != {len(columns) + 1}")
        rows.append([_parse_cell(c) for c in cells[:-1]])
        statuses.append(cells[-1])
    return ResultTable(columns, rows, statuses)


def emit_plotdata(table: ResultTable, x: str, y_columns, path=None) -> str:
    """Whitespace-separated plot blocks, one per y column, blank-line
    separated.  Failed rows are skipped with a comment line."""
    x_values = table.column_values(x)
    blocks = []
    for y in y_columns:
        y_values = table.column_values(y)
        lines = [f"# x={x} y={y}"]
        for i, (xv, yv, status) in enumerate(zip(x_values, y_values,
                                                 table.statuses)):
            if status != "ok" or xv is None or yv is None:
                lines.append(f"# row {i} skipped: {status}")
                continue
            if not isinstance(xv, float) or not isinstance(yv, float):
                raise UnknownColumnError(f"column {x if not isinstance(xv, float) else y} "
                                         "is not numeric")
            lines.append(f"{xv:.17e} {yv:.17e}")
        blocks.append("\n".join(lines))
    text = "\n\n".join(blocks) + "\n"
    if path is not None:
        _scenario._write_text(path, text, "plot data")
    return text
