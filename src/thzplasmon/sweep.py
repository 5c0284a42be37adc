"""Config-driven batch sweeps with deterministic CSV and plot-data output.

The configuration format is a flat key-value document with section headers,
chosen so regression fixtures diff cleanly:

    [sweep]
    target = stack                  # conductivity|dispersion|stack|antenna|scenario
    variable = chemical_potential_ev
    grid = 0.2:1.0:9                # start:stop:count, or explicit values

    [fixed]
    preset = H1G
    frequency_thz = 4.0
    relaxation_time_ps = 0.6

    [output]
    path = h1g.csv
    format = csv                    # or plot

Unknown sections or keys are errors, not warnings.  Sweeps never abort on a
row failure, whether the solver fails, an input is invalid (a negative
chemical potential, a zero frequency, a dipole shorter than its gap) or a
result is not finite: the row is kept with status "failed:<reason>" and
empty numeric cells, and an invalid fixed sheet or stack fails every row.
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
from .modesolver import DEFAULT_MAX_ITERATIONS, DEFAULT_TOLERANCE
from .stacks import PRESET_NAMES, graphene_on_substrate, preset_stack

FORMATS = ("csv", "plot")


class ConfigError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


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
    output_format: str = "csv"
    plot_x: str | None = None
    plot_y: tuple[str, ...] | None = None


# ---------------------------------------------------------------------------
# configuration parsing

_VAR_META = {
    "chemical_potential_ev": ("chemical_potential", "eV"),
    "relaxation_time_ps": ("relaxation_time", "ps"),
    "frequency_thz": ("frequency", "THz"),
    "temperature_k": ("temperature", "K"),
    "length_um": ("length", "um"),
}

# keys kept as text; everything else in [fixed] parses as a float
_STR_KEYS = {"preset", "scenario"}

_SECTIONS = ("sweep", "fixed", "output")


def _parse_sections(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    sections: dict[str, dict[str, tuple[str, int]]] = {}
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
        sections[current][key] = (value, lineno)
    return sections


def _parse_float(raw: str, key: str, line: int | None) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{key}: not a number: {raw!r}", line) from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: must be finite", line)
    return value


def _parse_grid(raw: str, line: int | None) -> tuple[float, ...]:
    raw = raw.strip()
    if not raw:
        raise ConfigError("grid: must not be empty", line)
    if ":" in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise ConfigError("grid: range form is start:stop:count", line)
        start = _parse_float(parts[0], "grid start", line)
        stop = _parse_float(parts[1], "grid stop", line)
        try:
            count = int(parts[2])
        except ValueError:
            raise ConfigError("grid: count must be an integer", line) from None
        if count < 1:
            raise ConfigError("grid: count must be >= 1", line)
        if count == 1:
            values = (start,)
        else:
            step = (stop - start) / (count - 1)
            values = tuple(start + i * step for i in range(count - 1)) + (stop,)
    else:
        tokens = raw.replace(",", " ").split()
        values = tuple(_parse_float(t, "grid value", line) for t in tokens)
    if len(values) > 1:
        increasing = all(a < b for a, b in zip(values, values[1:]))
        decreasing = all(a > b for a, b in zip(values, values[1:]))
        if not (increasing or decreasing):
            raise ConfigError("grid: values must be strictly monotone", line)
    return values


def _build_spec(sections: dict[str, dict[str, tuple[str, int | None]]]
                ) -> SweepSpec:
    if "sweep" not in sections:
        raise ConfigError("missing [sweep] section")
    sweep = dict(sections["sweep"])
    fixed_raw = dict(sections.get("fixed", {}))
    output = dict(sections.get("output", {}))

    def take(mapping, key, required=False):
        if key not in mapping:
            if required:
                raise ConfigError(f"missing required key {key!r}")
            return None, None
        return mapping.pop(key)

    target_raw, target_line = take(sweep, "target", required=True)
    if target_raw not in _TARGETS:
        raise ConfigError(f"target: expected one of {tuple(_TARGETS)}, "
                          f"got {target_raw!r}", target_line)
    schema = _TARGETS[target_raw]

    variable_raw, variable_line = take(sweep, "variable", required=True)
    if variable_raw not in schema["variables"]:
        raise ConfigError(
            f"variable: target {target_raw!r} sweeps one of "
            f"{sorted(schema['variables'])}, got {variable_raw!r}", variable_line)

    grid_raw, grid_line = take(sweep, "grid", required=True)
    grid = _parse_grid(grid_raw, grid_line)
    if target_raw == "dispersion" and len(grid) > 1 and grid[0] > grid[-1]:
        raise ConfigError("grid: dispersion traces need an increasing grid",
                          grid_line)
    for key, (_, line) in sweep.items():
        raise ConfigError(f"unknown key {key!r} in [sweep]", line)

    if variable_raw in fixed_raw:
        _, line = fixed_raw[variable_raw]
        raise ConfigError(
            f"{variable_raw!r} is both the swept variable and a fixed parameter",
            line)

    fixed: dict[str, float | str] = {}
    for key, (required, default) in schema["fixed"].items():
        if key == variable_raw:
            continue
        if key in fixed_raw:
            raw, line = fixed_raw.pop(key)
            if key in _STR_KEYS:
                fixed[key] = raw
            else:
                fixed[key] = _parse_float(raw, key, line)
        elif required:
            raise ConfigError(f"missing required key {key!r} for target {target_raw!r}")
        elif default is not None:
            fixed[key] = default
    for key, (_, line) in fixed_raw.items():
        raise ConfigError(f"unknown key {key!r} in [fixed] for target {target_raw!r}",
                          line)

    if target_raw == "dispersion":
        has_preset = "preset" in fixed
        has_custom = "substrate_permittivity" in fixed
        if has_preset == has_custom:
            raise ConfigError(
                "dispersion needs exactly one of 'preset' or 'substrate_permittivity'")
        if not has_custom and "superstrate_permittivity" in fixed:
            raise ConfigError(
                "superstrate_permittivity only applies with substrate_permittivity")
        if has_custom:
            fixed.setdefault("superstrate_permittivity", 1.0)
    if "preset" in fixed and fixed["preset"] not in PRESET_NAMES:
        raise ConfigError(f"preset: expected one of {PRESET_NAMES}, "
                          f"got {fixed['preset']!r}")
    if "scenario" in fixed:
        try:
            _scenario.scenario_by_name(str(fixed["scenario"]))
        except ValueError as err:
            raise ConfigError(str(err)) from None

    path_raw, _ = take(output, "path")
    format_raw, format_line = take(output, "format")
    output_format = format_raw or "csv"
    if output_format not in FORMATS:
        raise ConfigError(f"format: expected one of {FORMATS}, got {format_raw!r}",
                          format_line)
    plot_x_raw, _ = take(output, "plot_x")
    plot_y_raw, _ = take(output, "plot_y")
    for key, (_, line) in output.items():
        raise ConfigError(f"unknown key {key!r} in [output]", line)
    plot_y = tuple(t for t in plot_y_raw.replace(",", " ").split()) if plot_y_raw else None

    return SweepSpec(
        target=target_raw,
        variable=variable_raw,
        grid=grid,
        fixed=fixed,
        output_path=path_raw,
        output_format=output_format,
        plot_x=plot_x_raw,
        plot_y=plot_y,
    )


def parse_config(text: str) -> SweepSpec:
    """Parse and fully validate a sweep configuration document."""
    return _build_spec(_parse_sections(text))


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
    return GrapheneSheet(float(params["chemical_potential_ev"]),
                         float(params["relaxation_time_ps"]) * 1e-12,
                         float(params.get("temperature_k", DEFAULT_TEMPERATURE_K)))


def _each_row(cells):
    """Outcomes of a target whose cells(params, tolerance, max_iterations)
    evaluates one grid value."""
    def outcomes(spec: SweepSpec, tolerance: float, max_iterations: int):
        return [_outcome(cells, {**spec.fixed, spec.variable: value},
                         tolerance, max_iterations) for value in spec.grid]
    return outcomes


def _conductivity_cells(params, tolerance, max_iterations):
    omega = 2.0 * math.pi * float(params["frequency_thz"]) * 1e12
    sigma = intraband_conductivity(_make_sheet(params), omega)
    return [sigma.real, sigma.imag, abs(sigma), -sigma.imag]


def _antenna_cells(params, tolerance, max_iterations):
    dipole = _antenna.DipoleGeometry(
        width_m=float(params["width_um"]) * 1e-6,
        total_length_m=float(params["length_um"]) * 1e-6,
        gap_m=float(params["gap_um"]) * 1e-6,
        substrate_permittivity=float(params["substrate_permittivity"]),
        end_correction=float(params.get("end_correction", 1.0)))
    pred = _antenna.resonance_frequency(
        dipole, _make_sheet(params),
        tolerance=tolerance, max_iterations=max_iterations)
    return [pred.resonance_frequency_hz / 1e12, pred.metal_reference_hz / 1e12,
            pred.miniaturization_factor, pred.efficiency_proxy]


def _scenario_cells(params, tolerance, max_iterations):
    report = _scenario.fits_footprint(
        params["length_um"] * 1e-6, float(params["width_um"]) * 1e-6,
        _scenario.scenario_by_name(str(params["scenario"])),
        float(params.get("budget_fraction", 1.0)))
    return [report.footprint_m2, 1.0 if report.fits else 0.0, report.margin]


def _dispersion_outcomes(spec: SweepSpec, tolerance: float, max_iterations: int):
    sheet = _make_sheet(spec.fixed)
    if "preset" in spec.fixed:
        stack = preset_stack(str(spec.fixed["preset"]), sheet)
    else:
        stack = graphene_on_substrate(
            sheet, float(spec.fixed["substrate_permittivity"]),
            float(spec.fixed.get("superstrate_permittivity", 1.0)))
    points = _modesolver.trace_dispersion(
        stack, [f * 1e12 for f in spec.grid],
        tolerance=tolerance, max_iterations=max_iterations)
    results = []
    for point in points:
        mode = point.solution
        results.append(point.status if mode is None else [
            mode.wavevector.real, mode.wavevector.imag, mode.effective_index,
            mode.guided_wavelength_m, mode.propagation_length_m,
            mode.normalized_propagation_length, mode.guided_wavelength_m / 2.0,
            mode.residual])
    return results


def _stack_outcomes(spec: SweepSpec, tolerance: float, max_iterations: int):
    # stack_metrics_sweep retunes the sheet to each grid value
    sheet = _make_sheet({**spec.fixed, "chemical_potential_ev": 0.0})
    stack = preset_stack(str(spec.fixed["preset"]), sheet)
    rows = _modesolver.stack_metrics_sweep(
        stack, float(spec.fixed["frequency_thz"]) * 1e12, spec.grid,
        tolerance=tolerance, max_iterations=max_iterations)
    return [[row.effective_index, row.normalized_propagation_length,
             row.resonant_length_m] if row.status == "ok" else row.status
            for row in rows]


def _columns(headers: str) -> tuple[Column, ...]:
    """Columns from space-separated "name(unit)" headers."""
    return tuple(Column(*header[:-1].split("(")) for header in headers.split())


# Per target: a one-line summary, the variables it sweeps (the first is the
# command line's default), its [fixed] keys as key -> (required, default),
# its value columns after the swept variable's column, and its outcomes.
_TARGETS: dict[str, dict] = {
    "conductivity": {
        "help": "sheet conductivity sweep",
        "variables": ("frequency_thz", "chemical_potential_ev",
                      "relaxation_time_ps", "temperature_k"),
        "fixed": {
            "chemical_potential_ev": (True, None),
            "relaxation_time_ps": (True, None),
            "frequency_thz": (True, None),
            "temperature_k": (False, DEFAULT_TEMPERATURE_K),
        },
        "columns": _columns("sigma_real(S) sigma_imag(S) sigma_abs(S) "
                            "sigma_neg_imag(S)"),
        "outcomes": _each_row(_conductivity_cells),
    },
    "dispersion": {
        "help": "mode trace over frequency",
        "variables": ("frequency_thz",),
        "fixed": {
            "chemical_potential_ev": (True, None),
            "relaxation_time_ps": (True, None),
            "temperature_k": (False, DEFAULT_TEMPERATURE_K),
            "preset": (False, None),
            "substrate_permittivity": (False, None),
            "superstrate_permittivity": (False, None),
        },
        "columns": _columns("q_real(rad/m) q_imag(rad/m) n_eff(1) lambda_spp(m) "
                            "propagation_length(m) normalized_lp(1) "
                            "resonant_length(m) residual(1)"),
        "outcomes": _dispersion_outcomes,
    },
    "stack": {
        "help": "stack metrics over chemical potential",
        "variables": ("chemical_potential_ev",),
        "fixed": {
            "preset": (True, None),
            "frequency_thz": (True, None),
            "relaxation_time_ps": (True, None),
            "temperature_k": (False, DEFAULT_TEMPERATURE_K),
        },
        "columns": _columns("n_eff(1) normalized_lp(1) resonant_length(m)"),
        "outcomes": _stack_outcomes,
    },
    "antenna": {
        "help": "dipole resonance sweep",
        "variables": ("length_um", "chemical_potential_ev", "relaxation_time_ps"),
        "fixed": {
            "length_um": (True, None),
            "width_um": (True, None),
            "gap_um": (True, None),
            "substrate_permittivity": (True, None),
            "chemical_potential_ev": (True, None),
            "relaxation_time_ps": (True, None),
            "temperature_k": (False, DEFAULT_TEMPERATURE_K),
            "end_correction": (False, 1.0),
        },
        "columns": _columns("f_res(THz) f_metal(THz) miniaturization(1) "
                            "efficiency_proxy(1)"),
        "outcomes": _each_row(_antenna_cells),
    },
    "scenario": {
        "help": "footprint feasibility sweep",
        "variables": ("length_um",),
        "fixed": {
            "width_um": (True, None),
            "scenario": (True, None),
            "budget_fraction": (False, 1.0),
        },
        "columns": _columns("footprint(m2) fits(1) margin(1)"),
        "outcomes": _each_row(_scenario_cells),
    },
}


def run_sweep(spec: SweepSpec, *, tolerance: float = DEFAULT_TOLERANCE,
              max_iterations: int = DEFAULT_MAX_ITERATIONS) -> ResultTable:
    """Execute a validated sweep.  Deterministic: identical specs produce
    identical tables (and therefore byte-identical emitted files)."""
    if spec.target not in _TARGETS:
        raise ConfigError(f"unknown target {spec.target!r}")
    target = _TARGETS[spec.target]
    value_columns = target["columns"]
    results = _outcome(target["outcomes"], spec, tolerance, max_iterations)
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
    columns = []
    headers = lines[0].split(",")
    if headers[-1] != "status(-)":
        raise ValueError("CSV missing trailing status column")
    for header in headers[:-1]:
        if not header.endswith(")") or "(" not in header:
            raise ValueError(f"header without unit annotation: {header!r}")
        name, _, unit = header[:-1].partition("(")
        columns.append(Column(name, unit))
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
    names = [col.name for col in table.columns]
    if x not in names:
        raise UnknownColumnError(x)
    y_list = list(y_columns)
    for y in y_list:
        if y not in names:
            raise UnknownColumnError(y)
    x_values = table.column_values(x)
    blocks = []
    for y in y_list:
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
