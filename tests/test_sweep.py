import contextlib
import io
import itertools
import math
import re
import textwrap
from pathlib import Path

import numpy as np
import pytest

from thzplasmon import cli, modesolver, sweep
from thzplasmon import (Column, ConfigError, ResultTable, SweepSpec,
                        UnknownColumnError, emit_csv, emit_plotdata,
                        parse_config, parse_result_csv, run_sweep)

MINIMAL_CONDUCTIVITY = """
[sweep]
target = conductivity
variable = chemical_potential_ev
grid = 0.2 0.4 0.6 0.8 1.0

[fixed]
relaxation_time_ps = 1.0
frequency_thz = 1.0
"""

FIG2_STYLE = """
# conductivity vs frequency, one curve per chemical potential handled by
# separate runs; relaxation time fixed
[sweep]
target = conductivity
variable = frequency_thz
grid = 0.1:5.0:25

[fixed]
chemical_potential_ev = 0.6
relaxation_time_ps = 1.0

[output]
format = plot
plot_x = frequency
plot_y = sigma_real, sigma_neg_imag
"""


# --- parsing -----------------------------------------------------------------

def test_minimal_spec_defaults_temperature():
    spec = parse_config(MINIMAL_CONDUCTIVITY)
    assert spec.target == "conductivity"
    assert spec.variable == "chemical_potential_ev"
    assert spec.grid == (0.2, 0.4, 0.6, 0.8, 1.0)
    assert spec.fixed["temperature_k"] == 300.0
    assert spec.output_format == "csv"


def test_grid_range_form():
    spec = parse_config(MINIMAL_CONDUCTIVITY.replace("0.2 0.4 0.6 0.8 1.0",
                                                     "0.2:1.0:5"))
    assert spec.grid == pytest.approx((0.2, 0.4, 0.6, 0.8, 1.0))
    assert spec.grid[-1] == 1.0


def test_swept_variable_also_fixed_is_error():
    text = MINIMAL_CONDUCTIVITY.replace(
        "relaxation_time_ps = 1.0",
        "relaxation_time_ps = 1.0\nchemical_potential_ev = 0.3")
    with pytest.raises(ConfigError, match="chemical_potential_ev"):
        parse_config(text)


def test_unknown_key_is_error_with_line():
    text = MINIMAL_CONDUCTIVITY.replace("frequency_thz = 1.0",
                                        "frequency_thz = 1.0\nwavelength_nm = 5")
    with pytest.raises(ConfigError, match="wavelength_nm") as excinfo:
        parse_config(text)
    assert "line" in str(excinfo.value)


def test_unknown_section_is_error():
    with pytest.raises(ConfigError, match="solver"):
        parse_config(MINIMAL_CONDUCTIVITY + "\n[solver]\nx = 1\n")


def test_empty_grid_rejected():
    with pytest.raises(ConfigError, match="grid"):
        parse_config(MINIMAL_CONDUCTIVITY.replace("grid = 0.2 0.4 0.6 0.8 1.0",
                                                  "grid ="))


def test_non_monotone_grid_rejected():
    with pytest.raises(ConfigError, match="monotone"):
        parse_config(MINIMAL_CONDUCTIVITY.replace("0.2 0.4 0.6 0.8 1.0",
                                                  "0.2 0.6 0.4"))


def test_missing_required_key():
    with pytest.raises(ConfigError, match="frequency_thz"):
        parse_config(MINIMAL_CONDUCTIVITY.replace("frequency_thz = 1.0", ""))


def test_bad_number_reports_line():
    with pytest.raises(ConfigError, match="relaxation_time_ps"):
        parse_config(MINIMAL_CONDUCTIVITY.replace("relaxation_time_ps = 1.0",
                                                  "relaxation_time_ps = fast"))


_GRID_HEAD = "[sweep]\ntarget = conductivity\nvariable = frequency_thz\n"


@pytest.mark.parametrize("text, message", [
    ("[sweep]\nfrobnicate\n", "line 2: expected 'key = value', got 'frobnicate'"),
    ("target = stack\n[sweep]\n", "line 1: key outside any [section]"),
    ("[sweep]\n = 1\n", "line 2: empty key"),
    (_GRID_HEAD + "grid = 1:2:x\n", "line 4: grid: count must be an integer"),
    (_GRID_HEAD + "grid = 1:2:0\n", "line 4: grid: count must be >= 1"),
    ("[fixed]\nx = 1\n", "missing [sweep] section"),
    (_GRID_HEAD, "missing required key 'grid'"),
])
def test_config_parser_error_texts(text, message):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value) == message


def test_dispersion_needs_exactly_one_stack_choice():
    base = """
[sweep]
target = dispersion
variable = frequency_thz
grid = 1.0 2.0

[fixed]
chemical_potential_ev = 0.2
relaxation_time_ps = 1.0
"""
    with pytest.raises(ConfigError, match="preset"):
        parse_config(base)
    both = base + "preset = G\nsubstrate_permittivity = 3.8\n"
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(both)
    ok = parse_config(base + "preset = G\n")
    assert ok.fixed["preset"] == "G"


@pytest.mark.parametrize("target, variable, fixed, message", [
    ("stack", "chemical_potential_ev", {},
     "missing required key 'preset' for target 'stack'"),
    ("conductivity", "bogus",
     {"chemical_potential_ev": 0.2, "relaxation_time_ps": 1.0},
     "variable: target 'conductivity' sweeps one of"),
    ("bogus", "frequency_thz", {}, "target: expected one of"),
])
def test_hand_built_spec_errors_are_config_errors(target, variable, fixed,
                                                  message):
    with pytest.raises(ConfigError, match=message):
        run_sweep(SweepSpec(target, variable, (1.0,), fixed))


@pytest.mark.parametrize("target, variable, fixed, body", [
    ("dispersion", "frequency_thz",
     {"substrate_permittivity": 3.8, "chemical_potential_ev": 0.2,
      "relaxation_time_ps": 1.0},
     "substrate_permittivity = 3.8\nchemical_potential_ev = 0.2\n"
     "relaxation_time_ps = 1.0\n"),
    ("antenna", "length_um",
     {"width_um": 8.0, "gap_um": 3.0, "substrate_permittivity": 3.8,
      "chemical_potential_ev": 0.2, "relaxation_time_ps": 1.0},
     "width_um = 8\ngap_um = 3\nsubstrate_permittivity = 3.8\n"
     "chemical_potential_ev = 0.2\nrelaxation_time_ps = 1.0\n"),
    ("scenario", "length_um", {"width_um": 8.0, "scenario": "WNoC"},
     "width_um = 8\nscenario = WNoC\n"),
])
def test_hand_built_spec_takes_the_parsers_defaults(target, variable, fixed,
                                                    body):
    parsed = parse_config(f"[sweep]\ntarget = {target}\nvariable = {variable}\n"
                          f"grid = 20\n[fixed]\n{body}")
    spec = SweepSpec(target, variable, (20.0,), fixed)
    assert spec.fixed == parsed.fixed and spec.fixed != fixed
    assert run_sweep(spec) == run_sweep(parsed)


SIGMA_FIXED = {"chemical_potential_ev": 0.2, "relaxation_time_ps": 1.0}


# a fault, the spec that has it (target, variable, grid, fixed, format), the
# [section] key whose line the config reports, the message
@pytest.mark.parametrize("target, variable, grid, fixed, output_format, key, message", [
    ("conductivity", "frequency_thz", (1.0,), {**SIGMA_FIXED, "wavelength_nm": 5.0},
     "csv", "wavelength_nm",
     "unknown key 'wavelength_nm' in [fixed] for target 'conductivity'"),
    ("conductivity", "frequency_thz", (1.0,), {**SIGMA_FIXED, "temperature": 77.0},
     "csv", "temperature",
     "unknown key 'temperature' in [fixed] for target 'conductivity'"),
    ("conductivity", "frequency_thz", (1.0,), {**SIGMA_FIXED, "frequency_thz": 2.0},
     "csv", "frequency_thz",
     "'frequency_thz' is both the swept variable and a fixed parameter"),
    ("conductivity", "frequency_thz", (1.0,),
     {**SIGMA_FIXED, "relaxation_time_ps": "fast"}, "csv", "relaxation_time_ps",
     "relaxation_time_ps: not a number: 'fast'"),
    ("conductivity", "frequency_thz", (1.0,),
     {**SIGMA_FIXED, "chemical_potential_ev": math.inf}, "csv",
     "chemical_potential_ev", "chemical_potential_ev: must be finite"),
    ("conductivity", "frequency_thz", (), SIGMA_FIXED, "csv", "grid",
     "grid: must not be empty"),
    ("conductivity", "frequency_thz", (1.0, math.nan), SIGMA_FIXED, "csv", "grid",
     "grid value: must be finite"),
    ("conductivity", "frequency_thz", (1.0, 3.0, 2.0), SIGMA_FIXED, "csv", "grid",
     "grid: values must be strictly monotone"),
    ("dispersion", "frequency_thz", (2.0, 1.0), {**SIGMA_FIXED, "preset": "G"},
     "csv", "grid", "grid: dispersion traces need an increasing grid"),
    ("stack", "chemical_potential_ev", (0.2,),
     {"preset": "XYZ", "frequency_thz": 4.0, "relaxation_time_ps": 0.6}, "csv",
     "preset", "preset: expected one of ('G', 'H1G', 'H2G'), got 'XYZ'"),
    ("scenario", "length_um", (10.0,), {"width_um": 8.0, "scenario": "Mars"},
     "csv", "scenario", "unknown scenario 'Mars'; expected WNSN, SDM or WNoC"),
    ("conductivity", "frequency_thz", (1.0,), SIGMA_FIXED, "xml", "format",
     "format: expected one of ('csv', 'plot'), got 'xml'"),
], ids=["unknown-fixed-key", "misspelled-temperature", "variable-also-fixed",
        "not-a-number", "not-finite", "empty-grid", "non-finite-grid",
        "non-monotone-grid", "decreasing-dispersion-grid", "unknown-preset",
        "unknown-scenario", "unknown-format"])
def test_hand_built_spec_breaks_the_rules_a_config_breaks(
        target, variable, grid, fixed, output_format, key, message):
    # SweepSpec is the one judge: a spec built in code and a config document
    # with the same fault give the same text, the config's with its line
    with pytest.raises(ConfigError) as built:
        SweepSpec(target, variable, grid, fixed, output_format=output_format)
    assert str(built.value) == message
    text = (f"[sweep]\ntarget = {target}\nvariable = {variable}\n"
            f"grid = {' '.join(map(repr, grid))}\n[fixed]\n"
            + "".join(f"{name} = {value}\n" for name, value in fixed.items())
            + f"[output]\nformat = {output_format}\n")
    with pytest.raises(ConfigError) as parsed:
        parse_config(text)
    line = next(number for number, line in enumerate(text.splitlines(), 1)
                if line.startswith(f"{key} ="))
    assert str(parsed.value) == f"line {line}: {message}"


# an output fault: the SweepSpec fields that carry it, the [output] line that
# carries it in a config (None: an empty plot column in a config sets
# nothing, so only a spec built in code can carry it), the message
@pytest.mark.parametrize("fields, line, message", [
    ({"output_path": ""}, "path =",
     "path: expected a non-empty file path, got ''"),
    ({"plot_x": ""}, None, "plot_x: expected a column name, got ''"),
    ({"plot_y": "sigma_real"}, None,
     "plot_y: expected a tuple of column names, got 'sigma_real'"),
    ({"plot_y": ("sigma_real", "")}, None,
     "plot_y: expected a tuple of column names, got ('sigma_real', '')"),
], ids=["empty-path", "empty-plot-x", "bare-string-plot-y", "empty-plot-y-name"])
def test_hand_built_spec_judges_the_output_fields(fields, line, message):
    with pytest.raises(ConfigError) as built:
        SweepSpec("conductivity", "frequency_thz", (1.0,), SIGMA_FIXED, **fields)
    assert str(built.value) == message
    if line is None:
        return
    text = MINIMAL_CONDUCTIVITY + f"[output]\n{line}\n"
    with pytest.raises(ConfigError) as parsed:
        parse_config(text)
    assert str(parsed.value) == f"line {text.splitlines().index(line) + 1}: {message}"


def test_empty_plot_columns_in_a_config_set_nothing():
    spec = parse_config(MINIMAL_CONDUCTIVITY + "[output]\nformat = plot\n"
                        "plot_x =\nplot_y = ,\n")
    assert (spec.output_format, spec.plot_x, spec.plot_y) == ("plot", None, None)


def test_hand_built_spec_holds_floats():
    spec = SweepSpec("scenario", "length_um", [10, 20],
                     {"width_um": 8, "scenario": "WNoC"})
    assert spec.grid == (10.0, 20.0) and spec.fixed["width_um"] == 8.0
    assert all(type(value) is float for value in spec.grid)
    assert type(spec.fixed["width_um"]) is float


def _readme_block(language: str) -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return re.search(rf"```{language}\n(.*?)```", readme, re.DOTALL).group(1)


def _readme_example() -> str:
    return _readme_block("ini")


def _docstring_example() -> str:
    lines = sweep.__doc__.splitlines()
    block = lines[lines.index("    [sweep]"):]
    return textwrap.dedent("\n".join(itertools.takewhile(
        lambda line: line.startswith("    ") or not line, block)))


@pytest.mark.parametrize("example", [_readme_example, _docstring_example],
                         ids=["readme", "sweep-docstring"])
def test_documented_config_example_parses(example):
    spec = parse_config(example())
    assert (spec.target, spec.fixed["preset"], len(spec.grid)) == ("stack", "H1G", 9)
    assert (spec.output_path, spec.output_format) == ("h1g.csv", "csv")


def test_readme_quick_start_runs():
    # the library quick start, run as written
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(_readme_block("python"), {})
    factor = re.search(r"miniaturization (\S+)", printed.getvalue()).group(1)
    assert float(factor) > 1.0


def test_fig2_style_spec_parses():
    spec = parse_config(FIG2_STYLE)
    assert spec.grid[0] == 0.1 and spec.grid[-1] == 5.0 and len(spec.grid) == 25
    assert spec.plot_y == ("sigma_real", "sigma_neg_imag")


# --- execution ---------------------------------------------------------------

def test_conductivity_sweep_monotone_in_chemical_potential():
    table = run_sweep(parse_config(MINIMAL_CONDUCTIVITY))
    magnitudes = table.column_values("sigma_abs")
    assert all(a < b for a, b in zip(magnitudes, magnitudes[1:]))
    assert table.all_ok


def test_non_finite_cell_fails_its_row(monkeypatch, tmp_path):
    # no natural input reaches this guard (a tiny frequency_thz fails
    # earlier, in the mode solver), so one conductivity overflows by hand
    real_conductivity = sweep.intraband_conductivity

    def overflowing(sheet, omega):
        if sheet.chemical_potential_ev == 0.6:
            return complex(math.inf, 1.0)
        return real_conductivity(sheet, omega)

    monkeypatch.setattr(sweep, "intraband_conductivity", overflowing)
    table = run_sweep(parse_config(MINIMAL_CONDUCTIVITY))
    assert table.statuses == ["ok", "ok", "failed:non-finite sigma_real",
                              "ok", "ok"]
    assert table.rows[2] == [0.6, None, None, None, None]
    assert all(None not in row for i, row in enumerate(table.rows) if i != 2)
    config = tmp_path / "sigma.cfg"
    config.write_text(MINIMAL_CONDUCTIVITY)
    out = tmp_path / "sigma.csv"
    assert cli.main(["sweep", "--config", str(config), "--out", str(out),
                     "--quiet"]) == 2
    assert out.read_text().splitlines()[3].endswith(
        ",,,,failed:non-finite sigma_real")


def test_sweep_row_count_matches_grid_with_failures(monkeypatch):
    monkeypatch.setattr(modesolver, "MAX_ITERATIONS", 2)
    text = """
[sweep]
target = stack
variable = chemical_potential_ev
grid = 0.2 0.4 0.6

[fixed]
preset = G
frequency_thz = 4.0
relaxation_time_ps = 0.6
"""
    table = run_sweep(parse_config(text))
    assert len(table.rows) == 3
    assert all(status.startswith("failed:") for status in table.statuses)
    assert all(row[1] is None for row in table.rows)


def test_antenna_sweep_runs():
    text = """
[sweep]
target = antenna
variable = length_um
grid = 10 20

[fixed]
width_um = 8
gap_um = 3
substrate_permittivity = 3.8
chemical_potential_ev = 0.2
relaxation_time_ps = 1.0
"""
    table = run_sweep(parse_config(text))
    assert table.all_ok
    f_res = table.column_values("f_res")
    assert f_res[0] > f_res[1]


def test_scenario_sweep_runs():
    text = """
[sweep]
target = scenario
variable = length_um
grid = 10 100 200000

[fixed]
scenario = WNoC
width_um = 8
"""
    table = run_sweep(parse_config(text))
    fits = table.column_values("fits")
    assert fits == [1.0, 1.0, 0.0]
    margins = table.column_values("margin")
    assert margins[2] < 1.0 < margins[0]


def test_dispersion_sweep_totality():
    text = """
[sweep]
target = dispersion
variable = frequency_thz
grid = 0.5:3.0:6

[fixed]
preset = G
chemical_potential_ev = 0.2
relaxation_time_ps = 1.0
"""
    table = run_sweep(parse_config(text))
    assert len(table.rows) == 6
    assert table.all_ok
    n_eff = table.column_values("n_eff")
    assert all(b > a for a, b in zip(n_eff, n_eff[1:]))


# --- emitters ----------------------------------------------------------------

def _random_table(rng):
    n_cols = int(rng.integers(1, 5))
    n_rows = int(rng.integers(1, 8))
    columns = [Column(f"col{i}", "1") for i in range(n_cols)]
    rows = []
    statuses = []
    for _ in range(n_rows):
        row = []
        for _ in range(n_cols):
            mantissa = rng.uniform(-1.0, 1.0)
            exponent = int(rng.integers(-30, 30))
            row.append(float(mantissa * 10.0**exponent))
        rows.append(row)
        statuses.append("ok" if rng.uniform() < 0.9 else "failed:solver gave up")
    return ResultTable(columns, rows, statuses)


def test_csv_round_trip_bit_exact_randomized():
    rng = np.random.default_rng(1234)
    for _ in range(200):
        table = _random_table(rng)
        parsed = parse_result_csv(emit_csv(table))
        assert parsed == table


def test_csv_round_trip_with_failed_cells():
    table = ResultTable([Column("a", "m")], [[1.5], [None]],
                        ["ok", "failed:x"])
    parsed = parse_result_csv(emit_csv(table))
    assert parsed == table


@pytest.mark.parametrize("text, message", [
    ("", "empty CSV"),
    ("a(m)\n1.0\n", "CSV missing trailing status column"),
    ("a,status(-)\n", "header without unit annotation: 'a'"),
    ("a(m),status(-)\n1.0,2.0,ok\n", "row width 3 != 2"),
])
def test_parse_result_csv_rejects(text, message):
    with pytest.raises(ValueError) as info:
        parse_result_csv(text)
    assert str(info.value) == message


def test_parse_result_csv_keeps_text_cells():
    table = parse_result_csv("a(m),status(-)\nabc,ok\n")
    assert table == ResultTable([Column("a", "m")], [["abc"]], ["ok"])


def test_csv_format_contract():
    table = run_sweep(parse_config(MINIMAL_CONDUCTIVITY))
    text = emit_csv(table)
    lines = text.split("\n")
    assert text.endswith("\n") and lines[-1] == ""
    header = lines[0].split(",")
    assert header[-1] == "status(-)"
    for item in header:
        assert re.fullmatch(r"[a-z_0-9]+\([^(),]+\)", item), item
    # full round-trip scientific notation
    assert re.fullmatch(r"-?\d\.\d{17}e[+-]\d{2,3}", lines[1].split(",")[0])


def test_csv_deterministic():
    spec = parse_config(MINIMAL_CONDUCTIVITY)
    assert emit_csv(run_sweep(spec)) == emit_csv(run_sweep(spec))


def test_csv_write_and_read_file(tmp_path):
    table = run_sweep(parse_config(MINIMAL_CONDUCTIVITY))
    path = tmp_path / "out.csv"
    text = emit_csv(table, path)
    assert path.read_bytes() == text.encode()


# an output is overwritten in place, so a longer old file must not keep a tail
@pytest.mark.parametrize("stale", [b"9" * 4096, b"x,y\n"],
                         ids=["longer", "shorter"])
@pytest.mark.parametrize("emit", [
    emit_csv,
    lambda table, path: emit_plotdata(table, "chemical_potential",
                                      ("sigma_real",), path),
], ids=["csv", "plot"])
def test_write_over_an_existing_file_holds_only_the_text(tmp_path, emit, stale):
    table = run_sweep(parse_config(MINIMAL_CONDUCTIVITY))
    path = tmp_path / "out.csv"
    path.write_bytes(stale)
    text = emit(table, path)
    assert len(stale) != len(text.encode())
    assert path.read_bytes() == text.encode()


def test_plotdata_blocks():
    table = run_sweep(parse_config(MINIMAL_CONDUCTIVITY))
    text = emit_plotdata(table, "chemical_potential", ("sigma_real", "sigma_abs"))
    blocks = text.strip().split("\n\n")
    assert len(blocks) == 2
    assert blocks[0].startswith("# x=chemical_potential y=sigma_real")
    assert blocks[1].startswith("# x=chemical_potential y=sigma_abs")
    data_lines = [l for l in blocks[0].split("\n") if not l.startswith("#")]
    assert len(data_lines) == 5
    assert all(len(l.split()) == 2 for l in data_lines)


def test_plotdata_skips_failed_rows_with_comment():
    table = ResultTable([Column("x", "1"), Column("y", "1")],
                        [[1.0, 2.0], [2.0, None]], ["ok", "failed:diverged"])
    text = emit_plotdata(table, "x", ("y",))
    lines = text.strip().split("\n")
    assert any(l.startswith("# row 1 skipped: failed:diverged") for l in lines)
    assert sum(1 for l in lines if not l.startswith("#")) == 1


def test_plotdata_all_failed_rows_gives_comments_only():
    table = ResultTable([Column("x", "1"), Column("y", "1")],
                        [[1.0, None], [2.0, None]],
                        ["failed:a", "failed:b"])
    text = emit_plotdata(table, "x", ("y",))
    assert all(line.startswith("#") for line in text.strip().split("\n"))


def test_plotdata_unknown_column():
    table = run_sweep(parse_config(MINIMAL_CONDUCTIVITY))
    with pytest.raises(UnknownColumnError):
        emit_plotdata(table, "chemical_potential", ("nope",))
    with pytest.raises(UnknownColumnError):
        emit_plotdata(table, "nope", ("sigma_real",))


@pytest.mark.parametrize("x, y", [("x", "name"), ("name", "x")])
def test_plotdata_text_column_is_not_numeric(x, y):
    table = ResultTable([Column("x", "1"), Column("name", "-")], [[1.0, "abc"]],
                        ["ok"])
    with pytest.raises(UnknownColumnError) as info:
        emit_plotdata(table, x, (y,))
    assert info.value.args == ("column name is not numeric",)


def test_table_must_be_rectangular():
    with pytest.raises(ValueError):
        ResultTable([Column("a", "1")], [[1.0, 2.0]], ["ok"])
    with pytest.raises(ValueError):
        ResultTable([Column("a", "1")], [[1.0]], [])
