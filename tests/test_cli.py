import contextlib
import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thzplasmon import modesolver, parse_result_csv
from thzplasmon.cli import main

CONFIG = """
[sweep]
target = conductivity
variable = frequency_thz
grid = 0.5 1.0 2.0

[fixed]
chemical_potential_ev = 0.6
relaxation_time_ps = 1.0
"""


def test_sweep_from_config_file(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    out = tmp_path / "out.csv"
    config.write_text(CONFIG + f"\n[output]\npath = {out}\n")
    assert main(["sweep", "--config", str(config), "--quiet"]) == 0
    table = parse_result_csv(out.read_text())
    assert len(table.rows) == 3
    assert table.all_ok


def test_sweep_rerun_byte_identical(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(CONFIG)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", str(config), "--out", str(out1), "--quiet"]) == 0
    assert main(["sweep", "--config", str(config), "--out", str(out2), "--quiet"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_config_error_exit_code(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text(CONFIG.replace("frequency_thz", "wavelength_nm"))
    assert main(["sweep", "--config", str(config)]) == 1
    assert "config error" in capsys.readouterr().err


def test_missing_config_file_exit_code(tmp_path):
    assert main(["sweep", "--config", str(tmp_path / "absent.cfg")]) == 1


def test_non_utf8_config_is_read_error(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_bytes(CONFIG.encode() + b"# caf\xe9\n")
    assert main(["sweep", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("thzplasmon: cannot read config: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["presets", "--csv"],
    ["sweep", "--config", "CONFIG", "--out"],
    ["sweep", "--config", "CONFIG", "--format", "plot", "--out"],
])
def test_unwritable_output_path_is_one_error_line(tmp_path, capsys, argv):
    config = tmp_path / "run.cfg"
    config.write_text(CONFIG)
    argv = [str(config) if arg == "CONFIG" else arg for arg in argv]
    assert main(argv + [str(tmp_path / "absent" / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("thzplasmon: cannot write ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_usage_error_exit_code():
    assert main(["sweep"]) == 1
    assert main(["frobnicate"]) == 1


def test_direct_subcommand_stdout(capsys):
    code = main(["conductivity", "--grid", "0.5 1.0",
                 "--chemical-potential-ev", "0.6",
                 "--relaxation-time-ps", "1", "--quiet"])
    assert code == 0
    table = parse_result_csv(capsys.readouterr().out)
    assert [c.name for c in table.columns][:2] == ["frequency", "sigma_real"]


def test_failed_rows_exit_code(capsys, monkeypatch):
    # iteration cap too small for any convergence
    monkeypatch.setattr(modesolver, "MAX_ITERATIONS", 2)
    code = main(["stack", "--preset", "G", "--frequency-thz", "4",
                 "--relaxation-time-ps", "0.6", "--grid", "0.2 0.4",
                 "--quiet"])
    assert code == 2
    table = parse_result_csv(capsys.readouterr().out)
    assert all(status.startswith("failed:") for status in table.statuses)


def test_plot_format(capsys):
    code = main(["conductivity", "--grid", "0.5 1.0 2.0",
                 "--chemical-potential-ev", "0.6", "--relaxation-time-ps", "1",
                 "--format", "plot", "--plot-y", "sigma_real,sigma_neg_imag",
                 "--quiet"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("# x=frequency") == 2


def test_plot_of_the_status_column_is_unknown_column(capsys):
    code = main(["conductivity", "--grid", "1", "--chemical-potential-ev", "0.2",
                 "--relaxation-time-ps", "1", "--format", "plot",
                 "--plot-y", "status"])
    assert code == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "thzplasmon: unknown column: 'status'\n")


def test_antenna_subcommand(capsys):
    code = main(["antenna", "--grid", "15 25", "--width-um", "8",
                 "--gap-um", "3", "--substrate-permittivity", "3.8",
                 "--chemical-potential-ev", "0.2", "--relaxation-time-ps", "1",
                 "--quiet"])
    assert code == 0
    table = parse_result_csv(capsys.readouterr().out)
    f_res = table.column_values("f_res")
    assert f_res[0] > f_res[1]


def _failed_first_row(capsys, argv, rows):
    assert main(argv + ["--quiet"]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    table = parse_result_csv(captured.out)
    assert len(table.rows) == rows
    assert table.statuses[0].startswith("failed:")
    assert all(status == "ok" for status in table.statuses[1:])


def test_conductivity_invalid_row_is_failed_row(capsys):
    _failed_first_row(capsys, [
        "conductivity", "--variable", "chemical_potential_ev",
        "--grid", "-0.1 0.1 0.2", "--relaxation-time-ps", "1",
        "--frequency-thz", "1"], rows=3)


def test_antenna_invalid_row_is_failed_row(capsys):
    # a 2 um dipole cannot hold a 3 um feed gap
    _failed_first_row(capsys, [
        "antenna", "--grid", "2 20", "--width-um", "8", "--gap-um", "3",
        "--substrate-permittivity", "3.8", "--chemical-potential-ev", "0.2",
        "--relaxation-time-ps", "1"], rows=2)


def test_presets_output(tmp_path, capsys):
    csv_path = tmp_path / "table.csv"
    assert main(["presets", "--csv", str(csv_path), "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "H2G" in out and "WNoC" in out
    lines = csv_path.read_text().strip().split("\n")
    assert len(lines) == 4
    assert lines[1].startswith("WNSN,")


PRESETS_TEXT = """\
Radiating-element stack presets (top cladding first):
  G   : vacuum | sheet | LIM eps_r=3.8 (semi-infinite)
  H1G : vacuum | sheet | HIM eps_r=11.9 (10 um) | LIM eps_r=3.8
  H2G : vacuum | HIM (5 um) | sheet | HIM (5 um) | LIM eps_r=3.8
Other stacks are built from DielectricLayer and LayeredStack via the API.

Area-constrained application envelopes:
  WNSN: node size 1e-12-1e-10 m2, tx range 0.001-1 m, data rate 1e+06-1e+08 bit/s
  SDM : node size 1e-08-0.0001 m2, tx range 0.001-1 m, data rate 1e+07-1e+09 bit/s
  WNoC: node size 1e-08-1e-06 m2, tx range 0.001-0.1 m, data rate 1e+10-1e+11 bit/s
"""


def test_presets_text_is_pinned(capsys):
    assert main(["presets"]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (PRESETS_TEXT, "")


def test_presets_csv_reports_its_path(tmp_path, capsys):
    csv_path = tmp_path / "table.csv"
    assert main(["presets", "--csv", str(csv_path)]) == 0
    assert capsys.readouterr().err == f"scenario table written to {csv_path}\n"
    assert csv_path.exists()


def test_summary_line_on_stderr(capsys):
    main(["conductivity", "--grid", "1.0", "--chemical-potential-ev", "0.2",
          "--relaxation-time-ps", "1"])
    assert "1 rows, 0 failed" in capsys.readouterr().err


def test_shipped_configs_run(tmp_path):
    from pathlib import Path

    config_dir = Path(__file__).resolve().parents[1] / "configs"
    configs = sorted(config_dir.glob("*.cfg"))
    assert configs
    for name in configs:
        out = tmp_path / (name.stem + ".csv")
        code = main(["sweep", "--config", str(name), "--out", str(out), "--quiet"])
        assert code == 0, name
        assert parse_result_csv(out.read_text()).all_ok, name


# --- row contract: invalid inputs are failed rows, never tracebacks ---------

@pytest.mark.parametrize("argv, failed_rows", [
    (["scenario", "--grid", "-1 5", "--scenario", "SDM", "--width-um", "8"],
     [0]),
    (["scenario", "--grid", "1 5", "--scenario", "SDM", "--width-um", "8",
      "--budget-fraction", "0"], [0, 1]),
    (["dispersion", "--grid", "0 1", "--preset", "G",
      "--chemical-potential-ev", "0.2", "--relaxation-time-ps", "1"], [0]),
    (["dispersion", "--grid", "1 2", "--preset", "G",
      "--chemical-potential-ev", "-0.2", "--relaxation-time-ps", "1"], [0, 1]),
    (["dispersion", "--grid", "1 2", "--substrate-permittivity", "0.5",
      "--chemical-potential-ev", "0.2", "--relaxation-time-ps", "1"], [0, 1]),
    (["stack", "--grid", "-0.1 0.2", "--preset", "G", "--frequency-thz", "4",
      "--relaxation-time-ps", "0.6"], [0]),
    (["stack", "--grid", "0.1 0.2", "--preset", "G", "--frequency-thz", "0",
      "--relaxation-time-ps", "0.6"], [0, 1]),
    (["stack", "--grid", "0.1 0.2", "--preset", "G", "--frequency-thz", "4",
      "--relaxation-time-ps", "0"], [0, 1]),
    # tau = 1e-312 s: sigma = 0, which the quasi-static seed cannot invert
    (["dispersion", "--grid", "1", "--preset", "G",
      "--chemical-potential-ev", "0.2", "--relaxation-time-ps", "1e-300"], [0]),
    (["antenna", "--grid", "20", "--width-um", "8", "--gap-um", "3",
      "--substrate-permittivity", "3.8", "--chemical-potential-ev", "0.2",
      "--relaxation-time-ps", "1e-300"], [0]),
    (["stack", "--grid", "0.2", "--preset", "G", "--frequency-thz", "1e-300",
      "--relaxation-time-ps", "1e-300", "--temperature-k", "1e-300"], [0]),
    # the Drude weight overflows, so every sigma cell would be nan
    (["conductivity", "--grid", "1", "--chemical-potential-ev", "1e300",
      "--relaxation-time-ps", "1"], [0]),
    # the footprint overflows to inf
    (["scenario", "--grid", "1e300", "--width-um", "1e300", "--scenario", "SDM"],
     [0]),
    # T = 1e-320 K: k_B T underflows to 0 J, which the Drude weight divides by
    (["stack", "--grid", "0.2", "--preset", "H1G", "--frequency-thz", "4",
      "--relaxation-time-ps", "1", "--temperature-k", "1e-320"], [0]),
    (["dispersion", "--grid", "1 2", "--preset", "G",
      "--chemical-potential-ev", "0.2", "--relaxation-time-ps", "1",
      "--temperature-k", "1e-320"], [0, 1]),
    (["antenna", "--grid", "20", "--width-um", "8", "--gap-um", "3",
      "--substrate-permittivity", "3.8", "--chemical-potential-ev", "0.2",
      "--relaxation-time-ps", "1", "--temperature-k", "1e-320"], [0]),
    (["conductivity", "--variable", "chemical_potential_ev", "--grid", "0.2",
      "--relaxation-time-ps", "1", "--frequency-thz", "1",
      "--temperature-k", "1e-320"], [0]),
], ids=["scenario-negative-length", "scenario-zero-budget",
        "dispersion-zero-frequency", "dispersion-negative-potential",
        "dispersion-substrate-below-vacuum", "stack-negative-potential",
        "stack-zero-frequency", "stack-zero-relaxation-time",
        "dispersion-degenerate-sheet", "antenna-degenerate-sheet",
        "stack-degenerate-sheet", "conductivity-overflowing-cells",
        "scenario-overflowing-footprint", "stack-underflowing-thermal-energy",
        "dispersion-underflowing-thermal-energy",
        "antenna-underflowing-thermal-energy",
        "conductivity-underflowing-thermal-energy"])
def test_invalid_input_is_failed_row(capsys, argv, failed_rows):
    assert main(argv + ["--quiet"]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    table = parse_result_csv(captured.out)
    assert len(table.rows) == len(argv[argv.index("--grid") + 1].split())
    for i, status in enumerate(table.statuses):
        if i in failed_rows:
            assert status.startswith("failed:"), status
            assert table.rows[i][1:] == [None] * (len(table.columns) - 1)
        else:
            assert status == "ok"


def test_missing_required_flag_is_config_error(capsys):
    assert main(["antenna", "--grid", "15 25", "--gap-um", "3",
                 "--substrate-permittivity", "3.8",
                 "--chemical-potential-ev", "0.2",
                 "--relaxation-time-ps", "1"]) == 1
    assert ("config error: missing required key 'width_um'"
            in capsys.readouterr().err)


@pytest.mark.parametrize("argv, message", [
    (["scenario", "--grid", "100", "--width-um", "8",
      "--scenario", "WNoC\nbudget_fraction = 0.01"], "unknown scenario"),
    (["stack", "--grid", "0.2", "--preset", "G\nfrequency_thz = 9",
      "--relaxation-time-ps", "0.6"], "missing required key 'frequency_thz'"),
], ids=["scenario-sets-budget", "preset-sets-frequency"])
def test_flag_value_cannot_set_another_key(capsys, argv, message):
    # a newline in a flag value stays inside that value
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("thzplasmon: config error: ") \
        and message in captured.err
    assert "line " not in captured.err


# --- output identity ----------------------------------------------------------

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
DATA_DIR = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIG_DIR.glob("*.cfg")))
def test_shipped_config_csv_matches_reference(tmp_path, name):
    # the shipped configs' output is pinned byte for byte; a reference
    # changes only with an intended change of the physics or the format
    out = tmp_path / f"{name}.csv"
    assert main(["sweep", "--config", str(CONFIG_DIR / f"{name}.cfg"),
                 "--out", str(out), "--quiet"]) == 0
    assert out.read_bytes() == (DATA_DIR / f"{name}.csv").read_bytes()


PARITY = {
    "conductivity": (
        ["--variable", "chemical_potential_ev", "--grid", "0.2:1.0:5",
         "--relaxation-time-ps", "1", "--frequency-thz", "2",
         "--temperature-k", "77"],
        "variable = chemical_potential_ev\ngrid = 0.2:1.0:5\n[fixed]\n"
        "relaxation_time_ps = 1\nfrequency_thz = 2\ntemperature_k = 77\n"),
    "dispersion": (
        ["--grid", "0.5 1 2", "--substrate-permittivity", "3.8",
         "--superstrate-permittivity", "1.5", "--chemical-potential-ev", "0.4",
         "--relaxation-time-ps", "1"],
        "variable = frequency_thz\ngrid = 0.5 1 2\n[fixed]\n"
        "substrate_permittivity = 3.8\nsuperstrate_permittivity = 1.5\n"
        "chemical_potential_ev = 0.4\nrelaxation_time_ps = 1\n"),
    "stack": (
        ["--grid", "0.2 0.5", "--preset", "H1G", "--frequency-thz", "4",
         "--relaxation-time-ps", "0.6"],
        "variable = chemical_potential_ev\ngrid = 0.2 0.5\n[fixed]\n"
        "preset = H1G\nfrequency_thz = 4\nrelaxation_time_ps = 0.6\n"),
    "antenna": (
        ["--variable", "relaxation_time_ps", "--grid", "0.5 1", "--length-um",
         "20", "--width-um", "8", "--gap-um", "3", "--substrate-permittivity",
         "3.8", "--chemical-potential-ev", "0.2", "--end-correction", "0.9"],
        "variable = relaxation_time_ps\ngrid = 0.5 1\n[fixed]\nlength_um = 20\n"
        "width_um = 8\ngap_um = 3\nsubstrate_permittivity = 3.8\n"
        "chemical_potential_ev = 0.2\nend_correction = 0.9\n"),
    "scenario": (
        ["--grid", "1 50 500", "--scenario", "WNoC", "--width-um", "8",
         "--budget-fraction", "0.5"],
        "variable = length_um\ngrid = 1 50 500\n[fixed]\nscenario = WNoC\n"
        "width_um = 8\nbudget_fraction = 0.5\n"),
}


@pytest.mark.parametrize("target", sorted(PARITY))
def test_direct_subcommand_matches_config(tmp_path, target):
    flags, body = PARITY[target]
    config = tmp_path / "run.cfg"
    config.write_text(f"[sweep]\ntarget = {target}\n{body}")
    direct, swept = tmp_path / "direct.csv", tmp_path / "sweep.csv"
    code = main([target, *flags, "--out", str(direct), "--quiet"])
    assert main(["sweep", "--config", str(config), "--out", str(swept),
                 "--quiet"]) == code
    assert direct.read_bytes() == swept.read_bytes()
    assert len(parse_result_csv(direct.read_text()).rows) > 1


# --- fuzzed direct subcommands -----------------------------------------------

POOL = ("-1", "0", "1e-320", "1e-300", "1e-9", "0.2", "1", "3.8", "12", "1e6", "1e300")
TEXT_VALUES = {"preset": ("G", "H1G", "H2G"), "scenario": ("WNSN", "SDM", "WNoC")}
# (variables, required [fixed] keys, optional [fixed] keys) per subcommand
DIRECT = {
    "conductivity": (("frequency_thz", "chemical_potential_ev",
                      "relaxation_time_ps", "temperature_k"),
                     ("chemical_potential_ev", "relaxation_time_ps",
                      "frequency_thz"), ("temperature_k",)),
    "dispersion": (("frequency_thz",),
                   ("chemical_potential_ev", "relaxation_time_ps"),
                   ("temperature_k", "preset", "substrate_permittivity",
                    "superstrate_permittivity")),
    "stack": (("chemical_potential_ev",),
              ("preset", "frequency_thz", "relaxation_time_ps"),
              ("temperature_k",)),
    "antenna": (("length_um", "chemical_potential_ev", "relaxation_time_ps"),
                ("length_um", "width_um", "gap_um", "substrate_permittivity",
                 "chemical_potential_ev", "relaxation_time_ps"),
                ("temperature_k", "end_correction")),
    "scenario": (("length_um",), ("width_um", "scenario"), ("budget_fraction",)),
}


@st.composite
def direct_argv(draw):
    target = draw(st.sampled_from(sorted(DIRECT)))
    variables, required, optional = DIRECT[target]
    grid = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=3))
    argv = [target, f"--grid={' '.join(grid)}", "--quiet"]
    variable = draw(st.sampled_from(variables))
    if len(variables) > 1:
        argv.append(f"--variable={variable}")
    for key in required + optional:
        if key == variable or (key in optional and not draw(st.booleans())):
            continue
        value = draw(st.sampled_from(TEXT_VALUES.get(key, POOL)))
        argv.append(f"--{key.replace('_', '-')}={value}")
    return argv, len(grid)


@given(direct_argv())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_direct_subcommands_never_raise(case):
    argv, points = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, err.getvalue())
    if code != 1:
        table = parse_result_csv(out.getvalue())
        assert len(table.rows) == points, argv
        for row, status in zip(table.rows, table.statuses):
            if status == "ok":
                assert all(math.isfinite(cell) for cell in row), (argv, row)


# --- fuzzed config documents -------------------------------------------------

# at most one fault per document, so that about half of them run
FAULTS = ((None,) * 12
          + tuple(f"{fault} in [{name}]"
                  for fault in ("drop a line", "repeat a line", "unknown key")
                  for name in ("sweep", "fixed", "output"))
          + ("unknown variable", "unknown target", "malformed grid",
             "extra section"))


@st.composite
def config_document(draw):
    """A config document with its target, grid form, [fixed] keys, [output]
    settings, section order and fault drawn; also its grid's point count
    and whether it asks for plot output."""
    fault = draw(st.sampled_from(FAULTS))
    target = "bogus" if fault == "unknown target" else draw(st.sampled_from(sorted(DIRECT)))
    variables, required, optional = DIRECT.get(target, (("frequency_thz",), (), ()))
    variable = "bogus" if fault == "unknown variable" else draw(st.sampled_from(variables))
    if fault == "malformed grid":
        grid, points = draw(st.sampled_from(("", "1:2", "1:2:x", "1:2:0", "a b",
                                             "1 2 1", "1:1:2"))), 0
    elif draw(st.booleans()):
        points = draw(st.integers(1, 3))
        start, stop = draw(st.lists(st.sampled_from(POOL), min_size=2, max_size=2,
                                    unique=True))
        grid = f"{start}:{stop}:{points}"
    else:
        values = sorted(draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=3,
                                      unique=True)),
                        key=float, reverse=draw(st.booleans()))
        grid, points = draw(st.sampled_from((" ", ", "))).join(values), len(values)
    sweep = [f"target = {target}", f"variable = {variable}", f"grid = {grid}"]
    fixed = [f"{key} = {draw(st.sampled_from(TEXT_VALUES.get(key, POOL)))}"
             for key in required + optional
             if key != variable and (key in required or draw(st.booleans()))]
    # the swept variable's column is its name without the unit suffix
    column = variable.rpartition("_")[0]
    output = [f"{key} = {draw(st.sampled_from(values))}"
              for key, values in (("format", ("csv", "plot", "", "xml")),
                                  ("plot_x", ("", column, "bogus")),
                                  ("plot_y", ("", ",", f"{column}, bogus")),
                                  ("path", ("OUT",)))
              if draw(st.booleans())]
    sections = {"sweep": sweep, "fixed": fixed, "output": output}
    for name, lines in sections.items():
        if fault == f"drop a line in [{name}]" and lines:
            lines.pop(draw(st.integers(0, len(lines) - 1)))
        elif fault == f"repeat a line in [{name}]" and lines:
            lines.append(draw(st.sampled_from(lines)))
        elif fault == f"unknown key in [{name}]":
            lines.append("wavelength_nm = 5")
    names = list(draw(st.permutations(sorted(sections))))
    if fault == "extra section":
        names.append(draw(st.sampled_from(("solver", "fixed"))))
    text = "".join(f"[{name}]\n" + "".join(f"{line}\n" for line in sections.get(name, ()))
                   for name in names)
    return text, points, "format = plot" in output


@given(config_document())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_config_documents_never_raise(tmp_path_factory, case):
    text, points, plot = case
    directory = tmp_path_factory.mktemp("doc")
    out = directory / "out.txt"
    config = directory / "run.cfg"
    config.write_text(text.replace("OUT", str(out)))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["sweep", "--config", str(config), "--quiet"])
    err = stderr.getvalue()
    assert code in (0, 1, 2), (text, err)
    assert err.count("\n") == (code == 1) and "Traceback" not in err, (text, err)
    if code == 1:
        return
    emitted = out.read_text() if out.exists() else stdout.getvalue()
    if plot:
        # one line per grid value in every block, after its "# x= y=" line
        for block in emitted.rstrip("\n").split("\n\n"):
            assert block.count("\n") == points, (text, emitted)
        return
    table = parse_result_csv(emitted)
    assert len(table.rows) == points, text
    for row, status in zip(table.rows, table.statuses):
        if status == "ok":
            assert all(math.isfinite(cell) for cell in row), (text, row)


# --- help and usage texts ----------------------------------------------------

CLI_TEXTS = DATA_DIR / "cli_texts.json"
TEXT_CASES = (
    [["--help"]]
    + [[command, "--help"] for command in ("sweep", "conductivity", "dispersion",
                                           "stack", "antenna", "scenario",
                                           "presets")]
    + [[], ["frobnicate"], ["-1"], ["frobnicate", "sweep"], ["sweep"],
       ["sweep", "--config"], ["--quiet", "sweep", "--config", "absent.cfg"],
       ["sweep", "--config", "absent.cfg", "--format", "xml"],
       ["sweep", "--config", "absent.cfg", "--max-iter", "1.5"],
       ["stack", "--grid", "1", "--tolerance", "1e-9"],
       ["conductivity"], ["conductivity", "--grid", "1", "--bogus"],
       ["antenna", "--grid", "1", "--variable", "nope"],
       ["stack", "--grid", "1", "--frequency-thz", "x"],
       ["scenario", "--grid"], ["presets", "--bogus"],
       ["presets", "--csv"], ["dispersion", "-h", "--grid", "1"]]
    # one failed row per validation message a flag value can reach
    + [["conductivity", "--grid", grid, "--chemical-potential-ev", ef,
        "--relaxation-time-ps", tau, "--temperature-k", temperature]
       for grid, ef, tau, temperature in (("1", "-0.1", "1", "300"),
                                          ("1", "0.2", "0", "300"),
                                          ("1", "0.2", "1", "0"),
                                          ("-1", "0.2", "1", "300"),
                                          ("1e300", "0.2", "1", "300"))]
    + [["stack", "--grid", "0.2", "--preset", "G", "--frequency-thz", frequency,
        "--relaxation-time-ps", "1"] for frequency in ("0", "1e300")]
    + [["dispersion", "--grid", "-1", "--preset", "G",
        "--chemical-potential-ev", "0.2", "--relaxation-time-ps", "1"],
       ["dispersion", "--grid", "1", "--substrate-permittivity", "0.5",
        "--chemical-potential-ev", "0.2", "--relaxation-time-ps", "1"]]
    + [["antenna", "--grid", length, "--width-um", width, "--gap-um", gap,
        "--substrate-permittivity", substrate, "--end-correction", alpha,
        "--chemical-potential-ev", "0.2", "--relaxation-time-ps", "1"]
       for length, width, gap, substrate, alpha in (
           ("20", "0", "3", "3.8", "1"), ("3", "8", "3", "3.8", "1"),
           ("20", "8", "0", "3.8", "1"), ("20", "8", "3", "0.5", "1"),
           ("20", "8", "3", "3.8", "3"))]
    + [["scenario", "--grid", length, "--width-um", width, "--scenario", "SDM",
        "--budget-fraction", budget]
       for length, width, budget in (("-1", "8", "1"), ("1", "0", "1"),
                                     ("1", "8", "0"), ("1e-300", "1e-300", "1"))])


def cli_text(argv) -> dict:
    """Exit code, stdout and stderr of one in-process run, 80 columns wide."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("COLUMNS", "80")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("argv", TEXT_CASES,
                         ids=lambda argv: " ".join(argv) or "(no arguments)")
def test_help_and_usage_texts_unchanged(argv):
    # tests/data/cli_texts.json was written by this module's __main__
    assert cli_text(argv) == json.loads(CLI_TEXTS.read_text())[" ".join(argv)]


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_cli.py rewrites the references: the
    # help and usage texts and the CSV of every shipped config
    CLI_TEXTS.write_text(json.dumps({" ".join(argv): cli_text(argv)
                                     for argv in TEXT_CASES}, indent=1) + "\n")
    for config in sorted(CONFIG_DIR.glob("*.cfg")):
        if main(["sweep", "--config", str(config), "--quiet",
                 "--out", str(DATA_DIR / f"{config.stem}.csv")]) != 0:
            raise SystemExit(f"{config.name}: a row failed")
