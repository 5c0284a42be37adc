import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import compare_trees
from thzplasmon import cli, modesolver, parse_result_csv
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


@pytest.mark.parametrize("argv", [
    ["sweep", "--config", "CONFIG", "--quiet", "--out"],
    ["presets", "--quiet", "--csv"],
])
def test_output_to_the_null_device(tmp_path, capsys, argv):
    # the null device seeks but cannot be cut to length
    config = tmp_path / "run.cfg"
    config.write_text(CONFIG)
    argv = [str(config) if arg == "CONFIG" else arg for arg in argv]
    assert main(argv + [os.devnull]) == 0
    assert capsys.readouterr().err == ""


def test_existing_output_keeps_its_inode_mode_and_links(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(CONFIG)
    fresh = tmp_path / "fresh.csv"
    assert main(["sweep", "--config", str(config), "--out", str(fresh),
                 "--quiet"]) == 0
    out, second_name, link = (tmp_path / "out.csv", tmp_path / "hard.csv",
                              tmp_path / "link.csv")
    out.write_bytes(b"stale\n" * 1000)
    out.chmod(0o640)
    os.link(out, second_name)
    os.symlink(out, link)
    before = out.stat()
    for path in (out, link):
        assert main(["sweep", "--config", str(config), "--out", str(path),
                     "--quiet"]) == 0
        after = out.stat()
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
        assert link.is_symlink()
        assert out.read_bytes() == second_name.read_bytes() == fresh.read_bytes()
        out.write_bytes(b"stale\n" * 1000)


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
    # w tau = 1 at a huge tau: both parts of sigma are finite, |sigma| is not
    (["conductivity", "--grid", "1.5915494309189535e-289",
      "--chemical-potential-ev", "2.6e21", "--relaxation-time-ps", "1e288"],
     [0]),
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
    # Im sigma underflows, so the quasi-static seed's Re q is 0
    (["antenna", "--grid", "20", "--width-um", "8", "--gap-um", "3",
      "--substrate-permittivity", "3.8", "--chemical-potential-ev", "1e266",
      "--relaxation-time-ps", "1e-295"], [0]),
], ids=["scenario-negative-length", "scenario-zero-budget",
        "dispersion-zero-frequency", "dispersion-negative-potential",
        "dispersion-substrate-below-vacuum", "stack-negative-potential",
        "stack-zero-frequency", "stack-zero-relaxation-time",
        "dispersion-degenerate-sheet", "antenna-degenerate-sheet",
        "stack-degenerate-sheet", "conductivity-overflowing-cells",
        "conductivity-overflowing-modulus",
        "scenario-overflowing-footprint", "stack-underflowing-thermal-energy",
        "dispersion-underflowing-thermal-energy",
        "antenna-underflowing-thermal-energy",
        "conductivity-underflowing-thermal-energy",
        "antenna-underflowing-seed"])
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
    # changes only with an intended change of the physics or the format.
    # Reruns onto a longer old output must cut it to the new text: every
    # rerun writes the same length, so only a longer stale file shows a tail
    reference = (DATA_DIR / f"{name}.csv").read_bytes()
    out = tmp_path / f"{name}.csv"
    for stale in (None, b"9" * (len(reference) + 4096),
                  reference + b"stale\n" * 700):
        if stale is not None:
            out.write_bytes(stale)
        assert main(["sweep", "--config", str(CONFIG_DIR / f"{name}.cfg"),
                     "--out", str(out), "--quiet"]) == 0
        assert out.read_bytes() == reference


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


def cli_text(argv, columns=80) -> dict:
    """Exit code, stdout and stderr of one in-process run, 80 columns wide
    unless columns says otherwise."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("COLUMNS", str(columns))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("argv", TEXT_CASES,
                         ids=lambda argv: " ".join(argv) or "(no arguments)")
def test_help_and_usage_texts_unchanged(argv):
    # tests/data/cli_texts.json was written by this module's __main__
    assert cli_text(argv) == json.loads(CLI_TEXTS.read_text())[" ".join(argv)]


# --- one parser per process ---------------------------------------------

@pytest.fixture(scope="module")
def fresh_csv(tmp_path_factory):
    """CONFIG as a file, and the stdout of a sweep of it in a new
    interpreter, which has built no parser before."""
    config = tmp_path_factory.mktemp("fresh") / "run.cfg"
    config.write_text(CONFIG)
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from thzplasmon.cli import main; "
         "sys.exit(main(sys.argv[1:]))", "sweep", "--config", str(config),
         "--quiet"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, check=False)
    assert (done.returncode, done.stderr) == (0, b"")
    return config, done.stdout.decode()


def test_repeated_calls_build_no_parser(tmp_path, monkeypatch, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(CONFIG)
    argv = ["sweep", "--config", str(config), "--out", str(tmp_path / "a.csv"),
            "--quiet"]
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    assert main(argv) == 0
    # the top level and every subcommand, whichever one is invoked
    assert built == ["thzplasmon"] + [
        f"thzplasmon {command}" for command in (
            "sweep", "conductivity", "dispersion", "stack", "antenna",
            "scenario", "presets")]
    built.clear()
    assert main(argv) == 0
    assert main(["stack", "--grid", "0.2", "--preset", "G", "--frequency-thz", "4",
                 "--relaxation-time-ps", "1", "--quiet"]) == 0
    assert main(["presets"]) == 0
    assert main(["--help"]) == 0
    assert built == []


def test_console_script_reads_sys_argv(monkeypatch, capsys):
    # the installed thzplasmon script calls main() with no argv
    pinned = json.loads(CLI_TEXTS.read_text())["frobnicate"]
    monkeypatch.setattr(sys, "argv", ["thzplasmon", "presets"])
    assert main() == 0
    assert capsys.readouterr() == (PRESETS_TEXT, "")
    monkeypatch.setattr(sys, "argv", ["thzplasmon", "frobnicate"])
    assert main() == pinned["code"]
    assert capsys.readouterr() == (pinned["stdout"], pinned["stderr"])


def test_output_flags_do_not_carry_over(fresh_csv, tmp_path, capsys):
    config, expected = fresh_csv
    plot = tmp_path / "plot.txt"
    assert main(["sweep", "--config", str(config), "--out", str(plot),
                 "--format", "plot", "--plot-y", "sigma_real", "--quiet"]) == 0
    assert plot.read_text().startswith("# x=frequency y=sigma_real\n")
    assert main(["sweep", "--config", str(config), "--quiet"]) == 0
    assert capsys.readouterr().out == expected
    assert parse_result_csv(expected).all_ok


def test_usage_error_leaves_the_parser_as_it_was(fresh_csv, capsys):
    config, expected = fresh_csv
    assert main(["sweep", "--config", str(config), "--format", "xml"]) == 1
    assert "invalid choice: 'xml'" in capsys.readouterr().err
    assert main(["sweep", "--config", str(config), "--quiet"]) == 0
    assert capsys.readouterr() == (expected, "")


def test_texts_do_not_depend_on_the_width_at_build_time():
    # the parsers are built at 40 columns and print at 80 as a new process
    # at 80 columns would
    argvs = (["--help"], ["sweep", "--help"], ["frobnicate"])
    pinned = json.loads(CLI_TEXTS.read_text())
    cli._parser.cache_clear()
    narrow = [cli_text(argv, columns=40) for argv in argvs]
    assert narrow[0]["stdout"] != pinned["--help"]["stdout"]
    for argv in argvs:
        assert cli_text(argv) == pinned[" ".join(argv)]


# --- the command-line corpus ---------------------------------------------

CORPUS_DIGESTS = DATA_DIR / "corpus_digests.json"


def corpus_digests():
    """The cases of compare_trees.py's default corpus without the benchmark
    workload rounds (the shipped configs, presets, 2 000 seed-1 documents
    with at most one fault and 800 seed-1 direct calls), and per case the
    first 8 hex digits of the SHA-256 of its exit code, stdout, stderr and
    written files, in one worker process on this tree."""
    cases = (compare_trees.shipped_cases()
             + compare_trees.config_documents(1, 2000, 1)
             + compare_trees.direct_calls(1, 800))
    src = str(Path(cli.__file__).resolve().parents[1])
    return cases, [
        hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()[:8]
        for result in compare_trees._results(src, cases)]


def test_cli_corpus_unchanged():
    # tests/data/corpus_digests.json was written by this module's __main__;
    # python tests/compare_trees.py OLD_SRC NEW_SRC shows a case's bytes
    cases, digests = corpus_digests()
    pinned = json.loads(CORPUS_DIGESTS.read_text())
    assert len(digests) == len(pinned)
    differ = [case["id"] for case, new, old in zip(cases, digests, pinned)
              if new != old]
    assert not differ, f"{len(differ)} cases differ: " + "; ".join(differ)



# --- sorting what a change moves (compare_trees.py --classify) ---------------

DISPERSION = "frequency(THz),q_real(rad/m),q_imag(rad/m),residual(1),status(-)"
STACK = "chemical_potential(eV),n_eff(1),normalized_lp(1),status(-)"
ANTENNA = "length(um),f_res(THz),f_metal(THz),status(-)"
ANTENNA_PROXY = "length(um),f_res(THz),f_metal(THz),efficiency_proxy(1),status(-)"
CONDUCTIVITY = "frequency(THz),sigma_real(S),sigma_imag(S),status(-)"
SCENARIO = "length(um),footprint(m2),fits(1),status(-)"
ULP_UP = repr(math.nextafter(7.2e5, math.inf))
PLOT = "# x=chemical_potential y={}\n0.2 {}\n"


def _plot(column, value):
    """A case's result whose stdout is one plot-data block."""
    return {"code": 0, "stdout": PLOT.format(column, value), "stderr": "",
            "files": {}}


def _run(*rows, code=0, stderr="", name="out.csv"):
    """A case's result with one emitted CSV (a header and its rows)."""
    return {"code": code, "stdout": "", "stderr": stderr,
            "files": {name: "\n".join(rows) + "\n"}}


@pytest.mark.parametrize("old, new, expected", [
    (_run(DISPERSION, "1,7.2e5,5.5e4,1e-17,ok"),
     _run(DISPERSION, f"1,{ULP_UP},5.5e4,3e-17,ok"),
     (compare_trees.ULP, "dispersion q")),
    (_run(STACK, "0.2,2.1,77.3,ok"), _run(STACK, "0.2,2.1,77.30001,ok"),
     (compare_trees.LARGER, "stack x")),
    # a root moved by 1e-8 or more is another root to find_mode
    (_run(STACK, "0.2,2.1,77.3,ok"), _run(STACK, "0.2,2.1,77.4,ok"),
     (compare_trees.BRANCH, "stack x")),
    (_run(ANTENNA, "10,,,failed:no resonance"), _run(ANTENNA, "10,2.06,9.6,ok"),
     (compare_trees.FIXED, "out.csv")),
    (_run(ANTENNA, "10,2.06,9.6,ok"), _run(ANTENNA, "10,,,failed:no resonance"),
     (compare_trees.BROKEN, "out.csv")),
    (_run(CONDUCTIVITY, "1,0.05,0.03,ok"), _run(CONDUCTIVITY, "1,0.05,0.04,ok"),
     (compare_trees.OTHER, "conductivity row")),
    (_run(SCENARIO, "10,8e-11,1,ok"), _run(SCENARIO, "10,8e-11,0,ok"),
     (compare_trees.OTHER, "scenario row")),
    (_run(STACK, "0.2,2.1,77.3,ok"), _run(ANTENNA, "0.2,2.1,77.3,ok"),
     (compare_trees.OTHER, "header or row count of out.csv")),
    # f_res and the efficiency proxy are judged alike: (f, Im q) are the two
    # unknowns of the resonance solve
    (_run(ANTENNA_PROXY, "10,2.06,9.6,0.52,ok"),
     _run(ANTENNA_PROXY, f"10,2.06,9.6,{math.nextafter(0.52, 1.0)!r},ok"),
     (compare_trees.ULP, "antenna f_res")),
    (_run(ANTENNA_PROXY, "10,2.06,9.6,0.52,ok"),
     _run(ANTENNA_PROXY, "10,2.06,9.6,0.520000001,ok"),
     (compare_trees.LARGER, "antenna f_res")),
    # a plot value of a column that rests on a root is judged by its own
    # relative change
    (_plot("n_eff", "2.1"), _plot("n_eff", repr(math.nextafter(2.1, 3.0))),
     (compare_trees.ULP, "plot n_eff")),
    (_plot("normalized_lp", "77.3"), _plot("normalized_lp", "77.3000001"),
     (compare_trees.LARGER, "plot normalized_lp")),
    (_plot("q_imag", "5.5e4"), _plot("q_imag", "5.6e4"),
     (compare_trees.BRANCH, "plot q_imag")),
    (_plot("f_metal", "2.06"), _plot("f_metal", repr(math.nextafter(2.06, 3.0))),
     (compare_trees.OTHER, "plot f_metal")),
], ids=["ulp-level", "larger", "branch", "failed-to-ok", "ok-to-failed",
        "conductivity", "scenario", "header", "antenna proxy ulp-level",
        "antenna proxy larger", "plot ulp-level", "plot larger", "plot branch",
        "plot other"])
def test_classify_sorts_each_changed_row(old, new, expected):
    assert [change[:2] for change in compare_trees.classify(old, new)] == [expected]


def test_classify_measures_the_root_of_a_row():
    # a stack row's root is rebuilt as n_eff + i n_eff / (4 pi normalized_lp)
    ulp, = compare_trees.classify(_run(DISPERSION, "1,7.2e5,5.5e4,1e-17,ok"),
                                  _run(DISPERSION, f"1,{ULP_UP},5.5e4,0,ok"))
    assert ulp.relative == math.ulp(7.2e5) / abs(7.2e5 + 5.5e4j)
    moved, = compare_trees.classify(_run(STACK, "0.2,2.1,77.3,ok"),
                                    _run(STACK, "0.2,2.1,77.4,ok"))
    im_x = [2.1 / (4.0 * math.pi * lp) for lp in (77.3, 77.4)]
    assert (moved.old, moved.new) == (complex(2.1, im_x[0]), complex(2.1, im_x[1]))
    assert moved.relative == pytest.approx((im_x[0] - im_x[1]) / abs(moved.old))


def test_classify_sorts_other_items():
    # plot data of a column that rests on no root
    plot = "# x=frequency y=sigma_real\n1.0 2.5\n"
    old = {"code": 0, "stdout": plot, "stderr": "", "files": {}}
    new = {"code": 2, "stdout": plot.replace("2.5", "2.5000000000000004"),
           "stderr": "failed\n", "files": {"out.txt": "x\n"}}
    changes = compare_trees.classify(old, new)
    assert [change[:2] for change in changes] == [
        ("other", "code"), ("other", "stderr"), ("other", "presence of out.txt"),
        ("other", "plot sigma_real")]
    assert changes[3].relative == pytest.approx(1.776e-16, rel=1e-3)
    assert compare_trees.classify(old, old) == []


def test_classify_prints_one_count_per_class(capsys):
    olds = [_run(DISPERSION, "1,7.2e5,5.5e4,1e-17,ok", "2,9e5,6e4,1e-17,ok"),
            _run(ANTENNA, "10,2.06,9.6,ok", "20,1.03,4.8,ok"),
            _run(ANTENNA, "10,2.06,9.6,ok")]
    news = [_run(DISPERSION, f"1,{ULP_UP},5.5e4,1e-17,ok", "2,9e5,6e4,2e-17,ok"),
            _run(ANTENNA, "10,2.0600000001,9.6,ok", "20,1.04,4.8,ok"), olds[2]]
    cases = [{"id": "a"}, {"id": "b"}, {"id": "c"}]
    assert compare_trees._print_classes(cases, olds, news) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == [
        "2 of 3 cases differ",
        "larger change: b: antenna f_res old 2.06 new 2.0600000001",
        "branch change: b: antenna f_res old 1.03 new 1.04"]
    assert out[-6:] == ["ulp-level: 2", "larger change: 1", "branch change: 1",
                        "failed -> ok: 0", "ok -> failed: 0", "other: 0"]
    assert compare_trees._print_classes(cases, olds, olds) == 0

if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_cli.py rewrites the references: the
    # help and usage texts, the CSV of every shipped config and the digests
    # of the command-line corpus
    CLI_TEXTS.write_text(json.dumps({" ".join(argv): cli_text(argv)
                                     for argv in TEXT_CASES}, indent=1) + "\n")
    for config in sorted(CONFIG_DIR.glob("*.cfg")):
        if main(["sweep", "--config", str(config), "--quiet",
                 "--out", str(DATA_DIR / f"{config.stem}.csv")]) != 0:
            raise SystemExit(f"{config.name}: a row failed")
    CORPUS_DIGESTS.write_text(json.dumps(corpus_digests()[1], indent=0) + "\n")
