from thzplasmon import parse_result_csv
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


def test_failed_rows_exit_code(capsys):
    # iteration cap too small for any convergence
    code = main(["stack", "--preset", "G", "--frequency-thz", "4",
                 "--relaxation-time-ps", "0.6", "--grid", "0.2 0.4",
                 "--max-iter", "2", "--quiet"])
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
