import dataclasses
import errno
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thzplasmon import (CODATA, ScenarioRequirements, builtin_scenarios,
                        fits_footprint, scenario_by_name, scenarios_csv,
                        sdm_cell_size, write_scenarios_csv)
from thzplasmon import scenario as scenario_module

# (name, node size m2, tx range m, data rate bit/s)
EXPECTED = {
    "WNSN": ((1e-12, 100e-12), (1e-3, 1.0), (1e6, 1e8)),
    "SDM": ((0.01e-6, 100e-6), (1e-3, 1.0), (1e7, 1e9)),
    "WNoC": ((0.01e-6, 1e-6), (1e-3, 0.1), (1e10, 1e11)),
}


def test_builtin_scenarios_exact_values():
    scenarios = builtin_scenarios()
    assert [s.name for s in scenarios] == ["WNSN", "SDM", "WNoC"]
    for s in scenarios:
        node, tx, rate = EXPECTED[s.name]
        assert s.node_size_m2 == node
        assert s.tx_range_m == tx
        assert s.data_rate_bps == rate


def test_scenarios_are_immutable():
    with pytest.raises(dataclasses.FrozenInstanceError):
        builtin_scenarios()[0].name = "other"


def test_scenario_lookup():
    assert scenario_by_name("wnoc").name == "WNoC"
    with pytest.raises(ValueError):
        scenario_by_name("mesh")


def test_csv_export_matches_constants():
    lines = scenarios_csv().strip().split("\n")
    assert lines[0].split(",")[0] == "scenario(-)"
    assert len(lines) == 4
    for line in lines[1:]:
        cells = line.split(",")
        node, tx, rate = EXPECTED[cells[0]]
        values = [float(c) for c in cells[1:]]
        assert values == [node[0], node[1], tx[0], tx[1], rate[0], rate[1]]


@pytest.mark.parametrize("stale", [b"9" * 4096, b"scenario(-)\n"],
                         ids=["longer", "shorter"])
def test_scenario_table_overwrites_an_existing_file(tmp_path, stale):
    path = tmp_path / "table.csv"
    path.write_bytes(stale)
    write_scenarios_csv(path)
    assert path.read_bytes() == scenarios_csv().encode()


class _FailingWrite:
    """A binary file handle whose write fails as a full disk does."""

    def __init__(self, handle):
        self.handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()

    def fileno(self):
        return self.handle.fileno()

    def truncate(self, size):
        return self.handle.truncate(size)

    def write(self, data):
        raise OSError(errno.ENOSPC, "No space left on device")


def test_a_failed_rewrite_leaves_nothing_past_the_new_length(tmp_path,
                                                             monkeypatch):
    # a longer old output is cut before the write, so stale rows cannot
    # follow the new text when the write fails
    path = tmp_path / "table.csv"
    path.write_bytes(b"9" * 4096)
    monkeypatch.setattr(scenario_module, "open", raising=False,
                        value=lambda *args, **kwargs:
                        _FailingWrite(open(*args, **kwargs)))
    with pytest.raises(OSError, match=r"^cannot write scenario table to "
                       r".*: \[Errno 28\] No space left on device$"):
        write_scenarios_csv(path)
    assert path.read_bytes() == b"9" * len(scenarios_csv().encode())


def test_fits_footprint_worked_examples():
    wnoc = scenario_by_name("WNoC")
    report = fits_footprint(100e-6, 8e-6, wnoc)
    assert report.fits
    assert report.footprint_m2 == pytest.approx(8e-10, rel=1e-12)
    assert report.margin == pytest.approx(35.355, rel=1e-3)

    wnsn = scenario_by_name("WNSN")
    report = fits_footprint(20e-6, 8e-6, wnsn)
    assert not report.fits
    assert report.margin < 1.0


def test_footprint_notes_carry_context():
    report = fits_footprint(10e-6, 5e-6, scenario_by_name("SDM"))
    assert "tx range" in report.notes and "data rate" in report.notes


def test_budget_fraction_validation():
    scenario = scenario_by_name("WNoC")
    with pytest.raises(ValueError):
        fits_footprint(1e-6, 1e-6, scenario, budget_fraction=0.0)
    with pytest.raises(ValueError):
        fits_footprint(1e-6, 1e-6, scenario, budget_fraction=1.5)
    with pytest.raises(ValueError):
        fits_footprint(-1e-6, 1e-6, scenario)


def test_underflowing_footprint_rejected():
    # both sides positive, but their product is 0 m2
    with pytest.raises(ValueError, match="underflows"):
        fits_footprint(1e-306, 1e-306, scenario_by_name("WNSN"))


@pytest.mark.parametrize("length_m, width_m, name, message", [
    # 5e-324 m2 is positive, but the budget over it overflows
    (5e-324, 1.0, "SDM", "margin must be finite"),
    (1e300, 1e10, "WNoC", "antenna footprint must be finite"),
])
def test_overflowing_footprint_or_margin_rejected(length_m, width_m, name,
                                                  message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        fits_footprint(length_m, width_m, scenario_by_name(name))


def test_budget_fraction_shrinks_margin():
    scenario = scenario_by_name("WNoC")
    full = fits_footprint(100e-6, 8e-6, scenario, budget_fraction=1.0)
    half = fits_footprint(100e-6, 8e-6, scenario, budget_fraction=0.5)
    assert half.margin == pytest.approx(full.margin / math.sqrt(2.0), rel=1e-12)


@given(st.floats(1e-7, 1e-2), st.floats(1e-7, 1e-2), st.floats(0.01, 1.0),
       st.sampled_from(["WNSN", "SDM", "WNoC"]))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_fits_iff_margin_at_least_one(length_m, width_m, budget, name):
    scenario = scenario_by_name(name)
    report = fits_footprint(length_m, width_m, scenario, budget)
    assert report.fits == (report.margin >= 1.0)
    if report.fits:
        assert report.footprint_m2 <= scenario.node_size_m2[1]


def test_requirements_validation():
    with pytest.raises(ValueError):
        ScenarioRequirements("bad", (2.0, 1.0), (1e-3, 1.0), (1e6, 1e8))
    with pytest.raises(ValueError):
        ScenarioRequirements("bad", (0.0, 1.0), (1e-3, 1.0), (1e6, 1e8))


def test_sdm_cell_size_values():
    assert sdm_cell_size(1e12) == pytest.approx(30e-6, rel=1e-3)
    assert sdm_cell_size(0.1e12) == pytest.approx(300e-6, rel=1e-3)
    assert sdm_cell_size(0.5e12) == pytest.approx(2.0 * sdm_cell_size(1e12), rel=1e-12)
    assert sdm_cell_size(1e12) == pytest.approx(CODATA.light_speed / 1e12 / 10.0)
    with pytest.raises(ValueError):
        sdm_cell_size(0.0)
    # c0 / 5e-324 Hz is inf
    with pytest.raises(ValueError, match="^free-space wavelength must be finite$"):
        sdm_cell_size(5e-324)
