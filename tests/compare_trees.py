"""Compare the command-line behaviour of two source trees, case by case.

    python tests/compare_trees.py OLD_SRC NEW_SRC [--seed 1] [--documents 2000]
        [--calls 800] [--max-faults 1] [--classify]

Each tree gets one subprocess that imports ``thzplasmon.cli`` from its
``src`` directory and runs ``cli.main`` in process on the same cases:

- every shipped ``configs/*.cfg``;
- ``presets``, and ``presets --csv scenarios.csv``;
- the seed-1 and seed-2 rounds of the benchmark workloads
  (``perfbench/workloads.py``, imported read-only);
- a seeded corpus of config documents, each valid or carrying up to
  ``--max-faults`` faults (one by default: every document then has at most
  one thing wrong, so any reordering of the checks cannot show);
- a seeded corpus of direct-subcommand calls, each with at most one fault;
- the dipole grid: one ``antenna`` call per E_F (0.1-2 eV), tau (0.5-10 ps)
  and substrate (1, 3.8, 11.9), 84 in all, each sweeping ``length_um``
  over 10-2000 um at width 8 um and gap 3 um.

A case runs in an empty working directory.  Its exit code, stdout, stderr
and the files it writes are compared, and every case that differs is
printed.  The exit code is 0 when no case differs and 1 otherwise.

``--classify`` sorts what differs instead of printing it (``classify``):
each changed row of an emitted CSV is ulp-level (its solver root moved by
less than ``ULP_LEVEL`` relative, and so did an antenna row's efficiency
proxy, which rests on Im q), a larger change (below ``BRANCH_LEVEL``), a
branch change (both rows ok, but the root moved by ``BRANCH_LEVEL`` or
more, where ``find_mode`` tells two roots apart), failed -> ok or
ok -> failed; everything else (an exit code, stderr, a header, a
conductivity or scenario row, plot data) is "other".  It prints the count
of each class, and the case and both roots or statuses of each larger
change, branch change or flip.

Not collected by pytest: run it by hand before and after a change that must
keep the command line's behaviour.  ``tests/test_cli.py`` runs its worker
on one tree over the shipped cases and the default seed-1 corpora, without
the workload rounds and the dipole grid, and checks one digest per case.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

# per target: its variables (the first is the command line's default), its
# required [fixed] keys, its optional [fixed] keys, and one value column
TARGETS = {
    "conductivity": (("frequency_thz", "chemical_potential_ev",
                      "relaxation_time_ps", "temperature_k"),
                     ("chemical_potential_ev", "relaxation_time_ps",
                      "frequency_thz"), ("temperature_k",), "sigma_real"),
    "dispersion": (("frequency_thz",), ("chemical_potential_ev",
                                        "relaxation_time_ps"),
                   ("temperature_k",), "n_eff"),
    "stack": (("chemical_potential_ev",),
              ("preset", "frequency_thz", "relaxation_time_ps"),
              ("temperature_k",), "n_eff"),
    "antenna": (("length_um", "chemical_potential_ev", "relaxation_time_ps"),
                ("length_um", "width_um", "gap_um", "substrate_permittivity",
                 "chemical_potential_ev", "relaxation_time_ps"),
                ("temperature_k", "end_correction"), "f_res"),
    "scenario": (("length_um",), ("width_um", "scenario"),
                 ("budget_fraction",), "fits"),
}
# values a key takes in a valid case; some of them fail rows (exit 2)
VALUES = {
    "chemical_potential_ev": ("0.1", "0.2", "0.4", "0.8", "-0.1"),
    "relaxation_time_ps": ("0.5", "0.6", "1.0", "0"),
    "frequency_thz": ("0.5", "1", "2", "4", "0"),
    "temperature_k": ("77", "300", "1e-300"),
    "length_um": ("5", "10", "20", "40", "-1"),
    "width_um": ("2", "8", "0"),
    "gap_um": ("1", "3"),
    "substrate_permittivity": ("1.5", "3.8", "11.9", "0.5"),
    "superstrate_permittivity": ("1.0", "2.0"),
    "end_correction": ("0.9", "1.0"),
    "budget_fraction": ("0.5", "1.0"),
    "preset": ("G", "H1G", "H2G"),
    "scenario": ("WNSN", "SDM", "WNoC"),
}
FLOAT_KEYS = [key for key in VALUES if key not in ("preset", "scenario")]
BAD_GRIDS = ("", ",", " , ", "1:2", "1:2:x", "1:2:0", "x:1:3", "1:nan:3",
             "a b", "1 inf", "nan", "1 2 1", "1:1:2", "-1e308:1e308:3")


def _column(variable: str) -> str:
    return variable.rpartition("_")[0]


def _grid(rng: random.Random, variable: str) -> str:
    values = sorted(rng.sample(VALUES[variable], rng.randint(1, 3)), key=float)
    if len(values) > 1 and rng.random() < 0.3:
        return f"{values[0]}:{values[-1]}:{rng.randint(2, 3)}"
    return rng.choice((" ", ", ", ",")).join(values)


def _valid_document(rng: random.Random) -> dict:
    target = rng.choice(sorted(TARGETS))
    variables, required, optional, value_column = TARGETS[target]
    variable = rng.choice(variables)
    fixed = {key: rng.choice(VALUES[key]) for key in required + optional
             if key != variable and (key in required or rng.random() < 0.5)}
    if target == "dispersion":
        if rng.random() < 0.5:
            fixed["preset"] = rng.choice(VALUES["preset"])
        else:
            fixed["substrate_permittivity"] = rng.choice(VALUES["substrate_permittivity"])
            if rng.random() < 0.5:
                fixed["superstrate_permittivity"] = rng.choice(
                    VALUES["superstrate_permittivity"])
    keys = list(fixed)
    rng.shuffle(keys)
    output = {}
    if rng.random() < 0.5:
        output["path"] = "out.txt"
    if rng.random() < 0.3:
        output["format"] = rng.choice(("csv", "plot", ""))
    if rng.random() < 0.3:
        output["plot_x"] = rng.choice((_column(variable), ""))
    if rng.random() < 0.3:
        output["plot_y"] = rng.choice((value_column, f"{value_column}, "
                                       f"{_column(variable)}", ","))
    order = ["sweep", "fixed", "output"]
    rng.shuffle(order)
    return {"target": target, "variable": variable,
            "sections": {"sweep": {"target": target, "variable": variable,
                                   "grid": _grid(rng, variable)},
                         "fixed": {key: fixed[key] for key in keys},
                         "output": output},
            "order": order, "lines": {}, "before": []}


# each fault edits a document model and returns False where it does not apply

def _drop_sweep_section(rng, doc):
    doc["order"].remove("sweep")


def _drop_sweep_key(rng, doc):
    del doc["sections"]["sweep"][rng.choice(("target", "variable", "grid"))]


def _unknown_key(rng, doc):
    doc["lines"].setdefault(rng.choice(doc["order"]), []).append("wavelength_nm = 5")


def _unknown_section(rng, doc):
    doc["order"].append("solver")
    doc["lines"]["solver"] = ["x = 1"]


def _duplicate_section(rng, doc):
    doc["order"].append(rng.choice(doc["order"]))


def _duplicate_key(rng, doc):
    name = rng.choice(doc["order"])
    section = doc["sections"].get(name)
    if not section:
        return False
    key = rng.choice(sorted(section))
    doc["lines"].setdefault(name, []).append(f"{key} = {section[key]}")


def _malformed_line(rng, doc):
    line = rng.choice(("frobnicate", " = 1", "[sweep"))
    doc["lines"].setdefault(rng.choice(doc["order"]), []).append(line)


def _key_outside_section(rng, doc):
    doc["before"].append("target = stack")


def _unknown_target(rng, doc):
    doc["sections"]["sweep"]["target"] = rng.choice(("bogus", "Stack", ""))


def _foreign_variable(rng, doc):
    variables = TARGETS[doc["target"]][0]
    doc["sections"]["sweep"]["variable"] = rng.choice(
        [v for v in ("bogus", "frequency_thz", "length_um", "temperature_k")
         if v not in variables])


def _bad_grid(rng, doc):
    doc["sections"]["sweep"]["grid"] = rng.choice(BAD_GRIDS)


def _decreasing_grid(rng, doc):
    if doc["target"] != "dispersion":
        return False
    doc["sections"]["sweep"]["grid"] = "4 2 1"


def _float_keys(doc):
    return [key for key in doc["sections"]["fixed"] if key in FLOAT_KEYS]


def _bad_number(rng, doc):
    keys = _float_keys(doc)
    if not keys:
        return False
    doc["sections"]["fixed"][rng.choice(keys)] = rng.choice(
        ("fast", "1,5", "", "inf", "-inf", "nan", "1e999"))


def _variable_fixed(rng, doc):
    doc["sections"]["fixed"][doc["variable"]] = rng.choice(VALUES[doc["variable"]])


def _drop_required(rng, doc):
    required = [key for key in TARGETS[doc["target"]][1]
                if key in doc["sections"]["fixed"]]
    if doc["target"] == "dispersion":
        required += [key for key in ("preset", "substrate_permittivity")
                     if key in doc["sections"]["fixed"]]
    if not required:
        return False
    del doc["sections"]["fixed"][rng.choice(required)]


def _stack_choice(rng, doc):
    if doc["target"] != "dispersion":
        return False
    fixed = doc["sections"]["fixed"]
    if "preset" in fixed:
        fixed[rng.choice(("substrate_permittivity", "superstrate_permittivity"))] = "3.8"
    else:
        fixed["preset"] = "G"


def _bad_name(rng, doc):
    fixed = doc["sections"]["fixed"]
    names = [key for key in ("preset", "scenario") if key in fixed]
    if not names:
        return False
    fixed[rng.choice(names)] = rng.choice(("XYZ", "h1g", "wnoc", "Mars", ""))


def _bad_format(rng, doc):
    doc["sections"]["output"]["format"] = rng.choice(("xml", "CSV", "plot "))


def _unknown_column(rng, doc):
    output = doc["sections"]["output"]
    output["format"] = "plot"
    output[rng.choice(("plot_x", "plot_y"))] = "bogus"


FAULTS = (_drop_sweep_section, _drop_sweep_key, _unknown_key, _unknown_section,
          _duplicate_section, _duplicate_key, _malformed_line,
          _key_outside_section, _unknown_target, _foreign_variable, _bad_grid,
          _decreasing_grid, _bad_number, _variable_fixed, _drop_required,
          _stack_choice, _bad_name, _bad_format, _unknown_column)


def _render(doc: dict) -> str:
    lines = list(doc["before"])
    for name in doc["order"]:
        lines.append(f"[{name}]")
        lines += [f"{key} = {value}"
                  for key, value in doc["sections"].get(name, {}).items()]
        lines += doc["lines"].pop(name, [])
    return "\n".join(lines) + "\n"


def config_documents(seed: int, count: int, max_faults: int) -> list[dict]:
    """count documents, about one in eight without a fault."""
    rng = random.Random(f"documents/{seed}/{max_faults}")
    cases = []
    for i in range(count):
        doc = _valid_document(rng)
        wanted = 0 if rng.random() < 1 / 8 else rng.randint(1, max_faults)
        applied = []
        while len(applied) < wanted:
            fault = rng.choice(FAULTS)
            if fault not in applied and fault(rng, doc) is not False:
                applied.append(fault)
        name = "+".join(f.__name__.strip("_") for f in applied) or "valid"
        cases.append({"id": f"document {i} ({name})", "config": _render(doc),
                      "argv": ["sweep", "--config", "run.cfg", "--quiet"]})
    return cases


def direct_calls(seed: int, count: int) -> list[dict]:
    """count direct-subcommand calls, each with at most one fault."""
    rng = random.Random(f"calls/{seed}")
    cases = []
    for i in range(count):
        doc = _valid_document(rng)
        target, variable = doc["target"], doc["variable"]
        flags = dict(doc["sections"]["fixed"])
        grid = doc["sections"]["sweep"]["grid"]
        names = [key for key in ("preset", "scenario") if key in flags]
        faults = ["valid"] * 4 + ["bad grid", "bad number", "variable fixed",
                                  "missing flag", "padded text", "output flags",
                                  "bogus column"]
        if target == "dispersion":
            faults += ["decreasing grid", "stack choice"]
        if names:
            faults.append("bad name")
        fault = rng.choice(faults)
        extra = []
        if fault == "bad grid":
            grid = rng.choice(BAD_GRIDS)
        elif fault == "decreasing grid":
            grid = "4 2 1"
        elif fault == "bad number":
            flags[rng.choice(_float_keys(doc))] = rng.choice(
                ("inf", "nan", "-inf", "1e999", "x"))
        elif fault == "variable fixed":
            flags[variable] = VALUES[variable][0]
        elif fault == "missing flag":
            del flags[rng.choice(sorted(flags))]
        elif fault == "stack choice":
            flags["preset" if "preset" not in flags else "substrate_permittivity"] = "G"
        elif fault == "bad name":
            flags[rng.choice(names)] = rng.choice(("XYZ", "G\npreset = H1G", ""))
        elif fault == "padded text":
            grid = f" {grid} "
            flags.update({key: f" {flags[key]} " for key in names})
        elif fault == "output flags":
            extra = rng.choice((["--format", "plot"], ["--out", "out.txt"],
                                ["--out", ""], ["--plot-y", ","],
                                ["--format", "plot", "--plot-x", _column(variable)]))
        elif fault == "bogus column":
            extra = ["--format", "plot", rng.choice(("--plot-x", "--plot-y")), "bogus"]
        argv = [target, f"--grid={grid}", "--quiet", *extra]
        if len(TARGETS[target][0]) > 1:
            argv.append(f"--variable={variable}")
        argv += [f"--{key.replace('_', '-')}={value}" for key, value in flags.items()]
        cases.append({"id": f"call {i} ({fault})", "config": None, "argv": argv})
    return cases


def shipped_cases() -> list[dict]:
    """Every shipped config, ``presets`` and ``presets --csv``."""
    cases = [{"id": f"config {path.name}", "config": path.read_text(),
              "argv": ["sweep", "--config", "run.cfg", "--quiet"]}
             for path in sorted((ROOT / "configs").glob("*.cfg"))]
    return cases + [{"id": "presets", "config": None, "argv": ["presets"]},
                    {"id": "presets csv", "config": None,
                     "argv": ["presets", "--csv", "scenarios.csv"]}]


def workload_cases() -> list[dict]:
    """The seed-1 and seed-2 rounds of the benchmark workloads."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS, make_round
    cases = []
    for workload in WORKLOADS:
        for seed in (1, 2):
            cases += [{"id": f"{workload} seed {seed} {sweep.name}",
                       "config": sweep.config_text("out.csv"),
                       "argv": ["sweep", "--config", "run.cfg", "--quiet"]}
                      for sweep in make_round(workload, seed)]
    return cases


def dipole_grid_cases() -> list[dict]:
    """The dipole grid, one ``antenna`` call per (E_F, tau, substrate)."""
    return [{"id": f"dipole grid {ef} eV {tau} ps eps {eps}", "config": None,
             "argv": ["antenna", "--grid=10 20 40 50 100 200 500 1000 2000",
                      "--quiet", "--variable=length_um", "--width-um=8",
                      "--gap-um=3", f"--substrate-permittivity={eps}",
                      f"--chemical-potential-ev={ef}",
                      f"--relaxation-time-ps={tau}"]}
            for ef in ("0.1", "0.2", "0.4", "0.6", "1", "1.5", "2")
            for tau in ("0.5", "1", "3", "10")
            for eps in ("1", "3.8", "11.9")]


def run_cases(src: str) -> None:
    """Worker: read cases from stdin, write one result per case to stdout."""
    sys.path.insert(0, src)
    from thzplasmon import cli
    cases = json.load(sys.stdin)
    results = []
    with tempfile.TemporaryDirectory() as directory:
        os.chdir(directory)
        for case in cases:
            for name in os.listdir("."):
                os.remove(name)
            if case["config"] is not None:
                Path("run.cfg").write_text(case["config"], encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(case["argv"])
            files = {name: Path(name).read_text(encoding="utf-8")
                     for name in sorted(os.listdir(".")) if name != "run.cfg"}
            results.append({"code": code, "stdout": out.getvalue(),
                            "stderr": err.getvalue(), "files": files})
    json.dump(results, sys.stdout)


def _results(src: str, cases: list[dict]) -> list[dict]:
    env = dict(os.environ, COLUMNS="80")
    env.pop("PYTHONPATH", None)
    done = subprocess.run([sys.executable, __file__, "--worker", src],
                          input=json.dumps(cases), capture_output=True,
                          text=True, env=env, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{src}: worker failed\n{done.stderr}")
    return json.loads(done.stdout)


def _short(value, width: int = 160) -> str:
    text = json.dumps(value)
    return text if len(text) <= width else text[:width] + "..."


# --- sorting what a change moves (--classify) ---------------------------------

ULP_LEVEL = 1e-14   # a root that moves by less, relative, moved by rounding
BRANCH_LEVEL = 1e-8  # one that moves by more is another root to find_mode
# columns judged with a row's root: an antenna row's f_res and its
# efficiency proxy are the two unknowns (f, Im q) of the resonance solve
JUDGED_ALSO = ("efficiency_proxy(1)",)
ULP, LARGER, BRANCH, FIXED, BROKEN, OTHER = (
    "ulp-level", "larger change", "branch change", "failed -> ok",
    "ok -> failed", "other")
CLASSES = (ULP, LARGER, BRANCH, FIXED, BROKEN, OTHER)


class Change(NamedTuple):
    kind: str          # one of CLASSES
    what: str          # the root or the item that changed
    relative: float    # its relative change (a row's largest of its root's
                       # and JUDGED_ALSO's); nan where it is not a number
    old: object = None
    new: object = None


def _relative(old, new) -> float:
    if not old:
        return 0.0 if new == old else math.inf
    return abs(new - old) / abs(old)


def _root(header: list[str], cells: list[str]):
    """(name, value) of the solver root a result row rests on, or None for
    a target that never touches the solver.  A stack row's root is rebuilt
    from n_eff and normalized_lp = Re q / (4 pi Im q)."""
    row = dict(zip(header, cells))
    if "q_real(rad/m)" in row:
        return "dispersion q", complex(float(row["q_real(rad/m)"]),
                                       float(row["q_imag(rad/m)"]))
    if "f_res(THz)" in row:
        return "antenna f_res", float(row["f_res(THz)"])
    if "normalized_lp(1)" in row:
        n_eff = float(row["n_eff(1)"])
        return "stack x", complex(
            n_eff, n_eff / (4.0 * math.pi * float(row["normalized_lp(1)"])))
    return None


def _cells_change(what: str, old: list[str], new: list[str]) -> Change:
    try:
        relative = max(_relative(float(a), float(b))
                       for a, b in zip(old, new) if a != b)
    except ValueError:
        relative = math.nan
    return Change(OTHER, what, relative)


def _csv_changes(name: str, old_text: str, new_text: str) -> list[Change]:
    """One Change per changed row of two result CSVs, paired by position."""
    old_lines, new_lines = old_text.splitlines(), new_text.splitlines()
    if old_lines[0] != new_lines[0] or len(old_lines) != len(new_lines):
        return [Change(OTHER, f"header or row count of {name}", math.nan)]
    header = old_lines[0].split(",")
    judged = [header.index(column) for column in JUDGED_ALSO if column in header]
    other = "conductivity row" if "sigma_real(S)" in header else "scenario row"
    changes = []
    for old_line, new_line in zip(old_lines[1:], new_lines[1:]):
        if old_line == new_line:
            continue
        old, new = old_line.split(","), new_line.split(",")
        old_ok, new_ok = old[-1] == "ok", new[-1] == "ok"
        if old_ok != new_ok:
            changes.append(Change(FIXED if new_ok else BROKEN, name, math.nan,
                                  old[-1], new[-1]))
        elif not old_ok:
            changes.append(Change(OTHER, "failure reason", math.nan))
        elif (roots := _root(header, old)) is None:
            changes.append(_cells_change(other, old, new))
        else:
            what, a = roots
            b = _root(header, new)[1]
            relative = max([_relative(a, b)] + [
                _relative(float(old[i]), float(new[i])) for i in judged])
            kind = (ULP if relative < ULP_LEVEL else
                    LARGER if relative < BRANCH_LEVEL else BRANCH)
            changes.append(Change(kind, what, relative, a, b))
    return changes


def _plot_changes(name: str, old_text: str, new_text: str) -> list[Change]:
    """One Change per changed value of two plot-data texts, named after
    the column of its block ("# x=<column> y=<column>")."""
    old_lines, new_lines = old_text.splitlines(), new_text.splitlines()
    if len(old_lines) != len(new_lines):
        return [Change(OTHER, f"text of {name}", math.nan)]
    changes = []
    for old_line, new_line in zip(old_lines, new_lines):
        if old_line.startswith("# x="):
            column = old_line.rpartition(" y=")[2]
        if old_line == new_line:
            continue
        old, new = old_line.split(), new_line.split()
        if len(old) != len(new) or old_line.startswith("#"):
            changes.append(Change(OTHER, f"text of {name}", math.nan))
            continue
        changes += [_cells_change(f"plot {column}", [a], [b])
                    for a, b in zip(old, new) if a != b]
    return changes


def classify(old: dict, new: dict) -> list[Change]:
    """What differs between two results of one case, sorted into CLASSES:
    one Change per changed row of an emitted result CSV (stdout or a file)
    and one per other item that changed."""
    changes = [Change(OTHER, field, math.nan) for field in ("code", "stderr")
               if old[field] != new[field]]
    old_texts = {"stdout": old["stdout"], **old["files"]}
    new_texts = {"stdout": new["stdout"], **new["files"]}
    for name in sorted(old_texts.keys() | new_texts.keys()):
        a, b = old_texts.get(name), new_texts.get(name)
        if a == b:
            continue
        if a is None or b is None:
            changes.append(Change(OTHER, f"presence of {name}", math.nan))
        elif all(text.split("\n", 1)[0].endswith("status(-)") for text in (a, b)):
            changes += _csv_changes(name, a, b)
        elif a.startswith("# x=") and b.startswith("# x="):
            changes += _plot_changes(name, a, b)
        else:
            changes.append(Change(OTHER, f"text of {name}", math.nan))
    return changes


def _print_classes(cases: list[dict], old: list[dict], new: list[dict]) -> int:
    """Print each class's count, the case of every larger or branch change
    or flip, and the count and largest relative change of each root and
    other item; 1 where a case differs, as without --classify."""
    groups: dict[tuple[str, str], list[float]] = {}
    counts = dict.fromkeys(CLASSES, 0)
    differ = [(case, a, b) for case, a, b in zip(cases, old, new) if a != b]
    print(f"{len(differ)} of {len(cases)} cases differ")
    for case, a, b in differ:
        for change in classify(a, b):
            counts[change.kind] += 1
            groups.setdefault(change[:2], []).append(change.relative)
            if change.kind in (LARGER, BRANCH, FIXED, BROKEN):
                print(f"{change.kind}: {case['id']}: {change.what} "
                      f"old {change.old!r} new {change.new!r}")
    for (kind, what), relatives in sorted(groups.items()):
        largest = max((r for r in relatives if not math.isnan(r)), default=None)
        print(f"  {kind}, {what}: {len(relatives)}"
              + (f", largest relative change {largest:.3g}"
                 if largest is not None else ""))
    for kind in CLASSES:
        print(f"{kind}: {counts[kind]}")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src", nargs="?")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--documents", type=int, default=2000)
    parser.add_argument("--calls", type=int, default=800)
    parser.add_argument("--max-faults", type=int, default=1)
    parser.add_argument("--classify", action="store_true",
                        help="sort the changed rows instead of printing them")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        run_cases(args.old_src)
        return 0
    if args.new_src is None:
        parser.error("NEW_SRC is required")
    cases = (shipped_cases() + workload_cases()
             + config_documents(args.seed, args.documents, args.max_faults)
             + direct_calls(args.seed, args.calls) + dipole_grid_cases())
    old, new = (_results(str(Path(src).resolve()), cases)
                for src in (args.old_src, args.new_src))
    if args.classify:
        return _print_classes(cases, old, new)
    differ = 0
    for case, a, b in zip(cases, old, new):
        if a == b:
            continue
        differ += 1
        print(f"--- {case['id']}: argv {_short(case['argv'])}")
        if case["config"] is not None:
            print(f"    config {_short(case['config'], 400)}")
        for field in ("code", "stdout", "stderr", "files"):
            if a[field] != b[field]:
                print(f"    {field}: old {_short(a[field])}\n"
                      f"    {' ' * len(field)}  new {_short(b[field])}")
    print(f"{differ} of {len(cases)} cases differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
