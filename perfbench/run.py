"""Benchmark for thzplasmon: config-driven sweeps through the CLI, in process.

    python3 perfbench/run.py --workload cold-stack --seed 1 --seconds 20 --trace 0

Run from the repository root.  The workload's sweeps are generated from the
seed (see workloads.py) and run as ``thzplasmon.cli.main(["sweep",
"--config", ...])`` in rounds until --seconds have passed.  Every timed call
is calibrated against a reference loop (calib.py).  After the timed pass,
every CSV is checked independently (checks.py).

--trace 0 reports the end-to-end metrics setup_s, rows_per_s, peak_rss_mb;
--trace 1 wraps the package's entry points (tracing.py), reports per-layer
metrics and writes the spans to perfbench/out/.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calib import T_NOM, calibrated_call, reference_loop
from workloads import WORKLOADS, make_round, write_configs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60


def _fail(message: str) -> int:
    sys.stderr.write(f"perfbench: {message}\n")
    return 2


def measure_setup(workload: str, seed: int, run_dir: Path) -> list[dict]:
    """Fresh interpreters, each timed from spawn until it could send its
    first request (package imported, configs written)."""
    results = []
    for i in range(SETUP_REPEATS):
        config_dir = run_dir / f"setup-{i}"
        config_dir.mkdir()
        before = reference_loop()
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload,
             str(seed), str(config_dir)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            line = child.stdout.readline()
            wall = time.perf_counter() - start
            after = reference_loop()
        finally:
            child.stdin.close()
            child.stdout.close()
            try:
                code = child.wait(timeout=SETUP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                child.kill()
                code = child.wait()
        if code != 0 or not line.startswith("ready "):
            raise RuntimeError(f"set-up probe exited with {code}: {line!r}")
        report = json.loads(line[len("ready "):])
        raw = wall - report["ref_s"]
        report["setup_raw_s"] = raw
        report["setup_s"] = raw * T_NOM / (0.5 * (before + after))
        results.append(report)
    return results


def run(args) -> int:
    if not (SRC / "thzplasmon" / "cli.py").is_file():
        return _fail(f"package source not found under {SRC}")
    if not (ROOT / "tests" / "oracles.py").is_file():
        return _fail("tests/oracles.py not found; the output checks need it")
    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir()
    try:
        return _run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(args, run_dir: Path) -> int:
    setups = measure_setup(args.workload, args.seed, run_dir)

    sys.path.insert(0, str(SRC))
    import thzplasmon
    import thzplasmon.cli as cli
    from thzplasmon.sweep import parse_result_csv

    sweeps = write_configs(make_round(args.workload, args.seed), run_dir)
    tracer = None
    main = cli.main
    if args.trace:
        from tracing import Tracer
        tracer = Tracer(thzplasmon).install()
        main = tracer.wrap(cli.main, "cli.main")

    first = {}          # sweep name -> (exit code, csv text) of round 1
    mismatches = []
    times = {sweep.name: ([], []) for sweep, _, _ in sweeps}  # raw s, calibrated s
    factors = {}        # root span id -> calibration factor (traced run)
    attempted = failed = n_rounds = 0
    origin = time.perf_counter()
    while True:
        n_rounds += 1
        for sweep, cfg, csv in sweeps:
            argv = ["sweep", "--config", cfg, "--quiet"]
            root = len(tracer.spans) if tracer else None
            code, raw, cal, t_ref = calibrated_call(main, argv)
            if tracer:
                factors[root] = T_NOM / t_ref
            times[sweep.name][0].append(raw)
            times[sweep.name][1].append(cal)
            with open(csv, "r", encoding="utf-8") as handle:
                text = handle.read()
            rows = text.count("\n") - 1
            bad = sum(1 for line in text.splitlines()[1:]
                      if not line.endswith(",ok"))
            attempted += rows
            failed += bad
            if sweep.name not in first:
                first[sweep.name] = (code, text)
            elif first[sweep.name] != (code, text):
                mismatches.append(f"{sweep.name}: round {n_rounds} "
                                  "output differs from round 1")
        if time.perf_counter() - origin >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    import checks
    oracles = checks.load_oracles()
    errors = list(mismatches)
    for sweep, _, _ in sweeps:
        code, text = first[sweep.name]
        errors += checks.check_sweep(oracles, parse_result_csv, sweep, text, code)
    for line in errors[:20]:
        sys.stderr.write(f"perfbench: check failed: {line}\n")

    print(f"workload {args.workload} seed {args.seed}: {n_rounds} rounds of "
          f"{len(sweeps)} sweeps, {attempted} rows attempted, {failed} failed, "
          f"{len(errors)} check errors")
    setup_raw = statistics.median(s["setup_raw_s"] for s in setups)
    setup_cal = statistics.median(s["setup_s"] for s in setups)
    if tracer is None:
        # a round's time is the sum over its sweeps of each sweep's median
        # time across rounds: a stall hits one sample of one sweep only
        ok_per_round = (attempted - failed) / n_rounds
        rate_raw, rate_cal = (
            ok_per_round / sum(statistics.median(t[k]) for t in times.values())
            for k in (0, 1))
        print(f"setup_s      {setup_cal:.6f} s calibrated, {setup_raw:.6f} s raw "
              f"(median of {len(setups)})")
        print(f"rows_per_s   {rate_cal:.3f} calibrated, {rate_raw:.3f} raw "
              f"(per-sweep medians over {n_rounds} rounds)")
        print(f"peak_rss_mb  {peak_rss_mb:.3f} MB")
        metrics = {"setup_s": (setup_cal, "s"), "rows_per_s": (rate_cal, "rows/s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    else:
        from tracing import per_layer_metrics
        antenna_rows = sum(len(s.grid) for s, _, _ in sweeps
                           if s.target == "antenna") * n_rounds
        layer, layer_raw = (
            per_layer_metrics(tracer, f, attempted, antenna_rows, attempted - failed)
            for f in (factors, dict.fromkeys(factors, 1.0)))
        for name in ("import", "inputs"):
            raw = statistics.median(s[f"{name}_raw_s"] for s in setups)
            cal = statistics.median(s[f"{name}_s"] for s in setups)
            layer[f"setup.{name}_s"] = cal
            print(f"setup.{name}_s {cal:.6f} s calibrated, {raw:.6f} s raw")
        stem = f"{args.workload}-{args.seed}"
        tracer.write(OUT / f"spans-{stem}.jsonl", origin)
        with open(OUT / f"layers-{stem}.json", "w", encoding="utf-8") as handle:
            json.dump({name: {"value": value, "unit": LAYER_UNITS[name]}
                       for name, value in layer.items()}, handle, indent=1)
        print(f"{len(tracer.spans)} spans and all per-layer metrics written to "
              f"perfbench/out/spans-{stem}.jsonl and layers-{stem}.json")
        for name, value in layer.items():
            unit = LAYER_UNITS[name]
            if value is None:
                print(f"{name:36s} n/a (layer not called)")
            elif unit in ("ms", "us") and name in layer_raw:
                print(f"{name:36s} {value:.6g} {unit} calibrated, "
                      f"{layer_raw[name]:.6g} {unit} raw")
            else:
                print(f"{name:36s} {value:.6g} {unit}")
        metrics = {name: (value, LAYER_UNITS[name]) for name, value in layer.items()
                   if name not in CALLED_ONLY}

    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


# Layer times defined only on workloads that call the layer (null in the
# layers file elsewhere).  They stay out of the JSON result, which carries
# the same metrics on every workload; modesolver.solve_loop_ms_per_row
# covers that layer there.
CALLED_ONLY = ("antenna.resonance_ms", "modesolver.stack_sweep_ms_per_row",
               "modesolver.trace_ms_per_point", "find_mode.warm_ms")
LAYER_UNITS = {
    "sweep.parse_ms": "ms", "sweep.run_ms": "ms", "sweep.emit_ms": "ms",
    "sweep.emit_bytes_per_row": "B/row",
    "antenna.resonance_ms": "ms", "antenna.solves_per_row": "count",
    "antenna.cold_solves_per_row": "count", "antenna.evals_per_row": "count",
    "modesolver.solve_loop_ms_per_row": "ms", "modesolver.stack_sweep_ms_per_row": "ms",
    "modesolver.trace_ms_per_point": "ms",
    "find_mode.cold_calls_per_row": "count", "find_mode.warm_calls_per_row": "count",
    "find_mode.cold_ms": "ms", "find_mode.warm_ms": "ms",
    "find_mode.cold_evals": "count", "find_mode.warm_evals": "count",
    "find_mode.failed_calls_per_row": "count", "find_mode.useful_eval_ratio": "1",
    "mode_function.evals_per_row": "count", "mode_function.us_per_eval": "us",
    "conductivity.calls_per_row": "count",
    "setup.import_s": "s", "setup.inputs_s": "s",
}


def _terminate(signum, frame):
    # unwind through the finally blocks: the run directory is removed and a
    # set-up child is released and waited for
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
