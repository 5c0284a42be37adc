"""Child process for the set-up measurement: a fresh interpreter imports the
package and writes one round of the workload's configs, reports on stdout,
then waits until its stdin closes so that interpreter teardown is not timed.

    python3 perfbench/setup_probe.py <src dir> <workload> <seed> <config dir>

The reported line is ``ready {json}`` with calibrated and raw seconds of the
import and of building the configs, and the seconds this process spent in
reference loops (the parent subtracts them from the wall time it measures).
"""
import json
import sys
import time

from calib import T_NOM, reference_loop


def main(src: str, workload: str, seed: str, directory: str) -> None:
    ref0 = reference_loop()
    start = time.perf_counter()
    sys.path.insert(0, src)
    import thzplasmon.cli  # noqa: F401  (the set-up being measured)
    import_raw = time.perf_counter() - start
    ref1 = reference_loop()
    start = time.perf_counter()
    from workloads import make_round, write_configs
    write_configs(make_round(workload, int(seed)), directory)
    inputs_raw = time.perf_counter() - start
    ref2 = reference_loop()
    report = {
        "import_raw_s": import_raw,
        "import_s": import_raw * T_NOM / (0.5 * (ref0 + ref1)),
        "inputs_raw_s": inputs_raw,
        "inputs_s": inputs_raw * T_NOM / (0.5 * (ref1 + ref2)),
        "ref_s": ref0 + ref1 + ref2,
    }
    sys.stdout.write("ready " + json.dumps(report) + "\n")
    sys.stdout.flush()
    sys.stdin.read()


if __name__ == "__main__":
    main(*sys.argv[1:5])
