"""Batch command-line front-end.

Exit codes: 0 when every row succeeded, 2 when any row failed, 1 on usage
or configuration errors.
"""
from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace

from . import scenario as _scenario
from .stacks import (H1G_FILM_THICKNESS_M, H2G_FILM_THICKNESS_M,
                     HIM_PERMITTIVITY, LIM_PERMITTIVITY)
from .sweep import (_TARGETS, _TEXT_KEYS, FORMATS, ConfigError, SweepSpec,
                    UnknownColumnError, _grid, _output_settings, emit_csv,
                    emit_plotdata, parse_config, run_sweep)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this tool reserves 2 for
    # "sweep ran but rows failed"
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(parser):
    parser.add_argument("--out", help="output file path (default: stdout)")
    parser.add_argument("--format", choices=FORMATS,
                        help=f"output format (default {FORMATS[0]})")
    parser.add_argument("--plot-x", help="x column for plot output")
    parser.add_argument("--plot-y", help="comma-separated y columns for plot output")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the summary line on stderr")


def _add_sweep(parser):
    parser.add_argument("--config", required=True, help="configuration file path")
    _add_common(parser)


def _add_direct(schema, parser):
    # a direct subcommand's flags are its sweep target's [fixed] keys
    variables = schema["variables"]
    if len(variables) > 1:
        parser.add_argument("--variable", default=variables[0], choices=variables)
    parser.add_argument("--grid", required=True,
                        help="grid values, 'a b c' or start:stop:count")
    for key in schema["fixed"]:
        parser.add_argument("--" + key.replace("_", "-"),
                            type=str if key in _TEXT_KEYS else float)
    _add_common(parser)


def _add_presets(parser):
    parser.add_argument("--csv", help="also write the scenario table as CSV")
    parser.add_argument("--quiet", action="store_true")


# subcommand: (help line, adds its arguments)
_COMMANDS = {
    "sweep": ("run a sweep from a config file", _add_sweep),
    **{target: (schema["help"], functools.partial(_add_direct, schema))
       for target, schema in _TARGETS.items()},
    "presets": ("print stack presets and scenario constants", _add_presets),
}


def _build_parser(argv) -> argparse.ArgumentParser:
    parser = _Parser(prog="thzplasmon",
                     description="Graphene plasmonic terahertz antenna toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    # argparse dispatches on the first positional argument, and the top
    # level has no option that takes a value, so the first command name in
    # argv is the invoked one; only it gets its arguments, the others show
    # only in --help and in the invalid-choice error
    invoked = next((arg for arg in argv if arg in _COMMANDS), None)
    for name, (help_line, add_arguments) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_line)
        if name == invoked:
            add_arguments(command)
    return parser


def _spec_from_args(args) -> SweepSpec:
    # the flags are the spec's fields, text stripped as the config parser
    # strips it, so CLI and config files cannot drift apart; main applies
    # the output flags
    schema = _TARGETS[args.command]
    fixed = {key: value.strip() if key in _TEXT_KEYS else value
             for key in schema["fixed"] if (value := getattr(args, key)) is not None}
    return SweepSpec(args.command, getattr(args, "variable", schema["variables"][0]),
                     _grid(args.grid.strip()), fixed)


def _emit(spec: SweepSpec, table) -> None:
    # plot output defaults to the swept variable against every value column
    if spec.output_format == FORMATS[0]:
        text = emit_csv(table, spec.output_path)
    else:
        text = emit_plotdata(
            table, spec.plot_x or table.columns[0].name,
            spec.plot_y or tuple(col.name for col in table.columns[1:]),
            spec.output_path)
    if spec.output_path is None:
        sys.stdout.write(text)


def _print_presets(args) -> int:
    out = sys.stdout
    out.write("Radiating-element stack presets (top cladding first):\n")
    out.write(f"  G   : vacuum | sheet | LIM eps_r={LIM_PERMITTIVITY} (semi-infinite)\n")
    out.write(f"  H1G : vacuum | sheet | HIM eps_r={HIM_PERMITTIVITY} "
              f"({H1G_FILM_THICKNESS_M * 1e6:g} um) | LIM eps_r={LIM_PERMITTIVITY}\n")
    out.write(f"  H2G : vacuum | HIM ({H2G_FILM_THICKNESS_M * 1e6:g} um) | sheet | "
              f"HIM ({H2G_FILM_THICKNESS_M * 1e6:g} um) | LIM eps_r={LIM_PERMITTIVITY}\n")
    out.write("Other stacks are built from DielectricLayer and LayeredStack "
              "via the API.\n\n")
    out.write("Area-constrained application envelopes:\n")
    for s in _scenario.builtin_scenarios():
        out.write(f"  {s.name:4s}: node size {s.node_size_m2[0]:g}-{s.node_size_m2[1]:g} m2, "
                  f"tx range {s.tx_range_m[0]:g}-{s.tx_range_m[1]:g} m, "
                  f"data rate {s.data_rate_bps[0]:g}-{s.data_rate_bps[1]:g} bit/s\n")
    if args.csv:
        try:
            _scenario.write_scenarios_csv(args.csv)
        except OSError as err:
            sys.stderr.write(f"thzplasmon: {err}\n")
            return 1
        if not args.quiet:
            sys.stderr.write(f"scenario table written to {args.csv}\n")
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1

    if args.command == "presets":
        return _print_presets(args)

    try:
        if args.command == "sweep":
            try:
                with open(args.config, "r", encoding="utf-8") as handle:
                    text = handle.read()
            except (OSError, UnicodeDecodeError) as err:
                sys.stderr.write(f"thzplasmon: cannot read config: {err}\n")
                return 1
            spec = parse_config(text)
        else:
            spec = _spec_from_args(args)
        # an output flag given overrides the config's [output] key
        flags = {"path": args.out, "format": args.format,
                 "plot_x": args.plot_x, "plot_y": args.plot_y}
        settings = _output_settings({key: value for key, value in flags.items() if value})
        if settings:
            spec = replace(spec, **settings)
    except ConfigError as err:
        sys.stderr.write(f"thzplasmon: config error: {err}\n")
        return 1

    table = run_sweep(spec)
    try:
        _emit(spec, table)
    except UnknownColumnError as err:
        sys.stderr.write(f"thzplasmon: unknown column: {err}\n")
        return 1
    except OSError as err:
        sys.stderr.write(f"thzplasmon: {err}\n")
        return 1

    failed = sum(1 for status in table.statuses if status != "ok")
    if not args.quiet:
        sys.stderr.write(f"{len(table.rows)} rows, {failed} failed\n")
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
