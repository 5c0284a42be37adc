"""Per-layer tracing by wrapping the package's module attributes from outside.

Each entry point is patched where its caller looks it up (for example both
``thzplasmon.antenna.find_mode`` and ``thzplasmon.modesolver.find_mode``),
so no file of the package changes.  Spans (id, name, start, end, parent)
are kept in memory and written out when the run ends.  Mode-function
evaluations and conductivity calls are counted, not spanned: they happen
thousands of times per row.
"""
from __future__ import annotations

import json
import time


class TraceError(RuntimeError):
    """The hooks cannot measure what they claim to measure."""


# (module, attribute, span name); all must exist
_SPANNED = (
    ("cli", "parse_config", "sweep.parse_config"),
    ("cli", "run_sweep", "sweep.run_sweep"),
    ("cli", "emit_csv", "sweep.emit_csv"),
    ("antenna", "resonance_frequency", "antenna.resonance_frequency"),
    ("modesolver", "stack_metrics_sweep", "modesolver.stack_metrics_sweep"),
    ("modesolver", "trace_dispersion", "modesolver.trace_dispersion"),
    ("modesolver", "find_mode", "find_mode"),
)
# further lookups of the same functions by other callers; patched if present
_ALIASES = (("antenna", "find_mode", "find_mode"),)
_CONDUCTIVITY_LOOKUPS = ("modesolver", "sweep", "conductivity", "antenna")

FIND_MODE = "find_mode"
RESONANCE = "antenna.resonance_frequency"


class Tracer:
    """Installs the hooks, records spans and counts, and removes the hooks."""

    def __init__(self, package):
        self.package = package
        self.spans = []          # [id, name, start, end, parent, root, evals, ok, size, cold]
        self.evals = 0           # mode-function evaluations
        self.conductivity_calls = 0
        self._open = []          # ids of open spans, innermost last
        self._patched = []       # (module, attribute, original)

    # -- hooks ---------------------------------------------------------------

    def _module(self, name):
        return getattr(self.package, name)

    def _patch(self, module, attr, replacement):
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self):
        modesolver = self._module("modesolver")
        if not hasattr(modesolver, "_mode_function"):
            raise TraceError("thzplasmon.modesolver._mode_function is missing: "
                             "mode-function evaluations cannot be counted")
        for mod_name, attr, span_name in _SPANNED:
            module = self._module(mod_name)
            if not hasattr(module, attr):
                raise TraceError(f"thzplasmon.{mod_name}.{attr} is missing")
            self._patch(module, attr, self.wrap(getattr(module, attr), span_name))
        for mod_name, attr, span_name in _ALIASES:
            module = self._module(mod_name)
            if hasattr(module, attr):
                self._patch(module, attr, self.wrap(getattr(module, attr), span_name))
        self._patch(modesolver, "_mode_function",
                    self._counted(modesolver._mode_function, "evals"))
        for mod_name in _CONDUCTIVITY_LOOKUPS:
            module = self._module(mod_name)
            if hasattr(module, "intraband_conductivity"):
                self._patch(module, "intraband_conductivity",
                            self._counted(module.intraband_conductivity,
                                          "conductivity_calls"))
        return self

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _counted(self, fn, counter):
        def counted(*args, **kwargs):
            setattr(self, counter, getattr(self, counter) + 1)
            return fn(*args, **kwargs)
        return counted

    def wrap(self, fn, name):
        """fn, recording one span per call."""
        def spanned(*args, **kwargs):
            cold = None
            if name == FIND_MODE:
                guess = args[2] if len(args) > 2 else kwargs.get("initial_guess")
                cold = guess is None
            span = self._begin(name)
            span[9] = cold
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                if isinstance(result, (str, list)):
                    span[8] = len(result)
                return result
            finally:
                self._end(span, ok)
        return spanned

    def _begin(self, name):
        parent = self._open[-1] if self._open else None
        root = self.spans[parent][5] if parent is not None else len(self.spans)
        span = [len(self.spans), name, time.perf_counter(), None, parent, root,
                self.evals, False, None, None]
        self.spans.append(span)
        self._open.append(span[0])
        return span

    def _end(self, span, ok):
        span[3] = time.perf_counter()
        span[6] = self.evals - span[6]
        span[7] = ok
        self._open.pop()

    # -- output --------------------------------------------------------------

    def ancestors_include(self, span, name) -> bool:
        parent = span[4]
        while parent is not None:
            if self.spans[parent][1] == name:
                return True
            parent = self.spans[parent][4]
        return False

    def write(self, path, origin: float) -> None:
        """Write the spans as JSON lines, times in seconds from origin."""
        with open(path, "w", encoding="utf-8") as handle:
            for sid, name, start, end, parent, _, evals, ok, size, cold in self.spans:
                handle.write(json.dumps(
                    {"id": sid, "name": name, "start": start - origin,
                     "end": end - origin, "parent": parent, "evals": evals,
                     "ok": ok, "size": size, "cold": cold}) + "\n")


def per_layer_metrics(tracer: Tracer, factors: dict, rows: int,
                      antenna_rows: int, ok_rows: int) -> dict[str, float]:
    """Per-layer figures from the spans.

    factors maps each root span id to its calibration factor T_NOM / T_ref;
    every span inside a root is calibrated with that root's factor.  The
    time of a layer the workload never calls is None.  Raises TraceError
    when the evaluation counter read zero while rows succeeded.
    """
    if tracer.evals == 0 and ok_rows > 0:
        raise TraceError("mode-function counter read 0 while rows succeeded: "
                         "the hook is not on the evaluation path")

    def ms(span):
        return (span[3] - span[2]) * factors[span[5]] * 1e3

    def by_name(name):
        return [s for s in tracer.spans if s[1] == name]

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    def per_or_none(total, base):
        # the time of a layer the workload never calls is undefined, not 0
        return total / base if base else None

    def per(count, base):
        return count / base if base else 0.0

    parse, run, emit = (by_name(f"sweep.{n}") for n in
                        ("parse_config", "run_sweep", "emit_csv"))
    resonance = by_name(RESONANCE)
    stack_sweeps = by_name("modesolver.stack_metrics_sweep")
    traces = by_name("modesolver.trace_dispersion")
    solves = by_name(FIND_MODE)
    cold = [s for s in solves if s[9]]
    warm = [s for s in solves if not s[9]]
    in_antenna = [s for s in solves if tracer.ancestors_include(s, RESONANCE)]
    solve_evals = sum(s[6] for s in solves)
    solve_loops = resonance + stack_sweeps + traces
    return {
        "sweep.parse_ms": mean([ms(s) for s in parse]),
        "sweep.run_ms": mean([ms(s) for s in run]),
        "sweep.emit_ms": mean([ms(s) for s in emit]),
        "sweep.emit_bytes_per_row": per(sum(s[8] or 0 for s in emit), rows),
        "antenna.resonance_ms": per_or_none(sum(ms(s) for s in resonance),
                                            len(resonance)),
        "antenna.solves_per_row": per(len(in_antenna), antenna_rows),
        "antenna.cold_solves_per_row": per(sum(1 for s in in_antenna if s[9]),
                                           antenna_rows),
        "antenna.evals_per_row": per(sum(s[6] for s in resonance), antenna_rows),
        "modesolver.solve_loop_ms_per_row": per(sum(ms(s) for s in solve_loops),
                                                 rows),
        "modesolver.stack_sweep_ms_per_row": per_or_none(
            sum(ms(s) for s in stack_sweeps), sum(s[8] or 0 for s in stack_sweeps)),
        "modesolver.trace_ms_per_point": per_or_none(
            sum(ms(s) for s in traces), sum(s[8] or 0 for s in traces)),
        "find_mode.cold_calls_per_row": per(len(cold), rows),
        "find_mode.warm_calls_per_row": per(len(warm), rows),
        "find_mode.cold_ms": mean([ms(s) for s in cold]),
        "find_mode.warm_ms": per_or_none(sum(ms(s) for s in warm), len(warm)),
        "find_mode.cold_evals": per(sum(s[6] for s in cold), len(cold)),
        "find_mode.warm_evals": per(sum(s[6] for s in warm), len(warm)),
        "find_mode.failed_calls_per_row": per(sum(1 for s in solves if not s[7]),
                                              rows),
        "find_mode.useful_eval_ratio": per(sum(s[6] for s in solves if s[7]),
                                           solve_evals),
        "mode_function.evals_per_row": per(tracer.evals, rows),
        "mode_function.us_per_eval": per(sum(ms(s) for s in solves) * 1e3,
                                         solve_evals),
        "conductivity.calls_per_row": per(tracer.conductivity_calls, rows),
    }
