"""Run the phcf CLI with timing wrappers around the calls into each layer.

    python3 bench/tracer.py TRACE_JSON phcf-arguments...

The wrappers are installed in memory, with setattr on the imported modules,
at the name each caller looks up: ``phcf.sde.acceleration_array`` is the
binding ``_integrate`` calls, ``phcf.cli.simulate`` the one ``cmd_simulate``
calls.  No file of the package is touched.

Every wrapped name keeps aggregate counters (calls, total seconds, self
seconds) instead of one record per call: the drift kernel runs once per
step, hundreds of thousands of times in a long run.  A span's self time is
its duration minus the time of the wrapped calls made inside it.  Spans
are timed in process CPU seconds, the clock the end-to-end ``cpu_s`` uses,
so time the machine takes away from the process counts in no span.  The
counters are written to TRACE_JSON when the command ends, also when it
fails.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# (binding, span name).  A binding is "module.attribute" or
# "module.Class.attribute"; several bindings may feed one span name.
SPANS = (
    ("phcf.cli.main", "cli"),
    ("phcf.cli.load_scenario", "scenario.load"),
    ("phcf.cli.simulate", "sde.integrate"),
    ("phcf.cli.run_ensemble", "sde.integrate"),
    ("phcf.sde.acceleration_array", "model.acceleration_array"),
    ("phcf.sde.noise_block", "sde.noise_block"),
    ("phcf.sde.TimeSeries.positions", "sde.stack"),
    ("phcf.sde.TimeSeries.speeds", "sde.stack"),
    ("phcf.cli.observables", "stats.observables"),
    ("phcf.cli.build_matrices", "model.build_matrices"),
    ("phcf.model.assemble_drift_matrix", "model.assemble_drift_matrix"),
    ("phcf.spectral.assemble_drift_matrix", "model.assemble_drift_matrix"),
    ("phcf.cli.eigenvalues", "spectral.eigenvalues"),
    ("phcf.cli.stability_report", "spectral.stability_report"),
    ("phcf.spectral.drift_matrix_norm", "spectral.drift_matrix_norm"),
    ("phcf.cli.trajectory_svg", "svgplot"),
    ("phcf.cli.observables_svg", "svgplot"),
    ("phcf.cli.stability_map_svg", "svgplot"),
)


def _resolve(binding):
    """(owner object, attribute name) of a dotted binding."""
    parts = binding.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name)
        return owner, parts[-1]
    raise ImportError(f"cannot resolve {binding}")


def _dense_bytes(args, kwargs, result):
    n = kwargs.get("n", args[0] if args else None)
    return {"model.dense_bytes": 8 * (2 * int(n)) ** 2}


def _svg_bytes(args, kwargs, result):
    return {"svgplot.bytes": len(result.encode("utf-8"))}


# Counters derived from a call's arguments and result, by span name.
COUNTERS = {
    "model.assemble_drift_matrix": _dense_bytes,
    "svgplot": _svg_bytes,
}


class Tracer:
    """Aggregate timing of wrapped calls, nested through a stack of the
    child time accumulated by each open span."""

    def __init__(self, clock=time.process_time):
        self.clock = clock
        self.spans = {}  # name -> [calls, total_s, self_s]
        self.counters = {}
        self._open = []

    def add(self, counts):
        for key, value in counts.items():
            self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, fn, name, count=None):
        totals = self.spans.setdefault(name, [0, 0.0, 0.0])
        open_spans = self._open
        clock = self.clock

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                child = open_spans.pop()
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - child
                if open_spans:
                    open_spans[-1] += duration
            if count is not None:
                self.add(count(args, kwargs, result))
            return result

        return traced

    def wrap_integrator(self, fn):
        """Count runs and run-steps (runs times drift calls) of one
        integration, also when it ends in a blowup exception.

        simulate(params, potential, config) integrates one run and
        run_ensemble(params, potential, config, n_runs) integrates n_runs.
        """
        drift_calls = self.spans.setdefault("model.acceleration_array", [0, 0.0, 0.0])

        def counted(*args, **kwargs):
            before = drift_calls[0]
            runs = args[3] if len(args) > 3 else kwargs.get("n_runs", 1)
            try:
                return fn(*args, **kwargs)
            finally:
                self.add({"sde.runs": runs, "sde.run_steps": runs * (drift_calls[0] - before)})

        return counted

    def install(self):
        for binding, name in SPANS:
            owner, attr = _resolve(binding)
            fn = getattr(owner, attr)
            if name == "sde.integrate":
                fn = self.wrap_integrator(fn)
            setattr(owner, attr, self.wrap(fn, name, COUNTERS.get(name)))

    def report(self) -> dict:
        return {
            "spans": {
                name: {"calls": c, "s": total, "self_s": own}
                for name, (c, total, own) in sorted(self.spans.items())
            },
            "counters": dict(sorted(self.counters.items())),
        }


def main(argv) -> int:
    if len(argv) < 2:
        print("usage: tracer.py TRACE_JSON phcf-arguments...", file=sys.stderr)
        return 2
    trace_path, cli_args = argv[0], argv[1:]
    import phcf.cli

    tracer = Tracer()
    tracer.install()
    try:
        return phcf.cli.main(cli_args)
    finally:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.report(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
