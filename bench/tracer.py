"""In-memory span tracing of ditsim's public functions, installed from outside.

``Tracer.install`` replaces every binding of a traced function that a caller
can reach: the defining module's attribute and each copy that another module
(or the package ``__init__``) imported by name, since ``from .core import
scatter_coefficients`` leaves ``repeater`` holding its own reference.  Two
targets are not plain functions: ``SystemParams`` construction is traced by
wrapping its ``__init__`` (``dataclasses.replace`` goes through it too), and
the ``NodeRouting.from_params`` classmethod is re-wrapped as a classmethod.

Each span records its name, start, end, parent span and op number in flat
arrays; nothing is aggregated until the run ends.  A span's self time is its
duration minus the durations of its direct children (one thread, so children
never overlap).
"""

from __future__ import annotations

import os
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

import ditsim
from ditsim import cli, core, repeater, spectra, svgplot

LAYERS = ("core", "spectra", "repeater", "cli", "svgplot")
MODULES = (ditsim, core, spectra, repeater, cli, svgplot)
PROTOCOLS = ("parity_probe", "bell_measurement", "entanglement_generation",
             "false_even_probability", "fidelity_success_tradeoff")

# outcome flag per span
OK, INVALID_REGIME, NO_PEAK, OTHER_ERROR = 0, 1, 2, 3


def _sweep_rows(tally, args, kwargs, table):
    tally["spectra.parameter_sweep.rows"] += len(table.rows)
    tally["spectra.parameter_sweep.error_rows"] += sum(r.budget is None for r in table.rows)


def _arrays_size(tally, args, kwargs, arrays):
    tally["core.scattering_arrays.points"] += arrays.t_through.size
    tally["core.scattering_arrays.bytes_computed"] += sum(a.nbytes for a in arrays)


def _table_bytes(tally, args, kwargs, result):
    tally["cli.write_result_table.bytes"] += os.path.getsize(args[1])


def _svg_size(tally, args, kwargs, svg):
    tally["svgplot.render_lines.points"] += sum(len(s.x) for s in args[0])
    tally["svgplot.render_lines.bytes"] += len(svg.encode("utf-8"))


# (span name, defining module, attribute, hook run on the result)
FUNCTIONS = (
    ("core.scatter_coefficients", core, "scatter_coefficients", None),
    ("core.flux_budget", core, "flux_budget", None),
    ("core.scattering_arrays", core, "scattering_arrays", _arrays_size),
    ("spectra.transmission_spectrum", spectra, "transmission_spectrum", None),
    ("spectra.locate_transparency_peak", spectra, "locate_transparency_peak", None),
    ("spectra.parameter_sweep", spectra, "parameter_sweep", _sweep_rows),
    *((f"repeater.{name}", repeater, name, None) for name in PROTOCOLS),
    ("cli.build_parser", cli, "build_parser", None),
    ("cli.load_config", cli, "load_config", None),
    ("cli.run", cli, "run", None),
    ("cli.write_result_table", cli, "write_result_table", _table_bytes),
    ("cli.main", cli, "main", None),
    ("svgplot.render_lines", svgplot, "render_lines", _svg_size),
)
SYSTEM_PARAMS = "core.SystemParams"
FROM_PARAMS = "repeater.NodeRouting.from_params"
SPAN_NAMES = tuple(f[0] for f in FUNCTIONS) + (SYSTEM_PARAMS, FROM_PARAMS)


class Tracer:
    """Records spans while ``on`` is true; ``install`` wires it into ditsim."""

    def __init__(self):
        self.on = False
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.flag = array("b")
        self.tally = Counter()
        self.op_index = -1
        self.routing_keys: set = set()
        self._stack = [-1]
        self._undo: list = []

    # ------------------------------------------------------------ recording --

    def begin_op(self) -> None:
        self.op_index += 1
        self.routing_keys.clear()

    def end_op(self) -> None:
        self.tally["repeater.NodeRouting.from_params.distinct"] += len(self.routing_keys)

    def _wrap(self, name: str, fn, after=None):
        code = SPAN_NAMES.index(name)
        names, starts, ends = self.name, self.start, self.end
        parents, ops, flags, stack = self.parent, self.op, self.flag, self._stack

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(code)
            parents.append(stack[-1])
            ops.append(self.op_index)
            ends.append(0)
            flags.append(OK)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = perf_counter_ns()
                stack.pop()
                flags[idx] = (INVALID_REGIME if isinstance(exc, repeater.InvalidRegime)
                              else NO_PEAK if isinstance(exc, spectra.NoPeak) else OTHER_ERROR)
                raise
            ends[idx] = perf_counter_ns()
            stack.pop()
            if after is not None:
                after(self.tally, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    # --------------------------------------------------------- installation --

    def install(self) -> None:
        """Wrap every reachable binding of the traced functions."""
        for name, module, attr, after in FUNCTIONS:
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, after)
            for mod in MODULES:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, wrapped)

        cls = core.SystemParams
        self._undo.append((cls, "__init__", cls.__init__))
        cls.__init__ = self._wrap(SYSTEM_PARAMS, cls.__init__)

        routing = repeater.NodeRouting
        original = routing.__dict__["from_params"]
        keys = self.routing_keys
        build = self._wrap(FROM_PARAMS, original.__func__)

        def from_params(cls, params, probe):
            if self.on:
                keys.add((params, probe))
            return build(cls, params, probe)

        self._undo.append((routing, "from_params", original))
        routing.from_params = classmethod(from_params)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # ---------------------------------------------------------- aggregation --

    def arrays(self) -> dict[str, np.ndarray]:
        fields = (("name", np.int64), ("start", np.int64), ("end", np.int64),
                  ("parent", np.int64), ("op", np.int64), ("flag", np.int8))
        return {k: np.array(getattr(self, k), dtype=t) for k, t in fields}

    def save(self, path: str) -> None:
        np.savez(path, span_names=np.array(SPAN_NAMES), **self.arrays())

    def layer_metrics(self, ops: int, op_ns: float) -> dict[str, float]:
        """Per-op counts and self times, and each layer's share of op time."""
        a = self.arrays()
        names = a["name"]
        calls = np.bincount(names, minlength=len(SPAN_NAMES))
        self_ns = total_self_ns(a)
        idx = {n: i for i, n in enumerate(SPAN_NAMES)}
        per_op = 1.0 / ops

        def self_us(name):
            return float(self_ns[idx[name]]) / 1e3 * per_op

        def count(name):
            return float(calls[idx[name]]) * per_op

        def flagged(name, flag):
            hit = names == idx[name]
            return float(np.count_nonzero(a["flag"][hit] == flag))

        def ratio(num, den):
            return num / den if den else 0.0

        t = self.tally
        m = {
            "core.scatter_coefficients.calls": count("core.scatter_coefficients"),
            "core.scatter_coefficients.self_us": self_us("core.scatter_coefficients"),
            "core.flux_budget.calls": count("core.flux_budget"),
            "core.flux_budget.self_us": self_us("core.flux_budget"),
            "core.SystemParams.constructed": count(SYSTEM_PARAMS),
            "core.SystemParams.self_us": self_us(SYSTEM_PARAMS),
            "core.scattering_arrays.points": t["core.scattering_arrays.points"] * per_op,
            "core.scattering_arrays.self_us": self_us("core.scattering_arrays"),
            "core.scattering_arrays.bytes_computed":
                t["core.scattering_arrays.bytes_computed"] * per_op,
            "spectra.parameter_sweep.rows": t["spectra.parameter_sweep.rows"] * per_op,
            "spectra.parameter_sweep.error_rows": t["spectra.parameter_sweep.error_rows"] * per_op,
            "spectra.parameter_sweep.self_us": self_us("spectra.parameter_sweep"),
            "spectra.transmission_spectrum.self_us": self_us("spectra.transmission_spectrum"),
            "spectra.locate_transparency_peak.self_us": self_us("spectra.locate_transparency_peak"),
            "spectra.locate_transparency_peak.nopeak_frac": ratio(
                flagged("spectra.locate_transparency_peak", NO_PEAK),
                calls[idx["spectra.locate_transparency_peak"]]),
            "repeater.NodeRouting.from_params.calls": count(FROM_PARAMS),
            "repeater.NodeRouting.from_params.distinct_frac": ratio(
                t["repeater.NodeRouting.from_params.distinct"], calls[idx[FROM_PARAMS]]),
            "repeater.NodeRouting.from_params.self_us": self_us(FROM_PARAMS),
        }
        outermost = 0
        invalid = 0
        repeater_codes = [idx[n] for n in SPAN_NAMES if n.startswith("repeater.")]
        for name in PROTOCOLS:
            full = f"repeater.{name}"
            m[f"{full}.calls"] = count(full)
            m[f"{full}.self_us"] = self_us(full)
            hit = names == idx[full]
            parents = a["parent"][hit]
            top = (parents < 0) | ~np.isin(names[np.maximum(parents, 0)], repeater_codes)
            outermost += int(np.count_nonzero(top))
            invalid += int(np.count_nonzero(top & (a["flag"][hit] == INVALID_REGIME)))
        m["repeater.invalid_regime_frac"] = ratio(invalid, outermost)
        m.update({
            "cli.build_parser.self_us": self_us("cli.build_parser"),
            "cli.load_config.self_us": self_us("cli.load_config"),
            "cli.run.self_us": self_us("cli.run"),
            "cli.write_result_table.self_us": self_us("cli.write_result_table"),
            "cli.write_result_table.bytes": t["cli.write_result_table.bytes"] * per_op,
            "cli.main.self_us": self_us("cli.main"),
            "svgplot.render_lines.self_us": self_us("svgplot.render_lines"),
            "svgplot.render_lines.points": t["svgplot.render_lines.points"] * per_op,
            "svgplot.render_lines.bytes": t["svgplot.render_lines.bytes"] * per_op,
        })
        for layer in LAYERS:
            layer_ns = sum(float(self_ns[i]) for i, n in enumerate(SPAN_NAMES)
                           if n.split(".")[0] == layer)
            m[f"{layer}.share"] = ratio(layer_ns, op_ns)
        return m


def total_self_ns(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Total self time per span name, in SPAN_NAMES order."""
    duration = (spans["end"] - spans["start"]).astype(float)
    nested = spans["parent"] >= 0
    children = np.bincount(spans["parent"][nested], weights=duration[nested],
                           minlength=len(duration))
    return np.bincount(spans["name"], weights=duration - children, minlength=len(SPAN_NAMES))
