"""Command line front end: config-driven runs with CSV/JSON/SVG output.

Configs are flat ``key: value`` text files (``=`` also accepted, ``#`` starts
a comment).  All rates and detunings in configs and outputs are in THz; the
conversion to the library's angular rates is a plain factor of 1e12.

Every command writes ``<command>.csv`` or ``<command>.json`` into the output
directory, plus ``<command>.svg`` when plotting is requested.  Output bytes
are a pure function of the config, command line and package version: no
timestamps, no environment lookups.

Exit codes: 0 success, 2 unusable config (parse or validation failure),
3 valid config outside the model's numerical domain.
"""

from __future__ import annotations

import argparse
import csv as _csv
import functools
import io
import json
import math
import os
import sys
from dataclasses import replace
from itertools import repeat
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .core import (
    THZ,
    NumericsError,
    ProbeDetuning,
    SystemParams,
    _FIELDS as _PARAM_KEYS,
    _field_problem,
    diagnostics,
    scattering_arrays,
)
from .repeater import (
    BELL_LABELS,
    TwoDipoleState,
    bell_measurement,
    entanglement_generation,
    false_even_probability,
    fidelity_success_tradeoff,
    parity_probe,
)
from .spectra import (
    SWEEP_AXES,
    DetuningGrid,
    NoPeak,
    SpectrumSeries,
    locate_transparency_peak,
    parameter_sweep,
)
from .svgplot import LineSeries, render_lines

COMMANDS = ("spectrum", "sweep", "entangle", "parity", "bell", "tradeoff", "diagnostics")

# node parameters, THz; defaults match the reference operating point
_PARAM_DEFAULTS = {
    "gamma": 1.0,
    "g": 0.33,
    "tau": 0.001,
    "kappa": 0.1,
    "delta": 0.0,
    "omega0": 0.0,
}

_NODE_B_KEYS = tuple(f"{k}_b" for k in _PARAM_KEYS)
_TWO_NODE = set(_PARAM_KEYS) | set(_NODE_B_KEYS) | {"delta_omega"}

_COMMAND_KEYS: dict[str, set[str]] = {
    "spectrum": set(_PARAM_KEYS) | {"span", "points", "start", "stop"},
    "sweep": set(_PARAM_KEYS) | {"delta_omega", "axis", "start", "stop", "count"},
    "entangle": _TWO_NODE | {"mean_photons"},
    "parity": _TWO_NODE | {"gamma_start", "gamma_stop", "gamma_count"},
    "bell": _TWO_NODE | {"mean_photons", "state", "samples"},
    "tradeoff": _TWO_NODE | {"nbar_start", "nbar_stop", "nbar_count"},
    "diagnostics": set(_PARAM_KEYS) | {"eta"},
}

_INT_KEYS = {"points", "count", "gamma_count", "nbar_count", "samples"}
_STR_KEYS = {"axis", "state"}


class ParseError(ValueError):
    """Config file is not flat ``key: value`` text."""


class ValidationError(ValueError):
    """Config parsed but one or more settings are unusable."""

    def __init__(self, problems: Sequence[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def parse_config_text(text: str) -> dict[str, str]:
    """Parse flat ``key: value`` lines into raw string settings."""
    settings: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        for sep in (":", "="):
            if sep in line:
                key, value = line.split(sep, 1)
                break
        else:
            raise ParseError(
                f"config line {lineno}: expected 'key: value', got {line!r}"
            )
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ParseError(
                f"config line {lineno}: expected 'key: value', got {line!r}"
            )
        if key in settings:
            raise ParseError(
                f"config line {lineno}: duplicate key {key!r} "
                f"(first set on line {first_line[key]})"
            )
        settings[key] = value
        first_line[key] = lineno
    return settings


def load_config(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return parse_config_text(f.read())
    except OSError as exc:
        raise ParseError(f"cannot read config {path!r}: {exc.strerror}") from exc


def _coerce(command: str, raw: Mapping[str, str]) -> dict:
    """Type-check and range-check raw settings; collects every problem."""
    allowed = _COMMAND_KEYS[command]
    problems: list[str] = []
    options: dict = {}

    for key in raw:
        if key not in allowed:
            import difflib

            near = difflib.get_close_matches(key, sorted(allowed), n=1)
            hint = f" (did you mean {near[0]!r}?)" if near else ""
            problems.append(f"key {key!r} is not recognized for '{command}'{hint}")

    for key, value in raw.items():
        if key not in allowed:
            continue
        if key in _STR_KEYS:
            options[key] = value
        elif key in _INT_KEYS:
            try:
                options[key] = int(value)
            except ValueError:
                problems.append(f"key {key!r}: expected an integer, got {value!r}")
        else:
            try:
                number = float(value)
            except ValueError:
                problems.append(f"key {key!r}: expected a number, got {value!r}")
                continue
            if not math.isfinite(number):
                problems.append(f"key {key!r}: must be finite, got {value!r}")
                continue
            options[key] = number

    problems.extend(_check_ranges(command, options))
    if problems:
        raise ValidationError(problems)
    return options


def _check_ranges(command: str, options: dict) -> list[str]:
    problems: list[str] = []

    def positive(key):
        if key in options and not options[key] > 0:
            problems.append(f"key {key!r}: must be > 0, got {options[key]}")

    def nonnegative(key):
        if key in options and options[key] < 0:
            problems.append(f"key {key!r}: must be >= 0, got {options[key]}")

    def at_least(key, minimum):
        if key in options and options[key] < minimum:
            problems.append(
                f"key {key!r}: must be >= {minimum}, got {options[key]}"
            )

    def not_below(stop, start):
        if start in options and stop in options and options[stop] < options[start]:
            problems.append(
                f"key {stop!r}: must be >= {start!r}, got {options[stop]} and {options[start]}"
            )

    for suffix in ("", "_b"):
        for name in _PARAM_KEYS:
            key = name + suffix
            if key in options and (problem := _field_problem(name, options[key])):
                problems.append(f"key {key!r}: {problem.removeprefix(name + ' ')}")

    if command == "spectrum":
        positive("span")
        at_least("points", 2)
        has_start, has_stop = "start" in options, "stop" in options
        if has_start != has_stop:
            problems.append("keys 'start' and 'stop' must be given together")
        elif has_start and not options["start"] < options["stop"]:
            problems.append(
                f"key 'start': must be < 'stop', got {options['start']} "
                f"and {options['stop']}"
            )
    elif command == "sweep":
        if "axis" not in options:
            problems.append(f"key 'axis' is required (one of {', '.join(SWEEP_AXES)})")
        elif options["axis"] not in SWEEP_AXES:
            problems.append(
                f"key 'axis': must be one of {', '.join(SWEEP_AXES)}, "
                f"got {options['axis']!r}"
            )
        for key in ("start", "stop"):
            if key not in options:
                problems.append(f"key {key!r} is required")
        at_least("count", 1)
        if (
            "start" in options
            and "stop" in options
            and options.get("count", 41) > 1
            and not options["start"] < options["stop"]
        ):
            problems.append(
                f"key 'start': must be < 'stop', got {options['start']} "
                f"and {options['stop']}"
            )
    elif command == "entangle":
        nonnegative("mean_photons")
    elif command == "parity":
        positive("gamma_start")
        positive("gamma_stop")
        at_least("gamma_count", 1)
        not_below("gamma_stop", "gamma_start")
    elif command == "bell":
        nonnegative("mean_photons")
        at_least("samples", 0)
        if "state" in options and options["state"] not in BELL_LABELS:
            problems.append(
                f"key 'state': must be one of {', '.join(BELL_LABELS)}, "
                f"got {options['state']!r}"
            )
    elif command == "tradeoff":
        nonnegative("nbar_start")
        nonnegative("nbar_stop")
        at_least("nbar_count", 1)
        not_below("nbar_stop", "nbar_start")
    elif command == "diagnostics":
        if "eta" in options and not 0.0 < options["eta"] <= 1.0:
            problems.append(f"key 'eta': must be in (0, 1], got {options['eta']}")

    return problems


# ============================================================== results ==

# cell types stored as a float64 array when a whole column holds them
_FLOATS = {float, np.float64}


def _column(cells) -> np.ndarray | list:
    """A float64 array for a column of floats, else the cells as a list."""
    if isinstance(cells, np.ndarray):
        return cells if cells.dtype == np.float64 else cells.tolist()
    cells = list(cells)
    if set(map(type, cells)) <= _FLOATS:
        return np.array(cells, dtype=float)
    return cells


class ResultTable:
    """Tabular command output: metadata, column names and a column of cells per name.

    ``data`` holds a float64 array for a column of floats and a list of cells
    (``None``, ``bool``, ``int``, ``float`` or ``str``) for any other column.
    ``rows`` reads the cells back as row tuples, with Python floats.
    """

    def __init__(self, metadata: dict, columns: Sequence[str], rows: Iterable[Sequence] = ()):
        columns, rows = tuple(columns), tuple(rows)
        widths = set(map(len, rows))
        if widths - {len(columns)} or (widths and not columns):
            raise ValueError(
                f"every row needs one cell per column ({len(columns)} columns), "
                f"got rows of {sorted(widths)} cells"
            )
        self._fill(metadata, columns, zip(*rows) if rows else [()] * len(columns))

    @classmethod
    def from_columns(cls, metadata: dict, data: Mapping[str, Sequence]) -> "ResultTable":
        """A table of the named columns, in mapping order (arrays are kept, not copied)."""
        table = cls.__new__(cls)
        table._fill(metadata, tuple(data), data.values())
        return table

    def _fill(self, metadata: dict, columns: tuple[str, ...], cells: Iterable) -> None:
        self.metadata = metadata
        self.columns = columns
        self.data = tuple(map(_column, cells))
        lengths = set(map(len, self.data))
        if len(lengths) > 1:
            raise ValueError(
                f"every column needs one cell per row, got columns of {sorted(lengths)} cells"
            )
        self.row_count = lengths.pop() if lengths else 0

    @functools.cached_property
    def rows(self) -> tuple[tuple, ...]:
        return tuple(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in self.data)))


# rows per formatting chunk: bounds the per-cell strings alive at once
_CHUNK_ROWS = 4096
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_NULL = {".17g": "", "json": "null"}
# float chunks and columns of at least this many cells go through the array
# formatter ``_numtext``, by style; below that, cell by cell is cheaper.  It
# is imported on first use, so runs with small tables never load it.
_KERNEL_CELLS = {".17g": 400, "json": 1000}
# indent=2 layout of the rows block: rows at depth 2, cells at depth 3
_JSON_CELL_SEP = ",\n      "
_JSON_ROW_SEP = "\n    ],\n    [\n      "


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _csv_text(rows) -> str:
    buffer = io.StringIO()
    _csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _csv_quoted(text: str) -> str:
    """A string cell as the ``csv`` module writes it in a row of two or more cells."""
    return _csv_text([(text, "")])[:-2]


# a string cell's text, by style
_STRING = {".17g": _csv_quoted, "json": json.dumps}


def _kernel_text(columns: Sequence[np.ndarray], style: str, seps: list[str]) -> str | None:
    """The cells of equal-length float columns, row by row, joined through the
    array formatter, or None when there are too few cells to pay for it."""
    if len(columns) * len(columns[0]) < _KERNEL_CELLS[style]:
        return None
    from . import _numtext

    return _numtext.join_cells(np.column_stack(columns), style, seps)


def _float_cells(values: np.ndarray, style: str) -> list[str]:
    text = _kernel_text([values], style, ["\n"])
    if text is not None:
        return text.split("\n")
    if style == ".17g":
        return list(map(float.__format__, values.tolist(), repeat(".17g")))
    text = list(map(float.__repr__, values.tolist()))
    return list(map(_JSON_NONFINITE.get, text, text))


def _cells(column: np.ndarray | list, style: str) -> list[str]:
    """The text of each cell of a column in the style, by the column's kind."""
    if isinstance(column, np.ndarray):
        return _float_cells(column, style)
    kinds = set(map(type, column))
    if kinds <= _FLOATS | {type(None)}:
        null = _NULL[style]
        floats = iter(_float_cells(np.array([v for v in column if v is not None]), style))
        return [null if v is None else next(floats) for v in column]
    # each distinct string is encoded once
    strings = {s: _STRING[style](s) for s in {v for v in column if isinstance(v, str)}}
    if kinds <= {str}:
        return list(map(strings.__getitem__, column))
    other = _cell if style == ".17g" else json.dumps
    return [strings[v] if isinstance(v, str) else other(v) for v in column]


def _chunks(table: ResultTable) -> Iterator[list]:
    """The columns of each chunk of ``_CHUNK_ROWS`` rows."""
    for start in range(0, table.row_count, _CHUNK_ROWS):
        yield [column[start:start + _CHUNK_ROWS] for column in table.data]


def _csv_chunk(columns: list) -> str:
    if all(isinstance(c, np.ndarray) for c in columns):
        # a .17g float never needs quoting, so the cells are joined directly
        text = _kernel_text(columns, ".17g", [","] * (len(columns) - 1) + ["\n"])
        if text is not None:
            return text + "\n"
    cells = [_cells(c, ".17g") for c in columns]
    if len(cells) == 1:  # the csv module quotes a row that is one empty cell
        cells = [[text or '""' for text in cells[0]]]
    return "\n".join(map(",".join, zip(*cells))) + "\n"


def _json_chunk(columns: list) -> str:
    if all(isinstance(c, np.ndarray) for c in columns):
        seps = [_JSON_CELL_SEP] * (len(columns) - 1) + [_JSON_ROW_SEP]
        text = _kernel_text(columns, "json", seps)
        if text is not None:
            return text
    cells = zip(*(_cells(c, "json") for c in columns))
    return _JSON_ROW_SEP.join(map(_JSON_CELL_SEP.join, cells))


def _csv_pieces(table: ResultTable) -> Iterator[str]:
    yield f"# metadata: {json.dumps(table.metadata, sort_keys=True)}\n"
    yield _csv_text([table.columns])
    yield from map(_csv_chunk, _chunks(table))


def _json_pieces(table: ResultTable) -> Iterator[str]:
    head = json.dumps(
        {"metadata": table.metadata, "columns": list(table.columns), "rows": []},
        sort_keys=True,
        indent=2,
    )
    if not table.row_count:
        yield head + "\n"
        return
    # "rows" sorts last, so the document ends with its empty list
    yield head.removesuffix("[]\n}") + "[\n    [\n      "
    for i, columns in enumerate(_chunks(table)):
        if i:
            yield _JSON_ROW_SEP
        yield _json_chunk(columns)
    yield "\n    ]\n  ]\n}\n"


def write_result_table(table: ResultTable, path: str, fmt: str) -> None:
    """Write a result table as CSV or JSON.

    CSV: a ``# metadata: {...}`` line with the metadata as
    sorted-key JSON, then the column names and the rows as the ``csv``
    module writes them (minimal quoting, LF endings); floats are written with
    ``.17g``, ``None`` as an empty cell, anything else with ``str``.  JSON:
    the document ``json.dumps({"metadata", "columns", "rows"},
    sort_keys=True, indent=2)`` would give, plus a final newline, with
    ``NaN``, ``Infinity`` and ``-Infinity`` for non-finite floats.  Both
    formats are built a column at a time in chunks of rows, each column's
    path picked from its type: float arrays, and the floats of a list
    column, go through the array formatter ``_numtext.join_cells`` from
    ``_KERNEL_CELLS`` cells on; a string is encoded once per distinct
    string, as the ``csv`` module quotes it or as JSON.  The cells are then
    joined directly, since a ``.17g`` float never needs quoting.  The bytes
    are those of that definition.  The file is opened only after the whole
    text is formatted.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    pieces = list(_csv_pieces(table) if fmt == "csv" else _json_pieces(table))
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.writelines(pieces)


def _csv_value(cell: str):
    if cell == "":
        return None
    try:
        return float(cell)
    except ValueError:
        return cell


def read_result_table(path: str) -> ResultTable:
    """Load a table written by ``write_result_table`` (either format)."""
    with open(path, "r", encoding="utf-8", newline="") as f:
        text = f.read()
    if text.startswith("# metadata:"):
        lines = text.splitlines()
        metadata = json.loads(lines[0].split(":", 1)[1])
        reader = _csv.reader(lines[1:])
        columns = tuple(next(reader))
        rows = [tuple(map(_csv_value, record)) for record in reader]
        return ResultTable(metadata=metadata, columns=columns, rows=rows)
    payload = json.loads(text)
    return ResultTable(payload["metadata"], payload["columns"], payload["rows"])


# ============================================================= handlers ==


def _params_from(options: Mapping, suffix: str = "") -> SystemParams:
    values = {}
    for name in _PARAM_KEYS:
        if suffix and f"{name}{suffix}" in options:
            values[name] = options[f"{name}{suffix}"]
        elif name in options:
            values[name] = options[name]
        else:
            values[name] = _PARAM_DEFAULTS[name]
    return SystemParams(
        gamma=values["gamma"] * THZ,
        g=values["g"] * THZ,
        tau=values["tau"] * THZ,
        kappa=values["kappa"] * THZ,
        delta=values["delta"] * THZ,
        omega0=values["omega0"] * THZ,
    )


def _params_meta(params: SystemParams) -> dict:
    return {
        "gamma_thz": params.gamma / THZ,
        "g_thz": params.g / THZ,
        "tau_thz": params.tau / THZ,
        "kappa_thz": params.kappa / THZ,
        "delta_thz": params.delta / THZ,
        "omega0_thz": params.omega0 / THZ,
    }


def _probe_from(options: Mapping) -> ProbeDetuning:
    return ProbeDetuning(options.get("delta_omega", 0.0) * THZ)


def _two_node_setup(command: str, options: Mapping):
    """Node A, node B (``_b`` keys override), the probe and their metadata."""
    node_a = _params_from(options)
    node_b = _params_from(options, suffix="_b")
    probe = _probe_from(options)
    metadata = {
        "command": command,
        "params_a": _params_meta(node_a),
        "params_b": _params_meta(node_b),
        "probe_delta_omega_thz": probe.delta_omega / THZ,
    }
    return node_a, node_b, probe, metadata


Handler = Callable[[dict, "argparse.Namespace"], tuple[ResultTable, list[LineSeries] | None]]


def _run_spectrum(options, args):
    params = _params_from(options)
    points = options.get("points", 2001)
    if "start" in options:
        grid = DetuningGrid(options["start"] * THZ, options["stop"] * THZ, points)
    else:
        grid = DetuningGrid.default(params, span=options.get("span", 3.0), count=points)
    points = grid.points()
    arrays = scattering_arrays(params, points)
    # the same |t|^2 that transmission_spectrum forms, from the one evaluation
    through, drop = np.abs(arrays.t_through) ** 2, np.abs(arrays.t_drop) ** 2
    series = SpectrumSeries(grid, points, through, drop)
    x_thz = points / THZ
    loss_kappa = params.kappa * np.abs(arrays.b_amp) ** 2
    loss_tau = params.tau * np.abs(arrays.sigma_amp) ** 2

    peak_meta = None
    try:
        peak = locate_transparency_peak(series)
        peak_meta = {
            "detuning_thz": peak.peak_detuning / THZ,
            "through_power": peak.peak_value,
            "fwhm_thz": peak.fwhm / THZ,
        }
    except NoPeak:
        pass

    metadata = {
        "command": "spectrum",
        "params": _params_meta(params),
        "grid": {"start_thz": x_thz[0], "stop_thz": x_thz[-1], "count": grid.count},
        "peak": peak_meta,
    }
    table = ResultTable.from_columns(metadata, {
        "delta_omega_thz": x_thz,
        "through": through,
        "drop": drop,
        "loss_kappa": loss_kappa,
        "loss_tau": loss_tau,
    })
    return table, [LineSeries("through", x_thz, through), LineSeries("drop", x_thz, drop)]


def _run_sweep(options, args):
    params = _params_from(options)
    probe = _probe_from(options)
    count = options.get("count", 41)
    swept = np.linspace(options["start"], options["stop"], count) * THZ
    table = parameter_sweep(params, options["axis"], swept, probe)
    metadata = {
        "command": "sweep",
        "axis": options["axis"],
        "params": _params_meta(params),
        "probe_delta_omega_thz": probe.delta_omega / THZ,
    }
    # a row without a budget (an invalid point) has empty fractions and its error
    budgets = [row.budget or (None,) * 4 for row in table.rows]
    through, drop, loss_kappa, loss_tau = map(list, zip(*budgets))
    value_thz = swept / THZ
    result = ResultTable.from_columns(metadata, {
        "value_thz": value_thz,
        "through": through,
        "drop": drop,
        "loss_kappa": loss_kappa,
        "loss_tau": loss_tau,
        "error": [row.error or "" for row in table.rows],
    })
    ok = np.array([row.budget is not None for row in table.rows])
    ys = np.array(through, dtype=float)[ok]  # a None reads as nan, and its row is masked out
    return result, [LineSeries("through", value_thz[ok], ys)] if ok.any() else None


def _run_entangle(options, args):
    node_a, node_b, probe, metadata = _two_node_setup("entangle", options)
    nbar = options.get("mean_photons", 0.05)
    result = entanglement_generation(node_a, node_b, probe, nbar)
    metadata["post_state"] = [[a.real, a.imag] for a in result.post_state.amplitudes]
    return ResultTable.from_columns(metadata, {
        "mean_photons": [float(nbar)],
        "herald_probability": [result.success_probability],
        "fidelity_to_singlet": [result.fidelity],
    }), None


def _run_parity(options, args):
    node_a, node_b, probe, metadata = _two_node_setup("parity", options)
    start = options.get("gamma_start", 0.5)
    stop = options.get("gamma_stop", 8.0)
    count = options.get("gamma_count", 50)
    gammas = np.linspace(start, stop, count)
    false_even = [
        false_even_probability(replace(node_a, gamma=g), replace(node_b, gamma=g), probe)
        for g in (gammas * THZ).tolist()
    ]

    # single-point interrogation detail at the configured parameters
    probed = parity_probe(node_a, node_b, TwoDipoleState.bell("psi_plus"), probe, mean_photons=1.0)
    metadata.update(
        state="psi_plus",
        mean_photons=1.0,
        at_configured_gamma={
            "even_flux": probed.even_flux,
            "odd_flux": probed.odd_flux,
            "outcome_probabilities": dict(probed.outcome_probabilities),
        },
    )
    table = ResultTable.from_columns(
        metadata, {"gamma_thz": gammas, "false_even_probability": false_even}
    )
    return table, [LineSeries("false even", gammas, table.data[1])]


def _run_bell(options, args):
    node_a, node_b, probe, metadata = _two_node_setup("bell", options)
    nbar = options.get("mean_photons", 1.0)
    metadata["mean_photons"] = nbar

    if "state" in options:
        label = options["state"]
        record = bell_measurement(node_a, node_b, TwoDipoleState.bell(label), probe, nbar)
        samples = options.get("samples", 0)
        metadata["input_state"] = label
        metadata["reported_outcome"] = record.outcome.label
        metadata["fidelity"] = record.result.fidelity
        outcomes = [o for o, _ in record.distribution]
        probs = np.array([p for _, p in record.distribution], dtype=float)
        data = {
            "outcome": [o.label for o in outcomes],
            "first_parity": [o.first_parity for o in outcomes],
            "second_parity": [o.second_parity for o in outcomes],
            "probability": probs,
        }
        if samples > 0:
            seed = args.seed if args.seed is not None else 0
            metadata["samples"] = samples
            metadata["seed"] = seed
            rng = np.random.default_rng(seed)
            draws = rng.choice(len(probs), size=samples, p=probs / probs.sum())
            counts = np.bincount(draws, minlength=len(probs))
            data.update(count=counts.tolist(), frequency=counts / samples)
        return ResultTable.from_columns(metadata, data), None

    # no input given: classify each Bell state and report the verdicts
    records = [
        bell_measurement(node_a, node_b, TwoDipoleState.bell(label), probe, nbar)
        for label in BELL_LABELS
    ]
    return ResultTable.from_columns(metadata, {
        "input_state": list(BELL_LABELS),
        "outcome": [r.outcome.label for r in records],
        "first_parity": [r.outcome.first_parity for r in records],
        "second_parity": [r.outcome.second_parity for r in records],
        "probability": [r.result.success_probability for r in records],
        "fidelity": [r.result.fidelity for r in records],
    }), None


def _run_tradeoff(options, args):
    node_a, node_b, probe, metadata = _two_node_setup("tradeoff", options)
    start, stop = options.get("nbar_start", 0.0), options.get("nbar_stop", 5.0)
    grid = np.linspace(start, stop, options.get("nbar_count", 21))
    table = fidelity_success_tradeoff(node_a, node_b, probe, grid)
    metadata["state"] = "phi_plus"
    result = ResultTable.from_columns(metadata, {
        "mean_photons": [p.mean_photons for p in table.points],
        "fidelity": [p.fidelity for p in table.points],
        "success_probability": [p.success_probability for p in table.points],
    })
    nbar, fidelity, success = result.data
    return result, [LineSeries("fidelity", nbar, fidelity), LineSeries("success", nbar, success)]


def _run_diagnostics(options, args):
    params = _params_from(options)
    eta = options.get("eta", 0.01)
    report = diagnostics(params, eta=eta)
    arrays = scattering_arrays(params, np.array([params.delta]))
    transparency = float(np.abs(arrays.t_through[0]) ** 2)
    metadata = {
        "command": "diagnostics",
        "params": _params_meta(params),
        "eta": eta,
        "quality_factor": params.quality_factor,
    }
    return ResultTable.from_columns(metadata, {
        "purcell": [report.purcell],
        "critical_atom_number": [report.critical_atom],
        "critical_photon_number": [report.critical_photon],
        "max_safe_flux_per_s": [report.max_safe_flux],
        "transparency_at_dipole": [transparency],
    }), None


_HANDLERS: dict[str, Handler] = {
    "spectrum": _run_spectrum,
    "sweep": _run_sweep,
    "entangle": _run_entangle,
    "parity": _run_parity,
    "bell": _run_bell,
    "tradeoff": _run_tradeoff,
    "diagnostics": _run_diagnostics,
}

_PLOT_LABELS = {
    "spectrum": ("detuning (THz)", "output power fraction"),
    "sweep": ("value (THz)", "output power fraction"),
    "parity": ("linewidth gamma (THz)", "false even probability"),
    "tradeoff": ("mean photon number", "probability"),
}


def run(command: str, options: dict, args) -> tuple[ResultTable, list[LineSeries] | None]:
    """Execute one validated command; returns the table and plot series."""
    return _HANDLERS[command](options, args)


def _seed_value(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the ``ditsim`` command line (``main`` keeps one per process)."""
    parser = argparse.ArgumentParser(
        prog="ditsim",
        description="Dipole-induced transparency: spectra and repeater protocols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command, help=f"run the {command} calculation")
        p.add_argument("--config", required=True, help="flat key: value config file")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        p.add_argument(
            "--format", choices=("csv", "json"), default="csv",
            help="table format (default: csv)",
        )
        p.add_argument(
            "--plot", action="store_true", help="also write an SVG plot if available"
        )
        p.add_argument(
            "--seed", type=_seed_value, default=None,
            help="RNG seed for sampled outputs (default: 0)",
        )
    return parser


# built by the first ``main`` call and reused by later in-process calls;
# parse_args returns a new namespace and leaves the parser unchanged
_parser: argparse.ArgumentParser | None = None


def main(argv: Sequence[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        options = _coerce(args.command, load_config(args.config))
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(
            f"error: invalid configuration ({len(exc.problems)} "
            f"problem{'s' if len(exc.problems) != 1 else ''})",
            file=sys.stderr,
        )
        for problem in exc.problems:
            print(f"  - {problem}", file=sys.stderr)
        return 2

    try:
        table, plot = run(args.command, options, args)
    except NumericsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, f"{args.command}.{args.format}")
    write_result_table(table, out_path, args.format)
    print(out_path)
    if args.plot and plot is not None:
        xlabel, ylabel = _PLOT_LABELS.get(args.command, ("", ""))
        svg = render_lines(plot, title=args.command, xlabel=xlabel, ylabel=ylabel)
        svg_path = os.path.join(args.out, f"{args.command}.svg")
        with open(svg_path, "w", encoding="utf-8", newline="") as f:
            f.write(svg)
        print(svg_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
