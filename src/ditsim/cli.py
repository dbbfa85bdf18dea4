"""Command line front end: config-driven runs with CSV/JSON/SVG output.

Configs are flat ``key: value`` text files (``=`` also accepted, ``#`` starts
a comment).  All rates and detunings in configs and outputs are in THz; the
conversion to the library's angular rates is a plain factor of 1e12.

Every command writes ``<command>.csv`` or ``<command>.json`` into the output
directory, plus ``<command>.svg`` when plotting is requested.  Output bytes
are a pure function of the config, command line and package version: no
timestamps, no environment lookups.

Exit codes: 0 success, 2 unusable config (parse or validation failure) or
an output directory that cannot be written, 3 valid config outside the
model's numerical domain.
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
from itertools import chain
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from . import _numtext
from .core import (
    THZ,
    NumericsError,
    SystemParams,
    _FIELDS as _PARAM_KEYS,
    _field_problem,
    diagnostics,
    scattering_arrays,
)
from .repeater import (
    BELL_LABELS,
    TwoDipoleState,
    _draw,
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
    _sweep_arrays,
    locate_transparency_peak,
    transmission_spectrum,
)
from .svgplot import LineSeries, render_lines


class _Required(str):
    """The default of a key that must be given; its text ends the message."""


def _rule(test: Callable, text: str) -> Callable:
    """A value's problem: ``text`` and the value where ``test`` fails, else None."""
    return lambda value: None if test(value) else f"{text}, got {value!r}"


def _one_of(names: tuple[str, ...]) -> Callable:
    return _rule(names.__contains__, f"must be one of {', '.join(names)}")


_IN_RAD_S = _rule(
    lambda v: math.isfinite(v * THZ),
    f"overflows in rad/s (must be within about +-{sys.float_info.max / THZ:.2g} THz)",
)


def _node_rule(name: str) -> Callable:
    """The problem ``SystemParams`` finds in its field ``name``, else ``_IN_RAD_S``'s."""
    return lambda v: (p := _field_problem(name, v)) and p.removeprefix(name + " ") or _IN_RAD_S(v)


_NONNEGATIVE = _rule(lambda v: v >= 0, "must be >= 0")
_COUNT = _rule(lambda v: v >= 1, "must be >= 1")
_FRACTION = _rule(lambda v: 0.0 < v <= 1.0, "must be in (0, 1]")

# each command's keys in the order they are checked: (type, default, rule); a
# key whose default is None may be left out (node B's keys then take node A's
# values).  Node parameters are in THz, the reference operating point by default;
# every key in THz must stay finite once converted to rad/s.
_NODE_KEYS = {
    name: (float, default, _node_rule(name))
    for name, default in zip(_PARAM_KEYS, (1.0, 0.33, 0.001, 0.1, 0.0, 0.0))
}
_PROBE_KEY = {"delta_omega": (float, 0.0, _IN_RAD_S)}
_TWO_NODE_KEYS = {
    **_NODE_KEYS,
    **{f"{name}_b": (float, None, _node_rule(name)) for name in _PARAM_KEYS},
    **_PROBE_KEY,
}
_EXPECTED = {int: "an integer", float: "a number"}


def _scan(low: str, high: str) -> Callable:
    """The rule of a scan from ``low`` to ``high``: it may be a single point."""
    def problem(options: Mapping) -> str | None:
        start, stop = options[low], options[high]
        if None not in (start, stop) and stop < start:
            return f"key {high!r}: must be >= {low!r}, got {stop} and {start}"
    return problem


def _sweep_range(options: Mapping) -> str | None:
    """A sweep of more than one point runs from 'start' up to 'stop'."""
    start, stop, count = options.get("start"), options.get("stop"), options["count"]
    if None not in (start, stop, count) and count > 1 and not start < stop:
        return f"key 'start': must be < 'stop', got {start} and {stop}"


def _spectrum_grid(options: Mapping) -> tuple[SystemParams, DetuningGrid]:
    """The spectrum's node and grid: explicit 'start' and 'stop', else +-span*gamma."""
    params, count = _params_from(options), options["points"]
    if "start" in options:
        return params, DetuningGrid(options["start"] * THZ, options["stop"] * THZ, count)
    return params, DetuningGrid.default(params, span=options["span"], count=count)


def _grid_problem(options: Mapping) -> str | None:
    """'start' and 'stop' come together, and the grid is one ``DetuningGrid`` accepts."""
    if ("start" in options) != ("stop" in options):
        return "keys 'start' and 'stop' must be given together"
    if None not in options.values():  # the grid reads every key
        try:
            _spectrum_grid(options)
        except ValueError as exc:
            grid = ("keys 'start' and 'stop': the grid" if "start" in options
                    else "key 'span': the grid +-span*gamma")
            return f"{grid} is not one DetuningGrid accepts (values in rad/s): {exc}"


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
            key = value = ""
        key, value = key.strip(), value.strip()
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
    """Type- and range-checked settings with defaults filled in; collects every problem.

    Every rule reads the settings the command runs with, defaults included.  A
    key whose value is unreadable or breaks its own rule holds None, and the
    rule that relates keys skips it."""
    keys, check = _COMMANDS[command].keys, _COMMANDS[command].check
    options = {key: default for key, (_, default, _) in keys.items()
               if default is not None and not isinstance(default, _Required)}
    unknown, problems = [], []
    for key, value in raw.items():
        if key not in keys:
            import difflib

            near = difflib.get_close_matches(key, sorted(keys), n=1)
            hint = f" (did you mean {near[0]!r}?)" if near else ""
            unknown.append(f"key {key!r} is not recognized for '{command}'{hint}")
            continue
        kind, options[key] = keys[key][0], None
        try:
            typed = kind(value)
        except ValueError:
            problems.append(f"key {key!r}: expected {_EXPECTED[kind]}, got {value!r}")
            continue
        if kind is float and not math.isfinite(typed):
            problems.append(f"key {key!r}: must be finite, got {value!r}")
        else:
            options[key] = typed

    for key, (_, default, rule) in keys.items():
        if options.get(key) is not None:
            if problem := rule(options[key]):
                problems.append(f"key {key!r}: {problem}")
                options[key] = None
        elif isinstance(default, _Required) and key not in options:
            problems.append(f"key {key!r} is required{default}")
    problems = unknown + problems + [p for p in [check(options)] if p]
    if problems:
        raise ValidationError(problems)
    return options


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


# rows per formatting chunk: bounds the per-cell strings alive at once, and
# the transient copies of a chunk's formatted text (join_cells' bytes and str,
# the hole edits and the % fill) made before it is kept
_CHUNK_ROWS = 4096


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


def _csv_quoted(string: str) -> str:
    """A string cell as the ``csv`` module writes it in a row of two or more cells."""
    return _csv_text([(string, "")])[:-2]


# by style: cell and row separators (JSON's: the indent=2 rows block, cells at
# depth 3), then the text of a missing value, of a string and of any other
# non-float
_STYLES = {
    _numtext.G17: (",", "\n", "", _csv_quoted, _cell),
    _numtext.JSON: (",\n      ", "\n    ],\n    [\n      ", "null", json.dumps, json.dumps),
}


def _float_column(column: np.ndarray | list) -> tuple[np.ndarray, list[int]] | None:
    """A column of floats (an array, or a list of floats and ``None``) as an
    array and the rows of its holes, its ``None`` cells; None for any other."""
    if isinstance(column, np.ndarray):
        return column, []
    if not set(map(type, column)) <= _FLOATS | {type(None)}:
        return None
    values = np.array(column, dtype=float)  # a None reads as nan
    return values, [i for i in np.flatnonzero(np.isnan(values)).tolist() if column[i] is None]


def _other_cells(column: list, style: str) -> list[str]:
    """The text of each cell of a column that is not a float column."""
    *_, encode, other = _STYLES[style]
    only_strings = set(map(type, column)) <= {str}
    # each distinct string is encoded once
    strings = {v: encode(v) for v in set(column) if isinstance(v, str)}
    if only_strings:
        return list(map(strings.__getitem__, column))
    return [strings[v] if isinstance(v, str) else other(v) for v in column]


def _chunks(table: ResultTable) -> Iterator[list]:
    """The columns of each chunk of ``_CHUNK_ROWS`` rows."""
    for start in range(0, table.row_count, _CHUNK_ROWS):
        yield [column[start:start + _CHUNK_ROWS] for column in table.data]


def _chunk_text(columns: list, style: str) -> str:
    """The rows of a chunk in the style, joined by its separators.

    Each row is first a template: its float cells, and a ``%s`` field for
    each cell of the other columns.  The float cells of every row come from
    one ``join_cells`` call, whose separators hold the fields between them
    (no float text or separator holds a ``%``, and a ``.17g`` float never
    needs quoting); in a row with a hole, the hole's cell is then replaced.
    One ``%`` fills in the other columns.
    """
    cell_sep, row_sep, null = _STYLES[style][:3]
    floats = [_float_column(c) for c in columns]
    others = [_other_cells(c, style) for c, f in zip(columns, floats) if f is None]
    if style == _numtext.G17 and len(columns) == 1:  # as the csv module writes a lone empty cell
        null, others = '""', [[text or '""' for text in cells] for cells in others]
    # a row's template split at its float cells: what comes before the
    # first, then what follows each
    lead, *seps = cell_sep.join("\0" if f else "%s" for f in floats).split("\0")
    if not seps:
        text = row_sep.join([lead] * len(columns[0]))
    else:
        block = np.array([f[0] for f in floats if f]).T
        end = seps[-1] + row_sep + lead  # from a row's last float cell to the next row's first
        text = lead + _numtext.join_cells(block, style, [*seps[:-1], end]) + seps[-1]
        holes = {}  # by row: where its holes sit among the row's cells
        for j, f in enumerate(floats):
            for i in f[1] if f else ():
                holes.setdefault(i, []).append(j)
        if holes:
            lines = text.split(row_sep)
            for i, empty in holes.items():
                cells = lines[i].split(cell_sep)  # no float text or field holds it
                for j in empty:
                    cells[j] = null
                lines[i] = cell_sep.join(cells)
            text = row_sep.join(lines)
    if others:
        text %= tuple(chain.from_iterable(zip(*others)))
    return text


def _csv_pieces(table: ResultTable) -> Iterator[str]:
    yield f"# metadata: {json.dumps(table.metadata, sort_keys=True)}\n"
    yield _csv_text([table.columns])
    for columns in _chunks(table):
        yield _chunk_text(columns, _numtext.G17) + "\n"


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
            yield _STYLES[_numtext.JSON][1]
        yield _chunk_text(columns, _numtext.JSON)
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
    are built a column at a time in chunks of rows: floats through
    ``_numtext``, each distinct string encoded once, and the cells joined
    directly, since a ``.17g`` float never needs quoting.  The file is
    opened only after the whole text is formatted.
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
    """The node of the keys ending in ``suffix``; a key left out takes node A's value."""
    return SystemParams(*(options.get(name + suffix, options[name]) * THZ for name in _PARAM_KEYS))


def _params_meta(params: SystemParams) -> dict:
    return {f"{name}_thz": getattr(params, name) / THZ for name in _PARAM_KEYS}


def _two_node_setup(options: Mapping):
    """Node A, node B (``_b`` keys override), the probe and their metadata."""
    node_a = _params_from(options)
    node_b = _params_from(options, suffix="_b")
    probe = options["delta_omega"] * THZ  # rad/s, finite by _coerce's rules
    metadata = {
        "params_a": _params_meta(node_a),
        "params_b": _params_meta(node_b),
        "probe_delta_omega_thz": probe / THZ,
    }
    return node_a, node_b, probe, metadata


def _run_spectrum(options, args):
    params, grid = _spectrum_grid(options)
    series = transmission_spectrum(params, grid)
    points, through, drop = series.detuning, series.through, series.drop
    # the loss fractions need the cavity and dipole amplitudes
    arrays = scattering_arrays(params, points)
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
    probe = options["delta_omega"] * THZ
    swept = np.linspace(options["start"], options["stop"], options["count"]) * THZ
    _, _, fractions, errors = _sweep_arrays(params, options["axis"], swept, probe)
    metadata = {
        "axis": options["axis"],
        "params": _params_meta(params),
        "probe_delta_omega_thz": probe / THZ,
    }
    # an error row (an invalid point) has empty fractions and its error
    error = [""] * len(swept)
    cells = [fraction.tolist() for fraction in fractions] if errors else fractions
    for i, message in errors.items():
        error[i] = message
        for column in cells:
            column[i] = None
    value_thz = swept / THZ
    names = ("value_thz", "through", "drop", "loss_kappa", "loss_tau", "error")
    result = ResultTable.from_columns(metadata, dict(zip(names, (value_thz, *cells, error))))
    ok = np.ones(len(swept), dtype=bool)
    ok[list(errors)] = False
    return result, [LineSeries("through", value_thz[ok], fractions[0][ok])] if ok.any() else None


def _run_entangle(options, args):
    node_a, node_b, probe, metadata = _two_node_setup(options)
    nbar = options["mean_photons"]
    result = entanglement_generation(node_a, node_b, probe, nbar)
    metadata["post_state"] = [[a.real, a.imag] for a in result.post_state.amplitudes]
    return ResultTable.from_columns(metadata, {
        "mean_photons": [float(nbar)],
        "herald_probability": [result.success_probability],
        "fidelity_to_singlet": [result.fidelity],
    }), None


def _run_parity(options, args):
    node_a, node_b, probe, metadata = _two_node_setup(options)
    gammas = np.linspace(options["gamma_start"], options["gamma_stop"], options["gamma_count"])
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
    node_a, node_b, probe, metadata = _two_node_setup(options)
    nbar = options["mean_photons"]
    metadata["mean_photons"] = nbar

    if "state" in options:
        label = options["state"]
        record = bell_measurement(node_a, node_b, TwoDipoleState.bell(label), probe, nbar)
        samples = options["samples"]
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
            draws = _draw(np.random.default_rng(seed), probs, size=samples)
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
    node_a, node_b, probe, metadata = _two_node_setup(options)
    grid = np.linspace(options["nbar_start"], options["nbar_stop"], options["nbar_count"])
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
    eta = options["eta"]
    report = diagnostics(params, eta=eta)
    arrays = scattering_arrays(params, np.array([params.delta]))
    transparency = float(np.abs(arrays.t_through[0]) ** 2)
    metadata = {
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


class _Command(NamedTuple):
    """A command's keys, handler, rule relating its keys (a problem, else None,
    as a key's rule gives), and plot axis labels."""

    keys: dict[str, tuple]
    run: Callable
    check: Callable[[Mapping], str | None] = lambda options: None
    labels: tuple[str, str] | None = None


_COMMANDS = {
    "spectrum": _Command({
        **_NODE_KEYS,
        "span": (float, 3.0, _rule(lambda v: v > 0, "must be > 0")),
        "points": (int, 2001, _rule(lambda v: v >= 2, "must be >= 2")),
        "start": (float, None, _IN_RAD_S), "stop": (float, None, _IN_RAD_S),
    }, _run_spectrum, _grid_problem, ("detuning (THz)", "output power fraction")),
    "sweep": _Command({
        **_NODE_KEYS, **_PROBE_KEY,
        "axis": (str, _Required(f" (one of {', '.join(SWEEP_AXES)})"), _one_of(SWEEP_AXES)),
        "start": (float, _Required(), _IN_RAD_S), "stop": (float, _Required(), _IN_RAD_S),
        "count": (int, 41, _COUNT),
    }, _run_sweep, _sweep_range, ("value (THz)", "output power fraction")),
    "entangle": _Command({**_TWO_NODE_KEYS, "mean_photons": (float, 0.05, _NONNEGATIVE)},
                         _run_entangle),
    "parity": _Command({
        **_TWO_NODE_KEYS,
        "gamma_start": (float, 0.5, _node_rule("gamma")),
        "gamma_stop": (float, 8.0, _node_rule("gamma")),
        "gamma_count": (int, 50, _COUNT),
    }, _run_parity, _scan("gamma_start", "gamma_stop"),
        ("cavity decay rate gamma (THz)", "false even probability")),
    "bell": _Command({
        **_TWO_NODE_KEYS,
        "mean_photons": (float, 1.0, _NONNEGATIVE), "samples": (int, 0, _NONNEGATIVE),
        "state": (str, None, _one_of(BELL_LABELS)),
    }, _run_bell),
    "tradeoff": _Command({
        **_TWO_NODE_KEYS,
        "nbar_start": (float, 0.0, _NONNEGATIVE), "nbar_stop": (float, 5.0, _NONNEGATIVE),
        "nbar_count": (int, 21, _COUNT),
    }, _run_tradeoff, _scan("nbar_start", "nbar_stop"), ("mean photon number", "probability")),
    "diagnostics": _Command({**_NODE_KEYS, "eta": (float, 0.01, _FRACTION)}, _run_diagnostics),
}
COMMANDS = tuple(_COMMANDS)


def run(command: str, options: dict, args) -> tuple[ResultTable, list[LineSeries] | None]:
    """Execute one command on ``_coerce``'s options; returns the table and plot series.
    The table's metadata names the command."""
    table, series = _COMMANDS[command].run(options, args)
    table.metadata["command"] = command
    return table, series


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
        count = len(exc.problems)
        print(f"error: invalid configuration ({count} problem{'s' if count != 1 else ''})",
              *(f"  - {problem}" for problem in exc.problems), sep="\n", file=sys.stderr)
        return 2

    try:
        table, plot = run(args.command, options, args)
    except NumericsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    svg = None
    if args.plot and plot is not None:
        xlabel, ylabel = _COMMANDS[args.command].labels
        svg = render_lines(plot, title=args.command, xlabel=xlabel, ylabel=ylabel)
    out_path = os.path.join(args.out, f"{args.command}.{args.format}")
    svg_path = os.path.join(args.out, f"{args.command}.svg")
    try:
        os.makedirs(args.out, exist_ok=True)
        write_result_table(table, out_path, args.format)
        if svg is not None:
            with open(svg_path, "w", encoding="utf-8", newline="") as f:
                f.write(svg)
    except OSError as exc:
        print(f"error: cannot write output in {args.out!r}: {exc.strerror}", file=sys.stderr)
        return 2
    print(out_path)
    if svg is not None:
        print(svg_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
