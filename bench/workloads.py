"""Seeded inputs, timed operations and output checks for the three workloads.

Every workload is a pool of inputs built from the seed.  One *op* is one call
of ``Workload.run_op`` on one pool entry; ``Workload.check`` then verifies its
output against independent library calls and raises ``CheckFailed`` on any
mismatch.  Library functions are always looked up on their modules at call
time (``spectra.parameter_sweep``, never a local alias), so the tracing
wrappers installed by ``tracer.py`` see every call the op makes.

What sets an op's cost is the same for every seed: a pool of n entries
takes n sizes (grid points, sweep rows, scan lengths) evenly spaced in log
between two end points, and the other costly choices (which sweeps hold
error rows, which spectra have no peak, how many Bell states are measured)
are tied to the size rank.  The seed decides which entry gets which of
these, and draws everything else about the entry (node parameters, axes,
states, photon numbers).  So the total work, the latency percentiles and
the largest input (which sets peak memory) do not move with the seed.
Entries are ordered so that a small and a large input alternate, which
keeps any prefix of the pool close to the pool's average cost.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import xml.etree.ElementTree as ET
from dataclasses import dataclass, replace

import numpy as np

from ditsim import cli, core, repeater, spectra

THZ = core.THZ

# reference node, THz; every seeded node is drawn log-uniformly around it
REFERENCE = {"gamma": 1.0, "g": 0.33, "tau": 0.001, "kappa": 0.1}
PARAM_DEFAULTS = {**REFERENCE, "delta": 0.0, "omega0": 0.0}

ORACLE_RTOL = 1e-10
SUM_TOL = 1e-12
_SVG = "{http://www.w3.org/2000/svg}"


class CheckFailed(Exception):
    """An op's output disagrees with the independent expectation."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(a: float, b: float, rtol: float = ORACLE_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def log_sizes(lo: int, hi: int, n: int) -> list[int]:
    """n integer sizes evenly spaced in log from lo to hi, ascending."""
    return [int(v) for v in np.rint(lo * (hi / lo) ** np.linspace(0.0, 1.0, n))]


def balanced_order(rng: np.random.Generator, n: int) -> list[int]:
    """Permutation of range(n) in which stratum k sits next to stratum n-1-k."""
    pairs = [(k, n - 1 - k) for k in range(n // 2)]
    order = [pairs[i] for i in rng.permutation(len(pairs))]
    flat = [k for a, b in order for k in ((a, b) if rng.random() < 0.5 else (b, a))]
    if n % 2:
        flat.insert(int(rng.integers(len(flat) + 1)), n // 2)
    return flat


def _log_around(rng: np.random.Generator, value: float, decades: float) -> float:
    return float(value * 10.0 ** rng.uniform(-decades, decades))


def _node_thz(rng: np.random.Generator, decades: float) -> dict:
    return {k: _log_around(rng, v, decades) for k, v in REFERENCE.items()}


def _params(settings: dict, suffix: str = "") -> core.SystemParams:
    """Node parameters as the CLI documents them: THz settings times 1e12."""
    values = {}
    for name, default in PARAM_DEFAULTS.items():
        values[name] = settings.get(name + suffix, settings.get(name, default))
    return core.SystemParams(**{k: v * THZ for k, v in values.items()})


def _same(got, want) -> bool:
    """Cell equality: strings exactly, numbers bit for bit."""
    if isinstance(want, str):
        return got == want or (want == "" and got is None)
    if want is None or got is None or isinstance(got, str):
        return got is want
    a, b = float(got), float(want)
    return (a == b and math.copysign(1.0, a) == math.copysign(1.0, b)) or (
        math.isnan(a) and math.isnan(b)
    )


def _check_rows(command: str, got: tuple, want: list) -> None:
    _require(len(got) == len(want), f"{command}: {len(got)} rows, expected {len(want)}")
    for i, (g_row, w_row) in enumerate(zip(got, want)):
        _require(len(g_row) == len(w_row), f"{command}: row {i} has {len(g_row)} cells")
        for j, (g, w) in enumerate(zip(g_row, w_row)):
            _require(_same(g, w), f"{command}: row {i} cell {j} is {g!r}, expected {w!r}")


# ================================================================ cli_files ==

PLOT_SERIES = {"spectrum": 2, "sweep": 1, "parity": 1, "tradeoff": 2}
_ROUND = (
    ("spectrum", "csv"), ("spectrum", "json"), ("sweep", "csv"), ("sweep", "json"),
    ("entangle", "csv"), ("entangle", "json"), ("parity", "csv"), ("parity", "json"),
    ("bell", "csv"), ("bell", "json"), ("tradeoff", "csv"), ("tradeoff", "json"),
    ("diagnostics", "csv"), ("diagnostics", "json"),
)
_INVALID_KINDS = ("bad_key", "out_of_range", "degenerate_entangle", "degenerate_bell")


@dataclass(frozen=True)
class CliCase:
    """One CLI invocation: config settings, flags and the expected exit code."""

    name: str
    command: str
    fmt: str
    settings: tuple
    flags: tuple
    expect_exit: int
    oracle_rows: tuple = ()

    def config_text(self) -> str:
        return "".join(f"{k}: {v!r}\n" if isinstance(v, float) else f"{k}: {v}\n"
                       for k, v in self.settings)


def _sweep_settings(rng, count: int, variant: str) -> dict:
    node = _node_thz(rng, 0.2)
    if variant == "gamma_crossing":  # rows with gamma <= 0 become error rows
        return {**node, "axis": "gamma", "start": -rng.uniform(0.1, 0.5),
                "stop": rng.uniform(1.5, 4.0), "count": count}
    if variant == "tau_on_line":  # tau = 0 with the probe on the dipole line
        delta = float(rng.uniform(-0.05, 0.05))
        return {**node, "delta": delta, "delta_omega": delta, "axis": "tau",
                "start": 0.0, "stop": rng.uniform(0.01, 0.1), "count": count}
    axis = variant
    ranges = {
        "g": (0.0, rng.uniform(0.5, 1.0)),
        "tau": (rng.uniform(1e-4, 1e-3), rng.uniform(0.01, 0.1)),
        "kappa": (0.0, rng.uniform(0.2, 1.0)),
        "delta": (-rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)),
        "gamma": (rng.uniform(0.3, 0.8), rng.uniform(1.5, 4.0)),
    }
    start, stop = ranges[axis]
    return {**node, "axis": axis, "start": float(start), "stop": float(stop), "count": count}


def _two_node(rng) -> dict:
    node = _node_thz(rng, 0.2)
    mismatched = {f"{k}_b": _log_around(rng, v, 0.02) for k, v in node.items()}
    return {**node, **mismatched, "delta_omega": float(rng.uniform(-0.01, 0.01))}


SWEEP_VARIANTS = ("g", "tau", "kappa", "delta", "gamma", "gamma_crossing", "tau_on_line")


def _cli_knobs(command: str, rounds: int) -> list[dict]:
    """The choices that set an op's cost, ascending, one per round.

    They are the same for every seed; only their order in the pool is seeded.
    """
    if command == "spectrum":
        return [{"points": n} for n in log_sizes(2001, 20001, rounds)]
    if command == "sweep":  # every variant spreads over small and large sweeps
        return [{"count": n, "variant": SWEEP_VARIANTS[i % len(SWEEP_VARIANTS)]}
                for i, n in enumerate(log_sizes(41, 2001, rounds))]
    if command == "parity":
        return [{"gamma_count": n} for n in log_sizes(5, 12, rounds)]
    if command == "tradeoff":
        return [{"nbar_count": n} for n in log_sizes(5, 9, rounds)]
    if command == "bell":  # half measure all four Bell states, half one state sampled 0-500 times
        samples = np.rint(np.linspace(0, 500, rounds - rounds // 2))
        return [{}] * (rounds // 2) + [{"samples": int(n)} for n in samples]
    return [{}] * rounds


def _cli_settings(rng, command: str, knobs: dict) -> tuple[dict, tuple]:
    if command == "spectrum":
        node = _node_thz(rng, 0.2)
        if rng.random() < 0.5:
            node["delta"] = float(rng.uniform(-0.2, 0.2))
        if rng.random() < 0.5:
            grid = {"span": float(rng.uniform(2.0, 5.0))}
        else:
            grid = {"start": -rng.uniform(1.0, 4.0), "stop": rng.uniform(1.0, 4.0)}
        return {**node, **grid, "points": knobs["points"]}, ("--plot",)
    if command == "sweep":
        return _sweep_settings(rng, knobs["count"], knobs["variant"]), ("--plot",)
    if command == "entangle":
        return {**_two_node(rng), "mean_photons": float(rng.uniform(0.01, 0.1))}, ()
    if command == "parity":
        return {**_two_node(rng), "gamma_start": float(rng.uniform(0.5, 1.5)),
                "gamma_stop": float(rng.uniform(3.0, 8.0)),
                "gamma_count": knobs["gamma_count"]}, ("--plot",)
    if command == "bell":
        settings = {**_two_node(rng), "mean_photons": float(rng.uniform(0.5, 2.0))}
        if "samples" in knobs:
            settings["state"] = str(rng.choice(repeater.BELL_LABELS))
            settings["samples"] = knobs["samples"]
        return settings, ("--seed", str(int(rng.integers(0, 2**32))))
    if command == "tradeoff":
        return {**_two_node(rng), "nbar_start": float(rng.choice([0.0, rng.uniform(0.0, 0.5)])),
                "nbar_stop": float(rng.uniform(2.0, 5.0)),
                "nbar_count": knobs["nbar_count"]}, ("--plot",)
    if command == "diagnostics":
        return {**_node_thz(rng, 0.2), "eta": float(rng.uniform(0.001, 0.5))}, ()
    raise ValueError(command)


def _invalid_case(rng, kind: str) -> tuple[str, dict, int]:
    node = _node_thz(rng, 0.2)
    if kind == "bad_key":
        return "spectrum", {**node, "gama": 1.0, "points": 101}, 2
    if kind == "out_of_range":
        return "sweep", {**node, "gamma": -node["gamma"], "axis": "g", "start": 0.0,
                         "stop": 1.0, "count": 0}, 2
    delta = float(rng.uniform(-0.1, 0.1))
    degenerate = {**node, "tau": 0.0, "delta": delta, "delta_omega": delta}
    return ("entangle" if kind == "degenerate_entangle" else "bell"), degenerate, 3


def generate_cli_files(seed: int, rounds: int = 14) -> list[CliCase]:
    rng = np.random.default_rng([seed, 1])
    # each (command, format) pair gets the full set of knobs: json costs more
    # than csv, so the two must see the same sizes
    knobs = {}
    for command, fmt in _ROUND:
        ranked = _cli_knobs(command, rounds)
        knobs[command, fmt] = [ranked[k] for k in balanced_order(rng, rounds)]
    cases = []
    for r in range(rounds):
        entries = []
        for command, fmt in _ROUND:
            settings, flags = _cli_settings(rng, command, knobs[command, fmt][r])
            entries.append((command, fmt, settings, flags, 0))
        kind = _INVALID_KINDS[r % len(_INVALID_KINDS)]
        fmt = "csv" if r % 2 else "json"
        command, settings, code = _invalid_case(rng, kind)
        entries.append((command, fmt, settings, (), code))
        for i in rng.permutation(len(entries)):
            command, fmt, settings, flags, code = entries[i]
            oracle_rows = ()
            if code == 0 and command in ("spectrum", "sweep"):
                rows = settings.get("points", settings.get("count"))
                oracle_rows = tuple(sorted(int(k) for k in rng.choice(rows, 3, replace=False)))
            cases.append(CliCase(
                name=f"c{len(cases):03d}-{command}", command=command, fmt=fmt,
                settings=tuple(settings.items()), flags=flags, expect_exit=code,
                oracle_rows=oracle_rows,
            ))
    return cases


def _expected_spectrum(s: dict) -> tuple[np.ndarray, core.SystemParams, np.ndarray]:
    params = _params(s)
    if "start" in s:
        grid = spectra.DetuningGrid(s["start"] * THZ, s["stop"] * THZ, s["points"])
    else:
        grid = spectra.DetuningGrid.default(params, span=s.get("span", 3.0), count=s["points"])
    series = spectra.transmission_spectrum(params, grid)
    arrays = core.scattering_arrays(params, grid.points())
    table = np.column_stack([
        grid.points() / THZ, series.through, series.drop,
        params.kappa * np.abs(arrays.b_amp) ** 2,
        params.tau * np.abs(arrays.sigma_amp) ** 2,
    ])
    return table, params, grid.points()


def _sweep_error_expected(axis: str, value: float, base: core.SystemParams, probe: float) -> bool:
    """Which sweep rows the inputs were built to make invalid."""
    if axis == "gamma":
        return value <= 0.0
    if axis == "tau":
        return value < 0.0 or (value == 0.0 and base.g > 0.0 and probe == base.delta)
    return axis in ("g", "kappa") and value < 0.0


def _expected_sweep_rows(base, axis, values, probe) -> list:
    """Rows from one direct ``flux_budget`` call per value."""
    rows = []
    for raw in values:
        value = float(raw)
        predicted = _sweep_error_expected(axis, value, base, probe)
        try:
            b = core.flux_budget(replace(base, **{axis: value}), probe)
        except (ValueError, core.NumericsError) as exc:
            _require(predicted, f"sweep: {axis}={value!r} failed unexpectedly: {exc}")
            rows.append((value, None, None, None, None, str(exc)))
        else:
            _require(not predicted, f"sweep: {axis}={value!r} was expected to be an error row")
            rows.append((value, b.through, b.drop, b.cavity_loss, b.dipole_loss, ""))
    return rows


def _oracle_fluxes(params: core.SystemParams, probe: float) -> tuple[float, ...]:
    o = core.steady_state_oracle(params, probe)
    return (abs(o.t_through) ** 2, abs(o.t_drop) ** 2,
            params.kappa * abs(o.b_amp) ** 2, params.tau * abs(o.sigma_amp) ** 2)


def _check_oracle(command: str, row: tuple, params, probe: float) -> None:
    for j, want in enumerate(_oracle_fluxes(params, probe), start=1):
        _require(_close(float(row[j]), want),
                 f"{command}: cell {j} = {row[j]!r} disagrees with the oracle {want!r}")


def _expected_cli_rows(case: CliCase, table) -> list:
    s = dict(case.settings)
    command = case.command
    if command == "sweep":
        base = _params(s)
        probe = s.get("delta_omega", 0.0) * THZ
        values = np.linspace(s["start"], s["stop"], s["count"]) * THZ
        rows = _expected_sweep_rows(base, s["axis"], values, probe)
        for i in case.oracle_rows:
            if rows[i][1] is not None:
                _check_oracle(command, table.rows[i], replace(base, **{s["axis"]: rows[i][0]}), probe)
        return [(v / THZ, *rest) for v, *rest in rows]
    node_a, node_b = _params(s), _params(s, "_b")
    probe = core.ProbeDetuning(s.get("delta_omega", 0.0) * THZ)
    if command == "entangle":
        nbar = s["mean_photons"]
        r = repeater.entanglement_generation(node_a, node_b, probe, nbar)
        return [(float(nbar), r.success_probability, r.fidelity)]
    if command == "parity":
        gammas = np.linspace(s["gamma_start"], s["gamma_stop"], s["gamma_count"])
        return [(float(v), repeater.false_even_probability(
                    replace(node_a, gamma=float(v) * THZ),
                    replace(node_b, gamma=float(v) * THZ), probe)) for v in gammas]
    if command == "bell":
        nbar = s["mean_photons"]
        if "state" not in s:
            rows = []
            for label in repeater.BELL_LABELS:
                rec = repeater.bell_measurement(
                    node_a, node_b, repeater.TwoDipoleState.bell(label), probe, nbar)
                o = rec.outcome
                rows.append((label, o.label, o.first_parity, o.second_parity,
                             rec.result.success_probability, rec.result.fidelity))
            return rows
        rec = repeater.bell_measurement(
            node_a, node_b, repeater.TwoDipoleState.bell(s["state"]), probe, nbar)
        total = sum(p for _, p in rec.distribution)
        _require(abs(total - 1.0) <= SUM_TOL, f"bell: outcome probabilities sum to {total!r}")
        samples = s.get("samples", 0)
        if samples == 0:
            return [(o.label, o.first_parity, o.second_parity, float(p))
                    for o, p in rec.distribution]
        seed = int(case.flags[case.flags.index("--seed") + 1])
        probs = np.array([p for _, p in rec.distribution])
        draws = np.random.default_rng(seed).choice(len(probs), size=samples, p=probs / probs.sum())
        counts = np.bincount(draws, minlength=len(probs))
        return [(o.label, o.first_parity, o.second_parity, float(p), int(counts[i]),
                 counts[i] / samples) for i, (o, p) in enumerate(rec.distribution)]
    if command == "tradeoff":
        grid = np.linspace(s["nbar_start"], s["nbar_stop"], s["nbar_count"])
        t = repeater.fidelity_success_tradeoff(node_a, node_b, probe, grid)
        return [(p.mean_photons, p.fidelity, p.success_probability) for p in t.points]
    if command == "diagnostics":
        params = node_a
        d = core.diagnostics(params, eta=s["eta"])
        arrays = core.scattering_arrays(params, np.array([params.delta]))
        transparency = float(np.abs(arrays.t_through[0]) ** 2)
        oracle = abs(core.steady_state_oracle(params, params.delta).t_through) ** 2
        _require(_close(transparency, oracle), f"diagnostics: transparency {transparency!r} "
                 f"disagrees with the oracle {oracle!r}")
        return [(d.purcell, d.critical_atom, d.critical_photon, d.max_safe_flux, transparency)]
    raise ValueError(command)


def _check_svg(path: str, series: int) -> None:
    root = ET.parse(path).getroot()
    legend = [e for e in root.iter(f"{_SVG}line") if e.get("stroke-width") == "1.5"]
    _require(len(legend) == series, f"{path}: {len(legend)} series, expected {series}")
    colors = {e.get("stroke") for e in root.iter(f"{_SVG}polyline")}
    colors |= {e.get("fill") for e in root.iter(f"{_SVG}circle")}
    _require(len(colors) == series, f"{path}: {len(colors)} plotted colours, expected {series}")


class CliFiles:
    """In-process ``ditsim.cli.main`` over seeded configs of all seven commands."""

    name = "cli_files"

    def __init__(self, seed: int, workdir: str):
        self.out = os.path.join(workdir, "out")
        self.pool = generate_cli_files(seed)
        conf_dir = os.path.join(workdir, "configs")
        os.makedirs(conf_dir, exist_ok=True)
        os.makedirs(self.out, exist_ok=True)
        self.argv = []
        for case in self.pool:
            path = os.path.join(conf_dir, case.name + ".conf")
            with open(path, "w", encoding="utf-8") as f:
                f.write(case.config_text())
            self.argv.append([case.command, "--config", path, "--out", self.out,
                              "--format", case.fmt, *case.flags])
        self._sink = io.StringIO()
        self._verified: dict[int, tuple] = {}

    def sizes(self) -> dict:
        spectrum = [dict(c.settings)["points"] for c in self.pool
                    if c.command == "spectrum" and c.expect_exit == 0]
        sweep = [dict(c.settings)["count"] for c in self.pool
                 if c.command == "sweep" and c.expect_exit == 0]
        return {"pool_ops": len(self.pool),
                "invalid_ops": sum(c.expect_exit != 0 for c in self.pool),
                "spectrum_points": [min(spectrum), max(spectrum), sum(spectrum)],
                "sweep_rows": [min(sweep), max(sweep), sum(sweep)]}

    def _outputs(self, case: CliCase) -> tuple[str, str]:
        base = os.path.join(self.out, case.command)
        return f"{base}.{case.fmt}", f"{base}.svg"

    def prepare(self, i: int) -> None:
        for path in self._outputs(self.pool[i]):
            if os.path.exists(path):
                os.remove(path)
        self._sink.seek(0)
        self._sink.truncate()

    def run_op(self, i: int):
        with contextlib.redirect_stdout(self._sink), contextlib.redirect_stderr(self._sink):
            return cli.main(self.argv[i])

    def _digest(self, case: CliCase) -> tuple:
        """A hash of each output file's bytes; a missing file reads as None."""
        files = []
        for path in self._outputs(case):
            if os.path.exists(path):
                with open(path, "rb") as f:
                    files.append(hashlib.sha256(f.read()).hexdigest())
            else:
                files.append(None)
        return tuple(files)

    def check(self, i: int, exit_code) -> None:
        """Verify the first run of an entry in full; later runs must repeat its bytes."""
        case = self.pool[i]
        _require(exit_code == case.expect_exit,
                 f"{case.name}: exit code {exit_code!r}, expected {case.expect_exit}")
        digest = self._digest(case)
        if i in self._verified:
            _require(digest == self._verified[i], f"{case.name}: output differs from its first run")
            return
        self._verify(case)
        self._verified[i] = digest

    def _verify(self, case: CliCase) -> None:
        table_path, svg_path = self._outputs(case)
        if case.expect_exit != 0:
            _require(not os.path.exists(table_path), f"{case.name}: failed run wrote a table")
            return
        table = cli.read_result_table(table_path)
        if case.command == "spectrum":
            want, params, points = _expected_spectrum(dict(case.settings))
            got = np.array(table.rows, dtype=float)
            _require(got.shape == want.shape, f"{case.name}: table shape {got.shape}")
            same = got.view(np.int64) == want.view(np.int64)
            _require(bool(same.all()), f"{case.name}: {int((~same).sum())} cells differ")
            for r in case.oracle_rows:
                _check_oracle(case.name, table.rows[r], params, float(points[r]))
            has_plot = True
        else:
            _check_rows(case.name, table.rows, _expected_cli_rows(case, table))
            has_plot = case.command in PLOT_SERIES and (
                case.command != "sweep" or any(r[1] is not None for r in table.rows))
        _require(os.path.exists(svg_path) == has_plot, f"{case.name}: plot presence wrong")
        if has_plot:
            _check_svg(svg_path, PLOT_SERIES[case.command])


# ================================================================ protocols ==


@dataclass(frozen=True)
class PairCase:
    """One node pair with the probe strengths and states of one protocols op."""

    node_a: object
    node_b: object
    probe: core.ProbeDetuning
    ideal: bool
    state: repeater.TwoDipoleState
    nbar_bell: float
    nbar_parity: float
    nbar_entangle: float
    expect_invalid: bool
    nbar_grid: tuple
    rng_seed: int


def generate_protocols(seed: int, pairs: int = 256) -> list[PairCase]:
    rng = np.random.default_rng([seed, 2])
    ideal = np.zeros(pairs, bool)
    ideal[: pairs // 4] = True
    invalid = np.zeros(pairs, bool)
    invalid[: pairs // 8] = True
    ideal, invalid = rng.permutation(ideal), rng.permutation(invalid)
    cases = []
    for i in range(pairs):
        if ideal[i]:
            node_a = node_b = repeater.NodeRouting.ideal()
        else:
            a = {k: v * THZ for k, v in _node_thz(rng, 0.3).items()}
            node_a = core.SystemParams(**a)
            node_b = core.SystemParams(**{k: _log_around(rng, v, 0.02) for k, v in a.items()})
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        nbar_entangle = rng.uniform(0.2, 1.0) if invalid[i] else rng.uniform(0.01, 0.1)
        cases.append(PairCase(
            node_a=node_a, node_b=node_b,
            probe=core.ProbeDetuning(float(rng.uniform(-0.01, 0.01)) * THZ),
            ideal=bool(ideal[i]),
            state=repeater.TwoDipoleState(tuple(amps / np.linalg.norm(amps))),
            nbar_bell=float(rng.uniform(0.5, 3.0)),
            nbar_parity=float(rng.uniform(0.5, 3.0)),
            nbar_entangle=float(nbar_entangle),
            expect_invalid=bool(invalid[i]),
            nbar_grid=tuple(float(x) for x in np.linspace(0.0, rng.uniform(1.0, 5.0), 7)),
            rng_seed=int(rng.integers(0, 2**32)),
        ))
    return cases


def _check_routing(node: core.SystemParams, probe: float) -> None:
    routing = repeater.NodeRouting.from_params(node, probe)
    for label, params in (("g", node), ("m", replace(node, g=0.0))):
        r = routing.for_label(label)
        o = core.steady_state_oracle(params, probe)
        for got, want in ((r.through, o.t_through), (r.drop, o.t_drop),
                          (r.loss_kappa, math.sqrt(params.kappa) * o.b_amp),
                          (r.loss_tau, math.sqrt(params.tau) * o.sigma_amp)):
            _require(_close(got, want), f"NodeRouting[{label}] {got!r} vs oracle {want!r}")


class Protocols:
    """Repeater protocols on seeded node pairs, called as a library."""

    name = "protocols"

    def __init__(self, seed: int, workdir: str):
        self.pool = generate_protocols(seed)
        self.bell_states = [repeater.TwoDipoleState.bell(l) for l in repeater.BELL_LABELS]

    def sizes(self) -> dict:
        return {"pool_ops": len(self.pool),
                "ideal_pairs": sum(c.ideal for c in self.pool),
                "invalid_regime_pairs": sum(c.expect_invalid for c in self.pool)}

    def prepare(self, i: int) -> None:
        pass

    def run_op(self, i: int):
        c = self.pool[i]
        a, b, probe = c.node_a, c.node_b, c.probe
        bells = [repeater.bell_measurement(a, b, s, probe, c.nbar_bell) for s in self.bell_states]
        bells.append(repeater.bell_measurement(
            a, b, c.state, probe, c.nbar_bell, rng=np.random.default_rng(c.rng_seed)))
        parity = repeater.parity_probe(a, b, c.state, probe, c.nbar_parity)
        false_even = repeater.false_even_probability(a, b, probe)
        try:
            entangled = repeater.entanglement_generation(a, b, probe, c.nbar_entangle)
        except repeater.InvalidRegime as exc:
            if not c.expect_invalid:
                raise
            entangled = exc
        tradeoff = repeater.fidelity_success_tradeoff(a, b, probe, c.nbar_grid)
        return bells, parity, false_even, entangled, tradeoff

    def check(self, i: int, out) -> None:
        c = self.pool[i]
        bells, parity, false_even, entangled, tradeoff = out
        for k, rec in enumerate(bells):
            total = sum(p for _, p in rec.distribution)
            _require(abs(total - 1.0) <= SUM_TOL, f"bell: probabilities sum to {total!r}")
            if c.ideal and k < 4:
                label = repeater.BELL_LABELS[k]
                _require(rec.outcome.label == label, f"ideal bell: {label} -> {rec.outcome.label}")
                _require(abs(rec.result.fidelity - 1.0) <= SUM_TOL,
                         f"ideal bell: fidelity {rec.result.fidelity!r}")
        total = sum(parity.outcome_probabilities.values())
        _require(abs(total - 1.0) <= SUM_TOL, f"parity: probabilities sum to {total!r}")
        for s in repeater.BASIS:
            flux = float(np.sum(np.abs(parity.pointer.row(s)) ** 2))
            _require(abs(flux - c.nbar_parity) <= SUM_TOL * c.nbar_parity,
                     f"parity: pointer row {s} carries {flux!r}, expected {c.nbar_parity!r}")
        _require(0.0 <= false_even <= 1.0, f"false even probability {false_even!r}")
        if c.expect_invalid:
            _require(isinstance(entangled, repeater.InvalidRegime),
                     f"entanglement at nbar={c.nbar_entangle} did not raise InvalidRegime")
        else:
            _require(0.0 <= entangled.success_probability <= 1.0 and
                     0.0 <= entangled.fidelity <= 1.0 + SUM_TOL, "entanglement out of range")
            if c.ideal:
                _require(abs(entangled.fidelity - 1.0) <= SUM_TOL, "ideal singlet fidelity")
        points = tradeoff.points
        _require(len(points) == len(c.nbar_grid), "tradeoff point count")
        _require(points[0].fidelity == 1.0 and points[0].success_probability == 0.0,
                 "tradeoff at nbar 0")
        for p in points:
            _require(0.0 <= p.fidelity <= 1.0 + SUM_TOL and 0.0 <= p.success_probability <= 1.0,
                     f"tradeoff point {p}")
        if not c.ideal:
            _check_routing(c.node_a, c.probe.delta_omega)
            _check_routing(c.node_b, c.probe.delta_omega)


# ==================================================================== grids ==


@dataclass(frozen=True)
class GridCase:
    """One sweep (axis, values) plus one spectrum grid and its expected peak."""

    base: core.SystemParams
    axis: str
    values: tuple
    probe: float
    node: core.SystemParams
    grid: spectra.DetuningGrid
    expect_peak: bool


def _grid_sweep(rng, count: int, variant: str) -> tuple[core.SystemParams, str, tuple, float]:
    s = _sweep_settings(rng, count, variant)
    base = _params(s)
    values = np.linspace(s["start"], s["stop"], count) * THZ
    return base, s["axis"], tuple(float(v) for v in values), s.get("delta_omega", 0.0) * THZ


GRID_VARIANTS = ("gamma_crossing", "g", "tau", "kappa", "gamma_crossing", "delta", "gamma",
                 "tau_on_line")


def generate_grids(seed: int, ops: int = 200) -> list[GridCase]:
    rng = np.random.default_rng([seed, 3])
    # the k-th largest sweep shares an op with the k-th largest spectrum, so
    # the spread of op costs (and with it p95) does not depend on the seed
    sweep_sizes = log_sizes(200, 2000, ops)
    grid_sizes = log_sizes(20001, 200001, ops)
    order = balanced_order(rng, ops)
    cases = []
    for i in range(ops):
        rank = order[i]
        # a quarter of the sweeps cross gamma = 0, an eighth start at tau = 0 on
        # the line, and a quarter of the spectra are monotone, evenly across sizes
        variant = GRID_VARIANTS[rank % len(GRID_VARIANTS)]
        monotone = rank % 4 == 2
        base, axis, values, probe = _grid_sweep(rng, sweep_sizes[rank], variant)
        count = grid_sizes[rank]
        node_thz = _node_thz(rng, 0.2)
        if monotone:  # bare drop filter on one side of its dip: no interior peak
            node = _params({**node_thz, "g": 0.0})
            grid = spectra.DetuningGrid(0.0, rng.uniform(2.0, 5.0) * node.gamma, count)
        else:
            node = _params({**node_thz, "delta": float(rng.uniform(-0.2, 0.2))})
            span = rng.uniform(2.0, 4.0) * node.gamma
            grid = spectra.DetuningGrid(-span, span, count)
        cases.append(GridCase(base, axis, values, probe, node, grid, not monotone))
    return cases


class Grids:
    """Scalar parameter sweep plus an array spectrum and its peak per op."""

    name = "grids"

    def __init__(self, seed: int, workdir: str):
        self.pool = generate_grids(seed)

    def sizes(self) -> dict:
        rows = [len(c.values) for c in self.pool]
        points = [c.grid.count for c in self.pool]
        return {"pool_ops": len(self.pool),
                "sweep_rows": [min(rows), max(rows), sum(rows)],
                "spectrum_points": [min(points), max(points), sum(points)],
                "scattering_arrays_bytes_computed_max": 64 * max(points),
                "monotone_spectra": sum(not c.expect_peak for c in self.pool)}

    def prepare(self, i: int) -> None:
        pass

    def run_op(self, i: int):
        c = self.pool[i]
        table = spectra.parameter_sweep(c.base, c.axis, c.values, c.probe)
        series = spectra.transmission_spectrum(c.node, c.grid)
        try:
            peak = spectra.locate_transparency_peak(series)
        except spectra.NoPeak as exc:
            if c.expect_peak:
                raise
            peak = exc
        return table, series, peak

    def check(self, i: int, out) -> None:
        c = self.pool[i]
        table, series, peak = out
        _require(len(table.rows) == len(c.values), "sweep row count")
        for row, value in zip(table.rows, c.values):
            _require(row.value == value, f"sweep row value {row.value!r} != {value!r}")
            if _sweep_error_expected(c.axis, value, c.base, c.probe):
                _require(row.budget is None and bool(row.error),
                         f"sweep {c.axis}={value!r} should be an error row")
            else:
                _require(row.budget is not None, f"sweep {c.axis}={value!r}: {row.error}")
                _require(abs(row.budget.total - 1.0) <= SUM_TOL,
                         f"sweep {c.axis}={value!r}: flux total {row.budget.total!r}")
        _require(series.through.shape == (c.grid.count,), "spectrum length")
        _require(bool(np.all(np.isfinite(series.through)) and np.all(series.through >= 0.0)
                      and np.all(series.through + series.drop <= 1.0 + SUM_TOL)),
                 "spectrum values out of range")
        if c.expect_peak:
            # the window is flat-topped, so its maximum sits on the dipole line
            # only to a small fraction of its width
            miss = abs(peak.peak_detuning - c.node.delta)
            _require(miss <= 0.01 * peak.fwhm + 2.0 * c.grid.step,
                     f"peak misses the dipole line by {miss!r} (fwhm {peak.fwhm!r})")
            top = float(series.through.max())
            _require(top - SUM_TOL <= peak.peak_value <= 1.0 + SUM_TOL,
                     f"peak value {peak.peak_value!r} vs sampled maximum {top!r}")
        else:
            _require(isinstance(peak, spectra.NoPeak), "monotone spectrum reported a peak")


def make(name: str, seed: int, workdir: str):
    """Build the named workload: generate its inputs and write its files."""
    return {"cli_files": CliFiles, "protocols": Protocols, "grids": Grids}[name](seed, workdir)
