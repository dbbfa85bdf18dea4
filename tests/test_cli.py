import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from xml.etree import ElementTree
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ditsim import (
    THZ,
    DetuningGrid,
    ProbeDetuning,
    _numtext,
    cli,
    parameter_sweep,
    scattering_arrays,
    spectra,
    transmission_spectrum,
)
from ditsim.cli import (
    ParseError,
    ResultTable,
    ValidationError,
    build_parser,
    load_config,
    main,
    parse_config_text,
    read_result_table,
    write_result_table,
)
from ditsim.svgplot import LineSeries, render_lines

BASE_CONF = """\
# reference operating point, THz
gamma: 1.0
g: 0.33
tau: 0.001
kappa: 0.1
"""


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


# ------------------------------------------------------------ config file --


def test_parse_basics():
    settings = parse_config_text("a: 1\nb = two  # trailing comment\n\n# note\n")
    assert settings == {"a": "1", "b": "two"}


def test_parse_rejects_malformed_line():
    with pytest.raises(ParseError, match="line 2"):
        parse_config_text("a: 1\njust words\n")


def test_parse_rejects_empty_value():
    with pytest.raises(ParseError, match="line 1"):
        parse_config_text("a:\n")


def test_parse_rejects_duplicate_key():
    with pytest.raises(ParseError, match="duplicate key 'a'"):
        parse_config_text("a: 1\na: 2\n")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ParseError, match="cannot read"):
        load_config(str(tmp_path / "nope.conf"))


def test_validation_collects_every_problem(tmp_path, capsys):
    conf = write(tmp_path / "bad.conf", "gamm: 1.0\npoints: abc\nspan: -2\n")
    code = main(["spectrum", "--config", conf, "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "3 problems" in err
    assert "did you mean 'gamma'" in err
    assert "expected an integer" in err
    assert "must be > 0" in err


@pytest.mark.parametrize(
    "command, key, value, message",
    [
        ("spectrum", "gamma", "0", "key 'gamma': must be > 0, got 0.0"),
        ("entangle", "gamma_b", "-0", "key 'gamma_b': must be > 0, got -0.0"),
        ("diagnostics", "tau", "-1e-300", "key 'tau': must be >= 0, got -1e-300"),
        ("bell", "omega0_b", "-2", "key 'omega0_b': must be >= 0, got -2.0"),
    ],
)
def test_node_range_messages(command, key, value, message):
    with pytest.raises(ValidationError) as err:
        cli._coerce(command, {key: value})
    assert err.value.problems == [message]


def test_single_point_spectrum_rejected(tmp_path, capsys):
    conf = write(tmp_path / "one.conf", "points: 1\n")
    assert main(["spectrum", "--config", conf, "--out", str(tmp_path)]) == 2
    assert "points" in capsys.readouterr().err


def test_sweep_requires_axis_and_range(tmp_path, capsys):
    conf = write(tmp_path / "sweep.conf", "gamma: 1.0\n")
    assert main(["sweep", "--config", conf, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "'axis' is required" in err
    assert "'start' is required" in err and "'stop' is required" in err


def test_bell_state_label_checked(tmp_path, capsys):
    conf = write(tmp_path / "bell.conf", "state: triplet\n")
    assert main(["bell", "--config", conf, "--out", str(tmp_path)]) == 2
    assert "psi_minus" in capsys.readouterr().err


def test_spectrum_start_without_stop_rejected(tmp_path, capsys):
    conf = write(tmp_path / "s.conf", "start: -1.0\n")
    assert main(["spectrum", "--config", conf, "--out", str(tmp_path)]) == 2
    assert "together" in capsys.readouterr().err


MULTI_PROBLEM_CONFIGS = [
    (
        "spectrum",
        "gamm: 1.0\ngamma: 0\npoints: abc\nspan: -2\nstart: 1\nkappa: nan\n",
        "error: invalid configuration (6 problems)\n"
        "  - key 'gamm' is not recognized for 'spectrum' (did you mean 'gamma'?)\n"
        "  - key 'points': expected an integer, got 'abc'\n"
        "  - key 'kappa': must be finite, got 'nan'\n"
        "  - key 'gamma': must be > 0, got 0.0\n"
        "  - key 'span': must be > 0, got -2.0\n"
        "  - keys 'start' and 'stop' must be given together\n",
    ),
    (
        "spectrum",
        "points: 1\nstart: 2\nstop: 1.5\ng: -1\nomega0: -3\nvolume: 2\n",
        "error: invalid configuration (4 problems)\n"
        "  - key 'volume' is not recognized for 'spectrum'\n"
        "  - key 'g': must be >= 0, got -1.0\n"
        "  - key 'omega0': must be >= 0, got -3.0\n"
        "  - key 'points': must be >= 2, got 1\n",
    ),
    (  # an unreadable end is reported once, as unreadable
        "spectrum",
        "start: abc\nstop: 1\n",
        "error: invalid configuration (1 problem)\n"
        "  - key 'start': expected a number, got 'abc'\n",
    ),
    (
        "sweep",
        "axis: x\nstart: 2\nstop: 1\ncount: 0\ntau: -1\ndelta_omega: inf\n",
        "error: invalid configuration (4 problems)\n"
        "  - key 'delta_omega': must be finite, got 'inf'\n"
        "  - key 'tau': must be >= 0, got -1.0\n"
        "  - key 'axis': must be one of gamma, g, tau, kappa, delta, got 'x'\n"
        "  - key 'count': must be >= 1, got 0\n",
    ),
    (
        "sweep",
        "count: 0\nstart: abc\ngamma_b: 1\ngamma: -1\n",
        "error: invalid configuration (6 problems)\n"
        "  - key 'gamma_b' is not recognized for 'sweep' (did you mean 'gamma'?)\n"
        "  - key 'start': expected a number, got 'abc'\n"
        "  - key 'gamma': must be > 0, got -1.0\n"
        "  - key 'axis' is required (one of gamma, g, tau, kappa, delta)\n"
        "  - key 'stop' is required\n"
        "  - key 'count': must be >= 1, got 0\n",
    ),
    (
        "sweep",
        "axis: g\nstart: 2\nstop: 1\ncount: x\nkappa: -0.5\n",
        "error: invalid configuration (2 problems)\n"
        "  - key 'count': expected an integer, got 'x'\n"
        "  - key 'kappa': must be >= 0, got -0.5\n",
    ),
    (
        "entangle",
        "mean_photons: -1\ng_b: -2\ntau: 1e400\nstate: phi_plus\ngamma: 0\n",
        "error: invalid configuration (5 problems)\n"
        "  - key 'state' is not recognized for 'entangle'\n"
        "  - key 'tau': must be finite, got '1e400'\n"
        "  - key 'gamma': must be > 0, got 0.0\n"
        "  - key 'g_b': must be >= 0, got -2.0\n"
        "  - key 'mean_photons': must be >= 0, got -1.0\n",
    ),
    (
        "parity",
        "gamma_start: 0\ngamma_stop: -1\ngamma_count: 0\nkappa_b: -1\ngamma_cnt: 3\n",
        "error: invalid configuration (5 problems)\n"
        "  - key 'gamma_cnt' is not recognized for 'parity' (did you mean 'gamma_count'?)\n"
        "  - key 'kappa_b': must be >= 0, got -1.0\n"
        "  - key 'gamma_start': must be > 0, got 0.0\n"
        "  - key 'gamma_stop': must be > 0, got -1.0\n"
        "  - key 'gamma_count': must be >= 1, got 0\n",
    ),
    (
        "parity",
        "gamma_start: 3\ngamma_stop: 2\ngamma_count: 2.5\ndelta_omega: x\n",
        "error: invalid configuration (3 problems)\n"
        "  - key 'gamma_count': expected an integer, got '2.5'\n"
        "  - key 'delta_omega': expected a number, got 'x'\n"
        "  - key 'gamma_stop': must be >= 'gamma_start', got 2.0 and 3.0\n",
    ),
    (
        "bell",
        "state: triplet\nsamples: -1\nmean_photons: -0.5\nseed: 3\nomega0_b: -2\n",
        "error: invalid configuration (5 problems)\n"
        "  - key 'seed' is not recognized for 'bell'\n"
        "  - key 'omega0_b': must be >= 0, got -2.0\n"
        "  - key 'mean_photons': must be >= 0, got -0.5\n"
        "  - key 'samples': must be >= 0, got -1\n"
        "  - key 'state': must be one of phi_plus, phi_minus, psi_plus, psi_minus, got 'triplet'\n",
    ),
    (
        "tradeoff",
        "nbar_start: 2\nnbar_stop: 1\nnbar_count: 0\nnbar_stop_b: 1\ntau_b: -1\n",
        "error: invalid configuration (4 problems)\n"
        "  - key 'nbar_stop_b' is not recognized for 'tradeoff' (did you mean 'nbar_stop'?)\n"
        "  - key 'tau_b': must be >= 0, got -1.0\n"
        "  - key 'nbar_count': must be >= 1, got 0\n"
        "  - key 'nbar_stop': must be >= 'nbar_start', got 1.0 and 2.0\n",
    ),
    (
        "tradeoff",
        "nbar_start: -1\nnbar_stop: -2\nnbar_count: many\ng: -0.1\n",
        "error: invalid configuration (4 problems)\n"
        "  - key 'nbar_count': expected an integer, got 'many'\n"
        "  - key 'g': must be >= 0, got -0.1\n"
        "  - key 'nbar_start': must be >= 0, got -1.0\n"
        "  - key 'nbar_stop': must be >= 0, got -2.0\n",
    ),
    (
        "diagnostics",
        "eta: 2\ngamma: -1\nkappa: abc\ndelta_omega: 0\ng_b: 1\n",
        "error: invalid configuration (5 problems)\n"
        "  - key 'delta_omega' is not recognized for 'diagnostics' (did you mean 'delta'?)\n"
        "  - key 'g_b' is not recognized for 'diagnostics'\n"
        "  - key 'kappa': expected a number, got 'abc'\n"
        "  - key 'gamma': must be > 0, got -1.0\n"
        "  - key 'eta': must be in (0, 1], got 2.0\n",
    ),
    (
        "diagnostics",
        "eta: 0\ntau: -1e-300\ng: -0\n",
        "error: invalid configuration (2 problems)\n"
        "  - key 'tau': must be >= 0, got -1e-300\n"
        "  - key 'eta': must be in (0, 1], got 0.0\n",
    ),
]


@pytest.mark.parametrize("command, text, stderr", MULTI_PROBLEM_CONFIGS)
def test_multi_problem_configs_report_every_problem_in_order(command, text, stderr, tmp_path, capsys):
    # unknown keys and unreadable values in file order, then each key's rule
    # in the order of the command's keys, then the rules that relate keys whose
    # values passed their own rules (a spectrum grid: every key's)
    conf = write(tmp_path / "bad.conf", text)
    assert main([command, "--config", conf, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == stderr
    assert os.listdir(tmp_path) == ["bad.conf"]


def _readme_config_format():
    """README's "Config format" text: the part every command shares, and
    each command's bullet."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
    with open(path, encoding="utf-8") as f:
        text = f.read().split("### Config format", 1)[1].split("Example:", 1)[0]
    shared, bullets = text.split("Per command:", 1)
    return shared, {b.split("`", 2)[1]: b for b in bullets.split("\n* ")[1:]}


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_readme_config_format_lists_every_key_and_default(command):
    shared, bullets = _readme_config_format()
    text = " ".join((shared + bullets[command]).split())
    for key, (_, default, _) in cli._COMMANDS[command].keys.items():
        if default is None or isinstance(default, cli._Required):
            assert f"`{key}`" in text, key
        else:
            assert f"`{key}` ({default!r}" in text, key


@pytest.mark.parametrize("command, text, written, problem", [
    ("parity", "gamma_stop: 0.1\n", "gamma_start: 0.5\n",
     "key 'gamma_stop': must be >= 'gamma_start', got 0.1 and 0.5"),
    ("tradeoff", "nbar_start: 6\n", "nbar_stop: 5\n",
     "key 'nbar_stop': must be >= 'nbar_start', got 5.0 and 6.0"),
    ("sweep", "axis: g\nstart: 2\nstop: 1\n", "count: 41\n", "key 'start': must be < 'stop', got 2.0 and 1.0"),
])
def test_one_sided_range_is_checked_against_the_default(command, text, written, problem, tmp_path, capsys):
    # the end left out takes its default and the range rule reads it, as it
    # reads the default written out
    for i, config in enumerate((text, text + written)):
        conf = write(tmp_path / f"range{i}.conf", config)
        assert main([command, "--config", conf, "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == f"error: invalid configuration (1 problem)\n  - {problem}\n"
    assert not os.path.exists(tmp_path / "run")


_NODE = ("gamma", "g", "tau", "kappa", "delta", "omega0")
_TWO_NODE = _NODE + tuple(f"{name}_b" for name in _NODE) + ("delta_omega",)
# every key in THz: it is multiplied by 1e12 before the library sees it
THZ_KEYS = (
    [("spectrum", key) for key in _NODE + ("start", "stop")]
    + [("sweep", key) for key in _NODE + ("delta_omega", "start", "stop")]
    + [(command, key) for command in ("entangle", "bell", "tradeoff") for key in _TWO_NODE]
    + [("parity", key) for key in _TWO_NODE + ("gamma_start", "gamma_stop")]
    + [("diagnostics", key) for key in _NODE]
)


def test_thz_keys_are_every_float_key_in_thz():
    floats = {(command, key) for command, spec in cli._COMMANDS.items()
              for key, (kind, _, _) in spec.keys.items() if kind is float}
    assert floats - set(THZ_KEYS) == {
        ("spectrum", "span"), ("entangle", "mean_photons"), ("bell", "mean_photons"),
        ("tradeoff", "nbar_start"), ("tradeoff", "nbar_stop"), ("diagnostics", "eta"),
    }


def _config_with(command, key, value):
    """A config that is valid but for ``key: value``; a range's other end lies
    beyond it."""
    settings = {"axis": "g", "start": "0", "stop": "1"} if command == "sweep" else {}
    if key in ("start", "stop"):
        settings.update(start="0", stop="1")
    settings[key] = value
    return "".join(f"{k}: {v}\n" for k, v in settings.items())


@pytest.mark.parametrize("command, key", THZ_KEYS)
def test_thz_keys_that_overflow_in_rad_s_exit_two(command, key, tmp_path, capsys):
    value = "-1e300" if key == "start" else "1e300"  # a start still below its stop
    conf = write(tmp_path / "big.conf", _config_with(command, key, value))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", conf, "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == (
        "error: invalid configuration (1 problem)\n"
        f"  - key {key!r}: overflows in rad/s (must be within about +-1.8e+296 THz), "
        f"got {float(value)!r}\n"
    )
    assert not os.path.exists(tmp_path / "run")
    # just inside the float range the key itself is fine
    inside = value.replace("1e300", "1.7e296")
    try:
        cli._coerce(command, parse_config_text(_config_with(command, key, inside)))
    except ValidationError as exc:
        assert not [p for p in exc.problems if p.startswith(f"key {key!r}")]


# how a grid that DetuningGrid refuses is reported: the keys, then its message
SPAN_GRID = "key 'span': the grid +-span*gamma is not one DetuningGrid accepts (values in rad/s): "
ENDS_GRID = "keys 'start' and 'stop': the grid is not one DetuningGrid accepts (values in rad/s): "
WIDTH = "grid width stop - start overflows the float range, got "


@pytest.mark.parametrize(
    "text, problem",
    [
        ("span: 1e296\n", SPAN_GRID + WIDTH + "[-1e+308, 1e+308]"),
        ("span: 1e300\n", SPAN_GRID + "span * gamma overflows, got span 1e+300 and gamma 1000000000000.0"),
        ("gamma: 2\nspan: 5e295\n", SPAN_GRID + WIDTH + "[-1e+308, 1e+308]"),
        ("start: -1e296\nstop: 1e296\n", ENDS_GRID + WIDTH + "[-1e+308, 1e+308]"),
        ("start: -1.7e296\nstop: 2e295\n", ENDS_GRID + WIDTH + "[-1.7000000000000001e+308, 2e+307]"),
    ],
)
def test_spectrum_grid_wider_than_the_float_range_exits_two(text, problem, tmp_path, capsys):
    # np.linspace would make nan points of it, which the kernel then reports
    # as a collapsed denominator
    conf = write(tmp_path / "wide.conf", text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["spectrum", "--config", conf, "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == f"error: invalid configuration (1 problem)\n  - {problem}\n"
    assert not os.path.exists(tmp_path / "run")


@pytest.mark.parametrize(
    "text, problem",
    [
        # span * gamma = 1e-328 rad/s underflows to 0; this exited 1 with a traceback
        ("gamma: 1e-300\nspan: 1e-40\n",
         SPAN_GRID + "span * gamma underflows to 0, got span 1e-40 and gamma 1e-288"),
        ("start: 2\nstop: 1.5\n", ENDS_GRID + "grid requires start < stop, got [2000000000000.0, 1500000000000.0]"),
        ("start: -0\nstop: 0\n", ENDS_GRID + "grid requires start < stop, got [-0.0, 0.0]"),
    ],
)
def test_spectrum_grid_that_detuning_grid_refuses_exits_two(text, problem, tmp_path, capsys):
    conf = write(tmp_path / "grid.conf", text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["spectrum", "--config", conf, "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == f"error: invalid configuration (1 problem)\n  - {problem}\n"
    assert not os.path.exists(tmp_path / "run")


@pytest.mark.parametrize("text", ["span: 8e295\npoints: 5\n",
                                  "start: -8.9e295\nstop: 8.9e295\npoints: 5\n"])
def test_spectrum_grid_just_inside_the_float_range_runs(text, tmp_path, capsys):
    conf = write(tmp_path / "wide.conf", text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["spectrum", "--config", conf, "--out", str(tmp_path), "--plot"]) == 0
    assert capsys.readouterr().err == ""


# edge values of each key's type: zeros, the subnormal and float limits, the
# rad/s overflow edge near 1.8e296 THz, the entangle regime's ends, and
# values that cannot be read; counts stay small
EDGE_VALUES = {
    float: ["0", "-0", "1", "-1", "0.1", "0.5", "8", "5e-324", "1e-300", "1e-40", "1e-155", "1e155",
            "1.7e296", "1.8e296", "1e300", "1.7e308", "nan", "-inf", "x"],
    int: ["-1", "0", "1", "2", "3", "2.5", "x"],
    str: ["x", "omega0", *spectra.SWEEP_AXES, "phi_plus", "psi_minus"],
}


@st.composite
def configs(draw):
    """A command and a config of edge values for its required keys and some
    others, now and then with an unknown key."""
    command = draw(st.sampled_from(cli.COMMANDS))
    keys = cli._COMMANDS[command].keys
    chosen = [key for key, (_, default, _) in keys.items() if isinstance(default, cli._Required)]
    chosen += draw(st.lists(st.sampled_from(sorted(keys.keys() - set(chosen))), unique=True, max_size=5))
    settings = {key: draw(st.sampled_from(EDGE_VALUES[keys[key][0]])) for key in chosen}
    if draw(st.booleans()) and draw(st.booleans()):
        settings["volume"] = "1"
    return command, settings


@settings(max_examples=150, deadline=None)
@given(case=configs())
@example(case=("spectrum", {"gamma": "1e-300", "span": "1e-40"}))
@example(case=("parity", {"gamma_stop": "0.1"}))
@example(case=("tradeoff", {"nbar_start": "6"}))
@example(case=("entangle", {"tau": "0"}))
def test_every_config_exits_zero_two_or_three(case):
    # whatever the values, a run ends in an exit code, never an exception or
    # a numpy warning
    command, settings = case
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        conf = write(Path(tmp) / "edge.conf", "".join(f"{k}: {v}\n" for k, v in settings.items()))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", conf, "--out", os.path.join(tmp, "run"), "--plot"])
    assert code in (0, 2, 3)
    assert (code == 0) == (err.getvalue() == ""), err.getvalue()


def test_spectrum_plot_of_a_subnormal_axis_is_valid_svg(tmp_path):
    # x spans about 2e-323 THz: the tick step underflows
    conf = write(tmp_path / "tiny.conf", "gamma: 5e-324\nspan: 1.7392\n")
    out = tmp_path / "run"
    assert main(["spectrum", "--config", conf, "--out", str(out), "--plot"]) == 0
    root = ElementTree.parse(out / "spectrum.svg").getroot()
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    assert len(root.findall("{http://www.w3.org/2000/svg}polyline")) == 2


# ----------------------------------------------------------- happy paths --


def test_spectrum_csv_round_trip(tmp_path):
    conf = write(tmp_path / "p.conf", BASE_CONF + "points: 201\n")
    out = tmp_path / "run"
    assert main(["spectrum", "--config", conf, "--out", str(out)]) == 0
    table = read_result_table(str(out / "spectrum.csv"))
    assert table.metadata["command"] == "spectrum"
    assert table.columns == (
        "delta_omega_thz", "through", "drop", "loss_kappa", "loss_tau"
    )
    assert len(table.rows) == 201
    # 17 significant digits survive the text round trip bit for bit
    center = table.rows[100]
    assert center[0] == 0.0
    assert center[1] == 0.9908821994047542 or abs(center[1] - 0.9908821994047542) < 1e-15
    assert table.metadata["peak"]["through_power"] == pytest.approx(
        0.9908821994047542, abs=1e-12
    )


def test_spectrum_json_matches_csv(tmp_path):
    conf = write(tmp_path / "p.conf", BASE_CONF + "points: 51\n")
    out = tmp_path / "run"
    assert main(["spectrum", "--config", conf, "--out", str(out)]) == 0
    assert main(["spectrum", "--config", conf, "--out", str(out), "--format", "json"]) == 0
    from_csv = read_result_table(str(out / "spectrum.csv"))
    from_json = read_result_table(str(out / "spectrum.json"))
    assert from_json.columns == from_csv.columns
    assert from_json.metadata == from_csv.metadata
    for a, b in zip(from_json.rows, from_csv.rows):
        assert a == b


def test_spectrum_plot_written(tmp_path):
    conf = write(tmp_path / "p.conf", BASE_CONF + "points: 101\n")
    out = tmp_path / "run"
    assert main(["spectrum", "--config", conf, "--out", str(out), "--plot"]) == 0
    svg = (out / "spectrum.svg").read_text(encoding="utf-8")
    assert svg.startswith("<svg ")
    assert "polyline" in svg and svg.rstrip().endswith("</svg>")
    assert "nan" not in svg.lower()


def test_outputs_are_deterministic(tmp_path):
    conf = write(tmp_path / "p.conf", BASE_CONF + "points: 101\n")
    pair = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["spectrum", "--config", conf, "--out", str(out), "--plot"]) == 0
        pair.append(
            (
                (out / "spectrum.csv").read_bytes(),
                (out / "spectrum.svg").read_bytes(),
            )
        )
    assert pair[0] == pair[1]


def test_sweep_error_rows_round_trip(tmp_path):
    conf = write(
        tmp_path / "s.conf",
        "axis: gamma\nstart: -0.5\nstop: 1.0\ncount: 4\n",
    )
    out = tmp_path / "run"
    assert main(["sweep", "--config", conf, "--out", str(out)]) == 0
    table = read_result_table(str(out / "sweep.csv"))
    assert len(table.rows) == 4
    first = table.rows[0]
    assert first[1] is None and isinstance(first[-1], str)  # error text kept
    last = table.rows[-1]
    assert last[-1] is None and last[1] is not None  # valid row, empty error cell


def test_bell_enumerates_all_inputs(tmp_path):
    conf = write(tmp_path / "b.conf", BASE_CONF + "mean_photons: 1.0\n")
    out = tmp_path / "run"
    assert main(["bell", "--config", conf, "--out", str(out)]) == 0
    table = read_result_table(str(out / "bell.csv"))
    assert len(table.rows) == 4
    for row in table.rows:
        assert row[0] == row[1]  # every Bell input classified as itself
        assert row[4] > 0.9


def test_bell_sampling_deterministic_with_seed(tmp_path):
    conf = write(
        tmp_path / "b.conf",
        BASE_CONF + "state: psi_plus\nmean_photons: 1.0\nsamples: 100\n",
    )
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["bell", "--config", conf, "--out", str(out), "--seed", "42"])
        assert code == 0
        outputs.append((out / "bell.csv").read_bytes())
    assert outputs[0] == outputs[1]
    table = read_result_table(str(tmp_path / "a" / "bell.csv"))
    counts = [row[4] for row in table.rows]
    assert sum(counts) == 100
    assert table.metadata["seed"] == 42


@pytest.mark.parametrize("samples", [1, 499, 500])
@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_bell_samples_are_the_counts_generator_choice_draws(samples, seed, tmp_path):
    # the golden bell_sampled node pair, whose four outcomes all have weight
    settings = "g_b: 0.3\ndelta_omega: 0.01\nmean_photons: 1.5\nstate: psi_plus\n"
    conf = write(tmp_path / "b.conf", BASE_CONF + settings + f"samples: {samples}\n")
    out = tmp_path / "run"
    assert main(["bell", "--config", conf, "--out", str(out), "--seed", str(seed)]) == 0
    table = read_result_table(str(out / "bell.csv"))
    p = np.array([row[3] for row in table.rows])  # written with every digit
    draws = np.random.default_rng(seed).choice(len(p), samples, p=p / p.sum())
    counts = np.bincount(draws, minlength=len(p))
    assert [row[4] for row in table.rows] == counts.tolist()
    assert [row[5] for row in table.rows] == (counts / samples).tolist()
    assert table.metadata["seed"] == seed


def test_diagnostics_values(tmp_path):
    conf = write(tmp_path / "d.conf", BASE_CONF)
    out = tmp_path / "run"
    assert main(["diagnostics", "--config", conf, "--out", str(out)]) == 0
    table = read_result_table(str(out / "diagnostics.csv"))
    (row,) = table.rows
    named = dict(zip(table.columns, row))
    assert named["purcell"] == pytest.approx(207.42857142857142, rel=1e-12)
    assert named["max_safe_flux_per_s"] == pytest.approx(1.089e9, rel=1e-12)
    assert named["transparency_at_dipole"] == pytest.approx(0.9908821994047542, abs=1e-12)


def test_entangle_reports_herald(tmp_path):
    conf = write(tmp_path / "e.conf", BASE_CONF + "mean_photons: 0.05\n")
    out = tmp_path / "run"
    assert main(["entangle", "--config", conf, "--out", str(out)]) == 0
    table = read_result_table(str(out / "entangle.csv"))
    (row,) = table.rows
    assert row[1] == pytest.approx(0.011229335663440294, rel=1e-9)
    assert row[2] == pytest.approx(1.0, abs=1e-9)
    post = np.array([complex(re, im) for re, im in table.metadata["post_state"]])
    assert abs(np.vdot(post, post) - 1.0) < 1e-9


def test_tradeoff_table(tmp_path):
    conf = write(
        tmp_path / "t.conf",
        "gamma: 4.0\nnbar_start: 0.0\nnbar_stop: 3.0\nnbar_count: 4\n",
    )
    out = tmp_path / "run"
    assert main(["tradeoff", "--config", conf, "--out", str(out), "--format", "json"]) == 0
    table = read_result_table(str(out / "tradeoff.json"))
    assert table.rows[0][1] == 1.0 and table.rows[0][2] == 0.0
    assert table.rows[-1][1] == pytest.approx(0.9201785628300811, rel=1e-9)
    assert table.rows[-1][2] == pytest.approx(0.9407311958357215, rel=1e-9)


def test_parity_scan_matches_library(tmp_path):
    conf = write(
        tmp_path / "p.conf",
        BASE_CONF + "gamma_start: 1.0\ngamma_stop: 4.0\ngamma_count: 4\n",
    )
    out = tmp_path / "run"
    assert main(["parity", "--config", conf, "--out", str(out)]) == 0
    table = read_result_table(str(out / "parity.csv"))
    assert [row[0] for row in table.rows] == [1.0, 2.0, 3.0, 4.0]
    assert table.rows[0][1] == pytest.approx(0.002969888429932798, rel=1e-9)
    assert table.rows[2][1] == pytest.approx(0.0009251662534133594, rel=1e-9)


def test_node_b_overrides(tmp_path):
    conf = write(
        tmp_path / "e.conf", BASE_CONF + "g_b: 0.1\nmean_photons: 0.05\n"
    )
    out = tmp_path / "run"
    assert main(["entangle", "--config", conf, "--out", str(out)]) == 0
    table = read_result_table(str(out / "entangle.csv"))
    assert table.metadata["params_b"]["g_thz"] == 0.1
    assert table.metadata["params_a"]["g_thz"] == 0.33
    (row,) = table.rows
    assert 0.0 < row[2] < 1.0  # asymmetric nodes no longer herald a pure singlet


# ------------------------------------------------------------- exit codes --


def test_numerics_failure_exits_three(tmp_path, capsys):
    conf = write(tmp_path / "d.conf", "tau: 0.0\npoints: 11\n")
    code = main(["spectrum", "--config", conf, "--out", str(tmp_path)])
    assert code == 3
    assert "diverges" in capsys.readouterr().err


def test_entangle_regime_violation_exits_three(tmp_path, capsys):
    conf = write(tmp_path / "e.conf", "mean_photons: 0.5\n")
    code = main(["entangle", "--config", conf, "--out", str(tmp_path)])
    assert code == 3
    assert "mean_photons" in capsys.readouterr().err


def test_missing_config_exits_two(tmp_path, capsys):
    code = main(["spectrum", "--config", str(tmp_path / "nope.conf")])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("out, reason", [("taken", "File exists"), ("taken/sub", "Not a directory")])
def test_out_that_cannot_be_a_directory_exits_two(out, reason, tmp_path, capsys):
    conf = write(tmp_path / "c.conf", BASE_CONF)
    write(tmp_path / "taken", "")  # a file where the output directory should be
    target = str(tmp_path / out)
    assert main(["diagnostics", "--config", conf, "--out", target]) == 2
    assert capsys.readouterr() == ("", f"error: cannot write output in {target!r}: {reason}\n")


def test_negative_seed_rejected_by_parser(tmp_path):
    conf = write(tmp_path / "p.conf", BASE_CONF)
    with pytest.raises(SystemExit) as exc:
        main(["bell", "--config", conf, "--seed", "-1"])
    assert exc.value.code == 2


def test_unknown_command_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify", "--config", "x"])
    assert exc.value.code == 2


# ------------------------------------------------------------ parser reuse --


def _bad_then_two_runs(tmp_path, name, fresh_parser, monkeypatch, capsys):
    """A bad command line, then two commands; their stdout and output bytes."""
    spectrum = write(tmp_path / "s.conf", BASE_CONF + "points: 21\n")
    bell = write(tmp_path / "b.conf", BASE_CONF + "state: psi_plus\nsamples: 50\n")
    out = tmp_path / name
    calls = [
        ["spectrum", "--config", spectrum, "--out", str(out), "--format", "json", "--plot"],
        ["bell", "--config", bell, "--out", str(out)],  # --seed left to its default
    ]
    if fresh_parser:
        monkeypatch.setattr(cli, "_parser", None)
    with pytest.raises(SystemExit) as exc:
        main(["bell", "--config", bell, "--seed", "-1"])
    assert exc.value.code == 2
    capsys.readouterr()
    stdout = []
    for argv in calls:
        if fresh_parser:
            monkeypatch.setattr(cli, "_parser", None)
        assert main(argv) == 0
        stdout.append(capsys.readouterr().out.replace(str(out), "OUT"))
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return stdout, files


def test_reused_parser_matches_fresh_parser(tmp_path, monkeypatch, capsys):
    reused = _bad_then_two_runs(tmp_path, "reused", False, monkeypatch, capsys)
    fresh = _bad_then_two_runs(tmp_path, "fresh", True, monkeypatch, capsys)
    assert reused == fresh
    assert sorted(reused[1]) == ["bell.csv", "spectrum.json", "spectrum.svg"]


@pytest.mark.parametrize("argv", [["--help"], ["spectrum", "--help"]])
def test_help_text_unchanged_by_parser_reuse(argv, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_parser", None)
    texts = []
    for _ in range(2):  # the first call builds the parser, the second reuses it
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        texts.append(capsys.readouterr().out)
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
    assert texts == [capsys.readouterr().out] * 2


def test_build_parser_returns_a_new_parser(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])  # makes sure the shared parser exists
    first, second = build_parser(), build_parser()
    assert first is not second
    assert cli._parser is not None and cli._parser not in (first, second)


# ------------------------------------------------- column-wise table writer --


def _reference_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def reference_write(table, path, fmt):
    """The per-cell writer that the column-wise path replaced."""
    meta = json.dumps(table.metadata, sort_keys=True)
    if fmt == "csv":
        buffer = io.StringIO()
        buffer.write(f"# metadata: {meta}\n")
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(table.columns)
        for row in table.rows:
            writer.writerow([_reference_cell(v) for v in row])
        payload = buffer.getvalue()
    else:
        payload = (
            json.dumps(
                {
                    "metadata": table.metadata,
                    "columns": list(table.columns),
                    "rows": [list(row) for row in table.rows],
                },
                sort_keys=True,
                indent=2,
            )
            + "\n"
        )
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(payload)


def assert_same_table_bytes(table, formats=("csv", "json")):
    with tempfile.TemporaryDirectory() as tmp:
        for fmt in formats:
            want, got = os.path.join(tmp, f"want.{fmt}"), os.path.join(tmp, f"got.{fmt}")
            reference_write(table, want, fmt)
            write_result_table(table, got, fmt)
            with open(want, "rb") as a, open(got, "rb") as b:
                assert b.read() == a.read(), fmt


floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),  # subnormals included
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300, -1e-300, 5e-324]),
)
cells = st.one_of(
    floats,
    floats.map(np.float64),
    st.integers(-(10**20), 10**20),
    st.booleans(),
    st.none(),
    st.text(),
    st.sampled_from(["a,b", 'say "hi"', "two\nlines", "\r", "naïve µs ∆ω", ""]),
)


@st.composite
def tables(draw, min_rows=0, max_rows=6):
    width = draw(st.integers(1, 6))
    rows = draw(st.integers(min_rows, max_rows))
    columns = []
    for _ in range(width):
        # whole float columns take the fast path, any other column the general one
        kind = floats if draw(st.booleans()) else cells
        columns.append(draw(st.lists(kind, min_size=rows, max_size=rows)))
    names = draw(st.lists(st.text(max_size=8), min_size=width, max_size=width))
    metadata = {"command": draw(st.text(max_size=8)), "n": rows, "x": draw(floats)}
    return ResultTable(metadata, tuple(names), tuple(zip(*columns)) if rows else ())


@settings(max_examples=200, deadline=None)
@given(tables())
def test_table_bytes_match_reference(table):
    assert_same_table_bytes(table)


@pytest.mark.parametrize("count", [0, 1, 4096, 4097, 9001])
@settings(max_examples=4, deadline=None)
@given(block=tables(min_rows=1, max_rows=3))
def test_long_table_bytes_match_reference(block, count):
    """Tables around and past the chunk size, tiled from a drawn block of rows."""
    rows = block.rows * (count // len(block.rows) + 1)
    assert_same_table_bytes(ResultTable(block.metadata, block.columns, rows[:count]))


def test_float_chunk_then_mixed_chunk_match_reference():
    # the first chunk holds only floats and is joined without csv.writer; the
    # None and the quoted string send the second through it
    rows = [(float(i), -i / 7.0, math.nan, -math.inf, 5e-324) for i in range(cli._CHUNK_ROWS + 3)]
    rows[-1] = (1.0, None, "a,b", 'say "hi"', 2)
    assert_same_table_bytes(ResultTable({"n": len(rows)}, ("a", "b", "c", "d", "e"), tuple(rows)))
    assert_same_table_bytes(ResultTable({}, ("x",), tuple((float(i),) for i in range(9))))


# strings the csv module quotes, and some it leaves bare
CSV_STRINGS = [",", "a,b", '"', 'say "hi"', "\n", "two\nlines", "\r", "\r\n", " lead",
               "trail ", " ", "", "naïve µs ∆ω", "日本語", "plain", "1.5", "None"]


@pytest.mark.parametrize("rows", [4095, 4096, 4097])
def test_mixed_csv_chunks_match_reference(rows):
    # string columns join by column with the csv module's quoting, beside a
    # float array, floats with None, and a column of every kind
    rng = np.random.default_rng(rows)
    strings = [CSV_STRINGS[i] for i in rng.integers(0, len(CSV_STRINGS), rows).tolist()]
    values = rng.standard_normal(rows) * 10.0 ** rng.integers(-9, 9, rows)
    partial = [None if i % 13 == 5 else v for i, v in enumerate(values.tolist())]
    kinds = [(s, i, i % 3 == 0, None, -i / 3.0)[i % 5] for i, s in enumerate(strings)]
    assert_same_bytes_three_ways(
        {"rows": rows}, ("x", "s", "partial", "any", "t"),
        [values, strings, partial, kinds, strings[::-1]],
    )


@pytest.mark.parametrize("rows", [1, 2, 4097])
def test_one_column_csv_tables_match_reference(rows):
    # the csv module quotes a row that is one empty cell, from "" or None
    strings = (CSV_STRINGS * (rows // len(CSV_STRINGS) + 1))[-rows:]
    assert_same_bytes_three_ways({}, ("s",), [strings])
    assert_same_bytes_three_ways({}, ("s",), [[None] * rows])
    assert_same_bytes_three_ways({}, ("s",), [[None if i % 2 else s for i, s in enumerate(strings)]])
    assert_same_bytes_three_ways({}, ("x",), [[None if i % 3 else i / 7 for i in range(rows)]])


def reference_run_sweep(options, args):
    """The sweep handler that took the rows of ``parameter_sweep`` apart."""
    params = cli._params_from(options)
    probe = ProbeDetuning(options["delta_omega"] * THZ)
    swept = np.linspace(options["start"], options["stop"], options["count"]) * THZ
    table = parameter_sweep(params, options["axis"], swept, probe)
    metadata = {
        "command": "sweep",
        "axis": options["axis"],
        "params": cli._params_meta(params),
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


def _g_sweep(count):
    return f"axis: g\nstart: 0\nstop: 1\ncount: {count}\n"


def _gamma_errors(errors, valid):
    """A gamma sweep in steps of 1 THz whose first ``errors`` rows are at or below 0."""
    return f"axis: gamma\nstart: {1 - errors}\nstop: {valid}\ncount: {errors + valid}\n"


def _singular_row(row, count):
    """A delta sweep on a tau = 0 node that meets the probe exactly at ``row``."""
    start = -row * 2.0**-10
    return f"tau: 0\naxis: delta\nstart: {start!r}\nstop: {start + (count - 1) * 2.0**-10!r}\ncount: {count}\n"


# a row's float cells go to join_cells with the other rows', five a row: the
# kernel formats them from 80 rows in CSV and from 200 in JSON, error rows
# included; a chunk holds 4096 rows
SWEEP_CASES = {
    **{f"no errors, {n} rows": _g_sweep(n) for n in (1, 79, 80, 199, 200, 399, 400, 999, 1000, 4095, 4096, 4097)},
    **{f"{k} error rows of {n}": _gamma_errors(k, n - k) for k, n in ((1, 80), (40, 79), (40, 80), (100, 199),
                                                                      (100, 200), (1000, 1081))},
    "errors across the chunk edge": _gamma_errors(4097, 1),
    "errors up to the chunk edge": _gamma_errors(4096, 200),
    **{f"error at row {k} of {n}": _singular_row(k, n) for k, n in ((4095, 4097), (4096, 4097), (0, 4097), (79, 81))},
    "every row an error, 5 rows": "axis: gamma\nstart: -2\nstop: -1\ncount: 5\n",
    "every row an error, 4097 rows": "axis: kappa\nstart: -2\nstop: -1\ncount: 4097\n",
}


@pytest.mark.parametrize("text", list(SWEEP_CASES.values()), ids=list(SWEEP_CASES))
def test_sweep_bytes_match_the_row_wise_reference(text, tmp_path):
    conf = write(tmp_path / "sweep.conf", text)
    table, plot = reference_run_sweep(cli._coerce("sweep", parse_config_text(text)), None)
    for fmt in ("csv", "json"):
        out, want = tmp_path / fmt, tmp_path / f"want.{fmt}"
        assert main(["sweep", "--config", conf, "--out", str(out), "--format", fmt, "--plot"]) == 0
        reference_write(table, str(want), fmt)
        assert (out / f"sweep.{fmt}").read_bytes() == want.read_bytes(), fmt
        svg = out / "sweep.svg"
        if plot is None:
            assert not svg.exists()
        else:
            xlabel, ylabel = cli._COMMANDS["sweep"].labels
            assert svg.read_text(encoding="utf-8") == render_lines(plot, title="sweep", xlabel=xlabel, ylabel=ylabel)


def test_ragged_table_rejected(tmp_path):
    # a table is rectangular from construction on, so no writer sees ragged rows
    with pytest.raises(ValueError, match="one cell per column"):
        ResultTable({}, ("a", "b"), ((1.0, 2.0), (3.0,)))
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------- column storage --


def assert_same_bytes_three_ways(metadata, names, cells, formats=("csv", "json")):
    """A table from columns, the same table from rows and the per-cell
    reference writer give the same bytes in each of ``formats``; ``cells``
    holds one list per column, or an array for a float column."""
    lists = [c.tolist() if isinstance(c, np.ndarray) else c for c in cells]
    rows = tuple(zip(*lists))
    reference = SimpleNamespace(metadata=metadata, columns=tuple(names), rows=rows)
    from_columns = ResultTable.from_columns(metadata, dict(zip(names, cells)))
    from_rows = ResultTable(metadata, names, rows)
    with tempfile.TemporaryDirectory() as tmp:
        for fmt in formats:
            want = os.path.join(tmp, f"want.{fmt}")
            reference_write(reference, want, fmt)
            with open(want, "rb") as f:
                expected = f.read()
            for name, table in (("columns", from_columns), ("rows", from_rows)):
                got = os.path.join(tmp, f"{name}.{fmt}")
                write_result_table(table, got, fmt)
                with open(got, "rb") as f:
                    assert f.read() == expected, (fmt, name)


# one column's repeating block of cells, by kind of column
array_blocks = st.tuples(st.just("array"), st.lists(floats, min_size=1, max_size=3))
column_blocks = st.one_of(
    array_blocks,
    st.tuples(st.just("list"), st.lists(cells, min_size=1, max_size=3)),
    st.tuples(
        st.just("list"),
        st.lists(st.one_of(floats, floats.map(np.float64), st.none()), min_size=1, max_size=3),
    ),
    st.tuples(st.just("list"), st.just([None])),
    st.tuples(st.just("list"), st.lists(st.text(max_size=12), min_size=1, max_size=3)),
    st.tuples(st.just("list"), st.lists(st.integers(-5, 5) | st.booleans(), min_size=1, max_size=3)),
)


@st.composite
def column_tables(draw, count, blocks=column_blocks):
    """(metadata, names, cells) of a table of ``count`` rows, or of
    ``count(columns)`` rows when ``count`` is a function."""
    blocks = draw(st.lists(blocks, min_size=1, max_size=6))
    names = draw(st.lists(st.text(max_size=6), min_size=len(blocks), max_size=len(blocks), unique=True))
    rows = count(len(blocks)) if callable(count) else count
    cells = []
    for kind, block in blocks:
        column = (block * (rows // len(block) + 1))[:rows]
        cells.append(np.array(column, dtype=float) if kind == "array" else column)
    return {"rows": rows, "x": draw(floats)}, names, cells


@pytest.mark.parametrize("count", [0, 1, 399, 400, 4095, 4096, 4097, 9001])
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_column_table_bytes_match_row_table_and_reference(count, data):
    assert_same_bytes_three_ways(*data.draw(column_tables(count)))


# by the style of each format's float cells
@pytest.mark.parametrize("fmt", ["csv", "json"], ids=[_numtext.G17, _numtext.JSON])
@pytest.mark.parametrize("below", [True, False])
@pytest.mark.parametrize("blocks", [array_blocks, column_blocks], ids=["arrays", "mixed"])
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_column_table_bytes_at_each_kernel_crossover(fmt, below, blocks, data):
    # a chunk of w float columns goes through the array formatter, in the
    # style of the format, from ceil(_KERNEL_CELLS / w) rows on: one row short
    # of that, and just there
    def count(width):
        return -(-_numtext._KERNEL_CELLS // width) - below

    assert_same_bytes_three_ways(*data.draw(column_tables(count, blocks)), formats=[fmt])


def test_empty_tables_match_reference():
    assert_same_bytes_three_ways({}, [], [])
    assert_same_bytes_three_ways({"n": 0}, ["a", "b"], [np.empty(0), []])


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda n: st.lists(
            st.lists(
                st.one_of(st.floats(allow_nan=False), st.integers(), st.booleans(), st.none(), st.text()),
                min_size=n,
                max_size=n,
            ),
            max_size=6,
        )
    )
)
def test_rows_read_back_as_given(rows):
    rows = tuple(map(tuple, rows))
    width = len(rows[0]) if rows else 3
    table = ResultTable({}, tuple(f"c{i}" for i in range(width)), rows)
    assert table.rows == rows
    for got, given_row in zip(table.rows, rows):
        assert list(map(type, got)) == list(map(type, given_row))


def test_float_columns_are_arrays_and_rows_hold_python_floats():
    table = ResultTable({}, ("x", "label"), ((np.float64(0.5), "a"), (2.0, None)))
    x, label = table.data
    assert isinstance(x, np.ndarray) and x.dtype == np.float64
    assert label == ["a", None]
    assert table.rows == ((0.5, "a"), (2.0, None))
    assert type(table.rows[0][0]) is float


def test_spectrum_keeps_its_float_columns_as_arrays():
    options = cli._coerce("spectrum", {"points": "101"})
    table, plot = cli.run("spectrum", options, build_parser().parse_args(["spectrum", "--config", "x"]))
    assert table.columns == ("delta_omega_thz", "through", "drop", "loss_kappa", "loss_tau")
    for column in table.data:
        assert isinstance(column, np.ndarray) and column.dtype == np.float64 and column.shape == (101,)
    # the plot draws the table's own arrays
    assert plot[0].x is table.data[0] and plot[0].y is table.data[1] and plot[1].y is table.data[2]


def test_spectrum_columns_match_the_library_on_a_grid_of_many_blocks():
    options = cli._coerce("spectrum", {"points": "20001", "delta": "0.02"})
    table, _ = cli.run("spectrum", options, build_parser().parse_args(["spectrum", "--config", "x"]))
    params = cli._params_from(options)
    grid = DetuningGrid.default(params, span=options["span"], count=options["points"])
    assert grid.count > spectra._BLOCK
    series = transmission_spectrum(params, grid)
    arrays = scattering_arrays(params, grid.points())
    want = (grid.points() / THZ, series.through, series.drop,
            params.kappa * np.abs(arrays.b_amp) ** 2, params.tau * np.abs(arrays.sigma_amp) ** 2)
    for name, got, expected in zip(table.columns, table.data, want):
        assert got.tobytes() == expected.tobytes(), name


def test_column_length_mismatch_rejected(tmp_path):
    with pytest.raises(ValueError, match=r"one cell per row, got columns of \[2, 3\] cells"):
        ResultTable.from_columns({}, {"a": np.zeros(3), "b": [1.0, None]})
    assert list(tmp_path.iterdir()) == []


def test_cli_import_leaves_out_the_network_modules():
    heavy = ("urllib.request", "http.client", "email", "ssl")
    code = f"import sys, ditsim, ditsim.cli; print([m for m in {heavy!r} if m in sys.modules])"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_spectrum_of_a_huge_tau_writes_nothing_to_stderr(tmp_path):
    # a valid grid on which numpy's complex division for sigma overflowed inside
    conf = write(tmp_path / "huge.conf", "tau: 1.7e296\nstart: 0\nstop: 1.7e296\npoints: 5\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-m", "ditsim.cli", "spectrum", "--config", conf,
                          "--out", str(tmp_path / "run")], env=env, capture_output=True, text=True)
    assert (out.returncode, out.stderr) == (0, "")
