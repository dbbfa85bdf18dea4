"""Self-test of the benchmark harness: checks, metric names, determinism, tracing.

Run from the repository root with ``python -m pytest bench/tests -q``.
"""

import json
import math
import os
import subprocess
import sys

import pytest

import reference
import tracer
import worker
import workloads
from ditsim import cli, core, repeater, spectra

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _light_cli_work(tmp_path):
    """cli_files built from seed 0, cut down to its cheap commands."""
    work = workloads.CliFiles(0, str(tmp_path))
    keep = [i for i, c in enumerate(work.pool)
            if c.command in ("entangle", "diagnostics", "bell") or c.expect_exit != 0][:12]
    work.pool = [work.pool[i] for i in keep]
    work.argv = [work.argv[i] for i in keep]
    return work


def test_clean_run_has_no_failures(tmp_path):
    work = _light_cli_work(tmp_path)
    loop = worker.closed_loop(work, 0.0, 2)
    assert loop.failures == []
    assert loop.executions == 2 * len(work.pool)


def test_op_times_are_rescaled_by_the_reference_kernel(tmp_path, monkeypatch):
    class HalfSpeed:
        def sample(self):
            return 2 * reference.NOMINAL_S

    monkeypatch.setattr(worker, "SPEED", HalfSpeed())
    work = _light_cli_work(tmp_path)
    loop = worker.closed_loop(work, 0.0, 1)
    assert loop.kernel_s == [2 * reference.NOMINAL_S] * len(work.pool)
    assert math.isclose(sum(t for ts in loop.times for t in ts), loop.busy_s / 2)


def test_perturbed_cell_is_a_failed_op(tmp_path, monkeypatch):
    work = _light_cli_work(tmp_path)
    original = cli.write_result_table

    def perturbed(table, path, fmt):
        row = list(table.rows[0])
        j = next(j for j, v in enumerate(row) if isinstance(v, float))
        row[j] = math.nextafter(row[j], math.inf)
        original(cli.ResultTable(table.metadata, table.columns, (tuple(row),) + table.rows[1:]),
                 path, fmt)

    monkeypatch.setattr(cli, "write_result_table", perturbed)
    loop = worker.closed_loop(work, 0.0, 1)
    valid = sum(c.expect_exit == 0 for c in work.pool)
    assert valid > 0
    assert len(loop.failures) == valid
    assert all("cell" in f for f in loop.failures)


def test_wrong_exit_code_is_a_failed_op(tmp_path, monkeypatch):
    work = _light_cli_work(tmp_path)

    def broken(command, options, args):
        raise core.NumericsError("injected")

    monkeypatch.setattr(cli, "run", broken)
    loop = worker.closed_loop(work, 0.0, 1)
    assert len(loop.failures) == sum(c.expect_exit == 0 for c in work.pool)
    assert all("exit code 3" in f for f in loop.failures)


def test_changed_bytes_on_a_repeat_are_a_failed_op(tmp_path, monkeypatch):
    work = _light_cli_work(tmp_path)
    assert worker.closed_loop(work, 0.0, 1).failures == []
    original = cli.write_result_table
    monkeypatch.setattr(cli, "write_result_table",
                        lambda t, p, f: original(cli.ResultTable({"x": 1}, t.columns, t.rows), p, f))
    loop = worker.closed_loop(work, 0.0, 1)
    assert len(loop.failures) == sum(c.expect_exit == 0 for c in work.pool)


@pytest.mark.parametrize("generate", [workloads.generate_cli_files,
                                      workloads.generate_protocols,
                                      workloads.generate_grids])
def test_same_seed_gives_same_inputs(generate):
    assert generate(11) == generate(11)
    assert generate(11) != generate(12)


def test_same_seed_writes_same_config_files(tmp_path):
    a = workloads.CliFiles(5, str(tmp_path / "a"))
    b = workloads.CliFiles(5, str(tmp_path / "b"))
    conf_a = sorted((tmp_path / "a" / "configs").iterdir())
    conf_b = sorted((tmp_path / "b" / "configs").iterdir())
    assert [p.name for p in conf_a] == [p.name for p in conf_b]
    assert all(x.read_bytes() == y.read_bytes() for x, y in zip(conf_a, conf_b))
    assert a.pool == b.pool


def test_tracer_wraps_every_binding_and_restores_them():
    bindings = [(repeater, "scatter_coefficients"), (spectra, "flux_budget"),
                (cli, "render_lines"), (cli, "scattering_arrays"),
                (spectra, "scattering_arrays"), (core, "scattering_arrays")]
    before = [getattr(m, a) for m, a in bindings]
    spans = tracer.Tracer()
    spans.install()
    try:
        assert all(getattr(m, a).__wrapped__ is f for (m, a), f in zip(bindings, before))
        work = workloads.Protocols(0, "")
        work.pool = [c for c in work.pool if not c.ideal][:2]
        loop = worker.closed_loop(work, 0.0, 1, spans)
    finally:
        spans.uninstall()
    assert [getattr(m, a) for m, a in bindings] == before
    assert "from_params" in vars(repeater.NodeRouting)
    assert loop.failures == []
    m = spans.layer_metrics(loop.executions, loop.busy_s * 1e9)
    assert m["repeater.bell_measurement.calls"] == 5.0
    assert m["repeater.NodeRouting.from_params.calls"] > 0
    assert m["core.scatter_coefficients.calls"] > 0
    assert 0.0 < m["repeater.NodeRouting.from_params.distinct_frac"] < 1.0
    shares = sum(m[f"{layer}.share"] for layer in tracer.LAYERS)
    assert 0.5 < shares <= 1.0


def test_self_time_subtracts_children():
    spans = tracer.Tracer()
    outer = spans._wrap("cli.main", lambda: inner())
    inner = spans._wrap("cli.run", lambda: sum(range(20000)))
    spans.on = True
    spans.begin_op()
    outer()
    spans.end_op()
    spans.on = False
    a = spans.arrays()
    duration = a["end"] - a["start"]
    self_ns = tracer.total_self_ns(a)
    names = tracer.SPAN_NAMES
    assert list(a["parent"]) == [-1, 0]
    assert self_ns[names.index("cli.main")] == duration[0] - duration[1]
    assert self_ns[names.index("cli.run")] == duration[1]


def _run(trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "protocols",
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = {m["name"]: m["unit"] for m in json.load(f)[section]}
    result = _run(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
