"""Smoke test of the library surface the benchmark harness depends on.

The harness in ``bench/`` drives ``ditsim`` through its own workloads
(``pointer.row``, ``NodeRouting.from_params`` as a classmethod,
``ProbeDetuning.delta_omega``, the CLI entry point, ...).  Its full self-test
takes tens of seconds; this runs the first few inputs of every workload so
that an API change that breaks the harness fails the fast suite too.
"""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["cli_files", "protocols", "grids"])
def test_workload_first_inputs_run_and_check(name, tmp_path):
    work = workloads.make(name, 0, str(tmp_path))
    for i in range(3):
        work.prepare(i)
        work.check(i, work.run_op(i))
