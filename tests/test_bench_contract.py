"""Smoke test of the library surface the benchmark harness depends on.

The harness in ``bench/`` drives ``ditsim`` through its own workloads
(``pointer.row``, ``NodeRouting.from_params`` as a classmethod,
``ProbeDetuning.delta_omega``, the CLI entry point, ...).  Its full self-test
takes tens of seconds; this runs the first few inputs of every workload (one
of each sweep variant for ``grids``) so that an API change that breaks the
harness fails the fast suite too.
"""

import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import workloads  # noqa: E402


def _grid_variant_inputs(work) -> list[int]:
    """One input of each ``GRID_VARIANTS`` entry: ranks 0-7, the smallest ops.

    The pool draws its input order first, and rank r holds variant r % 8.
    """
    order = workloads.balanced_order(np.random.default_rng([0, 3]), len(work.pool))
    picks = []
    for rank, variant in enumerate(workloads.GRID_VARIANTS):
        i = order.index(rank)
        case = work.pool[i]
        assert case.axis == {"gamma_crossing": "gamma", "tau_on_line": "tau"}.get(variant, variant)
        if variant == "gamma_crossing":
            assert case.values[0] < 0.0
        if variant == "tau_on_line":
            assert case.values[0] == 0.0 and case.probe == case.base.delta
        picks.append(i)
    return picks


@pytest.mark.parametrize("name", ["cli_files", "protocols", "grids"])
def test_workload_first_inputs_run_and_check(name, tmp_path):
    work = workloads.make(name, 0, str(tmp_path))
    inputs = _grid_variant_inputs(work) if name == "grids" else range(3)
    for i in inputs:
        work.prepare(i)
        work.check(i, work.run_op(i))
