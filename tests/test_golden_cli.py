"""Byte-for-byte comparison of CLI outputs against committed golden files.

Each case runs one ``ditsim`` command on a small config from
``tests/golden/<case>.conf``, in CSV and in JSON, with ``--plot --seed 7``,
and compares every file written to ``tests/golden/<case>/<format>/``.
Criterion 10 only checks that two runs in one session agree; this test also
catches drift between versions of the code.

Regenerate the golden files (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import os
import shutil

import pytest

from ditsim.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# case name -> CLI command; the config is tests/golden/<case>.conf
CASES = {
    "spectrum": "spectrum",
    "sweep": "sweep",
    "sweep_errors": "sweep",
    "entangle": "entangle",
    "parity": "parity",
    "bell": "bell",
    "bell_sampled": "bell",
    "tradeoff_two_node": "tradeoff",
    "diagnostics": "diagnostics",
}
FORMATS = ("csv", "json")


def _produce(case: str, fmt: str, out: str) -> None:
    argv = [
        CASES[case],
        "--config", os.path.join(GOLDEN, f"{case}.conf"),
        "--out", out,
        "--format", fmt,
        "--plot",
        "--seed", "7",
    ]
    code = main(argv)
    assert code == 0, f"{case} ({fmt}) exited with {code}"


def _first_difference(expected: bytes, got: bytes) -> str:
    exp_lines = expected.splitlines(keepends=True)
    got_lines = got.splitlines(keepends=True)
    for lineno, (a, b) in enumerate(zip(exp_lines, got_lines), start=1):
        if a != b:
            return f"line {lineno}: expected {a!r}, got {b!r}"
    lineno = min(len(exp_lines), len(got_lines)) + 1
    return (
        f"line {lineno}: expected {len(exp_lines)} lines, got {len(got_lines)}"
    )


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, fmt, tmp_path):
    _produce(case, fmt, str(tmp_path))
    golden_dir = os.path.join(GOLDEN, case, fmt)
    expected_names = sorted(os.listdir(golden_dir))
    assert sorted(os.listdir(tmp_path)) == expected_names
    for name in expected_names:
        with open(os.path.join(golden_dir, name), "rb") as f:
            expected = f.read()
        with open(tmp_path / name, "rb") as f:
            got = f.read()
        if got != expected:
            pytest.fail(
                f"{case}/{fmt}/{name} differs from golden at "
                + _first_difference(expected, got)
            )


def regenerate() -> None:
    for case in sorted(CASES):
        for fmt in FORMATS:
            out = os.path.join(GOLDEN, case, fmt)
            shutil.rmtree(out, ignore_errors=True)
            os.makedirs(out)
            _produce(case, fmt, out)


if __name__ == "__main__":
    regenerate()
