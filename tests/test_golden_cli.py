"""Byte-for-byte comparison of CLI outputs against committed golden files.

Each case runs one ``ditsim`` command on a small config from
``tests/golden/<case>.conf``, in CSV and in JSON, with ``--plot --seed 7``,
and compares every file written to ``tests/golden/<case>/<format>/``.
Criterion 10 only checks that two runs in one session agree; this test also
catches drift between versions of the code.

``test_bytes_under_other_cpu_kernels`` runs some cases again in child
processes that pick numpy's and OpenBLAS's kernels as on other CPUs, and
compares the bytes of a few spectra with this process's.

Regenerate the golden files (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

from ditsim import DetuningGrid, SystemParams, transmission_spectrum
from ditsim.cli import main
from ditsim.core import _powers_in_range

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


def _argv(case: str, fmt: str, out: str) -> list[str]:
    return [
        CASES[case],
        "--config", os.path.join(GOLDEN, f"{case}.conf"),
        "--out", out,
        "--format", fmt,
        "--plot",
        "--seed", "7",
    ]


def _produce(case: str, fmt: str, out: str) -> None:
    code = main(_argv(case, fmt, out))
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


# Environment settings that give numpy's or OpenBLAS's kernels of another CPU:
# numpy as on an AVX2 CPU, numpy's baseline loops, and OpenBLAS's Haswell
# kernels. Under each, the cases below keep every golden byte, and so does
# every plot; the other cases' tables move in their last digits, through
# numpy's exp, complex multiply and abs, and BLAS's matmul
CPU_SETTINGS = {
    "avx2": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
    "baseline": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR X86_V3"},
    "openblas-haswell": {"OPENBLAS_CORETYPE": "Haswell"},
}
PORTABLE_CASES = ("sweep", "sweep_errors", "diagnostics", "entangle")
# (gamma, g, tau, kappa, delta) and (start, stop, count) of spectra that the
# real-part kernel forms, as Python floats (10 ** array goes through numpy's
# SIMD pow, whose bits differ between the settings): a grid of several
# blocks, a bare filter and a detuned dipole
SPECTRA = [
    ((1e12, 3.3e11, 1e9, 1e11, 2e10), (-3e12, 3e12, 40001)),
    ((1e12, 0.0, 1e9, 1e10, 0.0), (-3e12, 3e12, 2001)),
    ((2.5e12, 7e11, 3e10, 2e10, 9e11), (-4e12, 5e12, 3001)),
]


def _spectrum_digest(spectra) -> str:
    """sha256 of the through and drop rows of each spectrum."""
    digest = hashlib.sha256()
    for node, grid in spectra:
        series = transmission_spectrum(SystemParams(*node), DetuningGrid(*grid))
        digest.update(series.through.tobytes() + series.drop.tobytes())
    return digest.hexdigest()


_REFUSED = 77  # the child's exit code where numpy will not import under the setting

# The child: the CLI runs given as JSON argv lists, then the float formatter's
# kernel, forced on seeded floats, against CPython in each style (np.log10 in
# _numtext._decimal has SIMD loops); its last line of output is the digest of
# SPECTRA, from this module, in the tests directory it is given
_CHILD = """
import json, sys
try:
    import numpy as np
except Exception as exc:
    print(exc, file=sys.stderr)
    sys.exit(%d)
from unittest import mock
from ditsim import _numtext
from ditsim.cli import main

for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
rng = np.random.default_rng(2006)
values = np.concatenate([
    rng.integers(0, 2**64, 20000, dtype=np.uint64).view(np.float64),
    [float(f"{x:.{p}g}") for x, p in zip(10.0 ** rng.uniform(-300, 300, 20000), rng.integers(1, 18, 20000))],
    rng.uniform(0.0, 1e4, 20000),
])
names = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
for style in (_numtext.G17, _numtext.JSON, _numtext.F2):
    with mock.patch.object(_numtext, "_KERNEL_CELLS", 1):
        got = _numtext.join_cells(values.reshape(-1, 1), style, ["\\n"]).split("\\n")
    if style == _numtext.JSON:
        want = [names.get(t, t) for t in map(repr, values.tolist())]
    else:
        want = [format(x, style) for x in values.tolist()]
    wrong = [(x, g, w) for x, g, w in zip(values.tolist(), got, want) if g != w]
    assert not wrong, (style, len(wrong), wrong[:3])
sys.path.insert(0, sys.argv[2])
from test_golden_cli import SPECTRA, _spectrum_digest
print(_spectrum_digest(SPECTRA))
""" % _REFUSED


@pytest.mark.parametrize("setting", sorted(CPU_SETTINGS))
def test_bytes_under_other_cpu_kernels(setting, tmp_path):
    # only the child's environment takes the setting
    runs = {(case, fmt): str(tmp_path / case / fmt) for case in CASES for fmt in FORMATS}
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, **CPU_SETTINGS[setting],
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argvs = [_argv(case, fmt, out) for (case, fmt), out in runs.items()]
    child = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(argvs), os.path.dirname(GOLDEN)], env=env,
                           capture_output=True, text=True)
    if child.returncode == _REFUSED:
        pytest.skip(f"numpy refuses {CPU_SETTINGS[setting]}: {child.stderr.strip()}")
    assert child.returncode == 0, child.stderr
    differ = []
    for (case, fmt), out in runs.items():
        golden_dir = os.path.join(GOLDEN, case, fmt)
        for name in os.listdir(golden_dir):
            if case in PORTABLE_CASES or name.endswith(".svg"):
                with open(os.path.join(golden_dir, name), "rb") as a, open(os.path.join(out, name), "rb") as b:
                    if a.read() != b.read():
                        differ.append(f"{case}/{fmt}/{name}")
    assert not differ, differ
    assert all(_powers_in_range(SystemParams(*node), max(map(abs, grid[:2]))) for node, grid in SPECTRA)
    assert child.stdout.splitlines()[-1] == _spectrum_digest(SPECTRA)


def regenerate() -> None:
    for case in sorted(CASES):
        for fmt in FORMATS:
            out = os.path.join(GOLDEN, case, fmt)
            shutil.rmtree(out, ignore_errors=True)
            os.makedirs(out)
            _produce(case, fmt, out)


if __name__ == "__main__":
    regenerate()
