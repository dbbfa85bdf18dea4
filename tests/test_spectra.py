import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ditsim import (
    THZ,
    DetuningGrid,
    FluxBudget,
    NoPeak,
    SweepRow,
    SystemParams,
    locate_transparency_peak,
    parameter_sweep,
    transmission_spectrum,
)

# frozen against the pre-build 2x2-solve script (default 2001-point grid)
PEAK_VALUE = 0.9908821994047542
FWHM_THZ = 0.19084562008582914
BARE_T_POWER = 0.04761904761904767**2

rate_thz = st.floats(min_value=1e-3, max_value=10.0, allow_nan=False)


# --------------------------------------------------------------- the grid --


def test_grid_points_and_step():
    grid = DetuningGrid(-1.0 * THZ, 1.0 * THZ, 5)
    pts = grid.points()
    assert pts[0] == -1.0 * THZ and pts[-1] == 1.0 * THZ
    assert len(pts) == 5
    assert grid.step == pytest.approx(0.5 * THZ, rel=1e-15)


def test_single_point_grid():
    grid = DetuningGrid(0.3 * THZ, 0.3 * THZ, 1)
    assert grid.step == 0.0
    assert grid.points().tolist() == [0.3 * THZ]


@pytest.mark.parametrize(
    "start, stop, count",
    [
        (0.0, 1.0, 0),
        (1.0, 0.0, 5),
        (1.0, 1.0, 5),
        (0.0, 1.0, 1),  # 1-point grid must have start == stop
        (float("nan"), 1.0, 5),
        (None, 1.0, 3),
        ("1", 1.0, 3),
        (0.0, None, 3),
    ],
)
def test_grid_rejects_bad_shapes(start, stop, count):
    with pytest.raises(ValueError):
        DetuningGrid(start, stop, count)


def test_grid_count_accepts_any_integer():
    for count in (np.int64(5), np.int32(5), np.uint8(5)):
        grid = DetuningGrid(0.0, 1.0, count)
        assert type(grid.count) is int and grid.count == 5
        assert grid.points().tobytes() == DetuningGrid(0.0, 1.0, 5).points().tobytes()
    for bad in (np.int64(0), -1, 5.0, np.float64(5.0), "5", None):
        with pytest.raises(ValueError, match=r"^count must be a positive integer, got ") as info:
            DetuningGrid(0.0, 1.0, bad)
        assert str(info.value).endswith(repr(bad))


def test_default_grid_spans_three_linewidths(baseline):
    grid = DetuningGrid.default(baseline)
    assert grid.start == -3.0 * baseline.gamma
    assert grid.stop == 3.0 * baseline.gamma
    assert grid.count == 2001


# ---------------------------------------------------------------- spectra --


def test_spectrum_center_value(baseline):
    series = transmission_spectrum(baseline, DetuningGrid.default(baseline))
    center = series.grid.count // 2
    assert series.grid.points()[center] == 0.0
    assert series.through[center] == pytest.approx(PEAK_VALUE, abs=1e-12)
    assert np.all(series.through >= 0.0)
    assert np.all(series.through + series.drop <= 1.0 + 1e-12)


def test_spectrum_on_single_point(baseline):
    series = transmission_spectrum(baseline, DetuningGrid(0.0, 0.0, 1))
    assert series.through.shape == (1,)
    assert series.through[0] == pytest.approx(PEAK_VALUE, abs=1e-12)


# repeated spectra in a fresh interpreter: minor page faults per call, and
# whether the detunings are the grid's points bit for bit
_FAULTS_PER_CALL = """
import json, resource
from ditsim import THZ, DetuningGrid, SystemParams, transmission_spectrum
node = SystemParams(1.0 * THZ, 0.33 * THZ, 0.001 * THZ, 0.1 * THZ)
# warm-up: the first output buffer is mmapped, and freeing it lifts glibc's
# thresholds; the second comes from the heap, which then keeps its pages
for _ in range(2):
    transmission_spectrum(node, DetuningGrid(-3e12, 3e12, 200001))
report = {"page": resource.getpagesize()}
for count in (200001, 50001):
    grid = DetuningGrid(-3e12, 3e12, count)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(10):
        transmission_spectrum(node, grid)
    faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10
    same = transmission_spectrum(node, grid).detuning.tobytes() == grid.points().tobytes()
    report[count] = [faults, same]
print(json.dumps(report))
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="glibc's malloc thresholds decide the faults",
)
def test_repeated_spectra_reuse_their_pages():
    # one output buffer per spectrum: once freed it lifts glibc's trim
    # threshold above a call's working set, so later calls fault in next to
    # no fresh pages
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _FAULTS_PER_CALL], env=env, capture_output=True,
                         text=True, check=True)
    report = json.loads(out.stdout)
    for count in (200001, 50001):
        faults, same = report[str(count)]
        output_pages = 3 * 8 * count / report["page"]
        assert faults < 0.05 * output_pages, (count, faults, output_pages)
        assert same


# ------------------------------------------------------------------- peak --


def test_peak_report_reference_numbers(baseline):
    peak = locate_transparency_peak(
        transmission_spectrum(baseline, DetuningGrid.default(baseline))
    )
    assert peak.peak_detuning == pytest.approx(0.0, abs=1e-6 * THZ)
    assert peak.peak_value == pytest.approx(PEAK_VALUE, abs=1e-12)
    assert peak.fwhm / THZ == pytest.approx(FWHM_THZ, rel=1e-9)


@pytest.mark.parametrize("delta_thz, expected_thz", [(-0.33, -0.33), (0.33, 0.33)])
def test_peak_tracks_dipole_line(make_params, delta_thz, expected_thz):
    params = make_params(delta=delta_thz)
    series = transmission_spectrum(params, DetuningGrid.default(params))
    peak = locate_transparency_peak(series)
    assert abs(peak.peak_detuning - expected_thz * THZ) <= 2.0 * series.grid.step


def test_peak_pulled_at_large_detuning(make_params):
    # beyond the strong-coupling window the peak lags the dipole slightly
    params = make_params(delta=0.5)
    series = transmission_spectrum(params, DetuningGrid.default(params))
    peak = locate_transparency_peak(series)
    assert abs(peak.peak_detuning - 0.501 * THZ) <= 0.0035 * THZ


def test_fwhm_stable_against_grid_span(baseline):
    """Flanking-minima baseline keeps the width from chasing the grid edges."""
    widths = []
    for span in (3.0, 5.0):
        series = transmission_spectrum(
            baseline, DetuningGrid.default(baseline, span=span)
        )
        widths.append(locate_transparency_peak(series).fwhm)
    assert widths[0] == pytest.approx(widths[1], rel=0.01)


def test_peak_refinement_between_samples(baseline):
    # even count puts no sample exactly at zero; refinement recovers it
    grid = DetuningGrid(-3.0 * baseline.gamma, 3.0 * baseline.gamma, 2000)
    peak = locate_transparency_peak(transmission_spectrum(baseline, grid))
    assert abs(peak.peak_detuning) <= 0.5 * grid.step
    assert peak.peak_value == pytest.approx(PEAK_VALUE, rel=1e-4)


def test_no_peak_for_bare_filter(make_params):
    """Without the dipole the through channel only dips; maximum sits on
    the grid edge."""
    params = make_params(g=0.0)
    series = transmission_spectrum(params, DetuningGrid.default(params))
    with pytest.raises(NoPeak):
        locate_transparency_peak(series)


def test_no_peak_on_flat_series(baseline):
    from ditsim.spectra import SpectrumSeries

    grid = DetuningGrid(-1.0 * THZ, 1.0 * THZ, 9)
    flat = SpectrumSeries(
        grid=grid, detuning=grid.points(),
        through=np.full(9, 0.5), drop=np.full(9, 0.5),
    )
    with pytest.raises(NoPeak):
        locate_transparency_peak(flat)


def test_peak_rejects_mismatched_lengths():
    from ditsim.spectra import SpectrumSeries

    grid = DetuningGrid(-1.0 * THZ, 1.0 * THZ, 5)
    curve = np.array([0.2, 0.1, 0.5, 0.9, 0.5, 0.1, 0.2])
    for detuning in (grid.points(), np.linspace(-1.0, 1.0, 9) * THZ):
        series = SpectrumSeries(grid=grid, detuning=detuning, through=curve, drop=1.0 - curve)
        with pytest.raises(ValueError, match=f"{len(detuning)} detunings but 7 through samples"):
            locate_transparency_peak(series)


def test_no_peak_with_too_few_samples(baseline):
    series = transmission_spectrum(baseline, DetuningGrid(-1.0 * THZ, 1.0 * THZ, 2))
    with pytest.raises(NoPeak):
        locate_transparency_peak(series)


@given(g=st.floats(min_value=0.3, max_value=1.0), gamma=st.floats(min_value=0.5, max_value=2.0))
@settings(max_examples=25, deadline=None)
def test_peak_height_always_between_baseline_and_one(g, gamma):
    # strong-Purcell regime: weak coupling pushes the through maximum out to
    # the far-detuned wings and there is legitimately no interior peak
    params = SystemParams(
        gamma=gamma * THZ, g=g * THZ, tau=0.001 * THZ, kappa=0.1 * THZ
    )
    series = transmission_spectrum(params, DetuningGrid.default(params, count=801))
    peak = locate_transparency_peak(series)
    assert 0.0 < peak.peak_value <= 1.0 + 1e-12
    assert peak.fwhm > 0.0


# ------------------------------------------------------------------ sweep --


def test_sweep_rejects_unknown_axis(baseline):
    with pytest.raises(ValueError, match="axis"):
        parameter_sweep(baseline, "flux_capacitance", [1.0], 0.0)


def test_sweep_over_coupling(baseline):
    values = np.array([0.0, 0.33]) * THZ
    table = parameter_sweep(baseline, "g", values, 0.0)
    assert table.axis == "g"
    assert [row.value for row in table.rows] == values.tolist()
    bare, coupled = table.rows
    assert bare.error is None
    assert bare.budget.through == pytest.approx(BARE_T_POWER, rel=1e-12)
    assert coupled.budget.through == pytest.approx(PEAK_VALUE, abs=1e-12)


def test_sweep_records_errors_without_aborting(baseline):
    # gamma <= 0 rows fail construction; the rest still evaluate
    values = np.array([-1.0, 0.0, 1.0]) * THZ
    table = parameter_sweep(baseline, "gamma", values, 0.0)
    assert table.rows[0].budget is None and "gamma" in table.rows[0].error
    assert table.rows[1].budget is None and "gamma" in table.rows[1].error
    assert table.rows[2].error is None
    assert table.rows[2].budget.total == pytest.approx(1.0, abs=1e-12)


def test_sweep_delta_axis_allows_negative_values(baseline):
    table = parameter_sweep(baseline, "delta", np.array([-0.33, 0.33]) * THZ, 0.0)
    assert all(row.error is None for row in table.rows)
    # detuned dipole spoils on-line transparency symmetrically
    assert table.rows[0].budget.through == pytest.approx(
        table.rows[1].budget.through, rel=1e-9
    )


def test_sweep_budgets_conserve_flux(baseline):
    values = np.linspace(0.01, 1.0, 17) * THZ
    table = parameter_sweep(baseline, "kappa", values, 0.2 * THZ)
    for row in table.rows:
        assert abs(row.budget.total - 1.0) < 1e-9


@pytest.mark.parametrize("bad", [None, 1.0 + 0.5j, np.complex128(1.0), [1.0], "1e11", b"1",
                                 pytest.param(10**400, id="int_beyond_float")])
def test_sweep_values_must_be_real_numbers(baseline, bad):
    # every value is checked before any row is evaluated, so a bad last value
    # refuses the whole sweep, naming the value
    with pytest.raises(ValueError, match=r"g sweep value must be a real number, got ") as info:
        parameter_sweep(baseline, "g", [0.1 * THZ, 0.2 * THZ, bad], 0.0)
    assert repr(bad) in str(info.value)


def test_sweep_values_accept_ints_and_numpy_numbers(baseline):
    values = [0, np.float64(0.33 * THZ), np.int64(10**11), np.float32(1e11)]
    rows = parameter_sweep(baseline, "g", values, 0.0).rows
    assert [row.value for row in rows] == [0.0, 0.33 * THZ, 1e11, float(np.float32(1e11))]
    assert all(type(row.value) is float and row.error is None for row in rows)
    as_array = parameter_sweep(baseline, "g", np.array([0.0, 0.33]) * THZ, 0.0).rows
    assert [row.budget for row in as_array] == [row.budget for row in rows[:2]]


# -------------------------------------------------------------- row types --

# the text the frozen dataclasses these types replaced gave
BUDGET_REPR = "FluxBudget(through=0.25, drop=0.5, cavity_loss=0.125, dipole_loss=0.125)"


def test_sweep_row_types_keep_their_contract():
    budget = FluxBudget(through=0.25, drop=0.5, cavity_loss=0.125, dipole_loss=0.125)
    row = SweepRow(value=1.5, budget=budget)
    assert row.error is None and budget.total == 1.0
    assert repr(budget) == BUDGET_REPR
    assert repr(row) == f"SweepRow(value=1.5, budget={BUDGET_REPR}, error=None)"
    assert repr(SweepRow(value=-1.0, budget=None, error="bad 'x'")) == (
        "SweepRow(value=-1.0, budget=None, error=\"bad 'x'\")")
    for obj, name in ((budget, "drop"), (row, "budget"), (row, "error")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    same = FluxBudget(0.25, 0.5, 0.125, 0.125)
    assert same == budget and hash(same) == hash(budget)
    assert SweepRow(1.5, same) == row and hash(SweepRow(1.5, same)) == hash(row)
    assert budget != FluxBudget(0.25, 0.5, 0.125, 0.0) and row != SweepRow(1.5, None)
    # gained as tuples: indexing, unpacking and == with plain tuples
    value, got, error = row
    assert (value, got, error) == (1.5, budget, None) and row[1] is budget
    assert budget == (0.25, 0.5, 0.125, 0.125)
    assert budget._replace(dipole_loss=0.0)._asdict() == {
        "through": 0.25, "drop": 0.5, "cavity_loss": 0.125, "dipole_loss": 0.0}
    assert SweepRow._fields == ("value", "budget", "error")


def test_sweep_builds_rows_of_the_public_types(baseline):
    rows = parameter_sweep(baseline, "gamma", [1.0 * THZ, -1.0], 0.0).rows
    assert [type(row) for row in rows] == [SweepRow, SweepRow]
    assert type(rows[0].budget) is FluxBudget and rows[0].error is None
    assert rows[1] == SweepRow(-1.0, None, "invalid SystemParams: gamma must be > 0, got -1.0")
    assert repr(rows[1]) == (
        "SweepRow(value=-1.0, budget=None, "
        "error='invalid SystemParams: gamma must be > 0, got -1.0')")
