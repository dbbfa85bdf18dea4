"""The error contract of every public entry point.

Bad numbers (nan, infinities, negatives, extreme magnitudes, subnormals,
``None``, strings) raise only ``ValueError`` or a ``NumericsError``
subclass, also with warnings as errors.  A node that is neither
``SystemParams`` nor ``NodeRouting`` raises ``TypeError`` on purpose.
"""

import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ditsim
from ditsim import (
    THZ,
    DetuningGrid,
    NodeRouting,
    NumericsError,
    SingularDenominator,
    SpectrumSeries,
    SystemParams,
    TwoDipoleState,
    diagnostics,
    fidelity_success_tradeoff,
    locate_transparency_peak,
    parameter_sweep,
    scattering_arrays,
    transmission_spectrum,
)

NODE = SystemParams(1.0 * THZ, 0.33 * THZ, 0.001 * THZ, 0.1 * THZ)


# ------------------------------------------------------------- regressions --


@pytest.mark.parametrize("eta", ["x", None, [0.5]])
def test_diagnostics_names_an_eta_that_is_not_a_number(eta):
    with pytest.raises(ValueError, match="^eta must be a real number"):
        diagnostics(NODE, eta=eta)


@pytest.mark.parametrize("span", ["x", None])
def test_default_grid_names_a_span_that_is_not_a_number(span):
    with pytest.raises(ValueError, match="^span must be a real number"):
        DetuningGrid.default(NODE, span=span)


@pytest.mark.parametrize("delta_omega", [1.0, np.float64(-2e11), np.array(0.5e12), [[0.0, 1e11]]])
def test_scattering_arrays_keep_the_input_shape(delta_omega):
    # the values of the 1-D evaluation, in the input's shape
    shape = np.shape(delta_omega)
    flat = scattering_arrays(NODE, np.ravel(delta_omega))
    for got, want in zip(scattering_arrays(NODE, delta_omega), flat):
        assert isinstance(got, np.ndarray) and got.shape == shape
        assert np.array_equal(got.ravel(), want)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_scattering_arrays_name_nonfinite_detunings(value):
    with pytest.raises(ValueError, match=r"^delta_omega must be finite at grid indices \[1, 3\]$"):
        scattering_arrays(NODE, [0.0, value, 1e11, value])


def test_nonfinite_grid_of_the_cli_stays_a_numerics_error():
    # the CLI evaluates its grid through the unchecked kernel: exit code 3
    with pytest.raises(SingularDenominator, match="collapsed at grid indices"):
        ditsim.core._scatter_arrays(NODE, np.array([math.nan]))


@pytest.mark.parametrize("delta_omega", [["1"], "1", [None], None, [1j], np.array([1 + 0j])])
def test_scattering_arrays_refuse_values_that_are_not_real_numbers(delta_omega):
    with pytest.raises(ValueError, match="^delta_omega must hold real numbers"):
        scattering_arrays(NODE, delta_omega)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("index", [1, 2, 3])
def test_peak_names_a_nonfinite_detuning_it_reads(index, value):
    # the peak sample (2) and the samples that bracket each half crossing
    grid = DetuningGrid(-2.0, 2.0, 5)
    x = grid.points()
    x[index] = value
    curve = np.array([0.0, 0.2, 1.0, 0.2, 0.0])
    series = SpectrumSeries(grid=grid, detuning=x, through=curve, drop=1.0 - curve)
    with pytest.raises(ValueError, match=rf"^spectrum detuning must be finite, got {value} at index {index}$"):
        locate_transparency_peak(series)


def test_peak_leaves_detunings_it_does_not_read_unchecked():
    # no pass over the grid: the edge samples here are never read
    grid = DetuningGrid(-2.0, 2.0, 5)
    x = grid.points()
    x[[0, 4]] = math.nan
    curve = np.array([0.0, 0.2, 1.0, 0.2, 0.0])
    report = locate_transparency_peak(SpectrumSeries(grid=grid, detuning=x, through=curve, drop=1.0 - curve))
    assert report == ditsim.PeakReport(peak_detuning=0.0, peak_value=1.0, fwhm=1.25)


@pytest.mark.parametrize("values", [None, 1.0, np.array(1e11)])
def test_sweep_names_values_that_are_not_a_sequence(values):
    with pytest.raises(ValueError, match="^g sweep values must be a sequence of real numbers"):
        parameter_sweep(NODE, "g", values, 0.0)


@pytest.mark.parametrize("grid", [None, 0.5])
def test_tradeoff_names_a_grid_that_is_not_a_sequence(grid):
    with pytest.raises(ValueError, match="^mean_photons grid must be a sequence of real numbers"):
        fidelity_success_tradeoff(NODE, NODE, 0.0, grid)


# ------------------------------------------------- every public callable --

BAD = [math.nan, math.inf, -math.inf, -1.0, -1e300, 1e300, 1e-300, 5e-324, -5e-324, 0.0, 1.0,
       None, "1", "x", "nan"]
bad_numbers = st.sampled_from(BAD)
numbers = st.one_of(bad_numbers, st.floats(-1e13, 1e13))
nodes = st.sampled_from([
    NODE,
    SystemParams(1.0 * THZ, 0.0, 0.0),
    SystemParams(1.0 * THZ, 0.33 * THZ, 0.0, 0.1 * THZ),
    SystemParams(1.0, 3e-155, 2e-309, 0.0),
    SystemParams(1e-10, 1e-170, 1e-323, 0.0),
])
NOT_A_NODE = [None, "node", 1.0]
two_node_args = st.one_of(nodes, st.just(NodeRouting.ideal()), st.sampled_from(NOT_A_NODE))
sequences = st.one_of(bad_numbers, st.lists(numbers, max_size=4), st.lists(numbers, max_size=4).map(np.array))


@st.composite
def series(draw):
    # a spectrum whose detunings and power samples hold bad numbers
    out = transmission_spectrum(NODE, DetuningGrid(-3e12, 3e12, 9))
    for array in (out.detuning, out.through, out.drop):
        for i in draw(st.lists(st.integers(0, 8), max_size=3)):
            array[i] = draw(st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 1e300, -1e300, 5e-324]))
    return out


# argument strategies by parameter name; any other parameter is a number
ARGUMENTS = {
    "params": nodes,
    "base": nodes,
    "node_a": two_node_args,
    "node_b": two_node_args,
    "state": st.sampled_from(ditsim.BELL_LABELS).map(TwoDipoleState.bell),
    "grid": st.just(DetuningGrid(-3e12, 3e12, 11)),
    "series": series(),
    "axis": st.sampled_from([*ditsim.SWEEP_AXES, "omega0", "x", None]),
    "drive": st.sampled_from(["a", "b", "c", None]),
    "rng": st.sampled_from([None, 0]).map(lambda s: s if s is None else np.random.default_rng(s)),
    "values": sequences,
    "mean_photons_grid": sequences,
    "delta_omega": st.one_of(numbers, sequences),
    "amplitudes": st.one_of(bad_numbers, st.tuples(numbers, numbers, numbers, numbers)),
    "count": st.one_of(bad_numbers, st.integers(-2, 5)),
}
CALLABLES = sorted(
    name for name in ditsim.__all__
    if callable(obj := getattr(ditsim, name))
    and not (isinstance(obj, type) and issubclass(obj, BaseException))
)


@pytest.mark.parametrize("name", CALLABLES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_public_callables_raise_only_contract_errors(name, data):
    function = getattr(ditsim, name)
    args = {
        p: data.draw(ARGUMENTS.get(p, numbers), label=p)
        for p in inspect.signature(function).parameters
    }
    not_a_node = any(args.get(p) in NOT_A_NODE for p in ("node_a", "node_b"))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning is no contract error
            function(**args)
    except (ValueError, NumericsError):
        pass
    except TypeError:
        if not not_a_node:
            raise
