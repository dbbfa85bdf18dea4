"""The error contract of every public entry point.

Bad numbers (nan, infinities, negatives, extreme magnitudes, subnormals,
an int beyond the float range, ``None``, strings) raise only ``ValueError``
or a ``NumericsError`` subclass, also with warnings as errors.  numpy
scalars and fractions, which every entry point reads as floats, are drawn
with them.  A node that is neither ``SystemParams`` nor ``NodeRouting``
raises ``TypeError`` on purpose.
"""

import inspect
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ditsim
from ditsim import (
    THZ,
    BellMeasurementRecord,
    DetuningGrid,
    NodeRouting,
    NumericsError,
    ProtocolResult,
    SpectrumSeries,
    SystemParams,
    TwoDipoleState,
    bell_measurement,
    diagnostics,
    fidelity_success_tradeoff,
    locate_transparency_peak,
    parameter_sweep,
    scatter_coefficients,
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


def test_grid_names_a_nonfinite_endpoint_or_span():
    with pytest.raises(ValueError, match=r"^grid endpoint start must be finite, got inf$"):
        DetuningGrid(math.inf, 1.0, 3)
    with pytest.raises(ValueError, match=r"^grid endpoint stop must be finite, got nan$"):
        DetuningGrid(0.0, math.nan, 3)
    # the caller gave no endpoint, so the message names the span
    with pytest.raises(ValueError, match=r"^span must be finite, got inf$"):
        DetuningGrid.default(NODE, span=math.inf)
    with pytest.raises(ValueError, match=r"^span \* gamma must be finite, got inf$"):
        DetuningGrid.default(NODE, span=1e297)
    # nor a default grid without width: a span at or below 0, one point, or a
    # width that underflows
    for span in (-1.0, 0.0, -0.0):
        with pytest.raises(ValueError, match=rf"^span must be positive, got {span!r}$"):
            DetuningGrid.default(NODE, span=span)
    for count in (1, np.int64(1)):
        with pytest.raises(ValueError, match=r"^count must be at least 2 for a grid of \+-span\*gamma, got 1$"):
            DetuningGrid.default(NODE, count=count)
    with pytest.raises(ValueError, match=r"^span \* gamma underflows to 0, got span 0.1 and gamma 5e-324$"):
        DetuningGrid.default(SystemParams(5e-324, 0.0, 0.0, 0.0), span=0.1)


@pytest.mark.parametrize("rng", [42, "x", np.random.RandomState(0)], ids=["int", "str", "RandomState"])
def test_bell_measurement_names_an_rng_that_is_not_a_generator(rng):
    with pytest.raises(ValueError, match=r"^rng must be None or a numpy.random.Generator, got "):
        bell_measurement(NODE, NODE, TwoDipoleState.bell("phi_plus"), 0.0, 1.0, rng=rng)


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


def _spectrum_with(samples):
    # a 9-point dip with its peak at index 4, as series() below draws it,
    # with the through samples given by index
    out = transmission_spectrum(NODE, DetuningGrid(-3e12, 3e12, 9))
    for i, value in samples.items():
        out.through[i] = value
    return out


def _through_repro(indices, value):
    return _spectrum_with(dict.fromkeys(indices, value))


# a nan report, a leaked numpy warning and a misleading NoPeak before the check
THROUGH_REPROS = [([6], math.nan), ([7, 8], math.inf), ([2], -math.inf)]


@pytest.mark.parametrize("indices, value", THROUGH_REPROS)
def test_peak_names_a_nonfinite_through_sample(indices, value):
    with pytest.raises(ValueError, match=rf"^spectrum through sample must be finite, got {value} at index {indices[0]}$"):
        locate_transparency_peak(_through_repro(indices, value))


# finite samples near the float max: leaked numpy overflow warnings (from the
# peak height and from a half crossing's span), a baseline at -inf that made a
# misleading NoPeak, and a parabola whose curvature overflowed, before the checks
HUGE_REPROS = [({4: 1.7e308, 3: -1.7e308}, "-1.7e+308 at index 3, 1.7e+308 at index 4, "),
               ({3: -1.7e308, 5: -1.7e308}, "-1.7e+308 at index 3, "),
               ({2: -1.7e308, 3: 0.5e308, 4: 0.8e308, 5: 0.7e308}, ": -1.7e+308 at index 2, 5e+307 at index 3"),
               ({3: 0.9e308, 4: 1e308, 5: 0.9e308}, "9e+307 at index 3, 1e+308 at index 4, 9e+307 at index 5")]


@pytest.mark.parametrize("samples, named", HUGE_REPROS,
                         ids=["peak_over_a_low", "both_lows", "crossing", "curvature"])
def test_peak_names_through_samples_that_overflow(samples, named):
    series = _spectrum_with(samples)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^spectrum through samples overflow the float range "
                                             "of the peak report: ") as info:
            locate_transparency_peak(series)
    assert named in str(info.value)


@pytest.mark.parametrize("make", [lambda: DetuningGrid(-1e308, 1e308, 5),
                                  lambda: DetuningGrid.default(NODE, span=1e296)],
                         ids=["endpoints", "default"])
def test_grid_refuses_a_width_that_overflows(make):
    with pytest.raises(ValueError, match=r"^grid width stop - start overflows the float range, "
                                         r"got \[-1e\+308, 1e\+308\]$"):
        make()


# i * step rounds past the float maximum at the last index, where stop
# replaces it: every point is finite, and no overflow warning may leave
NEAR_LIMIT = DetuningGrid(-0.0, 1.7976931348623157e308, 31)


def test_grid_points_at_the_float_limit_raise_no_warning():
    with np.errstate(over="ignore"):
        want = np.linspace(NEAR_LIMIT.start, NEAR_LIMIT.stop, NEAR_LIMIT.count)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        points = NEAR_LIMIT.points()
        series = transmission_spectrum(SystemParams(1.0 * THZ, 0.0, 0.001 * THZ, 0.1 * THZ), NEAR_LIMIT)
    assert points.tobytes() == series.detuning.tobytes() == want.tobytes()
    assert np.all(np.isfinite(points))


HUGE_TAU = SystemParams(1e12, 0.33e12, 1.7e308, 1e11)


def test_scattering_arrays_form_every_array_without_a_warning():
    # the quotients are in range (sigma is -0, as scatter_coefficients gives)
    # though numpy's complex division overflows on the way
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = scattering_arrays(HUGE_TAU, [1.7e308, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = scattering_arrays(HUGE_TAU, [1.7e308, 0.0])
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()
    assert complex(got.sigma_amp[0]) == scatter_coefficients(HUGE_TAU, 1.7e308).sigma_amp


@pytest.mark.parametrize("values", [None, 1.0, np.array(1e11)])
def test_sweep_names_values_that_are_not_a_sequence(values):
    with pytest.raises(ValueError, match="^g sweep values must be a sequence of real numbers"):
        parameter_sweep(NODE, "g", values, 0.0)


@pytest.mark.parametrize("grid", [None, 0.5])
def test_tradeoff_names_a_grid_that_is_not_a_sequence(grid):
    with pytest.raises(ValueError, match="^mean_photons grid must be a sequence of real numbers"):
        fidelity_success_tradeoff(NODE, NODE, 0.0, grid)


# ------------------------------------------------- every public callable --

BAD = [math.nan, math.inf, -math.inf, -1.0, -1e300, 1e300, -1.7e308, 1.7e308, 1e-300, 5e-324,
       -5e-324, 0.0, 1.0, None, "1", "x", "nan",
       np.int64(3), np.float32(0.5), Fraction(1, 2), 10**400]
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
            array[i] = draw(st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 1e300, -1e300,
                                             1.7e308, -1.7e308, 5e-324]))
    return out


# argument strategies by parameter name; any other parameter is a number
ARGUMENTS = {
    "params": nodes,
    "base": nodes,
    "node_a": two_node_args,
    "node_b": two_node_args,
    "state": st.sampled_from(ditsim.BELL_LABELS).map(TwoDipoleState.bell),
    "grid": st.sampled_from([DetuningGrid(-3e12, 3e12, 11), NEAR_LIMIT]),
    "series": series(),
    "axis": st.sampled_from([*ditsim.SWEEP_AXES, "omega0", "x", None]),
    "rng": st.one_of(st.sampled_from([None, 42, "x"]), st.builds(np.random.default_rng, st.just(0))),
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


def test_each_public_name_is_declared_once_beside_its_definition():
    modules = (ditsim.core, ditsim.spectra, ditsim.repeater)
    assert ditsim.__all__ == [*(name for module in modules for name in module.__all__), "__version__"]
    assert len(set(ditsim.__all__)) == len(ditsim.__all__)
    for module in modules:
        for name in module.__all__:
            obj = getattr(ditsim, name)
            assert vars(module)[name] is obj, name
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == module.__name__, name
    # nothing else public: the aliases Probe and Node stay out
    public = {name for name in dir(ditsim) if not name.startswith("_")
              and not inspect.ismodule(getattr(ditsim, name))}
    assert public == set(ditsim.__all__) - {"__version__"}


class Fixed:
    """Stands in for ``st.data()`` in an ``@example``: each draw returns the
    value given for its parameter.  The example runs only for the callables
    whose parameters are all given."""

    def __init__(self, **values):
        self.values = values

    def draw(self, strategy, label):
        return self.values[label]


@pytest.mark.parametrize("name", CALLABLES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
@example(data=Fixed(series=_through_repro(*THROUGH_REPROS[0])))
@example(data=Fixed(series=_through_repro(*THROUGH_REPROS[1])))
@example(data=Fixed(series=_through_repro(*THROUGH_REPROS[2])))
@example(data=Fixed(series=_spectrum_with(HUGE_REPROS[0][0])))
@example(data=Fixed(series=_spectrum_with(HUGE_REPROS[1][0])))
@example(data=Fixed(series=_spectrum_with(HUGE_REPROS[2][0])))
@example(data=Fixed(params=HUGE_TAU, delta_omega=[1.7e308, 0.0]))
@example(data=Fixed(start=-1e308, stop=1e308, count=5))
@example(data=Fixed(start=NEAR_LIMIT.start, stop=NEAR_LIMIT.stop, count=NEAR_LIMIT.count))
@example(data=Fixed(params=NODE, grid=NEAR_LIMIT))
def test_public_callables_raise_only_contract_errors(name, data):
    function = getattr(ditsim, name)
    parameters = inspect.signature(function).parameters
    if isinstance(data, Fixed) and set(parameters) - set(data.values):
        return
    args = {p: data.draw(ARGUMENTS.get(p, numbers), label=p) for p in parameters}
    not_a_node = any(args.get(p) in NOT_A_NODE for p in ("node_a", "node_b"))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning is no contract error
            result = function(**args)
            if isinstance(result, DetuningGrid):
                result.points()
            if not isinstance(function, type):  # a result built by hand holds what it was given
                if isinstance(result, BellMeasurementRecord):
                    result = result.result
                if isinstance(result, ProtocolResult):
                    result.post_state  # formed on first read: read it under the contract
    except (ValueError, NumericsError):
        pass
    except TypeError:
        if not not_a_node:
            raise
