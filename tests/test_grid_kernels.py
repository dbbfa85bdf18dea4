"""Sweeps, spectra and peaks against the per-row and full-array code they replaced.

``parameter_sweep`` used to rebuild a ``SystemParams`` with
``dataclasses.replace`` and make a scalar ``flux_budget`` call for every row,
and ``transmission_spectrum`` took |t|^2 from the full ``scattering_arrays``
result, cavity and dipole amplitudes included.  Both are kept here as
references, together with the scalar and array formulas of that time, and the
current code must reproduce them bit for bit: every float by its bit pattern,
every error row by its message.  The array path has since gained the
denominator guard of the scalar path: where the reference's denominator is
non-finite or below the floor, the spectrum must now raise
``SingularDenominator`` naming exactly those grid indices.  Both guards now
also raise it, saying D is out of range, where complex division by a finite D
overflows its real scale (the old code returned a zero quotient there, or
the scalar path leaked ``OverflowError`` from ``abs``); the references carry
that change.  They also carry the dipole-loss guard: where ``abs(sigma) ** 2``
overflows, the flux budget forms the dipole loss as ``(tau*|sigma|)*|sigma|``
and keeps it where the fractions still sum to 1, and otherwise raises ``DegenerateDipole`` instead of leaking ``OverflowError`` and
aborting the sweep.  ``parameter_sweep`` now evaluates its rows on arrays with
CPython's complex arithmetic written out, so that arithmetic is also checked
against Python's own operators on edge values.  The peak finder
used to rebuild the whole detuning array with ``grid.points()``; it now reads
the detunings the spectrum was evaluated at, and must give the same bits.
"""

import cmath
import math
import os
import struct
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ditsim import (
    THZ,
    DegenerateDipole,
    FluxBudget,
    NumericsError,
    SingularDenominator,
    SystemParams,
    locate_transparency_peak,
    parameter_sweep,
    scatter_coefficients,
    scattering_arrays,
    transmission_spectrum,
)
from ditsim import core
from ditsim.core import _probe_value
from ditsim.spectra import (
    SWEEP_AXES,
    DetuningGrid,
    NoPeak,
    PeakReport,
    SpectrumSeries,
    SweepRow,
    SweepTable,
    _BLOCK,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import workloads  # noqa: E402

# ------------------------------------------------------------- references --


def reference_out_of_range(denom):
    """Whether the real scale of CPython's complex division by a finite,
    nonzero ``denom`` overflows."""
    re, im = denom.real, denom.imag
    if not (math.isfinite(re) and math.isfinite(im)) or denom == 0:
        return False
    scale = re + im * (im / re) if abs(re) >= abs(im) else re * (re / im) + im
    return not math.isfinite(scale)


def reference_flux_budget(params, dw):
    """The scalar kernel and ``flux_budget`` as they were, on a SystemParams."""
    x = complex(-1j * (dw - params.delta) + 0.5 * params.tau)
    if params.g > 0.0 and x == 0.0:
        raise DegenerateDipole(
            "dipole term diverges: g > 0 with tau = 0 and probe exactly on the "
            f"dipole line (delta_omega = delta = {dw!r})"
        )
    coupling = params.g * params.g / x if params.g > 0.0 else 0.0j
    denom = -1j * dw + params.gamma + 0.5 * params.kappa + coupling
    if reference_out_of_range(denom):
        raise SingularDenominator(f"scattering denominator out of range: D = {denom!r}")
    if not np.isfinite(denom) or abs(denom) < 1e-280:
        raise SingularDenominator(f"scattering denominator collapsed: D = {denom!r}")
    t_drop = -params.gamma / denom
    b_amp = -math.sqrt(params.gamma) / denom
    sigma_amp = -1j * params.g * b_amp / x if params.g > 0.0 else 0.0j
    through = abs(complex(1.0 + t_drop)) ** 2
    drop = abs(complex(t_drop)) ** 2
    cavity_loss = params.kappa * abs(complex(b_amp)) ** 2
    try:
        dipole_loss = params.tau * abs(complex(sigma_amp)) ** 2
    except OverflowError:
        # kept as (tau*|sigma|)*|sigma| where the four fractions still sum to
        # 1 within 1e-12
        try:
            size = abs(complex(sigma_amp))
        except OverflowError:
            size = math.inf
        dipole_loss = (params.tau * size) * size
        total = through + drop + cavity_loss + dipole_loss
        if not abs(total - 1.0) <= 1e-12:
            raise DegenerateDipole(
                f"dipole-loss term unresolved: g^2 = {params.g * params.g!r} underflows out of "
                f"the denominator (g = {params.g!r}, tau = {params.tau!r}), so the flux "
                f"fractions sum to {total!r} (delta_omega = {dw!r})"
            ) from None
    return FluxBudget(through, drop, cavity_loss, dipole_loss)


def reference_parameter_sweep(base, axis, values, probe):
    """One ``replace`` and one scalar flux budget per row."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    dw = _probe_value(probe)
    rows = []
    for raw in values:
        value = float(raw)
        try:
            params = replace(base, **{axis: value})
            rows.append(SweepRow(value=value, budget=reference_flux_budget(params, dw)))
        except (ValueError, NumericsError) as exc:
            rows.append(SweepRow(value=value, budget=None, error=str(exc)))
    return SweepTable(axis=axis, probe=dw, rows=tuple(rows))


def reference_transmission_spectrum(params, grid):
    """|t|^2 from the full array kernel, which had no denominator guard, and
    the denominator it came from."""
    dw = np.asarray(grid.points(), dtype=float)
    x = -1j * (dw - params.delta) + 0.5 * params.tau
    if params.g > 0.0:
        dead = np.flatnonzero(x == 0.0)
        if dead.size:
            raise DegenerateDipole(
                "dipole term diverges at grid indices "
                f"{dead.tolist()}: probe exactly on a zero-linewidth dipole line"
            )
        coupling = params.g * params.g / x
    else:
        coupling = np.zeros_like(x)
    denom = -1j * dw + params.gamma + 0.5 * params.kappa + coupling
    t_drop = -params.gamma / denom
    return np.abs(1.0 + t_drop) ** 2, np.abs(t_drop) ** 2, denom


def reference_half_crossing(x, y, peak_idx, level, side):
    i = peak_idx
    last = 0 if side < 0 else len(y) - 1
    while i != last and y[i] > level:
        i += side
    if y[i] > level:
        return None
    prev = i - side
    span = y[i] - y[prev]
    frac = 0.0 if span == 0.0 else (level - y[prev]) / span
    return float(x[prev] + frac * (x[i] - x[prev]))


def reference_locate_transparency_peak(series):
    """The peak finder as it was, reading x from the full ``grid.points()``."""
    y = series.through
    x = series.grid.points()
    if len(y) < 3:
        raise NoPeak(f"need at least 3 samples to locate a peak, got {len(y)}")
    idx = int(np.argmax(y))
    if idx == 0 or idx == len(y) - 1:
        raise NoPeak("through maximum lies on the grid edge; no interior peak")
    baseline = 0.5 * (float(np.min(y[: idx + 1])) + float(np.min(y[idx:])))
    if y[idx] - baseline <= 1e-12 * max(abs(y[idx]), abs(baseline), 1e-300):
        raise NoPeak("through peak is indistinguishable from the baseline")
    ym, y0, yp = float(y[idx - 1]), float(y[idx]), float(y[idx + 1])
    curvature = ym - 2.0 * y0 + yp
    offset = 0.0 if curvature == 0.0 else 0.5 * (ym - yp) / curvature
    offset = min(0.5, max(-0.5, offset))
    peak_detuning = float(x[idx]) + offset * series.grid.step
    peak_value = y0 - 0.25 * (ym - yp) * offset
    level = 0.5 * (peak_value + baseline)
    left = reference_half_crossing(x, y, idx, level, -1)
    right = reference_half_crossing(x, y, idx, level, +1)
    if left is None and right is None:
        raise NoPeak("through curve never reaches half height inside the grid")
    if left is None:
        left = 2.0 * peak_detuning - right
    if right is None:
        right = 2.0 * peak_detuning - left
    return PeakReport(peak_detuning=peak_detuning, peak_value=float(peak_value), fwhm=float(right - left))


# ---------------------------------------------------------------- helpers --


def _bits(value):
    return struct.pack("<d", value)


def _sweep_outcome(sweep, *args):
    """Every row as bit patterns and message, or the escaping exception."""
    try:
        table = sweep(*args)
    except Exception as exc:  # the kernels may also overflow
        return type(exc), str(exc)
    rows = tuple(
        (_bits(r.value), r.error, None if r.budget is None else tuple(
            _bits(v) for v in (r.budget.through, r.budget.drop,
                               r.budget.cavity_loss, r.budget.dipole_loss)))
        for r in table.rows
    )
    return table.axis, _bits(table.probe), rows


def _assert_same_sweep(base, axis, values, probe):
    got = _sweep_outcome(parameter_sweep, base, axis, values, probe)
    want = _sweep_outcome(reference_parameter_sweep, base, axis, values, probe)
    assert got == want


def _assert_same_spectrum(params, grid):
    with np.errstate(all="ignore"):  # both warn on overflow
        try:
            through, drop, denom = reference_transmission_spectrum(params, grid)
        except DegenerateDipole as exc:
            with pytest.raises(DegenerateDipole) as info:
                transmission_spectrum(params, grid)
            assert str(info.value) == str(exc)
            return
        bad = np.flatnonzero(~(np.isfinite(denom) & (np.abs(denom) >= 1e-280)))
        wild = np.flatnonzero([reference_out_of_range(complex(d)) for d in denom])
        for indices, what in ((bad, "collapsed"), (wild, "out of range")):
            if indices.size:
                more = f" and {indices.size - 10} more" if indices.size > 10 else ""
                with pytest.raises(SingularDenominator) as info:
                    transmission_spectrum(params, grid)
                assert str(info.value).endswith(
                    f"{what} at grid indices {indices[:10].tolist()}{more}")
                return
        series = transmission_spectrum(params, grid)
    assert series.through.tobytes() == through.tobytes()
    assert series.drop.tobytes() == drop.tobytes()
    assert np.all(np.isfinite(series.through)) and np.all(np.isfinite(series.drop))


# ------------------------------------------------------------- strategies --

SPECIALS = (math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 5e-324)
values_st = st.one_of(
    st.sampled_from(SPECIALS), st.floats(), st.floats(-5.0, 5.0).map(lambda v: v * THZ)
)
rates = st.one_of(
    st.sampled_from((1e-300, 1e300, 5e-324)),
    st.floats(1e-3, 10.0).map(lambda v: v * THZ),
    st.floats(min_value=5e-324, allow_infinity=False),
)
detunings = st.one_of(
    st.just(0.0), st.floats(-5.0, 5.0).map(lambda v: v * THZ),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def nodes(draw):
    return SystemParams(
        gamma=draw(rates),
        g=draw(st.one_of(st.just(0.0), rates)),
        tau=draw(st.one_of(st.just(0.0), rates)),
        kappa=draw(st.one_of(st.just(0.0), rates)),
        delta=draw(detunings),
    )


@st.composite
def grids(draw):
    count = draw(st.integers(1, 40))
    start = draw(detunings)
    if count == 1:
        return DetuningGrid(start, start, 1)
    stop = draw(detunings.filter(lambda v: v > start))
    return DetuningGrid(start, stop, count)


# ------------------------------------------------------------------ sweep --


@settings(max_examples=400, deadline=None)
@given(
    base=nodes(),
    axis=st.sampled_from(SWEEP_AXES),
    values=st.lists(values_st, max_size=12),
    on_line=st.booleans(),
    probe=detunings,
)
@example(  # |sigma|^2 overflows on a subnormal tau, and the budget still closes
    base=SystemParams(gamma=1e300, g=6.103515625e-05, tau=0.0, kappa=0.0, delta=0.0),
    axis="tau", values=[2.2250738585e-313], on_line=False, probe=0.0,
)
@example(  # |sigma|^2 overflows and g^2 underflows out of D: a DegenerateDipole row
    base=SystemParams(gamma=1e-10, g=1e-170, tau=0.0, kappa=0.0, delta=0.0),
    axis="tau", values=[1e-323, 2e-309], on_line=False, probe=0.0,
)
def test_sweep_matches_reference(base, axis, values, on_line, probe):
    _assert_same_sweep(base, axis, values, base.delta if on_line else probe)


@pytest.mark.parametrize("axis", SWEEP_AXES)
@pytest.mark.parametrize("g", [0.0, 0.33 * THZ])
def test_sweep_special_values_match_reference(axis, g):
    base = SystemParams(gamma=1.0 * THZ, g=g, tau=0.001 * THZ, kappa=0.1 * THZ, delta=0.02 * THZ)
    values = list(SPECIALS) + [0.5 * THZ, -0.5 * THZ]
    for probe in (0.0, base.delta, 1e300, -1e-300):
        _assert_same_sweep(base, axis, values, probe)


@st.composite
def long_values(draw):
    """Up to 300 values: ordinary ones evaluate on the array pass, special and
    out-of-range ones (negative rates, gamma = 0) fall back row by row."""
    count = draw(st.integers(0, 300))
    value = st.one_of(
        st.floats(0.0, 5.0).map(lambda v: v * THZ),
        st.floats(-5.0, 0.0).map(lambda v: v * THZ),
        values_st,
    )
    return draw(st.lists(value, min_size=count, max_size=count))


@settings(max_examples=80, deadline=None)
@given(base=nodes(), axis=st.sampled_from(SWEEP_AXES), values=long_values(),
       on_line=st.booleans(), probe=detunings)
def test_long_sweep_matches_reference(base, axis, values, on_line, probe):
    _assert_same_sweep(base, axis, values, base.delta if on_line else probe)


def test_sweep_tau_zero_on_the_dipole_line_matches_reference():
    base = SystemParams(gamma=1.0 * THZ, g=0.33 * THZ, tau=0.001 * THZ, delta=0.02 * THZ)
    # tau/2 underflows to 0 at 5e-324; at 1e-300, g^2 / (tau/2) overflows
    values = [0.0, -0.0, 5e-324, 1e-300, 0.01 * THZ]
    errors = [row.error or "" for row in parameter_sweep(base, "tau", values, base.delta).rows]
    assert all("dipole term diverges" in e for e in errors[:3])
    assert "denominator collapsed" in errors[3] and errors[4] == ""
    _assert_same_sweep(base, "tau", values, base.delta)


# ------------------------------------------- the sweep kernel's arithmetic --

EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-308, 1e-300, 0.75, -2.5, 3e154,
         1e308, -1e308, 1.7976931348623157e308, math.inf, -math.inf, math.nan)


def _edge_pairs():
    """Every pair of edge values, and random ones with exponents near the range ends."""
    rng = np.random.default_rng(11)
    edge = np.array(EDGES)
    re, im = np.meshgrid(edge, edge)
    rand = rng.choice([-1.0, 1.0], (2, 4000)) * 10.0 ** rng.uniform(-323, 308, (2, 4000))
    return np.concatenate([re.ravel(), rand[0]]), np.concatenate([im.ravel(), rand[1]])


def _same_float(got, want):
    return math.isnan(got) and math.isnan(want) or _bits(got) == _bits(want)


def _python(op, *args):
    try:
        return op(*args)
    except (ZeroDivisionError, OverflowError) as exc:
        return type(exc)


def test_kernel_division_matches_python():
    ar, ai = _edge_pairs()
    rng = np.random.default_rng(12)
    br, bi = rng.permutation(ar), rng.permutation(ai)
    # each numerator against the edge divisors, and every pair shuffled
    edge_r, edge_i = ar[:len(EDGES) ** 2], ai[:len(EDGES) ** 2]
    ar = np.concatenate([np.repeat(ar[:400], edge_r.size), ar])
    ai = np.concatenate([np.repeat(ai[:400], edge_i.size), ai])
    br = np.concatenate([np.tile(edge_r, 400), br])
    bi = np.concatenate([np.tile(edge_i, 400), bi])
    with np.errstate(all="ignore"):
        arrays = core._c_quot((ar, ai), (br, bi))
    for i in range(ar.size):
        a, b = (float(ar[i]), float(ai[i])), (float(br[i]), float(bi[i]))
        want = _python(complex.__truediv__, complex(*a), complex(*b))
        with np.errstate(all="ignore"):
            floats = core._c_quot(a, b) if i % 7 == 0 else None  # the path for constant terms
        for got in filter(None, ((float(arrays[0][i]), float(arrays[1][i])), floats)):
            if want is ZeroDivisionError:  # b = 0: the kernel returns nan
                assert math.isnan(got[0]) and math.isnan(got[1]), (a, b)
            else:
                assert _same_float(got[0], want.real) and _same_float(got[1], want.imag), (a, b)


def test_kernel_product_and_sum_match_python():
    ar, ai = _edge_pairs()
    br, bi = np.roll(ar, 17), np.roll(ai, 5)
    with np.errstate(all="ignore"):
        product, total = core._c_mul((ar, ai), (br, bi)), core._c_add((ar, ai), (br, bi))
    for i in range(ar.size):
        a, b = complex(ar[i], ai[i]), complex(br[i], bi[i])
        for got, want in ((product, a * b), (total, a + b)):
            assert _same_float(float(got[0][i]), want.real), (a, b)
            assert _same_float(float(got[1][i]), want.imag), (a, b)


def test_kernel_abs_and_square_match_python():
    re, im = _edge_pairs()
    with np.errstate(all="ignore"):
        kernel_abs = np.hypot(re, im)
        squares = core._c_abs2((re, im))
        kernel_square = np.float_power(np.abs(re), 2.0)
    for i in range(re.size):
        z = complex(re[i], im[i])
        # abs is nan here, but CPython reads errno left over from an earlier
        # overflow and may raise OverflowError instead
        size = math.nan if cmath.isnan(z) and not cmath.isinf(z) else _python(abs, z)
        if size is OverflowError:  # finite parts, |z| beyond the float range
            assert kernel_abs[i] == math.inf and squares[i] == math.inf
        else:
            assert _same_float(float(kernel_abs[i]), size)
            square = _python(pow, size, 2)
            assert _same_float(float(squares[i]), math.inf if square is OverflowError else square)
        square = _python(pow, abs(float(re[i])), 2)
        assert _same_float(float(kernel_square[i]), math.inf if square is OverflowError else square)


# --------------------------------------------------------------- spectrum --


@settings(max_examples=300, deadline=None)
@given(params=nodes(), grid=grids(), on_line=st.booleans())
def test_spectrum_matches_reference(params, grid, on_line):
    if on_line:  # put one grid point exactly on the dipole line
        grid = DetuningGrid(params.delta, params.delta, 1)
    _assert_same_spectrum(params, grid)


@pytest.mark.parametrize("gamma", [1e-300, 1e300])
@pytest.mark.parametrize("g", [0.0, 1e-300, 0.33 * THZ, 1e300])
def test_spectrum_extreme_rates_raise_or_stay_finite(gamma, g):
    for tau in (0.0, 1e-300, 1e300):
        params = SystemParams(gamma=gamma, g=g, tau=tau, kappa=0.0, delta=0.0)
        for grid in (DetuningGrid(-1.0, 1.0, 5), DetuningGrid(-3 * gamma, 3 * gamma, 7),
                     DetuningGrid(-8.5e307, 8.5e307, 5)):
            _assert_same_spectrum(params, grid)


def test_array_guard_names_the_singular_points():
    params = SystemParams(gamma=1e-300, g=0.0, tau=0.0, kappa=0.0)
    grid = np.array([-1.0, 0.0, 1e-290, 1.0])
    with pytest.raises(SingularDenominator, match=r"grid indices \[1, 2\]$"):
        scattering_arrays(params, grid)
    with pytest.raises(SingularDenominator):
        scatter_coefficients(params, 0.0)
    wide = np.zeros(25)
    with pytest.raises(SingularDenominator, match=r"\[0, 1, .*, 9\] and 15 more$"):
        scattering_arrays(params, wide)
    with pytest.raises(SingularDenominator, match=r"\[0, 1\]$"):  # g^2 overflows
        scattering_arrays(SystemParams(gamma=1.0, g=1e300, tau=1.0), np.array([1e300, 0.0]))
    assert scattering_arrays(params, np.array([])).t_drop.shape == (0,)


# ------------------------------------------------------ spectrum in blocks --


@pytest.mark.parametrize("count", [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
def test_blocked_spectrum_matches_reference(count):
    params = SystemParams(gamma=1.0 * THZ, g=0.33 * THZ, tau=0.001 * THZ, kappa=0.1 * THZ,
                          delta=0.02 * THZ)
    stop = -3.0 * THZ if count == 1 else 3.0 * THZ
    _assert_same_spectrum(params, DetuningGrid(-3.0 * THZ, stop, count))


# D = 1e-300 - i dw collapses where |dw| < 1e-280; points of this grid are whole numbers
COLLAPSING = SystemParams(gamma=1e-300, g=0.0, tau=0.0, kappa=0.0)
WHOLE_NUMBERS = DetuningGrid(-10000.0, 30000.0, 40001)  # 0.0 at index 10000, a later block


def test_blocked_spectrum_names_a_bad_point_past_the_first_block():
    assert WHOLE_NUMBERS.points()[10000] == 0.0 and 10000 > _BLOCK
    with pytest.raises(SingularDenominator, match=r"collapsed at grid indices \[10000\]$"):
        transmission_spectrum(COLLAPSING, WHOLE_NUMBERS)
    _assert_same_spectrum(COLLAPSING, WHOLE_NUMBERS)


def test_blocked_spectrum_counts_bad_points_over_several_blocks():
    # the last quarter of the grid collapses: blocks 1 to 3, thousands of points
    grid = DetuningGrid(-3e-280, 1e-280, 3 * _BLOCK + 5)
    with pytest.raises(SingularDenominator, match=r"\] and \d+ more$") as info:
        transmission_spectrum(COLLAPSING, grid)
    first = int(str(info.value).split("[")[1].split(",")[0])
    assert first > _BLOCK
    _assert_same_spectrum(COLLAPSING, grid)


def test_blocked_spectrum_reports_a_later_degenerate_point_first():
    # g^2 underflows to 0, so D collapses at dw = 0 (index 10000) as above,
    # while the probe sits on the zero-linewidth dipole line at index 30000
    params = SystemParams(gamma=1e-300, g=1e-200, tau=0.0, kappa=0.0, delta=20000.0)
    with pytest.raises(DegenerateDipole, match=r"grid indices \[30000\]:"):
        transmission_spectrum(params, WHOLE_NUMBERS)
    _assert_same_spectrum(params, WHOLE_NUMBERS)


# ------------------------------------------------------------------- peak --


def _peak_outcome(locate, series):
    try:
        report = locate(series)
    except NoPeak as exc:
        return NoPeak, str(exc)
    return tuple(_bits(v) for v in (report.peak_detuning, report.peak_value, report.fwhm))


def _assert_same_peak(series):
    with np.errstate(all="ignore"):  # a grid spanning the float range overflows
        want = _peak_outcome(reference_locate_transparency_peak, series)
        assert _peak_outcome(locate_transparency_peak, series) == want


@st.composite
def peak_grids(draw):
    """Grids of 3 or more points, down to steps that underflow to zero."""
    count = draw(st.integers(3, 300))
    start = draw(st.one_of(detunings, st.sampled_from((0.0, -0.0, -5e-324))))
    span = draw(st.one_of(
        st.sampled_from((5e-324, 1e-322, 1e300, 1e308)),
        st.floats(1e-3, 10.0).map(lambda v: v * THZ),
        st.floats(min_value=5e-324, max_value=1e308),
    ))
    stop = start + span
    if not (math.isfinite(stop) and stop > start):  # one ulp wide, away from the float limit
        start, stop = (start, math.nextafter(start, math.inf)) if start < 0 else (
            math.nextafter(start, -math.inf), start)
    return DetuningGrid(start, stop, count)


@settings(max_examples=300, deadline=None)
@given(grid=peak_grids(), seed=st.integers(0, 2**32 - 1), ties=st.floats(0.0, 1.0))
def test_peak_matches_reference_on_any_curve(grid, seed, ties):
    # plateaus, ties and edge maxima come from small integer samples
    rng = np.random.default_rng(seed)
    y = np.where(rng.random(grid.count) < ties, rng.integers(0, 4, grid.count), rng.random(grid.count))
    with np.errstate(all="ignore"):
        x = grid.points()
    _assert_same_peak(SpectrumSeries(grid=grid, detuning=x, through=y, drop=1.0 - y))


@settings(max_examples=200, deadline=None)
@given(grid=peak_grids(), g=st.floats(0.0, 2.0), tau=st.floats(0.0, 0.5), delta=st.floats(-1.0, 1.0))
def test_peak_matches_reference_on_spectra(grid, g, tau, delta):
    params = SystemParams(gamma=1.0 * THZ, g=g * THZ, tau=tau * THZ, delta=delta * THZ)
    centred = DetuningGrid(-3.0 * THZ, 3.0 * THZ, grid.count)
    for spectrum_grid in (grid, centred):
        try:
            with np.errstate(all="ignore"):
                series = transmission_spectrum(params, spectrum_grid)
        except NumericsError:
            continue
        _assert_same_peak(series)


# -------------------------------------------------------- benchmark pool --


def test_grids_pool_matches_reference():
    # every sweep and spectrum of the seed-0 pool of the benchmark's grids workload
    for case in workloads.generate_grids(0):
        got = _sweep_outcome(parameter_sweep, case.base, case.axis, case.values, case.probe)
        want = _sweep_outcome(
            reference_parameter_sweep, case.base, case.axis, case.values, case.probe
        )
        assert got == want
        series = transmission_spectrum(case.node, case.grid)
        through, drop, _ = reference_transmission_spectrum(case.node, case.grid)
        assert series.through.tobytes() == through.tobytes()
        assert series.drop.tobytes() == drop.tobytes()
        assert _peak_outcome(locate_transparency_peak, series) == _peak_outcome(
            reference_locate_transparency_peak, series
        )
