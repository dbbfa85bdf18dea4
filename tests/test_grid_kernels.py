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
that change.  They also carry the dipole-loss guard: where |sigma|^2
overflows, the flux budget forms the dipole loss as ``(tau*|sigma|)*|sigma|``
and keeps it where the fractions still sum to 1, and otherwise raises ``DegenerateDipole`` instead of leaking ``OverflowError`` and
aborting the sweep.  They square each |z| as ``abs(z) * abs(z)``, as the
package now does, where they used C ``pow`` (``abs(z) ** 2``), which
misrounds some squares.  ``parameter_sweep`` now evaluates its rows on arrays with
CPython's complex arithmetic written out, so that arithmetic is also checked
against Python's own operators on edge values.  The peak finder
used to rebuild the whole detuning array with ``grid.points()``; it now reads
the detunings the spectrum was evaluated at, and must give the same bits.
The array kernel ``core._drop_arrays`` used to form X and D with numpy's
complex multiply and guard D with a BLAS sum of squares; it now builds them
from real parts, and ``scattering_arrays`` and ``transmission_spectrum`` must
keep every bit, signed zeros included, and every error message of that
kernel, which is kept here as well.  The spectrum makes its detunings block
by block with a generator of its own, checked against ``np.linspace``.  Where
a scalar range proof admits the node and the grid, it now forms |t_through|^2
= |D - gamma|^2 / |D|^2 and |t_drop|^2 = gamma^2 / |D|^2 from real parts,
and every point must have the bits of that formula evaluated per point on
Python floats; every other node keeps the complex kernel's bits and errors.
The proof is checked against per-point range tests and against the complex
kernel's guard.  The peak finder's half-height search reads windows that
grow outward from the peak, and must return what the sample-by-sample walk
returns.
"""

import cmath
import math
import os
import struct
import sys
import tracemalloc
from dataclasses import replace
from unittest import mock

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
from ditsim import core, spectra
from ditsim.core import _drop_arrays, _guard_denominators, _powers_in_range, _probe_value
from ditsim.spectra import (
    SWEEP_AXES,
    DetuningGrid,
    NoPeak,
    PeakReport,
    SpectrumSeries,
    SweepRow,
    SweepTable,
    _BLOCK,
    _WINDOW,
    _half_crossing,
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
    through = _square_abs(1.0 + t_drop)
    drop = _square_abs(t_drop)
    cavity_loss = params.kappa * _square_abs(b_amp)
    try:
        size = abs(complex(sigma_amp))
        overflows = math.isfinite(size) and math.isinf(size * size)
    except OverflowError:
        size, overflows = math.inf, True
    if not overflows:
        dipole_loss = params.tau * (size * size)
    else:
        # kept as (tau*|sigma|)*|sigma| where the four fractions still sum to
        # 1 within 1e-12
        dipole_loss = (params.tau * size) * size
        total = through + drop + cavity_loss + dipole_loss
        if not abs(total - 1.0) <= 1e-12:
            raise DegenerateDipole(
                f"dipole-loss term unresolved: g^2 = {params.g * params.g!r} underflows out of "
                f"the denominator (g = {params.g!r}, tau = {params.tau!r}), so the flux "
                f"fractions sum to {total!r} (delta_omega = {dw!r})"
            ) from None
    return FluxBudget(through, drop, cavity_loss, dipole_loss)


def _square_abs(z):
    size = abs(complex(z))
    return size * size


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
                f"dipole term diverges at {_reference_indices(dead)}: "
                "probe exactly on a zero-linewidth dipole line"
            )
        coupling = params.g * params.g / x
    else:
        coupling = np.zeros_like(x)
    denom = -1j * dw + params.gamma + 0.5 * params.kappa + coupling
    t_drop = -params.gamma / denom
    return np.abs(1.0 + t_drop) ** 2, np.abs(t_drop) ** 2, denom


def formula_spectrum(params, grid):
    """|t_through|^2 and |t_drop|^2 over the grid from real parts, point by
    point on Python floats: u = delta - dw, h = tau/2, s = g^2/(u^2 + h^2),
    Re D = gamma + kappa/2 + s h, Re N = kappa/2 + s h, Im N = Im D = -(s u + dw)."""
    delta, h, half_kappa = params.delta, 0.5 * params.tau, 0.5 * params.kappa
    gg, hh, floor, gamma2 = params.g * params.g, h * h, params.gamma + half_kappa, params.gamma * params.gamma
    through, drop = [], []
    for dw in grid.points().tolist():
        u = delta - dw
        s = gg / (u * u + hh)
        im = s * u + dw
        sh = s * h
        rn, rd = sh + half_kappa, sh + floor
        d2 = rd * rd + im * im
        through.append((rn * rn + im * im) / d2)
        drop.append(gamma2 / d2)
    return np.array(through), np.array(drop)


def _in_range(params, grid):
    return _powers_in_range(params, max(abs(grid.start), abs(grid.stop)))


def _reference_indices(bad):
    shown = bad[:10].tolist()
    return f"grid indices {shown}" + (f" and {bad.size - 10} more" if bad.size > 10 else "")


def reference_drop_arrays(params, dw):
    """``(x, denom, t_drop)`` of the array kernel as it was: X and D as
    numpy's complex expressions, guarded by a BLAS sum of squares."""
    g, half_tau = params.g, 0.5 * params.tau
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = np.multiply(-1j, dw - params.delta)
        x += half_tau
        coupling = None
        if g > 0.0:
            if half_tau == 0.0:
                dead = np.flatnonzero(x == 0.0)
                if dead.size:
                    raise DegenerateDipole(
                        f"dipole term diverges at {_reference_indices(dead)}: "
                        "probe exactly on a zero-linewidth dipole line"
                    )
            coupling = np.divide(g * g, x)
        denom = np.multiply(-1j, dw)
        denom += params.gamma
        denom += 0.5 * params.kappa
        denom += 0.0 if coupling is None else coupling
        if not (np.isfinite(np.vdot(denom, denom))
                and np.min(denom.real, initial=np.inf) >= 1e-280):
            bad = np.flatnonzero(~(np.isfinite(denom) & (np.abs(denom) >= 1e-280)))
            if bad.size:
                raise SingularDenominator(
                    f"scattering denominator collapsed at {_reference_indices(bad)}")
            bad = np.flatnonzero([reference_out_of_range(complex(d)) for d in denom])
            if bad.size:
                raise SingularDenominator(
                    f"scattering denominator out of range at {_reference_indices(bad)}")
    return x, denom, np.divide(-params.gamma, denom, out=coupling)


def reference_scattering_arrays(params, delta_omega):
    """``scattering_arrays`` on the kernel above."""
    dw = np.asarray(delta_omega)
    flat = np.asarray(dw.ravel(), dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            x, denom, t_drop = reference_drop_arrays(params, flat)
        except SingularDenominator:
            bad = np.flatnonzero(~np.isfinite(flat))
            if bad.size:
                raise ValueError(
                    f"delta_omega must be finite at {_reference_indices(bad)}") from None
            raise
        b_amp = -math.sqrt(params.gamma) / denom
        sigma = -1j * params.g * b_amp / x if params.g > 0.0 else np.zeros_like(b_amp)
    return tuple(a.reshape(dw.shape) for a in (1.0 + t_drop, t_drop, b_amp, sigma))


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
    """The spectrum against the per-point formula where the range proof
    holds, else against |t|^2 of the complex reference, errors included."""
    if _in_range(params, grid):
        series = transmission_spectrum(params, grid)
        through, drop = formula_spectrum(params, grid)
        _assert_same_rows(series, through, drop)
        return
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
    _assert_same_rows(series, through, drop)


def _assert_same_rows(series, through, drop):
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
    # the grid refuses a width stop - start that overflows
    stop = draw(detunings.filter(lambda v: v > start and math.isfinite(v - start)))
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
        kernel_square = core._c_abs2((re, 0.0))  # a real operand enters as (f, 0.0)
    for i in range(re.size):
        z = complex(re[i], im[i])
        # abs is nan here, but CPython reads errno left over from an earlier
        # overflow and may raise OverflowError instead
        size = math.nan if cmath.isnan(z) and not cmath.isinf(z) else _python(abs, z)
        if size is OverflowError:  # finite parts, |z| beyond the float range
            assert kernel_abs[i] == math.inf and squares[i] == math.inf
        else:
            assert _same_float(float(kernel_abs[i]), size)
            assert _same_float(float(squares[i]), size * size)
        real = abs(float(re[i]))
        assert _same_float(float(kernel_square[i]), real * real)


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


def test_degenerate_dipole_message_lists_ten_indices():
    # a million points on the line of a zero-linewidth dipole: the message
    # stays short, as every other grid error's does
    params = SystemParams(1e12, 3.3e11, 0.0, 1e11)
    with pytest.raises(DegenerateDipole) as info:
        scattering_arrays(params, np.zeros(10**6))
    message = str(info.value)
    assert len(message) < 200
    assert "grid indices [0, 1, 2, 3, 4, 5, 6, 7, 8, 9] and 999990 more:" in message


# ------------------------------------------------------ spectrum in blocks --


# edges of one and three blocks, for the present block and for a block of 8192 points
_SPECTRUM_COUNTS = sorted({1, 2, 8191, 8192, 8193, 3 * 8192 + 5,
                           _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5})


@pytest.mark.parametrize("count", _SPECTRUM_COUNTS)
def test_blocked_spectrum_matches_reference(count):
    params = SystemParams(gamma=1.0 * THZ, g=0.33 * THZ, tau=0.001 * THZ, kappa=0.1 * THZ,
                          delta=0.02 * THZ)
    stop = -3.0 * THZ if count == 1 else 3.0 * THZ
    _assert_same_spectrum(params, DetuningGrid(-3.0 * THZ, stop, count))


# D = 1e-300 - i dw collapses where |dw| < 1e-280; points of this grid are whole numbers
COLLAPSING = SystemParams(gamma=1e-300, g=0.0, tau=0.0, kappa=0.0)
WHOLE_NUMBERS = DetuningGrid(-20000.0, 40000.0, 60001)  # 0.0 at index 20000, a later block


def test_blocked_spectrum_names_a_bad_point_past_the_first_block():
    assert WHOLE_NUMBERS.points()[20000] == 0.0 and 20000 > _BLOCK
    with pytest.raises(SingularDenominator, match=r"collapsed at grid indices \[20000\]$"):
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
    # g^2 underflows to 0, so D collapses at dw = 0 (index 20000) as above,
    # while the probe sits on the zero-linewidth dipole line at index 40000
    params = SystemParams(gamma=1e-300, g=1e-200, tau=0.0, kappa=0.0, delta=20000.0)
    with pytest.raises(DegenerateDipole, match=r"grid indices \[40000\]:"):
        transmission_spectrum(params, WHOLE_NUMBERS)
    _assert_same_spectrum(params, WHOLE_NUMBERS)


def test_blocked_spectrum_holds_one_block_of_temporaries():
    # the (3, count) result and one block's complex x and D: no whole-grid
    # temporary (at 8 * _BLOCK + 3 points a grid.points() array would not
    # fit), and a second block's pair would not fit either
    params = SystemParams(gamma=1.0 * THZ, g=0.33 * THZ, tau=0.001 * THZ, kappa=0.1 * THZ)
    for count in (_BLOCK + 1, 3 * _BLOCK + 5, 8 * _BLOCK + 3):
        grid = DetuningGrid(-3.0 * THZ, 3.0 * THZ, count)
        tracemalloc.start()
        try:
            transmission_spectrum(params, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * count + 32 * _BLOCK + 32768, count


# ------------------------------------------------- grid points per block --

LIMIT = 1.7976931348623157e308
GRID_ENDS = (0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310, 1e-300, -1e-300,
             1e300, -1e300, 1.7e308, -1.7e308, LIMIT, -LIMIT)
grid_ends = st.one_of(st.sampled_from(GRID_ENDS), st.floats(allow_nan=False, allow_infinity=False))
# 1 to 3 points, the edges of one and two blocks, and counts of several blocks
grid_counts = st.one_of(st.sampled_from((1, 2, 3, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                                         2 * _BLOCK, 2 * _BLOCK + 1)),
                        st.integers(1, 70000))
G0_NODE = SystemParams(1.0 * THZ, 0.0, 0.001 * THZ, 0.1 * THZ)  # D = floor - i dw never fails


@st.composite
def linspace_grids(draw):
    """Any valid grid; some a few subnormal ulps wide, so that the step underflows to 0."""
    count, start = draw(grid_counts), draw(grid_ends)
    if count == 1:
        return DetuningGrid(start, start, 1)
    if draw(st.booleans()):
        start = draw(st.sampled_from((0.0, -0.0, 5e-324, -5e-324, -2.5e-310)))
        stop = start + draw(st.integers(1, 64)) * 5e-324
    else:
        stop = draw(grid_ends)
        start, stop = sorted((start, stop))
        if not (start < stop and math.isfinite(stop - start)):
            start, stop = (start, math.nextafter(start, math.inf)) if start < 0 else (
                math.nextafter(start, -math.inf), start)
    return DetuningGrid(start, stop, count)


@settings(max_examples=200, deadline=None)
@given(grid=linspace_grids())
@example(grid=DetuningGrid(-0.0, LIMIT, 31))  # i * step overflows at the last index
@example(grid=DetuningGrid(-0.0, -0.0, 1))  # linspace gives +0.0
@example(grid=DetuningGrid(0.0, 5e-324, 3))  # the step underflows to 0
@example(grid=DetuningGrid(-5e-324, 1.5e-323, 2 * _BLOCK + 1))
def test_grid_points_keep_the_bits_of_linspace(grid):
    with np.errstate(over="ignore"):
        want = np.linspace(grid.start, grid.stop, grid.count).tobytes()
    assert grid.points().tobytes() == want
    assert transmission_spectrum(G0_NODE, grid).detuning.tobytes() == want


# ------------------------------------------------ the kernel from real parts --

EDGES_300 = (5e-324, 2.5e-310, 1e-300, 1e300, 1.7e308)  # two subnormals first
signed_zeros = st.sampled_from((0.0, -0.0))
edge_rates = st.one_of(
    st.sampled_from(EDGES_300), st.floats(1e-3, 10.0).map(lambda v: v * THZ),
    st.floats(min_value=5e-324, allow_infinity=False),
)
edge_detunings = st.one_of(
    signed_zeros, st.sampled_from(EDGES_300 + tuple(-v for v in EDGES_300)),
    st.floats(-5.0, 5.0).map(lambda v: v * THZ), st.floats(allow_nan=False, allow_infinity=False),
)
on_line = st.none()  # stands for the node's own delta


@st.composite
def edge_nodes(draw):
    return SystemParams(
        gamma=draw(edge_rates),
        g=draw(st.one_of(signed_zeros, edge_rates)),
        tau=draw(st.one_of(signed_zeros, edge_rates)),
        kappa=draw(st.one_of(signed_zeros, edge_rates)),
        delta=draw(edge_detunings),
    )


def _kernel_outcome(call, *args):
    """Every array by bit pattern, signed zeros included, or the error's type and message."""
    try:
        arrays = call(*args)
    except (ValueError, NumericsError) as exc:
        return type(exc), str(exc)
    return tuple(np.ascontiguousarray(a).tobytes() for a in arrays)


def _spectrum_rows(params, grid):
    series = transmission_spectrum(params, grid)
    return series.detuning, series.through, series.drop


def _reference_spectrum_rows(params, grid):
    points = grid.points()
    if _in_range(params, grid):
        return (points, *formula_spectrum(params, grid))
    _, _, t_drop = reference_drop_arrays(params, points)
    return points, np.abs(1.0 + t_drop) ** 2, np.abs(t_drop) ** 2


@given(
    params=edge_nodes(),
    dw=st.lists(st.one_of(edge_detunings, on_line,
                          st.sampled_from((math.nan, math.inf, -math.inf))), max_size=8),
    grid=st.tuples(st.integers(1, 40), st.one_of(edge_detunings, on_line),
                   st.one_of(edge_detunings, on_line)),
)
@settings(deadline=None)  # the example count follows the profile: soak runs 20,000
@example(  # tau = -0.0: Re X is +0.0, so sigma's imaginary parts are +0.0
    params=SystemParams(1.0, 1.5e-222, -0.0, 0.0, -1.0), dw=[-7.3e-122, 1e12, -1e-300],
    grid=(3, -1e-300, 1e12),
)
@example(  # dw - delta overflows at index 1: Re X was nan, so D collapses there
    params=SystemParams(1e12, 3.3e11, 1e9, 1e11, 1.7e308), dw=[0.0, -1e308],
    grid=(2, -1e308, 0.0),
)
@example(  # 1/(tau/2) is inf, so g^2/X is nan at dw = 0 though g^2 underflows to 0
    params=SystemParams(1e12, 5e-324, 2.5e-310, 0.0), dw=[0.0], grid=(26, -5.0, 20.0),
)
@example(  # |delta| + max|dw| overflows, delta - dw does not
    params=SystemParams(1e12, 3.3e11, 1e9, 1e11, 1.7e308), dw=[1e308, 1.7e308],
    grid=(31, 1e308, 1.7e308),
)
def test_kernel_keeps_the_bits_of_the_complex_expressions(params, dw, grid):
    dw = np.array([params.delta if v is None else v for v in dw], dtype=float)
    assert _kernel_outcome(scattering_arrays, params, dw) == _kernel_outcome(
        reference_scattering_arrays, params, dw)
    grid = _drawn_grid(params, *grid)
    assert _kernel_outcome(_spectrum_rows, params, grid) == _kernel_outcome(
        _reference_spectrum_rows, params, grid)


def _drawn_grid(params, count, *ends):
    """The grid of ``count`` points between the drawn ends (None is the node's
    delta), or a 1-point grid at the lower end where they make no valid grid."""
    start, stop = sorted(params.delta if v is None else v for v in ends)
    if count == 1 or not (start < stop and math.isfinite(stop - start)):
        count, stop = 1, start
    return DetuningGrid(start, stop, count)


@st.composite
def proof_edge_nodes(draw):
    """Nodes about the edges of the range proof: tau/2 about 2^-250 and
    2^250, gamma + kappa/2 about both, and g^2/(tau/2) about 2^250."""
    tau = draw(st.one_of(signed_zeros, edge_rates, st.sampled_from(
        (2.0**-249, math.nextafter(2.0**-249, 0.0), 2.0**251, math.nextafter(2.0**251, math.inf)))))
    coupling = draw(st.one_of(st.none(), st.floats(0.5, 2.0).map(lambda f: f * 2.0**250)))
    g = draw(st.one_of(signed_zeros, edge_rates)) if coupling is None else (
        math.sqrt(coupling) * math.sqrt(0.5 * tau))
    return SystemParams(
        gamma=draw(st.one_of(edge_rates, st.sampled_from(
            (2.0**-250, math.nextafter(2.0**-250, 0.0), 2.0**249, 2.0**250, 2.0**251)))),
        g=g, tau=tau,
        kappa=draw(st.one_of(signed_zeros, edge_rates)),
        delta=draw(st.one_of(edge_detunings, st.sampled_from((2.0**249, -2.0**250)))),
    )


proof_ends = st.one_of(edge_detunings, on_line,
                       st.floats(0.25, 1.0).map(lambda f: f * 2.0**250),
                       st.floats(-1.0, -0.25).map(lambda f: f * 2.0**250))
NORMAL = sys.float_info.min


@settings(max_examples=500, deadline=None)
@given(params=st.one_of(edge_nodes(), proof_edge_nodes()),
       grid=st.tuples(st.integers(1, 40), proof_ends, proof_ends))
@example(  # the proof's edges: tau/2 = gamma = 2^-250 and g^2/(tau/2) = |delta| + reach = 2^250
    params=SystemParams(2.0**-250, 1.0, 2.0**-249, 0.0), grid=(3, -(2.0**250), 2.0**250),
)
@example(  # 1/(tau/2) is inf, so g^2/X is nan at dw = 0 though g^2 underflows to 0
    params=SystemParams(1e12, 5e-324, 2.5e-310, 0.0), grid=(26, -5.0, 20.0),
)
def test_range_proof_never_skips_a_failing_guard(params, grid):
    # where the scalar bound holds, the spectrum takes the real-part kernel:
    # each point's squares must be finite, u^2 + h^2 and |D|^2 normal, no
    # numpy error may arise, and the complex kernel's guard must pass
    grid = _drawn_grid(params, *grid)
    if not _in_range(params, grid):
        return
    h = 0.5 * params.tau
    for dw in grid.points().tolist():
        u = params.delta - dw
        s = params.g * params.g / (u * u + h * h)
        im, sh = s * u + dw, s * h
        rn, rd = sh + 0.5 * params.kappa, sh + (params.gamma + 0.5 * params.kappa)
        assert NORMAL <= u * u + h * h < math.inf and NORMAL <= rd * rd + im * im < math.inf
        assert math.isfinite(rn * rn + im * im) and math.isfinite(params.gamma * params.gamma)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        _assert_same_spectrum(params, grid)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x, denom = _drop_arrays(params, grid.points())
        _guard_denominators(params, x, denom)


def test_range_proof_admits_exactly_its_bounds():
    edge = SystemParams(2.0**-250, 1.0, 2.0**-249, 0.0)  # g^2/(tau/2) = 2^250
    assert _powers_in_range(edge, 2.0**250)
    below, above = math.nextafter(2.0**-250, 0.0), math.nextafter(2.0**250, math.inf)
    for node, reach in [
        (edge, above),  # the grid reaches past 2^250
        (replace(edge, delta=2.0**200), 2.0**250),  # so does |delta| + reach
        (replace(edge, tau=2 * below), 2.0**250),  # tau/2 below 2^-250
        (replace(edge, gamma=below), 2.0**250),  # gamma + kappa/2 below 2^-250
        (replace(edge, g=math.nextafter(1.0, 2.0)), 2.0**250),  # g^2/(tau/2) above 2^250
        (SystemParams(1.0, 0.0, 2 * above, 1.0), 1.0),  # tau/2 above 2^250: h^2 would overflow
        (SystemParams(above, 0.0, 1.0, 0.0), 1.0),  # gamma + kappa/2 above 2^250
        (SystemParams(1.0, 1e300, 1.0, 0.0), 1.0),  # g^2 overflows
        (SystemParams(1.0, 0.33, 0.0, 0.1), 1.0),  # tau = 0
    ]:
        assert not _powers_in_range(node, reach), (node, reach)


def test_spectrum_kernels_make_no_blas_call(monkeypatch):
    # OpenBLAS runs vdot and dot on several threads from about 10,000 points
    # unless its threads are pinned, which made a CLI spectrum several times slower
    def refuse(*args, **kwargs):
        raise AssertionError("BLAS call in a spectrum kernel")

    monkeypatch.setattr(np, "vdot", refuse)
    monkeypatch.setattr(np, "dot", refuse)
    params = SystemParams(gamma=1.0 * THZ, g=0.33 * THZ, tau=0.001 * THZ, kappa=0.1 * THZ,
                          delta=0.02 * THZ)
    grid = DetuningGrid(-3.0 * THZ, 3.0 * THZ, 20001)
    scattering_arrays(params, grid.points())  # raises where it calls BLAS
    _assert_same_rows(transmission_spectrum(params, grid), *formula_spectrum(params, grid))


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
    _assert_same_peak(SpectrumSeries(grid=grid, detuning=grid.points(), through=y, drop=1.0 - y))


@settings(max_examples=200, deadline=None)
@given(grid=peak_grids(), g=st.floats(0.0, 2.0), tau=st.floats(0.0, 0.5), delta=st.floats(-1.0, 1.0))
def test_peak_matches_reference_on_spectra(grid, g, tau, delta):
    params = SystemParams(gamma=1.0 * THZ, g=g * THZ, tau=tau * THZ, delta=delta * THZ)
    centred = DetuningGrid(-3.0 * THZ, 3.0 * THZ, grid.count)
    for spectrum_grid in (grid, centred):
        try:
            series = transmission_spectrum(params, spectrum_grid)
        except NumericsError:
            continue
        _assert_same_peak(series)


finite_samples = st.one_of(st.floats(-1e300, 1e300), st.floats(-1.0, 1.0), st.integers(-3, 3).map(float),
                           st.sampled_from((0.0, -0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308)))


@settings(max_examples=500, deadline=None)
@given(y=st.lists(finite_samples, min_size=3, max_size=80), at=st.integers(0, 2**16), raise_peak=st.booleans())
def test_half_height_is_reached_on_at_least_one_side(y, at, raise_peak):
    # the level is at least the baseline, the mean of the two sides' lowest
    # samples, so the side with the lower of them reaches it
    y = np.array(y)
    peak = 1 + at % (y.size - 2)
    if raise_peak:  # an interior sample above every other one
        y[peak] = math.nextafter(float(y.max()), math.inf)
    if not (0 < int(np.argmax(y)) < y.size - 1 and np.isfinite(y).all()):
        return
    grid = DetuningGrid(-1.0, 1.0, y.size)
    results = []

    def half_crossing(*args):
        results.append(_half_crossing(*args))
        return results[-1]

    with mock.patch.object(spectra, "_half_crossing", half_crossing):
        try:
            locate_transparency_peak(SpectrumSeries(grid=grid, detuning=grid.points(), through=y, drop=y))
        except (NoPeak, ValueError):  # the peak is the baseline, or a difference overflows
            pass
    assert results.count(None) <= 1


# ---------------------------------------- the half-height search's windows --

# samples from the peak to the first sample not above half height, about the
# edges of the first three windows (1024, then 4 and 16 times as long)
CROSSINGS = (1, _WINDOW - 1, _WINDOW, _WINDOW + 1, 5 * _WINDOW - 1, 5 * _WINDOW,
             5 * _WINDOW + 1, 21 * _WINDOW - 1, 21 * _WINDOW, 21 * _WINDOW + 1)
SIDE = 21 * _WINDOW + 2  # samples on each side of the peak, which sits at index SIDE


def _plateau(left, right):
    """A peak of 1 on a plateau of 0.9 that drops to 0 ``left`` and ``right``
    samples away from it (None: it never does on that side), and its grid."""
    y = np.full(2 * SIDE + 1, 0.9)
    y[SIDE] = 1.0
    if left is not None:
        y[:SIDE - left + 1] = 0.0
    if right is not None:
        y[SIDE + right:] = 0.0
    grid = DetuningGrid(-1.0, 1.0, y.size)
    return SpectrumSeries(grid=grid, detuning=grid.points(), through=y, drop=1.0 - y)


@pytest.mark.parametrize("distance", [*CROSSINGS, None])
@pytest.mark.parametrize("side", [-1, 1])
def test_half_crossing_windows_match_the_walk(side, distance):
    series = _plateau(*((distance, None) if side < 0 else (None, distance)))
    x, y = series.detuning, series.through
    got = _half_crossing(x, y, SIDE, 0.5, side)
    want = reference_half_crossing(x, y, SIDE, 0.5, side)
    assert (got is None) == (distance is None) == (want is None)
    assert got is None or _bits(got) == _bits(want)


# each side crossing at a window edge, or never (the other side's half width is
# mirrored); a curve cannot stay above half height on both sides, since the
# baseline is the mean of the two sides' lowest samples
@pytest.mark.parametrize("left, right", [*((d, d) for d in CROSSINGS), *((d, None) for d in CROSSINGS),
                                         *((None, d) for d in CROSSINGS), (7, 5 * _WINDOW), (_WINDOW, 2)])
def test_peak_windows_match_the_walk(left, right):
    _assert_same_peak(_plateau(left, right))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_peak_windows_leave_unread_detunings_unchecked(value):
    # beyond the crossings, past the first window: the report never reads them
    series = _plateau(5 * _WINDOW, 5 * _WINDOW)
    series.detuning[[SIDE - 5 * _WINDOW - 1, SIDE + 5 * _WINDOW + 1, 0, -1]] = value
    _assert_same_peak(series)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("index", [SIDE + 5 * _WINDOW - 1, SIDE + 5 * _WINDOW, SIDE - 5 * _WINDOW])
def test_peak_windows_name_a_bracket_detuning_past_the_first_window(index, value):
    series = _plateau(5 * _WINDOW, 5 * _WINDOW)
    series.detuning[index] = value
    with pytest.raises(ValueError, match=rf"^spectrum detuning must be finite, got {value} at index {index}$"):
        locate_transparency_peak(series)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_peak_windows_name_a_through_sample_past_the_first_window(value):
    # every through sample is checked before the search: the argmax picks a
    # nan or +inf, a side's minimum a -inf
    series = _plateau(5 * _WINDOW, 5 * _WINDOW)
    index = SIDE + 2 * _WINDOW
    series.through[index] = value
    with pytest.raises(ValueError, match=rf"^spectrum through sample must be finite, got {value} at index {index}$"):
        locate_transparency_peak(series)


# -------------------------------------------------------- benchmark pool --


def test_grids_pool_matches_reference():
    # every sweep and spectrum of the seed-0 pool of the benchmark's grids workload
    for case in workloads.generate_grids(0):
        got = _sweep_outcome(parameter_sweep, case.base, case.axis, case.values, case.probe)
        want = _sweep_outcome(
            reference_parameter_sweep, case.base, case.axis, case.values, case.probe
        )
        assert got == want
        _assert_same_spectrum(case.node, case.grid)
        series = transmission_spectrum(case.node, case.grid)
        assert _peak_outcome(locate_transparency_peak, series) == _peak_outcome(
            reference_locate_transparency_peak, series
        )
