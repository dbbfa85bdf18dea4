"""Transmission spectra, transparency-peak metrology and parameter sweeps.

Builds on the closed-form node scattering: evaluates |through|^2 and |drop|^2
over a probe-detuning grid, locates the dipole-induced transparency peak with
sub-grid parabolic refinement, and sweeps a single parameter while recording
the full flux budget per point.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple, Sequence

import numpy as np

from .core import (  # flux_budget and scattering_arrays stay importable from here
    FluxBudget,
    NumericsError,
    Probe,
    SystemParams,
    _FIELDS,
    _drop_arrays,
    _field_ok,
    _field_problem,
    _finite,
    _flux,
    _flux_arrays,
    _guard_denominators,
    _invalid_params,
    _iterable,
    _number,
    _power_arrays,
    _powers_in_range,
    _probe_value,
    flux_budget,  # noqa: F401
    scattering_arrays,  # noqa: F401
)

__all__ = [
    "SWEEP_AXES",
    "DetuningGrid",
    "SpectrumSeries",
    "PeakReport",
    "NoPeak",
    "SweepRow",
    "SweepTable",
    "transmission_spectrum",
    "locate_transparency_peak",
    "parameter_sweep",
]

SWEEP_AXES = _FIELDS[:-1]  # every field but omega0: the leading arguments of core._flux
# points per kernel call in transmission_spectrum, as fast as 32768 and faster
# than 8192: the real-part kernel writes the result with one 128 KiB work row;
# the complex one holds two complex temporaries of 256 KiB (x, and D) a block
_BLOCK = 16384
_INDICES = np.arange(_BLOCK, dtype=float)  # a block's grid indices, counted from its first point
# samples in the half-height search's first window; each next one is 4 times longer
_WINDOW = 1024


class NoPeak(NumericsError):
    """The through spectrum has no interior transparency peak."""


@dataclass(frozen=True)
class DetuningGrid:
    """Uniform grid of probe detunings, rad/s.

    A single-point grid (count = 1) requires start == stop; otherwise the
    grid must be a proper interval with start < stop whose width stop - start
    is a finite float.
    """

    start: float
    stop: float
    count: int

    def __post_init__(self):
        for name in ("start", "stop"):
            object.__setattr__(self, name, _finite(getattr(self, name), f"grid endpoint {name}"))
        try:
            count = operator.index(self.count)  # any integer, numpy's included
        except TypeError:
            count = 0
        if count < 1:
            raise ValueError(f"count must be a positive integer, got {self.count!r}")
        object.__setattr__(self, "count", count)
        if self.count == 1:
            if self.start != self.stop:
                raise ValueError("a 1-point grid requires start == stop")
        elif self.start >= self.stop:
            raise ValueError(
                f"grid requires start < stop, got [{self.start}, {self.stop}]"
            )
        elif not math.isfinite(self.stop - self.start):
            raise ValueError(
                f"grid width stop - start overflows the float range, got [{self.start}, {self.stop}]"
            )

    @property
    def step(self) -> float:
        if self.count == 1:
            return 0.0
        return (self.stop - self.start) / (self.count - 1)

    def points(self) -> np.ndarray:
        """The grid's detunings, the bits of ``np.linspace(start, stop, count)``."""
        with np.errstate(over="ignore"):  # stop replaces the one product that can overflow
            return _fill_points(self, np.empty(self.count))

    @classmethod
    def default(cls, params: SystemParams, span: float = 3.0, count: int = 2001) -> "DetuningGrid":
        """Symmetric grid of +-span*gamma around the cavity line."""
        span = _finite(span, "span")
        if span <= 0.0:
            raise ValueError(f"span must be positive, got {span!r}")
        if isinstance(count, numbers.Integral) and count == 1:
            raise ValueError("count must be at least 2 for a grid of +-span*gamma, got 1")
        half = span * params.gamma
        if math.isinf(half) or half == 0.0:
            fault = "overflows" if half else "underflows to 0"
            raise ValueError(f"span * gamma {fault}, got span {span!r} and gamma {params.gamma!r}")
        return cls(-half, half, count)


def _fill_points(grid: DetuningGrid, out: np.ndarray, first: int = 0) -> np.ndarray:
    """Write the grid's detunings ``first``, ``first + 1``, ... into ``out``.

    Each is what ``np.linspace(start, stop, count)`` makes: i * step + start
    for the exact integer i, where the step is (stop - start) / (count - 1),
    and ``stop`` for the last.  Where that step underflows to 0, linspace
    forms i / (count - 1) * (stop - start) + start instead, and the one
    point of a 1-point grid is 0 * 0 + start (so -0.0 gives +0.0).  The
    product for the last index can overflow, so the caller silences that
    warning.
    """
    if grid.count == 1:
        out[...] = 0.0 + grid.start
        return out
    width, div = grid.stop - grid.start, grid.count - 1
    step = width / div
    for at in range(0, out.size, _BLOCK):
        part = out[at:at + _BLOCK]
        index = _INDICES[:part.size]
        if first + at:
            index = np.add(index, first + at, out=part)
        if step == 0.0:
            np.divide(index, div, out=part)
            part *= width
        else:
            np.multiply(index, step, out=part)
        part += grid.start
    if first + out.size == grid.count:
        out[-1] = grid.stop
    return out


@dataclass(frozen=True, eq=False)
class SpectrumSeries:
    """Through/drop probabilities sampled at the detunings of a grid."""

    grid: DetuningGrid
    detuning: np.ndarray
    through: np.ndarray
    drop: np.ndarray


@dataclass(frozen=True)
class PeakReport:
    """Location, height and width of the transparency peak, rad/s units."""

    peak_detuning: float
    peak_value: float
    fwhm: float


def transmission_spectrum(params: SystemParams, grid: DetuningGrid) -> SpectrumSeries:
    """Evaluate |t_through|^2 and |t_drop|^2 on every grid point.

    Only the waveguide powers are formed; the intracavity and dipole
    amplitudes of :func:`~ditsim.core.scattering_arrays` are not needed.  The
    grid is evaluated in blocks of ``_BLOCK`` points, so the temporaries stay
    small, and each block's detunings are written into the ``detuning`` row
    just before the kernel reads them, by the generator of
    :meth:`DetuningGrid.points`, with the bits of ``np.linspace``.

    Where :func:`~ditsim.core._powers_in_range` holds for the node and the
    grid's ends, :func:`~ditsim.core._power_arrays` forms the powers from real
    parts: through is |D - gamma|^2 / |D|^2, free of the cancellation in
    1 + t_drop, with the bits of a per-point float evaluation on every CPU.
    Other nodes (tau = 0, subnormal rates, rates or detunings beyond 2^250
    rad/s) take the complex kernel, with the bits of ``scattering_arrays``,
    and the denominator guard checks each block.  When a block fails it, the
    whole grid is evaluated at once so that the error names the bad indices
    of the whole grid, with a degenerate dipole point anywhere reported
    first.  The three arrays of the result are the rows of one buffer.
    """
    # one allocation, not three: freed, it lifts glibc's trim threshold above
    # the call's working set, so the next call reuses pages instead of faulting
    points, through, drop = np.empty((3, grid.count))
    blocks = [slice(start, start + _BLOCK) for start in range(0, grid.count, _BLOCK)]
    if _powers_in_range(params, max(abs(grid.start), abs(grid.stop))):
        work = np.empty(min(grid.count, _BLOCK))
        for block in blocks:
            dw = _fill_points(grid, points[block], block.start)
            _power_arrays(params, dw, through[block], drop[block], work[:dw.size])
        return SpectrumSeries(grid=grid, detuning=points, through=through, drop=drop)
    # the guard reports the points that overflow, so numpy's warnings are
    # silenced; so is the overflow of the product that stop replaces
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for block in blocks:
            try:
                x, denom = _drop_arrays(params, _fill_points(grid, points[block], block.start))
                _guard_denominators(params, x, denom)
            except NumericsError:
                x, denom = _drop_arrays(params, _fill_points(grid, points))
                _guard_denominators(params, x, denom)  # raises the whole grid's error
                raise
            t_drop = np.divide(-params.gamma, denom, out=denom)
            block_through, block_drop = through[block], drop[block]
            np.abs(np.add(1.0, t_drop, out=x), out=block_through)  # x is spent: reuse it
            block_through **= 2
            np.abs(t_drop, out=block_drop)
            block_drop **= 2
            del x, denom, t_drop  # the next block's temporaries replace these, not join them
    return SpectrumSeries(grid=grid, detuning=points, through=through, drop=drop)


def _half_crossing(x: np.ndarray, y: np.ndarray, peak_idx: int, level: float, side: int) -> float | None:
    """Detuning where y first falls to ``level`` walking out from the peak.

    ``side`` is -1 (left) or +1 (right); linear interpolation between the
    bracketing samples.  Returns None when the curve never reaches the level
    on that side of the grid.
    """
    # windows that grow outward from the peak: a crossing near it reads few samples
    outward, begin, width = y[peak_idx::side], 0, _WINDOW
    while begin < outward.size:
        above = outward[begin:begin + width] > level
        steps = int(np.argmin(above))  # the first sample not above, if any
        if not above[steps]:
            break
        begin, width = begin + width, 4 * width
    else:
        return None
    i = peak_idx + side * (begin + steps)
    prev = i - side  # first sample still above the level
    y_i, y_prev = float(y[i]), float(y[prev])
    span = y_i - y_prev
    if not math.isfinite(span):
        raise _overflow(y, (prev, i))
    frac = 0.0 if span == 0.0 else (level - y_prev) / span
    x_prev = _finite_at(x, prev)
    return float(x_prev + frac * (_finite_at(x, i) - x_prev))


def _finite_at(values, i: int, what: str = "detuning") -> float:
    """``values[i]`` as a float; the few samples a peak report reads must be finite."""
    value = float(values[i])
    if not math.isfinite(value):
        raise ValueError(f"spectrum {what} must be finite, got {value} at index {i}")
    return value


def _overflow(y, indices) -> ValueError:
    """The error for finite through samples whose differences leave the float range."""
    samples = ", ".join(f"{float(y[i])} at index {i}" for i in sorted(set(indices)))
    return ValueError(f"spectrum through samples overflow the float range of the peak report: {samples}")


def locate_transparency_peak(series: SpectrumSeries) -> PeakReport:
    """Locate the through-channel transparency peak on a sampled spectrum.

    The discrete maximum is refined by fitting a parabola through the three
    samples around it.  The width is a full width at half height, where half
    height is measured between the refined peak value and the local baseline,
    defined as the mean of the lowest through value on each side of the peak
    (the floor of the dip the peak sits in).  On a side where the curve never
    drops to the half level inside the grid, the other side's half width is
    mirrored.  At least one side always drops to it: the half level is at
    least the baseline, which is at least the lower of the two sides' lowest
    samples.

    Raises
    ------
    NoPeak
        If the spectrum has fewer than 3 samples, if the maximum lies on a
        grid edge (monotone or dip-only spectra) or if the peak is
        indistinguishable from the baseline at 1e-12 relative.
    ValueError
        If ``detuning`` and ``through`` differ in length, if a ``through``
        sample is not finite, if the baseline, the peak height, the
        parabola's curvature, the half level or a half crossing's span
        overflows the float range (naming the samples it is formed from), or
        if a detuning that the report reads (peak sample, half-crossing
        brackets) is not finite.
    """
    y, x = np.asarray(series.through), series.detuning
    if len(x) != len(y):
        raise ValueError(
            f"spectrum has {len(x)} detunings but {len(y)} through samples"
        )
    if len(y) < 3:
        raise NoPeak(f"need at least 3 samples to locate a peak, got {len(y)}")
    # argmax picks the first nan, else the first +inf, and a side's minimum is
    # any -inf on it: checking these three samples checks every through sample
    idx = int(np.argmax(y))
    _finite_at(y, idx, "through sample")
    if idx == 0 or idx == len(y) - 1:
        raise NoPeak("through maximum lies on the grid edge; no interior peak")

    lows = int(np.argmin(y[: idx + 1])), idx + int(np.argmin(y[idx:]))
    low_left, low_right = (_finite_at(y, i, "through sample") for i in lows)
    ym, y0, yp = float(y[idx - 1]), float(y[idx]), float(y[idx + 1])
    baseline = 0.5 * (low_left + low_right)
    height = y0 - baseline  # not finite where the baseline is not either
    if not math.isfinite(height):
        raise _overflow(y, (*lows, idx))
    if height <= 1e-12 * max(abs(y0), abs(baseline), 1e-300):
        raise NoPeak("through peak is indistinguishable from the baseline")

    # parabola through (idx-1, idx, idx+1); offset clamped to half a step
    curvature = ym - 2.0 * y0 + yp
    offset = 0.0 if curvature == 0.0 else 0.5 * (ym - yp) / curvature
    offset = min(0.5, max(-0.5, offset))
    peak_detuning = _finite_at(x, idx) + offset * series.grid.step
    peak_value = y0 - 0.25 * (ym - yp) * offset

    level = 0.5 * (peak_value + baseline)
    if not (math.isfinite(curvature) and math.isfinite(level)):
        raise _overflow(y, (*lows, idx - 1, idx, idx + 1))
    left = _half_crossing(x, y, idx, level, -1)
    right = _half_crossing(x, y, idx, level, +1)
    if left is None:
        left = 2.0 * peak_detuning - right
    if right is None:
        right = 2.0 * peak_detuning - left
    return PeakReport(peak_detuning=peak_detuning, peak_value=float(peak_value), fwhm=float(right - left))


class SweepRow(NamedTuple):  # a tuple: a sweep builds one per row
    """One sweep point: the parameter value and its flux budget, or the
    constructor/evaluation error that made the point unusable."""

    value: float
    budget: FluxBudget | None
    error: str | None = None


@dataclass(frozen=True)
class SweepTable:
    axis: str
    probe: float
    rows: tuple[SweepRow, ...]


def _sweep_arrays(
    base: SystemParams, axis: str, values: Sequence[float], probe: Probe
) -> tuple[list[float], float, list[np.ndarray], dict[int, str]]:
    """:func:`parameter_sweep`'s rows as columns.

    Returns the swept values as floats, the probe detuning, the four flux
    fractions as float64 arrays (a row that the array pass flags carries the
    scalar kernel's floats; an error row's fractions mean nothing) and the
    message of each error row by row index, in ascending order.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    dw = _probe_value(probe)
    if isinstance(values, np.ndarray):
        values = values.tolist()  # the floats float() makes of its elements
    values = [raw if type(raw) is float else _number(raw, f"{axis} sweep value")
              for raw in _iterable(values, f"{axis} sweep values")]
    column = np.array(values, dtype=float)
    args = [getattr(base, name) for name in SWEEP_AXES] + [dw]
    slot = SWEEP_AXES.index(axis)
    args[slot] = column
    *fractions, flagged = _flux_arrays(*args)
    # a fraction that the swept axis does not reach is a read-only broadcast
    fractions = [f if f.flags.writeable else f.copy() for f in fractions]
    errors = {}
    for i in np.flatnonzero(flagged | ~_field_ok(axis, column)).tolist():
        value = args[slot] = values[i]
        # base's other fields are valid, so this is what SystemParams reports
        problem = _field_problem(axis, value)
        if problem:
            errors[i] = _invalid_params([problem])
            continue
        try:
            budget = _flux(*args)
        except NumericsError as exc:
            errors[i] = str(exc)
            continue
        for fraction, number in zip(fractions, budget):
            fraction[i] = number
    return values, dw, fractions, errors


def parameter_sweep(
    base: SystemParams, axis: str, values: Sequence[float], probe: Probe
) -> SweepTable:
    """Flux budget versus one swept parameter at a fixed probe detuning.

    The numbers of each row are those of
    ``flux_budget(replace(base, **{axis: value}), probe)``, bit for bit.  All
    rows are evaluated in one pass over arrays that repeats Python's complex
    arithmetic operation by operation, with no ``SystemParams`` built.  A row
    that this pass flags (a diverging dipole term, a denominator outside the
    guard, a non-finite fraction) is evaluated again on its own floats by the
    scalar kernel.  Invalid points (for example a non-positive gamma) do not
    abort the sweep; the offending row carries the message ``SystemParams``
    or the scalar kernel would raise, and a missing budget.  Row order
    follows ``values``.

    Every value must be a real number (strings are not parsed); all are
    checked before any row is evaluated, and the first that is not raises
    ``ValueError``.
    """
    values, dw, fractions, errors = _sweep_arrays(base, axis, values, probe)
    # build from a tuple of every field, skipping the keyword handling of __new__
    budgets = map(tuple.__new__, repeat(FluxBudget), zip(*(f.tolist() for f in fractions)))
    rows = list(map(tuple.__new__, repeat(SweepRow), zip(values, budgets, repeat(None))))
    for i, message in errors.items():
        rows[i] = SweepRow(values[i], None, message)
    return SweepTable(axis=axis, probe=dw, rows=tuple(rows))
