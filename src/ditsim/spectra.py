"""Transmission spectra, transparency-peak metrology and parameter sweeps.

Builds on the closed-form node scattering: evaluates |through|^2 and |drop|^2
over a probe-detuning grid, locates the dipole-induced transparency peak with
sub-grid parabolic refinement, and sweeps a single parameter while recording
the full flux budget per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import (  # flux_budget and scattering_arrays stay importable from here
    FluxBudget,
    NumericsError,
    Probe,
    SystemParams,
    _drop_arrays,
    _field_problem,
    _flux,
    _probe_value,
    flux_budget,  # noqa: F401
    scattering_arrays,  # noqa: F401
)

SWEEP_AXES = ("gamma", "g", "tau", "kappa", "delta")  # leading arguments of core._flux


class NoPeak(NumericsError):
    """The through spectrum has no interior transparency peak."""


@dataclass(frozen=True)
class DetuningGrid:
    """Uniform grid of probe detunings, rad/s.

    A single-point grid (count = 1) requires start == stop; otherwise the
    grid must be a proper interval with start < stop.
    """

    start: float
    stop: float
    count: int

    def __post_init__(self):
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError("grid endpoints must be finite")
        if not isinstance(self.count, int) or self.count < 1:
            raise ValueError(f"count must be a positive integer, got {self.count!r}")
        if self.count == 1:
            if self.start != self.stop:
                raise ValueError("a 1-point grid requires start == stop")
        elif self.start >= self.stop:
            raise ValueError(
                f"grid requires start < stop, got [{self.start}, {self.stop}]"
            )

    @property
    def step(self) -> float:
        if self.count == 1:
            return 0.0
        return (self.stop - self.start) / (self.count - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)

    @classmethod
    def default(cls, params: SystemParams, span: float = 3.0, count: int = 2001) -> "DetuningGrid":
        """Symmetric grid of +-span*gamma around the cavity line."""
        return cls(-span * params.gamma, span * params.gamma, count)


@dataclass(frozen=True, eq=False)
class SpectrumSeries:
    """Through/drop probabilities sampled over a detuning grid."""

    params: SystemParams
    grid: DetuningGrid
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

    Only the waveguide amplitudes are formed; the intracavity and dipole
    amplitudes of :func:`~ditsim.core.scattering_arrays` are not needed.
    """
    t_drop = _drop_arrays(params, grid.points())[2]
    return SpectrumSeries(
        params=params,
        grid=grid,
        through=np.abs(1.0 + t_drop) ** 2,
        drop=np.abs(t_drop) ** 2,
    )


def _grid_point(grid: DetuningGrid, i: int) -> float:
    """``grid.points()[i]`` without building the array.

    Follows ``numpy.linspace`` step for step (start plus i times the step, or
    i / (count - 1) times the span where the step underflows to zero, and the
    last point pinned to ``stop``), so the value is bit-identical.
    """
    div = grid.count - 1
    if not 0 <= i <= div:
        raise IndexError(f"index {i} is out of bounds for a grid of {grid.count} points")
    if i == div and div > 0:
        return float(grid.stop)
    start = float(grid.start)
    delta = float(grid.stop) - start
    if div == 0:
        return i * delta + start
    step = delta / div
    if step == 0.0:  # the step underflows: scale by i / div instead
        return i / div * delta + start
    return i * step + start


def _half_crossing(grid: DetuningGrid, y: np.ndarray, peak_idx: int, level: float, side: int) -> float | None:
    """Detuning where y first falls to ``level`` walking out from the peak.

    ``side`` is -1 (left) or +1 (right); linear interpolation between the
    bracketing samples.  Returns None when the curve never reaches the level
    on that side of the grid.
    """
    i = peak_idx
    last = 0 if side < 0 else len(y) - 1
    while i != last and y[i] > level:
        i += side
    if y[i] > level:
        return None
    prev = i - side  # first sample still above the level
    span = y[i] - y[prev]
    frac = 0.0 if span == 0.0 else (level - y[prev]) / span
    x_prev = _grid_point(grid, prev)
    return float(x_prev + frac * (_grid_point(grid, i) - x_prev))


def locate_transparency_peak(series: SpectrumSeries) -> PeakReport:
    """Locate the through-channel transparency peak on a sampled spectrum.

    The discrete maximum is refined by fitting a parabola through the three
    samples around it.  The width is a full width at half height, where half
    height is measured between the refined peak value and the local baseline,
    defined as the mean of the lowest through value on each side of the peak
    (the floor of the dip the peak sits in).  On a side where the curve never
    drops to the half level inside the grid, the other side's half width is
    mirrored.

    Raises
    ------
    NoPeak
        If the maximum lies on a grid edge (monotone or dip-only spectra) or
        the peak is indistinguishable from the baseline at 1e-12 relative.
    """
    y = series.through
    if len(y) < 3:
        raise NoPeak(f"need at least 3 samples to locate a peak, got {len(y)}")
    idx = int(np.argmax(y))
    if idx == 0 or idx == len(y) - 1:
        raise NoPeak("through maximum lies on the grid edge; no interior peak")

    baseline = 0.5 * (float(np.min(y[: idx + 1])) + float(np.min(y[idx:])))
    if y[idx] - baseline <= 1e-12 * max(abs(y[idx]), abs(baseline), 1e-300):
        raise NoPeak("through peak is indistinguishable from the baseline")

    # parabola through (idx-1, idx, idx+1); offset clamped to half a step
    ym, y0, yp = float(y[idx - 1]), float(y[idx]), float(y[idx + 1])
    curvature = ym - 2.0 * y0 + yp
    offset = 0.0 if curvature == 0.0 else 0.5 * (ym - yp) / curvature
    offset = min(0.5, max(-0.5, offset))
    peak_detuning = _grid_point(series.grid, idx) + offset * series.grid.step
    peak_value = y0 - 0.25 * (ym - yp) * offset

    level = 0.5 * (peak_value + baseline)
    left = _half_crossing(series.grid, y, idx, level, -1)
    right = _half_crossing(series.grid, y, idx, level, +1)
    if left is None and right is None:
        raise NoPeak("through curve never reaches half height inside the grid")
    if left is None:
        left = 2.0 * peak_detuning - right
    if right is None:
        right = 2.0 * peak_detuning - left
    return PeakReport(peak_detuning=peak_detuning, peak_value=float(peak_value), fwhm=float(right - left))


@dataclass(frozen=True)
class SweepRow:
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


def parameter_sweep(
    base: SystemParams, axis: str, values: Sequence[float], probe: Probe
) -> SweepTable:
    """Flux budget versus one swept parameter at a fixed probe detuning.

    Each row is evaluated on plain floats, the base parameters with the swept
    value substituted, without rebuilding a ``SystemParams``; the numbers are
    those of ``flux_budget(replace(base, **{axis: value}), probe)``.  Invalid
    points (for example a non-positive gamma) do not abort the sweep; the
    offending row carries the ``SystemParams`` or evaluation error message and
    a missing budget.  Row order follows ``values``.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    dw = _probe_value(probe)
    args = [getattr(base, name) for name in SWEEP_AXES] + [dw]
    slot = SWEEP_AXES.index(axis)
    rows = []
    for raw in values:
        value = float(raw)
        try:
            if _field_problem(axis, value):
                replace(base, **{axis: value})  # raises with the SystemParams message
            args[slot] = value
            rows.append(SweepRow(value, _flux(*args)))
        except (ValueError, NumericsError) as exc:
            rows.append(SweepRow(value=value, budget=None, error=str(exc)))
    return SweepTable(axis=axis, probe=dw, rows=tuple(rows))
