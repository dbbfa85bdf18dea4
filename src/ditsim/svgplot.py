"""Minimal deterministic SVG line plots, no plotting dependencies.

Output is a standalone SVG document with axes, tick labels, gridlines and a
legend.  Rendering is purely a function of the inputs, so identical data
produces byte-identical files.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _numtext

_PALETTE = ("#1f6feb", "#d73a49", "#2da44e", "#b08800", "#8250df", "#57606a")


@dataclass(frozen=True)
class LineSeries:
    label: str
    x: Sequence[float] | np.ndarray
    y: Sequence[float] | np.ndarray


def _escape(text: str) -> str:
    """``xml.sax.saxutils.escape``, whose module imports urllib, http, email and ssl."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _finite_span(finite: np.ndarray) -> tuple[float, float] | None:
    if not finite.size:
        return None
    return float(finite.min()), float(finite.max())


def _runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """(start, stop) of each run of True in a boolean mask."""
    padded = np.concatenate(([False], mask, [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1]).tolist()
    return list(zip(edges[::2], edges[1::2]))


def _padded(lo: float, hi: float, axis: str) -> tuple[float, float]:
    if lo == hi:
        pad = max(abs(lo) * 0.5, 1.0)
    else:
        pad = (hi - lo) * 0.05
    if not math.isfinite((hi + pad) - (lo - pad)):
        raise ValueError(f"{axis} axis overflows the float range once padded: data from {lo} to {hi}")
    return lo - pad, hi + pad


def _ticks(lo: float, hi: float, count: int = 6) -> list[float]:
    span = hi - lo
    raw = span / max(count, 1)
    # a finite step within two ulps of the ends may never advance across the
    # axis, and a subnormal or zero one has no reciprocal: such an axis is
    # marked at its ends only
    resolution = max(2.0 * math.ulp(max(abs(lo), abs(hi))), sys.float_info.min)
    if math.isfinite(raw) and raw <= resolution:
        return [lo, hi]
    magnitude = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * magnitude
    for mult in (1.0, 2.0, 2.5, 5.0):
        if raw <= mult * magnitude:
            step = mult * magnitude
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-9 * span:
        ticks.append(round(v / step) * step)
        v += step
    return ticks


def _tick_label(v: float) -> str:
    if v == 0:
        return "0"
    return f"{v:.10g}"


def render_lines(
    lines: Sequence[LineSeries],
    *,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    width: int = 720,
    height: int = 480,
) -> str:
    """Render line series into a self-contained SVG document string."""
    left, right, top, bottom = 64, 18, 38, 48
    plot_w = width - left - right
    plot_h = height - top - bottom

    # every series end to end, so each step below is one array operation
    sizes = [(len(s.x), len(s.y)) for s in lines]
    x_all = np.concatenate([np.asarray(s.x, dtype=float) for s in lines] or [()])
    y_all = np.concatenate([np.asarray(s.y, dtype=float) for s in lines] or [()])
    x_ok, y_ok = np.isfinite(x_all), np.isfinite(y_all)
    # spans count every finite x and every finite y, paired or not
    xspan = _finite_span(x_all[x_ok]) or (0.0, 1.0)
    yspan = _finite_span(y_all[y_ok]) or (0.0, 1.0)
    x_lo, x_hi = _padded(*xspan, "x")
    y_lo, y_hi = _padded(*yspan, "y")

    def px(x):
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return top + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="22" text-anchor="middle" '
            f'font-size="15">{_escape(title)}</text>'
        )

    for tx in _ticks(x_lo, x_hi):
        x = px(tx)
        parts.append(
            f'<line x1="{x:.2f}" y1="{top}" x2="{x:.2f}" y2="{top + plot_h}" '
            f'stroke="#eeeeee"/>'
        )
        parts.append(
            f'<line x1="{x:.2f}" y1="{top + plot_h}" x2="{x:.2f}" '
            f'y2="{top + plot_h + 5}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{top + plot_h + 18}" '
            f'text-anchor="middle">{_escape(_tick_label(tx))}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        y = py(ty)
        parts.append(
            f'<line x1="{left}" y1="{y:.2f}" x2="{left + plot_w}" y2="{y:.2f}" '
            f'stroke="#eeeeee"/>'
        )
        parts.append(
            f'<line x1="{left - 5}" y1="{y:.2f}" x2="{left}" y2="{y:.2f}" '
            f'stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{left - 8}" y="{y + 4:.2f}" '
            f'text-anchor="end">{_escape(_tick_label(ty))}</text>'
        )

    # frame drawn after gridlines so it stays crisp
    parts.append(
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333"/>'
    )
    if xlabel:
        parts.append(
            f'<text x="{left + plot_w / 2:.1f}" y="{height - 10}" '
            f'text-anchor="middle">{_escape(xlabel)}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="16" y="{top + plot_h / 2:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 16 {top + plot_h / 2:.1f})">{_escape(ylabel)}</text>'
        )

    # px/py on whole arrays: same operations in the same order as on scalars;
    # overflow gives inf there, as float arithmetic does
    with np.errstate(all="ignore"):
        sx, sy = px(x_all), py(y_all)
    x0 = y0 = 0
    for i, (nx, ny) in enumerate(sizes):
        color = _PALETTE[i % len(_PALETTE)]
        n = min(nx, ny)
        for start, stop in _runs(x_ok[x0:x0 + n] & y_ok[y0:y0 + n]):
            xs, ys = sx[x0 + start:x0 + stop], sy[y0 + start:y0 + stop]
            if stop - start > 1:
                points = _numtext.join_cells(np.array((xs, ys)).T, _numtext.F2, [",", " "])
                parts.append(
                    f'<polyline points="{points}" fill="none" '
                    f'stroke="{color}" stroke-width="1.5"/>'
                )
            else:
                parts.append(
                    f'<circle cx="{float(xs[0]):.2f}" cy="{float(ys[0]):.2f}" '
                    f'r="2.5" fill="{color}"/>'
                )
        x0 += nx
        y0 += ny

    legend_x = left + plot_w - 150
    legend_y = top + 12
    for i, series in enumerate(lines):
        if not series.label:
            continue
        color = _PALETTE[i % len(_PALETTE)]
        y = legend_y + 16 * i
        parts.append(
            f'<line x1="{legend_x}" y1="{y}" x2="{legend_x + 22}" y2="{y}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{legend_x + 28}" y="{y + 4}">{_escape(series.label)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
