"""SVG rendering: the whole-series path against the per-point reference loop."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from xml.sax.saxutils import escape

from ditsim import _numtext
from ditsim.svgplot import (
    _PALETTE,
    LineSeries,
    _escape,
    _padded,
    _tick_label,
    _ticks,
    render_lines,
)


def _reference_span(values):
    lo = math.inf
    hi = -math.inf
    for v in values:
        if math.isfinite(v):
            lo = min(lo, v)
            hi = max(hi, v)
    if lo > hi:
        return None
    return lo, hi


def reference_render(lines, *, title="", xlabel="", ylabel="", width=720, height=480):
    """The per-point renderer that the whole-series path replaced."""
    left, right, top, bottom = 64, 18, 38, 48
    plot_w = width - left - right
    plot_h = height - top - bottom

    xs = [v for s in lines for v in s.x]
    ys = [v for s in lines for v in s.y]
    xspan = _reference_span(xs) or (0.0, 1.0)
    yspan = _reference_span(ys) or (0.0, 1.0)
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
            f'font-size="15">{escape(title)}</text>'
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
            f'text-anchor="middle">{escape(_tick_label(tx))}</text>'
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
            f'text-anchor="end">{escape(_tick_label(ty))}</text>'
        )
    parts.append(
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333"/>'
    )
    if xlabel:
        parts.append(
            f'<text x="{left + plot_w / 2:.1f}" y="{height - 10}" '
            f'text-anchor="middle">{escape(xlabel)}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="16" y="{top + plot_h / 2:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 16 {top + plot_h / 2:.1f})">{escape(ylabel)}</text>'
        )

    for i, series in enumerate(lines):
        color = _PALETTE[i % len(_PALETTE)]
        run = []
        segments = []
        for x, y in zip(series.x, series.y):
            if math.isfinite(x) and math.isfinite(y):
                run.append(f"{px(x):.2f},{py(y):.2f}")
            elif run:
                segments.append(run)
                run = []
        if run:
            segments.append(run)
        for seg in segments:
            if len(seg) == 1:
                cx, cy = seg[0].split(",")
                parts.append(f'<circle cx="{cx}" cy="{cy}" r="2.5" fill="{color}"/>')
            else:
                parts.append(
                    f'<polyline points="{" ".join(seg)}" fill="none" '
                    f'stroke="{color}" stroke-width="1.5"/>'
                )

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
            f'<text x="{legend_x + 28}" y="{y + 4}">{escape(series.label)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def assert_same_svg(lines, **labels):
    try:
        want = reference_render(lines, **labels)
    except (ValueError, OverflowError) as exc:
        with pytest.raises(type(exc)):
            render_lines(lines, **labels)
        return
    assert render_lines(lines, **labels) == want


# mostly plain values, with gaps, signed zeros and extremes mixed in
values = st.one_of(
    st.floats(-10.0, 10.0),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-300, 5e-324]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def series_lists(draw):
    lines = []
    for i in range(draw(st.integers(1, 4))):
        n = draw(st.integers(0, 25))
        x = draw(st.lists(values, min_size=n, max_size=n))
        y = draw(st.lists(values, min_size=n, max_size=n))
        lines.append(LineSeries(draw(st.sampled_from(["", "a", f"s{i}", "<&>"])), x, y))
    return lines


@settings(max_examples=120, deadline=None)
@given(series_lists())
def test_render_matches_reference(lines):
    assert_same_svg(lines, title="t", xlabel="x", ylabel="y")


@st.composite
def spanned_series(draw):
    """Series about a centre, spread over 1e-300 to 1e300 or constant, with
    NaN gaps and infinities; a series can be a single point."""
    lines = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 30))
        center = draw(st.sampled_from([0.0, 1.0, -7.5e3, 1e-300, -1e300, 1e300]))
        cells = []
        for _axis in "xy":
            span = 10.0 ** draw(st.integers(-300, 300))
            if draw(st.booleans()):
                v = [center + span] * n
            else:
                v = [center + span * u for u in draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))]
            for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
                v[i] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
            cells.append(v)
        lines.append(LineSeries("", *cells))
    return lines


@settings(max_examples=200, deadline=None)
@given(spanned_series())
def test_polyline_coordinates_stay_in_the_f2_fast_path_range(lines):
    # _numtext's .2f kernel writes values in [0, _F2_MAX); render_lines is
    # its one caller and must pass it nothing else
    passed, join_cells = [], _numtext.join_cells

    def spy(values, style, seps):
        if style == _numtext.F2:
            passed.append(np.asarray(values, dtype=float).ravel())
        return join_cells(values, style, seps)

    with mock.patch.object(_numtext, "join_cells", spy):
        render_lines(lines)
    coordinates = np.concatenate(passed or [np.empty(0)])
    assert ((coordinates >= 0.0) & (coordinates < _numtext._F2_MAX)).all(), coordinates


@pytest.mark.parametrize(
    "x, y",
    [
        ([], []),  # empty
        ([1.0], [2.0]),  # one point, both spans degenerate
        ([0.0, 1.0, 2.0, 3.0], [0.5, 0.5, 0.5, 0.5]),  # constant data
        ([math.nan] * 3, [1.0, 2.0, 3.0]),  # no finite point at all
        ([0.0, 1.0, 2.0], [math.inf, -math.inf, math.nan]),
        ([0.0, 1.0, 2.0, 3.0, 4.0], [1.0, math.nan, 2.0, 3.0, math.nan]),  # one-point run, then a line
        ([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, math.nan, 4.0]),  # line, then a one-point run
        ([-0.0, 0.0, 1.0], [0.0, -0.0, 1.0]),
        ([0, 1, 2], [3, 4, 5]),  # ints
    ],
)
def test_render_edge_cases_match_reference(x, y):
    assert_same_svg([LineSeries("s", x, y)], title="edge")
    assert_same_svg([LineSeries("s", x, y), LineSeries("t", y, x)])


def test_render_arrays_and_ragged_series_match_reference():
    rng = np.random.default_rng(5)
    x = np.linspace(-3.0, 3.0, 2001)
    y = 1.0 / (1.0 + x**2)
    y[rng.integers(0, x.size, 40)] = np.nan
    assert_same_svg([LineSeries("array", x, y), LineSeries("list", x.tolist(), (2 * y).tolist())])
    # a longer x than y: the span counts every x, the line stops with y
    assert_same_svg([LineSeries("ragged", [0.0, 1.0, 2.0, 50.0], [1.0, 2.0, 3.0])])


@settings(max_examples=300, deadline=None)
@given(st.text() | st.text(alphabet="&<>;amplgt\"' "))
def test_escape_matches_saxutils(text):
    assert _escape(text) == escape(text)


@pytest.mark.parametrize(
    "lo, hi",
    [
        (0.0, 5e-324),  # the step rounds to zero
        (-1e-323, 1e-323),  # a subnormal step
        (1.0, math.nextafter(1.0, 2.0)),  # a step below an ulp of the ends
    ],
)
def test_ticks_of_an_axis_the_step_cannot_resolve_mark_its_ends(lo, hi):
    assert _ticks(lo, hi) == [lo, hi]


def test_render_of_a_one_ulp_axis_finishes():
    # a tick step below half an ulp of the ends would never advance the tick loop
    x = [1.0, math.nextafter(1.0, 2.0)]
    svg = render_lines([LineSeries("s", x, [0.0, 1.0]), LineSeries("t", [5e-324, 0.0], x)])
    assert svg.count("<polyline") == 2
    assert_same_svg([LineSeries("s", x, [0.0, 1.0])])


@pytest.mark.parametrize(
    "x, y, axis",
    [
        ([-1.7e308, 1.7e308], [0.0, 1.0], "x"),  # the data span itself overflows
        ([1e308, 1.79e308], [0.0, 1.0], "x"),  # the padded upper end overflows
        ([0.0, 1.0], [1.7e308, 1.7e308], "y"),  # one value, padded by half of it
    ],
)
def test_render_names_an_axis_whose_padded_span_overflows(x, y, axis):
    with pytest.raises(ValueError, match=f"^{axis} axis overflows the float range once padded"):
        render_lines([LineSeries("a", x, y)])
