"""The array float formatter against CPython, cell by cell, in all three styles.

``ditsim._numtext.join_cells`` must give the bytes of ``format(x, ".17g")``,
of ``repr(x)`` (with JSON's names for the non-finite values) and of
``format(x, ".2f")``.  The cells its fast path cannot certify go to CPython;
each reason for that is exercised by a named case below.  The table and plot
cases run the CLI writer and the SVG renderer through the kernel, one row or
point below, at and above the size where they switch to it, against the
per-cell references of ``test_cli`` and ``test_svgplot``.

``--hypothesis-profile=soak`` runs the property tests with many more examples.
"""

import math
import struct
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ditsim import _numtext
from ditsim.cli import ResultTable
from ditsim.svgplot import LineSeries
from test_cli import assert_same_table_bytes
from test_svgplot import assert_same_svg

G17, JSON, F2 = _numtext.G17, _numtext.JSON, _numtext.F2
STYLES = (G17, JSON, F2)
FORMAT = {G17: "csv", JSON: "json"}  # the result-file format whose cells take each style
_JSON_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def reference(x, style):
    if style == G17:
        return format(x, ".17g")
    if style == F2:
        return format(x, ".2f")
    return _JSON_NAMES.get(repr(x), repr(x))


def assert_matches(values, style):
    # through the kernel whatever the size, and as join_cells picks
    values = [float(v) for v in values]
    column = np.array(values).reshape(-1, 1)
    with mock.patch.object(_numtext, "_KERNEL_CELLS", 1):
        got = _numtext.join_cells(column, style, ["\n"])
    want = [reference(x, style) for x in values]
    mismatches = [(x, g, w) for x, g, w in zip(values, got.split("\n"), want) if g != w]
    assert not mismatches, mismatches[:5]
    assert got == "\n".join(want)
    assert _numtext.join_cells(column, style, ["\n"]) == got


def handed_over(values, style):
    """Which cells the fast path leaves to CPython."""
    return _numtext._body(np.array(values, dtype=float), style)[1]


def neighbours(x, steps=3):
    """x and its ``steps`` nearest floats on each side."""
    out, below, above = [x], x, x
    for _ in range(steps):
        below, above = np.nextafter(below, -math.inf), np.nextafter(above, math.inf)
        out += [float(below), float(above)]
    return out


POWERS_OF_TWO = [2.0**k for k in range(-1074, 1024)]
EDGES = (
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308]
    + [math.nan, math.inf, -math.inf, 1e23, 1.7976931348623157e308]
    + POWERS_OF_TWO
    + [-x for x in POWERS_OF_TWO[::5]]
    + [y for x in (1e-5, 1e-4, 1e16, 1e17, 1e-280, 1e280, 1e13, 0.1, 1.0, 10.0) for y in neighbours(x)]
    + [0.125, 0.375, 2.675, -0.005, 0.005, 1.005, -0.001, 9.995, 1 + 3 * 2.0**-17]
    + [float(i) for i in range(-1000, 1001)]
    + [2.0**53, 2.0**53 + 2, 1e15, 123456789012345680.0, 99999999999999999.0]
)


@pytest.mark.parametrize("style", STYLES)
def test_named_edge_cases_match_cpython(style):
    assert_matches(EDGES, style)
    assert_matches([-x for x in EDGES], style)


# each reason the fast path hands a cell to CPython, with cells that have it
HANDED = [
    ("zero", STYLES, [0.0, -0.0]),
    ("non-finite", STYLES, [math.nan, math.inf, -math.inf]),
    ("outside the scaled range", (G17, JSON), [1e-300, -1e300, 5e-324, 1e-310]),
    ("outside the .2f range", (F2,), [9999.0, 1e13, -123.456, -1e300]),
    ("a tie at 17 digits", (G17, JSON), [1 + 3 * 2.0**-17, 1 + 2.0**-17]),
    ("a .2f tie", (F2,), [0.125, 2.675, -0.005, 0.375]),
    # 1e23 sits exactly on the edge; the others are within rounding of it
    ("the edge of the round-trip interval", (JSON,),
     [1e23, 1.782661491488628e17, 4.3212455874929043e17, -9.661328199695761e17]),
    ("a power of two", (JSON,), [0.5, 1024.0, 2.0**-20, 2.0**60, -2.0**-900]),
]


@pytest.mark.parametrize(
    "style, values",
    [pytest.param(style, values, id=f"{reason}-{style}")
     for reason, styles, values in HANDED for style in styles],
)
def test_each_reason_to_hand_over_is_taken(style, values):
    assert handed_over(values, style).all()
    assert_matches(values, style)


@pytest.mark.parametrize("style", STYLES)
def test_plain_values_take_the_fast_path(style):
    values = [0.1, 1 / 3, 2.5e-7, 0.30000000000000004, 7.0, 1e-4, 702.123, 9998.99]
    if style != F2:  # outside .2f's range, and a .2f near-tie
        values += [-123.456, 6.02e23, 12.345]
    assert not handed_over(values, style).any()
    assert_matches(values, style)


# Proofs in exact arithmetic, after Ryu (Adams, PLDI 2018): what the kernel
# relies on is checked for every input it can see, not sampled.


def _floor_log10(x):
    """The decimal exponent e of float x > 0: 10**e <= x < 10**(e + 1), exactly."""
    e, exact = math.floor(math.log10(x)), Fraction(x)
    e -= Fraction(10) ** e > exact
    return e + (Fraction(10) ** (e + 1) <= exact)


def test_at_most_one_15_digit_decimal_lies_within_half_an_ulp():
    # _shortest searches no length below 15 (Matula, CACM 1968): across each
    # decade [10**e, 10**(e + 1)) of the scaled range, 15-digit decimals lie
    # 10**(e - 14) apart, more than the ulp of the decade's largest double,
    # so no two lie within half an ulp of one double, and a shorter rounding
    # that reads back is the 15-digit one
    decades = range(_floor_log10(_numtext._MIN), _floor_log10(_numtext._MAX) + 1)
    assert (decades.start, decades.stop) == (-281, 281)
    for e in decades:
        top = Fraction(10) ** (e + 1)
        largest = float(top)
        if Fraction(largest) >= top:
            largest = math.nextafter(largest, 0.0)
        assert Fraction(math.ulp(largest)) < Fraction(10) ** (e - 14), e


def _significant_bits(x):
    """Bits of float x's significand, without its trailing zeros (0 for 0)."""
    n = abs(Fraction(x)).numerator
    return (n // (n & -n)).bit_length() if n else 0


def test_each_double_double_power_of_ten_is_within_its_bound():
    # hi is 10**k correctly rounded and lo the rest correctly rounded, so
    # |hi + lo - 10**k| <= ulp(lo) / 2 <= 2**-106 * 10**k; and each Veltkamp
    # split is exact, in halves of at most 26 bits, so the Dekker products
    # of _scaled are exact
    t = _numtext._tables()
    powers = range(_numtext._K_LO, _numtext._K_HI + 1)
    assert len(powers) == len(t["hi"]) == len(t["lo"]) == 565
    for k, hi, lo, high, low in zip(powers, *(t[n].tolist() for n in ("hi", "lo", "hi_high", "hi_low"))):
        exact = Fraction(10) ** k
        assert abs(Fraction(hi) + Fraction(lo) - exact) <= exact / 2**106, k
        assert Fraction(high) + Fraction(low) == Fraction(hi), k
        assert max(_significant_bits(high), _significant_bits(low)) <= 26, k


def _float_from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


bit_patterns = st.integers(0, 2**64 - 1).map(_float_from_bits)


@pytest.mark.parametrize("style", STYLES)
@given(values=st.lists(bit_patterns, min_size=1, max_size=64))
def test_bit_patterns_match_cpython(style, values):
    assert_matches(values, style)


@pytest.mark.parametrize("style", STYLES)
@given(values=st.lists(st.floats(), min_size=1, max_size=64))
def test_floats_match_cpython(style, values):
    assert_matches(values, style)


# .2f's fast path writes a whole part of up to four digits, the lone "0" of
# 0 included, and hands over negative values and values from 9999 up (9999.995
# would round up to five digits); across that edge every cell is CPython's
@given(values=st.lists(st.floats(0.0, 1e4) | st.floats(-2e13, 2e13), min_size=1, max_size=64))
@example(values=[9999.0, 9999.99, 9999.994999999999, 9999.995, 10000.0, 10000.004, 0.5])
@example(values=[99999999.99, 99999999.995, 100000000.0, 100000001.5, 0.25, 7.0])
@example(values=[-1.5, -702.123, -0.001, -9999.995, -10000.0, -123456789.01, 64.0])
@example(values=[-0.0, 0.0, -0.004, -0.005, -0.006, 0.004])
# a tie, and cents fractions 0.5e-12 and 2e-12 from one, either side of the margin
@example(values=[0.125, 0.125 + 0.5e-14, 0.125 - 0.5e-14, 0.125 + 2e-14, 0.125 - 2e-14, 2.675,
                 *neighbours(2.675), *neighbours(9999.995), 1.005 + 2e-14, 1.005 - 2e-14])
@example(values=[1e13, -1e13, *neighbours(1e13), 9999999999999.99, -9999999999999.995])
def test_f2_coordinates_match_cpython(values):
    assert_matches(values, F2)


@st.composite
def decimal_floats(draw):
    """Floats read from decimal strings of 1 to 17 significant digits, some
    with trailing zeros, at exponents across and around the scaled range."""
    digits = draw(st.integers(1, 17))
    mantissa = str(draw(st.integers(10 ** (digits - 1), 10**digits - 1)))
    zeros = "0" * draw(st.integers(0, 3))
    exponent = draw(st.one_of(
        st.integers(-300, 300), st.integers(-284, -276), st.integers(276, 284), st.integers(-6, 20)
    ))
    sign = draw(st.sampled_from(["", "-"]))
    return float(f"{sign}{mantissa[0]}.{mantissa[1:]}{zeros}e{exponent}")


@pytest.mark.parametrize("style", STYLES)
@given(values=st.lists(decimal_floats(), min_size=1, max_size=64))
def test_short_decimals_match_cpython(style, values):
    # repr's shorter lengths, which random bit patterns almost never reach
    assert_matches(values, style)


@pytest.mark.parametrize("style", STYLES)
def test_rows_separators_and_blocks_match_cpython(style):
    rng = np.random.default_rng(1)
    cols = 5
    rows = 2 * _numtext._BLOCK // cols + 3  # three blocks
    values = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-20, 20, (rows, cols))
    values[::11, 2] = 0.0
    values[5, 4] = math.nan
    for seps in ([","] * 4 + ["\n"], [",\n      "] * 4 + ["\n    ],\n    [\n      "], ["", "ab", "c", "", "\n"]):
        want = "".join(
            reference(x, style) + seps[j] for row in values.tolist() for j, x in enumerate(row)
        )
        assert _numtext.join_cells(values, style, seps) == want[:len(want) - len(seps[-1])]
    assert _numtext.join_cells(np.empty((0, 2)), style, [",", "\n"]) == ""
    with pytest.raises(ValueError, match="separators"):
        _numtext.join_cells(values, style, [","])
    # the text is built with 0 bytes as no character, so a "\0" would vanish
    with pytest.raises(ValueError, match="must not hold"):
        _numtext.join_cells(values, style, [","] * 4 + ["\0\n"])


def _float_table(rows, cols=5, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-12, 12, (rows, cols))
    values[::7, 1] = 0.0
    values[3 % rows, cols - 1] = math.nan
    values[rows // 2, 0] = -math.inf
    names = tuple(f"c{j}" for j in range(cols))
    return ResultTable({"rows": rows}, names, tuple(map(tuple, values.tolist())))


@pytest.mark.parametrize("style", [G17, JSON])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_float_tables_around_the_crossover_match_reference(style, offset):
    rows = -(-_numtext._KERNEL_CELLS // 5) + offset
    assert_same_table_bytes(_float_table(rows, seed=rows), [FORMAT[style]])


@pytest.mark.parametrize("style", [G17, JSON])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_sweep_style_columns_around_the_crossover_match_reference(style, offset):
    # each float column at the size where it alone would switch to the
    # kernel; the writer formats the float cells of all rows together, and
    # test_cli's sweep cases run the crossovers of that
    rows = _numtext._KERNEL_CELLS + offset
    rng = np.random.default_rng(rows)
    value = np.linspace(-0.3, 2.9, rows).tolist()
    table = []
    for i, v in enumerate(value):
        if i % 97 == 3:
            table.append((v, None, None, None, None, "gamma must be > 0, got -0.1"))
        else:
            through, drop = rng.random(2).tolist()
            table.append((v, through, drop, 1e-3 * through, 1e-9 * drop, ""))
    names = ("value_thz", "through", "drop", "loss_kappa", "loss_tau", "error")
    assert_same_table_bytes(ResultTable({"axis": "gamma"}, names, tuple(table)), [FORMAT[style]])


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_plot_lines_around_the_crossover_match_reference(offset):
    points = _numtext._KERNEL_CELLS // 2 + offset  # a point is two cells
    x = np.linspace(-3.0, 3.0, points)
    y = 1.0 / (1.0 + x**2)
    assert_same_svg([LineSeries("through", x, y), LineSeries("drop", x, 1.0 - y)], title="t")
    y[points // 3] = math.nan  # two shorter runs, both below the crossover
    assert_same_svg([LineSeries("gap", x.tolist(), y.tolist())])
