"""Float arrays to text, byte for byte as CPython formats each float.

``join_cells(values, style, seps)`` writes every cell of a 2-D float64 array
in row-major order, each followed by the separator of its column, and drops
the separator after the last cell (so one column with one separator is
``sep.join``).  Only it decides how floats become text: from
``_KERNEL_CELLS`` = 400 cells on, in any style, the array kernel below
(about 0.15-0.4 ms a call); below that, CPython cell by cell.  The styles are

* ``G17``:  ``format(x, ".17g")``  (CSV cells),
* ``JSON``: ``repr(x)``, with ``NaN``, ``Infinity`` and ``-Infinity`` for
  the non-finite values  (JSON cells),
* ``F2``:   ``format(x, ".2f")``  (SVG coordinates).

The digits come from integer arithmetic on a double-double scaling of each
value, in the manner of Grisu3 (Loitsch, PLDI 2010).  ``repr``'s digits are
the 15-digit rounding where it reads back, else the 16-digit one, else 17:
no search, as no shorter rounding but the 15-digit one can read back
(Matula, CACM 1968).  A cell whose digits the fast path cannot certify is
formatted by CPython instead, so every byte is CPython's.  Cells handed
over: zero, non-finite values, magnitudes outside [1e-280, 1e280] (``.2f``:
values outside [0, 9999)), roundings within ``_TIE`` (``.2f``: ``_F2_TIE``)
of a tie, ``repr`` candidates within ``_ROUND_TRIP`` (relative) of the edge
of the round-trip interval, and powers of two for ``repr`` (their interval
is lopsided).
"""

from __future__ import annotations

import functools
from itertools import repeat
from typing import Sequence

import numpy as np

G17 = ".17g"
JSON = "json"
F2 = ".2f"

# arrays of at least this many cells go through the kernel, in every style
_KERNEL_CELLS = 400
_NONFINITE_JSON = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _python_cells(values: list[float], style: str) -> list[str]:
    """CPython's text of each float in the style."""
    if style == JSON:
        texts = list(map(float.__repr__, values))
        return list(map(_NONFINITE_JSON.get, texts, texts))
    return list(map(float.__format__, values, repeat(style)))  # G17 and F2 are format specs

# a rounding whose fraction (in units of the last digit kept) is this close
# to 1/2 may be a tie, given the scaling's error of about 1e-14: CPython decides
_TIE = 1e-6
# a shortest-repr candidate this close (relative) to the edge of the
# round-trip interval may or may not read back as the value: CPython decides
_ROUND_TRIP = 1e-9
# |x| range of the scaled-digit path; every product in the scaling stays a
# normal double inside it
_MIN, _MAX = 1e-280, 1e280
# .2f forms 100 * x exactly and rounds once more, by less than 1e-16: a
# margin this small keeps only ties and near-ties away from rint
_F2_TIE = 1e-12
# .2f's fast path takes x in [0, _F2_MAX), whose whole part fits one quad;
# its one caller, render_lines, passes coordinates in [38, 702] px
_F2_MAX = 9999.0
# cells per block: bounds the temporaries (about 0.5 KiB a cell)
_BLOCK = 8192

_K_LO, _K_HI = -266, 298  # powers of ten the scaling can ask for
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter
_P16, _P17 = 10**16, 10**17
_POW10 = np.array([10**k for k in range(18)], dtype=np.int64)
_QUAD = 10000  # text is built in uint32 quads of four characters; 0 bytes are dropped
_EXP_OFF = 400  # exponent table index of 10**0; index 0 is "no exponent"


def _quad_table(texts) -> np.ndarray:
    """Native uint32 quads of up to four characters each, 0 bytes after them."""
    return np.frombuffer(b"".join(t.encode().ljust(4, b"\0") for t in texts), np.uint32)


@functools.cache
def _tables() -> dict[str, np.ndarray]:
    """Lookup tables, built on first use.

    ``digits``: the four ASCII digits of 0..9999 as a uint32 quad, four
    times: as is, with leading zeros blank (0 is all blank), with trailing
    zeros blank, and with leading zeros blank but a lone "0" for 0.  ``hi``,
    ``hi_high``, ``hi_low``, ``lo``: 10**k for k in
    [_K_LO, _K_HI] as a double-double (hi, lo), hi split in halves; from
    Python ints, whose conversions to float round correctly.  The rest are
    the quads of the text around the digits.
    """
    d = np.arange(_QUAD)[:, None]
    place = np.array([1000, 100, 10, 1])
    chars = (d // place % 10 + ord("0")).astype(np.uint8)
    lead = chars * (d >= place)
    lone = lead.copy()
    lone[0, 3] = ord("0")
    digits = np.concatenate([chars, lead, chars * (d % (10 * place) != 0), lone])
    hi, lo = [], []
    for k in range(_K_LO, _K_HI + 1):
        if k >= 0:
            exact = 10**k
            h = float(exact)
            hi.append(h)
            lo.append(float(exact - int(h)))
        else:
            d = 10**-k
            h = 1 / d
            a, b = h.as_integer_ratio()
            hi.append(h)
            lo.append((b - a * d) / (b * d))
    hi = np.array(hi)
    hi_high, hi_low = _split(hi)
    exps = ["" if i == 0 else f"e{i - _EXP_OFF:+03d}" for i in range(2 * _EXP_OFF)]
    return {
        "digits": digits.view(np.uint32).ravel(),
        "hi": hi, "hi_high": hi_high, "hi_low": hi_low, "lo": np.array(lo),
        # sign and "0.0" of fixed notation below 1, by sign + 2 * (leading zeros)
        "lead": _quad_table(sign + "0.0"[:min(1 + z, 3)] * (z > 0)
                            for z in range(5) for sign in ("", "-")),
        # the zeros of "0.000" and "0.0000" past the first quad
        "lead2": _quad_table("00"[:max(0, z - 2)] for z in range(5)),
        # the point, and repr's "0" of "1.0", by point + 2 * bare
        "point": _quad_table(["", ".", ".0"]),
        # the last byte of a quad: a digit, blank for 0
        "first": _quad_table(f"\0\0\0{c}" if c != "0" else "" for c in "0123456789"),
        # the 17th fraction digit, blank for 0 (a trailing zero)
        "last": _quad_table(c if c != "0" else "" for c in "0123456789"),
        # "e+dd" after the last digit's byte, then the rest of the exponent
        "exp": _quad_table(f"\0{t[:3]}" for t in exps),
        "exp2": _quad_table(t[3:] for t in exps),
        "cents": _quad_table(f".{c:02d}" for c in range(100)),
    }


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = a * _SPLIT
    high = c - (c - a)
    return high, a - high


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**(16 - e) as an int64 part and a fraction in [0, 1).

    A Dekker two-product of ``a`` with the high part of the power, plus
    ``a`` times its low part: absolute error below 1e-14 for results under
    1e17.
    """
    t = _tables()
    k = (16 - _K_LO) - e
    b, bh, bl = t["hi"][k], t["hi_high"][k], t["hi_low"][k]
    p = a * b
    ah, al = _split(a)
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl + a * t["lo"][k]
    whole = np.floor(err)
    # p >= 2**53 here, so it is a whole number
    return p.astype(np.int64) + whole.astype(np.int64), err - whole


def _decimal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(e, h, frac) with a * 10**(16 - e) = h + frac and h in [1e16, 1e17)."""
    e = np.floor(np.log10(a)).astype(np.int64)
    h, frac = _scaled(a, e)
    # log10 can miss by one next to a power of ten
    off = np.flatnonzero((h < _P16) | (h >= _P17))
    if off.size:
        e[off] += np.where(h[off] < _P16, -1, 1)
        h[off], frac[off] = _scaled(a[off], e[off])
    return e, h, frac


def _rounded(h, frac, half_ulp, step):
    """The multiple of ``step`` nearest to h + frac, whether it certainly
    reads back as the value (within ``half_ulp`` of it), and whether that is
    in doubt."""
    q = h // step
    x = ((h - q * step) + frac) / step
    d = (q + (x > 0.5)) * step
    dist = np.abs((d - h) - frac)
    inside = dist < half_ulp * (1 - _ROUND_TRIP)
    doubt = (np.abs(dist - half_ulp) <= half_ulp * _ROUND_TRIP) | (
        inside & (np.abs(x - 0.5) < _TIE)
    )
    return d, inside & ~doubt, doubt


def _shortest(a, h, frac, unsure):
    """repr's digits, scaled to 17 digits like ``h + frac`` (``a`` scaled).

    repr takes the fewest digits whose rounding reads back as ``a``.  Over
    the scaled range 15-digit decimals lie more than an ulp apart (proved in
    ``test_numtext``), so a shorter rounding that reads back is the 15-digit
    one with trailing zeros, which ``_fraction_quads`` blanks.  Marks
    ``unsure`` the cells it cannot certify.
    """
    mantissa, _ = np.frexp(a)
    unsure |= mantissa == 0.5
    # half an ulp of a, in units of the last of the 17 digits
    half_ulp = h / (mantissa * 2.0**54)
    d16, pass16, doubt16 = _rounded(h, frac, half_ulp, 10)
    d15, pass15, doubt15 = _rounded(h, frac, half_ulp, 100)
    unsure |= doubt16 | doubt15
    return np.where(pass15, d15, np.where(pass16, d16, h + (frac > 0.5)))


def _whole_quads(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Right-aligned digits of int64 ``x`` >= 0 into the quad planes ``out``,
    leading zeros blank; returns what is left of ``x`` above them."""
    digits = _tables()["digits"]
    for j in range(len(out) - 1, -1, -1):
        if not x.any():
            break
        high = x // _QUAD
        np.take(digits, x - high * _QUAD + _QUAD * (high == 0), out=out[j])
        x = high
    return x


def _fraction_quads(x: np.ndarray, out: np.ndarray, tail: np.ndarray) -> None:
    """The 16 digits of int64 ``x`` >= 0, zero padded, into the four quad
    planes ``out``, trailing zeros blank; ``tail`` marks the cells whose
    digits after these are all zero."""
    digits = _tables()["digits"]
    high = x // 10**8
    for j, part in ((3, x - high * 10**8), (1, high)):
        part = part.astype(np.int32)
        top = part // _QUAD
        for k, low in ((j, part - top * _QUAD), (j - 1, top)):
            np.take(digits, low + np.int32(2 * _QUAD) * tail, out=out[k])
            tail &= low == 0


def _float_quads(v: np.ndarray, style: str, unsure: np.ndarray) -> np.ndarray:
    """The ``.17g`` / ``repr`` text of each cell as 13 quad planes.

    Quads: sign and "0.0"; "00" and the first of 17 whole digits; 16 whole
    digits; the point (and repr's "0" of "1.0"); 16 fraction digits; the
    17th fraction digit and "e+1"; "23".  Fixed notation below 1 writes no
    whole digits, and its 17 significant digits are the fraction digits.
    """
    t = _tables()
    a = np.abs(v)
    unsure |= ~((a >= _MIN) & (a <= _MAX))
    a[unsure] = 1.0
    e, h, frac = _decimal(a)
    unsure |= (np.abs(frac - 0.5) < _TIE) | (h < _P16) | (h >= _P17)
    if style == JSON:
        n = _shortest(a, h, frac, unsure)
        fixed_top = 16
    else:
        n = h + (frac > 0.5)
        fixed_top = 17
    carry = n == _P17
    n[carry] = _P16
    e += carry

    fixed = (e >= -4) & (e < fixed_top)
    small = fixed & (e < 0)
    sci = ~fixed
    # one whole digit (scientific, or fixed below 10), none below 1, and
    # e + 1 of them in fixed notation from 10 up
    first = n // _P16
    whole = first * ~small
    after = np.where(small, n, (n - first * _P16) * 10)
    big = np.flatnonzero(fixed & (e > 0))
    if big.size:
        s = 16 - e[big]
        scale = _POW10[s]
        whole[big] = n[big] // scale
        after[big] = (n[big] - whole[big] * scale) * _POW10[17 - s]

    quads = np.zeros((13, v.size), np.uint32)
    zeros = -e * small
    np.take(t["lead"], np.signbit(v) + 2 * zeros, out=quads[0])
    top = _whole_quads(whole, quads[2:6])
    quads[1] = t["lead2"][zeros] | t["first"][top]
    high = after // 10
    last = after - high * 10
    after = high
    dot = ~small & (after > 0)
    if style == JSON:  # repr writes "1.0", never "1."
        bare = fixed & ~small & (after == 0) & (last == 0)
        np.take(t["point"], (dot | (last > 0) & ~small) + 2 * bare, out=quads[6])
    else:
        np.take(t["point"], dot | (last > 0) & ~small, out=quads[6])
    _fraction_quads(after, quads[7:11], last == 0)
    exp = (e + _EXP_OFF) * sci
    quads[11] = t["last"][last] | t["exp"][exp]
    np.take(t["exp2"], exp, out=quads[12])
    return quads


def _f2_quads(v: np.ndarray, unsure: np.ndarray) -> np.ndarray:
    """The ``.2f`` text of each cell as two quad planes: whole digits, ".dd"."""
    t = _tables()
    unsure |= ~((v > 0) & (v < _F2_MAX))
    a = np.where(unsure, 0.0, v)
    # a * 100 exactly, as p + err
    p = a * 100.0
    ah, al = _split(a)
    err = (ah * 100.0 - p) + al * 100.0
    m = np.rint(p)
    frac = (p - m) + err
    unsure |= np.abs(np.abs(frac) - 0.5) < _F2_TIE
    m = m.astype(np.int64) + (frac > 0.5) - (frac < -0.5)
    units = m // 100  # below _QUAD, as a < 9999
    quads = np.empty((2, v.size), np.uint32)
    # leading zeros blank, but a lone "0" for a whole part of 0
    np.take(t["digits"][3 * _QUAD:], units, out=quads[0])
    np.take(t["cents"], m - 100 * units, out=quads[1])
    return quads


def _body(v: np.ndarray, style: str) -> tuple[np.ndarray, np.ndarray]:
    """The fast path's quad planes of each cell, and which cells it leaves to CPython."""
    unsure = ~np.isfinite(v) | (v == 0)
    if style == F2:
        return _f2_quads(v, unsure), unsure
    return _float_quads(v, style, unsure), unsure


def _join_block(values: np.ndarray, style: str, marks: np.ndarray) -> str:
    rows, cols = values.shape
    v = values.ravel()
    body, unsure = _body(v, style)
    used = np.flatnonzero(body.any(axis=1))

    handed = np.flatnonzero(unsure)
    texts = [t.encode() for t in _python_cells(v[handed].tolist(), style)]
    width = -(-max(map(len, texts), default=0) // 4)
    cell = len(used) + width
    planes = np.empty((cell + len(marks), v.size), np.uint32)
    np.take(body, used, axis=0, out=planes[:len(used)])
    if handed.size:
        planes[:len(used), handed] = 0
        planes[len(used):cell] = 0
        padded = b"".join(t.ljust(4 * width, b"\0") for t in texts)
        planes[len(used):cell, handed] = np.frombuffer(padded, np.uint32).reshape(-1, width).T
    planes[cell:].reshape(len(marks), rows, cols)[:] = marks[:, None, :]
    planes[cell:, -1] = 0
    # the characters cell by cell, each followed by its separator; 0 bytes are
    # no character
    text = np.ascontiguousarray(planes.T).tobytes().translate(None, b"\0")
    return text.decode("ascii")


def join_cells(values: np.ndarray, style: str, seps: Sequence[str]) -> str:
    """The cells of a 2-D float array as CPython text, joined by per-column separators.

    Equals ``"".join(fmt(x) + seps[j] for each row, for j, x in enumerate(row))``
    without the last separator, where ``fmt`` is the style's CPython
    formatter.  ``seps`` holds one ASCII string per column, without ``"\0"``.
    """
    values = np.asarray(values, dtype=np.float64)
    rows, cols = values.shape
    if len(seps) != cols:
        raise ValueError(f"{cols} columns need {cols} separators, got {len(seps)}")
    if "\0" in "".join(seps):
        raise ValueError(f"separators must not hold '\\0', got {list(seps)!r}")
    if not values.size:
        return ""
    if values.size < _KERNEL_CELLS:
        # one str.format call over every cell, a field before each separator;
        # .17g and .2f are format specs, JSON's cells are formatted first
        cells, field = values.ravel().tolist(), "{:" + style + "}"
        if style == JSON:
            cells, field = _python_cells(cells, JSON), "{}"
        marks = [s.replace("{", "{{").replace("}", "}}") for s in seps]
        template = (field + field.join(marks)) * rows
        return template[:len(template) - len(marks[-1])].format(*cells)
    # each column's separator as quads, padded to the longest: (quads, cols)
    size = -(-max(map(len, seps)) // 4) * 4
    marks = np.frombuffer(b"".join(s.encode("ascii").ljust(size, b"\0") for s in seps), np.uint32)
    marks = marks.reshape(cols, size // 4).T
    step = max(1, _BLOCK // cols)
    blocks = (_join_block(values[i:i + step], style, marks) for i in range(0, rows, step))
    return seps[-1].join(blocks)

