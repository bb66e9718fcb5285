"""Bytes of float64 log blocks, byte for byte as ``repr`` writes them.

:func:`format_block` turns a ``(rows, columns)`` float64 block into the
ASCII bytes of the CSV text
``"".join(",".join(map(repr, row)) + "\\n" for row in block)`` without
calling ``repr`` per value.  Values ``repr`` writes in fixed
notation (decimal exponent ``decpt`` in ``-3..16``, that is magnitudes
from about 1e-4 to below 1e16) take a numpy fast path; every other value
(zero excepted, which the fast path also writes) gets ``repr``'s own text
instead: subnormals, infinities, NaN, exponent notation, and the exact
ties the shortest-digit rule leaves open.

Digits (the Schubfach rule: R. Giulietti, "The Schubfach way to render
doubles", 2020).  A finite ``x = c * 2**q`` with ``2**52 <= c < 2**53``
rounds back from any decimal in its rounding interval, of width ``2**q``
(``3/4 * 2**q`` when ``c = 2**52``).  With ``k = floor(log10(2**q))`` the
interval holds at most one multiple of ``10**(k+1)`` and, but for powers
of two, at least one of ``10**k``.  The shortest
decimal is that multiple of ``10**(k+1)`` when there is one; otherwise it
is the multiple of ``10**k`` nearest to ``x``.  On the fast path
``-20 <= k <= 0``, so ``10**-k`` is an exact double and ``x * 10**-k`` is
exact as the double-double ``p + err`` (Dekker's product), with ``p`` a
whole number below ``2**57``.  Every quantity the rule compares is then a
double computed without rounding, so the comparisons are exact; the
chosen digits ``d`` are a 16- or 17-digit integer with ``x ~ d * 10**k``.

Text.  ``d`` is written into a 24-byte frame ``"00000" + 17 digits +
"00"`` held as three little-endian ``uint64`` words (a 10,000-entry table
of 4-digit strings viewed as integers), the point is inserted, the text
is cut out of the frame by shifts and masks and left-aligned in the
value's own 32-byte row, and the output is the leading bytes of each row.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["format_block"]

_U = np.uint64
# Biased binary exponents of the fast path: q = exponent - 1075 runs from
# -66 (x >= 2**-14, below 1e-4, the smallest value in fixed notation) to 1
# (x < 2**54, above every value in fixed notation, all below 1e16).
_EXP_LO, _EXP_HI = 1075 - 66, 1075 + 1
_MAG_LO = _U(_EXP_LO << 52)
_MAG_HI = _U(((_EXP_HI + 1) << 52) - 1)
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into two 26-bit halves
# Rows formatted per pass.  At 512 rows (9,216 values) the working arrays
# stay in the CPU caches; at 4,096 rows the same passes take twice as long.
_PASS_ROWS = 512
# Frame positions: the 17 digits of d occupy bytes 5..21, and the point of
# a value with exponent k goes before byte 22 + k.
_FRAME_END = 22


def _split(v):
    """``(hi, lo)`` with ``hi + lo == v`` exactly, each of 26 bits."""
    t = v * _SPLIT
    hi = t - (t - v)
    return hi, v - hi


def _binade_table() -> np.ndarray:
    """One row per exponent of the fast path: ``10**-k``, its two halves,
    the half-width of the rounding interval in units of ``10**k``, and the
    point's frame position."""
    rows = []
    for exponent in range(_EXP_LO, _EXP_HI + 1):
        q = exponent - 1075
        k = (q * 78913) >> 18  # floor(log10(2**q)), exact for |q| < 1100
        scale = float(10**-k)
        rows.append((scale, *_split(scale), math.ldexp(scale, q - 1), _FRAME_END + k))
    return np.array(rows)


def _frame_masks() -> np.ndarray:
    """By byte position ``j`` of the 24-byte frame: the bytes ``>= j`` and
    the byte ``j`` in each of the three words."""
    at = np.zeros((_FRAME_END + 1, 6), np.uint64)
    for j in range(_FRAME_END + 1):
        for w in range(3):
            at[j, w] = ~_U((1 << (8 * min(max(j - 8 * w, 0), 8))) - 1)
            if 0 <= j - 8 * w < 8:
                at[j, 3 + w] = 0xFF << (8 * (j - 8 * w))
    return at


def _quads() -> tuple[np.ndarray, np.ndarray]:
    """For v in 0..9999: ``"%04d" % v`` as four little-endian ASCII bytes
    in a ``uint64``, and how many of the four are trailing zeros."""
    text = np.empty((10, 10, 10, 10, 4), np.uint8)
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    for place in range(4):
        text[..., place] = digits.reshape([10 if i == place else 1 for i in range(4)])
    text = text.reshape(10000, 4)
    zeros = np.cumprod(text[:, ::-1] == ord("0"), axis=1, dtype=np.uint8).sum(axis=1)
    return text.view("<u4").ravel().astype(np.uint64), zeros.astype(np.int64)


_QUADS, _QUAD_TRAILING_ZEROS = _quads()
_BINADES = _binade_table()
_AT = _frame_masks()
# _KEEP[n]: the first n bytes of a 32-byte row.
_KEEP = np.arange(32) < np.arange(33)[:, None]
_DOTS = _U(0x2E2E2E2E2E2E2E2E)
_ZERO_FRAME = _U(int.from_bytes(b"00.0", "little"))


def _repr_texts(values: np.ndarray) -> list[str]:
    """``repr`` of each value off the fast path."""
    return [repr(v) for v in values.tolist()]


def format_block(block: np.ndarray) -> bytes:
    """The CSV rows of a ``(rows, columns)`` float64 block, in ASCII: each
    value as ``repr`` writes it, ``,`` between values and ``\\n`` after each row."""
    values = np.ascontiguousarray(block, dtype=np.float64)
    rows, columns = values.shape
    seps = np.full(columns, ord(","), np.uint8)
    seps[-1] = ord("\n")
    return b"".join([
        _format_values(values[i:i + _PASS_ROWS].ravel(),
                       np.tile(seps, min(_PASS_ROWS, rows - i)))
        for i in range(0, rows, _PASS_ROWS)
    ])


def _format_values(values: np.ndarray, seps: np.ndarray) -> bytes:
    """Each value's text followed by its separator byte from ``seps``."""
    bits = values.view(np.uint64)
    sign = bits >> _U(63)
    mag = bits & _U(0x7FFFFFFFFFFFFFFF)
    zero = np.flatnonzero(mag == 0)
    fast = (mag >= _MAG_LO) & (mag <= _MAG_HI)
    # Values off the fast path compute on the nearest binade it covers, so
    # that nothing overflows; their results are dropped.
    mag = np.clip(mag, _MAG_LO, _MAG_HI)
    binade = _BINADES.take(((mag >> _U(52)) - _U(_EXP_LO)).view(np.int64), axis=0)

    # x * 10**-k = p + err exactly, p a whole number; s = floor(x * 10**-k)
    # and f its fraction.
    x = mag.view(np.float64)
    xh, xl = _split(x)
    p = x * binade[:, 0]
    ph, pl = binade[:, 1], binade[:, 2]
    err = ((xh * ph - p) + xh * pl + xl * ph) + xl * pl
    err_floor = np.floor(err)
    f = err - err_floor
    s = p.astype(np.int64) + err_floor.astype(np.int64)
    s10 = s // 10
    r = s - s10 * 10
    r_float = r.astype(np.float64)
    half = binade[:, 3]
    # Which of s - r, s - r + 10, s and s + 1 the rounding interval holds.
    # Its ends, x -+ 2**(q-1), are whole in units of 10**k only for q = 1,
    # where they are odd and s = x is in: so whether they belong to it (for
    # even c) never changes the choice, and "<=" serves for every c.  A
    # power of two (c = 2**52) has a narrower lower half and a width of
    # 3/4 * 2**q; but on the fast path it is itself a multiple of 10**k,
    # and the rule picks it with either interval.
    down10 = r_float + f <= half
    up10 = (10.0 - r_float) - f <= half
    down1 = f <= half
    up1 = 1.0 - f <= half
    by10 = down10 != up10
    digits = np.where(by10, (s10 + up10) * 10, s + (~down1 | (up1 & (f > 0.5))))
    tie = f == 0.5
    if tie.any():
        fast &= ~(tie & down1 & up1 & ~by10)

    # The frame "00000" + 17 digits + "00", and where the digits end.
    g0, rest = np.divmod(digits, 10**14)
    g1, rest = np.divmod(rest, 10**10)
    g2, rest = np.divmod(rest, 10**6)
    g3, g4 = np.divmod(rest, 100)
    g4 *= 100
    w0 = _QUADS[0] | (_QUADS.take(g0) << _U(32))
    w1 = _QUADS.take(g1) | (_QUADS.take(g2) << _U(32))
    w2 = _QUADS.take(g3) | (_QUADS.take(g4) << _U(32))
    end = np.full(values.size, _FRAME_END, np.int64)
    tens = np.flatnonzero(by10)  # only multiples of 10 end in zeros
    if tens.size:
        groups = [g.take(tens) for g in (g4, g3, g2, g1, g0)]
        zeros = _QUAD_TRAILING_ZEROS.take(groups[0]) - 2
        all_zero = groups[0] == 0
        for g in groups[1:]:
            zeros += all_zero * _QUAD_TRAILING_ZEROS.take(g)
            all_zero &= g == 0
        end[tens] -= zeros
    lead = 5 + (digits < 10**16)
    point = binade[:, 4].astype(np.int64)
    fast &= (point - lead + 3).view(np.uint64) <= _U(19)  # decpt in -3..16
    # The text is frame[start:point] + "." + frame[point:stop]: at least
    # one digit each side of the point.
    start = np.minimum(lead, point - 1)
    stop = np.maximum(end, point + 1)
    at = _AT.take(point, axis=0)
    words = []
    for w, (word, shifted) in enumerate(zip(
        (w0, w1, w2),
        (w0 << _U(8), (w1 << _U(8)) | (w0 >> _U(56)), (w2 << _U(8)) | (w1 >> _U(56))),
    )):
        word = word ^ ((word ^ shifted) & at[:, w])   # bytes from the point on move up one
        word ^= (word ^ _DOTS) & at[:, 3 + w]         # and the point goes in
        words.append(word)
    x0, x1, x2 = words
    if zero.size:
        x0[zero] = _ZERO_FRAME
        start[zero] = 1
        stop[zero] = 3
        fast[zero] = True

    # Each value's text in its own 32-byte row, left-aligned: a negative
    # one from the '0' before its first digit, which becomes '-'.  A fast
    # text and its separator take at most 24 bytes, a repr text and its
    # separator at most 25 ("-2.2250738585072014e-308,"), so 32 always fit;
    # no byte past a row's length is read.  (numpy shifts by 64 bits give 0.)
    signed = sign.view(np.int64)
    length = stop + 2 - start + signed
    cut = ((start - signed) * 8).view(np.uint64)
    rows = np.empty((values.size, 4), "<u8")
    rows[:, 0] = ((x0 >> cut) | (x1 << (_U(64) - cut))) - sign * _U(3)
    rows[:, 1] = (x1 >> cut) | (x2 << (_U(64) - cut))
    rows[:, 2] = x2 >> cut
    text = rows.view(np.uint8)
    slow = np.flatnonzero(~fast)
    if slow.size:
        texts = _repr_texts(values.take(slow))
        text.view("S32")[slow, 0] = np.array([t.encode() for t in texts], "S32")
        length[slow] = [len(t) + 1 for t in texts]
    text[np.arange(values.size), length - 1] = seps
    return text[_KEEP.take(length, axis=0)].tobytes()
