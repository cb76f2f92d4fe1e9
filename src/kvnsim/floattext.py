"""Shortest round-trip text of float64 arrays, for the CSV writers.

The CSV writers print each value as its repr, the shortest decimal that
reads back as the same double. A numpy port of Schubfach (R. Giulietti,
"The Schubfach way to render doubles", 2020) finds those digits for a
whole array in uint64 arithmetic, and table lookups lay them out, so no
value is formatted by a Python call. ``float_text`` writes each value into
fixed, NUL-padded slots of a row matrix of uint64 words; deleting the NUL
bytes leaves repr's text.

NumPy >= 2 keeps a uint64 array uint64 against a Python int (NEP 50);
against a bool array the other operand must be a uint64 scalar, or the
result is float64. The tables are built on first use, and ``grid``
imports this module only when it writes a CSV.
"""

from __future__ import annotations

import functools

import numpy as np

_TEN = np.uint64(10)
# Words per value in float_text's rows: 48 bytes for at most 24 characters.
FLOAT_WORDS = 6
NEWLINE = np.uint64(ord("\n") << 56)  # the free last byte of a value's words
COMMA = np.uint64(ord(",") << 56)


@functools.cache
def _schubfach_table() -> tuple[np.ndarray, np.ndarray]:
    """Schubfach's g for the decimal exponents e = -292..324 that doubles
    need: g = floor(10^e / 2^r) + 1, with r chosen so that 2^125 <= g <
    2^126, split as g = g1 2^63 + g0 (index e + 292)."""
    g1, g0 = np.empty(617, np.uint64), np.empty(617, np.uint64)
    for i, e in enumerate(range(-292, 325)):
        p = 10 ** abs(e)
        r = (p.bit_length() - 1 if e >= 0 else -p.bit_length()) - 125  # floor(log2 10^e) - 125
        g = ((p >> r if r >= 0 else p << -r) if e >= 0 else (1 << -r) // p) + 1
        g1[i], g0[i] = g >> 63, g & (2 ** 63 - 1)
    return g1, g0


def _mulhi(a1, a0, b1, b0):
    """High 64 bits of a b from 32-bit halves, for a < 2^63 and b < 2^61
    (the sum of the middle products then fits in 64 bits)."""
    t = a0 * b0
    t >>= 32
    t += a1 * b0
    t += a0 * b1
    t >>= 32
    t += a1 * b1
    return t


def _rop(g1, g_halves, cp):
    """Schubfach's rop(g1, g0, cp), as published: x1 = mulhi(g0, cp),
    z = (y0 >> 1) + x1 with y = g1 cp, and the sticky bit from z's low 63
    bits. g over-approximates 10^-k and this truncation is part of the
    proof; an exact product gives other digits on ties."""
    b1, b0 = cp >> 32, cp & (2 ** 32 - 1)
    x1 = _mulhi(g_halves[2], g_halves[3], b1, b0)
    y1 = _mulhi(g_halves[0], g_halves[1], b1, b0)
    del b1, b0
    z = g1 * cp
    z >>= 1
    z += x1
    del x1
    y1 += z >> 63
    z <<= 1
    y1 |= z != 0
    return y1


def _shortest_decimal(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, e) with |v| = f 10^e and f the digits of repr(v), trailing
    zeros aside, for finite nonzero float64 values (zeros give junk).

    Schubfach's toDecimal on arrays, with one change for repr: Java's
    Double.toString prints two digits where one would do, so Schubfach
    tries the shorter candidates u' and w' only when s >= 100, which
    leaves out just the subnormals it scales by 10 (C_TINY). Here they are
    always tried. Both round to v only for the two smallest subnormals,
    5e-324 and 1e-323, and w' is the nearer there."""
    bits = v.view(np.uint64)
    q = (bits >> 52).view(np.int64)
    q &= 0x7FF
    c = bits & (2 ** 52 - 1)
    irregular = (c == 0) & (q > 1)  # a power of two: the lower gap is half the upper
    tiny = (q == 0) & (c < 3)  # Schubfach's C_TINY: scale c by 10 for two digits
    c |= (q != 0) * np.uint64(2 ** 52)
    c[tiny] *= _TEN
    np.maximum(q, 1, out=q)
    q -= 1075
    k = q * 661_971_961_083  # floor(log10 2^q), or of 3/4 2^q when irregular
    k -= irregular * 274_743_187_321
    k >>= 41
    h = k * -913_124_641_741  # h = q + floor(log2 10^-k) + 2
    h >>= 38
    h += q
    h += 2
    del q
    h = h.view(np.uint64)
    index = 292 - k
    g1, g0 = (np.take(g, index) for g in _schubfach_table())
    del index
    g_halves = (g1 >> 32, g1 & (2 ** 32 - 1), g0 >> 32, g0 & (2 ** 32 - 1))
    del g0
    odd = c & 1  # the rounding interval excludes its ends
    c <<= 2
    vb = _rop(g1, g_halves, c << h)
    vbl = _rop(g1, g_halves, (c - 2 + irregular) << h)
    vbl += odd
    c += 2
    vbr = _rop(g1, g_halves, c << h)
    vbr -= odd
    del g1, g_halves, c, h, odd
    s = vb >> 2
    sp40 = s // 10 * 40  # 4 times u' = 10 s', s' = floor(s / 10)
    upin = vbl <= sp40
    wpin = sp40 + 40 <= vbr
    short = upin | wpin
    pick_u = upin & ~wpin  # when both round to v, w' is the nearer
    del upin, wpin
    s4 = s << 2
    # otherwise s or t = s + 1, whichever rounds to v, else the nearer,
    # with ties to even
    pick_s = s4 + 4 > vbr
    pick_s |= vb < s4 + 3 - (s & 1)
    pick_s &= vbl <= s4
    del s4, vb, vbl, vbr
    sp40 >>= 2
    sp40 += ~pick_u * _TEN
    s += ~pick_s
    k -= tiny
    return np.where(short, sp40, s), k


def _word(text: bytes) -> int:
    return int.from_bytes(text.ljust(8, b"\0"), "little")


@functools.cache
def _text_tables() -> tuple[np.ndarray, ...]:
    """Powers of ten and the uint64 words float_text assembles a value
    from, each a piece of text NUL-padded to 8 bytes."""
    pow10 = np.array([10 ** i for i in range(18)], np.uint64)
    # x = 0..9999 as four digits, each followed by a point slot; 10000 + x:
    # the same with the trailing zeros dropped, for the group that ends the
    # digits (digit i stays while x mod 10^(4 - i) is not 0)
    x = np.arange(10000, dtype=np.uint64)
    full, stripped = np.zeros_like(x), np.zeros_like(x)
    for i in range(4):
        char = (x // 10 ** (3 - i) % 10 + ord("0")) << (16 * i)
        full |= char
        stripped |= char * (x % 10 ** (4 - i) != 0)
    groups = np.concatenate([full, stripped])
    # sign, then "", "0.", "0.0", "0.00" or "0.000", then the first digit,
    # at 50 sign + 10 lead + digit
    heads = np.array([_word((sign + lead).encode().ljust(6, b"\0") + str(d).encode())
                      for sign in ("", "-") for lead in ("", "0.", "0.0", "0.00", "0.000")
                      for d in range(10)], np.uint64)
    # per layout, the point and the zeros after the digits, over words 0-4:
    # layout 0 has neither, layout p = 1..16 (fixed notation) a point after
    # digit p and zeros through digit p + 1, layout 17 (exponent form) a
    # point after the first digit
    marks = np.zeros((18, 5), np.uint64)
    for layout in range(1, 18):
        point, last = (layout, layout + 1) if layout <= 16 else (1, 1)
        text = bytearray(40)
        text[5 + 2 * point] = ord(".")
        for digit in range(2, last + 1):
            text[4 + 2 * digit] = ord("0")
        marks[layout] = np.frombuffer(bytes(text), np.uint64)
    exponents = np.array([0] + [_word(f"e{x:+03d}".encode()) for x in range(-324, 309)], np.uint64)
    return pow10, groups, heads, np.ascontiguousarray(marks.T), exponents


def float_text(values: np.ndarray, words: np.ndarray) -> None:
    """Write repr(v) of each value into its row of ``words``, an (n, 6)
    uint64 view, padded with NUL bytes: word 0 holds the sign, "0." and
    the zeros of a fixed-notation value below 1, then the first digit and
    a point slot; words 1-4 the other 16 digits, each followed by a point
    slot; word 5 the exponent, and its last byte is always free. Removing
    the NULs leaves repr's text; nan, inf and -inf are written one by one.
    """
    pow10, groups, heads, marks, exponents = _text_tables()
    finite = np.isfinite(values)
    v = values if finite.all() else np.where(finite, values, 0.0)
    f, point = _shortest_decimal(v)
    zero = v == 0
    f[zero] = 0
    ndigits = np.searchsorted(pow10, f, side="right")
    f *= np.take(pow10, 17 - ndigits)  # 17 digits, trailing zeros kept
    point += ndigits  # v = 0.f * 10^point; 0.0 prints as a point at 1
    point[zero] = 1
    del ndigits, zero
    first = f // 10 ** 16
    f -= first * np.uint64(10 ** 16)
    more = f != 0
    # the other digits as four groups of four; the group after which every
    # digit is zero drops its trailing zeros, and the ones after it vanish
    group = np.empty((4, len(v)), np.uint64)
    for i, scale in enumerate((10 ** 12, 10 ** 8, 10 ** 4)):
        np.floor_divide(f, scale, out=group[i])
        f -= group[i] * np.uint64(scale)
        if i:
            group[i - 1] += rest_zero * np.uint64(10000)
        rest_zero = f == 0
    group[2] += rest_zero * np.uint64(10000)
    np.add(f, 10000, out=group[3])
    del f, rest_zero
    sci = (point < -3) | (point > 16)  # repr's switch to exponent form
    small = (point < 1) & ~sci
    layout = np.where(sci, more * 17, np.where(small, 0, point))
    text = np.take(groups, group.view(np.int64))
    text |= np.take(marks[1:], layout, axis=1)
    for i in range(4):
        words[:, i + 1] = text[i]
    del group, text
    head = (v.view(np.uint64) >> 63).view(np.int64) * 50
    head += np.where(small, 1 - point, 0) * 10
    head += first.view(np.int64)
    words[:, 0] = np.take(heads, head) | np.take(marks[0], layout)
    words[:, 5] = np.take(exponents, np.where(sci, point + 324, 0))
    for i in np.flatnonzero(~finite).tolist():
        words[i] = 0
        words[i, 0] = _word(repr(float(values[i])).encode())


def float_cells(values: np.ndarray, end: bytes) -> np.ndarray:
    """Each value's repr and ``end`` as a row of uint64 words, NUL-padded
    to the width of the longest."""
    words = np.zeros((len(values), FLOAT_WORDS), np.uint64)
    float_text(values, words)
    texts = [row.tobytes().replace(b"\0", b"") + end for row in words]
    width = -(-max(map(len, texts)) // 8)
    cells = b"".join(text.ljust(8 * width, b"\0") for text in texts)
    return np.frombuffer(cells, np.uint64).reshape(len(values), width)
