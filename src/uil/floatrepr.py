"""``repr`` of many doubles at once, as rows of bytes.

``repr_bytes(values)`` returns a ``uint8`` matrix with one row of
``WIDTH`` bytes per value.  Dropping the NUL bytes of a row gives the
bytes of ``repr(value)`` exactly; the NUL bytes may fall anywhere in the
row, which is what lets the layout below work on whole 8-byte words.

The digits come from Schubfach (R. Giulietti, "The Schubfach way to
render doubles", 2020), the algorithm of Java's ``Double.toString``:
the decimal with the fewest digits that rounds back to the double, and
among those the one closest to it, ties to an even digit.  These are
the digits ``repr`` writes.  Two steps of the Java code serve its
two-digit minimum (``4.9E-324`` where ``repr`` writes ``5e-324``) and
are left out: the guard that tries one digit fewer only when the
significand has three or more, and the scaling by ten of the two
smallest subnormals.  The arithmetic is numpy ``uint64``; 128-bit
products are built from 32-bit limbs.

The layout is ``repr``'s: positional unless the decimal point falls
four or more places before the first digit or more than sixteen after
it, exponents as ``e%+03d``, ``.0`` after an integral positional value,
``-0.0``, and ``inf``/``-inf``, or the JSON strings ``"inf"``/``"-inf"``
on request.  NaN is refused.
"""

from __future__ import annotations

import functools

import numpy as np

WIDTH = 32  # bytes per row: 24 for sign, digits and point, 8 for the exponent

_U32 = np.uint64(0xFFFFFFFF)
_U52 = np.uint64((1 << 52) - 1)
_U63 = np.uint64((1 << 63) - 1)
_SIGN = np.uint64(1 << 63)
_INF = np.uint64(0x7FF << 52)
_HIDDEN = np.uint64(1 << 52)
_ONE_BITS = np.uint64(0x3FF << 52)  # 1.0, formatted in place of 0 and inf
_1, _2, _4, _10 = (np.uint64(x) for x in (1, 2, 4, 10))
_S32, _S52, _S63 = np.uint64(32), np.uint64(52), np.uint64(63)

# Decimal exponents k of the table of g: floor(log10(2**q)) over the
# binary exponents q of doubles.
_K_MIN, _K_MAX = -324, 292

# floor(log10(2) 2**41), floor(log10(3/4) 2**41) and floor(log2(10) 2**38):
# (q C10 >> 41) = floor(log10(2**q)), (q C10 + A10 >> 41) =
# floor(log10(3/4 2**q)) and (k C2 >> 38) = floor(log2(10**k)), exactly,
# for every q in [-1074, 971] and k in [-292, 324].
_C10, _A10, _C2 = 661_971_961_083, -274_743_187_321, 913_124_641_741

_POW10 = np.array([10**i for i in range(20)], dtype=np.uint64)
_POW2 = np.array([1 << i for i in range(8)], dtype=np.uint64)
_QUAD = np.uint64(10**4)

# A row: 24 columns of sign, digits and point, then the exponent in two
# 4-byte words.  The digits are those of an integer z (below 10**18),
# right-aligned and zero-padded, whose digit `fraction` places from the
# right (the "point digit", a 0) becomes the decimal point.
_DIGITS = 24
_MAX_FRACTION = 20  # "0.00012345678901234567"
_MAX_LEADING = 17  # digits left of the point

# Values formatted per step, so memory does not grow with the input.
_CHUNK = 4096


@functools.cache
def _tables() -> dict:
    """The Schubfach table and the text tables, built on first use."""
    # g = floor(10**-k 2**(125 - floor(log2(10**-k)))) + 1 in [2**125, 2**126],
    # as the 32-bit limbs of its 63-bit halves g1 = g >> 63, g0 = g mod 2**63.
    limbs = np.empty((4, _K_MAX - _K_MIN + 1), dtype=np.uint64)
    for i, k in enumerate(range(_K_MIN, _K_MAX + 1)):
        power = 10 ** abs(k)
        if k <= 0:
            shift = 125 - (power.bit_length() - 1)
            beta = power << shift if shift >= 0 else power >> -shift
        else:
            beta = (1 << (125 + power.bit_length())) // power
        g1, g0 = (beta + 1) >> 63, (beta + 1) & ((1 << 63) - 1)
        limbs[:, i] = (g1 >> 32, g1 & 0xFFFFFFFF, g0 >> 32, g0 & 0xFFFFFFFF)

    # 4-byte words: the four digits of 0..9999, a NUL word, and the
    # exponents e-324..e+308 as two words each ("e-32", "4").
    exponents = b"".join(f"e{x:+03d}".encode().ljust(8, b"\0") for x in range(-324, 309))
    words = np.frombuffer(
        "".join(f"{i:04d}" for i in range(10**4)).encode() + bytes(4) + exponents, dtype=np.uint32
    )

    # Per (fraction, leading, negative): byte masks that blank the zero
    # padding, turn the point digit into "." (or drop it when there is no
    # fraction) and put "-" before the first digit.  AND first, then OR.
    fraction = np.arange(_MAX_FRACTION + 1)[:, None, None, None]
    leading = np.arange(_MAX_LEADING + 1)[None, :, None, None]
    negative = np.arange(2)[None, None, :, None]
    column = np.arange(WIDTH)
    point = _DIGITS - 1 - fraction
    first = point - leading
    keep = np.where(column < first, 0x00, 0xFF)
    keep = np.where(column == point, np.where(fraction > 0, 0xEF, 0x00), keep)  # "0" & 0xEF | 0x0E = "."
    put = np.where((column == point) & (fraction > 0), 0x0E, 0x00)
    put = put | np.where((column == first - 1) & (negative == 1), ord("-"), 0x00)
    shape = (_MAX_FRACTION + 1, _MAX_LEADING + 1, 2, WIDTH)
    keep, put = (np.broadcast_to(m, shape).astype(np.uint8).reshape(-1, WIDTH).view(np.uint64) for m in (keep, put))

    special = np.zeros((2, 2, WIDTH), dtype=np.uint8)  # [quoted][negative]
    for quoted in (0, 1):
        for negative_ in (0, 1):
            text = ("-inf" if negative_ else "inf").join('""' if quoted else ("", ""))
            special[quoted, negative_, : len(text)] = np.frombuffer(text.encode(), dtype=np.uint8)
    return {
        "g": limbs,
        "words": words,
        "keep": keep,
        "put": put,
        "inf": special.view(np.uint64),
    }


def _mul(a_hi, a_lo, b_hi, b_lo, low=False):
    """High 64 bits of a b (and the low 64 with ``low``), from 32-bit limbs."""
    mid = a_hi * b_lo  # + (a_lo b_lo >> 32) stays below 2**64
    ll = a_lo * b_lo
    mid += ll >> _S32
    hi = a_hi * b_hi
    hi += mid >> _S32
    mid &= _U32
    mid += a_lo * b_hi
    hi += mid >> _S32
    if not low:
        return hi
    mid <<= _S32
    ll &= _U32
    mid |= ll
    return hi, mid


def _round_to_odd(g, cp):
    """floor(g cp / 2**127), its last bit set where the remainder is not 0."""
    cp_hi, cp_lo = cp >> _S32, cp & _U32
    z = _mul(g[2], g[3], cp_hi, cp_lo)
    y1, y0 = _mul(g[0], g[1], cp_hi, cp_lo, low=True)
    z += y0 >> _1
    y1 += z >> _S63
    z &= _U63
    z += _U63
    y1 |= z >> _S63
    return y1


def _shortest(bits: np.ndarray, g_table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shortest decimal f 10**k of each finite nonzero |double| with these bits."""
    biased = bits >> _S52
    c = bits & _U52
    # the gap below a power of two is half the gap above it
    irregular = (c == 0) & (biased > _1)
    normal = biased != 0
    c |= normal * _HIDDEN
    q = biased.view(np.int64)  # the binary exponent of c
    q += ~normal
    q -= 1075
    k = q * _C10
    k += _A10 * irregular
    k >>= 41
    q += (k * -_C2) >> 38
    q += 2
    scale = _POW2.take(q)  # 2**h, h in [1, 4]
    del biased, q, normal
    g = [row.take(k - _K_MIN) for row in g_table]

    cb = c * scale
    cb <<= _2  # 4 c 2**h
    vb = _round_to_odd(g, cb)
    lower = _round_to_odd(g, cb - scale * (_2 - irregular))
    cb += scale << _1
    upper = _round_to_odd(g, cb)
    del g, cb, scale, irregular
    # an odd significand's rounding interval excludes its end points
    c &= _1
    lower += c
    upper -= c
    del c

    s = vb >> _2
    # one digit fewer: at most one of s' 10**(k+1) and (s'+1) 10**(k+1) rounds to v
    sp = s // _10
    sp *= _10
    up_in = lower <= sp << _2
    wp_in = (sp << _2) + np.uint64(40) <= upper
    # else the one of s 10**k and (s+1) 10**k that rounds to v, or the closer, ties to even
    mid = s << _2
    u_in = lower <= mid
    mid += _4
    w_in = mid <= upper
    del lower, upper
    mid -= _2
    w_in &= ~u_in | (vb > mid) | ((vb == mid) & (s & _1).astype(bool))
    del vb, mid, u_in
    f = s
    f += w_in
    sp += wp_in * _10
    f += (up_in != wp_in) * (sp - f)  # modulo 2**64
    del sp, up_in, wp_in, w_in

    for digits in (16, 8, 4, 2, 1):  # strip trailing zeros
        quotient = f // _POW10[digits]
        zeros = quotient * _POW10[digits] == f
        f += zeros * (quotient - f)
        k += zeros * digits
    return f, k


def repr_bytes(values: np.ndarray, quote_inf: bool = False) -> np.ndarray:
    """``repr`` of each double in ``values``: a ``(size, WIDTH)`` ``uint8`` matrix.

    Each row holds the bytes of ``repr(value)`` in order, with NUL bytes
    among them.  ``quote_inf`` writes infinities as the JSON strings
    ``"inf"`` and ``"-inf"``.  NaN raises ValueError.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).ravel().view(np.uint64)
    if np.isnan(bits.view(np.float64)).any():
        raise ValueError("NaN has no repr")
    words = np.empty((bits.size, WIDTH // 8), dtype=np.uint64)
    for start in range(0, bits.size, _CHUNK):
        words[start : start + _CHUNK] = _format(bits[start : start + _CHUNK], quote_inf)
    return words.view(np.uint8)


def _format(bits: np.ndarray, quote_inf: bool) -> np.ndarray:
    """The rows of repr_bytes for these bits, as 8-byte words."""
    tables = _tables()
    negative = bits >= _SIGN
    magnitude = bits & ~_SIGN
    zero = magnitude == 0
    infinite = magnitude == _INF
    special = zero | infinite
    f, k = _shortest(magnitude + special * (_ONE_BITS - magnitude), tables["g"])
    del magnitude, special
    f *= ~zero
    k *= ~zero

    # repr's layout: the decimal point falls `decpt` digits after the first.
    n = np.searchsorted(_POW10, f, side="right")
    decpt = n + k
    exponent = (decpt <= -4) | (decpt > 16)
    integral = ~exponent & (k >= 0)
    positional = ~exponent & ~integral
    # m with its last `fraction` digits after the point: f and n - 1 in
    # exponent form, f 10**(k+1) and 1 for "100.0", else f and -k.
    m = f * _POW10.take(integral * (k + 1))
    fraction = exponent * (n - 1) + integral + positional * -k
    leading = exponent + ~exponent * np.maximum(decpt, 1)
    # z: m with a 0 inserted before its fraction digits, for the point
    low = m % _POW10.take(fraction, mode="clip")  # 10**19 for 20: m < 10**17
    z = m * _10 - low * np.uint64(9)

    # 4-byte words of z's 24 digits, then of the exponent
    index = np.empty((bits.size, WIDTH // 4), dtype=np.uint16)
    index[:, 0] = 0
    for j in range(_DIGITS // 4 - 1, 0, -1):
        quotient = z // _QUAD
        index[:, j] = z - quotient * _QUAD
        z = quotient
    tail = 10**4 + exponent * (1 + 2 * (decpt + 323))
    index[:, 6] = tail
    index[:, 7] = tail + exponent
    words = tables["words"].take(index, mode="clip").view(np.uint64)

    key = (fraction * (_MAX_LEADING + 1) + leading) * 2 + negative
    words &= tables["keep"].take(key, axis=0, mode="clip")
    words |= tables["put"].take(key, axis=0, mode="clip")
    if infinite.any():
        words[infinite] = tables["inf"][int(quote_inf)][negative[infinite].astype(np.intp)]
    return words
