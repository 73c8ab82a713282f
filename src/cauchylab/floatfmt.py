"""repr() of float64 arrays in numpy: the shortest round-trip digits.

``repr_bytes`` gives, for every double, the bytes of ``repr(v)``: the
shortest decimal that parses back to v and, among those, the one closest
to v (ties to an even last digit), laid out as CPython lays it out.

The digits are Schubfach's (R. Giulietti, "The Schubfach way to render
doubles", 2020).  For v = c 2^q, take k = floor(log10(2^q)), or
floor(log10(3/4 2^q)) where the spacing below v halves, and g, a 126-bit
upper approximation of 10^-k.  Then the round-to-odd products of g with
4c and with the two ends of v's rounding interval, 4c -+ 2 (4c - 1 below
a halving), give s = floor(v 10^-k) and decide exactly which of s,
s + 1 and their neighbours with one digit fewer lie in the interval.
Each product is a 59-bit by 126-bit multiplication, done in 32-bit limbs
of uint64 arrays.  Java's ``Double.toString`` runs the shorter-candidate
test only for s >= 100, to keep two digits; repr keeps one, so here it
always runs (5e-324, not 4.9e-324).  Subnormals take the same path with
c = t and q = -1074; zeros, infinities and NaNs are constants.

The layout follows repr: positional, with '.0' for integers, when the
decimal point falls at -4 < decpt <= 16 (value = 0.d1d2... 10^decpt),
else d[.ddd]e-XX.  Each value's characters are gathered from a source of
its digits, the punctuation and its exponent, in the order of one of 748
layouts, picked by (sign, digit count, form), whose unused slots are NUL.
"""

from __future__ import annotations

import functools

import numpy as np

# the longest repr of a double: '-1.2345678901234567e-308'
WIDTH = 24
# values formatted at once: bounds the kernel's scratch arrays
SLAB = 4096

_K_MIN, _K_MAX = -324, 292  # k over the finite doubles
_M32 = np.uint64(0xFFFFFFFF)
_POW10 = 10 ** np.arange(17, dtype=np.uint64)
# 10^8 splits a 17-digit significand into two halves that fit in uint32
_HALF = np.uint64(10**8)

# the rows of the source, one column per value: the 9 digits of each half
# of the 17-digit significand (the first of the second half, always 0, is
# the layouts' '0'), the punctuation, the exponent's sign and 3 digits
_ZERO, _DOT, _E, _MINUS, _NUL, _EXP_SIGN, _EXP_DIGITS = 9, 18, 19, 20, 21, 22, 23
_SOURCE = 26
_DIGIT_ROW = [*range(9), *range(10, 18)]
# a digit row's rank among the significant digits; the '0' row has none
_DIGIT_RANK = np.array([*range(1, 10), 0, *range(10, 18)], dtype=np.uint8)[:, None]
# the exponent's 3 digits, for |decpt - 1| <= 324
_EXPONENTS = (np.arange(325) // np.array([[100], [10], [1]]) % 10 + ord("0")).astype(np.uint8)
# the forms: positional for each decpt, then exponents of 2 and of 3 digits
_DECPT_MIN, _DECPT_MAX = -3, 16
_FORMS = _DECPT_MAX - _DECPT_MIN + 3

_CONSTANTS = {"0.0": 0.0, "-0.0": -0.0, "inf": np.inf, "-inf": -np.inf, "nan": np.nan}


def _flog10pow2(q, irregular):
    """floor(log10(2^q)), or floor(log10(3/4 2^q)) where ``irregular``,
    for |q| <= 5456721 (Giulietti, section 10)."""
    return (q * 661971961083 - irregular * 274743187321) >> 41


def _flog2pow10(e):
    """floor(log2(10^e))."""
    return (e * 913124641741) >> 38


@functools.cache
def _powers() -> np.ndarray:
    """g(k) = floor(10^-k 2^-r) + 1 for k = _K_MIN.._K_MAX, where r makes
    2^125 <= g < 2^126, as four 32-bit limbs, the most significant first:
    a (4, 617) uint64 array."""
    limbs = []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2pow10(-k) - 125
        num, den = (10**-k, 1) if k <= 0 else (1, 10**k)
        num, den = (num, den << r) if r >= 0 else (num << -r, den)
        g = num // den + 1
        limbs.append([(g >> shift) & 0xFFFFFFFF for shift in (96, 64, 32, 0)])
    return np.array(limbs, dtype=np.uint64).T.copy()


def _layout(neg: bool, n: int, form: int) -> list[int]:
    """The source rows of repr for n significant digits in ``form``,
    NUL-padded to WIDTH."""
    d = _DIGIT_ROW
    rows = [_MINUS] if neg else []
    decpt = form + _DECPT_MIN
    if decpt <= 0:  # 0.000ddd
        rows += [_ZERO, _DOT] + [_ZERO] * -decpt + d[:n]
    elif decpt <= _DECPT_MAX:  # ddd.ddd, ddd0.0
        rows += d[:decpt] + [_DOT] + (d[decpt:n] if n > decpt else [_ZERO])
    else:  # d.ddde+XX, de-XXX
        rows += [d[0]] + ([_DOT, *d[1:n]] if n > 1 else []) + [_E, _EXP_SIGN]
        rows += range(_EXP_DIGITS + (form == _FORMS - 2), _EXP_DIGITS + 3)
    return rows + [_NUL] * (WIDTH - len(rows))


@functools.cache
def _layouts(stride: int) -> np.ndarray:
    """Every layout, at (neg * 17 + n - 1) * _FORMS + form, as offsets into
    a source with rows of ``stride`` bytes."""
    keys = [(neg, n, form) for neg in (False, True) for n in range(1, 18) for form in range(_FORMS)]
    return np.array([_layout(*key) for key in keys], dtype=np.intp) * stride


def _rop(g: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """floor(cp g / 2^127), its last bit set when bits 64..126 of cp g are
    not all 0 (round to odd), for cp < 2^59 and g (4, n), the limbs of g.

    With cp = a1 2^32 + a0, cp g_j = y_j 2^32 + (a0 g_j mod 2^32), where
    y_j = a1 g_j + floor(a0 g_j / 2^32) < 2^60; the sums of the y_j and
    low halves by weight carry up to bit 128.  cp g exceeds the exact
    cp 10^-k 2^-r by less than cp < 2^59, so an exact product leaves
    bits 64..126 all 0; Giulietti shows that an inexact one sets one of
    them, and his figure 8 reads no lower bit either."""
    a1, a0 = cp >> 32, cp & _M32
    for j, gj in enumerate(g[::-1]):
        low = a0 * gj
        y = a1 * gj
        y += low >> 32
        if j == 0:
            carry = y
            continue
        w = low & _M32
        w += carry
        if j == 2:
            inexact = w & _M32
        elif j == 3:
            inexact |= w & np.uint64(0x7FFFFFFF)
            half = (w >> 31) & 1
        carry = w >> 32
        carry += y
    carry <<= 1  # floor(cp g / 2^127), but for its last bit, which is half's
    return carry | half | (inexact != 0)


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The shortest, closest decimal f 10^e of each finite nonzero double
    (other values give garbage): Schubfach's digits, f < 10^17."""
    signed = bits.view(np.int64)
    bq = (signed >> 52) & 0x7FF
    t = signed & (2**52 - 1)
    c = t | ((bq > 0).astype(np.int64) << 52)
    q = np.maximum(bq, 1) - 1075  # subnormals have q = -1074
    # below a power of two the spacing halves, except at the subnormals'
    irregular = (t == 0) & (bq > 1)
    k = _flog10pow2(q, irregular)
    h = q + _flog2pow10(-k) + 2  # 1..4
    g = _powers().take(k - _K_MIN, axis=1)
    cb = c << 2
    vbl, vb, vbr = (_rop(g, (cp << h).view(np.uint64)) for cp in (cb - 2 + irregular, cb, cb + 2))
    out = (c & 1).view(np.uint64)  # an odd c excludes the interval's ends
    vbl += out
    vbr -= out
    s = vb >> 2
    sp40 = s // 10 * 40  # 4 s', s' = s with its last digit dropped
    upin = vbl <= sp40
    wpin = sp40 + 40 <= vbr
    s4 = s << 2
    uin = vbl <= s4
    win = s4 + 4 <= vbr
    # both s and s + 1 in: the closer, the even one on a tie
    mid = s4 + 2
    t = s + ((vb > mid) | ((vb == mid) & (s & 1 == 1)))
    f = np.where(uin != win, s + win, t)
    return np.where(upin != wpin, (sp40 >> 2) + wpin * np.uint64(10), f), k


def _format_slab(values: np.ndarray, out: np.ndarray) -> None:
    """``repr_bytes`` of at most SLAB values."""
    m = len(values)
    bits = values.view(np.uint64)
    f, e = _shortest(bits)
    size = np.searchsorted(_POW10, f, side="right")  # digits of f, 1..17
    full = f * _POW10.take(17 - size)  # 17 digits, the first nonzero
    decpt = e + size
    hi = full // _HALF
    halves = np.stack([hi, full - hi * _HALF]).astype(np.uint32)
    digits = np.empty((2, 9, m), dtype=np.uint8)
    for i in range(8, -1, -1):
        rest = halves // 10
        digits[:, i] = halves - rest * 10
        halves = rest
    digits = digits.reshape(18, m)
    n = np.maximum.reduce(_DIGIT_RANK * (digits != 0))  # without trailing zeros
    exp = decpt - 1
    src = np.empty((_SOURCE, SLAB), dtype=np.uint8)  # the layouts' row stride
    src[:18, :m] = digits + ord("0")
    src[_DOT:_EXP_SIGN, :m] = np.frombuffer(b".e-\0", dtype=np.uint8)[:, None]
    src[_EXP_SIGN, :m] = np.where(exp < 0, ord("-"), ord("+"))
    src[_EXP_DIGITS:, :m] = _EXPONENTS.take(np.abs(exp), axis=1)
    form = np.where(
        (decpt >= _DECPT_MIN) & (decpt <= _DECPT_MAX),
        decpt - _DECPT_MIN,
        np.where(np.abs(exp) < 100, _FORMS - 2, _FORMS - 1),
    )
    key = ((bits >> 63).astype(np.intp) * 17 + n - 1) * _FORMS + form
    index = _layouts(SLAB).take(key, axis=0)
    index += np.arange(m)[:, None]
    out[:] = src.ravel().take(index)
    for text, value in _CONSTANTS.items():
        hit = bits == np.float64(value).view(np.uint64) if text != "nan" else np.isnan(values)
        if hit.any():
            out[hit] = np.frombuffer(text.encode().ljust(WIDTH, b"\0"), dtype=np.uint8)


def repr_bytes(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row i of the (n, WIDTH) uint8 result is ``repr(float(values[i]))``
    in ASCII, NUL-padded.  ``out``, if given, receives the rows: an
    (n, WIDTH) uint8 array, such as the first columns of a wider table.
    Works in slabs of ``SLAB`` values, so its scratch memory is bounded."""
    values = np.ascontiguousarray(values, dtype=np.float64).ravel()
    if out is None:
        out = np.empty((values.size, WIDTH), dtype=np.uint8)
    for start in range(0, values.size, SLAB):
        _format_slab(values[start : start + SLAB], out[start : start + SLAB])
    return out
