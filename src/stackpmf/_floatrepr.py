"""``sep.join(map(float.__repr__, values))`` for a float64 array, vectorized.

:func:`repr_join` finds each value's shortest round-trip digits with the
Schubfach algorithm in ``uint64`` arithmetic (R. Giulietti, "The Schubfach
way to render doubles", 2020; the steps follow Java's ``DoubleToDecimal``
without the two-digit minimum of Java's ``toString``), lays them out as
``float.__repr__`` does, and gathers the bytes of each value and the
separator after it by a template of source columns chosen by its layout,
with one flat ``np.take`` per block of values.

``float.__repr__`` writes the shortest decimal that reads back to the
value, the nearer one when there are two (a tie goes to the even last
digit). With ``decpt`` the place of the decimal point counted from the
left of the digits, it is positional when ``-4 < decpt <= 16`` and
``d[.ddd]e±XX`` otherwise, with at least two exponent digits.

The tables are built on first use. No ``uint64`` array is combined with
an ``int64`` one: numpy before 2.0 promotes that pair to float64.
"""

import functools

import numpy as np

#: The powers ``10**k`` the digits of a float64 can take:
#: ``floor(log10(2**q))`` over its exponents q.
_K_MIN, _K_MAX = -324, 292

_U32, _MASK32, _MASK63 = np.uint64(32), np.uint64(2**32 - 1), np.uint64(2**63 - 1)
_ONE, _TWO, _TEN = np.uint64(1), np.uint64(2), np.uint64(10)
_U52, _U63 = np.uint64(52), np.uint64(63)

#: Positional layouts, by decpt; then the 2- and 3-digit exponent layouts.
_DECPT_MIN, _DECPT_MAX = -3, 16
_LAYOUTS = _DECPT_MAX - _DECPT_MIN + 3
_MAX_DIGITS = 17

# The bytes of a value's source row: its digits right-aligned in five
# 4-digit groups, its exponent's sign and three digits, the constant
# characters, the byte that marks padding, then the separator.
_DIGITS_END = 20
_EXP_SIGN = _DIGITS_END
_EXP = _EXP_SIGN + 1
_MINUS, _DOT, _E, _ZERO, _PAD = range(_EXP + 3, _EXP + 8)
_SEP = _PAD + 1
#: The bytes of the constant columns. 0xFF occurs in no UTF-8 text.
_CONSTANTS = b"-.e0\xff"
#: Values gathered into bytes at once.
_GATHER_ROWS = 1024
#: The longest repr: ``-d.dddddddddddddddde-XXX``.
_REPR_MAX = 3 + (_MAX_DIGITS - 1) + 5


@functools.cache
def _scales() -> tuple[np.ndarray, ...]:
    """``(k, h, g1, g1_lo, g1_hi, g0_lo, g0_hi)`` by ``biased + 2047 irregular``,
    for the biased exponent of a value and whether its rounding interval is
    the asymmetric one of a power of two.

    The value ``c 2**q`` has digits ``c 2**q 10**-k``, which is
    ``(c << h) g 2**-127`` for ``10**-k = beta 2**r``, ``2**125 <= beta <
    2**126``, ``g = floor(beta) + 1`` and ``h = q + r + 127``; g1 is g's
    high 63 bits, and the last four arrays are the 32-bit halves of g's
    high and low 63 bits.
    """
    biased = np.tile(np.arange(2047, dtype=np.int64), 2)
    irregular = np.repeat(np.array([0, 1], np.int64), 2047)
    q = np.maximum(biased, 1) - 1075
    # floor(log10(2**q)), or of (3/4) 2**q if irregular, as Java's MathUtils computes them
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    g, r = [], []
    for power in range(_K_MIN, _K_MAX + 1):
        if power <= 0:
            shift = (10**-power).bit_length() - 126
            beta = 10**-power >> shift if shift >= 0 else 10**-power << -shift
        else:
            shift = -125 - (10**power).bit_length()
            beta = (1 << -shift) // 10**power
        g.append(beta + 1)
        r.append(shift)
    at = k - _K_MIN
    h = q + np.array(r)[at] + 127
    g1 = np.array([x >> 63 for x in g], np.uint64)[at]
    g0 = np.array([x & 2**63 - 1 for x in g], np.uint64)[at]
    halves = [(part >> shift & _MASK32).astype(np.uint32) for part in (g1, g0) for shift in (np.uint64(0), _U32)]
    return (k.astype(np.int16), h.astype(np.uint8), g1, *halves)


@functools.cache
def _digit_groups() -> tuple[np.ndarray, np.ndarray]:
    """The four ASCII digits of every integer below 10**4, and the sign and
    three digits of every decimal exponent from -324, each as one uint32."""
    n = np.arange(10**4, dtype=np.int32)
    digits = np.empty((n.size, 4), np.uint8)
    for col, power in enumerate((1000, 100, 10, 1)):
        digits[:, col] = n // power % 10 + ord("0")
    exp = np.arange(-324, 309)
    signs = np.where(exp < 0, ord("-"), ord("+")).astype(np.uint8)
    exp = np.concatenate([signs[:, None], digits[np.abs(exp), 1:]], axis=1)
    return digits.view(np.uint32).ravel(), exp.view(np.uint32).ravel()


@functools.cache
def _powers_of_ten() -> np.ndarray:
    return np.array([10**p for p in range(1, _MAX_DIGITS + 1)], np.uint64)


@functools.cache
def _templates(sep_len: int) -> np.ndarray:
    """The source columns of a value's repr followed by the separator, by
    layout key ``(neg * _LAYOUTS + layout) * _MAX_DIGITS + digits - 1``,
    padded with ``_PAD`` to one width."""
    columns = np.full((2 * _LAYOUTS * _MAX_DIGITS, _REPR_MAX + sep_len), _PAD, np.min_scalar_type(_SEP + sep_len))
    sep = list(range(_SEP, _SEP + sep_len))
    for neg in (0, 1):
        for layout in range(_LAYOUTS):
            decpt = layout + _DECPT_MIN
            for n in range(1, _MAX_DIGITS + 1):
                digits = list(range(_DIGITS_END - n, _DIGITS_END))
                if decpt > _DECPT_MAX:  # d[.ddd]e±XX[X]
                    exp = [_EXP + 1, _EXP + 2] if layout == _LAYOUTS - 2 else [_EXP, _EXP + 1, _EXP + 2]
                    body = digits[:1] + ([_DOT] + digits[1:] if n > 1 else []) + [_E, _EXP_SIGN] + exp
                elif decpt <= 0:
                    body = [_ZERO, _DOT] + [_ZERO] * -decpt + digits
                elif decpt < n:
                    body = digits[:decpt] + [_DOT] + digits[decpt:]
                else:
                    body = digits + [_ZERO] * (decpt - n) + [_DOT, _ZERO]
                row = [_MINUS] * neg + body + sep
                columns[(neg * _LAYOUTS + layout) * _MAX_DIGITS + n - 1, : len(row)] = row
    return columns


def _mul_high(a_lo, a_hi, b_lo, b_hi) -> np.ndarray:
    """The high 64 bits of the 128-bit products of the uint64 arrays a and b,
    given as their 32-bit halves: a's as uint32, b's as uint64."""
    high = a_hi * b_lo
    cross = a_lo * b_lo
    cross >>= _U32
    cross += high & _MASK32
    cross += a_lo * b_hi
    cross >>= _U32
    high >>= _U32
    high += cross
    high += a_hi * b_hi
    return high


def _round_to_odd(g, cp: np.ndarray) -> np.ndarray:
    """``cp g 2**-127`` rounded to odd, for ``g`` as :func:`_scales` splits it
    and ``cp < 2**63``, as Java's ``DoubleToDecimal.rop`` computes it."""
    g1, g1_lo, g1_hi, g0_lo, g0_hi = g
    cp_lo, cp_hi = cp & _MASK32, cp >> _U32
    z = g1 * cp
    z >>= _ONE
    z += _mul_high(g0_lo, g0_hi, cp_lo, cp_hi)
    out = _mul_high(g1_lo, g1_hi, cp_lo, cp_hi)
    out += z >> _U63
    z &= _MASK63
    z += _MASK63
    z >>= _U63
    out |= z
    return out


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(f, e)`` with ``f 10**e`` the decimal ``float.__repr__`` writes for
    each positive finite float64 with the bits ``bits``; f has no trailing
    zero."""
    biased = bits >> _U52
    fraction = bits & np.uint64(2**52 - 1)
    # the interval is asymmetric at a power of two, except at the smallest exponent
    irregular = (fraction == 0) & (biased > _ONE)
    at = biased.astype(np.intp)
    at[irregular] += 2047
    k, h, *g = (table.take(at) for table in _scales())
    c = (biased != 0).astype(np.uint64)
    c <<= _U52
    c |= fraction
    del biased, fraction, at  # chunk-sized arrays: the products below hold many more at once
    # the value and the ends of its interval, times 4 10**-k
    cb = c << _TWO
    vb = _round_to_odd(g, cb << h)
    cp = cb - _TWO
    cp += irregular
    cp <<= h
    vbl = _round_to_odd(g, cp)
    cb += _TWO
    cb <<= h
    vbr = _round_to_odd(g, cb)
    del cp, cb, g, h
    odd = c & _ONE
    low, high = vbl + odd, vbr - odd  # the interval is closed when c is even
    s = vb >> _TWO
    # at most one multiple of 10**(k+1) lies in the interval: if one does, it is the answer
    sp10 = s // _TEN * _TEN
    upin = low <= sp10 << _TWO
    wpin = sp10 + _TEN << _TWO <= high
    # else s or s + 1, whichever lies in it, or the nearer if both do (a tie to even)
    uin = low <= s << _TWO
    win = s + _ONE << _TWO <= high
    nearer_s = (vb & np.uint64(3)) + (s & _ONE) < np.uint64(3)
    f = np.where(upin != wpin, sp10 + _TEN * wpin, s + (win & ~(uin & nearer_s)))
    rows, digits = np.arange(f.size), f
    while rows.size:  # strip trailing zeros from the rows that still end in one
        tenth = digits // _TEN
        zero = tenth * _TEN == digits
        rows, digits = rows[zero], tenth[zero]
        f[rows] = digits
        k[rows] += 1
    return f, k


def _source_rows(values: np.ndarray, sep: bytes) -> tuple[np.ndarray, np.ndarray]:
    """``(keys, rows)``: the layout key of each value of ``values`` and the
    bytes its repr and ``sep`` are gathered from, one row a value."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    neg = (bits >> _U63).astype(np.intp)
    bits = bits & _MASK63
    f, e = np.zeros(bits.size, np.uint64), np.zeros(bits.size, np.int64)
    nonzero = bits != 0  # zero is f = 0, which lays out as 0.0
    f[nonzero], e[nonzero] = _shortest(bits[nonzero])
    n = np.searchsorted(_powers_of_ten(), f, side="right") + 1
    decpt = e + n
    exp = decpt - 1
    layout = np.where((_DECPT_MIN <= decpt) & (decpt <= _DECPT_MAX), decpt - _DECPT_MIN,
                      np.where(np.abs(exp) < 100, _LAYOUTS - 2, _LAYOUTS - 1))
    keys = (neg * _LAYOUTS + layout) * _MAX_DIGITS + n - 1

    width = _SEP + len(sep)
    rows = np.empty((bits.size, width + -width % 4), np.uint8)
    words = rows.view(np.uint32)
    groups, exponents = _digit_groups()
    high = f // np.uint64(10**8)
    low = (f - high * np.uint64(10**8)).astype(np.intp)
    high = high.astype(np.intp)
    first = high // 10**8
    words[:, 0] = groups.take(first)
    for word, part in ((1, high - first * 10**8), (3, low)):
        part_high = part // 10**4
        words[:, word] = groups.take(part_high)
        words[:, word + 1] = groups.take(part - part_high * 10**4)
    words[:, _EXP_SIGN // 4] = exponents.take(exp + 324)
    rows[:, _MINUS:width] = np.frombuffer(_CONSTANTS + sep, np.uint8)
    return keys, rows


def _gather(columns: np.ndarray, keys: np.ndarray, rows: np.ndarray, at: int) -> bytes:
    """The bytes of the ``_GATHER_ROWS`` values from ``at`` on, padding dropped."""
    keys = keys[at : at + _GATHER_ROWS]
    width = rows.shape[1]
    index = columns.take(keys, axis=0) + np.arange(at * width, (at + keys.size) * width, width)[:, None]
    text = rows.ravel().take(index)
    return text[text != 0xFF].tobytes()


def repr_join(values: np.ndarray, sep: str) -> str:
    """``sep.join(map(float.__repr__, values.tolist()))`` for a 1-D float64
    array ``values`` of finite entries."""
    if not values.size:
        return ""
    sep_bytes = sep.encode("utf-8", "surrogatepass")
    keys, rows = _source_rows(values, sep_bytes)
    columns = _templates(len(sep_bytes))
    # in blocks, as the index takes 8 bytes a byte
    text = b"".join([_gather(columns, keys, rows, at) for at in range(0, values.size, _GATHER_ROWS)])
    return text[: len(text) - len(sep_bytes)].decode("utf-8", "surrogatepass")
