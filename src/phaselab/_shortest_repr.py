"""``float.__repr__`` for many positive doubles at once, in numpy, as fixed-width records.

The digits are Schubfach's (R. Giulietti, "The Schubfach way to render doubles",
2020): the shortest decimal in the double's rounding interval, the nearer of two
such on a tie and the even one on an exact tie, which is what ``repr`` prints.
Schubfach keeps at least two digits for the smallest subnormals (5e-324 would be
4.9e-324); here the candidate one digit shorter is tried for every value, so
subnormals come out as ``repr`` writes them too. The integer arithmetic is all
``uint64``, never mixed with ``int64`` (numpy would promote the mix to float64), and
the 64x64-bit high products are built from 32-bit limbs.

A record is WIDTH = 28 bytes: a sign byte, 23 of text, then ", " and two spare bytes, so
that a row's last record can take "], [" in its last four. The text is at most 23
characters, the exponent tail packed against the digits (the longest, such as
"2.2250738585072014e-308", fill it). Bytes a value does not use hold FILL, which the reader
deletes.
"""
from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

U = np.uint64
M32, M63 = U(2**32 - 1), U(2**63 - 1)
K_MIN, K_MAX = -324, 292  # the decimal exponents Schubfach reaches for doubles
POW10 = np.array([10**i for i in range(18)], dtype=U)
# magnitudes per pass: ~270 kB of records and ~2.7 MB of scratch
SLICE = 1 << 13
FILL = b"_"  # a byte no number holds
WIDTH = 28


def _flog2pow10(e):
    """floor(e log2 10) for |e| <= 1000."""
    return (e * 913124641741) >> 38


@lru_cache(maxsize=1)
def _tables() -> tuple[np.ndarray, ...]:
    """g = g1 2^63 + g0 = floor(10^-k 2^-r) + 1 in [2^125, 2^126), r = floor(log2 10^-k) - 125,
    for k = K_MIN..K_MAX; and the layout tables of ``record_table``."""
    g = []
    for k in range(K_MIN, K_MAX + 1):
        r = _flog2pow10(-k) - 125
        g.append((10 ** max(-k, 0) << max(-r, 0)) // (10 ** max(k, 0) << max(r, 0)) + 1)
    # words: four ASCII digits per group 0..9999, the point and three fills, then two words
    # per decpt = -324..309 of exponent tail ("e-05" for decpt -4), FILL where it is positional
    tails = (FILL * 8 if -4 < x <= 16 else f"e{x - 1:+03d}".encode().ljust(8, FILL)
             for x in range(-324, 310))
    words = np.frombuffer(b"".join(b"%04d" % i for i in range(10**4)) + b"." + FILL * 3
                          + b"".join(tails), np.uint32)
    # the text of 0.d1d2..d17 10^decpt with n significant digits, for decpt clipped to
    # -4..17, as indices into the 32 bytes "000" d1..d17 "." FILL FILL FILL, then the tail
    # (digit j at d[j], the tail at 24..28)
    maps, d = np.full((22, 18, 23), 21, dtype=np.intp), list(range(2, 20))
    for decpt, n in itertools.product(range(-4, 18), range(1, 18)):
        if -4 < decpt <= 0:
            text = [0, 20] + [0] * -decpt + d[1 : n + 1]
        elif 0 < decpt <= 16:
            text = d[1 : decpt + 1] + [20] + d[decpt + 1 : max(n, decpt + 1) + 1]
        else:
            text = d[1:2] + [20] * (n > 1) + d[2 : n + 1] + list(range(24, 29))
        maps[decpt + 4, n, : len(text)] = text
    return (np.array([x >> 63 for x in g], dtype=U), np.array([x & (2**63 - 1) for x in g], dtype=U),
            words, maps.reshape(-1, 23))


def _mulhi(a, b):
    """The high 64 bits of the 128-bit products a b."""
    a0, a1, b0, b1 = a & M32, a >> U(32), b & M32, b >> U(32)
    mid = a1 * b0
    cross = (a0 * b0 >> U(32)) + (mid & M32) + a0 * b1
    return a1 * b1 + (mid >> U(32)) + (cross >> U(32))


def _rop(g1, g0, cp):
    """floor(cp g 2^-127), with its lowest bit set when the product is not an integer."""
    z = (g1 * cp >> U(1)) + _mulhi(g0, cp)
    return (_mulhi(g1, cp) + (z >> U(63))) | ((z & M63) + M63 >> U(63))


def _digits(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, k): f 10^k is the shortest decimal that reads back as v, for positive finite v."""
    bits = v.view(U)
    bq, t = (bits >> U(52)).astype(np.int64), bits & U(2**52 - 1)
    c = np.where(bq > 0, t | U(2**52), t)
    q = np.where(bq > 0, bq - 1075, -1074)  # v = c 2^q
    # at a power of two above the smallest normal, the lower neighbour is half as far
    irregular = (t == 0) & (bq > 1)
    k = (q * 661971961083 - np.where(irregular, 274743187321, 0)) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(U)
    g1, g0 = (g[k - K_MIN] for g in _tables()[:2])
    out, cb = c & U(1), c << U(2)  # an even c keeps the ends of its rounding interval
    vb, vbr = _rop(g1, g0, cb << h), _rop(g1, g0, cb + U(2) << h)
    vbl = _rop(g1, g0, cb - np.where(irregular, U(1), U(2)) << h)
    s = vb >> U(2)
    sp = s // U(10) * U(10)
    up, wp = vbl + out <= sp << U(2), (sp + U(10) << U(2)) + out <= vbr
    u, w = vbl + out <= s << U(2), (s + U(1) << U(2)) + out <= vbr
    mid = (s << U(2)) + U(2)
    above = (vb > mid) | ((vb == mid) & ((s & U(1)) == U(1)))
    return np.where(up != wp, np.where(up, sp, sp + U(10)), s + np.where(u != w, w, above)), k


def _texts(v: np.ndarray) -> np.ndarray:
    """(v.size, 23) uint8: the text of ``repr(x)`` for each x of v, padded with FILL. A
    slice's scratch (about 2.7 MB for ``SLICE`` values) is freed on return."""
    words, maps = _tables()[2:]
    f, k = _digits(v)
    nd = np.searchsorted(POW10, f, side="right")
    hi, lo = np.divmod(f * POW10[17 - nd], U(10**8))  # the 17 digits, 9 and 8
    decpt = nd + k  # the value is 0.d1d2... 10^decpt
    # d1, four groups of four digits, the point and the two words of the tail
    g = np.empty((8, f.size), dtype=np.uint32)
    g[0], hi = np.divmod(hi.astype(np.uint32), np.uint32(10**8))
    g[1], g[2] = np.divmod(hi, np.uint32(10**4))
    g[3], g[4] = np.divmod(lo.astype(np.uint32), np.uint32(10**4))
    g[5] = 10**4
    g[6] = 2 * (decpt + 324) + 10**4 + 1
    g[7] = g[6] + 1
    digits = words.take(g.T).view(np.uint8)  # "000" d1..d17 "." FILL FILL FILL, the tail
    n = 17 - np.argmax(digits[:, 19:2:-1] != ord("0"), axis=1)  # significant digits
    idx = maps[(np.clip(decpt, -4, 17) + 4) * 18 + n]
    idx += np.arange(0, 32 * f.size, 32)[:, None]
    return digits.ravel()[idx]


def record_table(mags: np.ndarray) -> np.ndarray:
    """(1 + mags.size, WIDTH) uint8 records for a 1-D float64 array of positive finite
    values: row 0 is 0.0 and row i + 1 is ``repr(mags[i])``, positional for decimal
    exponents -4..15, else d.ddde+XX; each with a FILL sign byte and the separator."""
    table = np.empty((mags.size + 1, WIDTH), np.uint8)
    table[...] = np.frombuffer(FILL * 24 + b", " + FILL * 2, np.uint8)
    table[0, 1:4] = list(b"0.0")
    for i in range(0, mags.size, SLICE):
        table[1 + i : 1 + i + SLICE, 1:24] = _texts(mags[i : i + SLICE])
    return table
