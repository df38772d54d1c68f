"""``float.__repr__`` for many positive doubles at once, in numpy.

The digits are Schubfach's (R. Giulietti, "The Schubfach way to render doubles",
2020): the shortest decimal in the double's rounding interval, the nearer of two
such on a tie and the even one on an exact tie, which is what ``repr`` prints.
Schubfach keeps at least two digits for the smallest subnormals (5e-324 would be
4.9e-324); here the candidate one digit shorter is tried for every value, so
subnormals come out as ``repr`` writes them too. The integer arithmetic is all
``uint64``, never mixed with ``int64`` (numpy would promote the mix to float64), and
the 64x64-bit high products are built from 32-bit limbs.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

U = np.uint64
M32, M63 = U(2**32 - 1), U(2**63 - 1)
K_MIN, K_MAX = -324, 292  # the decimal exponents Schubfach reaches for doubles
POW10 = np.array([10**i for i in range(18)], dtype=U)
# magnitudes per pass: ~240 kB of text bytes and ~1 MB of uint64 scratch, so a part's
# words take less transient memory than the Python floats `repr` would read them from
SLICE = 1 << 13
FILL = b"_"  # a byte no word holds, deleted before the split
DOT, FILL_BYTE = np.uint8(ord(".")), np.uint8(FILL[0])


def _flog2pow10(e):
    """floor(e log2 10) for |e| <= 1000."""
    return (e * 913124641741) >> 38


@lru_cache(maxsize=1)
def _tables() -> tuple[np.ndarray, ...]:
    """g = g1 2^63 + g0 = floor(10^-k 2^-r) + 1 in [2^125, 2^126), r = floor(log2 10^-k) - 125,
    for k = K_MIN..K_MAX; and the five-byte heads ("0." and up to three zeros) and
    exponent tails of the layout."""
    g = []
    for k in range(K_MIN, K_MAX + 1):
        r = _flog2pow10(-k) - 125
        g.append((10 ** max(-k, 0) << max(-r, 0)) // (10 ** max(k, 0) << max(r, 0)) + 1)
    heads = [b"_____", b"0.___", b"0.0__", b"0.00_", b"0.000"]
    tails = [b"_____"] + [f"e{x:+03d}".encode().ljust(5, FILL) for x in range(-324, 309)]
    return (np.array([x >> 63 for x in g], dtype=U), np.array([x & (2**63 - 1) for x in g], dtype=U),
            *(np.frombuffer(b"".join(b), np.uint8).reshape(-1, 5) for b in (heads, tails)))


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


def _words(f: np.ndarray, k: np.ndarray) -> list[str]:
    """``repr`` of f 10^k: positional for decimal exponents -4..15, else d.ddde+XX."""
    nd = np.searchsorted(POW10, f, side="right")
    hi, lo = np.divmod(f * POW10[17 - nd], U(10**9))
    d = np.zeros((f.size, 19), dtype=np.uint8)  # the 17 digits, with a column either side
    for cols, part in ((range(17, 8, -1), lo), (range(8, 0, -1), hi)):
        part = part.astype(np.uint32)
        for i in cols:
            part, d[:, i] = np.divmod(part, np.uint32(10))
    d += 48
    n = 17 - np.argmax(d[:, 17:0:-1] != 48, axis=1)  # significant digits
    decpt = nd + k  # the value is 0.d1d2... 10^decpt
    pos = (decpt > -4) & (decpt <= 16)
    lead = pos & (decpt <= 0)
    # the point goes before digit p and digits from `last` on are dropped
    p = np.where(pos, np.where(lead, 18, decpt), 1).astype(np.int8)[:, None]
    last = np.where(pos & ~lead, np.maximum(n, decpt + 1), n).astype(np.int8)[:, None]
    col = np.arange(18, dtype=np.int8)
    after = col > p
    heads, tails = _tables()[2:]
    text = np.empty((f.size, 29), dtype=np.uint8)
    body = text[:, 5:23]
    body[...] = d[:, 1:]
    np.copyto(body, d[:, :-1], where=after)
    np.copyto(body, DOT, where=col == p)
    np.copyto(body, FILL_BYTE, where=col - after >= last)
    text[:, :5] = heads[np.where(lead, 1 - decpt, 0)]
    text[:, 23:28] = tails[np.where(pos, 0, decpt + 324)]
    text[:, 28] = ord(" ")
    return text.tobytes().translate(None, FILL).decode("ascii").split()


def shortest_reprs(mags: np.ndarray) -> list[str]:
    """``[repr(x) for x in mags]`` for a 1-D float64 array of positive finite values."""
    words = []
    for i in range(0, mags.size, SLICE):
        words += _words(*_digits(mags[i : i + SLICE]))
    return words
