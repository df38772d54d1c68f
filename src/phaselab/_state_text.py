"""The text of a state file: ``float.__repr__`` of many doubles at once, in numpy.

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
deletes; ``state_json_chunks`` lays the records out as the rows of the file.
"""
from __future__ import annotations

import itertools
import json
from collections.abc import Iterator
from functools import lru_cache

import numpy as np

from .fock_core import DensityMatrix

U = np.uint64
M32, M63 = U(2**32 - 1), U(2**63 - 1)
K_MIN, K_MAX = -324, 292  # the decimal exponents Schubfach reaches for doubles
POW10 = np.array([10**i for i in range(18)], dtype=U)
# magnitudes per pass: ~270 kB of records and ~2.7 MB of scratch
SLICE = 1 << 13
FILL = b"_"  # a byte no number holds
WIDTH = 28
# up to this share of nonzero magnitudes a state-file part is quicker written as runs of 0.0
SPARSE_SHARE = 0.13


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


def _record_codes(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mags, code) for a square real matrix a: |a| is ``[0, *mags][code]``, mags positive.

    The nonzero entries on and above the diagonal take a record each, in position order,
    and so does a lower entry whose magnitude differs from its mirror's; every other lower
    entry takes its mirror's code. So an exactly Hermitian matrix formats each magnitude of
    one triangle once, and the work follows the nonzero entries, with no sort; only the
    lower entries' magnitudes are gathered to compare. Positions, mirrors and codes are
    int32 when a.size < 2^31, half the bytes of intp, and gathered with ``take``."""
    n = len(a)
    index = np.int32 if a.size < 2**31 else np.intp
    mag = np.abs(a).ravel()
    at = np.flatnonzero(mag != 0).astype(index, copy=False)
    row = at // n
    mirror = (at - row * n) * n + row
    del row
    lower = at > mirror
    shared = np.zeros_like(lower)
    shared[lower] = mag.take(at[lower]) == mag.take(mirror[lower])
    code = np.zeros(mag.size, dtype=index)
    own = at[~shared]
    code[own] = np.arange(1, own.size + 1, dtype=index)
    code[at[shared]] = code.take(mirror[shared])
    return mag.take(own), code.reshape(n, n)


def _part_chunks(name: str, a: np.ndarray, code: np.ndarray, table: np.ndarray) -> Iterator[str]:
    """The text ``, "name": [[...]]`` of a, from its codes and record table, in slabs of
    whole rows, each closed by "], [" and the last by "]]". A slab of records puts "-" in
    the sign byte of the negative entries, -0.0 included. When at most ``SPARSE_SHARE`` of
    the magnitudes are nonzero, a slab is instead rows of "0.0" (as much text as a slab of
    records), where one ``%`` format puts the records of the entries with any bit set."""
    records = table.view(f"V{WIDTH}")[:, 0]
    n = len(a)
    yield f', "{name}": [['
    if np.count_nonzero(code) > SPARSE_SHARE * code.size:
        step = max(1, SLICE // n)
        for i in range(0, n, step):
            slab = records.take(code[i : i + step]).view(np.uint8).reshape(-1, n, WIDTH)
            slab[..., 0][np.signbit(a[i : i + step])] = ord("-")
            slab[:, -1, -4:] = list(b"], [")
            if i + step >= n:
                slab[-1, -1, -4:] = list(b"]]" + FILL * 2)
            yield slab.tobytes().translate(None, FILL).decode("ascii")
        return
    zeros = bytearray(b"0.0, " * (n - 1) + b"0.0], [")
    step = max(1, SLICE * WIDTH // len(zeros))
    at = np.flatnonzero(a.view(np.uint64) != 0)
    codes, negative = code.ravel().take(at), np.signbit(a[at // n, at % n])
    bounds = np.searchsorted(at, np.arange(0, n + step, step) * n)
    for i, lo, hi in zip(range(0, n, step), bounds, bounds[1:]):
        text = zeros * min(step, n - i)
        if i + step >= n:
            text[-4:] = b"]]"
        f = at[lo:hi] - i * n  # entry f starts at byte 5 f + 2 (f // n): "0.0" becomes "%-s"
        np.frombuffer(text, np.uint8)[(5 * f + 2 * (f // n))[:, None] + np.arange(3)] = list(b"%-s")
        recs = records.take(codes[lo:hi]).view(np.uint8).reshape(-1, WIDTH)
        recs[:, 0][negative[lo:hi]] = ord("-")
        recs[:, -4:] = list(b"\0" + FILL * 3)  # each record's text, then one NUL
        yield (text % tuple(recs.tobytes().translate(None, FILL).split(b"\0")[:-1])).decode("ascii")


def state_json_chunks(rho: DensityMatrix) -> Iterator[str]:
    """The text of ``json.dumps(save_state(rho))``, exactly, in the slabs of whole matrix
    rows that ``_part_chunks`` lays out, ``re`` then ``im``, each from one ``record_table``
    of the magnitudes ``_record_codes`` picks (one triangle's if exactly Hermitian).

    The ``im`` part's codes come first. A table of more than one ``SLICE`` of magnitudes is
    built by one worker thread, which holds no codes and no text, while the ``re`` part is
    yielded; a smaller one is built here first, which is quicker. A worker's exception is
    raised when the ``im`` part is reached, and closing the generator early joins it.
    So a caller holds one part's records and slab, and the other part's codes and table."""
    from concurrent.futures import ThreadPoolExecutor  # not at the top: it imports logging
    re, im = rho.entries.real, rho.entries.imag
    im_mags, im_code = _record_codes(im)
    with ThreadPoolExecutor(1) as worker:  # its thread starts with its first task
        future = worker.submit(record_table, im_mags) if im_mags.size > SLICE else None
        im_table = None if future else record_table(im_mags)
        del im_mags  # held by the worker alone, and freed once its table is built
        yield f'{{"dim": {json.dumps(rho.dim)}, "n_modes": {json.dumps(rho.n_modes)}'
        re_mags, re_code = _record_codes(re)
        re_table = record_table(re_mags)
        del re_mags
        yield from _part_chunks("re", re, re_code, re_table)
        del re_code, re_table  # freed before the im part's slabs are made
        yield from _part_chunks("im", im, im_code, future.result() if future else im_table)
    yield f', "leakage": {json.dumps(rho.leakage)}}}'
