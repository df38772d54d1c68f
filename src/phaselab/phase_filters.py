"""Filter functions Omega(beta) and filtered characteristic functions.

A filter is Omega(beta) = exp(s|beta|^2/2 + sum c_kl beta^k beta*^l) with c_00 = 0,
so that Omega(0) = 1. The s family (s=1: P, s=0: Wigner, s=-1: Q) is the filters
with no other term. A filtered characteristic function that is not finite at a
requested beta raises NonFiniteArgument, with no warning.
"""
from __future__ import annotations

import json
import weakref
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt, sqrt
from numbers import Integral, Number, Real

import numpy as np

from .errors import DimensionMismatch, GridTooCoarse, InvalidFilter
from .errors import MalformedFile, NonFiniteArgument
from .fock_core import DensityMatrix, check_leakage, effective_dim, json_number, require_finite

_PHI = "the filtered characteristic function"


@dataclass(frozen=True)
class FilterSpec:
    """One value per filter: ``s`` plus ``coeffs``, the other series terms.

    ``coeffs`` is a tuple of (k, l, c_kl), sorted, with the terms of one (k, l) summed
    and zero terms dropped. The real part of c_11 moves into ``s`` as 2 Re c_11, so
    ``coeffs`` holds only its imaginary part. A NaN or inf raises NonFiniteArgument; an
    ``s`` that is not a real number or a c_kl not a number (bool and str are neither),
    a power that is not a nonnegative integer or a nonzero c_00 raises InvalidFilter.
    """

    s: float = 0.0
    coeffs: tuple[tuple[int, int, complex], ...] = ()

    def __post_init__(self):
        values = [(self.s, Real), *((c, Number) for *_, c in self.coeffs)]
        if any(isinstance(v, bool) or not isinstance(v, kind) for v, kind in values):
            raise InvalidFilter("s must be a real number and every c_kl a number")
        terms = {}
        for k, l, c in self.coeffs:
            if not all(isinstance(p, Integral) and p >= 0 for p in (k, l)):
                raise InvalidFilter(f"series powers ({k}, {l}) must be nonnegative integers")
            k, l = int(k), int(l)
            terms[k, l] = terms.get((k, l), 0) + complex(c)
        c11 = terms.pop((1, 1), 0j)
        s = float(self.s) + 2 * c11.real
        terms[1, 1] = 1j * c11.imag
        require_finite([s, *terms.values()], "s and every series coefficient")
        if terms.get((0, 0), 0) != 0:
            raise InvalidFilter("c_00 must vanish so that Omega(0) = 1")
        object.__setattr__(self, "s", s)
        clean = tuple((k, l, c) for (k, l), c in sorted(terms.items()) if c != 0)
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def s_param(cls, s: float) -> "FilterSpec":
        return cls(s=s)

    @classmethod
    def general(cls, coeffs: dict) -> "FilterSpec":
        return cls(coeffs=tuple((k, l, c) for (k, l), c in coeffs.items()))

    @np.errstate(over="ignore", invalid="ignore")
    def exponent(self, beta):
        """Exponent of the filter at beta (scalar or array); inf or NaN where it overflows."""
        beta = np.asarray(beta, dtype=complex)
        acc = self.s * np.abs(beta) ** 2 / 2
        for k, l, c in self.coeffs:
            acc = acc + c * beta**k * beta.conjugate() ** l
        return acc

    def as_s(self) -> float | None:
        """The s-parameter, or None if not in the Gaussian family."""
        return None if self.coeffs else self.s

    def describe(self) -> dict:
        """{"s": s} for the s family, else every term with c_11 = s/2 + i Im c_11."""
        if not self.coeffs:
            return {"s": self.s}
        terms = {(k, l): c for k, l, c in self.coeffs}
        terms[1, 1] = self.s / 2 + terms.get((1, 1), 0j)
        return {"coeffs": [{"k": k, "l": l, "re": c.real, "im": c.imag}
                           for (k, l), c in sorted(terms.items()) if c != 0]}


def filter_from_json(obj: dict | str) -> FilterSpec:
    """A record with exactly one of "s" (a number) and "coeffs" ({"k", "l", "re", "im"})."""
    try:
        if isinstance(obj, str):
            obj = json.loads(obj)
        if ("s" in obj) == ("coeffs" in obj):
            raise ValueError("a filter record holds exactly one of s and coeffs")
        if "s" in obj:
            return FilterSpec(s=json_number(obj["s"]))
        return FilterSpec(coeffs=tuple(
            (json_number(e["k"], Integral), json_number(e["l"], Integral),
             complex(json_number(e.get("re", 0.0)), json_number(e.get("im", 0.0))))
            for e in obj["coeffs"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedFile(f"not a filter record: {type(exc).__name__}: {exc}") from None


@lru_cache(maxsize=16, typed=True)
def _axis(extent: float, points: int) -> np.ndarray:
    """linspace's lower half mirrored onto its upper half, with an exact 0 at the centre of
    an odd axis; read-only. Points that are not a non-negative integer (nor a bool: the cache
    is typed, so 129.0 never finds 129) raise GridTooCoarse, and an extent whose double is
    not finite (linspace spans it) NonFiniteArgument: every axis and mesh made is finite."""
    if isinstance(points, bool) or not isinstance(points, Integral) or points < 0:
        raise GridTooCoarse(f"lattice points must be a non-negative integer, not {points!r}")
    if not np.isfinite(2.0 * extent):
        raise NonFiniteArgument(f"lattice extent {extent} must be finite, and twice it too")
    half = np.linspace(-extent, extent, points)[: points // 2]
    axis = np.concatenate([half, [0.0] * (points % 2), -half[::-1]])
    axis.setflags(write=False)
    return axis


# the orbit plan (``_orbits``) of each mesh lattice() keeps, by its id, dropped when it is freed
_kept_meshes: dict[int, tuple] = {}
# per row builder, its one table (``_kept_rows``): (key, levels, the rows built so far by part,
# the build(part) of those levels). No lock: threads that race here change what is kept, never
# a value, as a table is only read under its key
_row_tables: dict = {}
# the bound of every row table: 8 MiB is about 57 levels of the kernel's rows on 4:129
_ROW_TABLE_BYTES = 8 * 2**20


@lru_cache(maxsize=16, typed=True)
def lattice(extent: float, points: int) -> tuple[np.ndarray, np.ndarray]:
    """Axis and complex mesh of a square lattice symmetric about the origin. The axis is
    exactly antisymmetric (``_axis``), so the mesh is exactly closed under b -> ib and the
    band kernel evaluates each four-point rotation orbit once. Both depend only on the values
    (extent, points), so they are built once per pair (6 and 6.0 share theirs) and shared as
    read-only arrays, the mesh with its read-only orbit plan, which the kernel finds by the
    mesh's identity (``_kept``). Every mesh kept is finite (``_axis``): not scanned again."""
    axis = _axis(extent, points)
    if type(extent) is not float or type(points) is not int:
        return lattice(float(extent), int(points))
    x, y = np.meshgrid(axis, axis)
    mesh = x + 1j * y
    mesh.setflags(write=False)
    plan = _orbits(mesh.ravel())
    for arr in (plan[4], *plan[5]):
        arr.setflags(write=False)
    _kept_meshes[id(mesh)] = plan
    weakref.finalize(mesh, _kept_meshes.pop, id(mesh))
    return axis, mesh


def _kept(p: np.ndarray) -> tuple | None:
    """The orbit plan of p when p is a mesh that ``lattice()`` keeps, else None: found by
    identity, not hashed, so a view of a kept mesh is another point set."""
    return _kept_meshes.get(id(p))


def _radii(r2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct, inv), r2 = distinct[inv]."""
    return np.unique(r2, return_inverse=True)


def _radial(dim: int, radii: tuple[np.ndarray, np.ndarray], scale=1.0, q=1.0):
    """(distinct, inv, rows) for a banded operator on dim levels at the ``_radii`` (distinct,
    inv) of its points' squared radii: ``rows(k)`` builds band k's rows
    q^n sqrt(n! / (n+k)!) L_n^{(k)}(x), y = q x = scale distinct, for n < dim - k."""
    distinct, inv = radii
    y = scale * distinct
    first = [1.0]  # 1 / sqrt(k!)
    for k in range(1, dim):
        first.append(first[-1] / sqrt(k))
    return distinct, inv, lambda k: _laguerre_band(k, dim - k, y, first[k], q)


def _kept_rows(builder, key: bytes, points: int, levels: int, nbytes: int, make):
    """read(part), the rows make(levels)(part), by the one rule of every row table: the
    table of ``builder`` holds the rows of the last set of two or more points it was asked on
    (``key``, the bytes they depend on) for the most levels asked, read-only, each part built
    on first read. Row n does not depend on the levels, so fewer read its first rows with the
    bits of a fresh build. A table past ``_ROW_TABLE_BYTES`` (its key and the ``nbytes`` that
    make(levels) holds) is built per call, and leaves the kept table as it is."""
    held = _row_tables.get(builder)
    if held is None or held[0] != key or held[1] < levels:
        if points < 2 or len(key) + nbytes > _ROW_TABLE_BYTES:
            return make(levels)
        held = _row_tables[builder] = key, levels, {}, make(levels)
    _, _, built, build = held

    def read(part):
        if part not in built:
            rows = build(part)
            rows.setflags(write=False)
            built[part] = rows
        return built[part]

    return read


def _anchor_rows(dim: int, radii: tuple[np.ndarray, np.ndarray], scale, q):
    """``_radial`` for ``_class_sums``, whose anchor rows(k) may hold more than the dim - k
    it reads: the table of the operator (scale, q), keyed on the distinct radii' bytes."""
    distinct, inv = radii
    nbytes = 8 * distinct.size * (1 + sum(range(dim, 0, -ANCHOR_SPACING)))  # y and the rows
    rows = _kept_rows((scale, q), distinct.tobytes(), distinct.size, dim, nbytes,
                      lambda levels: _radial(levels, radii, scale, q)[2])
    return distinct, inv, rows


def _laguerre_band(k: int, count: int, y: np.ndarray, first: float, q=1.0) -> np.ndarray:
    """q^n sqrt(n! / (n+k)!) L_n^{(k)}(x), y = q x, as the rows n = 0 .. count-1.

    The three-term recurrence in degree,
    (n+1) L_{n+1} = (2n+1+k-x) L_n - (n+k) L_{n-1}, with the factorial
    weights and the powers of q folded into its coefficients; only the
    product y = q x enters, so q = 0 with x infinite stays finite.
    ``first`` is the n = 0 value 1 / sqrt(k!). Each row is formed in place, with one
    scratch row for the second term: no temporary per row.
    """
    lag = np.empty((count, y.size))
    lag[0] = first
    scratch = np.empty(y.size)
    for n in range(count - 1):
        nxt = lag[n + 1]
        np.subtract((2 * n + 1 + k) * q, y, out=nxt)
        nxt *= lag[n]
        nxt *= 1 / sqrt((n + 1) * (n + k + 1))
        if n:
            nxt -= np.multiply(q * q * sqrt(n * (n + k) / ((n + 1) * (n + k + 1))), lag[n - 1],
                               out=scratch)
    return lag


# the recurrence runs on the anchor bands k = 0 mod 3 only, and bands k + 1 and k + 2 are
# folded onto the anchor's rows, one and two steps up. A fixed rule, chosen for accuracy:
# against mpmath on dense states at s = 0 the folded kernel is as accurate as one recurrence
# per band, while three steps (anchors 4 apart) double the worst error at 60 levels
ANCHOR_SPACING = 3


def displacement_stack(dim: int, beta: np.ndarray) -> np.ndarray:
    """<m|D(b)|n> for m, n < dim over a flat array of betas; shape (dim, dim, N)."""
    beta = np.asarray(beta, dtype=complex).ravel()
    x = np.abs(beta) ** 2
    _, inv, rows = _radial(dim, _radii(x))
    out = np.empty((dim, dim, beta.size), dtype=complex)
    lower = np.exp(-x / 2).astype(complex)
    for k in range(dim):
        if k:
            lower = lower * beta
        for n, row in enumerate(rows(k)):
            out[n + k, n] = lower * np.take(row, inv)
            out[n, n + k] = (-1) ** k * out[n + k, n].conj()
    return out


@lru_cache(maxsize=4)
def _kernel_weights(dim: int) -> tuple[np.ndarray, ...]:
    """The kernel's per-size weights on dim levels, read-only, each O(dim^2): B and U of the
    folds (``_group_columns``), then the three s-free tables of ``_multiplication``. On the
    basis b = k + a, a = 0, 1, of each anchor k = 3 i, B[a, n, i] = prod_{t=1..n} sqrt(t /
    (t+b+1)), stopped past the dim - b levels b holds, so B > 2^(-dim/2) is normal below about
    2000 levels, and U = 1 / (B sqrt(n+b+1)): B_n U_j = sqrt(n! (j+b)! / (j! (n+b+1)!)). The
    tables are 1 / (n - j) where n > j, else 0; 1 where n < j, else 0; and sqrt(j (j+n))."""
    n, j = np.arange(dim)[:, None], np.arange(dim)
    base = np.arange(0, dim, ANCHOR_SPACING) + np.arange(2)[:, None, None]
    steps = np.where((n > 0) & (n < dim - base), n / (n + base + 1.0), 1.0)
    b = np.cumprod(np.sqrt(steps), axis=1)
    tables = (b, 1 / (b * np.sqrt(n + base + 1.0)),
              np.where(n > j, 1 / np.maximum(n - j, 1), 0.0), (n < j) * 1.0,
              np.sqrt(j * (j + n)))
    for table in tables:
        table.setflags(write=False)
    return tables


def _group_columns(e: np.ndarray, q, top: int) -> np.ndarray:
    """(d, anchors, 3, 2), the (re, im) columns of every band group up to band top of the
    matrix e (d, d) on its anchor k's rows (``_class_sums``) for k = 3 i <= top: c_k and the
    folds T^(a)^T c_(k+a), a = 1, 2, of the bands c_b[n] = 2 h[n, n+b] of e's Hermitian part
    h, 2 h[n, n] halved. T^(1)[n, j] = q^(n-j) B_n U_j (``_kernel_weights``), so T^(1)^T c =
    U (P^T (B c)), P = [q^(n-j)] lower triangular, a Toeplitz view; T^(2) is T^(1) on basis
    k + 1, then on k. Two matrix products fold every group; a diagonal e folds nothing."""
    d, anchors = len(e), top // ANCHOR_SPACING + 1
    # 2h in a zero-padded copy, read skewed: bands[n, b] = 2 h[n, n+b], 0 where n + b >= d
    padded = np.zeros((d + 1, d + 3 * anchors), complex)
    np.add(e, e.conj().T, out=padded[:d, :d])
    bands = padded.ravel()[: d * (d + 3 * anchors + 1)].reshape(d, -1)[:, : 3 * anchors]
    bands[:, 0] *= 0.5
    groups = np.ascontiguousarray(bands.view(float).reshape(d, anchors, 3, 2))
    if top:
        b, u = (w[:, :, :anchors, None] for w in _kernel_weights(d)[:2])
        # P^T[j, n] = powers[d - 1 - j + n]: q^(n-j) for n >= j, else one of the d - 1 zeros
        powers = np.concatenate([np.zeros(d - 1), q ** np.arange(d)])
        pt = np.ndarray((d, d), float, powers, 8 * (d - 1), (-8, 8))
        # band k + 2 onto basis k + 1 in place, then it and band k + 1 onto basis k
        for a in (1, 0):
            c = groups.reshape(d, anchors, 6)[:, :, 2 + 2 * a:]
            c[:] = u[a] * (pt @ (b[a] * c).reshape(d, -1)).reshape(c.shape)
    return groups


def _multiplication(k: int, count: int, s: float) -> np.ndarray:
    """M_k(s), (count, count): the rows of band k of T(a, s) at s < 0 from its rows at s = 0,
    R(s) = M R(0) (``_class_sums``). It is the multiplication theorem
    L_n^(k)(lam x) = sum_{j<=n} C(n+k, n-j) lam^j (1-lam)^(n-j) L_j^(k)(x) at
    lam = 1/(1-s^2), with the rows' q^n and factorial weights folded in:
    M[n, j] = C(n+k, n-j) sqrt(n! (j+k)! / ((n+k)! j!)) (1-s)^(-2j) (s/(1-s))^(2(n-j)) for
    j <= n, else 0. Every entry is finite and >= 0 for every s < 0, s = -1 (lam infinite) and
    s < -1 (lam < 0) too, so nothing cancels. One running product per column: M[j, j] =
    (1-s)^(-2j) and M[n+1, j] = M[n, j] b sqrt((n+1)(n+k+1)) / (n+1-j), with b = (s/(1-s))^2
    written so that it stays finite as s -> -inf, where s^2 / (1-s)^2 is inf / inf. The
    products run down whole columns, through ones above the diagonal that are then taken
    away; the s-free tables are those of count + k levels (``_kernel_weights``)."""
    inverse, above, roots = _kernel_weights(count + k)[2:]
    inverse, above = inverse[:count, :count], above[:count, :count]
    steps = inverse * ((s / (1 - s)) ** 2 * roots[k, :count])[:, None]
    steps += above
    steps.flat[:: count + 1] = ((1 / (1 - s)) ** 2) ** roots[0, :count]
    np.cumprod(steps, axis=0, out=steps)
    steps -= above
    return steps


def _class_sums(e: np.ndarray, p: np.ndarray, radii, s=None, at_s=False) -> list:
    """Z_j = sum over the bands k = j mod 4 of 2 z_k, z_k = sum_n h[n, n+k] <n+k|X|n>, at
    the flat points p for the Hermitian part h of the square matrix e (d, d); each Z_j has
    p.size values, and is None for j > 0 when no band of its class is held. X = D(b) when s
    is None, else T(a, s) for s <= 0 (``quasiprob_pointwise``).

    <n+k|X|n> = pref(r2) (c p)^k q^n sqrt(n! / (n+k)!) L_n^{(k)}(x), y = q x = scale r2 and
    r2 = |p|^2: D(b) has pref e^{-r2/2}, c = 1, scale 1 and q 1, and T(a, s) pref (2/(1-s))
    e^{-2 r2/(1-s)}, c = 2/(1-s), scale -4/(1-s)^2 and q = (s+1)/(s-1). The recurrence runs
    for D(b) and at s = 0 only: at s < 0 an anchor's rows are M_k(s) times its s = 0 rows
    (``_multiplication``), so sum_n w_n R_n(s) = sum_j (M^T w)_j R_j(0) for the columns w of
    its group, and every s on one point set shares the s = 0 rows. With ``at_s`` it runs at
    s itself, y = -4 r2/(1-s)^2, per call: the route ``_band_trace`` takes where the s = 0
    rows at y = -4 r2 overflow. It runs on the anchor bands k = 0 mod 3 (``ANCHOR_SPACING``)
    only. Band k + a, a = 1, 2, has the rows R^(k+a) = T^(a) R^(k), from the addition
    formula L_n^(k+a) = sum_{j<=n} C(n-j+a-1, a-1) L_j^(k), with T^(a)[n, j] = C(n-j+a-1,
    a-1) q^(n-j) sqrt(n! (j+k)! / (j! (n+k+a)!)), so its sum over n with the band c of 2h
    is sum_j R_j^(k) g_j, g = T^(a)^T c (``_group_columns``). One matrix product of the
    anchor's rows at the distinct radii with the columns c, g1, g2 of its group (times M^T
    at s < 0) gives the group's sums there, times pref, mapped to the points by ``radii``.
    A class is summed by Horner in (c p)^4 from its highest band down, then multiplied by
    (c p)^j once. Memory is O(p.size + d^2) besides the row table (``_anchor_rows``), with
    one group's rows at a time; an all-zero band is skipped, a group with none held unbuilt.
    """
    d = len(e)
    # band k holds e[n, n+k] and e[n+k, n]: one pass over the nonzero entries; band 0, the
    # trace, is always summed, so Z_0 is an array
    rows, cols = np.nonzero(e)
    held = set(np.abs(cols - rows).tolist()) | {0}
    top = max(held)
    if s is None:
        pref, c, q, anchor_key = (lambda x: np.exp(-x / 2)), 1.0, 1.0, (1.0, 1.0)
    else:
        # for s << 0, 1 - s is large and c tiny: P_s -> 2 Tr(rho)/(pi(1-s)); at s itself,
        # (1-s)^2 overflows and the scale is -0.0
        pref, c = (lambda x: (2 / (1 - s)) * np.exp(-2 * x / (1 - s))), 2 / (1 - s)
        q = (s + 1) / (s - 1)
        anchor_key = (-4 / np.float64(1 - s) ** 2, q) if at_s else (-4.0, -1.0)
    distinct, inv, band_rows = (_radial if at_s else _anchor_rows)(d, radii, *anchor_key)
    # complex, as the product with acc would cast it in a buffer on every group
    radial = pref(distinct)[:, None].astype(complex)
    # the loop holds (c p)^4 and one buffer for a band at the points, both only where a class
    # has two bands: c p and (c p)^2 are formed after it, to keep the peak of each call low
    lo4 = spread = None
    if top > 3:
        lo4, spread = c * p, np.empty(p.size, complex)
        for _ in range(2):
            lo4 *= lo4
    groups, sums, anchor = _group_columns(e, q, top), [None] * 4, top + 1
    for k in range(top, -1, -1):
        z = sums[k % 4]
        if z is not None:
            z *= lo4
        if k not in held:
            continue
        if k < anchor:
            # the first band reached of its group: the columns of its held bands up to k, as
            # an all-zero column costs as much in the product with the anchor's rows
            anchor = k - k % ANCHOR_SPACING
            count, kept = d - anchor, [b - anchor for b in range(anchor, k + 1) if b in held]
            columns = groups[:count, k // ANCHOR_SPACING, kept].reshape(count, -1)
            if s is not None and s < 0 and not at_s:
                columns = _multiplication(anchor, count, s).T @ columns
            # real rows times those columns, read back as complex: (U, part)
            acc = (band_rows(anchor)[:count].T @ columns).view(complex)
            acc *= radial
        band = acc[:, kept.index(k - anchor)]
        if z is None:
            sums[k % 4] = np.take(band, inv)
        else:
            # mode "clip", as "raise" would copy into ``out`` (inv indexes distinct)
            z += np.take(band, inv, out=spread, mode="clip")
    del lo4, spread
    lo = c * p if top > 0 else None
    lo2 = lo * lo if top > 1 else None
    for j, power in ((1, lo), (2, lo2), (3, None if sums[3] is None else lo2 * lo)):
        if sums[j] is not None:
            sums[j] *= power
    return sums


def _orbits(p: np.ndarray) -> tuple:
    """(closed, n, rows, cols, block, radii) of the flat points p. If p reads as an n x n mesh
    m with rot90(m) = i m, ``block`` is one point of each rotation orbit: rows < n // 2 and
    columns < n - n // 2 of m, then the centre of an odd mesh. Else ``block`` is p."""
    n = isqrt(p.size)
    mesh = p.reshape(n, n) if n > 1 and n * n == p.size else None
    # mesh[:, ::-1].T is np.rot90(mesh): the point at row i, column j is i times mesh[i, j]
    closed = mesh is not None and np.array_equal(mesh[:, ::-1].T, 1j * mesh)
    rows, cols = (n // 2, n - n // 2) if closed else (1, p.size)
    block = np.concatenate([mesh[:rows, :cols].ravel(), p[p.size // 2:][: n % 2]]) if closed else p
    return closed, n, rows, cols, block, _radii(np.abs(block) ** 2)


@np.errstate(over="ignore", invalid="ignore")
def _band_trace(rho: DensityMatrix, points, name: str, s=None, at_s=False):
    """Tr(h X) at the points, shaped like them, for the Hermitian part h = (e + e^dag)/2 of
    the occupied block e (d, d) of the single-mode rho (``effective_dim``): X = D(b) when s
    is None, complex, else T(a, s) for s <= 0, real. The only entry into the band kernel.
    Points other than a mesh ``_kept`` finds are checked by ``require_finite(points, name)``.

    X is banded as in ``_class_sums``, with <n|X|n+k> = sign^k conj(<n+k|X|n>): sign -1 for
    D(b) and +1 for T(a, s). So band k adds z_k + sign^k conj(z_k),
    the real part for even k and, for odd k, the real part (sign +1) or i times the imaginary
    part (sign -1); call that Part. At i p band k is i^k times its value at p, and so is its
    conjugate term, as sign^k (-i)^k = i^k for sign -1. With Z_j the class sums at p, the
    four points of a rotation orbit get Re(Z_0 + Z_2) +- Part(Z_1 + Z_3) at +-p and
    Re(Z_0 - Z_2) +- Part(i (Z_1 - Z_3)) at +-i p.
    When the points read as a square mesh m with rot90(m) = i m, as every ``lattice()`` mesh
    does, the kernel sees one point of each orbit (``_orbits``), and the four values are written
    through the ``np.rot90`` views of the result. Any other points get every point. A result
    that is not finite (the rows overflow far out) raises NonFiniteArgument, with no warning;
    at s < 0 it is first computed again from the rows at s itself (``at_s``, per call), whose
    y = -4|a|^2/(1-s)^2 is smaller in size than the s = 0 rows' -4|a|^2.
    """
    points = np.asarray(points, dtype=complex)
    # a kept mesh reads the plan lattice() built with it: it is finite
    if (plan := _kept(points)) is None:
        require_finite(points, name)
    closed, n, rows, cols, block, radii = plan or _orbits(points.ravel())
    sign = -1 if s is None else 1
    d = effective_dim(rho.occupations[0])
    z0, z1, z2, z3 = _class_sums(rho.entries[:d, :d], block, radii, s, at_s)
    even = [z0.real] * 2 if z2 is None else [(z0 + z2).real, (z0 - z2).real]
    if z1 is None and z3 is None:
        values = even * 2
    else:
        z1, z3 = (0 if z is None else z for z in (z1, z3))
        part, unit = (np.real, 1) if sign > 0 else (np.imag, 1j)
        odd = [unit * part(z) for z in (z1 + z3, 1j * (z1 - z3))]
        values = [even[0] + odd[0], even[1] + odd[1], even[0] - odd[0], even[1] - odd[1]]
    out = np.empty(points.size, complex if sign < 0 else float)
    if not closed:
        out[:] = values[0]
    else:
        grid, size = out.reshape(n, n), rows * cols
        # the views np.rot90(grid, turn) returns for turn = 0 .. 3, taken as its slices: each
        # np.rot90 call costs about 5 us, a fifth of a small diagonal-state grid
        turns = (grid, grid[:, ::-1].T, grid[::-1, ::-1], grid[::-1].T)
        for turned, value in zip(turns, values):
            turned[:rows, :cols] = value[:size].reshape(rows, cols)
        if n % 2:
            grid[rows, rows] = values[0][-1]
    # one contiguous scan as floats: a non-finite class sum reaches the real part it writes
    if not np.isfinite(out.view(float)).all():
        if s is not None and s < 0 and not at_s:
            return _band_trace(rho, points, name, s, at_s=True)
        raise NonFiniteArgument("not finite in double precision: the band rows overflow at |p| "
                                f"up to {np.abs(block).max():.3g}")
    return out.reshape(points.shape)


def symmetric_charfunc(rho: DensityMatrix, beta):
    """Tr(rho D(beta)), the unfiltered (Wigner) characteristic function,
    summed band by band over the occupied levels: exact for the stored matrix, and within
    2 sqrt(eps) + 2 eps of the untruncated state's (``check_leakage``, ||D|| = 1). A matrix
    that is not Hermitian gives the value of its Hermitian part (rho + rho^dag)/2."""
    if rho.n_modes != 1:
        raise DimensionMismatch("symmetric_charfunc expects a single-mode state")
    check_leakage(rho, 1.0)
    vals = _band_trace(rho, beta, "beta")
    return complex(vals) if vals.ndim == 0 else vals


@np.errstate(over="ignore", invalid="ignore")
def filtered_charfunc(rho: DensityMatrix, f: FilterSpec, beta):
    """Phi_Omega(beta) = Tr(rho D(beta)) Omega(beta), guarded as in ``symmetric_charfunc``
    with the bound scaled by max |Omega| over the points."""
    omega = np.exp(f.exponent(beta))
    check_leakage(rho, np.max(np.abs(omega), initial=0.0))
    vals = require_finite(symmetric_charfunc(rho, beta) * omega, _PHI)
    return complex(vals) if vals.ndim == 0 else vals


@np.errstate(over="ignore", invalid="ignore")
def two_mode_charfunc(rho12: DensityMatrix, f: FilterSpec, beta3, beta4):
    """Tr(rho D(b3) x D(b4)) Omega(b3) Omega(b4) for a two-mode state; guarded as in
    ``symmetric_charfunc``, with the bound scaled by max |Omega(b3) Omega(b4)|."""
    if rho12.n_modes != 2:
        raise DimensionMismatch("two_mode_charfunc expects a two-mode state")
    omega = np.exp(f.exponent(beta3) + f.exponent(beta4))
    check_leakage(rho12, np.max(np.abs(omega), initial=0.0))
    b3, b4 = np.broadcast_arrays(require_finite(beta3, "beta3"), require_finite(beta4, "beta4"))
    d1, d2 = (effective_dim(row) for row in rho12.occupations)
    s3 = displacement_stack(d1, b3.ravel())
    s4 = displacement_stack(d2, b4.ravel())
    e = rho12.entries.reshape((rho12.dim,) * 4)[:d1, :d2, :d1, :d2]
    # optimize: contract rho with one stack as a matrix product, not a 7-index loop
    vals = np.einsum("nqmp,mnk,pqk->k", e, s3, s4, optimize=True)
    vals = require_finite(vals.reshape(b3.shape) * omega, _PHI)
    return complex(vals) if vals.ndim == 0 else vals


@np.errstate(over="ignore", invalid="ignore")
def vacuum_charfunc(f: FilterSpec, beta):
    """Filtered vacuum characteristic function e^{-|b|^2/2} Omega(b).

    Evaluated through a single combined exponent so the s = 1 case is
    identically one in floating point.
    """
    beta = np.asarray(beta, dtype=complex)
    out = require_finite(np.exp(-np.abs(beta) ** 2 / 2 + f.exponent(beta)), _PHI)
    return complex(out) if out.ndim == 0 else out
