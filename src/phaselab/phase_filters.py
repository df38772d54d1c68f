"""Filter functions Omega(beta) and filtered characteristic functions.

A filter is Omega(beta) = exp(s|beta|^2/2 + sum c_kl beta^k beta*^l) with c_00 = 0,
so that Omega(0) = 1. The s family (s=1: P, s=0: Wigner, s=-1: Q) is the filters
with no other term. A filtered characteristic function that is not finite at a
requested beta raises NonFiniteArgument, with no warning.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import islice
from math import lgamma, log, sqrt
from numbers import Integral, Number, Real

import numpy as np

from .errors import CutoffTooSmall, DimensionMismatch, InvalidFilter, MalformedFile
from .fock_core import DensityMatrix, effective_dim, json_number, require_finite

TAIL_TOL = 1e-12
_PHI = "the filtered characteristic function"
# a top level holding less than this counts as empty: the state fits the cutoff
TOP_LEVEL_FLOOR = 1e-10


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


def _check_trust(dim: int, top_level: float, beta: np.ndarray):
    """Reject betas where truncation can corrupt Tr(rho D(beta)).

    The closed-form Laguerre elements make the sum over occupied levels
    exact, so the check only bites when the top level carries weight (the
    stored matrix visibly truncates a larger state). There the first
    neglected displacement element e^{-|b|^2/2} |b|^dim / sqrt(dim!) must
    stay below TAIL_TOL.
    """
    if top_level <= TOP_LEVEL_FLOOR:
        return
    mag = np.abs(np.asarray(beta, dtype=complex))
    big = mag[mag > 0]
    if big.size == 0:
        return
    log_tail = -big**2 / 2 + dim * np.log(big) - 0.5 * lgamma(dim + 1)
    worst = float(log_tail.max())
    if worst > log(TAIL_TOL):
        raise CutoffTooSmall(
            f"|beta| = {big[log_tail.argmax()]:.3f} outside the trust radius for "
            f"a state occupying its top level at dim {dim}"
        )


@lru_cache(maxsize=8)
def _distinct(r2: bytes) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique`` of the squared radii (float64 bytes) of a point set with its inverse,
    read-only: the sort is paid once per point set and shared by every filter and s."""
    distinct, inv = np.unique(np.frombuffer(r2), return_inverse=True)
    for arr in (distinct, inv):
        arr.setflags(write=False)
    return distinct, inv


def _bands(dim: int, pref, lo, sign: int, r2: np.ndarray, scale=1.0, q=1.0):
    """The elements of a banded operator X on dim levels, one band k = m - n at a time.

    Yields (k, lower, flip, lag, inv) with <n+k|X|n> = lower * lag()[n, inv] and
    <n|X|n+k> = flip * conj(<n+k|X|n>) for n = 0 .. dim-1-k, where lower = pref lo^k,
    flip = sign^k and ``lag()`` builds q^n sqrt(n! / (n+k)!) L_n^{(k)}(x), y = q x =
    scale r2, once per distinct squared radius r2: r2[i] is its column inv[i].
    """
    # a single point needs no sort: figure 3 evaluates one alpha on its stack of states
    distinct, inv = (r2, np.zeros(1, np.intp)) if r2.size == 1 else _distinct(r2.tobytes())
    y = scale * distinct
    lower = pref
    first = 1.0  # 1 / sqrt(k!)
    for k in range(dim):
        if k:
            lower = lower * lo
            first /= sqrt(k)
        yield k, lower, sign**k, partial(_laguerre_band, k, dim - k, y, first, q), inv


def _displacement_bands(dim: int, beta: np.ndarray):
    """The bands of <m|D(b)|n>: pref = e^{-|b|^2/2}, lo = b, sign = -1, q = 1, r2 = |b|^2."""
    x = np.abs(beta) ** 2
    return _bands(dim, np.exp(-x / 2).astype(complex), beta, -1, x)


def _laguerre_band(k: int, count: int, y: np.ndarray, first: float, q=1.0) -> np.ndarray:
    """q^n sqrt(n! / (n+k)!) L_n^{(k)}(x), y = q x, as the rows n = 0 .. count-1.

    The three-term recurrence in degree,
    (n+1) L_{n+1} = (2n+1+k-x) L_n - (n+k) L_{n-1}, with the factorial
    weights and the powers of q folded into its coefficients; only the
    product y = q x enters, so q = 0 with x infinite stays finite.
    ``first`` is the n = 0 value 1 / sqrt(k!).
    """
    lag = np.empty((count, y.size))
    lag[0] = first
    for n in range(count - 1):
        nxt = lag[n + 1]
        np.multiply((2 * n + 1 + k) * q - y, lag[n], out=nxt)
        nxt *= 1 / sqrt((n + 1) * (n + k + 1))
        if n:
            nxt -= q * q * sqrt(n * (n + k) / ((n + 1) * (n + k + 1))) * lag[n - 1]
    return lag


def displacement_stack(dim: int, beta: np.ndarray) -> np.ndarray:
    """<m|D(b)|n> for m, n < dim over a flat array of betas; shape (dim, dim, N)."""
    beta = np.asarray(beta, dtype=complex).ravel()
    out = np.empty((dim, dim, beta.size), dtype=complex)
    for k, lower, flip, lag, inv in _displacement_bands(dim, beta):
        for n, row in enumerate(lag()):
            out[n + k, n] = lower * np.take(row, inv)
            out[n, n + k] = flip * out[n + k, n].conj()
    return out


def _band_trace(e: np.ndarray, bands, size: int) -> np.ndarray:
    """Tr(h X) at ``size`` points for the Hermitian part h = (e + e^dag)/2 of each square
    matrix of a stack e (..., n, n) and the bands of X from ``_bands``, the even and the
    odd bands summed apart; shape (2, ..., size).

    Band k of X above the diagonal is flip times the conjugate of the band below it, and
    h[n+k, n] is the conjugate of h[n, n+k], so band k adds z + flip conj(z), 2 Re z or
    2i Im z, with z = sum_n h[n, n+k] <n+k|X|n>. 2z is one matrix product of the stack's
    e[n, n+k] + conj(e[n+k, n]) with the Laguerre rows, mapped to the points by ``inv``,
    times the band's prefactor. Memory stays O(size) per matrix; a band that every matrix
    holds as zero is skipped, and bands past the last one held are never built, so a
    stack of diagonal matrices costs one band.
    """
    *lead, n = e.shape[:-1]
    e = e.reshape(-1, n, n)
    # band k holds e[n, n+k] and e[n+k, n]: one pass over the nonzero entries
    _, rows, cols = np.nonzero(e)
    held = set(np.abs(cols - rows).tolist())
    vals = np.zeros((2, len(e), size), dtype=complex)
    for k, lower, flip, lag, inv in islice(bands, max(held, default=-1) + 1):
        if k not in held:
            continue
        # Tr(h X) = sum_{m,n} h[n, m] <m|X|n>: 2 h[n, n+k] pairs with <n+k|X|n>, and
        # 2 h[n, n] is halved; (levels, matrices), padded to an even count of matrices
        # so that the matrix product below always has a multiple of four columns: its
        # sums then do not depend on how many matrices share it
        h = np.zeros((n - k, len(e) + len(e) % 2), dtype=complex)
        h[:, : len(e)] = (e.diagonal(k, 1, 2) + e.diagonal(-k, 1, 2).conj()).T
        if not k:
            h *= 0.5
        # real rows times the (re, im) columns of h, read back as complex: (U, matrices)
        acc = (lag().T @ h.view(float)).view(complex)[:, : len(e)]
        z = lower * np.take(acc, inv, axis=0).T
        part = vals[k % 2]
        if flip > 0:
            part.real += z.real
        else:
            part.imag += z.imag
    return vals.reshape(2, *lead, size)


def _paired_trace(e: np.ndarray, bands_at, p: np.ndarray) -> np.ndarray:
    """Tr(h X) at the flat points p, h the Hermitian part of e and X having the bands
    ``bands_at(points)``. Band k of D(b) and of T(a, s) only changes by (-1)^k at -b: when
    p read backwards is its own negative, the kernel sees its first ceil(N/2) points and
    gives E + O of the even and odd sums there, E - O at their negatives. Any other p gets
    E + O at every point."""
    half = (p.size + 1) // 2 if np.array_equal(p[::-1], -p) else p.size
    even, odd = _band_trace(e, bands_at(p[:half]), half)
    mirror = (even[..., : p.size - half] - odd[..., : p.size - half])[..., ::-1]
    return np.concatenate([even + odd, mirror], axis=-1)


def symmetric_charfunc(rho: DensityMatrix, beta):
    """Tr(rho D(beta)), the unfiltered (Wigner) characteristic function,
    summed band by band over the occupied levels. A matrix that is not Hermitian gives
    the value of its Hermitian part (rho + rho^dag)/2."""
    if rho.n_modes != 1:
        raise DimensionMismatch("symmetric_charfunc expects a single-mode state")
    beta_arr = require_finite(beta, "beta")
    occ = rho.occupations[0]
    d = effective_dim(occ)
    _check_trust(rho.dim, occ[-1], beta_arr)
    vals = _paired_trace(rho.entries[:d, :d], partial(_displacement_bands, d), beta_arr.ravel())
    vals = vals.reshape(beta_arr.shape)
    return complex(vals) if vals.ndim == 0 else vals


@np.errstate(over="ignore", invalid="ignore")
def filtered_charfunc(rho: DensityMatrix, f: FilterSpec, beta):
    """Phi_Omega(beta) = Tr(rho D(beta)) Omega(beta)."""
    vals = require_finite(symmetric_charfunc(rho, beta) * np.exp(f.exponent(beta)), _PHI)
    return complex(vals) if vals.ndim == 0 else vals


@np.errstate(over="ignore", invalid="ignore")
def two_mode_charfunc(rho12: DensityMatrix, f: FilterSpec, beta3, beta4):
    """Tr(rho D(b3) x D(b4)) Omega(b3) Omega(b4) for a two-mode state."""
    if rho12.n_modes != 2:
        raise DimensionMismatch("two_mode_charfunc expects a two-mode state")
    b3, b4 = np.broadcast_arrays(require_finite(beta3, "beta3"), require_finite(beta4, "beta4"))
    d = rho12.dim
    occ = rho12.occupations
    d1, d2 = (effective_dim(row) for row in occ)
    _check_trust(d, occ[0, -1], b3)
    _check_trust(d, occ[1, -1], b4)
    s3 = displacement_stack(d1, b3.ravel())
    s4 = displacement_stack(d2, b4.ravel())
    e = rho12.entries.reshape(d, d, d, d)[:d1, :d2, :d1, :d2]
    # optimize: contract rho with one stack as a matrix product, not a 7-index loop
    vals = np.einsum("nqmp,mnk,pqk->k", e, s3, s4, optimize=True)
    vals = require_finite(vals.reshape(b3.shape) * np.exp(f.exponent(b3) + f.exponent(b4)), _PHI)
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
