"""Filter functions Omega(beta) and filtered characteristic functions.

A filter is either the s-parameterized Gaussian exp(s|beta|^2/2) (s=1: P,
s=0: Wigner, s=-1: Q) or a finite exponential series
exp(sum c_kl beta^k beta*^l) with c_00 = 0 so that Omega(0) = 1.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import islice
from math import lgamma, log, sqrt

import numpy as np

from .errors import CutoffTooSmall, DimensionMismatch
from .fock_core import DensityMatrix, effective_dim, level_occupations, require_finite

TAIL_TOL = 1e-12
# a top level holding less than this counts as empty: the state fits the cutoff
TOP_LEVEL_FLOOR = 1e-10


@dataclass(frozen=True)
class FilterSpec:
    """Quasiprobability family selector.

    Exactly one representation is active: ``s`` for the Gaussian family, or
    ``coeffs`` as a tuple of (k, l, c_kl) for the exponential series.
    """

    s: float | None = None
    coeffs: tuple[tuple[int, int, complex], ...] | None = None

    def __post_init__(self):
        if (self.s is None) == (self.coeffs is None):
            raise ValueError("specify exactly one of s or coeffs")
        if self.coeffs is not None:
            clean = []
            for k, l, c in self.coeffs:
                k, l, c = int(k), int(l), complex(c)
                if k < 0 or l < 0:
                    raise ValueError("series powers must be nonnegative")
                if (k, l) == (0, 0) and c != 0:
                    raise ValueError("c_00 must vanish so that Omega(0) = 1")
                if c != 0:
                    clean.append((k, l, c))
            object.__setattr__(self, "coeffs", tuple(sorted(clean, key=lambda t: t[:2])))
        else:
            object.__setattr__(self, "s", float(self.s))

    @classmethod
    def s_param(cls, s: float) -> "FilterSpec":
        return cls(s=s)

    @classmethod
    def general(cls, coeffs: dict) -> "FilterSpec":
        return cls(coeffs=tuple((k, l, c) for (k, l), c in coeffs.items()))

    def exponent(self, beta):
        """Exponent of the filter at beta (scalar or array)."""
        beta = np.asarray(beta, dtype=complex)
        if self.s is not None:
            return self.s * np.abs(beta) ** 2 / 2
        acc = np.zeros(beta.shape, dtype=complex)
        bc = beta.conjugate()
        for k, l, c in self.coeffs:
            acc = acc + c * beta**k * bc**l
        return acc

    def as_s(self) -> float | None:
        """The equivalent s-parameter, or None if not in the Gaussian family."""
        if self.s is not None:
            return self.s
        if not self.coeffs:
            return 0.0
        if len(self.coeffs) == 1:
            k, l, c = self.coeffs[0]
            if (k, l) == (1, 1) and abs(c.imag) < 1e-15:
                return 2 * c.real
        return None

    def describe(self) -> dict:
        if self.s is not None:
            return {"s": self.s}
        return {
            "coeffs": [
                {"k": k, "l": l, "re": c.real, "im": c.imag} for k, l, c in self.coeffs
            ]
        }


def filter_from_json(obj: dict | str) -> FilterSpec:
    if isinstance(obj, str):
        obj = json.loads(obj)
    if "s" in obj:
        return FilterSpec.s_param(float(obj["s"]))
    return FilterSpec.general(
        {(e["k"], e["l"]): complex(e.get("re", 0.0), e.get("im", 0.0)) for e in obj["coeffs"]}
    )


def eval_filter(f: FilterSpec, beta):
    """Omega(beta); vectorizes over arrays of beta."""
    out = np.exp(f.exponent(beta))
    return complex(out) if out.ndim == 0 else out


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


def _displacement_bands(dim: int, beta: np.ndarray):
    """The elements <m|D(b)|n>, m, n < dim, one band k = m - n at a time.

    Yields (k, lower, upper, lag) with <n+k|D|n> = lower * lag[n] and
    <n|D|n+k> = upper * lag[n] for n = 0 .. dim-1-k, where
    lower = e^{-|b|^2/2} b^k, upper = e^{-|b|^2/2} (-b*)^k and ``lag``
    iterates sqrt(n! / (n+k)!) L_n^{(k)}(|b|^2).
    """
    x = np.abs(beta) ** 2
    lower = np.exp(-x / 2).astype(complex)
    upper = lower
    first = 1.0  # 1 / sqrt(k!)
    for k in range(dim):
        if k:
            lower = lower * beta
            upper = upper * -beta.conjugate()
            first /= sqrt(k)
        yield k, lower, upper, _laguerre_band(k, dim - k, x, first)


def _laguerre_band(k: int, count: int, x: np.ndarray, first: float):
    """sqrt(n! / (n+k)!) L_n^{(k)}(x) for n = 0 .. count-1, one array at a time.

    The three-term recurrence in degree,
    (n+1) L_{n+1} = (2n+1+k-x) L_n - (n+k) L_{n-1}, with the factorial
    weights folded into its coefficients; ``first`` is the n = 0 value
    1 / sqrt(k!).
    """
    prev, cur = 0.0, np.full_like(x, first)
    for n in range(count):
        yield cur
        if n + 1 < count:
            nxt = (2 * n + 1 + k - x) * cur
            nxt *= 1 / sqrt((n + 1) * (n + k + 1))
            nxt -= sqrt(n * (n + k) / ((n + 1) * (n + k + 1))) * prev
            prev, cur = cur, nxt


def displacement_stack(dim: int, beta: np.ndarray) -> np.ndarray:
    """<m|D(b)|n> for m, n < dim over a flat array of betas; shape (dim, dim, N)."""
    beta = np.asarray(beta, dtype=complex).ravel()
    out = np.empty((dim, dim, beta.size), dtype=complex)
    for k, lower, upper, band in _displacement_bands(dim, beta):
        for n, lag in enumerate(band):
            out[n + k, n] = lower * lag
            out[n, n + k] = upper * lag
    return out


def symmetric_charfunc(rho: DensityMatrix, beta):
    """Tr(rho D(beta)), the unfiltered (Wigner) characteristic function.

    Summed band by band over the occupied levels: memory stays O(N) in the
    number of betas, and a band of rho that is all zero is skipped, so a
    diagonal state costs one band.
    """
    if rho.n_modes != 1:
        raise DimensionMismatch("symmetric_charfunc expects a single-mode state")
    beta_arr = require_finite(beta, "beta")
    occ = level_occupations(rho)[0]
    d = effective_dim(occ)
    _check_trust(rho.dim, occ[-1], beta_arr)
    e = rho.entries[:d, :d]
    # band k holds rho[n, n+k] and rho[n+k, n]; bands past the last one held are never built
    held = {k for k in range(d) if np.diagonal(e, k).any() or np.diagonal(e, -k).any()}
    flat = beta_arr.ravel()
    vals = np.zeros(flat.shape, dtype=complex)
    for k, lower, upper, band in islice(_displacement_bands(d, flat), max(held, default=-1) + 1):
        if k not in held:
            continue
        # Tr(rho D) = sum_{m,n} rho[n, m] <m|D|n>: the band of <n+k|D|n>
        # pairs with rho[n, n+k], that of <n|D|n+k> with rho[n+k, n]
        rows = [np.diagonal(e, k)] if k == 0 else [np.diagonal(e, k), np.diagonal(e, -k)]
        w = np.array([part for r in rows for part in (r.real, r.imag)])
        acc = np.zeros((len(w), flat.size))
        for n, lag in enumerate(band):
            acc += w[:, n, None] * lag
        vals += lower * (acc[0] + 1j * acc[1])
        if k:
            vals += upper * (acc[2] + 1j * acc[3])
    vals = vals.reshape(beta_arr.shape)
    return complex(vals) if vals.ndim == 0 else vals


def filtered_charfunc(rho: DensityMatrix, f: FilterSpec, beta):
    """Phi_Omega(beta) = Tr(rho D(beta)) Omega(beta)."""
    return symmetric_charfunc(rho, beta) * np.exp(f.exponent(beta))


def two_mode_charfunc(rho12: DensityMatrix, f: FilterSpec, beta3, beta4):
    """Tr(rho D(b3) x D(b4)) Omega(b3) Omega(b4) for a two-mode state."""
    if rho12.n_modes != 2:
        raise DimensionMismatch("two_mode_charfunc expects a two-mode state")
    b3, b4 = np.broadcast_arrays(require_finite(beta3, "beta3"), require_finite(beta4, "beta4"))
    d = rho12.dim
    occ = level_occupations(rho12)
    d1, d2 = (effective_dim(row) for row in occ)
    _check_trust(d, occ[0, -1], b3)
    _check_trust(d, occ[1, -1], b4)
    s3 = displacement_stack(d1, b3.ravel())
    s4 = displacement_stack(d2, b4.ravel())
    e = rho12.entries.reshape(d, d, d, d)[:d1, :d2, :d1, :d2]
    # optimize: contract rho with one stack as a matrix product, not a 7-index loop
    vals = np.einsum("nqmp,mnk,pqk->k", e, s3, s4, optimize=True)
    vals = vals.reshape(b3.shape) * np.exp(f.exponent(b3) + f.exponent(b4))
    return complex(vals) if vals.ndim == 0 else vals


def vacuum_charfunc(f: FilterSpec, beta):
    """Filtered vacuum characteristic function e^{-|b|^2/2} Omega(b).

    Evaluated through a single combined exponent so the s = 1 case is
    identically one in floating point.
    """
    beta = np.asarray(beta, dtype=complex)
    out = np.exp(-np.abs(beta) ** 2 / 2 + f.exponent(beta))
    return complex(out) if out.ndim == 0 else out
