"""The two covariance results, decided from a filter's series coefficients.

Theorem 1: Omega(b3) Omega(b4) = Omega(a1) Omega(a2), (a1, a2) = M^dag (b3, b4), for
every splitter M. Its log splits by bidegree, and the bracket of a (k, l) term is 1
at every M only for (1, 1): the s family exp(s|beta|^2/2) alone is covariant.
Theorem 2: only s = 1, the P function, gives the classical attenuator law.
Probes only measure how far a filter is from either law.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import pi, sqrt

import numpy as np

from .classical_fields import BeamSplitterParams
from .errors import InvalidWeights
from .fock_core import require_count, require_finite
from .phase_filters import FilterSpec, lattice

SQ2 = 1.0 / sqrt(2.0)

# the case analysis: the real splitter's bracket is 1 only for k + l = 2 and the
# imaginary-arm one's only for (1, 1), so every other term fails at one of them
SPECIAL_BS_CASES = (BeamSplitterParams(SQ2, SQ2), BeamSplitterParams(SQ2, 1j * SQ2))

# beta pairs probed at both special settings before the random trials
FIXED_BETA_CASES = (
    (1.0 + 0.0j, 0.0j),
    (0.0j, 1.0 + 0.0j),
    (0.7 + 0.3j, -0.4 + 0.9j),
    (1.5 - 0.5j, 0.2 + 1.1j),
)
_FIXED_M = np.repeat([bs.matrix() for bs in SPECIAL_BS_CASES], len(FIXED_BETA_CASES), axis=0)
_FIXED_B3, _FIXED_B4 = np.array(FIXED_BETA_CASES * len(SPECIAL_BS_CASES)).T

COVARIANT = "COVARIANT"
NOT_COVARIANT = "NOT_COVARIANT"
CLASSICAL_ATTENUATION = "CLASSICAL_ATTENUATION"
NOT_CLASSICAL = "NOT_CLASSICAL"


@dataclass(frozen=True)
class BSVerdict:
    verdict: str
    s: float | None
    max_residual: float
    witness: tuple | None  # (bs, beta3, beta4, residual)
    reason: str


@dataclass(frozen=True)
class AttenuatorVerdict:
    verdict: str
    max_deviation: float
    witness_beta: complex | None


@np.errstate(over="ignore", invalid="ignore")
def filter_bs_residual(f: FilterSpec, m, beta3, beta4):
    """|E(b3) + E(b4) - E(a1) - E(a2)| / max(1, |E(b3) + E(b4)|), E = f.exponent, with
    (a1, a2) = M^dag (b3, b4): the splitter law in the exponent, so it cannot overflow;
    a non-finite exponent reads as an infinite residual, with no warning.
    ``m`` is one splitter matrix (``bs.matrix()``) or a stack of shape (..., 2, 2)
    that broadcasts against the betas."""
    b3, b4 = np.broadcast_arrays(np.asarray(beta3, complex), np.asarray(beta4, complex))
    mc = np.conj(m)
    lhs = f.exponent(np.stack([b3, b4])).sum(0)
    a = np.stack([mc[..., 0, 0] * b3 + mc[..., 1, 0] * b4, mc[..., 0, 1] * b3 + mc[..., 1, 1] * b4])
    res = np.abs(lhs - f.exponent(a).sum(0)) / np.maximum(1.0, np.abs(lhs))
    res = np.where(np.isnan(res), np.inf, res)  # only an inf or NaN exponent makes a NaN
    return float(res) if res.ndim == 0 else res


def bracket_coefficient(k: int, l: int, bs: BeamSplitterParams) -> complex:
    """Series coefficient bracket (M00*)^k M00^l + (M01*)^k M01^l, M = bs.matrix();
    for phi_U = 0 that is (t*)^k t^l + (r*)^k r^l."""
    m = bs.matrix()
    return (m[0, 0].conjugate() ** k) * m[0, 0] ** l + (m[0, 1].conjugate() ** k) * m[0, 1] ** l


def random_probes(rng: np.random.Generator, n: int):
    """n splitter matrices uniform on the unitarity manifold, shape (n, 2, 2):
    t = cos th, r = e^{i ph} sin th and a uniform global phase phi_U; and n
    pairs (beta3, beta4) uniform on the disk |beta| <= 2."""
    u = rng.random((n, 7)) * [pi / 2, 2 * pi, 2 * pi, 1, 2 * pi, 1, 2 * pi]
    th, ph, phi_u, r3, p3, r4, p4 = u.T
    t, r = np.cos(th), np.exp(1j * ph) * np.sin(th)
    m = np.array([[t, r], [-r.conj(), t]]).transpose(2, 0, 1) * np.exp(1j * phi_u)[:, None, None]
    return m, 2 * np.sqrt(r3) * np.exp(1j * p3), 2 * np.sqrt(r4) * np.exp(1j * p4)


def classify_filter_bs(f: FilterSpec, trials: int = 100, seed: int = 42) -> BSVerdict:
    """COVARIANT iff f is the s family (``f.as_s()`` is not None). Otherwise the witness
    is the fixed probe of largest residual at the special splitter where the first
    term other than c_11 has its bracket farthest from 1; a lone complex c_11 has none.
    ``max_residual`` only confirms: the worst of the fixed probes and ``trials``
    random ones drawn from ``seed``."""
    trials = require_count(trials, 1, "need at least one trial, an integer")
    seed = require_count(seed, 0, "the seed must be a nonnegative integer")
    m, b3, b4 = random_probes(np.random.default_rng(seed), trials)
    res = filter_bs_residual(f, np.concatenate([_FIXED_M, m]), np.concatenate([_FIXED_B3, b3]),
                             np.concatenate([_FIXED_B4, b4]))
    max_res = float(res.max())
    s = f.as_s()
    if s is not None:
        return BSVerdict(COVARIANT, s, max_res, None, f"Omega = exp(s|beta|^2/2), s = {s}")
    bad = [(k, l) for k, l, _ in f.coeffs if (k, l) != (1, 1)]
    if not bad:
        c11 = complex(f.s / 2, f.coeffs[0][2].imag)
        why = f"c_11 = {c11} keeps the splitter law but is not real: no quasiprobability"
        return BSVerdict(NOT_COVARIANT, None, max_res, None, why)
    k, l = bad[0]
    brackets = [bracket_coefficient(k, l, bs) for bs in SPECIAL_BS_CASES]
    i = int(np.argmax([abs(b - 1) for b in brackets]))
    at = res[: len(_FIXED_M)].reshape(len(SPECIAL_BS_CASES), -1)[i]
    j, bs = int(np.argmax(at)), SPECIAL_BS_CASES[i]
    why = f"the c_{k}{l} bracket is {brackets[i]:.4g}, not 1, at t = {bs.t:.4g}, r = {bs.r:.4g}"
    return BSVerdict(NOT_COVARIANT, None, max_res, (bs, *FIXED_BETA_CASES[j], float(at[j])), why)


@np.errstate(over="ignore", invalid="ignore")
def classify_filter_attenuator(f: FilterSpec, grid) -> AttenuatorVerdict:
    """CLASSICAL_ATTENUATION iff f is the P function, ``f.as_s() == 1``: only then is
    the filtered vacuum e^{-|b|^2/2} Omega(b) identically one. ``max_deviation`` is
    max |e^{E(b) - |b|^2/2} - 1| over the grid (inf where that overflows or E is not
    finite), and the witness is where it peaks. A probe point that is not finite raises
    NonFiniteArgument."""
    grid = require_finite(grid, "probe grid").ravel()
    if grid.size == 0:
        raise InvalidWeights("probe grid must be nonempty")
    z = f.exponent(grid) - np.abs(grid) ** 2 / 2
    dev = np.where(np.isfinite(z), np.abs(np.expm1(z)), np.inf)
    worst = int(np.argmax(dev))
    if f.as_s() == 1:
        return AttenuatorVerdict(CLASSICAL_ATTENUATION, float(dev[worst]), None)
    return AttenuatorVerdict(NOT_CLASSICAL, float(dev[worst]), complex(grid[worst]))


def disk_grid(radius: float = 3.0, points: int = 41) -> np.ndarray:
    """The points x points ``lattice`` on [-radius, radius]^2 clipped to |beta| <= radius,
    closed under beta -> -beta and beta -> i beta; an odd ``points`` puts the origin on it.
    A radius whose double is not finite raises NonFiniteArgument."""
    points = require_count(points, 1, "disk grid points must be a positive integer")
    b = lattice(radius, points)[1].ravel()
    return b[np.abs(b) <= radius]
