"""Executable checks of the two covariance results: which filters commute
with the beam-splitter map, and which give the classical attenuator law.

The lab is a falsifier/confirmer on finite parameter families, not a proof:
the two special splitter settings from the case analysis are always tested
first (they are sufficient to kill every non-Gaussian exponential filter),
random settings are confirmatory.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .classical_fields import BeamSplitterParams
from .errors import InvalidWeights
from .phase_filters import FilterSpec, vacuum_charfunc

SQ2 = 1.0 / sqrt(2.0)

SPECIAL_BS_CASES = (
    BeamSplitterParams(SQ2, SQ2),
    BeamSplitterParams(SQ2, 1j * SQ2),
)

# deterministic beta pairs probed before the random trials; (1, 0) witnesses
# every single-coefficient filter at one of the special splitter settings
FIXED_BETA_CASES = (
    (1.0 + 0.0j, 0.0j),
    (0.0j, 1.0 + 0.0j),
    (0.7 + 0.3j, -0.4 + 0.9j),
    (1.5 - 0.5j, 0.2 + 1.1j),
)

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


@dataclass(frozen=True)
class AttenuatorVerdict:
    verdict: str
    max_deviation: float
    witness_beta: complex | None


def filter_bs_residual(
    f: FilterSpec, bs: BeamSplitterParams, beta3: complex, beta4: complex
) -> float:
    """|Omega(b3) Omega(b4) - Omega(a1) Omega(a2)| with (a1, a2) = M^dag (b3, b4),
    M = bs.matrix(); for phi_U = 0 that is (t* b3 - r b4, r* b3 + t b4)."""
    b3, b4 = complex(beta3), complex(beta4)
    lhs = np.exp(f.exponent(b3) + f.exponent(b4))
    m = bs.matrix().conj()
    a1 = m[0, 0] * b3 + m[1, 0] * b4
    a2 = m[0, 1] * b3 + m[1, 1] * b4
    rhs = np.exp(f.exponent(a1) + f.exponent(a2))
    return float(abs(lhs - rhs))


def bracket_coefficient(k: int, l: int, bs: BeamSplitterParams) -> complex:
    """Series coefficient bracket (M00*)^k M00^l + (M01*)^k M01^l, M = bs.matrix();
    for phi_U = 0 that is (t*)^k t^l + (r*)^k r^l."""
    m = bs.matrix()
    return (m[0, 0].conjugate() ** k) * m[0, 0] ** l + (m[0, 1].conjugate() ** k) * m[0, 1] ** l


def random_splitter(rng: np.random.Generator) -> BeamSplitterParams:
    """Uniform sample on the unitarity manifold: t = cos th, r = e^{i ph} sin th,
    and a uniform global phase phi_U."""
    theta = rng.uniform(0.0, np.pi / 2)
    phi = rng.uniform(0.0, 2 * np.pi)
    phi_u = rng.uniform(0.0, 2 * np.pi)
    return BeamSplitterParams(np.cos(theta), np.exp(1j * phi) * np.sin(theta), phi_u)


def _random_beta(rng: np.random.Generator, radius: float = 2.0) -> complex:
    return complex(
        radius * np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
    )


def classify_filter_bs(
    f: FilterSpec,
    trials: int = 100,
    tol: float = 1e-10,
    seed: int = 42,
) -> BSVerdict:
    """COVARIANT iff the residual stays below tol on all probed settings and
    the filter reduces to the Gaussian s-family; otherwise a witness is
    returned."""
    if trials < 1:
        raise InvalidWeights("need at least one trial")
    rng = np.random.default_rng(seed)
    cases = [(bs, b3, b4) for bs in SPECIAL_BS_CASES for b3, b4 in FIXED_BETA_CASES]
    for _ in range(trials):
        cases.append((random_splitter(rng), _random_beta(rng), _random_beta(rng)))
    max_res = 0.0
    witness = None
    for bs, b3, b4 in cases:
        res = filter_bs_residual(f, bs, b3, b4)
        max_res = max(max_res, res)
        if witness is None and res > tol:
            witness = (bs, b3, b4, res)
    s = f.as_s()
    if witness is None and s is not None:
        return BSVerdict(COVARIANT, s, max_res, None)
    return BSVerdict(NOT_COVARIANT, None, max_res, witness)


def classify_filter_attenuator(
    f: FilterSpec, grid, tol: float = 1e-12
) -> AttenuatorVerdict:
    """CLASSICAL_ATTENUATION iff the filtered vacuum characteristic function
    is identically one on the probe grid."""
    grid = np.asarray(list(grid), dtype=complex)
    if grid.size == 0:
        raise InvalidWeights("probe grid must be nonempty")
    dev = np.abs(vacuum_charfunc(f, grid) - 1.0)
    worst = int(np.argmax(dev))
    max_dev = float(dev[worst])
    if max_dev <= tol:
        return AttenuatorVerdict(CLASSICAL_ATTENUATION, max_dev, None)
    return AttenuatorVerdict(NOT_CLASSICAL, max_dev, complex(grid[worst]))


def disk_grid(radius: float = 3.0, points: int = 41) -> np.ndarray:
    """Square lattice clipped to |beta| <= radius, origin excluded kept."""
    ax = np.linspace(-radius, radius, points)
    x, y = np.meshgrid(ax, ax)
    b = (x + 1j * y).ravel()
    return b[np.abs(b) <= radius]
