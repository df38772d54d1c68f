"""Correlation functions, the classical intensity inequality, attenuation
scaling, and the attenuated-photon curve data (Wigner origin vs. loss).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical_fields import ClassicalEnsemble
from .errors import CutoffTooSmall, DimensionMismatch, InvalidWeights
from .fock_core import DensityMatrix, _moments, make_coherent, make_fock, mix, normal_moment
from .fock_core import require_count
from .linear_optics import _loss_blocks, attenuate
from .quasiprob_engine import attenuated_photon_wigner

# equality cases (coherent states) must not flip to VIOLATED by rounding
VERDICT_TOL = 1e-12

SATISFIED = "SATISFIED"
VIOLATED = "VIOLATED"


def _verdict(lhs: float, rhs: float) -> str:
    return VIOLATED if lhs < rhs - VERDICT_TOL * max(1.0, abs(rhs)) else SATISFIED


@dataclass(frozen=True)
class CorrelationReport:
    g1: float
    g2: float
    gmn_table: dict
    g2_verdict: str
    violations: tuple


@dataclass(frozen=True)
class HierarchyVerdict:
    n: int
    m: int
    lhs: float
    rhs: float
    verdict: str


@dataclass(frozen=True)
class ScalingReport:
    verdicts: tuple  # (eta, verdict) pairs
    invariant: bool


def correlation_report(rho: DensityMatrix, M: int = 2) -> CorrelationReport:
    """Normally ordered moments up to order M plus the G2 >= G1^2 verdict."""
    M = require_count(M, 0, "moment order must be a nonnegative integer")
    if 2 * M > rho.cutoff - 2:
        raise CutoffTooSmall(
            f"moment table of order {M} needs cutoff >= {2 * M + 2}, have {rho.cutoff}"
        )
    table = {
        (m, n): normal_moment(rho, m, n) for m in range(M + 1) for n in range(M + 1)
    }
    g1 = float(normal_moment(rho, 1, 1).real)
    g2 = float(normal_moment(rho, 2, 2).real)
    verdict = _verdict(g2, g1**2)
    violations = []
    if verdict == VIOLATED:
        violations.append(("G2_ge_G1sq", g2, g1**2, verdict))
    for n in range(1, M + 1):
        for m in range(n + 1):
            h = hierarchy_check(rho, n, m)
            if h.verdict == VIOLATED:
                violations.append((f"hierarchy_{n}_{m}", h.lhs, h.rhs, h.verdict))
    return CorrelationReport(g1, g2, table, verdict, tuple(violations))


def hierarchy_check(rho: DensityMatrix, n: int, m: int) -> HierarchyVerdict:
    """Diagonal moment inequality G(n,n) >= G(m,m) G(n-m,n-m)."""
    if not 0 <= m <= n:
        raise InvalidWeights("need 0 <= m <= n")
    lhs = float(normal_moment(rho, n, n).real)
    rhs = float(
        normal_moment(rho, m, m).real * normal_moment(rho, n - m, n - m).real
    )
    return HierarchyVerdict(n, m, lhs, rhs, _verdict(lhs, rhs))


def scaling_invariance_check(
    rho: DensityMatrix, n: int, m: int, etas: list[float]
) -> ScalingReport:
    """Hierarchy verdict at each efficiency; classicality must not flip."""
    verdicts = []
    for eta in etas:
        if not 0 < eta <= 1:
            raise InvalidWeights("efficiencies must lie in (0, 1]")
        verdicts.append((eta, hierarchy_check(attenuate(rho, eta), n, m).verdict))
    base = hierarchy_check(rho, n, m).verdict
    invariant = all(v == base for _, v in verdicts)
    return ScalingReport(tuple(verdicts), invariant)


def _origins(etas: np.ndarray, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """The lossy photons at ``etas`` as one stack of blocks, and their Wigner origins: (2/pi)
    Tr(rho Pi), Pi = (-1)^{a^dag a} the parity, as T(0, 0) = 2 Pi, the kernel's bits at 0."""
    lossy = _loss_blocks(make_fock(1, cutoff), etas)
    parity = (-1.0) ** np.arange(lossy.shape[-1])
    return lossy, 2 * (lossy.diagonal(axis1=1, axis2=2).real @ parity) / np.pi


def wigner_origin_numeric(eta: float, cutoff: int = 20) -> float:
    """Wigner value at the origin of an attenuated single photon: the loss
    channel, then the parity trace (2/pi) sum_n (-1)^n rho_nn (``_origins``)."""
    return float(_origins(np.array([float(eta)]), cutoff)[1][0])


def wigner_origin_analytic(eta: float) -> float:
    return attenuated_photon_wigner(eta, 0.0)


def figure3_data(eta_steps: int, cutoff: int = 20) -> list[tuple[float, float, float, float]]:
    """Rows (eta, wigner_origin_numeric, wigner_origin_analytic, g2 - g1^2)
    for eta on a uniform grid of [0, 1], the lossy photons made as one stack (``_origins``)."""
    eta_steps = require_count(eta_steps, 2, "need at least two efficiency steps")
    etas = np.linspace(0.0, 1.0, eta_steps)
    lossy, origin = _origins(etas, cutoff)
    g1, g2 = (_moments(lossy, cutoff, j, j).real for j in (1, 2))
    columns = (etas, origin, attenuated_photon_wigner(etas, 0.0), g2 - g1**2)
    return list(zip(*(c.tolist() for c in columns)))


def locate_wigner_zero(cutoff: int = 20, tol: float = 1e-4) -> float:
    """Bisect the numeric attenuated-photon Wigner origin curve for its zero, to
    ``tol`` or until no float lies between the ends."""
    if not 0 < tol < float("inf"):
        raise InvalidWeights(f"tol {tol} must be finite and > 0")
    lo, hi = 0.0, 1.0
    while hi - lo > tol and lo < (mid := 0.5 * (lo + hi)) < hi:
        if wigner_origin_numeric(mid, cutoff) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def coherent_mixture(ens: ClassicalEnsemble, cutoff: int) -> DensityMatrix:
    """Quantum mixture of coherent states with the ensemble's amplitudes and
    weights; the bridge between classical and quantum moments."""
    if ens.n_modes != 1:
        raise DimensionMismatch("coherent_mixture expects a single-mode ensemble")
    states = [make_coherent(a, cutoff) for a in ens.amplitudes[:, 0]]
    return mix(states, ens.weights)
