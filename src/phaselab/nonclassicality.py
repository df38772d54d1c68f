"""Correlation functions, the classical intensity inequality, attenuation
scaling, and the attenuated-photon curve data (Wigner origin vs. loss).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical_fields import ClassicalEnsemble
from .errors import CutoffTooSmall, InvalidWeights
from .fock_core import DensityMatrix, make_coherent, make_fock, mix, normal_moment
from .linear_optics import attenuate
from .phase_filters import FilterSpec
from .quasiprob_engine import attenuated_photon_wigner, charfunc_grid, quasiprob_transform

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


def wigner_origin_numeric(
    eta: float,
    cutoff: int = 20,
    beta_extent: float = 6.0,
    beta_points: int = 128,
    alpha_extent: float = 4.0,
    alpha_points: int = 129,
) -> float:
    """Wigner value at the origin of an attenuated single photon, through
    the full channel-and-transform pipeline."""
    rho = attenuate(make_fock(1, cutoff), eta)
    return _wigner_origin(rho, beta_extent, beta_points, alpha_extent, alpha_points)


def _wigner_origin(
    rho: DensityMatrix,
    beta_extent: float = 6.0,
    beta_points: int = 128,
    alpha_extent: float = 4.0,
    alpha_points: int = 129,
) -> float:
    cf = charfunc_grid(rho, FilterSpec.s_param(0.0), beta_extent, beta_points)
    return quasiprob_transform(cf, alpha_extent, alpha_points).at_origin()


def wigner_origin_analytic(eta: float) -> float:
    return attenuated_photon_wigner(eta, 0.0)


def figure3_data(eta_steps: int, cutoff: int = 20) -> list[tuple[float, float, float, float]]:
    """Rows (eta, wigner_origin_numeric, wigner_origin_analytic, g2 - g1^2)
    for eta on a uniform grid of [0, 1]."""
    if eta_steps < 2:
        raise InvalidWeights("need at least two efficiency steps")
    rows = []
    for eta in np.linspace(0.0, 1.0, eta_steps):
        eta = float(eta)
        rho = attenuate(make_fock(1, cutoff), eta)
        g1 = float(normal_moment(rho, 1, 1).real)
        g2 = float(normal_moment(rho, 2, 2).real)
        rows.append((eta, _wigner_origin(rho), wigner_origin_analytic(eta), g2 - g1**2))
    return rows


def locate_wigner_zero(cutoff: int = 20, tol: float = 1e-4) -> float:
    """Bisect the numeric attenuated-photon Wigner origin curve for its zero."""
    lo, hi = 0.0, 1.0
    flo = wigner_origin_numeric(lo, cutoff)
    fhi = wigner_origin_numeric(hi, cutoff)
    if flo <= 0 or fhi >= 0:
        raise ValueError("curve does not bracket a sign change on [0, 1]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if wigner_origin_numeric(mid, cutoff) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def coherent_mixture(ens: ClassicalEnsemble, cutoff: int) -> DensityMatrix:
    """Quantum mixture of coherent states with the ensemble's amplitudes and
    weights; the bridge between classical and quantum moments."""
    states = [make_coherent(a, cutoff) for a in ens.amplitudes[:, 0]]
    return mix(states, ens.weights)
