"""Characteristic-function lattices and their Fourier transform to
quasiprobability grids.

The transform uses the kernel e^{b* a - b a*} with a 1/pi^2 prefactor; with
this convention the vacuum Wigner peak is 2/pi. The discrete transform is a
separable kernel contraction (two matrix products) so identical inputs give
bit-identical output.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import pi

import numpy as np

from .errors import CutoffTooSmall, DimensionMismatch, GridTooCoarse
from .errors import ImaginaryResidue, SingularPFunction
from .fock_core import DensityMatrix, coherent_leakage, coherent_vector, effective_dim
from .fock_core import require_finite
from .phase_filters import TOP_LEVEL_FLOOR, FilterSpec, filtered_charfunc, two_mode_charfunc
from .phase_filters import _band_trace, _bands

BOUNDARY_DECAY_TOL = 1e-8
IMAG_RESIDUE_TOL = 1e-9
Q_LEAKAGE_TOL = 1e-10


@dataclass(frozen=True)
class CharFuncGrid:
    """Sampled characteristic function on a square lattice symmetric about 0.

    values[i, j] = Phi(axis[j] + 1i axis[i]) for one mode; for two modes the
    values array is 4-dimensional over (i3, j3, i4, j4) with the same axis
    for both modes. ``source`` keeps the underlying state so consumers can
    re-evaluate Phi functionally instead of interpolating.
    """

    axis: np.ndarray
    values: np.ndarray
    filter: FilterSpec
    source: DensityMatrix | None


@dataclass(frozen=True)
class QuasiProbGrid:
    """Real quasiprobability samples P_Omega(alpha) on a square lattice;
    ``source`` is the state the samples were computed from."""

    axis: np.ndarray
    values: np.ndarray
    filter: FilterSpec
    source: DensityMatrix | None
    volume_integral: float
    imag_residue: float

    def at_origin(self) -> float:
        i = int(np.argmin(np.abs(self.axis)))
        if abs(self.axis[i]) > 1e-12:
            raise GridTooCoarse("lattice does not contain the origin")
        return float(self.values[i, i])


def lattice(extent: float, points: int) -> tuple[np.ndarray, np.ndarray]:
    """Axis and complex mesh of a square lattice symmetric about the origin."""
    axis = np.linspace(-extent, extent, points)
    x, y = np.meshgrid(axis, axis)
    return axis, x + 1j * y


def charfunc_grid(rho: DensityMatrix, f: FilterSpec, extent: float = 6.0,
                  points: int = 128) -> CharFuncGrid:
    """Evaluate Phi_Omega on a square beta lattice."""
    axis, betas = lattice(extent, points)
    return CharFuncGrid(axis, filtered_charfunc(rho, f, betas), f, rho)


def two_mode_charfunc_grid(rho12: DensityMatrix, f: FilterSpec, extent: float = 2.0,
                           points: int = 7) -> CharFuncGrid:
    """Evaluate the joint Phi_Omega(beta3, beta4) on a small 4D lattice."""
    axis, betas = lattice(extent, points)
    b3 = betas[:, :, None, None]
    b4 = betas[None, None, :, :]
    return CharFuncGrid(axis, two_mode_charfunc(rho12, f, b3, b4), f, rho12)


@lru_cache(maxsize=16)
def _transform_kernels(beta_axis: bytes, alpha_extent: float, alpha_points: int):
    """The alpha axis and the two factors of the transform kernel for one beta
    axis (its float64 bytes). They do not depend on Phi, so they are built
    once per lattice pair and shared as read-only arrays."""
    b = np.frombuffer(beta_axis)
    alpha_axis = np.linspace(-alpha_extent, alpha_extent, alpha_points)
    # kernel e^{b*a - b a*} = exp(2i (Re b . Im a - Im b . Re a)); rows of the
    # value array run over Im b, columns over Re b
    m1 = np.exp(2j * np.outer(alpha_axis, b))  # (alpha rows: Im a) x (Re b)
    m2 = np.exp(-2j * np.outer(b, alpha_axis))  # (Im b) x (alpha cols: Re a)
    for arr in (alpha_axis, m1, m2):
        arr.setflags(write=False)
    return alpha_axis, m1, m2


def quasiprob_transform(cf: CharFuncGrid, alpha_extent: float = 4.0,
                        alpha_points: int = 129) -> QuasiProbGrid:
    """P_Omega(alpha) = (1/pi^2) int d^2b Phi_Omega(b) e^{b*a - b a*}."""
    if cf.values.ndim != 2:
        raise DimensionMismatch("transform supports single-mode grids")
    if len(cf.axis) < 2 or alpha_points < 2 or not 0 < alpha_extent < np.inf:
        raise GridTooCoarse(
            f"beta grid of {len(cf.axis)} points, alpha grid {alpha_extent}:{alpha_points}: "
            "both need at least 2 steps and the alpha extent must be > 0"
        )
    step = float(cf.axis[1] - cf.axis[0])
    if step > pi / (2 * alpha_extent):
        raise GridTooCoarse(
            f"beta step {step:.4f} exceeds the Nyquist bound "
            f"{pi / (2 * alpha_extent):.4f} for extent {alpha_extent}"
        )
    s = cf.filter.as_s()
    if s is None or s > 0:
        edge = np.concatenate(
            [cf.values[0, :], cf.values[-1, :], cf.values[:, 0], cf.values[:, -1]]
        )
        if not float(np.max(np.abs(edge))) <= BOUNDARY_DECAY_TOL:  # NaN fails it
            raise SingularPFunction(
                "characteristic function does not decay at the lattice boundary; "
                "the quasiprobability is singular or the lattice too small"
            )
    alpha_axis, m1, m2 = _transform_kernels(
        np.asarray(cf.axis, dtype=float).tobytes(), float(alpha_extent), int(alpha_points)
    )
    p = m1 @ (cf.values.T @ m2) * (step**2 / pi**2)
    residue = float(np.max(np.abs(p.imag)))
    if not residue <= IMAG_RESIDUE_TOL:
        raise ImaginaryResidue(
            f"transform imaginary residue {residue:.3e} exceeds {IMAG_RESIDUE_TOL}"
        )
    values = np.ascontiguousarray(p.real)
    d_alpha = float(alpha_axis[1] - alpha_axis[0])
    volume = float(values.sum() * d_alpha**2)
    return QuasiProbGrid(alpha_axis, values, cf.filter, cf.source, volume, residue)


def q_function(rho: DensityMatrix, alpha):
    """Husimi Q(alpha) = <alpha|rho|alpha> / pi, directly in the Fock basis."""
    if rho.n_modes != 1:
        raise DimensionMismatch("q_function expects a single-mode state")
    alpha_arr = require_finite(alpha, "alpha")
    occ = rho.occupations[0]
    # as for the characteristic function, the sum over occupied levels is
    # exact; the Poisson tail beyond the cutoff matters only when the stored
    # matrix visibly truncates a larger state
    if occ[-1] > TOP_LEVEL_FLOOR and alpha_arr.size:
        worst = float(np.max(coherent_leakage(alpha_arr, rho.cutoff)))
        if worst > Q_LEAKAGE_TOL:
            raise CutoffTooSmall(
                f"coherent leakage {worst:.3e} at |alpha| = {np.abs(alpha_arr).max():.2f} "
                f"exceeds {Q_LEAKAGE_TOL} at cutoff {rho.cutoff}"
            )
    d = effective_dim(occ)
    c = coherent_vector(alpha_arr.ravel(), d - 1)  # points x levels
    vals = ((c.conj() @ rho.entries[:d, :d]) * c).sum(axis=1).real / pi
    vals = vals.reshape(alpha_arr.shape)
    return float(vals) if vals.ndim == 0 else vals


def quasiprob_pointwise(rho: DensityMatrix, alpha, s: float):
    """P_s(alpha) = (1/pi) Tr(rho T(alpha, s)) for s <= 0, exact for the stored matrix.

    T(a, s) = (2/(1-s)) D(a) q^{a^dag a} D(a)^dag with q = (s+1)/(s-1)
    (Cahill & Glauber 1969) is banded like D:
    <n+k|T|n> = (2/(1-s)) e^{-2|a|^2/(1-s)} (2a/(1-s))^k q^n sqrt(n!/(n+k)!)
    L_n^{(k)}(4|a|^2/(1-s^2)), and <n|T|n+k> is its conjugate. The band
    kernel takes q x = -4|a|^2/(1-s)^2, which stays finite at s = -1 (Q).
    For s > 0, |q| > 1 and the weights grow with n: ``SingularPFunction``.
    """
    if rho.n_modes != 1:
        raise DimensionMismatch("quasiprob_pointwise expects a single-mode state")
    require_finite(s, "s")
    if s > 0:
        raise SingularPFunction(f"s = {s} > 0: the weights q^n of T(alpha, s) grow without bound")
    alpha_arr = require_finite(alpha, "alpha")
    d = effective_dim(rho.occupations[0])
    vals = _pointwise(rho.entries[:d, :d], alpha_arr.ravel(), s).reshape(alpha_arr.shape)
    return float(vals) if vals.ndim == 0 else vals


def _pointwise(e: np.ndarray, a: np.ndarray, s: float) -> np.ndarray:
    """(1/pi) Tr(e T(a, s)) for each matrix of a stack e (..., d, d) at the flat points a."""
    x = np.abs(a) ** 2
    w = 2 * a / (1 - s)
    pref = (2 / (1 - s)) * np.exp(-2 * x / (1 - s))
    bands = _bands(e.shape[-1], pref, w, w.conjugate(), -4 * x / (1 - s) ** 2, (s + 1) / (s - 1))
    return _band_trace(e, bands, a.size).real / pi


def attenuated_photon_wigner(eta: float, alpha):
    """Closed-form Wigner function of a single photon after loss eta."""
    a2 = np.abs(np.asarray(alpha, dtype=complex)) ** 2
    out = (2 / pi) * (1 - 2 * eta + 4 * eta * a2) * np.exp(-2 * a2)
    return float(out) if out.ndim == 0 else out


def quadrature_distribution(wigner: QuasiProbGrid, phase: float) -> list[tuple[float, float]]:
    """Exact marginal <x|rho|x> of the quadrature x = Re(alpha e^{-i phase}) on the
    grid's axis, with rho the state the s = 0 grid was computed from.

    It is sum_mn rho_mn psi_m(x) psi_n(x) e^{i(n-m) phase}, with psi_n the Hermite
    functions of variance-1/4 quadratures from their three-term recurrence.
    """
    if wigner.filter.as_s() != 0:
        raise DimensionMismatch("quadrature marginal requires an s = 0 grid")
    rho = wigner.source
    if rho is None:
        raise DimensionMismatch("quadrature marginal needs the grid's source state")
    d = effective_dim(rho.occupations[0])
    x = wigner.axis
    psi = np.zeros((d, x.size))
    psi[0] = (2 / pi) ** 0.25 * np.exp(-x * x)
    for n in range(1, d):  # at n = 1 the row psi[-1] is still zero
        psi[n] = (2 * x * psi[n - 1] - np.sqrt(n - 1) * psi[n - 2]) / np.sqrt(n)
    v = psi * np.exp(-1j * phase * np.arange(d))[:, None]
    dens = (v * (rho.entries[:d, :d] @ v.conj())).sum(axis=0).real
    return list(zip(x.tolist(), dens.tolist()))
