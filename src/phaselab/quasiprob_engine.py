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
from scipy.interpolate import RegularGridInterpolator

from .errors import CutoffTooSmall, DimensionMismatch, GridTooCoarse, SingularPFunction
from .fock_core import (
    DensityMatrix,
    coherent_leakage,
    coherent_vector,
    effective_dim,
    level_occupations,
    require_finite,
)
from .phase_filters import TOP_LEVEL_FLOOR, FilterSpec, filtered_charfunc, two_mode_charfunc

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
    n_modes: int
    source: DensityMatrix | None
    extent: float
    step: float


@dataclass(frozen=True)
class QuasiProbGrid:
    """Real quasiprobability samples P_Omega(alpha) on a square lattice."""

    axis: np.ndarray
    values: np.ndarray
    filter: FilterSpec
    volume_integral: float
    imag_residue: float
    extent: float
    step: float

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


def charfunc_grid(
    rho: DensityMatrix,
    f: FilterSpec,
    extent: float = 6.0,
    points: int = 128,
) -> CharFuncGrid:
    """Evaluate Phi_Omega on a square beta lattice."""
    axis, betas = lattice(extent, points)
    values = filtered_charfunc(rho, f, betas)
    step = float(axis[1] - axis[0])
    return CharFuncGrid(axis, values, f, 1, rho, extent, step)


def two_mode_charfunc_grid(
    rho12: DensityMatrix,
    f: FilterSpec,
    extent: float = 2.0,
    points: int = 7,
) -> CharFuncGrid:
    """Evaluate the joint Phi_Omega(beta3, beta4) on a small 4D lattice."""
    axis, betas = lattice(extent, points)
    b3 = betas[:, :, None, None]
    b4 = betas[None, None, :, :]
    values = two_mode_charfunc(rho12, f, b3, b4)
    step = float(axis[1] - axis[0])
    return CharFuncGrid(axis, values, f, 2, rho12, extent, step)


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


def quasiprob_transform(
    cf: CharFuncGrid,
    alpha_extent: float = 4.0,
    alpha_points: int = 129,
) -> QuasiProbGrid:
    """P_Omega(alpha) = (1/pi^2) int d^2b Phi_Omega(b) e^{b*a - b a*}."""
    if cf.n_modes != 1:
        raise DimensionMismatch("transform supports single-mode grids")
    if alpha_points < 2 or not 0 < alpha_extent < np.inf:
        raise GridTooCoarse(
            f"alpha grid {alpha_extent}:{alpha_points} needs extent > 0 and at least 2 steps"
        )
    if cf.step > pi / (2 * alpha_extent):
        raise GridTooCoarse(
            f"beta step {cf.step:.4f} exceeds the Nyquist bound "
            f"{pi / (2 * alpha_extent):.4f} for extent {alpha_extent}"
        )
    s = cf.filter.as_s()
    if s is None or s > 0:
        edge = np.concatenate(
            [cf.values[0, :], cf.values[-1, :], cf.values[:, 0], cf.values[:, -1]]
        )
        if float(np.max(np.abs(edge))) > BOUNDARY_DECAY_TOL:
            raise SingularPFunction(
                "characteristic function does not decay at the lattice boundary; "
                "the quasiprobability is singular or the lattice too small"
            )
    alpha_axis, m1, m2 = _transform_kernels(
        np.asarray(cf.axis, dtype=float).tobytes(), float(alpha_extent), int(alpha_points)
    )
    step = cf.step
    p = m1 @ (cf.values.T @ m2) * (step**2 / pi**2)
    residue = float(np.max(np.abs(p.imag)))
    if residue > IMAG_RESIDUE_TOL:
        raise ValueError(
            f"transform imaginary residue {residue:.3e} exceeds {IMAG_RESIDUE_TOL}"
        )
    values = np.ascontiguousarray(p.real)
    d_alpha = float(alpha_axis[1] - alpha_axis[0])
    volume = float(values.sum() * d_alpha**2)
    return QuasiProbGrid(
        alpha_axis, values, cf.filter, volume, residue, alpha_extent, d_alpha
    )


def q_function(rho: DensityMatrix, alpha):
    """Husimi Q(alpha) = <alpha|rho|alpha> / pi, directly in the Fock basis."""
    if rho.n_modes != 1:
        raise DimensionMismatch("q_function expects a single-mode state")
    alpha_arr = require_finite(alpha, "alpha")
    occ = level_occupations(rho)[0]
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


def attenuated_photon_wigner(eta: float, alpha):
    """Closed-form Wigner function of a single photon after loss eta."""
    a2 = np.abs(np.asarray(alpha, dtype=complex)) ** 2
    out = (2 / pi) * (1 - 2 * eta + 4 * eta * a2) * np.exp(-2 * a2)
    return float(out) if out.ndim == 0 else out


def quadrature_distribution(
    wigner: QuasiProbGrid, phase: float
) -> list[tuple[float, float]]:
    """Marginal of a Wigner grid along the direction orthogonal to `phase`."""
    if wigner.filter.as_s() != 0:
        raise DimensionMismatch("quadrature marginal requires an s = 0 grid")
    if wigner.step > 0.1:
        raise GridTooCoarse(
            f"alpha step {wigner.step:.3f} too coarse for a normalized marginal"
        )
    axis = wigner.axis
    if phase == 0.0:
        dens = wigner.values.sum(axis=0) * wigner.step
    else:
        interp = RegularGridInterpolator(
            (axis, axis),
            wigner.values,
            method="cubic",
            bounds_error=False,
            fill_value=0.0,
        )
        rot = np.exp(1j * phase)
        x, u = np.meshgrid(axis, axis)  # x: quadrature, u: integration direction
        pts = (x + 1j * u) * rot
        dens = interp(np.stack([pts.imag.ravel(), pts.real.ravel()], axis=-1))
        dens = dens.reshape(x.shape).sum(axis=0) * wigner.step
    return [(float(x), float(p)) for x, p in zip(axis, dens)]
