"""Characteristic-function lattices and their Fourier transform to
quasiprobability grids.

The transform uses the kernel e^{b* a - b a*} with a 1/pi^2 prefactor; with
this convention the vacuum Wigner peak is 2/pi. The discrete transform is a
separable kernel contraction (two matrix products) so identical inputs give
bit-identical output.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from math import pi

import numpy as np

from .errors import DimensionMismatch, GridTooCoarse, ImaginaryResidue, SingularPFunction
from .fock_core import DensityMatrix, check_leakage, coherent_vector, effective_dim, require_finite
from .phase_filters import FilterSpec, filtered_charfunc, two_mode_charfunc
from .phase_filters import _axis, _band_trace, _kept_rows, lattice

BOUNDARY_DECAY_TOL = 1e-8
IMAG_RESIDUE_TOL = 1e-9


@dataclass(frozen=True)
class CharFuncGrid:
    """Sampled characteristic function on a square lattice symmetric about 0.

    values[i, j] = Phi(axis[j] + 1i axis[i]) for one mode; for two modes the
    values array is 4-dimensional over (i3, j3, i4, j4) with the same axis
    for both modes. ``source`` keeps the underlying state so consumers can
    re-evaluate Phi functionally instead of interpolating.

    ``sample`` is the values array, or a function that returns it: ``values`` calls
    it on first read and keeps the result, so a grid whose consumer answers from the
    source never samples the lattice. ``quasiprob_transform`` answers a single-mode
    grid with a ``source`` and an s <= 0 filter from the source, also when the grid
    is made by hand; pass ``source=None`` to transform hand-made values.
    """

    axis: np.ndarray
    sample: np.ndarray | Callable[[], np.ndarray]
    filter: FilterSpec
    source: DensityMatrix | None

    @cached_property
    def values(self) -> np.ndarray:
        return self.sample() if callable(self.sample) else self.sample

    @property
    def ndim(self) -> int:
        """``values.ndim``, read as two per mode of the source where there is one, so that
        it samples nothing."""
        return 2 * self.source.n_modes if self.source is not None else self.values.ndim


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


def charfunc_grid(rho: DensityMatrix, f: FilterSpec, extent: float = 6.0,
                  points: int = 128) -> CharFuncGrid:
    """Phi_Omega on a square beta lattice: the axis now, the values (and the mesh) when
    they are first read."""
    return CharFuncGrid(_axis(extent, points),
                        lambda: filtered_charfunc(rho, f, lattice(extent, points)[1]), f, rho)


def two_mode_charfunc_grid(rho12: DensityMatrix, f: FilterSpec, extent: float = 2.0,
                           points: int = 7) -> CharFuncGrid:
    """Evaluate the joint Phi_Omega(beta3, beta4) on a small 4D lattice."""
    axis, betas = lattice(extent, points)
    b3 = betas[:, :, None, None]
    b4 = betas[None, None, :, :]
    return CharFuncGrid(axis, two_mode_charfunc(rho12, f, b3, b4), f, rho12)


def _transform_kernels(beta_axis: np.ndarray, alpha_extent: float, alpha_points: int):
    """The alpha axis and the two factors of the transform kernel for one beta axis."""
    alpha_axis = _axis(alpha_extent, alpha_points)
    # kernel e^{b*a - b a*} = exp(2i (Re b . Im a - Im b . Re a)); rows of the
    # value array run over Im b, columns over Re b
    m1 = np.exp(2j * np.outer(alpha_axis, beta_axis))  # (alpha rows: Im a) x (Re b)
    m2 = np.exp(-2j * np.outer(beta_axis, alpha_axis))  # (Im b) x (alpha cols: Re a)
    return alpha_axis, m1, m2


def quasiprob_transform(cf: CharFuncGrid, alpha_extent: float = 4.0,
                        alpha_points: int = 129) -> QuasiProbGrid:
    """P_Omega(alpha) = (1/pi^2) int d^2b Phi_Omega(b) e^{b*a - b a*}.

    A grid with a ``source`` and an s-family filter with s <= 0 is answered exactly from
    the source, ``quasiprob_pointwise`` on the alpha lattice, and its values and beta axis
    are never read. Any other grid (s > 0, a series filter, no source) is Fourier-summed,
    on a beta axis of 2 points or more with |step| in (0, pi / (2 alpha_extent)] (Nyquist).
    """
    # the alpha grid first (``_axis`` checks the count): ndim samples a sourceless grid
    if not 0 < alpha_extent < np.inf or len(_axis(alpha_extent, alpha_points)) < 2:
        raise GridTooCoarse(f"alpha grid {alpha_extent}:{alpha_points} needs at least 2 steps "
                            "and an extent > 0")
    if cf.ndim != 2:
        raise DimensionMismatch("quasiprob_transform supports single-mode grids")
    s = cf.filter.as_s()
    if cf.source is not None and s is not None and s <= 0:
        alpha_axis, alphas = lattice(alpha_extent, alpha_points)
        values, residue = quasiprob_pointwise(cf.source, alphas, s), 0.0
    else:
        step = float(cf.axis[1] - cf.axis[0]) if len(cf.axis) > 1 else np.inf
        if not 0 < abs(step) <= pi / (2 * alpha_extent):  # NaN fails it
            raise GridTooCoarse(f"beta axis of {len(cf.axis)} points, step {step:.4f}: the "
                                "Fourier sum needs 2 or more and |step| in (0, b], b the Nyquist "
                                f"bound {pi / (2 * alpha_extent):.4f} for extent {alpha_extent}")
        if s is None or s > 0:
            edge = np.concatenate(
                [cf.values[0, :], cf.values[-1, :], cf.values[:, 0], cf.values[:, -1]]
            )
            if not float(np.max(np.abs(edge))) <= BOUNDARY_DECAY_TOL:  # NaN fails it
                raise SingularPFunction(
                    "characteristic function does not decay at the lattice boundary; "
                    "the quasiprobability is singular or the lattice too small"
                )
        alpha_axis, m1, m2 = _transform_kernels(np.asarray(cf.axis, dtype=float),
                                                alpha_extent, alpha_points)
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


def _rows(build: Callable, x: np.ndarray, levels: int) -> np.ndarray:
    """build(x, levels - 1), rows n < levels at the flat points x, as points x levels, from
    the table of ``build`` (``_kept_rows``) keyed on x's bytes: built at once, holding no x."""
    def make(count):
        rows = build(x, count - 1)
        return lambda _: rows
    return _kept_rows(build, x.tobytes(), x.size, levels, x.nbytes * levels, make)(None)[:, :levels]


def _hermite_rows(x: np.ndarray, cutoff: int) -> np.ndarray:
    """psi_n(x) for n <= cutoff, Hermite functions of variance-1/4 quadratures; points x levels."""
    psi = np.zeros((cutoff + 1, x.size))
    psi[0] = (2 / pi) ** 0.25 * np.exp(-x * x)
    for n in range(1, cutoff + 1):  # at n = 1 the row psi[-1] is still zero
        psi[n] = (2 * x * psi[n - 1] - np.sqrt(n - 1) * psi[n - 2]) / np.sqrt(n)
    return psi.T


def q_function(rho: DensityMatrix, alpha):
    """Husimi Q(alpha) = <alpha|rho|alpha> / pi, directly in the Fock basis: exact for the
    stored matrix, and within (2 sqrt(eps) + 2 eps) / pi of the untruncated state's."""
    if rho.n_modes != 1:
        raise DimensionMismatch("q_function expects a single-mode state")
    check_leakage(rho, 1 / pi)
    alpha_arr = require_finite(alpha, "alpha")
    d = effective_dim(rho.occupations[0])
    c = _rows(coherent_vector, alpha_arr.ravel(), d)  # points x levels
    # conj(c) rho as conj(c conj(rho)), times c in place: one (points, levels) temporary in
    # place of three. It agrees with conj(c) @ rho to rounding, and had its bits on the
    # shapes tried, but a BLAS may order or fuse the products otherwise
    terms = c @ rho.entries[:d, :d].conj()
    np.conjugate(terms, out=terms)
    terms *= c
    vals = terms.sum(axis=1).real / pi
    vals = vals.reshape(alpha_arr.shape)
    return float(vals) if vals.ndim == 0 else vals


@np.errstate(over="ignore")
def quasiprob_pointwise(rho: DensityMatrix, alpha, s: float):
    """P_s(alpha) = (1/pi) Tr(rho T(alpha, s)) for s <= 0, exact for the stored matrix.

    T(a, s) = (2/(1-s)) D(a) q^{a^dag a} D(a)^dag with q = (s+1)/(s-1)
    (Cahill & Glauber 1969) is banded like D:
    <n+k|T|n> = (2/(1-s)) e^{-2|a|^2/(1-s)} (2a/(1-s))^k q^n sqrt(n!/(n+k)!)
    L_n^{(k)}(4|a|^2/(1-s^2)), and <n|T|n+k> is its conjugate. The band
    kernel runs its recurrence at s = 0 and reaches s < 0 from those rows by the
    multiplication theorem, with weights in 1 - s alone, finite at s = -1 (Q); where
    the s = 0 rows overflow, it runs at q x = -4|a|^2/(1-s)^2 instead.
    For s > 0, |q| > 1 and the weights grow with n: ``SingularPFunction``. A matrix
    that is not Hermitian gives the value of its Hermitian part (rho + rho^dag)/2.

    The answer is exact for the stored matrix. If that matrix renormalizes a state that
    lost trace eps (its ``leakage``), then, as ||T(alpha, s)|| = 2/(1-s), the answer for
    the untruncated state differs by at most (2/(pi(1-s)))(2 sqrt(eps) + 2 eps) at every
    alpha; a leakage above ``fock_core.LEAKAGE_TOL``, the cap of the state builders,
    raises ``CutoffTooSmall`` (``check_leakage``).
    """
    if rho.n_modes != 1:
        raise DimensionMismatch("quasiprob_pointwise expects a single-mode state")
    require_finite(s, "s")
    if s > 0:
        raise SingularPFunction(f"s = {s} > 0: the weights q^n of T(alpha, s) grow without bound")
    check_leakage(rho, 2 / (pi * (1 - s)))
    vals = _band_trace(rho, alpha, "alpha", s)
    vals /= pi
    return float(vals) if vals.ndim == 0 else vals


def attenuated_photon_wigner(eta: float, alpha):
    """Closed-form Wigner function of a single photon after loss eta."""
    a2 = np.abs(np.asarray(alpha, dtype=complex)) ** 2
    out = (2 / pi) * (1 - 2 * eta + 4 * eta * a2) * np.exp(-2 * a2)
    return float(out) if out.ndim == 0 else out


def quadrature_distribution(wigner: QuasiProbGrid, phase: float) -> list[tuple[float, float]]:
    """Exact marginal <x|rho|x> of the quadrature x = Re(alpha e^{-i phase}) on the
    grid's axis, with rho the state the s = 0 grid was computed from.

    It is sum_mn rho_mn psi_m(x) psi_n(x) e^{i(n-m) phase}, with psi_n the Hermite
    functions of variance-1/4 quadratures (``_hermite_rows``), kept per axis. A phase that
    is not a finite real number raises TypeError (complex) or NonFiniteArgument.
    """
    if wigner.filter.as_s() != 0:
        raise DimensionMismatch("quadrature marginal requires an s = 0 grid")
    rho = wigner.source
    if rho is None or rho.n_modes != 1:
        raise DimensionMismatch("quadrature marginal needs the grid's single-mode source state")
    require_finite(phase := float(phase), "phase")  # float() raises TypeError for a complex
    d = effective_dim(rho.occupations[0])
    x = wigner.axis
    v = _rows(_hermite_rows, x, d).T * np.exp(-1j * phase * np.arange(d))[:, None]
    dens = (v * (rho.entries[:d, :d] @ v.conj())).sum(axis=0).real
    return list(zip(x.tolist(), dens.tolist()))
