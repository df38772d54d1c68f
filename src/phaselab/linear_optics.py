"""Quantum linear optics: two-mode beam splitter and the vacuum loss channel,
in both the Fock domain and the characteristic-function domain.
"""
from __future__ import annotations

from math import sqrt
from typing import Callable

import numpy as np
from scipy.linalg import expm, logm
from scipy.special import comb

from .classical_fields import BeamSplitterParams
from .errors import (
    CutoffTooSmall,
    DimensionMismatch,
    GainNotAllowed,
    TrustRadiusExceeded,
)
from .fock_core import DensityMatrix, annihilation, make_fock, tensor
from .phase_filters import FilterSpec, two_mode_charfunc, vacuum_charfunc
from .quasiprob_engine import CharFuncGrid, lattice


def beamsplitter_unitary(dim: int, bs: BeamSplitterParams) -> np.ndarray:
    """Fock-space unitary generating a3 = t a1 + r a2, a4 = -r* a1 + t* a2.

    Built as the exponential of the number-conserving bilinear generator,
    so unitarity holds by construction on the truncated space.
    """
    if dim < 2:
        raise CutoffTooSmall("beam splitter needs at least two Fock levels per mode")
    g = logm(bs.matrix())
    a1 = np.kron(annihilation(dim), np.eye(dim))
    a2 = np.kron(np.eye(dim), annihilation(dim))
    ops = (a1, a2)
    gen = np.zeros((dim * dim, dim * dim), dtype=complex)
    for j in range(2):
        for k in range(2):
            gen += g[j, k] * (ops[j].conj().T @ ops[k])
    return expm(gen)


def apply_beamsplitter(rho12: DensityMatrix, bs: BeamSplitterParams) -> DensityMatrix:
    """Schroedinger picture U rho U^dag on a two-mode state."""
    if rho12.n_modes != 2:
        raise DimensionMismatch("apply_beamsplitter expects a two-mode state")
    u = beamsplitter_unitary(rho12.dim, bs)
    out = u @ rho12.entries @ u.conj().T
    return DensityMatrix(rho12.dim, out, n_modes=2, leakage=rho12.leakage)


def partial_trace(rho12: DensityMatrix, keep: int) -> DensityMatrix:
    """Reduced state of one mode of a two-mode state (keep = 1 or 2)."""
    if rho12.n_modes != 2:
        raise DimensionMismatch("partial_trace expects a two-mode state")
    d = rho12.dim
    e = rho12.entries.reshape(d, d, d, d)
    if keep == 1:
        red = np.einsum("mpnp->mn", e)
    elif keep == 2:
        red = np.einsum("mpmq->pq", e)
    else:
        raise DimensionMismatch("keep must be 1 or 2")
    return DensityMatrix(d, red, leakage=rho12.leakage)


def attenuate(rho: DensityMatrix, eta: float, route: str = "kraus") -> DensityMatrix:
    """Vacuum loss channel with efficiency eta = |t|^2.

    route="kraus" composes the standard loss Kraus operators; route
    "beamsplitter" tensors a vacuum ancilla, applies the t = sqrt(eta)
    splitter and traces out the ancilla. Both routes agree entrywise.
    """
    if rho.n_modes != 1:
        raise DimensionMismatch("attenuate expects a single-mode state")
    if not 0 <= eta <= 1:
        raise GainNotAllowed(f"eta = {eta} must lie in [0, 1]")
    if route == "beamsplitter":
        joint = tensor(rho, make_fock(0, rho.cutoff))
        bs = BeamSplitterParams(sqrt(eta), sqrt(1 - eta))
        return partial_trace(apply_beamsplitter(joint, bs), keep=1)
    if route != "kraus":
        raise ValueError(f"unknown route {route!r}")
    d = rho.dim
    n = np.arange(d)
    out = np.zeros_like(rho.entries)
    for k in range(d):
        amp = np.sqrt(comb(n[k:], k) * eta ** (n[k:] - k) * (1 - eta) ** k)
        kraus = np.zeros((d, d))
        kraus[n[: d - k], n[k:]] = amp
        out += kraus @ rho.entries @ kraus.T
    return DensityMatrix(d, out, leakage=rho.leakage)


def pullback_charfunc(cf12: CharFuncGrid, bs: BeamSplitterParams) -> CharFuncGrid:
    """Phi_34(b3, b4) = Phi_12(t* b3 - r b4, r* b3 + t b4) on the same lattice.

    The underlying state is re-evaluated at the transformed arguments;
    interpolating the sampled grid would mask the equalities this map is
    used to test.
    """
    if cf12.n_modes != 2:
        raise DimensionMismatch("pullback expects a two-mode grid")
    if cf12.source is None:
        raise DimensionMismatch("pullback needs the grid's source state")
    _, betas = lattice(cf12.extent, len(cf12.axis))
    b3 = betas[:, :, None, None]
    b4 = betas[None, None, :, :]
    arg1 = bs.t.conjugate() * b3 - bs.r * b4
    arg2 = bs.r.conjugate() * b3 + bs.t * b4
    try:
        values = two_mode_charfunc(cf12.source, cf12.filter, arg1, arg2)
    except CutoffTooSmall as exc:
        raise TrustRadiusExceeded(str(exc)) from exc
    return CharFuncGrid(
        cf12.axis, values, cf12.filter, 2, cf12.source, cf12.extent, cf12.step
    )


def attenuate_charfunc(
    state_cf: Callable[[complex], complex],
    f: FilterSpec,
    t: complex,
    beta3,
):
    """Attenuated characteristic function Phi_1(t* b) Phi_vac(r* b).

    ``state_cf`` evaluates the filtered characteristic function of the input
    state; r is fixed real nonnegative from |t|^2 + |r|^2 = 1.
    """
    t = complex(t)
    if not abs(t) <= 1 + 1e-12:
        raise GainNotAllowed(f"|t| = {abs(t)} must lie in [0, 1]")
    r = sqrt(max(0.0, 1.0 - abs(t) ** 2))
    beta3 = np.asarray(beta3, dtype=complex)
    try:
        signal = state_cf(t.conjugate() * beta3)
    except CutoffTooSmall as exc:
        raise TrustRadiusExceeded(str(exc)) from exc
    out = np.asarray(signal) * vacuum_charfunc(f, r * beta3)
    return complex(out) if out.ndim == 0 else out
