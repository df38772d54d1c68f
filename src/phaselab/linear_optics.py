"""Quantum linear optics: two-mode beam splitter and the vacuum loss channel,
in both the Fock domain and the characteristic-function domain.
"""
from __future__ import annotations

from math import sqrt
from typing import Callable

import numpy as np
from scipy.special import binom

from .classical_fields import BeamSplitterParams
from .errors import (
    CutoffTooSmall,
    DimensionMismatch,
    GainNotAllowed,
    TrustRadiusExceeded,
)
from .fock_core import LEAKAGE_TOL, DensityMatrix, make_fock, tensor
from .phase_filters import FilterSpec, two_mode_charfunc, vacuum_charfunc
from .quasiprob_engine import CharFuncGrid, lattice


def _blocks(dim: int, bs: BeamSplitterParams) -> list[tuple[np.ndarray, np.ndarray]]:
    """The splitter on each total photon number N = 0 .. 2(dim-1).

    Returns one (indices, block) pair per N: ``indices`` are the positions
    k*dim + N-k of the two-mode states |k, N-k> inside the cutoff, ``block``
    the elements <j, N-j|U|k, N-k> between them. U maps a_k^dag to
    sum_j M[j, k] a_j^dag (M = bs.matrix()), so the full (N+1)-square block
    is Sym^N of M and phi_U enters it as e^{i N phi_U}. From
    N |k, N-k> = sqrt(k) a1^dag |k-1, N-k> + sqrt(N-k) a2^dag |k, N-k-1>,

        N U_N[j, k] = sqrt(k)   (M00 sqrt(j) U_{N-1}[j-1, k-1] + M10 sqrt(N-j) U_{N-1}[j, k-1])
                    + sqrt(N-k) (M01 sqrt(j) U_{N-1}[j-1, k]   + M11 sqrt(N-j) U_{N-1}[j, k]).

    The recurrence averages four neighbours instead of dividing by one
    (the one-term recurrence in a1^dag alone loses three digits by N = 40),
    so its elements stay within a few ulp of the exact ones.
    """
    m = bs.matrix()
    full = np.ones((1, 1), dtype=complex)
    blocks = [(np.zeros(1, dtype=int), full)]
    for n in range(1, 2 * dim - 1):
        # q[a, b] = U_{N-1}[a-1, b-1], zero outside the block
        q = np.zeros((n + 2, n + 2), dtype=complex)
        q[1:-1, 1:-1] = full
        lo, hi = slice(0, n + 1), slice(1, n + 2)
        s = np.sqrt(np.arange(n + 1))
        sn = s[::-1]
        full = (
            s * (m[0, 0] * s[:, None] * q[lo, lo] + m[1, 0] * sn[:, None] * q[hi, lo])
            + sn * (m[0, 1] * s[:, None] * q[lo, hi] + m[1, 1] * sn[:, None] * q[hi, hi])
        ) / n
        k0, k1 = max(0, n - dim + 1), min(n, dim - 1) + 1
        k = np.arange(k0, k1)
        blocks.append((k * dim + n - k, full[k0:k1, k0:k1]))
    return blocks


def beamsplitter_unitary(dim: int, bs: BeamSplitterParams) -> np.ndarray:
    """Fock-space splitter a3 = t a1 + r a2, a4 = -r* a1 + t* a2 on dim levels per mode.

    The exact operator restricted to the cutoff, P U P, assembled from the
    number-conserving blocks. It is unitary on the blocks with N <= dim-1
    photons; on the blocks above them it drops the amplitude U sends past
    the cutoff, so it is not unitary on the whole truncated space.
    """
    u = np.zeros((dim * dim, dim * dim), dtype=complex)
    for idx, block in _blocks(dim, bs):
        u[np.ix_(idx, idx)] = block
    return u


def apply_beamsplitter(rho12: DensityMatrix, bs: BeamSplitterParams) -> DensityMatrix:
    """Schroedinger picture U rho U^dag on a two-mode state, truncated to the cutoff.

    Applied block by block: a pass over the rows of each photon-number
    block, then one over its columns. The probability the splitter moves
    past the cutoff, which only the blocks with N >= dim can lose, is added
    to ``leakage``; above ``LEAKAGE_TOL`` it raises ``CutoffTooSmall``.
    """
    if rho12.n_modes != 2:
        raise DimensionMismatch("apply_beamsplitter expects a two-mode state")
    d = rho12.dim
    rho = rho12.entries
    blocks = _blocks(d, bs)
    half = np.empty_like(rho)
    for idx, block in blocks:
        half[idx] = block @ rho[idx]
    out = np.empty_like(rho)
    for idx, block in blocks:
        out[:, idx] = half[:, idx] @ block.conj().T
    incomplete = np.add.outer(np.arange(d), np.arange(d)).ravel() >= d
    lost = max(0.0, float((rho.diagonal() - out.diagonal())[incomplete].real.sum()))
    if lost > LEAKAGE_TOL:
        raise CutoffTooSmall(
            f"the splitter moves {lost:.3e} of the probability past cutoff {rho12.cutoff}"
        )
    return DensityMatrix(d, out, n_modes=2, leakage=rho12.leakage + lost)


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

    route="kraus" applies the Kraus operators A_k |n+k> = w[k, n] |n>, w[k, n]^2 =
    C(n+k, k) eta^n (1-eta)^k, band by band: A_k rho A_k^T is outer(w[k], w[k]) times
    rho[k:, k:] in the top-left corner, O(dim^3) in all. route="beamsplitter" tensors
    a vacuum ancilla, applies the t = sqrt(eta) splitter and traces out the ancilla.
    Both routes agree entrywise.
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
    k, n = np.arange(d)[:, None], np.arange(d)
    w = np.sqrt(binom(n + k, k) * eta**n * (1 - eta) ** k)
    out = np.zeros_like(rho.entries)
    for j in range(d):
        out[: d - j, : d - j] += np.outer(w[j, : d - j], w[j, : d - j]) * rho.entries[j:, j:]
    return DensityMatrix(d, out, leakage=rho.leakage)


def pullback_charfunc(cf12: CharFuncGrid, bs: BeamSplitterParams) -> CharFuncGrid:
    """Phi_34(b) = Phi_12(M^dag b) on the same lattice, M = bs.matrix(); for
    phi_U = 0 that is Phi_12(t* b3 - r b4, r* b3 + t b4).

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
    m = bs.matrix().conj()
    arg1 = m[0, 0] * b3 + m[1, 0] * b4
    arg2 = m[0, 1] * b3 + m[1, 1] * b4
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
