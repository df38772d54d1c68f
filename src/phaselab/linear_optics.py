"""Quantum linear optics: two-mode beam splitter and the vacuum loss channel,
in both the Fock domain and the characteristic-function domain.
"""
from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache
from itertools import islice
from math import comb, sqrt
from typing import Callable

import numpy as np

from .classical_fields import UNITARITY_TOL, BeamSplitterParams
from .errors import CutoffTooSmall, DimensionMismatch, GainNotAllowed
from .fock_core import LEAKAGE_TOL, DensityMatrix, effective_dim, embed, hermitian_mean
from .fock_core import require_finite
from .phase_filters import FilterSpec, two_mode_charfunc, vacuum_charfunc
from .quasiprob_engine import CharFuncGrid


def _blocks(dim: int, bs: BeamSplitterParams) -> Iterator[tuple[slice, np.ndarray]]:
    """The splitter on each total photon number N = 0 .. 2(dim-1), in that order.

    Yields one (positions, block) pair per N: ``positions`` is the strided slice of
    the positions k*dim + N-k = N + k(dim-1) of the two-mode states |k, N-k> inside
    the cutoff, ``block`` the elements <j, N-j|U|k, N-k> between them. U maps a_k^dag to
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
    yield slice(0, 1), full
    # sqrt(j) and M00, M10, M01, M11 times it, for j < 2 dim - 1: block N reads its
    # sqrt(j) and sqrt(N-j) columns as slices, forward and reversed
    root = np.sqrt(np.arange(2 * dim - 1))
    table = np.array([m[0, 0], m[1, 0], m[0, 1], m[1, 1]])[:, None, None] * root[:, None]
    for n in range(1, 2 * dim - 1):
        # q[a, b] = U_{N-1}[a-1, b-1], zero outside the block
        q = np.zeros((n + 2, n + 2), dtype=complex)
        q[1:-1, 1:-1] = full
        lo, hi = slice(0, n + 1), slice(1, n + 2)
        s, sn = root[: n + 1], root[n::-1]
        m00, m01 = table[0, : n + 1], table[2, : n + 1]
        m10, m11 = table[1, n::-1], table[3, n::-1]
        full = (s * (m00 * q[lo, lo] + m10 * q[hi, lo])
                + sn * (m01 * q[lo, hi] + m11 * q[hi, hi])) / n
        k0, k1 = max(0, n - dim + 1), min(n, dim - 1) + 1
        yield slice(n + k0 * (dim - 1), n + (k1 - 1) * (dim - 1) + 1, dim - 1), full[k0:k1, k0:k1]


def beamsplitter_unitary(dim: int, bs: BeamSplitterParams) -> np.ndarray:
    """Fock-space splitter a3 = t a1 + r a2, a4 = -r* a1 + t* a2 on dim levels per mode.

    The exact operator restricted to the cutoff, P U P, assembled from the
    number-conserving blocks. It is unitary on the blocks with N <= dim-1
    photons; on the blocks above them it drops the amplitude U sends past
    the cutoff, so it is not unitary on the whole truncated space.
    """
    u = np.zeros((dim * dim, dim * dim), dtype=complex)
    for span, block in _blocks(dim, bs):
        u[span, span] = block
    return u


def apply_beamsplitter(rho12: DensityMatrix, bs: BeamSplitterParams) -> DensityMatrix:
    """Schroedinger picture U rho U^dag on a two-mode state, truncated to the cutoff.

    The output's block pair (N, M) is U_N rho_NM U_M^dag, so the pairs where rho is all zero
    are skipped. Up to dim^3 / 30 occupied pairs (Fock and thermal pairs hold only diagonal
    ones) each is taken alone, else the occupied blocks' rows and then columns in two passes;
    the two routes cost the same near that count. The mean with the adjoint makes the result
    exactly Hermitian; its exact zeros are 0.0, never -0.0. The probability the splitter
    moves past the cutoff, which only the blocks with N >= dim can lose, is added to
    ``leakage``; above ``LEAKAGE_TOL`` it raises ``CutoffTooSmall``.
    """
    if rho12.n_modes != 2:
        raise DimensionMismatch("apply_beamsplitter expects a two-mode state")
    d = rho12.dim
    rho = rho12.entries
    # the state |i, j> at position i*d + j is in block N = i + j
    rows = np.zeros((2 * d - 1, d * d), dtype=bool)  # the columns block N's rows reach
    for i, nonzero in enumerate((rho != 0).reshape(d, d, d * d)):
        rows[i : i + d] |= nonzero
    occupied = np.zeros((2 * d - 1, 2 * d - 1), dtype=bool)
    for i, reach in enumerate(rows.reshape(-1, d, d).transpose(1, 0, 2)):
        occupied[:, i : i + d] |= reach
    occupied |= occupied.T  # each pair's mean reads its mirror
    live = np.flatnonzero(occupied.any(axis=1))
    spans, blocks = zip(*islice(_blocks(d, bs), live[-1] + 1 if live.size else 1))
    out = np.zeros_like(rho)
    if np.count_nonzero(occupied) <= d**3 // 30:
        prod = {(n, m): blocks[n] @ rho[spans[n], spans[m]] @ blocks[m].conj().T
                for n, m in np.argwhere(occupied)}
        for (n, m), block in prod.items():
            out[spans[n], spans[m]] = (block + prod[m, n].conj().T) * 0.5 + 0.0
    else:
        half = np.zeros_like(rho)
        for n in live:
            half[spans[n]] = blocks[n] @ rho[spans[n]]
        # the column pass as a row pass of the adjoint: U (U rho)^dag is the adjoint of
        # U rho U^dag, whose mean with its own adjoint is the same
        half = np.conjugate(half.T, order="C")
        for n in live:
            out[spans[n]] = blocks[n] @ half[spans[n]]
        out = hermitian_mean(out)
        out += 0.0  # the -0.0 the block products leave becomes 0.0; no other entry changes
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


def attenuate(rho: DensityMatrix, eta: float) -> DensityMatrix:
    """Vacuum loss channel with efficiency eta = |t|^2, the stack of one of ``_loss_blocks``:
    the splitter t = sqrt(eta) acting on rho and a vacuum ancilla, the ancilla traced out."""
    block = _loss_blocks(rho, np.array([float(eta)]))[0]
    return embed(DensityMatrix(len(block), block, leakage=rho.leakage), rho.dim)


def _loss_blocks(rho: DensityMatrix, etas: np.ndarray) -> np.ndarray:
    """The occupied b x b blocks of the loss channel's outputs at the efficiencies ``etas``
    (a 1-D array), shape (len(etas), b, b); b is the highest level rho stores plus one, and
    the channel leaves every level from b up empty.

    Applies the Kraus operators A_k |n+k> = w[k, n] |n>, w[k, n]^2 = C(n+k, k) eta^n
    (1-eta)^k, band by band for all etas at once: A_k rho A_k^T is outer(w[k], w[k]) times
    rho[k:, k:] in the top-left corner, O(b^3) per eta. An eta outside [0, 1] is
    GainNotAllowed; a non-finite block (over 1024 levels) is NonFiniteArgument.
    """
    if rho.n_modes != 1:
        raise DimensionMismatch("attenuate expects a single-mode state")
    if not ((0 <= etas) & (etas <= 1)).all():
        raise GainNotAllowed(f"eta = {etas[~((0 <= etas) & (etas <= 1))][0]} must lie in [0, 1]")
    b = effective_dim(rho.occupations[0])
    k, n, binoms = _loss_binomials(b)
    eta = etas[:, None, None]
    w = np.sqrt(binoms * eta**n * (1 - eta) ** k)
    e = rho.entries
    out = np.zeros((len(etas), b, b), dtype=complex)
    for j in range(b):
        out[:, : b - j, : b - j] += w[:, j, : b - j, None] * w[:, j, None, : b - j] * e[j:b, j:b]
    return require_finite(out, "the attenuated state")


@lru_cache(maxsize=64)
def _loss_binomials(bands: int) -> tuple[np.ndarray, ...]:
    """k (a column), n (a row) and the exact C(n+k, k) for n + k < bands, 0 elsewhere (inf
    past the float range: a channel on over 1024 levels is NonFiniteArgument): the parts of
    the Kraus weights that do not depend on eta, built once per size and shared read-only."""
    k, n = np.arange(bands)[:, None], np.arange(bands)
    binoms = np.zeros((bands, bands))
    for j in range(bands):
        exact = (comb(i + j, j) for i in range(bands - j))
        binoms[j, : bands - j] = [float(c) if c.bit_length() < 1024 else np.inf for c in exact]
    for arr in (k, n, binoms):
        arr.setflags(write=False)
    return k, n, binoms


def pullback_charfunc(cf12: CharFuncGrid, bs: BeamSplitterParams) -> CharFuncGrid:
    """Phi_34(b) = Phi_12(M^dag b) on the same lattice, M = bs.matrix(); for
    phi_U = 0 that is Phi_12(t* b3 - r b4, r* b3 + t b4).

    The underlying state is re-evaluated at the transformed arguments (its
    ``CutoffTooSmall`` propagates); interpolating the sampled grid would mask
    the equalities this map is used to test.
    """
    if cf12.ndim != 4:
        raise DimensionMismatch("pullback_charfunc expects a two-mode grid")
    if cf12.source is None:
        raise DimensionMismatch("pullback needs the grid's source state")
    betas = cf12.axis + 1j * cf12.axis[:, None]
    b3 = betas[:, :, None, None]
    b4 = betas[None, None, :, :]
    m = bs.matrix().conj()
    arg1 = m[0, 0] * b3 + m[1, 0] * b4
    arg2 = m[0, 1] * b3 + m[1, 1] * b4
    values = two_mode_charfunc(cf12.source, cf12.filter, arg1, arg2)
    return CharFuncGrid(cf12.axis, values, cf12.filter, cf12.source)


def attenuate_charfunc(state_cf: Callable[[complex], complex], f: FilterSpec, t: complex, beta3):
    """Attenuated characteristic function Phi_1(t* b) Phi_vac(r* b).

    ``state_cf`` evaluates the filtered characteristic function of the input
    state (its ``CutoffTooSmall`` propagates); r = sqrt(1 - |t|^2) is real nonnegative.
    """
    t = complex(t)
    if not abs(t) <= 1 + UNITARITY_TOL:
        raise GainNotAllowed(f"|t| = {abs(t)} must lie in [0, 1]")
    r = sqrt(max(0.0, 1.0 - abs(t) ** 2))
    beta3 = np.asarray(beta3, dtype=complex)
    out = np.asarray(state_cf(t.conjugate() * beta3)) * vacuum_charfunc(f, r * beta3)
    return complex(out) if out.ndim == 0 else out
