"""Shared helpers for the test suite."""
from math import lgamma

import numpy as np
from scipy.special import eval_genlaguerre

from phaselab import fock_core as fc
from phaselab.errors import InvalidWeights
from phaselab.quasiprob_engine import lattice


def annihilation(dim):
    """Annihilation operator truncated to dim levels, a[m, n] = sqrt(n) d_{m,n-1}: the
    ladder-operator oracle for ``normal_moment`` and the displacement elements."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1).astype(complex)


def displacement_element(m: int, n: int, beta: complex) -> complex:
    """Matrix element <m|D(beta)|n> of the displacement operator.

    Closed form via associated Laguerre polynomials; total in m, n >= 0. The oracle
    for the band kernel's displacement elements.
    """
    if m < 0 or n < 0:
        raise InvalidWeights("Fock indices must be nonnegative")
    beta = complex(beta)
    if m < n:
        m, n = n, m
        beta = -beta.conjugate()
    x = abs(beta) ** 2
    pref = np.exp(0.5 * (lgamma(n + 1) - lgamma(m + 1)) - x / 2)
    return complex(pref * beta ** (m - n) * eval_genlaguerre(n, m - n, x))


def random_density(dim, occupied=None, rng=None):
    """Random full-rank state supported on the lowest `occupied` levels,
    embedded with headroom up to `dim`."""
    rng = rng or np.random.default_rng(0)
    occupied = occupied or dim
    g = rng.normal(size=(occupied, occupied)) + 1j * rng.normal(size=(occupied, occupied))
    m = g @ g.conj().T
    m /= m.trace()
    rho = fc.DensityMatrix(occupied, m)
    return fc.embed(rho, dim) if dim > occupied else rho


def even_cat(alpha, occupied, dim):
    """(|alpha> + |-alpha>) normalised on its lowest `occupied` levels, embedded with
    headroom up to `dim`. Every odd level is exactly empty, so the state holds only
    the even bands k = m - n."""
    c = np.ones(occupied, dtype=complex)
    for n in range(1, occupied):
        c[n] = c[n - 1] * alpha / np.sqrt(n)
    c[1::2] = 0.0
    c /= np.linalg.norm(c)
    rho = fc.DensityMatrix(occupied, np.outer(c, c.conj()))
    return fc.embed(rho, dim) if dim > occupied else rho


def random_splitter(rng):
    """A splitter drawn uniformly on the unitarity manifold, with a uniform global phase."""
    from phaselab.classical_fields import BeamSplitterParams

    theta, phi, phi_u = rng.uniform(0.0, [np.pi / 2, 2 * np.pi, 2 * np.pi])
    return BeamSplitterParams(np.cos(theta), np.exp(1j * phi) * np.sin(theta), phi_u)


def random_coherent_ensemble(rng, n_samples=4, radius=1.5):
    from phaselab.classical_fields import ClassicalEnsemble

    amps = radius * np.sqrt(rng.uniform(size=n_samples)) * np.exp(
        2j * np.pi * rng.uniform(size=n_samples)
    )
    w = rng.uniform(0.1, 1.0, size=n_samples)
    w /= w.sum()
    return ClassicalEnsemble.single(zip(amps, w))


def ancilla_attenuate(rho, eta):
    """The loss channel as a t = sqrt(eta) splitter on rho and a vacuum ancilla,
    with the ancilla traced out: the oracle for ``attenuate``."""
    from phaselab.classical_fields import BeamSplitterParams
    from phaselab.linear_optics import apply_beamsplitter, partial_trace

    joint = fc.tensor(rho, fc.make_fock(0, rho.cutoff))
    bs = BeamSplitterParams(np.sqrt(eta), np.sqrt(1 - eta))
    return partial_trace(apply_beamsplitter(joint, bs), keep=1)


def repeated_radii(extent, points, seed):
    """Point sets on which many points share |beta|: a square lattice symmetric
    about 0, its points shuffled with half of them repeated, and +-beta pairs."""
    grid = lattice(extent, points)[1]
    mixed = np.random.default_rng(seed).permutation(
        np.concatenate([grid.ravel(), grid.ravel()[: grid.size // 2 + 1]])
    )
    return [grid, mixed, np.stack([mixed, -mixed])]


def figure3_csv_per_eta(eta_steps, cutoff):
    """The text of ``phaselab figure3``, made one efficiency at a time through the public
    one-state functions: the oracle for the stacked efficiency sweep."""
    from phaselab.linear_optics import attenuate
    from phaselab.nonclassicality import wigner_origin_analytic
    from phaselab.quasiprob_engine import quasiprob_pointwise

    photon = fc.make_fock(1, cutoff)
    lines = ["eta,wigner_origin_numeric,wigner_origin_analytic,g2_minus_g1sq"]
    for eta in np.linspace(0.0, 1.0, eta_steps).tolist():
        rho = attenuate(photon, eta)
        g1 = fc.normal_moment(rho, 1, 1).real
        g2 = fc.normal_moment(rho, 2, 2).real
        row = (eta, quasiprob_pointwise(rho, 0.0, 0.0), wigner_origin_analytic(eta), g2 - g1**2)
        lines.append(",".join(f"{v:.15g}" for v in row))
    return "\n".join(lines) + "\n"
