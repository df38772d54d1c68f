"""Closed forms the benchmark checks phaselab's outputs against.

Everything here is computed by the benchmark itself with NumPy and never
calls phaselab. Conventions follow the package: the transform kernel gives
the vacuum Wigner peak 2/pi, quadratures are x = (a + a^dag)/2 with vacuum
variance 1/4, and a beam splitter maps a1^dag -> t a1^dag - r* a2^dag,
a2^dag -> r a1^dag + t* a2^dag (so alpha3 = t alpha1 + r alpha2,
alpha4 = -r* alpha1 + t* alpha2). ``selfcheck.py`` evaluates each form a
second, independent way.
"""
from __future__ import annotations

from math import comb, factorial, lgamma, pi, sqrt

import numpy as np


def coherent_amplitudes(alpha: complex, dim: int) -> np.ndarray:
    """<n|alpha> = e^{-|a|^2/2} a^n / sqrt(n!) for n < dim, untruncated norm."""
    c = np.empty(dim, dtype=complex)
    c[0] = np.exp(-abs(alpha) ** 2 / 2)
    for n in range(1, dim):
        c[n] = c[n - 1] * alpha / sqrt(n)
    return c


def superposition_vector(coeffs, alphas, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Fock amplitudes (n < dim) of sum_j c_j |alpha_j>, normalised with the
    exact coherent-state overlaps before truncation, and the normalised c_j."""
    c = np.asarray(coeffs, dtype=complex)
    a = np.asarray(alphas, dtype=complex)
    gram = np.exp(
        -np.abs(a)[:, None] ** 2 / 2 - np.abs(a)[None, :] ** 2 / 2 + a[:, None].conj() * a[None, :]
    )
    norm = sqrt(float(np.real(c.conj() @ gram @ c)))
    return sum(cj * coherent_amplitudes(aj, dim) for cj, aj in zip(c, a)) / norm, c / norm


def geometric_populations(nbar: float, dim: int) -> np.ndarray:
    """Thermal populations nbar^n / (1 + nbar)^(n+1), untruncated."""
    q = nbar / (1.0 + nbar)
    return (1 - q) * q ** np.arange(dim)


def binomial_populations(n: int, eta: float) -> np.ndarray:
    """Photon-number distribution of |n> after loss with efficiency eta."""
    return np.array([comb(n, k) * eta**k * (1 - eta) ** (n - k) for k in range(n + 1)])


# ---------------------------------------------------------------- P_s and Q

def ps_coherent(alpha: np.ndarray, a0: complex, s: float) -> np.ndarray:
    return 2 / (pi * (1 - s)) * np.exp(-2 * np.abs(alpha - a0) ** 2 / (1 - s))


def ps_thermal(alpha: np.ndarray, nbar: float, s: float) -> np.ndarray:
    w = 2 * nbar + 1 - s
    return 2 / (pi * w) * np.exp(-2 * np.abs(alpha) ** 2 / w)


def ps_fock(alpha: np.ndarray, k: int, s: float) -> np.ndarray:
    """P_s of |k>: (2/(pi(1-s))) u^k L_k(4x/(1-s^2)) e^{-2x/(1-s)}, u = (1+s)/(s-1),
    expanded so that s = -1 (the Q function) needs no limit."""
    x = np.abs(alpha) ** 2
    poly = sum(
        comb(k, j) * (-1) ** (j + k) * (1 + s) ** (k - j) * (4 * x) ** j
        / ((1 - s) ** (k + j) * factorial(j))
        for j in range(k + 1)
    )
    return 2 / (pi * (1 - s)) * poly * np.exp(-2 * x / (1 - s))


def ps_diagonal(alpha: np.ndarray, populations, s: float) -> np.ndarray:
    return sum(p * ps_fock(alpha, k, s) for k, p in enumerate(populations) if p != 0)


def ps_superposition(alpha: np.ndarray, coeffs, alphas, s: float) -> np.ndarray:
    """P_s of sum_j c_j |a_j> (normalised coefficients): each dyad |a><b| gives
    (2/(pi(1-s))) <b|a> exp(-(2/(1-s)) (g* - b*)(g - a))."""
    out = np.zeros(np.shape(alpha), dtype=complex)
    for cj, aj in zip(coeffs, alphas):
        for cl, al in zip(coeffs, alphas):
            overlap = -abs(aj) ** 2 / 2 - abs(al) ** 2 / 2 + np.conj(al) * aj
            cross = (np.conj(alpha) - np.conj(al)) * (alpha - aj)
            out = out + cj * np.conj(cl) * np.exp(overlap - 2 / (1 - s) * cross)
    return (2 / (pi * (1 - s)) * out).real


# ---------------------------------------------------------------- marginals

def hermite_functions(x: np.ndarray, dim: int) -> np.ndarray:
    """<x|n> for x = (a + a^dag)/2, n < dim, by the stable three-term recurrence."""
    xi = sqrt(2) * np.asarray(x, dtype=float)
    h = np.empty((dim,) + xi.shape)
    h[0] = (2 / pi) ** 0.25 * np.exp(-xi**2 / 2)
    if dim > 1:
        h[1] = sqrt(2) * xi * h[0]
    for n in range(1, dim - 1):
        h[n + 1] = sqrt(2 / (n + 1)) * xi * h[n] - sqrt(n / (n + 1)) * h[n - 1]
    return h


def marginal_gaussian(x: np.ndarray, mean: float, variance: float) -> np.ndarray:
    return np.exp(-((x - mean) ** 2) / (2 * variance)) / sqrt(2 * pi * variance)


def marginal_diagonal(x: np.ndarray, populations) -> np.ndarray:
    h = hermite_functions(x, len(populations))
    return np.einsum("n,nx->x", np.asarray(populations, dtype=float), h**2)


def marginal_superposition(x: np.ndarray, coeffs, alphas, phase: float) -> np.ndarray:
    """|sum_j c_j <x_phase|a_j>|^2 with <x|a> = (2/pi)^(1/4) e^{-x^2 + 2ax - a^2/2 - |a|^2/2}
    and the quadrature rotated by `phase` (a -> a e^{-i phase})."""
    x = np.asarray(x, dtype=float)
    psi = np.zeros(x.shape, dtype=complex)
    for cj, aj in zip(coeffs, alphas):
        a = aj * np.exp(-1j * phase)
        psi += cj * (2 / pi) ** 0.25 * np.exp(-(x**2) + 2 * a * x - a**2 / 2 - abs(a) ** 2 / 2)
    return np.abs(psi) ** 2


# ---------------------------------------------------------- linear optics

def split_fock(n1: int, n2: int, t: complex, r: complex) -> np.ndarray:
    """Amplitudes of |k, N-k>, k = 0..N, in the splitter image of |n1, n2>:
    (t x - r* y)^n1 (r x + t* y)^n2 / sqrt(n1! n2!) with x, y the creators."""
    p1 = np.array([comb(n1, i) * t**i * (-np.conj(r)) ** (n1 - i) for i in range(n1 + 1)])
    p2 = np.array([comb(n2, j) * r**j * np.conj(t) ** (n2 - j) for j in range(n2 + 1)])
    poly = np.convolve(p1, p2)
    big_n = n1 + n2
    log_norm = np.array(
        [0.5 * (lgamma(k + 1) + lgamma(big_n - k + 1) - lgamma(n1 + 1) - lgamma(n2 + 1))
         for k in range(big_n + 1)]
    )
    return poly * np.exp(log_norm)


def split_diagonal(p1, p2, t: complex, r: complex, dim: int) -> np.ndarray:
    """Two-mode output of a product of diagonal states, on the blocks n1 + n2 < dim
    (heavier blocks do not fit the truncated space and are left empty)."""
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    for n1, q1 in enumerate(p1):
        for n2, q2 in enumerate(p2):
            big_n = n1 + n2
            if big_n >= dim or q1 * q2 == 0:
                continue
            amp = split_fock(n1, n2, t, r)
            idx = np.arange(big_n + 1) * dim + (big_n - np.arange(big_n + 1))
            out[np.ix_(idx, idx)] += q1 * q2 * np.outer(amp, amp.conj())
    return out


def lossy_state(rho: np.ndarray, t: complex) -> np.ndarray:
    """Reduced transmitted state of rho x |0> behind the splitter with
    transmittance t: rho'_jk = sum_l sqrt(C(j+l,l) C(k+l,l)) t^j t*^k (1-|t|^2)^l rho_{j+l,k+l}."""
    dim = rho.shape[0]
    loss = 1 - abs(t) ** 2
    out = np.zeros_like(rho, dtype=complex)
    j = np.arange(dim)
    for l in range(dim):
        m = dim - l
        w = np.sqrt(np.array([comb(a + l, l) for a in range(m)], dtype=float))
        out[:m, :m] += loss**l * np.outer(w, w) * rho[l:, l:]
    phase = t ** j
    return out * np.outer(phase, np.conj(phase))


def reduce_to_mode1(rho12: np.ndarray, dim: int) -> np.ndarray:
    """Partial trace over mode 2 (the fast tensor index)."""
    return np.einsum("mpnp->mn", rho12.reshape(dim, dim, dim, dim))
