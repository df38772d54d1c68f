"""Shared helpers for the test suite."""
from functools import cache
from math import isqrt, lgamma, sqrt
from os.path import commonprefix

import numpy as np
from scipy.special import eval_genlaguerre

from phaselab import fock_core as fc
from phaselab._state_text import FILL, record_table
from phaselab.errors import InvalidWeights
from phaselab import phase_filters as pf
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


def splitter_input(kind):
    """One of the four two-mode states at cutoff 20 that the benchmark splits: "coherent",
    "cat_vacuum", "thermal" or "fock"; with the splitter it is split on."""
    from phaselab.classical_fields import BeamSplitterParams

    if kind == "coherent":
        pair = fc.make_coherent(0.79 * np.exp(0.4j), 20), fc.make_coherent(0.785j, 20)
    elif kind == "cat_vacuum":
        a = 0.9 * np.exp(0.7j)
        v = fc.coherent_vector(a, 20) + np.exp(0.9j) * fc.coherent_vector(-a, 20)
        v /= np.linalg.norm(v)
        pair = fc.DensityMatrix(21, fc.hermitian_mean(np.outer(v, v.conj()))), fc.make_fock(0, 20)
    elif kind == "thermal":
        pair = fc.make_thermal(0.12, 20), fc.make_thermal(0.18, 20)
    else:
        pair = fc.make_fock(3, 20), fc.make_fock(5, 20)
    return fc.tensor(*pair), BeamSplitterParams(0.6 * np.exp(0.3j), 0.8 * np.exp(1.1j))


@cache
def splitter_output(kind):
    """The 441x441 ``apply_beamsplitter`` output of ``splitter_input(kind)``; built once."""
    from phaselab.linear_optics import apply_beamsplitter

    return apply_beamsplitter(*splitter_input(kind))


def rotation_closed(points):
    """Whether flat points read as a square mesh m with np.rot90(m) = i m, the point sets
    whose four-point rotation orbits the band kernel evaluates once."""
    n = isqrt(points.size)
    mesh = points.reshape(n, n) if n * n == points.size else None
    return mesh is not None and np.array_equal(np.rot90(mesh), 1j * mesh)


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


def shortest_reprs(mags):
    """``[repr(x) for x in mags]`` for a 1-D array of positive finite doubles, read from
    ``record_table``: each record's fill bytes deleted and its ", " split off. Row 0, 0.0,
    is checked and dropped."""
    words = record_table(mags).tobytes().translate(None, FILL).decode("ascii").split(", ")
    assert words[0] == "0.0" and words[-1] == "", words[:1] + words[-1:]
    return words[1:-1]


def assert_same_text(got: str, want: str):
    """got == want; a failure shows where the texts part, not a diff of megabytes."""
    if got != want:
        i = len(commonprefix([got, want]))
        raise AssertionError(f"texts part at {i}: {got[i - 30 : i + 30]!r} != {want[i - 30 : i + 30]!r}")


def spy(monkeypatch, module, name, record):
    """Wrap ``module.name`` so that each call appends ``record(*args)`` to the list returned,
    then runs the original."""
    seen, inner = [], getattr(module, name)

    def wrapper(*args):
        seen.append(record(*args))
        return inner(*args)

    monkeypatch.setattr(module, name, wrapper)
    return seen


def band_terms(e, points, s=None):
    """(sign, terms) of ``symmetric_charfunc`` (s None, sign -1) or ``quasiprob_pointwise`` at
    s (sign +1, before the 1/pi) of the Hermitian part h of the square matrix e at the flat
    points, one ``_laguerre_band`` recurrence per band and every point on its own: terms[k]
    is w = sum_n h[n, n+k] pref (c p)^k R_n^(k), with R_n^(k) = q^n sqrt(n! / (n+k)!)
    L_n^(k)(x) at y = q x = scale |p|^2, and band k adds w + sign^k conj(w)."""
    x = np.abs(points) ** 2
    if s is None:
        pref, c, sign, scale, q = np.exp(-x / 2), 1.0, -1, 1.0, 1.0
    else:
        pref, c, sign = (2 / (1 - s)) * np.exp(-2 * x / (1 - s)), 2 / (1 - s), 1
        scale, q = -4 / (1 - s) ** 2, (s + 1) / (s - 1)
    h = (e + e.conj().T) / 2
    terms, first = [], 1.0
    for k in range(len(e)):
        first = first / sqrt(k) if k else first
        rows = pf._laguerre_band(k, len(e) - k, scale * x, first, q)
        terms.append(pref * (c * points) ** k * (h.diagonal(k) @ rows))
    return sign, terms


def band_trace_per_band(e, points, s=None):
    """The sum of ``band_terms``: the oracle for the band kernel's folds, orbits and class
    sums."""
    sign, terms = band_terms(e, points, s)
    total = np.zeros(points.size, dtype=complex)
    for k, w in enumerate(terms):
        total += w if k == 0 else w + sign**k * w.conj()
    return total if s is None else total.real / np.pi


def evaluation_order_bound(e, points, s=None):
    """At each flat point, the most that two evaluations of the band kernel on the same band
    sums can differ by, to first order in the unit roundoff u: 2 gamma_N sum_k |z_k|.

    The kernel sums z_k = 2 w_k (w_0 for k = 0; the terms of ``band_terms``, over pi for
    T) by Horner in (c p)^4 per class k mod 4. A rotation orbit read from one point and the
    same points read one at a time share the band sums at each radius, bit for bit, and
    differ only in the powers and the Horner steps, computed at p or at i^t p. Each is
    within gamma_N sum_k |z_k| of the exact sum of those z_k, with gamma_N = N e / (1 - N e),
    e = sqrt(5) u the bound of one complex product (one sum or real scaling is within u),
    and N the roundings that z_k, k = 4m + j, passes through: 9m for m products by (c p)^4
    (7 in forming it from c p, one in the product) and m sums, 2j for (c p)^j and its
    product, 2 for the sums that join the classes and 1 for the 1/pi; at most
    N = 9 (d - 1) / 4 + 3 on d levels. As no bound on sum_k |z_k| relative to the value
    holds where the bands cancel, none relative to the peak does either."""
    sign, terms = band_terms(e, points, s)
    size = sum(np.abs(w) * (1 if k == 0 else 2) for k, w in enumerate(terms))
    n = 9 * (len(e) - 1) / 4 + 3
    eps = np.sqrt(5) * np.finfo(float).eps / 2
    return 2 * n * eps / (1 - n * eps) * (size if s is None else size / np.pi)


def quasiprob_mpmath(e, alpha, s, dps=30):
    """(1/pi) Tr(h T(alpha, s)) for the Hermitian part h of the square matrix e and -1 <= s <= 0,
    from mpmath's own Laguerre polynomials at ``dps`` digits: the oracle for the kernel's
    rounding. <n+k|T|n> = (2/(1-s)) e^{-2|a|^2/(1-s)} (2a/(1-s))^k q^n sqrt(n!/(n+k)!)
    L_n^(k)(4|a|^2/(1-s^2)), q = (s+1)/(s-1); at s = -1 (q = 0), q^n L_n^(k)(4|a|^2/(1-s^2))
    is its limit |a|^(2n) / n!, the term of L_n^(k) of highest degree."""
    import mpmath as mp

    with mp.workdps(dps):
        a, s = mp.mpc(complex(alpha)), mp.mpf(s)
        x = abs(a) ** 2
        pref, c, q = 2 / (1 - s) * mp.exp(-2 * x / (1 - s)), 2 * a / (1 - s), (s + 1) / (s - 1)
        total = mp.mpf(0)
        for k in range(len(e)):
            band = pref * c**k
            for n in range(len(e) - k):
                rows = (x**n / mp.factorial(n) if s == -1
                        else q**n * mp.laguerre(n, k, 4 * x / (1 - s * s)))
                element = band * mp.sqrt(mp.factorial(n) / mp.factorial(n + k)) * rows
                h = (mp.mpc(complex(e[n, n + k])) + mp.conj(mp.mpc(complex(e[n + k, n])))) / 2
                total += (h * element).real * (1 if k == 0 else 2)
        return float(total / mp.pi)
