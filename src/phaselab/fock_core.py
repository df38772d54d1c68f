"""Truncated Fock-space states and the ladder-operator algebra.

States are density matrices on the levels 0..N (dim = N + 1). Builders
renormalize after truncation and record the truncated probability mass as
``leakage``. Two-mode states live on the tensor basis |m> x |n| in row-major
order with mode 1 as the slow index.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from math import lgamma

import numpy as np
from scipy.special import eval_genlaguerre, gammainc, gammaln, xlogy

from .errors import CutoffTooSmall, DimensionMismatch, InvalidWeights, NonFiniteArgument

TRACE_TOL = 1e-10
HERM_TOL = 1e-12
PSD_TOL = 1e-10
LEAKAGE_TOL = 1e-10

# occupation below this (row/column max-abs) is treated as numerically empty
OCCUPATION_FLOOR = 1e-14


@dataclass(frozen=True)
class DensityMatrix:
    """Bosonic state on a truncated Fock space.

    dim is the per-mode number of levels; the matrix side is dim**n_modes.
    """

    dim: int
    entries: np.ndarray
    n_modes: int = 1
    leakage: float = 0.0

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionMismatch("dim must be a positive integer")
        if self.n_modes not in (1, 2):
            raise DimensionMismatch("only 1- and 2-mode states are supported")
        arr = np.array(self.entries, dtype=complex)
        side = self.dim**self.n_modes
        if arr.shape != (side, side):
            raise DimensionMismatch(
                f"expected a {side}x{side} matrix, got {arr.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def cutoff(self) -> int:
        return self.dim - 1


@dataclass(frozen=True)
class ValidationReport:
    trace_deviation: float
    hermiticity_deviation: float
    min_eigenvalue: float
    flags: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.flags


def require_finite(value, name: str) -> np.ndarray:
    """``value`` as a complex array (no copy if it is one); NaN or inf raises."""
    arr = np.asarray(value, dtype=complex)
    if not np.isfinite(arr).all():
        raise NonFiniteArgument(f"{name} must be finite")
    return arr


def annihilation(dim: int) -> np.ndarray:
    """Annihilation operator truncated to dim levels: a[m, n] = sqrt(n) d_{m,n-1}."""
    if dim < 1:
        raise DimensionMismatch("dim must be a positive integer")
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1).astype(complex)


def validate(rho: DensityMatrix) -> ValidationReport:
    """Report trace, Hermiticity and positivity deviations; never raises.
    A NaN or infinite entry gives the one flag "finite", as nothing else can be measured."""
    m = rho.entries
    if not np.isfinite(m).all():
        nan = float("nan")
        return ValidationReport(nan, nan, nan, ("finite",))
    trace_dev = abs(m.trace() - 1.0)
    herm_dev = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    herm = 0.5 * (m + m.conj().T)
    min_eig = float(np.linalg.eigvalsh(herm).min())
    flags = []
    if trace_dev > TRACE_TOL:
        flags.append("trace")
    if herm_dev > HERM_TOL:
        flags.append("hermiticity")
    if min_eig < -PSD_TOL:
        flags.append("positivity")
    return ValidationReport(float(trace_dev), herm_dev, min_eig, tuple(flags))


def _checked(rho: DensityMatrix) -> DensityMatrix:
    report = validate(rho)
    if not report.ok:
        raise DimensionMismatch(f"state fails validation: {report.flags}")
    return rho


def make_fock(n: int, cutoff: int) -> DensityMatrix:
    """Pure number state |n><n| on levels 0..cutoff."""
    if n < 0:
        raise CutoffTooSmall("photon number must be nonnegative")
    if n > cutoff:
        raise CutoffTooSmall(f"|{n}> does not fit below cutoff {cutoff}")
    m = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    m[n, n] = 1.0
    return _checked(DensityMatrix(cutoff + 1, m))


def coherent_vector(alpha, cutoff: int) -> np.ndarray:
    """Unnormalized coherent amplitudes c_n = e^{-|a|^2/2} a^n / sqrt(n!) per alpha, levels
    on a new last axis; in log-magnitude form nothing overflows, and xlogy(0, 0) = 0."""
    a = np.asarray(alpha, dtype=complex)[..., None]
    mag = np.abs(a)
    n = np.arange(cutoff + 1)
    log_mag = -mag**2 / 2 + xlogy(n, mag) - 0.5 * gammaln(n + 1)
    return np.exp(log_mag + 1j * n * np.angle(a))


def coherent_leakage(alpha, cutoff: int):
    """Poisson tail mass beyond the cutoff for a coherent state; elementwise over alpha."""
    out = gammainc(cutoff + 1, np.abs(np.asarray(alpha, dtype=complex)) ** 2)
    return float(out) if out.ndim == 0 else out


def make_coherent(alpha: complex, cutoff: int) -> DensityMatrix:
    """Coherent-state projector, renormalized after truncation."""
    require_finite(alpha, "alpha")
    leak = coherent_leakage(alpha, cutoff)
    if leak > LEAKAGE_TOL:
        raise CutoffTooSmall(
            f"coherent leakage {leak:.3e} beyond cutoff {cutoff} exceeds {LEAKAGE_TOL}"
        )
    c = coherent_vector(alpha, cutoff)
    c = c / np.linalg.norm(c)
    return _checked(DensityMatrix(cutoff + 1, np.outer(c, c.conj()), leakage=leak))


def make_thermal(nbar: float, cutoff: int) -> DensityMatrix:
    """Thermal state with mean occupation nbar, p_n proportional to (nbar/(1+nbar))^n."""
    if nbar < 0:
        raise InvalidWeights("nbar must be nonnegative")
    if nbar == 0:
        return make_fock(0, cutoff)
    q = nbar / (1.0 + nbar)
    leak = q ** (cutoff + 1)  # geometric tail mass
    if leak > LEAKAGE_TOL:
        raise CutoffTooSmall(
            f"thermal tail {leak:.3e} beyond cutoff {cutoff} exceeds {LEAKAGE_TOL}"
        )
    p = q ** np.arange(cutoff + 1)
    p /= p.sum()
    return _checked(DensityMatrix(cutoff + 1, np.diag(p).astype(complex), leakage=float(leak)))


def mix(states: list[DensityMatrix], weights: list[float]) -> DensityMatrix:
    """Convex combination of states on the same space."""
    if len(states) != len(weights) or not states:
        raise InvalidWeights("need one weight per state")
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
        raise InvalidWeights(f"weights must be nonnegative and sum to 1, got sum {w.sum()}")
    first = states[0]
    for s in states[1:]:
        if s.dim != first.dim or s.n_modes != first.n_modes:
            raise DimensionMismatch("mixture components live on different spaces")
    acc = sum(wi * s.entries for wi, s in zip(w, states))
    leak = float(np.dot(w, [s.leakage for s in states]))
    return _checked(DensityMatrix(first.dim, acc, first.n_modes, leak))


def tensor(rho1: DensityMatrix, rho2: DensityMatrix) -> DensityMatrix:
    """Two-mode product state, mode 1 as the slow tensor index."""
    if rho1.n_modes != 1 or rho2.n_modes != 1:
        raise DimensionMismatch("tensor expects two single-mode states")
    if rho1.dim != rho2.dim:
        raise DimensionMismatch("tensor factors must share the cutoff")
    return DensityMatrix(
        rho1.dim,
        np.kron(rho1.entries, rho2.entries),
        n_modes=2,
        leakage=rho1.leakage + rho2.leakage,
    )


def embed(rho: DensityMatrix, dim: int) -> DensityMatrix:
    """Pad a single-mode state with empty levels up to dim."""
    if rho.n_modes != 1:
        raise DimensionMismatch("embed supports single-mode states only")
    if dim < rho.dim:
        raise CutoffTooSmall("embedding dimension smaller than the state")
    m = np.zeros((dim, dim), dtype=complex)
    m[: rho.dim, : rho.dim] = rho.entries
    return DensityMatrix(dim, m, leakage=rho.leakage)


def level_occupations(rho: DensityMatrix) -> np.ndarray:
    """Per mode, the largest |entry| in any row or column that holds each level, shape
    (n_modes, dim): the one rule every effective dimension and top-level guard reads."""
    a = np.abs(rho.entries).reshape((rho.dim,) * (2 * rho.n_modes))
    axes = set(range(a.ndim))
    # mode i is axis i of the row index and axis n_modes + i of the column index
    return np.array([
        np.maximum(a.max(axis=tuple(axes - {i})), a.max(axis=tuple(axes - {rho.n_modes + i})))
        for i in range(rho.n_modes)
    ])


def effective_dim(occ: np.ndarray) -> int:
    """Highest level above OCCUPATION_FLOOR plus one, from one row of ``level_occupations``."""
    nz = np.nonzero(occ > OCCUPATION_FLOOR)[0]
    return int(nz[-1]) + 1 if nz.size else 1


def normal_moment(rho: DensityMatrix, m: int, n: int) -> complex:
    """Normally ordered moment Tr(rho (a^dag)^m a^n), exact in the truncated algebra."""
    if rho.n_modes != 1:
        raise DimensionMismatch("normal_moment supports single-mode states only")
    if m < 0 or n < 0:
        raise InvalidWeights("moment orders must be nonnegative")
    if m + n > rho.cutoff - 2:
        raise CutoffTooSmall(
            f"moment order {m}+{n} needs cutoff >= {m + n + 2}, have {rho.cutoff}"
        )
    a = annihilation(rho.dim)
    op = np.linalg.matrix_power(a.conj().T, m) @ np.linalg.matrix_power(a, n)
    return complex(np.trace(rho.entries @ op))


def displacement_element(m: int, n: int, beta: complex) -> complex:
    """Matrix element <m|D(beta)|n> of the displacement operator.

    Closed form via associated Laguerre polynomials; total in m, n >= 0.
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


def save_state(rho: DensityMatrix) -> dict:
    """JSON-ready dict with the fixed field names dim/n_modes/re/im/leakage."""
    return {
        "dim": rho.dim,
        "n_modes": rho.n_modes,
        "re": rho.entries.real.tolist(),
        "im": rho.entries.imag.tolist(),
        "leakage": rho.leakage,
    }


def load_state(obj: dict | str) -> DensityMatrix:
    """Inverse of save_state; the state must pass validate()."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    entries = np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)
    return _checked(
        DensityMatrix(
            int(obj["dim"]), entries, int(obj.get("n_modes", 1)), float(obj.get("leakage", 0.0))
        )
    )
