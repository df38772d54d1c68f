"""Truncated Fock-space states and the ladder-operator algebra.

States are density matrices on the levels 0..N (dim = N + 1). Builders
renormalize after truncation and record the truncated probability mass as
``leakage``. Two-mode states live on the tensor basis |m> x |n| in row-major
order with mode 1 as the slow index.
"""
from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import isfinite, lgamma
from numbers import Integral, Real

import numpy as np

from ._shortest_repr import shortest_reprs
from .errors import CutoffTooSmall, DimensionMismatch, InvalidWeights, MalformedFile
from .errors import NonFiniteArgument

TRACE_TOL = 1e-10
HERM_TOL = 1e-12
PSD_TOL = 1e-10
LEAKAGE_TOL = 1e-10


@dataclass(frozen=True)
class DensityMatrix:
    """Bosonic state on a truncated Fock space.

    dim is the per-mode number of levels; the matrix side is dim**n_modes. A NaN or
    infinite entry or leakage raises NonFiniteArgument, so every state is finite; a
    leakage outside [0, 1] raises InvalidWeights.
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
            raise DimensionMismatch(f"expected a {side}x{side} matrix, got {arr.shape}")
        if not (np.isfinite(arr).all() and isfinite(self.leakage)):
            raise NonFiniteArgument("state entries and leakage must be finite")
        if not 0 <= self.leakage <= 1:
            raise InvalidWeights(f"leakage {self.leakage} is not a probability")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def cutoff(self) -> int:
        return self.dim - 1

    @cached_property
    def occupations(self) -> np.ndarray:
        """``level_occupations(self)``, read-only and computed on first use; the entries
        are a private read-only copy, so it cannot go stale."""
        occ = level_occupations(self)
        occ.setflags(write=False)
        return occ


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


def json_number(value, kind=Real):
    """``value`` if JSON read it as a number of ``kind`` (Integral or Real), else TypeError."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise TypeError(f"{value!r} is not {'an integer' if kind is Integral else 'a number'}")
    return value


def hermitian_mean(m: np.ndarray) -> np.ndarray:
    """(m + m^dag) / 2 in place, returned: m[j, i] is the exact conjugate of m[i, j]."""
    m += m.conj().T
    m *= 0.5
    return m


def validate(rho: DensityMatrix) -> ValidationReport:
    """Report trace, Hermiticity and positivity deviations; never raises."""
    m = rho.entries
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


@lru_cache(maxsize=16)
def log_factorials(count: int) -> np.ndarray:
    """log n! for n < count from ``math.lgamma``, read-only, built once per length."""
    table = np.array([lgamma(n + 1) for n in range(count)])
    table.setflags(write=False)
    return table


def _coherent_log_magnitudes(mag: np.ndarray, cutoff: int) -> np.ndarray:
    """log|c_n| = -|a|^2/2 + n log|a| - log(n!)/2 for levels 0..cutoff on a new last axis of
    |a|; at |a| = 0 the term n log|a| is 0 for n = 0 and -inf above it."""
    n = np.arange(cutoff + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        n_log_mag = np.where(n > 0, n * np.log(mag[..., None]), 0.0)
    return -mag[..., None] ** 2 / 2 + n_log_mag - 0.5 * log_factorials(cutoff + 1)


def coherent_vector(alpha, cutoff: int) -> np.ndarray:
    """Unnormalized coherent amplitudes c_n = e^{-|a|^2/2} a^n / sqrt(n!) per alpha, levels
    on a new last axis; in log-magnitude form nothing overflows, and c is exactly the vacuum
    at a = 0."""
    a = np.asarray(alpha, dtype=complex)
    log_mag = _coherent_log_magnitudes(np.abs(a), cutoff)
    return np.exp(log_mag + 1j * np.arange(cutoff + 1) * np.angle(a)[..., None])


def coherent_leakage(alpha, cutoff: int):
    """Poisson tail mass beyond the cutoff for a coherent state; elementwise over alpha.
    Read from |c_n|^2 = exp(2 log|c_n|) up to n = 2 cutoff + 40: the sum above the cutoff
    where the levels up to it hold more than half the mass, so a small tail keeps 1e-12
    relative precision, else one minus the mass up to the cutoff (1e-12 absolute). Exactly
    0 at a = 0."""
    p = np.exp(2 * _coherent_log_magnitudes(np.abs(np.asarray(alpha)), 2 * cutoff + 40))
    head, tail = p[..., : cutoff + 1].sum(axis=-1), p[..., cutoff + 1 :].sum(axis=-1)
    out = np.where(head > 0.5, tail, 1 - head)
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
    return _checked(DensityMatrix(cutoff + 1, hermitian_mean(np.outer(c, c.conj())), leakage=leak))


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
    # "not" so that a NaN weight fails the check
    if not (w >= 0).all() or not abs(w.sum() - 1.0) <= 1e-12:
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
    # the lost mass 1 - (1 - l1)(1 - l2), written to stay in [0, 1] and keep tiny leakages
    hi, lo = max(rho1.leakage, rho2.leakage), min(rho1.leakage, rho2.leakage)
    return DensityMatrix(
        rho1.dim, np.kron(rho1.entries, rho2.entries), n_modes=2, leakage=hi + lo * (1 - hi)
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
    """Last occupied level plus one, from one row of ``level_occupations``: every
    stored nonzero entry counts."""
    nz = np.flatnonzero(occ)
    return int(nz[-1]) + 1 if nz.size else 1


def normal_moment(rho: DensityMatrix, m: int, n: int) -> complex:
    """Normally ordered moment Tr(rho (a^dag)^m a^n), exact in the truncated algebra."""
    if rho.n_modes != 1:
        raise DimensionMismatch("normal_moment supports single-mode states only")
    return complex(_moments(rho.entries, rho.cutoff, m, n))


def _moments(e: np.ndarray, cutoff: int, m: int, n: int) -> np.ndarray:
    """``normal_moment`` of each b x b matrix of a stack e (..., b, b) of states whose levels
    b .. cutoff are empty; orders past cutoff - 2 are CutoffTooSmall."""
    if m < 0 or n < 0:
        raise InvalidWeights("moment orders must be nonnegative")
    if m + n > cutoff - 2:
        raise CutoffTooSmall(f"moment order {m}+{n} needs cutoff >= {m + n + 2}, have {cutoff}")
    i, k, coef = _moment_weights(e.shape[-1], m, n)
    # summed level by level, so that a stack and each of its states alone agree bit for bit
    terms = e[..., i, k] * coef
    return np.cumsum(terms, axis=-1)[..., -1] if len(i) else terms.sum(axis=-1)


@lru_cache(maxsize=256)
def _moment_weights(dim: int, m: int, n: int) -> tuple[np.ndarray, ...]:
    """Rows i, columns k and weights of Tr(rho (a^dag)^m a^n) = sum rho[i, k] weight on
    dim levels, built once per size and shared read-only."""
    # (a^dag)^m a^n |i> = sqrt(i! k!) / (i-n)! |k>, k = i - n + m; the truncated
    # a^dag sends it to zero when k >= dim
    i = np.arange(n, min(dim, dim + n - m))
    k = i - n + m
    lf = log_factorials(dim)
    coef = np.exp(0.5 * (lf[i] + lf[k]) - lf[i - n])
    for arr in (i, k, coef):
        arr.setflags(write=False)
    return i, k, coef


def save_state(rho: DensityMatrix) -> dict:
    """JSON-ready dict with the fixed field names dim/n_modes/re/im/leakage."""
    return {
        "dim": rho.dim,
        "n_modes": rho.n_modes,
        "re": rho.entries.real.tolist(),
        "im": rho.entries.imag.tolist(),
        "leakage": rho.leakage,
    }


def _matrix_chunks(a: np.ndarray) -> Iterator[str]:
    """``json.dumps(a.tolist())`` for a finite 2-D float array, one chunk per row, with
    the ``repr`` words of the distinct nonzero magnitudes made together by
    ``shortest_reprs``. A row's negative entries, -0.0 included, get their "-" as the row
    is made, so the signed words of one row at a time are held besides the vocabulary."""
    nz = a != 0
    mags, inv = np.unique(np.abs(a[nz]), return_inverse=True)
    words = np.array(["0.0", *shortest_reprs(mags)], dtype=object)
    code = np.zeros(a.shape, dtype=np.intp)
    code[nz] = inv + 1
    for i, (c, neg) in enumerate(zip(code, np.signbit(a))):
        row = words[c].tolist()
        for j in np.flatnonzero(neg).tolist():
            row[j] = "-" + row[j]
        yield ("], [" if i else "[[") + ", ".join(row)
    yield "]]"


def state_json_chunks(rho: DensityMatrix) -> Iterator[str]:
    """The text of ``json.dumps(save_state(rho))``, exactly, in chunks of about one matrix
    row; each distinct magnitude is formatted once, and the words of ``im`` are made after
    the last chunk of ``re``, so a caller that writes the chunks never holds the whole text."""
    yield f'{{"dim": {json.dumps(rho.dim)}, "n_modes": {json.dumps(rho.n_modes)}, "re": '
    yield from _matrix_chunks(rho.entries.real)
    yield ', "im": '
    yield from _matrix_chunks(rho.entries.imag)
    yield f', "leakage": {json.dumps(rho.leakage)}}}'


def load_state(obj: dict | str) -> DensityMatrix:
    """Inverse of save_state; the state must pass validate(). A dim or n_modes that is not
    an integer and a leakage that is not a number in [0, 1] are MalformedFile."""
    try:
        if isinstance(obj, str):
            obj = json.loads(obj)
        entries = np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)
        dim, n_modes = (json_number(v, Integral) for v in (obj["dim"], obj.get("n_modes", 1)))
        leakage = float(json_number(obj.get("leakage", 0.0)))
        rho = DensityMatrix(int(dim), entries, int(n_modes), leakage)
    except (KeyError, TypeError, ValueError, InvalidWeights) as exc:
        raise MalformedFile(f"not a state record: {type(exc).__name__}: {exc}") from None
    return _checked(rho)
