"""Classical monochromatic fields, weighted amplitude ensembles, and the
beam-splitter/attenuator maps they obey.

Ensembles are finite weighted point sets (delta mixtures): every classical
map here is linear in the density, so point masses exercise the formulas
exactly with no quadrature error.
"""
from __future__ import annotations

import cmath
import json
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import (
    DimensionMismatch,
    GainNotAllowed,
    InvalidWeights,
    MalformedFile,
    NonUnitaryBeamSplitter,
)
from .fock_core import json_number, require_count, require_finite

UNITARITY_TOL = 1e-12


@dataclass(frozen=True)
class BeamSplitterParams:
    """Complex transmittance/reflectance of a lossless beam splitter.

    The amplitude matrix is [[t, r], [-r*, t*]] e^{i phi_U}; the global
    phase is kept in the type but fixed to 0 by default.
    """

    t: complex
    r: complex
    phi_U: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "t", complex(self.t))
        object.__setattr__(self, "r", complex(self.r))
        object.__setattr__(self, "phi_U", float(self.phi_U))
        norm = abs(self.t) ** 2 + abs(self.r) ** 2
        # "not <=" so that NaN fails the check
        if not abs(norm - 1.0) <= UNITARITY_TOL or not np.isfinite(self.phi_U):
            raise NonUnitaryBeamSplitter(f"|t|^2 + |r|^2 = {norm}, phi_U = {self.phi_U}")

    def matrix(self) -> np.ndarray:
        u = np.array(
            [[self.t, self.r], [-self.r.conjugate(), self.t.conjugate()]],
            dtype=complex,
        )
        return u * cmath.exp(1j * self.phi_U)


@dataclass(frozen=True)
class ClassicalEnsemble:
    """Weighted point set of field amplitudes.

    ``amplitudes`` is a read-only complex array with one row per sample and
    one column per mode (1, or 2 for a joint two-mode ensemble); ``weights``
    is the matching read-only array of nonnegative weights summing to one.
    ``single`` and ``two_mode`` build one from (a, w) pairs or (a1, a2, w) triples.
    """

    amplitudes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if not w.size:
            raise InvalidWeights("ensemble needs at least one sample")
        amps = require_finite(np.array(self.amplitudes, dtype=complex), "amplitudes")
        if amps.ndim != 2 or amps.shape[1] not in (1, 2) or w.shape != amps.shape[:1]:
            raise DimensionMismatch(
                f"{amps.shape} amplitudes for {w.shape} weights: "
                "need one row per weight and 1 or 2 columns"
            )
        if not ((w >= 0).all() and abs(w.sum() - 1.0) <= 1e-12):
            raise InvalidWeights(f"weights must be nonnegative and sum to 1, got {w}")
        for name, arr in (("amplitudes", amps), ("weights", w)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_modes(self) -> int:
        return self.amplitudes.shape[1]

    @classmethod
    def single(cls, pairs) -> "ClassicalEnsemble":
        pairs = list(pairs)
        return cls([[a] for a, _ in pairs], [w for _, w in pairs])

    @classmethod
    def two_mode(cls, triples) -> "ClassicalEnsemble":
        triples = list(triples)
        return cls([[a1, a2] for a1, a2, _ in triples], [w for _, _, w in triples])


def classical_beamsplit(
    alpha1: complex, alpha2: complex, bs: BeamSplitterParams
) -> tuple[complex, complex]:
    """Output amplitudes (alpha3, alpha4) of the splitter."""
    out = bs.matrix() @ np.array([alpha1, alpha2], dtype=complex)
    return complex(out[0]), complex(out[1])


def ensemble_beamsplit(
    ens12: ClassicalEnsemble, bs: BeamSplitterParams
) -> ClassicalEnsemble:
    """Sample-wise image of the joint density under the splitter."""
    if ens12.n_modes != 2:
        raise DimensionMismatch("ensemble_beamsplit expects a two-mode ensemble")
    return ClassicalEnsemble(ens12.amplitudes @ bs.matrix().T, ens12.weights)


def classical_attenuate(ens: ClassicalEnsemble, t: complex) -> ClassicalEnsemble:
    """Scale every amplitude by the transmittance t, |t| <= 1; t = 0 gives the origin, 0.0
    in both parts."""
    if ens.n_modes != 1:
        raise DimensionMismatch("classical_attenuate expects a single-mode ensemble")
    t = complex(t)
    if not abs(t) <= 1 + UNITARITY_TOL:
        raise GainNotAllowed(f"|t| = {abs(t)} must lie in [0, 1]")
    # 0j * (-1 + 0.5j) is -0.0 + 0j; adding 0.0 makes every exact zero +0.0
    return ClassicalEnsemble(t * ens.amplitudes + 0.0, ens.weights)


def classical_moments(ens: ClassicalEnsemble, m: int, n: int) -> complex:
    """Weighted moment sum_i w_i (a_i^*)^m a_i^n."""
    if ens.n_modes != 1:
        raise DimensionMismatch("classical_moments expects a single-mode ensemble")
    m, n = (require_count(v, 0, "moment orders must be nonnegative integers") for v in (m, n))
    a = ens.amplitudes[:, 0]
    return complex(ens.weights @ (a.conj() ** m * a**n))


def save_ensemble(ens: ClassicalEnsemble) -> dict:
    """JSON-ready dict: per sample "re"/"im" (one mode) or "re1"/"im1"/"re2"/"im2"
    (two modes, with "n_modes": 2 at the top level), then the weight "w"."""
    suffixes = ("",) if ens.n_modes == 1 else ("1", "2")
    columns = {}
    for suffix, a in zip(suffixes, ens.amplitudes.T):
        columns["re" + suffix], columns["im" + suffix] = a.real.tolist(), a.imag.tolist()
    columns["w"] = ens.weights.tolist()
    samples = [dict(zip(columns, row)) for row in zip(*columns.values())]
    return {"samples": samples} if ens.n_modes == 1 else {"samples": samples, "n_modes": 2}


def load_ensemble(obj: dict | str) -> ClassicalEnsemble:
    """Inverse of save_ensemble; without "n_modes", samples that carry "re1" are two-mode."""
    try:
        if isinstance(obj, str):
            obj = json.loads(obj)
        samples, n_modes = obj["samples"], json_number(obj.get("n_modes", 1), Integral)
        if n_modes not in (1, 2):
            raise ValueError(f"n_modes {n_modes} is not 1 or 2")
        suffixes = ("1", "2") if n_modes == 2 or (samples and "re1" in samples[0]) else ("",)
        amps = [[complex(json_number(s["re" + c]), json_number(s["im" + c])) for c in suffixes]
                for s in samples]
        weights = [float(json_number(s["w"])) for s in samples]
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedFile(f"not an ensemble record: {type(exc).__name__}: {exc}") from None
    return ClassicalEnsemble(amps, weights)
