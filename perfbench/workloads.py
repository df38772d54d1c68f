"""The three workloads of the benchmark.

A workload hands out rounds of operations. Round r draws its inputs from
``numpy.random.default_rng([seed, r])``, so inputs depend on the seed and the
round only, never on timing. Every round holds the same kinds of operation in
the same order, so a run is a whole number of identical-looking rounds.

An operation has a ``run`` part, the calls into phaselab that are timed, and
a ``check`` part, untimed, that compares the output with a closed form from
``closed_forms`` or a property the method must have. ``check`` returns the
worst error relative to the reference's peak magnitude and raises
``CheckFailed`` when an output is wrong.

Operations marked ``probe`` exercise a known fault of the program on fixed
inputs. They are counted in ``attempted`` and ``failed`` but kept out of the
latency figures, so that mending the fault does not move them.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import closed_forms as cfm

SQ2 = 1 / math.sqrt(2)


class CheckFailed(Exception):
    pass


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], float]
    probe: bool = False


def require(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


def rel_err(got, ref, what: str, tol: float) -> float:
    got = np.asarray(got)
    ref = np.asarray(ref)
    require(got.shape == ref.shape, f"{what}: shape {got.shape} != {ref.shape}")
    peak = float(np.max(np.abs(ref))) or 1.0  # an all-zero reference: absolute error
    err = float(np.max(np.abs(got - ref))) / peak
    require(err <= tol, f"{what}: error {err:.3e} > {tol:.0e}")
    return err


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """phaselab.cli.main in-process; returns (exit code, captured stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, err.getvalue()


def require_ok(result: tuple[int, str], what: str):
    code, err = result
    require(code == 0, f"{what} exited {code}: {err.strip()[:200]}")


def write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def state_json(entries: np.ndarray) -> dict:
    """A single-mode state in the package's file format."""
    return {"dim": entries.shape[0], "n_modes": 1, "re": entries.real.tolist(),
            "im": entries.imag.tolist(), "leakage": 0.0}


def read_state(path: str) -> np.ndarray:
    with open(path) as fh:
        obj = json.load(fh)
    return np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)


def cstr(z: complex) -> str:
    return str(complex(z))


# ------------------------------------------------------------------ filters

def draw_filter(rng, kind: str) -> tuple[dict, float | None]:
    """A filter as the CLI's JSON and, when it is in the Gaussian family,
    its s value. Kinds: "s1" (s = 1), "s" (s in [-1, 0.9]), "series_s"
    (the single term c_11 |b|^2, equal to s = 2 c_11), "series_s1"
    (c_11 = 1/2, which is s = 1) and "series" (a non-Gaussian term plus
    an optional c_11)."""
    if kind == "s1":
        return {"s": 1.0}, 1.0
    if kind == "s":
        s = float(rng.uniform(-1.0, 0.9))
        return {"s": s}, s
    if kind in ("series_s", "series_s1"):
        c = 0.5 if kind == "series_s1" else float(rng.uniform(-0.5, 0.45))
        return {"coeffs": [{"k": 1, "l": 1, "re": c, "im": 0.0}]}, 2 * c
    k, l = [(1, 0), (0, 1), (2, 0), (0, 2), (2, 1), (1, 2), (3, 0)][rng.integers(7)]
    mag = rng.uniform(0.1, 0.4)
    c = mag * np.exp(1j * rng.uniform(0, 2 * np.pi))
    terms = [{"k": k, "l": l, "re": float(c.real), "im": float(c.imag)}]
    terms.append({"k": 1, "l": 1, "re": float(rng.uniform(-0.5, 0.5)), "im": 0.0})
    return {"coeffs": terms}, None


# ------------------------------------------------------------- wigner_curve

class WignerCurve:
    """figure3 at a seeded size and cutoff, then verify --theorem 2."""

    name = "wigner_curve"
    FILTER_KINDS = ("s1", "s", "series_s1", "series")
    MAIN_OPS = len(FILTER_KINDS)
    ROUND_SECONDS = 2.7  # nominal, 2-core reference machine
    ORIGIN_TOL = 1e-6

    def __init__(self, prog, workdir: Path, seed: int):
        self.cli, self.dir, self.seed = prog.cli, workdir, seed

    def round(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, r])
        return [self._op(rng, r, i, kind) for i, kind in enumerate(self.FILTER_KINDS)]

    def _op(self, rng, r, i, kind) -> Op:
        steps = 2 * int(rng.integers(47, 54)) + 1  # odd, 95..107
        cutoff = int(rng.integers(16, 25))
        filt, s = draw_filter(rng, kind)
        tag = f"w{r}_{i}"
        fpath = write_json(self.dir / f"{tag}_filter.json", filt)
        curve = str(self.dir / f"{tag}_curve.csv")
        verdict = str(self.dir / f"{tag}_verdict.json")
        cli = self.cli

        def run():
            a = run_cli(cli, ["figure3", "--eta-steps", steps, "--cutoff", cutoff, "--out", curve])
            b = run_cli(cli, ["verify", "--theorem", 2, "--filter", fpath, "--out", verdict])
            return a, b

        def check(out):
            a, b = out
            require_ok(a, "figure3")
            require_ok(b, "verify")
            rows = np.loadtxt(curve, delimiter=",", skiprows=1, ndmin=2)
            require(rows.shape == (steps, 4), f"figure3 rows {rows.shape}")
            eta = np.linspace(0.0, 1.0, steps)
            peak = 2 / math.pi
            line = peak * (1 - 2 * eta)
            errs = [
                rel_err(rows[:, 0], eta, "eta column", 1e-15),
                rel_err(rows[:, 2], line, "analytic origin", 1e-14),
                rel_err(rows[:, 1], line, "numeric Wigner origin", self.ORIGIN_TOL),
                float(np.max(np.abs(rows[:, 3] + eta**2))),
            ]
            require(errs[-1] <= 1e-12, f"g2 - g1^2 != -eta^2 by {errs[-1]:.2e}")
            num = rows[:, 1]
            require(np.all(num[eta < 0.5 - 1e-9] > 0) and np.all(num[eta > 0.5 + 1e-9] < 0),
                    "origin does not change sign at eta = 1/2")
            with open(verdict) as fh:
                v = json.load(fh)
            classical = s == 1.0
            want = "CLASSICAL_ATTENUATION" if classical else "NOT_CLASSICAL"
            require(v["verdict"] == want, f"theorem 2 verdict {v['verdict']} for {filt}")
            if s is not None:
                # deviation of e^{(s-1)|b|^2/2} from 1 peaks on the disk edge |b| = 3
                dev = abs(math.expm1((s - 1) * 4.5))
                require(abs(v["max_residual"] - dev) <= 1e-12, "theorem 2 residual")
                errs.append(abs(v["max_residual"] - dev))
            return max(errs)

        return Op(f"figure3+{kind}", run, check)


# ----------------------------------------------------------- phase_portrait

Q_EXTENT, Q_POINTS = 1.25, 25  # inside the q_function leakage guard at cutoff 20


class PhasePortrait:
    """charfunc -> transform at seeded s, Q lattice, rotated marginal of the
    Wigner grid, for one generated state."""

    name = "phase_portrait"
    KINDS = ("coherent", "thermal", "cat", "lossy_fock3", "lossy_fock")
    MAIN_OPS = len(KINDS)
    ROUND_SECONDS = 3.2
    # the default 6:128 lattice truncates the s ~ 0 grids of the cat and the
    # three-photon state at ~1e-4 of their peak; a wrong transform is off by O(1)
    GRID_TOL = 1e-3
    MARGINAL_TOL = 1e-3
    PROBES = (2.0, 3.0j)  # |alpha| = 2, 3 for |1> at cutoff 20

    def __init__(self, prog, workdir: Path, seed: int):
        self.prog, self.seed = prog, seed
        ax = np.linspace(-Q_EXTENT, Q_EXTENT, Q_POINTS)
        self.q_lattice = ax[None, :] + 1j * ax[:, None]
        ax = np.linspace(-4.0, 4.0, 129)
        self.alpha = ax[None, :] + 1j * ax[:, None]
        self.photon = prog.DensityMatrix(21, np.diag(np.eye(21)[1]).astype(complex))

    def round(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, r])
        strata = rng.permutation(len(self.KINDS))
        ops = [self._op(rng, kind, -(k + rng.uniform()) / len(self.KINDS))
               for kind, k in zip(self.KINDS, strata)]
        return ops + [self._probe(a) for a in self.PROBES]

    def _state(self, rng, kind):
        """(entries, P_s(alpha grid, s), marginal(x, phase)) for one state."""
        if kind == "coherent":
            a0 = rng.uniform(1.2, 1.5) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            v = cfm.superposition_vector([1.0], [a0], 31)[0]
            return (np.outer(v, v.conj()), lambda al, s: cfm.ps_coherent(al, a0, s),
                    lambda x, ph: cfm.marginal_gaussian(x, (a0 * np.exp(-1j * ph)).real, 0.25))
        if kind == "thermal":
            nbar = rng.uniform(0.5, 0.85)
            p = cfm.geometric_populations(nbar, 31)
            p /= p.sum()
            return (np.diag(p).astype(complex), lambda al, s: cfm.ps_thermal(al, nbar, s),
                    lambda x, ph: cfm.marginal_gaussian(x, 0.0, (2 * nbar + 1) / 4))
        if kind == "cat":
            a = rng.uniform(1.15, 1.2) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            alphas = [a, -a]
            v, c = cfm.superposition_vector([1.0, np.exp(1j * rng.uniform(0, 2 * np.pi))], alphas, 31)
            return (np.outer(v, v.conj()), lambda al, s: cfm.ps_superposition(al, c, alphas, s),
                    lambda x, ph: cfm.marginal_superposition(x, c, alphas, ph))
        if kind == "lossy_fock3":  # the largest truncation error at the default lattice
            n, eta = 3, rng.uniform(0.85, 0.95)
        else:
            n, eta = int(rng.integers(1, 3)), rng.uniform(0.3, 0.95)
        p = cfm.binomial_populations(n, eta)
        entries = np.zeros((21, 21), dtype=complex)
        entries[np.arange(n + 1), np.arange(n + 1)] = p
        return (entries, lambda al, s: cfm.ps_diagonal(al, p, s),
                lambda x, ph: cfm.marginal_diagonal(x, p))

    def _op(self, rng, kind, s) -> Op:
        entries, ps, marginal = self._state(rng, kind)
        phase = float(rng.uniform(0.05, np.pi - 0.05))
        prog, q_lattice = self.prog, self.q_lattice
        rho = prog.DensityMatrix(entries.shape[0], entries)

        def run():
            qe = prog.quasiprob_engine
            grid = qe.quasiprob_transform(qe.charfunc_grid(rho, prog.FilterSpec.s_param(s)))
            q = qe.q_function(rho, q_lattice)
            wig = qe.quasiprob_transform(
                qe.charfunc_grid(rho, prog.FilterSpec.s_param(0.0), 6.0, 64), 4.0, 129)
            return grid, q, wig, qe.quadrature_distribution(wig, phase)

        def check(out):
            grid, q, wig, marg = out
            marg = np.asarray(marg)
            require(np.array_equal(grid.axis, self.alpha[0].real), "alpha axis")
            return max(
                rel_err(grid.values, ps(self.alpha, s), f"P_s at s={s:.3f}", self.GRID_TOL),
                rel_err(q, ps(q_lattice, -1.0), "Q lattice", self.GRID_TOL),
                rel_err(wig.values, ps(self.alpha, 0.0), "Wigner grid", self.GRID_TOL),
                rel_err(marg[:, 1], marginal(marg[:, 0], phase), "rotated marginal",
                        self.MARGINAL_TOL),
            )

        return Op(kind, run, check)

    def _probe(self, alpha) -> Op:
        qe, photon = self.prog.quasiprob_engine, self.photon

        def run():
            return qe.q_function(photon, alpha)

        def check(value):
            x = abs(alpha) ** 2
            return rel_err(value, x * math.exp(-x) / math.pi, "Q of |1>", 1e-12)

        return Op(f"q_probe_{abs(alpha):g}", run, check, probe=True)


# ----------------------------------------------------------- beam_splitting

class BeamSplitting:
    """beamsplit at cutoff 20, classical --op beamsplit, verify --theorem 1."""

    name = "beam_splitting"
    # two dense outputs in seven, so that the tail percentile falls among the
    # coherent pairs and the median among the sparse outputs for any run of
    # 40 or more operations
    KINDS = ("coherent", "cat_vacuum", "fock", "thermal", "coherent", "fock_hom", "thermal")
    FILTER_KINDS = ("s", "series_s", "series", "s", "series", "series_s", "series")
    MAIN_OPS = len(KINDS)
    ROUND_SECONDS = 4.7
    CUTOFF = 20
    STATE_TOL = 1e-8
    PROBES = ((1, 1), (2, 3), (3, 5))  # |n, n> at a cutoff below 2n

    def __init__(self, prog, workdir: Path, seed: int):
        self.cli, self.dir, self.seed = prog.cli, workdir, seed

    def round(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, r])
        ops = [self._op(rng, f"b{r}_{i}", kind, fk)
               for i, (kind, fk) in enumerate(zip(self.KINDS, self.FILTER_KINDS))]
        return ops + [self._probe(f"b{r}_p{n}", n, c) for n, c in self.PROBES]

    def _inputs(self, rng, kind, t, r):
        """(state1, state2, expected two-mode output, the coherent pair or None)."""
        dim = self.CUTOFF + 1
        vac = np.zeros((dim, dim), dtype=complex)
        vac[0, 0] = 1.0
        if kind == "coherent":
            a1, a2 = (rng.uniform(0.78, 0.8) * np.exp(1j * rng.uniform(0, 2 * np.pi)) for _ in range(2))
            v1 = cfm.superposition_vector([1.0], [a1], dim)[0]
            v2 = cfm.superposition_vector([1.0], [a2], dim)[0]
            a3, a4 = t * a1 + r * a2, -np.conj(r) * a1 + np.conj(t) * a2
            out = np.kron(cfm.coherent_amplitudes(a3, dim), cfm.coherent_amplitudes(a4, dim))
            return np.outer(v1, v1.conj()), np.outer(v2, v2.conj()), np.outer(out, out.conj()), (a1, a2)
        if kind == "cat_vacuum":
            a = rng.uniform(0.6, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            v = cfm.superposition_vector([1.0, np.exp(1j * rng.uniform(0, 2 * np.pi))], [a, -a], dim)[0]
            out = np.zeros(dim * dim, dtype=complex)
            for n in range(dim):
                amp = cfm.split_fock(n, 0, t, r)
                out[np.arange(n + 1) * dim + n - np.arange(n + 1)] += v[n] * amp
            return np.outer(v, v.conj()), vac, np.outer(out, out.conj()), None
        if kind in ("fock", "fock_hom"):
            if kind == "fock":
                n1, n2 = (int(x) for x in rng.integers(0, 9, size=2))
            else:
                n1 = n2 = int(rng.integers(1, 7))
            p1, p2 = np.eye(dim)[n1], np.eye(dim)[n2]
        else:
            p1, p2 = (cfm.geometric_populations(rng.uniform(0.05, 0.2), dim) for _ in range(2))
            p1, p2 = p1 / p1.sum(), p2 / p2.sum()
        expected = cfm.split_diagonal(p1, p2, t, r, dim)
        return np.diag(p1).astype(complex), np.diag(p2).astype(complex), expected, None

    def _op(self, rng, tag, kind, filter_kind) -> Op:
        theta = math.pi / 4 if kind == "fock_hom" else rng.uniform(0.15, math.pi / 2 - 0.15)
        t = math.cos(theta) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        r = math.sin(theta) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        rho1, rho2, expected, pair = self._inputs(rng, kind, t, r)
        amps = rng.uniform(-1, 1, size=(8, 2)) + 1j * rng.uniform(-1, 1, size=(8, 2))
        if pair is not None:
            amps[0] = pair
        weights = rng.uniform(0.5, 1.5, size=8)
        weights /= weights.sum()
        filt, s = draw_filter(rng, filter_kind)
        d = self.dir
        f1 = write_json(d / f"{tag}_1.json", state_json(rho1))
        f2 = write_json(d / f"{tag}_2.json", state_json(rho2))
        ens = write_json(d / f"{tag}_ens.json", {"n_modes": 2, "samples": [
            {"re1": a.real, "im1": a.imag, "re2": b.real, "im2": b.imag, "w": w}
            for (a, b), w in zip(amps.tolist(), weights.tolist())]})
        fpath = write_json(d / f"{tag}_filter.json", filt)
        out_q, out_c, out_v, out_a = (str(d / f"{tag}_{x}.json") for x in ("q", "c", "v", "a"))
        eta = abs(t) ** 2
        tt, rr = cstr(t), cstr(r)
        cli, seed = self.cli, int(rng.integers(1 << 30))
        dim = self.CUTOFF + 1

        def run():
            res = [
                run_cli(cli, ["beamsplit", "--state1", f1, "--state2", f2, "--t", tt, "--r", rr,
                              "--out", out_q]),
                run_cli(cli, ["classical", "--op", "beamsplit", "--ensemble", ens, "--t", tt,
                              "--r", rr, "--out", out_c]),
                run_cli(cli, ["verify", "--theorem", 1, "--filter", fpath, "--seed", seed,
                              "--out", out_v]),
            ]
            if kind == "cat_vacuum":
                res.append(run_cli(cli, ["attenuate", "--state", f1, "--eta", eta, "--out", out_a]))
            return res

        def check(res):
            for x in res:
                require_ok(x, kind)
            got = read_state(out_q)
            errs = [rel_err(got, expected, f"{kind} output", self.STATE_TOL)]
            if kind == "cat_vacuum":
                errs.append(rel_err(cfm.reduce_to_mode1(got, dim), cfm.lossy_state(rho1, t),
                                    "reduced state vs binomial loss", self.STATE_TOL))
                errs.append(rel_err(read_state(out_a), cfm.lossy_state(rho1, abs(t)),
                                    "Kraus attenuate vs binomial loss", self.STATE_TOL))
            if kind == "thermal":
                n3 = eta * np.trace(rho1 @ np.diag(np.arange(dim))).real \
                    + (1 - eta) * np.trace(rho2 @ np.diag(np.arange(dim))).real
                errs.append(rel_err(np.diag(cfm.reduce_to_mode1(got, dim)).real,
                                    cfm.geometric_populations(n3, dim), "reduced thermal",
                                    self.STATE_TOL))
            with open(out_c) as fh:
                samples = json.load(fh)["samples"]
            got_amps = np.array([[complex(x["re1"], x["im1"]), complex(x["re2"], x["im2"])]
                                 for x in samples])
            m = np.array([[t, r], [-np.conj(r), np.conj(t)]])
            errs.append(rel_err(got_amps, amps @ m.T, "classical amplitudes", 1e-14))
            with open(out_v) as fh:
                v = json.load(fh)
            want = "COVARIANT" if s is not None else "NOT_COVARIANT"
            require(v["verdict"] == want, f"theorem 1 verdict {v['verdict']} for {filt}")
            if s is not None:
                require(abs(v["s"] - s) <= 1e-15, "theorem 1 s value")
            return max(errs)

        return Op(kind, run, check)

    def _probe(self, tag, n, cutoff) -> Op:
        dim = cutoff + 1
        fock = np.zeros((dim, dim), dtype=complex)
        fock[n, n] = 1.0
        f = write_json(self.dir / f"{tag}.json", state_json(fock))
        out = str(self.dir / f"{tag}_q.json")
        amp = cfm.split_fock(n, n, SQ2, SQ2)
        vec = np.zeros(dim * dim, dtype=complex)
        for k in range(max(0, 2 * n - cutoff), min(2 * n, cutoff) + 1):
            vec[k * dim + 2 * n - k] = amp[k]
        cli = self.cli

        def run():
            return run_cli(cli, ["beamsplit", "--state1", f, "--state2", f, "--t", SQ2,
                                 "--r", SQ2, "--out", out])

        def check(res):
            code, err = res
            if code == 1 and '"CutoffTooSmall"' in err:
                return 0.0
            require_ok(res, f"beamsplit |{n},{n}> at cutoff {cutoff}")
            return rel_err(read_state(out), np.outer(vec, vec.conj()),
                           f"|{n},{n}> at cutoff {cutoff}", self.STATE_TOL)

        return Op(f"bs_probe_{n}{n}_c{cutoff}", run, check, probe=True)


WORKLOADS = {w.name: w for w in (WignerCurve, PhasePortrait, BeamSplitting)}
