"""End-to-end acceptance checks.

Each test exercises one headline capability across module boundaries and
prints a single PASS/FAIL line so the suite doubles as a checklist when run
with ``pytest -s``.
"""
import time

import numpy as np
import pytest

from phaselab import fock_core as fc
from phaselab import nonclassicality as nc
from phaselab import quasiprob_engine as qe
from phaselab import theorem_lab as tl
from phaselab.classical_fields import classical_moments
from phaselab.linear_optics import (
    apply_beamsplitter,
    attenuate,
    pullback_charfunc,
)
from phaselab.phase_filters import FilterSpec

from _support import ancilla_attenuate, random_coherent_ensemble, random_density, random_splitter

CUTOFF = 20


def report(label, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{label}] {tag} {detail}".rstrip())
    assert ok, f"{label}: {detail}"


class TestAcceptance:
    def test_01_attenuated_photon_curve(self):
        start = time.perf_counter()
        worst = 0.0
        for eta in np.linspace(0.0, 1.0, 101):
            num = nc.wigner_origin_numeric(float(eta), cutoff=CUTOFF)
            worst = max(worst, abs(num - nc.wigner_origin_analytic(float(eta))))
        zero = nc.locate_wigner_zero(cutoff=CUTOFF, tol=1e-4)
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-14 and abs(zero - 0.5) <= 1e-4 and elapsed <= 60.0
        report(
            "acceptance-1 attenuated-photon curve",
            ok,
            f"max origin dev {worst:.2e}, zero at {zero:.5f}, {elapsed:.1f}s",
        )

    def test_02_photon_correlations(self):
        rho1 = fc.make_fock(1, CUTOFF)
        rep = nc.correlation_report(rho1)
        ok = rep.g1 == 1.0 and rep.g2 == 0.0
        half = nc.correlation_report(attenuate(rho1, 0.5))
        ok = ok and abs(half.g1 - 0.5) <= 1e-12 and abs(half.g2) <= 1e-12
        for eta in np.arange(0.05, 1.0001, 0.05):
            v = nc.correlation_report(attenuate(rho1, float(eta))).g2_verdict
            ok = ok and v == nc.VIOLATED
        report(
            "acceptance-2 photon correlations",
            ok,
            f"g1 {rep.g1}, g2 {rep.g2}, half-loss g1 {half.g1}",
        )

    def test_03_beamsplitter_covariance_classification(self):
        start = time.perf_counter()
        rng = np.random.default_rng(42)
        worst = 0.0
        splitters, _, _ = tl.random_probes(rng, 100)
        _, b3, b4 = tl.random_probes(rng, 100)
        for s in (-1.0, -0.5, 0.0, 0.5, 1.0):
            f = FilterSpec.s_param(s)
            # every splitter against every beta pair
            worst = max(worst, tl.filter_bs_residual(f, splitters[:, None], b3, b4).max())
        ok = worst <= 1e-10
        specials = {(bs.t, bs.r) for bs in tl.SPECIAL_BS_CASES}
        for k in range(5):
            for l in range(5 - k):
                if (k, l) in [(0, 0), (1, 1)]:
                    continue
                v = tl.classify_filter_bs(FilterSpec.general({(k, l): 0.3}))
                witnessed = (
                    v.verdict == tl.NOT_COVARIANT
                    and v.witness is not None
                    and (v.witness[0].t, v.witness[0].r) in specials
                )
                ok = ok and witnessed
        elapsed = time.perf_counter() - start
        ok = ok and elapsed <= 10.0
        report(
            "acceptance-3 splitter covariance",
            ok,
            f"gaussian-family residual {worst:.2e}, {elapsed:.1f}s",
        )

    def test_04_attenuator_classification(self):
        grid = tl.disk_grid(radius=3.0)
        flat = tl.classify_filter_attenuator(FilterSpec.s_param(1.0), grid)
        ok = flat.verdict == tl.CLASSICAL_ATTENUATION and flat.max_deviation <= 1e-14
        for s in (-1.0, 0.0, 0.5, 0.99):
            v = tl.classify_filter_attenuator(FilterSpec.s_param(s), grid)
            ok = ok and v.verdict == tl.NOT_CLASSICAL
        report(
            "acceptance-4 attenuator law",
            ok,
            f"flat-filter deviation {flat.max_deviation:.2e}",
        )

    def test_05_two_pictures_agree(self):
        rng = np.random.default_rng(7)
        f = FilterSpec.s_param(0.0)
        worst_bs = 0.0
        for _ in range(3):
            r1 = random_density(10, occupied=4, rng=rng)
            r2 = random_density(10, occupied=4, rng=rng)
            rho = fc.tensor(r1, r2)
            bs = random_splitter(rng)
            pulled = pullback_charfunc(
                qe.two_mode_charfunc_grid(rho, f, extent=1.5, points=5), bs
            )
            direct = qe.two_mode_charfunc_grid(
                apply_beamsplitter(rho, bs), f, extent=1.5, points=5
            )
            worst_bs = max(worst_bs, float(np.max(np.abs(pulled.values - direct.values))))
        worst_att = 0.0
        for eta in (0.2, 0.5, 0.9):
            rho = random_density(12, occupied=8, rng=rng)
            k = attenuate(rho, eta)
            b = ancilla_attenuate(rho, eta)
            worst_att = max(worst_att, float(np.max(np.abs(k.entries - b.entries))))
        ok = worst_bs <= 1e-8 and worst_att <= 1e-10
        report(
            "acceptance-5 route agreement",
            ok,
            f"splitter routes {worst_bs:.2e}, loss routes {worst_att:.2e}",
        )

    def test_06_moment_scaling(self):
        rng = np.random.default_rng(42)
        rho = random_density(12, rng=rng)
        worst = 0.0
        ok = True
        for eta in (0.25, 0.5, 0.75):
            out = attenuate(rho, eta)
            for m in range(7):
                for n in range(7 - m):
                    got = fc.normal_moment(out, m, n)
                    want = eta ** ((m + n) / 2) * fc.normal_moment(rho, m, n)
                    rel = abs(got - want) / max(1e-30, abs(want))
                    worst = max(worst, rel)
        ok = ok and worst <= 1e-8
        for probe in (fc.make_fock(1, 10), fc.make_thermal(0.6, 40)):
            rep = nc.scaling_invariance_check(probe, 2, 1, [0.25, 0.5, 0.75])
            ok = ok and rep.invariant
        report("acceptance-6 loss moment scaling", ok, f"max rel err {worst:.2e}")

    def test_07_optical_equivalence(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        ok = True
        for _ in range(50):
            ens = random_coherent_ensemble(rng)
            rho = nc.coherent_mixture(ens, 25)
            for m in range(3):
                for n in range(3):
                    gap = abs(
                        fc.normal_moment(rho, m, n) - classical_moments(ens, m, n)
                    )
                    worst = max(worst, gap)
            g1 = classical_moments(ens, 1, 1).real
            g2 = classical_moments(ens, 2, 2).real
            ok = ok and g2 >= g1**2 - 1e-9 * max(1.0, g1**2)
        ok = ok and worst <= 1e-10
        report("acceptance-7 optical equivalence", ok, f"max moment gap {worst:.2e}")

    def test_08_quasiprobability_anchors(self):
        rng = np.random.default_rng(31)
        rho = random_density(10, occupied=5, rng=rng)
        cf = qe.charfunc_grid(rho, FilterSpec.s_param(-1.0), extent=7.0, points=160)
        grid = qe.quasiprob_transform(cf)
        x, y = np.meshgrid(grid.axis, grid.axis)
        alphas = x + 1j * y
        mask = np.abs(alphas) <= 2.0
        direct = qe.q_function(fc.embed(rho, 26), alphas[mask])
        q_dev = float(np.max(np.abs(grid.values[mask] - direct)))
        wigner = qe.quasiprob_transform(
            qe.charfunc_grid(fc.make_fock(0, CUTOFF), FilterSpec.s_param(0.0))
        )
        volume = wigner.volume_integral
        one = qe.quasiprob_transform(
            qe.charfunc_grid(fc.make_fock(1, CUTOFF), FilterSpec.s_param(0.0))
        )
        dist = qe.quadrature_distribution(one, 0.0)
        node = min(dist, key=lambda t: abs(t[0]))[1]
        ok = q_dev <= 1e-6 and abs(volume - 1.0) <= 1e-3 and abs(node) <= 1e-4
        report(
            "acceptance-8 quasiprobability anchors",
            ok,
            f"Q dev {q_dev:.2e}, volume {volume:.6f}, node {node:.2e}",
        )
