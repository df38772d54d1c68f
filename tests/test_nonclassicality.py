import signal
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaselab import fock_core as fc
from phaselab import nonclassicality as nc
from phaselab.errors import CutoffTooSmall, GainNotAllowed, InvalidWeights
from phaselab.linear_optics import _loss_blocks, attenuate
from phaselab.quasiprob_engine import _pointwise, quasiprob_pointwise

from _support import random_coherent_ensemble, random_density


def within_seconds(seconds, fn, *args):
    """fn(*args), failing with TimeoutError if it has not returned after ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"{fn.__name__}{args} did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestCorrelationReport:
    def test_single_photon(self):
        rep = nc.correlation_report(fc.make_fock(1, 8))
        assert rep.g1 == 1.0
        assert rep.g2 == 0.0
        assert rep.g2_verdict == nc.VIOLATED
        assert any(c[0] == "G2_ge_G1sq" for c in rep.violations)

    def test_attenuated_photon_half(self):
        rep = nc.correlation_report(attenuate(fc.make_fock(1, 8), 0.5))
        assert rep.g1 == pytest.approx(0.5, abs=1e-12)
        assert rep.g2 == pytest.approx(0.0, abs=1e-12)
        assert rep.g2_verdict == nc.VIOLATED

    def test_coherent_equality_not_flagged(self):
        rep = nc.correlation_report(fc.make_coherent(0.9, 20))
        assert rep.g2_verdict == nc.SATISFIED
        assert rep.violations == ()

    def test_thermal_satisfied(self):
        rep = nc.correlation_report(fc.make_thermal(0.5, 40))
        # oracle: thermal G2 = 2 nbar^2 > nbar^2
        assert rep.g2 == pytest.approx(2 * 0.25, abs=1e-9)
        assert rep.g2_verdict == nc.SATISFIED
        assert rep.violations == ()

    def test_coherent_mixture_classical(self):
        ens = random_coherent_ensemble(np.random.default_rng(77))
        rep = nc.correlation_report(nc.coherent_mixture(ens, 25))
        assert rep.violations == ()

    def test_table_size(self):
        rep = nc.correlation_report(fc.make_fock(0, 10), M=2)
        assert set(rep.gmn_table) == {(m, n) for m in range(3) for n in range(3)}

    def test_headroom_guard(self):
        with pytest.raises(CutoffTooSmall):
            nc.correlation_report(fc.make_fock(0, 4), M=2)


class TestHierarchy:
    def test_thermal_oracle(self):
        # oracle: Gaussian moment theorem, G(n,n) = n! nbar^n
        rho = fc.make_thermal(0.8, 50)
        h = nc.hierarchy_check(rho, 2, 1)
        assert h.lhs == pytest.approx(2 * 0.8**2, abs=1e-8)
        assert h.rhs == pytest.approx(0.8**2, abs=1e-8)
        assert h.verdict == nc.SATISFIED

    def test_single_photon_violation(self):
        assert nc.hierarchy_check(fc.make_fock(1, 8), 2, 1).verdict == nc.VIOLATED

    def test_trivial_split_equality(self):
        # m = 0 gives G(n,n) >= 1 * G(n,n): exact equality, never violated
        h = nc.hierarchy_check(fc.make_fock(1, 8), 2, 0)
        assert h.verdict == nc.SATISFIED
        assert h.lhs == h.rhs

    def test_bad_split(self):
        with pytest.raises(InvalidWeights):
            nc.hierarchy_check(fc.make_fock(0, 8), 1, 2)


class TestScalingInvariance:
    def test_single_photon_invariant(self):
        rep = nc.scaling_invariance_check(
            fc.make_fock(1, 10), 2, 1, [0.25, 0.5, 0.75, 1.0]
        )
        assert rep.invariant
        assert all(v == nc.VIOLATED for _, v in rep.verdicts)

    def test_thermal_invariant(self):
        rep = nc.scaling_invariance_check(
            fc.make_thermal(0.6, 40), 2, 1, [0.3, 0.7]
        )
        assert rep.invariant
        assert all(v == nc.SATISFIED for _, v in rep.verdicts)

    def test_eta_domain(self):
        with pytest.raises(InvalidWeights):
            nc.scaling_invariance_check(fc.make_fock(1, 10), 2, 1, [0.0])


class TestWignerOriginCurve:
    def test_endpoints(self):
        assert nc.wigner_origin_analytic(0.0) == pytest.approx(2 / np.pi)
        assert nc.wigner_origin_analytic(1.0) == pytest.approx(-2 / np.pi)
        assert nc.wigner_origin_analytic(0.5) == 0.0

    def test_numeric_matches_analytic(self):
        for eta in (0.0, 0.3, 0.8):
            assert nc.wigner_origin_numeric(eta) == pytest.approx(
                nc.wigner_origin_analytic(eta), abs=1e-14
            )

    def test_figure3_rows(self):
        rows = nc.figure3_data(3)
        assert [r[0] for r in rows] == [0.0, 0.5, 1.0]
        for eta, num, ana, gap in rows:
            assert num == pytest.approx(ana, abs=1e-14)
            # the intensity-correlation gap stays negative for every eta > 0
            assert gap == pytest.approx(-(eta**2), abs=1e-12)

    def test_zero_crossing(self):
        assert nc.locate_wigner_zero(tol=1e-3) == pytest.approx(0.5, abs=1e-3)

    @pytest.mark.parametrize("tol", [0.0, -1e-3, float("nan"), float("inf")])
    def test_invalid_tol(self, tol):
        with pytest.raises(InvalidWeights):
            within_seconds(10, nc.locate_wigner_zero, 20, tol)

    def test_tol_below_float_spacing_ends(self):
        # the bracket cannot shrink below adjacent floats: the bisection stops there
        zero = within_seconds(10, nc.locate_wigner_zero, 20, 1e-300)
        assert zero == pytest.approx(0.5, abs=1e-12)


class TestCoherentMixture:
    def test_single_point_is_coherent(self):
        from phaselab.classical_fields import ClassicalEnsemble

        ens = ClassicalEnsemble.single([(0.7 + 0.1j, 1.0)])
        rho = nc.coherent_mixture(ens, 20)
        assert np.allclose(
            rho.entries, fc.make_coherent(0.7 + 0.1j, 20).entries, atol=1e-14
        )

    def test_moments_match_classical(self):
        from phaselab.classical_fields import classical_moments

        ens = random_coherent_ensemble(np.random.default_rng(5))
        rho = nc.coherent_mixture(ens, 25)
        for m, n in [(1, 0), (1, 1), (2, 1), (2, 2)]:
            assert fc.normal_moment(rho, m, n) == pytest.approx(
                classical_moments(ens, m, n), abs=1e-10
            )

    @given(
        samples=st.lists(
            st.tuples(
                st.one_of(st.just(0.0), st.floats(1e-3, 1.5)),
                st.floats(0.0, 2 * np.pi),
                st.floats(0.05, 1.0),
            ),
            min_size=1,
            max_size=5,
        ),
        m=st.integers(0, 3),
        n=st.integers(0, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_moments_match_classical_property(self, samples, m, n):
        from phaselab.classical_fields import ClassicalEnsemble, classical_moments

        total = sum(w for _, _, w in samples)
        ens = ClassicalEnsemble.single(
            [(r * np.exp(1j * phi), w / total) for r, phi, w in samples]
        )
        classical = classical_moments(ens, m, n)
        quantum = fc.normal_moment(nc.coherent_mixture(ens, 25), m, n)
        # relative to sum_i w_i |a_i|^(m+n), which bounds both moments
        scale = float(ens.weights @ np.abs(ens.amplitudes[:, 0]) ** (m + n))
        assert abs(quantum - classical) <= 1e-12 * scale


class TestEfficiencyStack:
    """The loss channel, the moments and the pointwise trace on a stack of efficiencies
    against the same functions on each state alone."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        occupied=st.integers(1, 21),
        headroom=st.integers(0, 20),
        diagonal=st.booleans(),
        leakage=st.floats(0.0, 1e-10),
        etas=st.lists(st.floats(0.0, 1.0), max_size=6),
        s=st.floats(-3.0, 0.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_slices_match_one_state(self, seed, occupied, headroom, diagonal, leakage, etas, s):
        rng = np.random.default_rng(seed)
        dim = min(occupied + headroom, 21)
        dense = random_density(dim, occupied=occupied, rng=rng).entries
        entries = np.diag(dense.diagonal()) if diagonal else dense
        rho = fc.DensityMatrix(dim, entries, leakage=leakage)
        etas = np.array([0.0, 1.0, *etas])
        lossy = _loss_blocks(rho, etas)
        b = fc.effective_dim(rho.occupations[0])
        assert lossy.shape == (len(etas), b, b)
        orders = [(m, n) for m in range(3) for n in range(3) if m + n <= rho.cutoff - 2]
        stacked = [fc._moments(lossy, rho.cutoff, m, n) for m, n in orders]
        stacked = np.array(stacked).reshape(len(orders), len(etas))
        alpha = np.concatenate([[0.0], rng.normal(size=3) + 1j * rng.normal(size=3)])
        wigner = _pointwise(lossy, alpha, s)
        for i, eta in enumerate(etas.tolist()):
            one = attenuate(rho, eta)
            assert one.leakage == rho.leakage
            assert not one.entries[b:].any() and not one.entries[:, b:].any()
            peak = np.abs(one.entries).max()
            assert np.abs(one.entries[:b, :b] - lossy[i]).max() <= 4 * np.spacing(peak)
            moments = np.array([fc.normal_moment(one, m, n) for m, n in orders])
            peak = np.abs(moments).max(initial=0.0)
            assert np.abs(moments - stacked[:, i]).max(initial=0.0) <= 4 * np.spacing(peak)
            # 2 / (pi (1 - s)) is the peak |P_s| can reach, at the vacuum's origin
            peak = 2 / (np.pi * (1 - s))
            p = quasiprob_pointwise(one, alpha, s)
            assert np.abs(p - wigner[i]).max() <= 4 * np.spacing(peak)

    def test_stack_holds_the_occupied_block(self):
        # an attenuated photon is a 2 x 2 block per efficiency at any cutoff: the stack
        # takes less memory than the rows of four floats that figure3_data returns
        etas = np.linspace(0.0, 1.0, 101)
        lossy = _loss_blocks(fc.make_fock(1, 40), etas)
        assert lossy.shape == (101, 2, 2)
        rows = nc.figure3_data(101, 40)
        assert lossy.nbytes <= sum(sys.getsizeof(r) + sum(map(sys.getsizeof, r)) for r in rows)

    @pytest.mark.parametrize("bad", [1.5, -0.1, float("nan")])
    def test_gain_checked_on_every_eta(self, bad):
        with pytest.raises(GainNotAllowed):
            _loss_blocks(fc.make_fock(1, 8), np.array([0.2, bad, 0.7]))
