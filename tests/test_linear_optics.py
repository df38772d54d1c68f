from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, logm

from phaselab import fock_core as fc
from phaselab import linear_optics as lo
from phaselab import quasiprob_engine as qe
from phaselab.classical_fields import BeamSplitterParams
from phaselab.errors import (
    CutoffTooSmall,
    DimensionMismatch,
    GainNotAllowed,
    NonFiniteArgument,
    TrustRadiusExceeded,
)
from phaselab.phase_filters import FilterSpec, filtered_charfunc

from _support import ancilla_attenuate, random_density

SQ2 = 1 / np.sqrt(2)
S0 = FilterSpec.s_param(0.0)


class TestBeamsplitterUnitary:
    def test_identity_setting(self):
        u = lo.beamsplitter_unitary(4, BeamSplitterParams(1.0, 0.0))
        assert np.allclose(u, np.eye(16), atol=1e-12)

    def test_unitary(self):
        # unitary on the complete blocks N <= dim-1; the blocks above them
        # lose the amplitude sent past the cutoff
        dim = 6
        u = lo.beamsplitter_unitary(dim, BeamSplitterParams(0.6, 0.8j))
        complete = np.add.outer(np.arange(dim), np.arange(dim)).ravel() <= dim - 1
        cols = u[:, complete]
        assert np.allclose(cols.conj().T @ cols, np.eye(complete.sum()), atol=1e-12)
        sub = cols[complete]
        assert np.allclose(sub @ sub.conj().T, np.eye(complete.sum()), atol=1e-12)

    @pytest.mark.parametrize("dim", range(2, 13))
    def test_blocks_match_generator_exponential(self, dim):
        # oracle: expm of each block's (N+1)-square generator sum g_jk a_j^dag a_k,
        # g = logm(M), restricted to the states inside the cutoff
        rng = np.random.default_rng(dim)
        theta, pt, pr, phi = rng.uniform(0, 2 * np.pi, size=4)
        bs = BeamSplitterParams(
            np.cos(theta) * np.exp(1j * pt), np.sin(theta) * np.exp(1j * pr), phi
        )
        g = logm(bs.matrix())
        expected = np.zeros((dim * dim, dim * dim), dtype=complex)
        for n in range(2 * dim - 1):
            k = np.arange(n + 1)
            # basis |k, N-k>: a1^dag a2 raises k, a2^dag a1 lowers it
            gen = np.diag(g[0, 0] * k + g[1, 1] * (n - k))
            gen += np.diag(g[0, 1] * np.sqrt((k[:-1] + 1) * (n - k[:-1])), -1)
            gen += np.diag(g[1, 0] * np.sqrt(k[1:] * (n - k[1:] + 1)), 1)
            inside = k[(k < dim) & (n - k < dim)]
            idx = inside * dim + n - inside
            expected[np.ix_(idx, idx)] = expm(gen)[np.ix_(inside, inside)]
        u = lo.beamsplitter_unitary(dim, bs)
        assert np.max(np.abs(u - expected)) < 1e-12

    def test_coherent_closure(self):
        # oracle: coherent in, coherent out with classically transformed amplitudes
        bs = BeamSplitterParams(0.6, 0.8 * np.exp(0.4j))
        a1, a2 = 0.5, 0.3j
        dim = 16
        rho = fc.tensor(fc.make_coherent(a1, dim - 1), fc.make_coherent(a2, dim - 1))
        out = lo.apply_beamsplitter(rho, bs)
        a3 = bs.t * a1 + bs.r * a2
        a4 = -np.conj(bs.r) * a1 + np.conj(bs.t) * a2
        target = fc.tensor(
            fc.make_coherent(a3, dim - 1), fc.make_coherent(a4, dim - 1)
        )
        fidelity = np.trace(out.entries @ target.entries).real
        assert fidelity == pytest.approx(1.0, abs=1e-10)

    def test_photon_number_conserved(self):
        rng = np.random.default_rng(7)
        r1 = random_density(8, occupied=4, rng=rng)
        r2 = random_density(8, occupied=3, rng=rng)
        rho = fc.tensor(r1, r2)
        out = lo.apply_beamsplitter(rho, BeamSplitterParams(SQ2, 1j * SQ2))
        n_op = np.kron(np.diag(np.arange(8.0)), np.eye(8)) + np.kron(
            np.eye(8), np.diag(np.arange(8.0))
        )
        before = np.trace(rho.entries @ n_op).real
        after = np.trace(out.entries @ n_op).real
        assert after == pytest.approx(before, abs=1e-12)


class TestHongOuMandel:
    # 50:50 splitter on |n, n>: P(2m, 2n-2m) = C(2m, m) C(2n-2m, n-m) / 4^n,
    # odd splittings vanish
    @staticmethod
    def split(n, cutoff):
        one = fc.make_fock(n, cutoff)
        out = lo.apply_beamsplitter(fc.tensor(one, one), BeamSplitterParams(SQ2, SQ2))
        return out.entries.diagonal().real.reshape(cutoff + 1, cutoff + 1)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("headroom", [0, 1, 4])
    def test_exact_above_the_block(self, n, headroom):
        p = self.split(n, 2 * n + headroom)
        for k in range(2 * n + 1):
            want = comb(k, k // 2) * comb(2 * n - k, n - k // 2) / 4**n if k % 2 == 0 else 0.0
            if want:
                assert p[k, 2 * n - k] == pytest.approx(want, abs=1e-14)
            else:
                assert p[k, 2 * n - k] <= 1e-15
        assert p.sum() == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("n, cutoff", [(1, 1), (2, 2), (2, 3), (3, 3), (3, 5)])
    def test_incomplete_block_rejected(self, n, cutoff):
        with pytest.raises(CutoffTooSmall):
            self.split(n, cutoff)


class TestHermitianOutput:
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 8),
        theta=st.floats(0.0, np.pi / 2),
        phases=st.tuples(*[st.floats(0.0, 2 * np.pi)] * 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_exactly_hermitian(self, seed, dim, theta, phases):
        # two-mode states on levels < dim/2 per mode lose nothing past the cutoff
        occupied = max(1, (dim + 1) // 2)
        rng = np.random.default_rng(seed)
        rho = fc.tensor(
            *(random_density(dim, occupied=occupied, rng=rng) for _ in range(2))
        )
        t, r = np.cos(theta) * np.exp(1j * phases[0]), np.sin(theta) * np.exp(1j * phases[1])
        out = lo.apply_beamsplitter(rho, BeamSplitterParams(t, r, phases[2])).entries
        assert np.array_equal(out, out.conj().T)
        assert np.array_equal(np.signbit(out.real), np.signbit(out.real.T))

    def test_coherent_pair_bits(self):
        a = fc.make_coherent(0.79 * np.exp(0.3j), 20)
        b = fc.make_coherent(0.8 * np.exp(2.1j), 20)
        out = lo.apply_beamsplitter(fc.tensor(a, b), BeamSplitterParams(0.6, 0.8j)).entries
        assert np.array_equal(out.real, out.real.T)
        assert np.array_equal(out.imag, -out.imag.T)


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(3)
        r1 = random_density(6, rng=rng)
        r2 = random_density(6, rng=rng)
        joint = fc.tensor(r1, r2)
        assert np.allclose(lo.partial_trace(joint, 1).entries, r1.entries, atol=1e-14)
        assert np.allclose(lo.partial_trace(joint, 2).entries, r2.entries, atol=1e-14)

    def test_correlated_state_marginal(self):
        # (|01> + |10>)/sqrt2 has maximally mixed one-photon marginals
        d = 3
        vec = np.zeros(d * d, dtype=complex)
        vec[0 * d + 1] = SQ2
        vec[1 * d + 0] = SQ2
        joint = fc.DensityMatrix(d, np.outer(vec, vec.conj()), n_modes=2)
        red = lo.partial_trace(joint, 1)
        assert np.allclose(np.diag(red.entries), [0.5, 0.5, 0.0], atol=1e-14)

    def test_trace_preserved(self):
        rho = fc.tensor(fc.make_coherent(0.4, 12), fc.make_thermal(0.1, 12))
        assert lo.partial_trace(rho, 2).entries.trace() == pytest.approx(1.0)

    def test_single_mode_rejected(self):
        with pytest.raises(DimensionMismatch):
            lo.partial_trace(fc.make_fock(0, 4), 1)


class TestAttenuate:
    def test_half_loss_single_photon(self):
        out = lo.attenuate(fc.make_fock(1, 6), 0.5)
        assert np.allclose(np.diag(out.entries), [0.5, 0.5, 0, 0, 0, 0, 0])

    def test_identity_and_full_loss(self):
        rho = fc.make_coherent(0.8, 15)
        assert np.allclose(lo.attenuate(rho, 1.0).entries, rho.entries, atol=1e-14)
        full = lo.attenuate(rho, 0.0)
        assert np.allclose(full.entries, fc.make_fock(0, 15).entries, atol=1e-12)

    def test_coherent_amplitude_scaling(self):
        eta = 0.3
        rho = lo.attenuate(fc.make_coherent(1.0, 20), eta)
        target = fc.make_coherent(np.sqrt(eta), 20)
        assert np.max(np.abs(rho.entries - target.entries)) < 1e-12

    @given(
        seed=st.integers(0, 2**32 - 1),
        occupied=st.integers(1, 21),
        headroom=st.integers(0, 20),
        eta=st.floats(0.0, 1.0),
        leakage=st.floats(0.0, 1e-10),
    )
    @settings(max_examples=60, deadline=None)
    def test_routes_agree(self, seed, occupied, headroom, eta, leakage):
        dim = min(occupied + headroom, 21)
        base = random_density(dim, occupied=occupied, rng=np.random.default_rng(seed))
        rho = fc.DensityMatrix(dim, base.entries, leakage=leakage)
        k = lo.attenuate(rho, eta)
        b = ancilla_attenuate(rho, eta)
        assert np.max(np.abs(k.entries - b.entries)) <= 1e-12
        # the vacuum ancilla fills only the complete blocks: nothing is lost
        assert b.leakage == rho.leakage

    def test_tables_keyed_by_size(self):
        # the binomial tables are cached per band count: dims and band counts are
        # interleaved, and each output is checked against the splitter route
        sizes = [(6, 2), (21, 2), (21, 9), (6, 5), (12, 9), (21, 21), (6, 2), (21, 9)]
        for i, (dim, occupied) in enumerate(sizes):
            rho = random_density(dim, occupied=occupied, rng=np.random.default_rng(i))
            for eta in (0.2, 0.65):
                out = lo.attenuate(rho, eta)
                assert np.max(np.abs(out.entries - ancilla_attenuate(rho, eta).entries)) <= 1e-12
        for arr in lo._loss_binomials(9):
            assert not arr.flags.writeable

    def test_nan_level_reaches_output(self):
        # a state with a NaN level cannot be built, so none reaches the channel
        entries = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        entries[3, 3] = np.nan
        with pytest.raises(NonFiniteArgument):
            lo.attenuate(fc.DensityMatrix(4, entries), 0.5)

    def test_gain_rejected(self):
        with pytest.raises(GainNotAllowed):
            lo.attenuate(fc.make_fock(0, 4), 1.2)
        with pytest.raises(GainNotAllowed):
            lo.attenuate(fc.make_fock(0, 4), -0.1)
        with pytest.raises(GainNotAllowed):
            lo.attenuate(fc.make_fock(0, 4), float("nan"))
        # a complex efficiency is not truncated to its real part
        with pytest.raises(TypeError):
            lo.attenuate(fc.make_fock(0, 4), 0.5 + 0.1j)

    def test_moment_scaling(self):
        rng = np.random.default_rng(29)
        rho = random_density(12, occupied=6, rng=rng)
        for eta in (0.25, 0.75):
            out = lo.attenuate(rho, eta)
            for m in range(3):
                for n in range(3):
                    base = fc.normal_moment(rho, m, n)
                    assert fc.normal_moment(out, m, n) == pytest.approx(
                        eta ** ((m + n) / 2) * base, abs=1e-12
                    )


class TestPullbackCharfunc:
    def test_identity_splitter(self):
        # cutoff 14 leaves the top level empty; at cutoff 8 |0.4> holds 2.8e-6
        # there and its sums are not exact out to |beta| = 2.12
        rho = fc.tensor(fc.make_coherent(0.4, 14), fc.make_fock(0, 14))
        cf = qe.two_mode_charfunc_grid(rho, S0, extent=1.5, points=5)
        back = lo.pullback_charfunc(cf, BeamSplitterParams(1.0, 0.0))
        assert np.max(np.abs(back.values - cf.values)) < 1e-12

    def test_matches_fock_route(self):
        rng = np.random.default_rng(41)
        r1 = random_density(10, occupied=4, rng=rng)
        r2 = random_density(10, occupied=4, rng=rng)
        rho = fc.tensor(r1, r2)
        bs = BeamSplitterParams(0.6, 0.8 * np.exp(0.7j))
        pulled = lo.pullback_charfunc(
            qe.two_mode_charfunc_grid(rho, S0, extent=1.5, points=5), bs
        )
        direct = qe.two_mode_charfunc_grid(
            lo.apply_beamsplitter(rho, bs), S0, extent=1.5, points=5
        )
        assert np.max(np.abs(pulled.values - direct.values)) < 1e-8

    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(2, 10),
        occupied=st.integers(1, 5),
        theta=st.floats(0.0, np.pi / 2),
        phases=st.tuples(*[st.floats(0.0, 2 * np.pi)] * 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_fock_route_property(self, seed, dim, occupied, theta, phases):
        # a two-mode state on levels < occupied per mode, with at most
        # 2 (occupied - 1) <= dim - 2 photons: the splitter loses nothing
        # and both states leave their top level empty
        occupied = min(occupied, dim // 2)
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(occupied**2,) * 2) + 1j * rng.normal(size=(occupied**2,) * 2)
        idx = (np.arange(occupied)[:, None] * dim + np.arange(occupied)).ravel()
        entries = np.zeros((dim * dim, dim * dim), dtype=complex)
        entries[np.ix_(idx, idx)] = g @ g.conj().T / np.trace(g @ g.conj().T)
        rho = fc.DensityMatrix(dim, entries, n_modes=2)
        t, r = np.cos(theta) * np.exp(1j * phases[0]), np.sin(theta) * np.exp(1j * phases[1])
        bs = BeamSplitterParams(t, r, phases[2])
        pulled = lo.pullback_charfunc(
            qe.two_mode_charfunc_grid(rho, S0, extent=1.5, points=5), bs
        )
        direct = qe.two_mode_charfunc_grid(
            lo.apply_beamsplitter(rho, bs), S0, extent=1.5, points=5
        )
        assert np.max(np.abs(pulled.values - direct.values)) < 1e-12

    def test_trust_radius_translated(self):
        rho = fc.tensor(fc.make_fock(2, 2), fc.make_fock(0, 2))
        cf = qe.two_mode_charfunc_grid(rho, S0, extent=1e-5, points=3)
        with pytest.raises(TrustRadiusExceeded):
            lo.pullback_charfunc(
                lo.CharFuncGrid(np.linspace(-4, 4, 3), cf.values, cf.filter, cf.source),
                BeamSplitterParams(SQ2, SQ2),
            )


class TestAttenuateCharfunc:
    def test_p_filter_pure_scaling(self):
        # with the flat-vacuum filter the channel is pure argument scaling
        rho = fc.make_coherent(0.9, 20)
        f = FilterSpec.s_param(1.0)
        state_cf = lambda b: filtered_charfunc(rho, f, b)
        t = SQ2
        for beta in [0.4, 1.0 - 0.6j]:
            assert lo.attenuate_charfunc(state_cf, f, t, beta) == pytest.approx(
                state_cf(t * beta), abs=1e-12
            )

    def test_matches_fock_channel(self):
        rng = np.random.default_rng(55)
        rho = random_density(14, occupied=6, rng=rng)
        f = FilterSpec.s_param(0.0)
        t = 0.7
        out = lo.attenuate(rho, t**2)
        for beta in [0.3, 0.8 + 0.5j, -1.2j]:
            lhs = lo.attenuate_charfunc(
                lambda b: filtered_charfunc(rho, f, b), f, t, beta
            )
            rhs = filtered_charfunc(out, f, beta)
            assert abs(lhs - rhs) < 1e-10

    def test_value_at_zero(self):
        rho = fc.make_thermal(0.5, 30)
        f = FilterSpec.s_param(-1.0)
        val = lo.attenuate_charfunc(
            lambda b: filtered_charfunc(rho, f, b), f, 0.8, 0.0
        )
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_gain_rejected(self):
        with pytest.raises(GainNotAllowed):
            lo.attenuate_charfunc(lambda b: 1.0, S0, 1.5, 0.3)
        with pytest.raises(GainNotAllowed):
            lo.attenuate_charfunc(lambda b: 1.0, S0, complex("nan"), 0.3)
