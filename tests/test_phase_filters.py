import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from phaselab import fock_core as fc
from phaselab import phase_filters as pf
from phaselab import quasiprob_engine as qe
from phaselab.errors import CutoffTooSmall, NonFiniteArgument

from _support import random_density


def charfunc_oracle(rho, beta, dim=45):
    """Tr(rho expm(beta a^dag - beta* a)) with generous headroom."""
    big = fc.embed(rho, dim)
    a = fc.annihilation(dim)
    d = expm(beta * a.conj().T - np.conj(beta) * a)
    return np.trace(big.entries @ d)


class TestFilterSpec:
    def test_wigner_filter_is_identity(self):
        f = pf.FilterSpec.s_param(0.0)
        for beta in [0.0, 1.0, 0.3 - 2.0j]:
            assert pf.eval_filter(f, beta) == 1.0

    def test_p_filter_value(self):
        assert pf.eval_filter(pf.FilterSpec.s_param(1.0), 1.0) == pytest.approx(
            np.exp(0.5)
        )

    def test_general_series_value(self):
        f = pf.FilterSpec.general({(2, 0): 1.0})
        assert pf.eval_filter(f, 1.0) == pytest.approx(np.e)

    def test_c00_rejected(self):
        with pytest.raises(ValueError):
            pf.FilterSpec.general({(0, 0): 0.5})

    def test_s_reduction(self):
        assert pf.FilterSpec.general({(1, 1): 0.25}).as_s() == pytest.approx(0.5)
        assert pf.FilterSpec.general({(2, 0): 0.1}).as_s() is None
        assert pf.FilterSpec.s_param(-1.0).as_s() == -1.0

    def test_json_roundtrip(self):
        for f in [
            pf.FilterSpec.s_param(0.5),
            pf.FilterSpec.general({(2, 1): 0.3 - 0.1j, (1, 0): 1j}),
        ]:
            assert pf.filter_from_json(f.describe()) == f


class TestSymmetricCharfunc:
    def test_vacuum(self):
        rho = fc.make_fock(0, 10)
        for beta in [0.5, 1.0 - 0.7j, 2.0j]:
            assert pf.symmetric_charfunc(rho, beta) == pytest.approx(
                np.exp(-abs(beta) ** 2 / 2), abs=1e-12
            )

    def test_trace_at_zero(self):
        for rho in [fc.make_thermal(0.8, 40), random_density(10, rng=np.random.default_rng(5))]:
            assert pf.symmetric_charfunc(rho, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_single_photon_laguerre(self):
        rho = fc.make_fock(1, 10)
        beta = 0.8 + 0.4j
        x = abs(beta) ** 2
        assert pf.symmetric_charfunc(rho, beta) == pytest.approx(
            (1 - x) * np.exp(-x / 2), abs=1e-12
        )

    def test_matches_matrix_exponential_oracle(self):
        rng = np.random.default_rng(17)
        for occ in (5, 8):
            rho = random_density(20, occupied=occ, rng=rng)
            for beta in [0.3, 1.2 - 0.9j, -2.0 + 1.5j]:
                assert abs(
                    pf.symmetric_charfunc(rho, beta) - charfunc_oracle(rho, beta)
                ) < 1e-8

    def test_trust_radius_on_truncating_state(self):
        # a state with weight on its top level cannot be displaced far
        rho = fc.make_fock(3, 3)
        with pytest.raises(CutoffTooSmall):
            pf.symmetric_charfunc(rho, 2.0)

    def test_non_finite_beta_rejected(self):
        rho = fc.make_fock(0, 5)
        with pytest.raises(NonFiniteArgument):
            pf.symmetric_charfunc(rho, float("nan"))
        _, betas = qe.lattice(6.0, 128)
        betas[7, 9] = complex(float("inf"), 0.0)
        with pytest.raises(NonFiniteArgument):
            pf.symmetric_charfunc(rho, betas)

    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 31),
        radius=st.floats(0.0, 8.5),
        angle=st.floats(0.0, 2 * np.pi),
    )
    @settings(max_examples=60, deadline=None)
    def test_band_sum_matches_laguerre_elements(self, seed, d, radius, angle):
        # one empty level above a dense block: no trust check applies
        rho = random_density(d + 1, occupied=d, rng=np.random.default_rng(seed))
        beta = radius * np.exp(1j * angle)
        elements = np.array(
            [[fc.displacement_element(m, n, beta) for n in range(d)] for m in range(d)]
        )
        # Tr(rho D) = sum_{n,m} rho[n, m] <m|D|n>
        expected = np.sum(rho.entries[:d, :d].T * elements)
        assert abs(pf.symmetric_charfunc(rho, beta) - expected) < 1e-12
        assert np.max(np.abs(pf.displacement_stack(d, beta)[:, :, 0] - elements)) < 1e-12

    def test_lattice_memory_linear_in_points(self):
        # a (d, d, N) displacement stack would take 252 MB here
        rho = random_density(32, occupied=31, rng=np.random.default_rng(3))
        tracemalloc.start()
        try:
            qe.charfunc_grid(rho, pf.FilterSpec.s_param(0.0), 6.0, 128)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20


class TestFilteredCharfunc:
    def test_vacuum_p_filter_is_one(self):
        rho = fc.make_fock(0, 10)
        f = pf.FilterSpec.s_param(1.0)
        for beta in [0.3, 1.5j, -2.0 + 1.0j]:
            assert pf.filtered_charfunc(rho, f, beta) == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_wigner_closed_form(self):
        rho = fc.make_fock(0, 10)
        assert pf.filtered_charfunc(rho, pf.FilterSpec.s_param(0.0), 1.0) == pytest.approx(
            np.exp(-0.5), abs=1e-12
        )

    def test_unit_at_zero(self):
        rho = fc.make_thermal(1.0, 40)
        f = pf.FilterSpec.general({(2, 0): 0.2, (1, 1): -0.3})
        assert pf.filtered_charfunc(rho, f, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_sparam_is_symmetric_times_gaussian(self):
        rho = fc.make_coherent(0.6 - 0.2j, 20)
        s = 0.7
        for beta in [0.4, 1.0 + 0.5j]:
            assert pf.filtered_charfunc(
                rho, pf.FilterSpec.s_param(s), beta
            ) == pytest.approx(
                pf.symmetric_charfunc(rho, beta) * np.exp(s * abs(beta) ** 2 / 2)
            )

    def test_hermiticity(self):
        rho = random_density(12, occupied=6, rng=np.random.default_rng(9))
        f = pf.FilterSpec.s_param(-0.5)
        for beta in [0.7 + 0.2j, -1.1 + 0.9j]:
            assert pf.filtered_charfunc(rho, f, -beta) == pytest.approx(
                np.conj(pf.filtered_charfunc(rho, f, beta)), abs=1e-12
            )


class TestTwoModeCharfunc:
    def test_double_vacuum_p_filter(self):
        rho = fc.tensor(fc.make_fock(0, 6), fc.make_fock(0, 6))
        f = pf.FilterSpec.s_param(1.0)
        assert pf.two_mode_charfunc(rho, f, 0.8, -0.5j) == pytest.approx(1.0, abs=1e-12)

    def test_marginal_at_zero(self):
        rho1 = fc.make_coherent(0.5, 16)
        rho2 = fc.make_thermal(0.2, 16)
        rho = fc.tensor(rho1, rho2)
        f = pf.FilterSpec.s_param(0.0)
        beta = 0.6 + 0.3j
        assert pf.two_mode_charfunc(rho, f, beta, 0.0) == pytest.approx(
            pf.filtered_charfunc(rho1, f, beta), abs=1e-10
        )

    def test_unit_at_origin(self):
        rho = fc.tensor(fc.make_fock(1, 6), fc.make_fock(0, 6))
        f = pf.FilterSpec.general({(1, 1): 0.2})
        assert pf.two_mode_charfunc(rho, f, 0.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_product_state_factorizes(self):
        rng = np.random.default_rng(23)
        r1 = random_density(8, occupied=3, rng=rng)
        r2 = random_density(8, occupied=3, rng=rng)
        rho = fc.tensor(r1, r2)
        f = pf.FilterSpec.s_param(-1.0)
        b3, b4 = 0.9 - 0.3j, -0.4 + 0.8j
        assert pf.two_mode_charfunc(rho, f, b3, b4) == pytest.approx(
            pf.filtered_charfunc(r1, f, b3) * pf.filtered_charfunc(r2, f, b4),
            abs=1e-12,
        )

    def test_coherent_pair_matches_closed_form(self):
        # each mode keeps every level whose row or column holds an entry above
        # the floor; population sums dropped levels and gave errors up to 4.7e-8
        a1, a2 = 0.8, 0.6
        rho = fc.tensor(fc.make_coherent(a1, 20), fc.make_coherent(a2, 20))
        _, betas = qe.lattice(2.5, 9)
        b3, b4 = betas[:, :, None, None], betas[None, None, :, :]
        got = pf.two_mode_charfunc(rho, pf.FilterSpec.s_param(0.0), b3, b4)

        def chi(beta, alpha):
            return np.exp(-abs(beta) ** 2 / 2 + beta * np.conj(alpha) - np.conj(beta) * alpha)

        assert np.max(np.abs(got - chi(b3, a1) * chi(b4, a2))) < 1e-12

    def test_top_level_guard_per_mode(self):
        # mode 2 occupies its top level: its betas are checked, mode 1's are not
        rho = fc.tensor(fc.make_fock(0, 4), fc.make_fock(4, 4))
        f = pf.FilterSpec.s_param(0.0)
        assert pf.two_mode_charfunc(rho, f, 3.0, 0.0) == pytest.approx(np.exp(-4.5), abs=1e-15)
        with pytest.raises(CutoffTooSmall):
            pf.two_mode_charfunc(rho, f, 0.0, 3.0)


class TestVacuumCharfunc:
    def test_p_filter_identically_one(self):
        f = pf.FilterSpec.s_param(1.0)
        betas = np.linspace(-3, 3, 25) + 1j * np.linspace(-3, 3, 25)[::-1]
        assert np.max(np.abs(pf.vacuum_charfunc(f, betas) - 1.0)) == 0.0

    def test_wigner_value(self):
        assert pf.vacuum_charfunc(pf.FilterSpec.s_param(0.0), 1.0) == pytest.approx(
            np.exp(-0.5)
        )

    def test_q_value(self):
        assert pf.vacuum_charfunc(pf.FilterSpec.s_param(-1.0), 1.0) == pytest.approx(
            np.exp(-1.0)
        )
