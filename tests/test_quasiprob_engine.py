import numpy as np
import pytest

from phaselab import fock_core as fc
from phaselab import quasiprob_engine as qe
from phaselab.errors import (
    CutoffTooSmall,
    GridTooCoarse,
    NonFiniteArgument,
    SingularPFunction,
)
from phaselab.phase_filters import FilterSpec

from _support import random_density

S0 = FilterSpec.s_param(0.0)
SQ = FilterSpec.s_param(-1.0)
SP = FilterSpec.s_param(1.0)


def wigner_grid(rho, **kw):
    return qe.quasiprob_transform(qe.charfunc_grid(rho, S0), **kw)


class TestTransform:
    def test_vacuum_wigner_origin(self):
        grid = wigner_grid(fc.make_fock(0, 20))
        assert grid.at_origin() == pytest.approx(2 / np.pi, abs=1e-6)

    def test_vacuum_wigner_closed_form_everywhere(self):
        # Gaussian transform oracle: (2/pi) e^{-2|a|^2}
        grid = wigner_grid(fc.make_fock(0, 20))
        x, y = np.meshgrid(grid.axis, grid.axis)
        expected = (2 / np.pi) * np.exp(-2 * (x**2 + y**2))
        assert np.max(np.abs(grid.values - expected)) < 1e-6

    def test_single_photon_origin(self):
        grid = wigner_grid(fc.make_fock(1, 20))
        assert grid.at_origin() == pytest.approx(-2 / np.pi, abs=1e-6)

    def test_singular_p_function(self):
        with pytest.raises(SingularPFunction):
            qe.quasiprob_transform(qe.charfunc_grid(fc.make_fock(1, 20), SP))

    def test_nyquist_guard(self):
        cf = qe.charfunc_grid(fc.make_fock(0, 20), S0, extent=6.0, points=16)
        with pytest.raises(GridTooCoarse):
            qe.quasiprob_transform(cf, alpha_extent=4.0)

    @pytest.mark.parametrize("extent, points", [(4.0, 1), (4.0, 0), (0.0, 129)])
    def test_degenerate_alpha_grid(self, extent, points):
        # the CLI's grid rule: extent > 0 and at least two steps
        cf = qe.charfunc_grid(fc.make_fock(0, 20), S0)
        with pytest.raises(GridTooCoarse):
            qe.quasiprob_transform(cf, extent, points)

    def test_volume_integral(self):
        for rho in [fc.make_fock(0, 20), fc.make_fock(1, 20), fc.make_thermal(0.8, 40)]:
            assert wigner_grid(rho).volume_integral == pytest.approx(1.0, abs=1e-3)

    def test_q_transform_matches_closed_form(self):
        rng = np.random.default_rng(31)
        rho = random_density(10, occupied=5, rng=rng)
        cf = qe.charfunc_grid(rho, SQ, extent=7.0, points=160)
        grid = qe.quasiprob_transform(cf)
        x, y = np.meshgrid(grid.axis, grid.axis)
        alphas = x + 1j * y
        mask = np.abs(alphas) <= 2.0
        direct = qe.q_function(fc.embed(rho, 26), alphas[mask])
        assert np.max(np.abs(grid.values[mask] - direct)) < 1e-6

    def test_cached_kernels_reproduce_uncached_transform(self):
        cf = qe.charfunc_grid(fc.make_thermal(0.6, 40), S0)
        qe._transform_kernels.cache_clear()
        fresh = qe.quasiprob_transform(cf)
        hits = qe._transform_kernels.cache_info().hits
        cached = qe.quasiprob_transform(cf)
        assert qe._transform_kernels.cache_info().hits == hits + 1
        assert np.array_equal(cached.values, fresh.values)
        assert cached.volume_integral == fresh.volume_integral
        key = (cf.axis.tobytes(), 4.0, 129)
        for arr in qe._transform_kernels(*key):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            cached.axis[0] = 0.0

    def test_q_grid_nonnegative(self):
        rho = fc.make_fock(2, 20)
        grid = qe.quasiprob_transform(qe.charfunc_grid(rho, SQ))
        assert grid.values.min() >= -1e-9


class TestQFunction:
    def test_vacuum_origin(self):
        assert qe.q_function(fc.make_fock(0, 10), 0.0) == pytest.approx(1 / np.pi)

    def test_single_photon_origin(self):
        assert qe.q_function(fc.make_fock(1, 10), 0.0) == 0.0

    def test_coherent_self_overlap(self):
        alpha = 0.9 + 0.2j
        assert qe.q_function(fc.make_coherent(alpha, 25), alpha) == pytest.approx(
            1 / np.pi
        )

    def test_leakage_guard(self):
        # the state occupies its top level, so it may stand for a larger one
        with pytest.raises(CutoffTooSmall):
            qe.q_function(fc.make_fock(5, 5), 4.0)

    def test_non_finite_alpha_rejected(self):
        with pytest.raises(NonFiniteArgument):
            qe.q_function(fc.make_fock(0, 5), float("nan"))

    @pytest.mark.parametrize("alpha", [2.0, 3.0j])
    def test_exact_below_an_empty_top_level(self, alpha):
        # Q of |1> is x e^{-x} / pi, x = |alpha|^2, at any cutoff that holds it
        x = abs(alpha) ** 2
        assert qe.q_function(fc.make_fock(1, 20), alpha) == pytest.approx(
            x * np.exp(-x) / np.pi, rel=1e-12
        )

    def test_matches_coherent_vector_overlaps(self):
        rho = random_density(14, occupied=12, rng=np.random.default_rng(41))
        ax = np.linspace(-2.0, 2.0, 9)
        alphas = ax[None, :] + 1j * ax[:, None]
        got = qe.q_function(rho, alphas)
        for a, q in zip(alphas.ravel(), got.ravel()):
            c = fc.coherent_vector(a, rho.cutoff)
            assert abs(q - np.vdot(c, rho.entries @ c).real / np.pi) < 1e-13


class TestAttenuatedPhotonWigner:
    def test_origin_values(self):
        assert qe.attenuated_photon_wigner(1.0, 0.0) == pytest.approx(-2 / np.pi)
        assert qe.attenuated_photon_wigner(0.5, 0.0) == pytest.approx(0.0)

    def test_vacuum_limit(self):
        alpha = 0.7 - 0.3j
        assert qe.attenuated_photon_wigner(0.0, alpha) == pytest.approx(
            (2 / np.pi) * np.exp(-2 * abs(alpha) ** 2)
        )


class TestQuadratureDistribution:
    def test_vacuum_marginal_gaussian(self):
        # Gaussian marginal oracle: variance 1/4 in this kernel convention
        dist = qe.quadrature_distribution(wigner_grid(fc.make_fock(0, 20)), 0.0)
        xs = np.array([x for x, _ in dist])
        ps = np.array([p for _, p in dist])
        dx = xs[1] - xs[0]
        assert ps.sum() * dx == pytest.approx(1.0, abs=1e-3)
        assert (ps * xs).sum() * dx == pytest.approx(0.0, abs=1e-6)
        assert (ps * xs**2).sum() * dx == pytest.approx(0.25, abs=1e-3)
        expected = np.sqrt(2 / np.pi) * np.exp(-2 * xs**2)
        assert np.max(np.abs(ps - expected)) < 1e-5

    def test_vacuum_marginal_rotation_invariant(self):
        grid = wigner_grid(fc.make_fock(0, 20))
        d0 = np.array([p for _, p in qe.quadrature_distribution(grid, 0.0)])
        d1 = np.array([p for _, p in qe.quadrature_distribution(grid, 0.9)])
        assert np.max(np.abs(d0 - d1)) < 1e-4

    def test_single_photon_node_at_origin(self):
        # analytic Fock-1 quadrature density vanishes at x = 0
        dist = qe.quadrature_distribution(wigner_grid(fc.make_fock(1, 20)), 0.0)
        origin = min(dist, key=lambda t: abs(t[0]))
        assert abs(origin[1]) < 1e-4

    def test_normalization_generic_state(self):
        dist = qe.quadrature_distribution(wigner_grid(fc.make_thermal(0.6, 40)), 0.3)
        xs = np.array([x for x, _ in dist])
        ps = np.array([p for _, p in dist])
        assert ps.sum() * (xs[1] - xs[0]) == pytest.approx(1.0, abs=1e-3)
