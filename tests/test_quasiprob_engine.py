import gc
import re
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import eval_hermite, eval_laguerre

from phaselab import fock_core as fc
from phaselab import phase_filters as pf
from phaselab import quasiprob_engine as qe
from phaselab.linear_optics import attenuate
from phaselab.errors import (
    CutoffTooSmall,
    DimensionMismatch,
    GridTooCoarse,
    ImaginaryResidue,
    NonFiniteArgument,
    SingularPFunction,
)
from phaselab.phase_filters import FilterSpec

from _support import displacement_element, evaluation_order_bound, even_cat, random_density
from _support import repeated_radii
from _support import rotation_closed, spy

S0 = FilterSpec.s_param(0.0)
SQ = FilterSpec.s_param(-1.0)
SP = FilterSpec.s_param(1.0)


def wigner_grid(rho, **kw):
    return qe.quasiprob_transform(qe.charfunc_grid(rho, S0), **kw)


class TestLattice:
    @given(extent=st.floats(1e-3, 1e3), points=st.integers(2, 300))
    @settings(max_examples=200, deadline=None)
    def test_axis_is_exactly_antisymmetric(self, extent, points):
        axis, mesh = qe.lattice(extent, points)
        assert np.array_equal(axis[::-1], -axis)
        assert np.array_equal(mesh.ravel()[::-1], -mesh.ravel())
        assert np.array_equal(np.rot90(mesh), 1j * mesh)
        assert axis[0] == -extent and axis[-1] == extent
        if points % 2:
            assert axis[points // 2] == 0.0 and not np.signbit(axis[points // 2])
        assert np.max(np.abs(axis - np.linspace(-extent, extent, points))) <= 4 * np.spacing(extent)

    def test_meshes_are_kept_read_only(self):
        # one axis and mesh per (extent, points), shared by every caller
        for again in (qe.lattice(6.0, 128), qe.lattice(6.0, 128), qe.lattice(6, 128)):
            for kept, arr in zip(qe.lattice(6.0, 128), again):
                assert arr is kept and not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 0.0

    def test_default_lattice_kernel_sees_a_quarter_of_the_points(self, monkeypatch):
        # a lattice() mesh is closed under b -> ib: one point of each four-point orbit
        # reaches the band recurrence, 64^2 of the 128^2 beta lattice for the characteristic
        # function and for T(alpha, s), and 64 * 65 plus the centre of the 129^2 alpha
        # lattice, in the same one kernel call
        sizes = spy(monkeypatch, pf, "_class_sums", lambda e, p, *args: p.size)
        rho = random_density(8, occupied=7)
        qe.charfunc_grid(rho, S0).values
        qe.quasiprob_pointwise(rho, qe.lattice(6.0, 128)[1], -0.5)
        qe.quasiprob_pointwise(rho, qe.lattice(4.0, 129)[1], -0.5)
        assert sizes == [4096, 4096, 64 * 65 + 1]

    @pytest.mark.parametrize("extent", [np.inf, -np.inf, np.nan, 1e308])
    def test_non_finite_extent_rejected(self, extent):
        # linspace spans twice the extent: a mesh is made, and kept, only when that is finite
        kept = dict(pf._kept_meshes)
        with pytest.raises(NonFiniteArgument):
            qe.lattice(extent, 5)
        with pytest.raises(NonFiniteArgument):
            qe.charfunc_grid(fc.make_fock(0, 5), S0, extent, 5)
        # no plan is added, and every plan kept is the one that was there
        assert pf._kept_meshes.keys() == kept.keys()
        assert all(pf._kept_meshes[key] is plan for key, plan in kept.items())

    @pytest.mark.parametrize("points", [129.0, 9.7, -3, True, np.float64(129)],
                             ids=["129.0", "9.7", "-3", "True", "float64-129"])
    def test_point_counts_that_are_not_counts_rejected(self, points):
        # 129.0 is not the count 129 even once lattice(4.0, 129) is kept, and 9.7 is not cut
        # to 9: every grid size reaches _axis, which raises before an axis or mesh is made
        rho = fc.make_fock(1, 20)
        # the alpha grid is checked first: the sourceless grid's values are never sampled
        sourceless = replace(qe.charfunc_grid(rho, S0), source=None)
        qe.lattice(4.0, 129)
        kept = set(pf._kept_meshes)
        for make in (lambda: qe.lattice(4.0, points),
                     lambda: qe.charfunc_grid(rho, S0, 6.0, points),
                     lambda: qe.two_mode_charfunc_grid(fc.tensor(rho, rho), S0, 2.0, points),
                     lambda: qe.quasiprob_transform(qe.charfunc_grid(rho, S0), 4.0, points),
                     lambda: qe.quasiprob_transform(sourceless, 4.0, points)):
            with pytest.raises(GridTooCoarse):
                make()
        assert set(pf._kept_meshes) == kept and "values" not in vars(sourceless)

    def test_integer_types_share_one_lattice(self):
        # one mesh and plan per value: an int extent or a numpy count finds the kept pair
        kept = qe.lattice(6.0, 128)
        for again in (qe.lattice(6, 128), qe.lattice(np.float64(6.0), np.int64(128))):
            assert again[0] is kept[0] and again[1] is kept[1]
        axis, mesh = qe.lattice(4.0, 0)
        assert axis.size == 0 and mesh.shape == (0, 0)

    @given(extent=st.floats(1e-3, 12.0), points=st.integers(2, 300))
    @settings(max_examples=50, deadline=None)
    def test_kept_plan_is_the_plan_of_a_copy(self, extent, points):
        # the plan lattice() keeps equals the one _orbits builds from a copy of the mesh, and
        # the kernel gives the same bits on the mesh and on the copy with no row table
        mesh = qe.lattice(extent, points)[1]
        copy = mesh.copy()
        plan = pf._kept(mesh)
        assert plan is pf._kept_meshes[id(mesh)]
        closed, n, rows, cols, block, (distinct, inv) = pf._orbits(copy.ravel())
        assert plan[:4] == (closed, n, rows, cols) and closed
        for kept, built in zip((plan[4], *plan[5]), (block, distinct, inv)):
            assert np.array_equal(kept, built) and not kept.flags.writeable
        rho = random_density(8, occupied=5, rng=np.random.default_rng(points))
        assert np.array_equal(pf.symmetric_charfunc(rho, mesh),
                              fresh(pf.symmetric_charfunc, rho, copy))
        assert np.array_equal(qe.quasiprob_pointwise(rho, mesh, -0.4),
                              fresh(qe.quasiprob_pointwise, rho, copy, -0.4))

    def test_non_finite_copy_of_a_kept_mesh_rejected(self):
        # a kept mesh is finite and not scanned again; a copy of one is scanned
        rho = random_density(8, occupied=7)
        for mesh in (qe.lattice(4.0, 129)[1], qe.lattice(6.0, 128)[1]):
            for bad in (np.nan, complex(0.0, np.inf)):
                copy = mesh.copy()
                copy[5, 7] = bad
                with pytest.raises(NonFiniteArgument):
                    qe.quasiprob_pointwise(rho, copy, -0.5)
                with pytest.raises(NonFiniteArgument):
                    pf.symmetric_charfunc(rho, copy.ravel())

    def test_kept_mesh_is_not_scanned(self, monkeypatch):
        # the kernel skips the finiteness scan of a kept mesh, which is finite (``_axis``),
        # and scans a copy of one once
        sizes = spy(monkeypatch, pf, "require_finite", lambda value, name: np.size(value))
        rho = random_density(8, occupied=7)
        calls = ((pf.symmetric_charfunc, qe.lattice(6.0, 128)[1]),
                 (lambda r, p: qe.quasiprob_pointwise(r, p, -0.5), qe.lattice(4.0, 129)[1]))
        for call, mesh in calls:
            call(rho, mesh)
        assert not {128**2, 129**2} & set(sizes)
        for call, mesh in calls:
            call(rho, mesh.copy())
        assert [n for n in sizes if n in (128**2, 129**2)] == [128**2, 129**2]

    def test_transform_axis_is_the_lattice_axis(self):
        grid = qe.quasiprob_transform(qe.charfunc_grid(fc.make_fock(1, 20), S0), 4.0, 100)
        assert np.array_equal(grid.axis, qe.lattice(4.0, 100)[0])
        assert np.array_equal(wigner_grid(fc.make_fock(0, 20)).axis, np.linspace(-4, 4, 129))


class TestTransform:
    def test_vacuum_wigner_origin(self):
        grid = wigner_grid(fc.make_fock(0, 20))
        assert grid.at_origin() == pytest.approx(2 / np.pi, abs=1e-6)

    def test_origin_off_an_even_axis_rejected(self):
        # 128 points symmetric about 0 straddle the origin
        grid = wigner_grid(fc.make_fock(0, 20), alpha_points=128)
        assert np.min(np.abs(grid.axis)) > 1e-3
        with pytest.raises(GridTooCoarse, match="does not contain the origin"):
            grid.at_origin()

    def test_vacuum_wigner_closed_form_everywhere(self):
        # Gaussian transform oracle: (2/pi) e^{-2|a|^2}
        grid = wigner_grid(fc.make_fock(0, 20))
        x, y = np.meshgrid(grid.axis, grid.axis)
        expected = (2 / np.pi) * np.exp(-2 * (x**2 + y**2))
        assert np.max(np.abs(grid.values - expected)) < 1e-6

    def test_fourier_vacuum_wigner_closed_form(self):
        # the same oracle on the lattice route: the 6:128 grid without its source
        grid = qe.quasiprob_transform(replace(qe.charfunc_grid(fc.make_fock(0, 20), S0), source=None))
        x, y = np.meshgrid(grid.axis, grid.axis)
        expected = (2 / np.pi) * np.exp(-2 * (x**2 + y**2))
        assert np.max(np.abs(grid.values - expected)) < 1e-6

    def test_single_photon_origin(self):
        grid = wigner_grid(fc.make_fock(1, 20))
        assert grid.at_origin() == pytest.approx(-2 / np.pi, abs=1e-6)

    def test_singular_p_function(self):
        with pytest.raises(SingularPFunction):
            qe.quasiprob_transform(qe.charfunc_grid(fc.make_fock(1, 20), SP))

    @pytest.mark.parametrize("s, error", [(0.5, SingularPFunction), (0.0, ImaginaryResidue)])
    def test_nan_fails_the_guards(self, s, error):
        # a hand-made lattice holding NaN: the boundary check (s > 0) or the residue
        # check (s <= 0) rejects it
        cf = qe.charfunc_grid(fc.make_fock(0, 20), FilterSpec.s_param(-1.0))
        values = cf.values.copy()
        values[0, 0] = values[64, 64] = np.nan
        with pytest.raises(error):
            qe.quasiprob_transform(qe.CharFuncGrid(cf.axis, values, FilterSpec.s_param(s), None))

    def test_imaginary_residue(self):
        # Omega = exp(-0.3 |b|^2 + 0.05i b^2) breaks Omega(-b) = conj(Omega(b)), so the
        # transform of |1> keeps an imaginary part of 1.6e-2
        f = FilterSpec.general({(1, 1): -0.3, (2, 0): 0.05j})
        with pytest.raises(ImaginaryResidue):
            qe.quasiprob_transform(qe.charfunc_grid(fc.make_fock(1, 20), f))

    def test_nyquist_guard(self):
        cf = qe.charfunc_grid(fc.make_fock(0, 20), S0, extent=6.0, points=16)
        with pytest.raises(GridTooCoarse):
            qe.quasiprob_transform(replace(cf, source=None), alpha_extent=4.0)

    @pytest.mark.parametrize("extent, points", [(4.0, 1), (4.0, 0), (0.0, 129)])
    def test_degenerate_alpha_grid(self, extent, points):
        # the CLI's grid rule: extent > 0 and at least two steps
        cf = qe.charfunc_grid(fc.make_fock(0, 20), S0)
        with pytest.raises(GridTooCoarse):
            qe.quasiprob_transform(cf, extent, points)

    def test_one_point_beta_lattice(self):
        cf = qe.charfunc_grid(fc.make_fock(0, 20), S0, extent=6.0, points=1)
        with pytest.raises(GridTooCoarse):
            qe.quasiprob_transform(replace(cf, source=None))

    @pytest.mark.parametrize("axis", [np.zeros(128), np.full(128, np.nan)], ids=["0", "nan"])
    def test_fourier_route_needs_a_nonzero_step(self, axis):
        # a beta step of 0 would give an all-zero grid of volume 0, and a NaN one a NaN sum
        cf = qe.CharFuncGrid(axis, np.ones((128, 128), complex), S0, None)
        with pytest.raises(GridTooCoarse):
            qe.quasiprob_transform(cf)

    def test_descending_beta_axis(self):
        # a negative step within the bound is the same Fourier sum in the reverse order
        rho = fc.make_fock(1, 20)
        axis = qe._axis(-6.0, 128)
        down = qe.CharFuncGrid(axis, pf.symmetric_charfunc(rho, axis + 1j * axis[:, None]),
                               S0, None)
        got = qe.quasiprob_transform(down)
        want = qe.quasiprob_transform(replace(qe.charfunc_grid(rho, S0), source=None))
        assert np.array_equal(got.axis, want.axis)
        assert np.max(np.abs(got.values - want.values)) <= 1e-12
        # and the photon's Wigner function within the 6:128 lattice's own error, 7.1e-8
        alpha = got.axis + 1j * got.axis[:, None]
        assert np.max(np.abs(got.values - qe.attenuated_photon_wigner(1.0, alpha))) <= 1e-7

    @pytest.mark.parametrize("extent, points", [(6.0, 1), (6.0, 16), (60.0, 128)])
    def test_exact_route_reads_no_beta_axis(self, extent, points):
        # a sourced s <= 0 grid is answered on the alpha lattice: a one-point or sub-Nyquist
        # beta axis gives the default grid bit for bit
        for rho, s in [(fc.make_fock(0, 20), 0.0), (random_density(12, occupied=11), -0.6)]:
            f = FilterSpec.s_param(s)
            got = qe.quasiprob_transform(qe.charfunc_grid(rho, f, extent, points))
            want = qe.quasiprob_transform(qe.charfunc_grid(rho, f))
            assert np.array_equal(got.values, want.values)
            assert got.volume_integral == want.volume_integral

    @pytest.mark.parametrize("points", [1, 16])
    @pytest.mark.parametrize("f", [FilterSpec.s_param(0.5),
                                   FilterSpec.general({(1, 1): -0.25, (2, 2): -0.01})],
                             ids=["s>0", "series"])
    def test_fourier_route_checks_its_beta_axis(self, f, points):
        cf = qe.charfunc_grid(fc.make_fock(0, 20), f, extent=6.0, points=points)
        with pytest.raises(GridTooCoarse):
            qe.quasiprob_transform(cf)
        assert "values" not in vars(cf)  # rejected before the lattice is sampled

    def test_volume_integral(self):
        for rho in [fc.make_fock(0, 20), fc.make_fock(1, 20), fc.make_thermal(0.8, 40)]:
            assert wigner_grid(rho).volume_integral == pytest.approx(1.0, abs=1e-3)

    def test_fourier_volume_integral(self):
        for rho in [fc.make_fock(0, 20), fc.make_fock(1, 20), fc.make_thermal(0.8, 40)]:
            cf = replace(qe.charfunc_grid(rho, S0), source=None)
            assert qe.quasiprob_transform(cf).volume_integral == pytest.approx(1.0, abs=1e-3)

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

    def test_fourier_q_transform_matches_closed_form(self):
        # the same oracle on the lattice route: the 7:160 grid at s = -1 without its source
        rho = random_density(10, occupied=5, rng=np.random.default_rng(31))
        cf = replace(qe.charfunc_grid(rho, SQ, extent=7.0, points=160), source=None)
        grid = qe.quasiprob_transform(cf)
        x, y = np.meshgrid(grid.axis, grid.axis)
        alphas = x + 1j * y
        mask = np.abs(alphas) <= 2.0
        direct = qe.q_function(fc.embed(rho, 26), alphas[mask])
        assert np.max(np.abs(grid.values[mask] - direct)) < 1e-6

    def test_fourier_transform_is_repeatable(self, monkeypatch):
        # the kernel factors are built on every Fourier sum, from the beta axis itself, and
        # each build gives the same bits
        calls = spy(monkeypatch, qe, "_transform_kernels", lambda *args: args)
        cf = replace(qe.charfunc_grid(fc.make_thermal(0.6, 40), S0), source=None)
        first = qe.quasiprob_transform(cf)
        again = qe.quasiprob_transform(cf)
        assert [args[1:] for args in calls] == [(4.0, 129)] * 2
        assert all(np.array_equal(args[0], cf.axis) for args in calls)
        assert np.array_equal(again.values, first.values)
        assert again.volume_integral == first.volume_integral
        with pytest.raises(ValueError):
            again.axis[0] = 0.0

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
        # the state occupies its top level, but only its leakage records truncation, and that
        # is 0; the probe |4> loses 0.984 of its mass past cutoff 5, which no guard reads.
        # Q of |5> is x^5 e^{-x} / (5! pi), x = |alpha|^2
        assert qe.q_function(fc.make_fock(5, 5), 4.0) == pytest.approx(
            16.0**5 * np.exp(-16.0) / (120 * np.pi), rel=1e-14)

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


def coherent_ps(beta, alpha, s):
    return 2 / (np.pi * (1 - s)) * np.exp(-2 * np.abs(alpha - beta) ** 2 / (1 - s))


def thermal_ps(nbar, alpha, s):
    width = 1 - s + 2 * nbar
    return 2 / (np.pi * width) * np.exp(-2 * np.abs(alpha) ** 2 / width)


def fock_ps(n, alpha, s):
    # (2/(pi(1-s))) e^{-2|a|^2/(1-s)} q^n L_n(4|a|^2/(1-s^2)), q = (s+1)/(s-1), with the
    # Laguerre sum written in u = 4|a|^2/(1-s)^2 so that s = -1 (q = 0) needs no limit
    q = (s + 1) / (s - 1)
    u = 4 * np.abs(alpha) ** 2 / (1 - s) ** 2
    poly = sum(comb(n, j) * q ** (n - j) * u**j / factorial(j) for j in range(n + 1))
    return 2 / (np.pi * (1 - s)) * np.exp(-2 * np.abs(alpha) ** 2 / (1 - s)) * poly


def disk(radius):
    return st.tuples(st.floats(0.0, radius), st.floats(0.0, 2 * np.pi)).map(
        lambda p: p[0] * np.exp(1j * p[1])
    )


S_LEQ_0 = st.floats(-1.0, 0.0)
ALPHAS = st.lists(disk(3.0), min_size=1, max_size=6).map(np.array)
SEEDS = st.integers(0, 2**32 - 1)


class TestPointwise:
    @given(beta=disk(1.5), alpha=ALPHAS, s=S_LEQ_0)
    @settings(max_examples=40, deadline=None)
    def test_coherent_closed_form(self, beta, alpha, s):
        # at cutoff 40 the stored |beta| <= 1.5 state is exact to 1e-18
        got = qe.quasiprob_pointwise(fc.make_coherent(beta, 40), alpha, s)
        assert np.max(np.abs(got - coherent_ps(beta, alpha, s))) <= 1e-12

    @given(nbar=st.floats(0.0, 1.0), alpha=ALPHAS, s=S_LEQ_0)
    @settings(max_examples=40, deadline=None)
    def test_thermal_closed_form(self, nbar, alpha, s):
        got = qe.quasiprob_pointwise(fc.make_thermal(nbar, 60), alpha, s)
        assert np.max(np.abs(got - thermal_ps(nbar, alpha, s))) <= 1e-12

    @given(
        weights=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6).filter(
            lambda w: sum(w) > 0.1
        ),
        alpha=ALPHAS,
        s=S_LEQ_0,
    )
    @settings(max_examples=40, deadline=None)
    def test_fock_mixture_closed_form(self, weights, alpha, s):
        p = np.array(weights) / sum(weights)
        rho = fc.DensityMatrix(9, np.diag(np.pad(p, (0, 9 - len(p)))))
        want = sum(pn * fock_ps(n, alpha, s) for n, pn in enumerate(p))
        assert np.max(np.abs(qe.quasiprob_pointwise(rho, alpha, s) - want)) <= 1e-12

    @given(seed=SEEDS, occupied=st.integers(1, 14), alpha=ALPHAS, cat=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_q_function_at_s_minus_one(self, seed, occupied, alpha, cat):
        # an even cat state holds no odd band, so the band kernel skips them
        rng = np.random.default_rng(seed)
        if cat:
            rho = even_cat(rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform()), occupied, 15)
        else:
            rho = random_density(15, occupied=occupied, rng=rng)
        got = qe.quasiprob_pointwise(rho, alpha, -1.0)
        assert np.max(np.abs(got - qe.q_function(rho, alpha))) <= 1e-13

    @given(seed=SEEDS, occupied=st.integers(1, 3))
    @settings(max_examples=15, deadline=None)
    def test_lattice_transform_at_s_minus_half(self, seed, occupied):
        # the default lattices cut the characteristic function at |beta| = 6, where
        # a state on more levels keeps more weight: on 4 levels they are ~3e-10 off
        rho = random_density(8, occupied=occupied, rng=np.random.default_rng(seed))
        cf = replace(qe.charfunc_grid(rho, FilterSpec.s_param(-0.5)), source=None)
        grid = qe.quasiprob_transform(cf)
        alphas = grid.axis + 1j * grid.axis[:, None]
        got = qe.quasiprob_pointwise(rho, alphas, -0.5)
        assert np.max(np.abs(got - grid.values)) <= 1e-10

    @given(eta=st.floats(0.0, 1.0), cutoff=st.integers(1, 30))
    @settings(max_examples=60, deadline=None)
    def test_attenuated_photon_origin(self, eta, cutoff):
        rho = attenuate(fc.make_fock(1, cutoff), eta)
        got = qe.quasiprob_pointwise(rho, 0.0, 0.0)
        assert abs(got - 2 / np.pi * (1 - 2 * eta)) <= 4 * np.spacing(2 / np.pi)

    @given(seed=SEEDS, occupied=st.integers(1, 8), eta=st.floats(0.05, 1.0), s=S_LEQ_0,
           alpha=ALPHAS)
    @settings(max_examples=40, deadline=None)
    def test_attenuation_law(self, seed, occupied, eta, s, alpha):
        # P_s of the attenuated state is the rescaled P_s' of the input, s' = 1 - (1-s)/eta <= s
        rho = random_density(12, occupied=occupied, rng=np.random.default_rng(seed))
        lhs = qe.quasiprob_pointwise(attenuate(rho, eta), alpha, s)
        rhs = qe.quasiprob_pointwise(rho, alpha / np.sqrt(eta), 1 - (1 - s) / eta) / eta
        assert np.max(np.abs(lhs - rhs)) <= 1e-14

    @given(seed=SEEDS, occupied=st.integers(1, 8), eta=st.floats(0.05, 0.95), s=S_LEQ_0)
    @settings(max_examples=40, deadline=None)
    def test_naive_rescaling_fails_below_s_one(self, seed, occupied, eta, s):
        # the paper's attenuator theorem on states: for s <= 0, P_s does not attenuate
        # by the classical law eta^-1 P_s(alpha / sqrt(eta))
        rho = random_density(12, occupied=occupied, rng=np.random.default_rng(seed))
        _, alphas = qe.lattice(1.5, 5)
        lhs = qe.quasiprob_pointwise(attenuate(rho, eta), alphas, s)
        naive = qe.quasiprob_pointwise(rho, alphas / np.sqrt(eta), s) / eta
        assert np.max(np.abs(lhs - naive)) > 1e-6

    @given(seed=SEEDS, occupied=st.integers(1, 6), extent=st.floats(0.1, 1.5),
           points=st.integers(2, 5), s=S_LEQ_0)
    @settings(max_examples=15, deadline=None)
    def test_repeated_radii_match_points_and_elements(self, seed, occupied, extent, points, s):
        # P_s = (2 / (pi (1-s))) sum_j q^j <j|D(a)^dag rho D(a)|j>, q = (s+1)/(s-1), from
        # the closed-form <m|D(a)|j>; for |a|^2 <= 4.5 and m < 6 the terms j >= 50 hold < 1e-22
        rho = random_density(8, occupied=occupied, rng=np.random.default_rng(seed))
        e, weights = rho.entries[:occupied, :occupied], ((s + 1) / (s - 1)) ** np.arange(50)
        oracle = {}
        for alphas in repeated_radii(extent, points, seed):
            got = qe.quasiprob_pointwise(rho, alphas, s)
            assert got.shape == alphas.shape
            each = [qe.quasiprob_pointwise(rho, a, s) for a in alphas.ravel()]
            assert all(isinstance(v, float) for v in each)
            assert np.max(np.abs(got.ravel() - each)) <= 1e-13
            for a in alphas.ravel():
                if a not in oracle:
                    dm = np.array([
                        [displacement_element(m, j, a) for j in range(50)]
                        for m in range(occupied)
                    ])
                    diag = np.einsum("mj,mn,nj->j", dm.conj(), e, dm).real
                    oracle[a] = 2 / (np.pi * (1 - s)) * (weights @ diag)
            want = np.array([oracle[a] for a in alphas.ravel()])
            assert np.max(np.abs(got.ravel() - want)) <= 1e-12

    @given(seed=SEEDS, d=st.integers(1, 31), extent=st.floats(0.1, 4.0),
           points=st.one_of(st.integers(1, 3), st.integers(1, 40)),
           s=st.one_of(st.just(-1.0), S_LEQ_0))
    @example(seed=453385, d=31, extent=2.46875, points=26, s=0.0)
    @settings(max_examples=40, deadline=None)
    def test_paired_lattice_matches_shuffled_points(self, seed, d, extent, points, s):
        # the rotation branch (a lattice() mesh, even or odd, q = 0 at s = -1) against the
        # plain one (its points shuffled), within what two evaluation orders of the same band
        # sums can guarantee at each point; the example is 10 ulp of the peak apart, where
        # the bands cancel
        rng = np.random.default_rng(seed)
        rho = random_density(d, rng=rng)
        alphas = qe.lattice(extent, points)[1].ravel()
        order = rng.permutation(alphas.size)
        assume(points == 1 or not rotation_closed(alphas[order]))
        paired = qe.quasiprob_pointwise(rho, alphas, s)
        unpaired = np.empty_like(paired)
        unpaired[order] = qe.quasiprob_pointwise(rho, alphas[order], s)
        assert np.all(np.abs(paired - unpaired) <= evaluation_order_bound(rho.entries, alphas, s))

    @given(seed=SEEDS, d=st.integers(1, 31), kind=st.sampled_from(["dense", "cat", "skew"]))
    @settings(max_examples=60, deadline=None)
    def test_origin_is_the_parity_trace(self, seed, d, kind):
        # T(0, 0) = 2 (-1)^{a^dag a}: the Wigner origin is (2/pi) sum_n (-1)^n Re rho_nn, for
        # a state, a cat (even levels only) and a state plus a matrix with an imaginary
        # diagonal (not Hermitian, the same Hermitian diagonal); the kernel's rows at x = 0
        # are (-1)^n only to about 47 ulp at level 30, which a state's weights average down
        rng = np.random.default_rng(seed)
        if kind == "cat":
            rho = even_cat(rng.uniform(0.5, 2.0), d, d)
        else:
            rho = random_density(d, rng=rng)
        if kind == "skew":
            skew = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            skew.real[np.diag_indices(d)] = 0.0
            rho = fc.DensityMatrix(d, rho.entries + skew)
        parity = 2 * (rho.entries.diagonal().real @ (-1.0) ** np.arange(d)) / np.pi
        assert abs(qe.quasiprob_pointwise(rho, 0.0, 0.0) - parity) <= 8 * np.spacing(2 / np.pi)

    @pytest.mark.parametrize("s", [1e-12, 0.5, 1.0, 3.0])
    def test_positive_s_rejected(self, s):
        with pytest.raises(SingularPFunction):
            qe.quasiprob_pointwise(fc.make_fock(1, 5), 0.3, s)

    @pytest.mark.parametrize("alpha, s", [(float("nan"), 0.0), (0.3, float("nan")),
                                          (complex(0, float("inf")), -0.5), (0.3, -float("inf"))])
    def test_non_finite_rejected(self, alpha, s):
        with pytest.raises(NonFiniteArgument):
            qe.quasiprob_pointwise(fc.make_fock(1, 5), alpha, s)

    def test_shape_and_scalar(self):
        rho = fc.make_fock(1, 5)
        assert isinstance(qe.quasiprob_pointwise(rho, 0.5j, -0.5), float)
        assert qe.quasiprob_pointwise(rho, np.zeros((3, 2)), 0.0).shape == (3, 2)

    @pytest.mark.parametrize("s", [-1e160, -1e300])
    def test_far_below_zero_tends_to_the_trace(self, s):
        # T(alpha, s) -> (2/(1-s)) I as s -> -inf: (1-s)^(-2j) underflows, so M_k(s) keeps
        # its first column, sqrt(C(n+k, n)) (s/(1-s))^(2n) with (s/(1-s))^2 = 1
        rho = random_density(12, occupied=9, rng=np.random.default_rng(160))
        want = 2 / (np.pi * (1 - s)) * rho.entries.trace().real
        for alpha in (0.3, qe.lattice(4.0, 129)[1], np.array([2.0 - 3.0j, 0.0])):
            got = qe.quasiprob_pointwise(rho, alpha, s)
            assert np.max(np.abs(got - want)) <= 1e-14 * want
        grid = qe.quasiprob_transform(qe.charfunc_grid(rho, FilterSpec.s_param(s)))
        assert np.max(np.abs(grid.values - want)) <= 1e-14 * want

    @pytest.mark.parametrize("beta, cutoff, alpha, s", [
        pytest.param(1.0, 30, 1e6, -1e13, id="s=-1e13 at 1e6"),
        pytest.param(3.9 * np.exp(0.7j), 300, 25 * np.exp(0.3j), -1.0, id="Q at 25"),
        pytest.param(3.9 * np.exp(0.7j), 300, 22 * np.exp(0.3j), -0.5, id="s=-0.5 at 22"),
        pytest.param(3.9 * np.exp(0.7j), 300, qe.lattice(17.0, 35)[1], -1.0,
                     id="Q on lattice(17, 35)")])
    def test_rows_at_s_where_the_s0_rows_overflow(self, beta, cutoff, alpha, s):
        # the s = 0 rows at 4|alpha|^2 overflow here, and the rows at s itself, at
        # 4|alpha|^2/(1-s)^2, do not: the kernel runs those per call, and no table holds them
        got = qe.quasiprob_pointwise(fc.make_coherent(beta, cutoff), alpha, s)
        want = coherent_ps(beta, alpha, s)
        assert np.max(np.abs(got - want)) <= 1e-14 * coherent_ps(beta, beta, s)
        at_s = -4 / np.float64(1 - s) ** 2, (s + 1) / (s - 1)
        assert at_s not in pf._row_tables

    def test_per_call_memory_at_201_levels(self):
        # the folds read the factors B and U of each anchor, (2, 201, 67) each, and the powers
        # of q as a Toeplitz view: a d^3 table of fold weights, as (67, 2, 201, 201), would
        # take 43 MB, and a q-scaled copy of it as much again
        rho = fc.make_coherent(3.9 * np.exp(0.7j), 200)
        alpha = qe.lattice(4.0, 129)[1]
        qe.quasiprob_pointwise(rho, alpha, -0.5)
        peaks = []
        tracemalloc.start()
        try:
            # a key asked again reads its kept rows, but 201 levels' rows are past the budget
            for _ in range(2):
                tracemalloc.reset_peak()
                qe.quasiprob_pointwise(rho, alpha, -0.5)
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert max(peaks) <= 12 * 2**20

    @pytest.mark.parametrize("rho", [fc.make_thermal(8, 200),
                                     fc.make_coherent(3.9 * np.exp(0.7j), 200)],
                             ids=["thermal", "coherent"])
    def test_cold_call_memory_at_201_levels(self, cold, rho):
        # a first call on 201 levels builds the per-size weights, all O(d^2), and keeps no
        # row table past the budget: a diagonal state folds nothing, and a dense one folds
        # every group at once with no table of fold weights
        alpha = qe.lattice(4.0, 129)[1]
        pf._kernel_weights.cache_clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            got = qe.quasiprob_pointwise(rho, alpha, -0.5)
            del got
            retained = tracemalloc.get_traced_memory()[0] - before
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2**20 and retained <= 4 * 2**20

    def test_rows_that_overflow_raise(self):
        # 31 levels at |alpha| = 1e6: the Laguerre rows overflow where e^{-2|a|^2/(1-s)} is 0,
        # on any point set and on a kept mesh's orbits alike, with no warning
        rho = fc.make_coherent(1, 30)
        for alpha in (1e6, np.array([0.5, 1e6j]), qe.lattice(1e6, 5)[1]):
            with pytest.raises(NonFiniteArgument):
                qe.quasiprob_pointwise(rho, alpha, -0.5)
        with pytest.raises(NonFiniteArgument):
            qe.quasiprob_transform(qe.charfunc_grid(rho, S0), 1e6, 5)


def cat_ps(a, alpha, s):
    # P_s of (|a> + |-a>) / norm from <b|T(alpha, s)|g> = (2/(1-s)) e^{(alpha b* - alpha* b)/2}
    # e^{(alpha* g - alpha g*)/2} e^{-|b-alpha|^2/2 - |g-alpha|^2/2 + q (b-alpha)* (g-alpha)}
    q = (s + 1) / (s - 1)
    amps = (a, -a)
    num = sum(
        np.exp((alpha * np.conj(b) - np.conj(alpha) * b) / 2
               + (np.conj(alpha) * g - alpha * np.conj(g)) / 2
               - abs(b - alpha) ** 2 / 2 - abs(g - alpha) ** 2 / 2
               + q * np.conj(b - alpha) * (g - alpha))
        for b in amps for g in amps)
    norm = sum(np.exp(-abs(b) ** 2 / 2 - abs(g) ** 2 / 2 + np.conj(b) * g) for b in amps for g in amps)
    return (2 / (1 - s) * num / norm).real / np.pi


def _fock_mixture(weights):
    p = np.array(weights) / sum(weights)
    return (fc.DensityMatrix(9, np.diag(np.pad(p, (0, 9 - len(p))))),
            lambda a, s: sum(pn * fock_ps(n, a, s) for n, pn in enumerate(p)))


# (state, closed-form P_s) pairs whose truncation lies far below 1e-13 of the peak: a
# coherent |beta| <= 1.5 state or cat on 41 levels, a thermal nbar <= 1 state on 61
CLOSED_FORMS = st.one_of(
    disk(1.5).map(lambda b: (fc.make_coherent(b, 40), lambda a, s: coherent_ps(b, a, s))),
    st.floats(0.0, 1.0).map(
        lambda n: (fc.make_thermal(n, 60), lambda a, s: thermal_ps(n, a, s))),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6).filter(
        lambda w: sum(w) > 0.1).map(_fock_mixture),
    st.tuples(st.floats(0.3, 1.8), st.floats(0.0, 2 * np.pi)).map(
        lambda c: (even_cat(c[0] * np.exp(1j * c[1]), 41, 41),
                   lambda a, s: cat_ps(c[0] * np.exp(1j * c[1]), a, s))),
)


class TestExactRoute:
    """A grid with a source and an s <= 0 filter is answered from the source; the lattice is
    Fourier-summed for s > 0, for a series filter and for a grid without a source."""

    @given(case=CLOSED_FORMS, s=S_LEQ_0)
    @settings(max_examples=40, deadline=None)
    def test_default_lattices_match_closed_forms(self, case, s):
        rho, ps = case
        grid = qe.quasiprob_transform(qe.charfunc_grid(rho, FilterSpec.s_param(s)))
        want = ps(grid.axis + 1j * grid.axis[:, None], s)
        assert np.max(np.abs(grid.values - want)) <= 1e-13 * np.max(np.abs(want))

    @given(seed=SEEDS, occupied=st.integers(1, 31), s=S_LEQ_0)
    @settings(max_examples=30, deadline=None)
    def test_grid_is_the_pointwise_grid(self, seed, occupied, s):
        rho = random_density(31, occupied=occupied, rng=np.random.default_rng(seed))
        cf = qe.charfunc_grid(rho, FilterSpec.s_param(s))
        grid = qe.quasiprob_transform(cf)
        axis, alphas = qe.lattice(4.0, 129)
        assert grid.axis is axis
        assert np.array_equal(grid.values, qe.quasiprob_pointwise(rho, alphas, s))
        assert grid.imag_residue == 0.0 and grid.source is rho
        assert grid.volume_integral == float(grid.values.sum() * (axis[1] - axis[0]) ** 2)
        assert "values" not in vars(cf)  # the beta lattice was never sampled

    @pytest.mark.parametrize("f", [FilterSpec.s_param(0.5),
                                   FilterSpec.general({(1, 1): -0.25, (2, 2): -0.01})],
                             ids=["s>0", "series"])
    def test_other_grids_take_the_fourier_sum(self, cold, monkeypatch, f):
        # the beta mesh is sampled through the plan lattice() builds with it, once for both
        # sums; the alpha grid is an axis, and no alpha mesh or plan is made
        calls = spy(monkeypatch, qe, "_transform_kernels", lambda beta_axis, *args: args)
        builds = spy(monkeypatch, pf, "_orbits", lambda p: p.size)
        cf = qe.charfunc_grid(fc.make_fock(0, 20), f, extent=9.0, points=160)
        grid = qe.quasiprob_transform(cf)
        assert calls == [(4.0, 129)] and "values" in vars(cf) and builds == [160**2]
        assert np.array_equal(grid.values, qe.quasiprob_transform(replace(cf, source=None)).values)
        assert builds == [160**2]
        if f.as_s() is not None:  # vacuum: (2 / (pi (1-s))) e^{-2|a|^2 / (1-s)}
            want = coherent_ps(0.0, grid.axis + 1j * grid.axis[:, None], 0.5)
            assert np.max(np.abs(grid.values - want)) <= 1e-9

    def test_cutoff_error_moves_to_the_first_read(self):
        # the exact route never reads the values; the first read samples the lattice, where
        # |5> on 6 levels with leakage 0 is exact out to the corners: e^{-x/2} L_5(x)
        cf = qe.charfunc_grid(fc.make_fock(5, 5), S0)
        qe.quasiprob_transform(cf)
        assert "values" not in vars(cf)
        x = np.abs(qe.lattice(6.0, 128)[1]) ** 2
        assert np.max(np.abs(cf.values - np.exp(-x / 2) * eval_laguerre(5, x))) <= 1e-13

    def test_leakage_beyond_the_builders_cap_raises(self):
        obj = fc.save_state(fc.make_fock(1, 10))
        obj["leakage"] = 1e-6
        rho = fc.load_state(obj)
        pair = fc.tensor(rho, rho)  # leakage 2e-6 - 1e-12
        # every functional reads the one rule and states the bound ||X|| (2 sqrt(eps) + 2 eps);
        # a filtered characteristic function's ||X|| is max |Omega| over the points asked:
        # Omega(6) = e^9 at s = 0.5, and Omega(6) Omega(2) = e^10 for the pair
        half = FilterSpec.s_param(0.5)
        for call, norm, eps in [
                (lambda: qe.quasiprob_pointwise(rho, 0.3, -0.5), 4 / (3 * np.pi), 1e-6),
                (lambda: qe.quasiprob_transform(qe.charfunc_grid(rho, S0)), 2 / np.pi, 1e-6),
                (lambda: pf.symmetric_charfunc(rho, 0.3), 1.0, 1e-6),
                (lambda: qe.q_function(rho, 0.3), 1 / np.pi, 1e-6),
                (lambda: pf.filtered_charfunc(rho, half, [0.3, 6.0]), np.exp(9.0), 1e-6),
                (lambda: pf.two_mode_charfunc(pair, S0, 0.3, 0.3), 1.0, pair.leakage),
                (lambda: pf.two_mode_charfunc(pair, half, 6.0, [0.0, 2.0]), np.exp(10.0),
                 pair.leakage)]:
            bound = f"{norm * (2 * np.sqrt(eps) + 2 * eps):.3e}"
            with pytest.raises(CutoffTooSmall, match=re.escape(bound)):
                call()

    def test_occupied_top_level_without_leakage_is_exact(self):
        grid = qe.quasiprob_transform(qe.charfunc_grid(fc.make_fock(3, 3), FilterSpec.s_param(-0.5)))
        want = fock_ps(3, grid.axis + 1j * grid.axis[:, None], -0.5)
        assert np.max(np.abs(grid.values - want)) <= 1e-13 * np.max(np.abs(want))

    @given(beta=disk(2.0), cutoff=st.integers(2, 14), s=S_LEQ_0, alpha=ALPHAS)
    @settings(max_examples=40, deadline=None)
    def test_leakage_bound_holds(self, beta, cutoff, s, alpha):
        # truncate a coherent state to cutoff + 1 levels and renormalize: each functional
        # Tr(rho X) moves by at most ||X|| (2 sqrt(eps) + 2 eps), eps the trace it lost, summed
        # from the levels it drops (1 - trace rounds a loss below 1e-16 to 0, where the
        # coherences still move it by about sqrt(eps)); ||X|| is 2 / (pi (1-s)) for P_s,
        # 1 for the characteristic function and 1 / pi for Q
        full = fc.make_coherent(beta, 60)
        block = full.entries[: cutoff + 1, : cutoff + 1]
        eps = float(full.entries.diagonal()[cutoff + 1:].real.sum())
        cut = fc.DensityMatrix(cutoff + 1, block / block.trace().real)
        for value, norm in [(lambda r: qe.quasiprob_pointwise(r, alpha, s), 2 / (np.pi * (1 - s))),
                            (lambda r: pf.symmetric_charfunc(r, alpha), 1.0),
                            (lambda r: qe.q_function(r, alpha), 1 / np.pi)]:
            moved = np.abs(value(cut) - value(full))
            assert np.max(moved) <= norm * (2 * np.sqrt(eps) + 2 * eps) + 1e-15


@pytest.fixture
def cold(monkeypatch):
    """Empty grid tables: no Q, Hermite or kernel rows held, and no lattice() mesh kept by
    the cache, so the next lattice() call builds its mesh and plan afresh."""
    def clear():
        monkeypatch.setattr(pf, "_row_tables", {})
        pf.lattice.cache_clear()
        gc.collect()

    clear()
    return clear


def fresh(call, *args):
    """call(*args) with no row table held or kept: every row it reads is built for it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pf, "_row_tables", {})
        patch.setattr(pf, "_ROW_TABLE_BYTES", 0)
        return call(*args)


def q_rows():
    """(key, rows) of the Q table."""
    key, _, built, _ = pf._row_tables[qe.coherent_vector]
    return key, built[None]


# the kernel's two slots, one per operator: T(a, s) at every s <= 0 reads the s = 0 rows
T_SLOT, D_SLOT = (-4.0, -1.0), (1.0, 1.0)
ANCHORS_31 = list(range(0, 31, pf.ANCHOR_SPACING))


def plan_of(mesh):
    return pf._kept_meshes[id(mesh)]


class TestGridTables:
    """Tables that depend only on the grid are built once and shared read-only: with each
    kept lattice() mesh its orbit plan, and for each row builder (Q, the marginal, and the
    kernel's D(b) and T) the rows of the last point set asked, within the byte budget."""

    Q_AXIS = np.linspace(-1.25, 1.25, 25)
    Q_GRID = Q_AXIS[None, :] + 1j * Q_AXIS[:, None]

    def test_q_rows_for_fewer_levels_are_a_slice(self, cold):
        states = [random_density(32, occupied=31, rng=np.random.default_rng(1)),
                  random_density(21, occupied=4, rng=np.random.default_rng(2)),
                  random_density(32, occupied=31, rng=np.random.default_rng(3))]
        warm = [qe.q_function(rho, self.Q_GRID) for rho in states]
        assert q_rows()[1].shape == (625, 31)
        for rho, got in zip(states, warm):
            cold()
            assert np.array_equal(got, qe.q_function(rho, self.Q_GRID))

    def test_more_levels_rebuild_the_rows(self, cold):
        qe.q_function(fc.make_fock(3, 20), self.Q_GRID)
        assert q_rows()[1].shape == (625, 4)
        qe.q_function(random_density(12, occupied=11), self.Q_GRID)
        assert q_rows()[1].shape == (625, 11)

    @pytest.mark.parametrize("alpha", [0.3 + 0.1j, np.array([0.3 + 0.1j]), np.zeros(0)])
    def test_single_point_leaves_the_q_rows_alone(self, cold, alpha):
        rho = random_density(12, occupied=11)
        qe.q_function(rho, self.Q_GRID)
        held = pf._row_tables[qe.coherent_vector]
        qe.q_function(rho, alpha)
        assert pf._row_tables[qe.coherent_vector] is held

    def test_tables_are_read_only(self, cold):
        rho = random_density(12, occupied=11)
        qe.q_function(rho, self.Q_GRID)
        mesh = qe.lattice(6.0, 128)[1]
        qe.charfunc_grid(rho, S0).values
        _, _, _, _, block, (distinct, inv) = plan_of(mesh)
        x = np.abs(mesh[:64, :64].ravel()) ** 2
        assert np.array_equal(distinct[inv], x)
        for table in (q_rows()[1], block, distinct, inv):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0

    def test_points_changed_in_place_get_new_values(self, cold):
        rho = random_density(12, occupied=11)
        alpha = self.Q_GRID.copy()
        first_q, first_cf = qe.q_function(rho, alpha), pf.symmetric_charfunc(rho, alpha)
        alpha[2, 3] = 0.7 - 0.2j
        got_q, got_cf = qe.q_function(rho, alpha), pf.symmetric_charfunc(rho, alpha)
        assert got_q[2, 3] != first_q[2, 3] and got_cf[2, 3] != first_cf[2, 3]
        cold()
        assert np.array_equal(got_q, qe.q_function(rho, alpha))
        assert np.array_equal(got_cf, pf.symmetric_charfunc(rho, alpha))

    def test_every_s_shares_one_sort(self, cold, monkeypatch):
        # a kept mesh reads its sort from the plan lattice() built with it, for every s; a
        # copy of it is another point set, sorted on every call
        sorts = spy(monkeypatch, pf, "_radii", lambda r2: r2.size)
        rho = random_density(8, occupied=7)
        mesh = qe.lattice(6.0, 128)[1]
        got = [qe.quasiprob_pointwise(rho, mesh, s) for s in (-0.3, -0.7)]
        assert sorts == [64 * 64]
        copied = [fresh(qe.quasiprob_pointwise, rho, mesh.copy(), s) for s in (-0.3, -0.7)]
        assert sorts == [64 * 64] * 3
        cold()
        remade = qe.lattice(6.0, 128)[1]
        assert remade is not mesh and sorts == [64 * 64] * 4
        assert np.array_equal(got[1], qe.quasiprob_pointwise(rho, remade, -0.7))
        assert all(np.array_equal(a, b) for a, b in zip(got, copied))

    def test_kept_mesh_geometry_is_built_once(self, cold, monkeypatch):
        # the orbit plan of a lattice() mesh is built with the mesh, once for every s and
        # state, and found by the mesh's identity; a copy, or a view of the mesh (its flat
        # view too, with all its points in order), is another point set, decomposed on every
        # call with the mesh's bits
        calls = spy(monkeypatch, pf, "_orbits", lambda p: p.size)
        states = [random_density(12, occupied=11), fc.make_thermal(0.7, 30)]
        mesh = qe.lattice(4.0, 129)[1]
        assert calls == [mesh.size]
        got = [qe.quasiprob_pointwise(rho, mesh, s) for rho in states for s in (-0.2, -0.2, -1.0)]
        qe.quasiprob_transform(qe.charfunc_grid(states[0], S0))
        assert calls == [mesh.size] and np.array_equal(got[0], got[1])
        assert not plan_of(mesh)[4].flags.writeable
        flat = mesh.ravel()
        for points in (flat, flat.copy(), flat[::-1], flat[: 129 * 64], flat[1:]):
            want = fresh(qe.quasiprob_pointwise, states[0], points.copy(), -0.2)
            calls.clear()
            assert np.array_equal(qe.quasiprob_pointwise(states[0], points, -0.2), want)
            assert calls == [points.size]
        assert np.array_equal(qe.quasiprob_pointwise(states[0], flat, -0.2), got[0].ravel())

    def test_kept_mesh_entry_goes_with_the_mesh(self):
        mesh = qe.lattice(2.5, 11)[1]
        key, plan = id(mesh), plan_of(mesh)
        assert pf._kept(mesh) is plan and pf._kept(mesh.ravel()) is None
        assert plan[:4] == (True, 11, 5, 6) and plan[4].size == 5 * 6 + 1
        pf.lattice.cache_clear()
        del mesh
        gc.collect()
        assert key not in pf._kept_meshes

    def test_hermite_rows_for_fewer_levels_are_a_slice(self, cold):
        # the marginal's psi_n(x) on the grid's axis, kept for the most levels asked of it: a
        # state on 31 levels, then 4 (a slice), then 31; each as from a fresh build
        states = [fc.make_thermal(0.7, 30), fc.make_fock(3, 20), fc.make_coherent(1.2 + 0.5j, 30)]
        grids = [wigner_grid(rho) for rho in states]
        warm = [qe.quadrature_distribution(grid, 0.7) for grid in grids]
        key, levels, built, _ = pf._row_tables[qe._hermite_rows]
        rows = built[None]
        assert key == grids[0].axis.tobytes() and levels == 31 and rows.shape == (129, 31)
        assert not rows.flags.writeable
        for grid, got in zip(grids, warm):
            cold()
            assert qe.quadrature_distribution(grid, 0.7) == got

    def test_tables_stay_bounded(self, cold):
        # one Q table and one D(b) table, each of the last mesh, and a plan for each of the
        # last 16 lattices: the plan of a mesh the cache drops goes with it
        rho = random_density(8, occupied=7)
        base = len(pf._kept_meshes)
        for i in range(20):
            mesh = qe.lattice(1.0 + i / 10, 20 + i)[1]
            qe.q_function(rho, mesh)
            pf.symmetric_charfunc(rho, mesh)
            assert q_rows()[0] == mesh.tobytes()
            assert pf._row_tables[D_SLOT][0] == plan_of(mesh)[5][0].tobytes()
            assert set(pf._row_tables) == {qe.coherent_vector, D_SLOT}
            assert len(pf._kept_meshes) == base + min(i + 1, 16)

    def test_repeated_s_keeps_one_table(self, cold):
        # calls at s1, 0, s2, 0, ...: every s <= 0 reads the s = 0 rows, so they share the
        # one T table, taken on the first call and keyed on the distinct radii, which a copy
        # of the mesh has too
        rho = random_density(32, occupied=31)
        mesh = qe.lattice(4.0, 129)[1]
        qe.quasiprob_pointwise(rho, mesh.copy(), 0.0)
        table = pf._row_tables[T_SLOT]
        assert table[0] == plan_of(mesh)[5][0].tobytes()
        for s in (-0.3, 0.0, -0.6, 0.0, -0.8, 0.0, -0.9, 0.0):
            qe.quasiprob_pointwise(rho, mesh, s)
            assert pf._row_tables[T_SLOT] is table
        _, levels, built, _ = table
        assert set(pf._row_tables) == {T_SLOT}
        assert levels == 31 and sorted(built) == ANCHORS_31
        # the table holds the most levels asked of it so far: more levels rebuild it
        for occupied, held in ((40, 40), (4, 40)):
            qe.quasiprob_pointwise(random_density(occupied), mesh, 0.0)
            assert pf._row_tables[T_SLOT][1] == held

    def test_keys_in_turn_leave_the_table(self, monkeypatch, cold):
        # one table per operator: D(b) and T in turn on 4:129 keep both from their first
        # calls, and every later call of either there reads them, at s = 0, -0.5 and -1
        # alike, with no recurrence. T on 4:129 and on 6:128 in turn build their rows on every
        # call, as the T table holds the last point set only, and leave the D(b) table as is
        rho = random_density(32, occupied=31)
        wide, fine = qe.lattice(4.0, 129)[1], qe.lattice(6.0, 128)[1]
        rows = spy(monkeypatch, pf, "_laguerre_band", lambda k, *args: k)
        keys = [lambda s=s: qe.quasiprob_pointwise(rho, wide, s) for s in (0.0, -0.5, -1.0)]
        keys.insert(1, lambda: pf.symmetric_charfunc(rho, wide))
        for key in keys[:2]:
            rows.clear()
            key()
            assert sorted(rows) == ANCHORS_31
        tables = dict(pf._row_tables)
        assert set(tables) == {T_SLOT, D_SLOT}
        for _ in range(3):
            for key in keys:
                rows.clear()
                key()
                assert rows == [] and pf._row_tables == tables
        for points in (fine, wide) * 2:
            rows.clear()
            qe.quasiprob_pointwise(rho, points, -0.5)
            assert sorted(rows) == ANCHORS_31
            assert pf._row_tables[T_SLOT][0] == plan_of(points)[5][0].tobytes()
            assert pf._row_tables[D_SLOT] is tables[D_SLOT]

    def test_one_table_goes_with_its_mesh(self, monkeypatch, cold):
        # T and D(b) in turn on each of three meshes: each table goes with the mesh asked last,
        # its rows are read-only, and it is keyed on the values of the radii, not on the mesh,
        # so the same lattice made again after its mesh is freed reads it
        rho = random_density(12, occupied=11)
        meshes = [qe.lattice(2.0 + i, 33)[1] for i in range(3)]
        for mesh in meshes:
            for _ in range(2):
                qe.quasiprob_pointwise(rho, mesh, -0.5)
                pf.symmetric_charfunc(rho, mesh)
            radii = plan_of(mesh)[5][0].tobytes()
            assert [pf._row_tables[slot][0] for slot in (T_SLOT, D_SLOT)] == [radii] * 2
        for slot in (T_SLOT, D_SLOT):
            for rows in pf._row_tables[slot][2].values():
                assert not rows.flags.writeable
                with pytest.raises(ValueError):
                    rows[0] = 0
        tables, key = dict(pf._row_tables), id(mesh)
        del mesh, meshes
        pf.lattice.cache_clear()
        gc.collect()
        assert key not in pf._kept_meshes and pf._row_tables == tables
        rows = spy(monkeypatch, pf, "_laguerre_band", lambda k, *args: k)
        again = qe.lattice(4.0, 33)[1]
        got = [qe.quasiprob_pointwise(rho, again, -0.5), pf.symmetric_charfunc(rho, again)]
        assert rows == [] and pf._row_tables == tables
        assert np.array_equal(got[0], fresh(qe.quasiprob_pointwise, rho, again, -0.5))
        assert np.array_equal(got[1], fresh(pf.symmetric_charfunc, rho, again))

    def test_fresh_s_reads_the_wigner_table(self, monkeypatch, cold):
        # after one s = 0 call on 4:129, each s < 0 there runs no recurrence: the columns of
        # each group take M_k(s)^T on the kept s = 0 rows, with the bits of the same call
        # with no table, which runs them per call
        rho = random_density(32, occupied=31, rng=np.random.default_rng(36))
        mesh = qe.lattice(4.0, 129)[1]
        qe.quasiprob_pointwise(rho, mesh, 0.0)
        rows = spy(monkeypatch, pf, "_laguerre_band", lambda k, *args: k)
        for s in (-0.37, -1.0, -2.5):
            got = qe.quasiprob_pointwise(rho, mesh, s)
            assert rows == []
            assert np.array_equal(got, fresh(qe.quasiprob_pointwise, rho, mesh, s))
            assert sorted(rows) == ANCHORS_31
            rows.clear()

    def test_rows_past_the_budget_are_not_kept(self, monkeypatch, cold):
        # 201 levels on 4:129 would keep about 100 MB of rows: they are built per anchor on
        # every call, and the table on fewer levels, taken on its first call, stays for the
        # states that fit
        mesh = qe.lattice(4.0, 129)[1]
        big, small = fc.make_coherent(3.9 * np.exp(0.7j), 200), random_density(32, occupied=31)
        rows = spy(monkeypatch, pf, "_laguerre_band", lambda k, *args: k)
        qe.quasiprob_pointwise(big, mesh, -0.5)
        assert pf._row_tables == {}
        qe.quasiprob_pointwise(small, mesh, -0.5)
        table = pf._row_tables[T_SLOT]
        assert table[1] == 31
        for rho in (big, big, small):
            rows.clear()
            qe.quasiprob_pointwise(rho, mesh, -0.5)
            assert pf._row_tables[T_SLOT] is table
            assert len(rows) == (0 if rho is small else len(range(0, 201, pf.ANCHOR_SPACING)))

    def test_q_rows_past_the_budget_are_not_kept(self, cold):
        # the coherent rows of a 160^2 grid on 31 levels take 12.7 MB, past the budget: they
        # are built for the call and freed, and the Q table of the small grid stays
        rho = fc.make_coherent(1.2, 30)
        qe.q_function(rho, self.Q_GRID)
        held = pf._row_tables[qe.coherent_vector]
        axis = np.linspace(-3.0, 3.0, 160)
        grid = axis[None, :] + 1j * axis[:, None]
        assert 160**2 * 31 * 16 > pf._ROW_TABLE_BYTES
        qe.q_function(rho, grid)  # the first call pays for imports and allocator growth
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            got = qe.q_function(rho, grid)
            del got
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert pf._row_tables[qe.coherent_vector] is held
        assert set(pf._row_tables) == {qe.coherent_vector}
        assert retained <= 2**16
        c = qe.coherent_vector(grid[7], 30)
        row = np.einsum("pm,mn,pn->p", c.conj(), rho.entries[:31, :31], c).real / np.pi
        assert np.max(np.abs(qe.q_function(rho, grid)[7] - row)) <= 1e-15

    def test_tables_hold_their_rows_and_key_only(self, cold):
        # a two-level kernel call on 20000 points that are not a kept mesh keeps the key, y
        # and the anchor's two rows at the distinct radii, 8 bytes each per radius, and not
        # the points' inverse map (8 bytes per point); a Q table holds no view of the
        # caller's points; and the budget counts the key: the Q rows of 300000 points on one
        # level (4.8 MB) fit, but not with their key
        rng = np.random.default_rng(5)
        alpha = rng.normal(size=20000) + 1j * rng.normal(size=20000)
        rho = fc.make_fock(1, 4)
        qe.quasiprob_pointwise(rho, alpha[:100], 0.0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            got = qe.quasiprob_pointwise(rho, alpha, 0.0)
            del got
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        key, levels, built, _ = pf._row_tables[T_SLOT]
        radii = np.unique(np.abs(alpha) ** 2).size
        assert (levels, list(built), len(key)) == (2, [0], 8 * radii)
        assert radii > 19000 and retained <= 4 * 8 * radii + 2**15
        points = self.Q_GRID.copy()
        ref = weakref.ref(points)
        qe.q_function(rho, points)
        del points
        gc.collect()
        assert ref() is None and q_rows()[0] == self.Q_GRID.tobytes()
        vacuum, wide = fc.make_fock(0, 4), np.linspace(-3.0, 3.0, 300000) + 0.5j
        assert wide.nbytes <= pf._ROW_TABLE_BYTES < 2 * wide.nbytes
        held = pf._row_tables[qe.coherent_vector]
        qe.q_function(vacuum, wide)
        assert pf._row_tables[qe.coherent_vector] is held

    def test_threads_share_the_table(self, cold):
        # eight threads ask five s, each twice running, on each of three small meshes, where
        # the bookkeeping is most of a call: the table is taken, read and passed on with no
        # lock, and every value has the bits of the same call with no table
        rho = fc.make_fock(3, 6)
        meshes = [qe.lattice(1.0 + i, 5)[1] for i in range(3)]
        calls = [(mesh, s) for mesh in meshes for s in (0.0, -0.2, -0.5, -0.7, -1.0)
                 for _ in range(2)] * 20
        want = [fresh(qe.quasiprob_pointwise, rho, mesh, s) for mesh, s in calls]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                runs = [pool.submit(lambda: [qe.quasiprob_pointwise(rho, mesh, s)
                                             for mesh, s in calls]) for _ in range(8)]
                got = [run.result(timeout=60) for run in runs]
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(a, b) for values in got for a, b in zip(values, want))

    @given(calls=st.lists(st.tuples(st.integers(1, 40), st.sampled_from([None, 0.0, -0.5, -1.0])),
                          min_size=1, max_size=8),
           seed=st.integers(0, 2**32 - 1))
    @example(calls=[(31, 0.0), (31, 0.0), (4, 0.0), (40, 0.0), (12, 0.0), (40, None)] * 2, seed=1)
    @settings(max_examples=30, deadline=None)
    def test_kept_rows_repeat_the_bits(self, calls, seed):
        # every call on a kept mesh, with levels going up and down, has the bits of the same
        # call with no row table, whose rows are built afresh
        mesh = qe.lattice(3.0, 33)[1]
        rng = np.random.default_rng(seed)
        for levels, s in calls:
            rho = random_density(levels, rng=rng)
            if s is None:
                kept = pf.symmetric_charfunc(rho, mesh)
                built = fresh(pf.symmetric_charfunc, rho, mesh)
            else:
                kept = qe.quasiprob_pointwise(rho, mesh, s)
                built = fresh(qe.quasiprob_pointwise, rho, mesh, s)
            assert np.array_equal(kept, built)


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

    @given(
        state=st.one_of(
            st.integers(0, 10).map(lambda n: ("fock", n)),
            disk(2.0).map(lambda a: ("coherent", a)),
            st.floats(0.0, 1.0).map(lambda nbar: ("thermal", nbar)),
        ),
        phase=st.floats(0.0, 2 * np.pi, exclude_max=True),
    )
    @settings(max_examples=40, deadline=None)
    def test_closed_forms(self, state, phase):
        # on a 33-point axis (step 0.25): the marginal is exact at any step
        kind, par = state
        x = np.linspace(-4.0, 4.0, 33)
        if kind == "fock":
            rho = fc.make_fock(par, 40)
            hn = eval_hermite(par, np.sqrt(2) * x)
            expected = np.sqrt(2 / np.pi) * hn**2 * np.exp(-2 * x**2) / (2**par * factorial(par))
        elif kind == "coherent":
            rho = fc.make_coherent(par, 40)
            mean = (par * np.exp(-1j * phase)).real
            expected = np.sqrt(2 / np.pi) * np.exp(-2 * (x - mean) ** 2)
        else:
            rho = fc.make_thermal(par, 40)
            var = (2 * par + 1) / 4
            expected = np.exp(-(x**2) / (2 * var)) / np.sqrt(2 * np.pi * var)
        grid = qe.quasiprob_transform(qe.charfunc_grid(rho, S0, 6.0, 32), 4.0, 33)
        dist = qe.quadrature_distribution(grid, phase)
        assert np.array_equal([u for u, _ in dist], x)
        assert np.max(np.abs(np.array([p for _, p in dist]) - expected)) <= 1e-12

    @pytest.mark.parametrize("phase, error", [(np.nan, NonFiniteArgument),
                                              (np.inf, NonFiniteArgument), (0.5j, TypeError)])
    def test_phase_not_a_finite_real_rejected(self, phase, error):
        # the phase is float(phase), finite: a NaN or inf would give NaN densities, and an
        # imaginary phase a "marginal" that does not integrate to 1
        with pytest.raises(error):
            qe.quadrature_distribution(wigner_grid(fc.make_fock(1, 20)), phase)

    def test_grid_without_source_rejected(self):
        grid = replace(wigner_grid(fc.make_fock(0, 20)), source=None)
        with pytest.raises(DimensionMismatch):
            qe.quadrature_distribution(grid, 0.3)

    def test_grid_other_than_s0_rejected(self):
        # an s = -0.5 grid, and a hand-made grid with a series filter (no s at all)
        rho = fc.make_fock(1, 20)
        series = qe.QuasiProbGrid(pf._axis(4.0, 129), np.zeros((129, 129)),
                                  FilterSpec.general({(2, 0): 0.3}), rho, 0.0, 0.0)
        for grid in (qe.quasiprob_transform(qe.charfunc_grid(rho, FilterSpec.s_param(-0.5))),
                     series):
            with pytest.raises(DimensionMismatch, match="requires an s = 0 grid"):
                qe.quadrature_distribution(grid, 0.3)

    def test_two_mode_source_rejected(self):
        # a hand-made s = 0 grid whose source is a two-mode state has no single-mode marginal
        pair = fc.tensor(fc.make_fock(1, 4), fc.make_fock(0, 4))
        grid = qe.QuasiProbGrid(pf._axis(4.0, 129), np.zeros((129, 129)), S0, pair, 0.0, 0.0)
        with pytest.raises(DimensionMismatch):
            qe.quadrature_distribution(grid, 0.3)
