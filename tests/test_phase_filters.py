import json
import tracemalloc
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from phaselab import fock_core as fc
from phaselab import phase_filters as pf
from phaselab import quasiprob_engine as qe
from phaselab.errors import DomainError, InvalidFilter, MalformedFile
from phaselab.errors import NonFiniteArgument
from phaselab.theorem_lab import disk_grid

from _support import annihilation, band_trace_per_band, displacement_element
from _support import evaluation_order_bound, even_cat
from _support import quasiprob_mpmath, random_density, repeated_radii, rotation_closed, spy


def charfunc_oracle(rho, beta, dim=45):
    """Tr(rho expm(beta a^dag - beta* a)) with generous headroom."""
    big = fc.embed(rho, dim)
    a = annihilation(dim)
    d = expm(beta * a.conj().T - np.conj(beta) * a)
    return np.trace(big.entries @ d)


class TestFilterSpec:
    def test_wigner_filter_is_identity(self):
        f = pf.FilterSpec.s_param(0.0)
        for beta in [0.0, 1.0, 0.3 - 2.0j]:
            assert np.exp(f.exponent(beta)) == 1.0

    def test_p_filter_value(self):
        assert np.exp(pf.FilterSpec.s_param(1.0).exponent(1.0)) == pytest.approx(
            np.exp(0.5)
        )

    def test_general_series_value(self):
        f = pf.FilterSpec.general({(2, 0): 1.0})
        assert np.exp(f.exponent(1.0)) == pytest.approx(np.e)

    @pytest.mark.parametrize(
        "kwargs",
        [{"s": float("nan")}, {"s": float("inf")}, {"s": -float("inf")},
         {"coeffs": ((1, 1, complex(float("nan"), 0)),)},
         {"coeffs": ((2, 0, 0.1), (1, 1, complex(0, float("inf"))))}],
        ids=["s-nan", "s-inf", "s--inf", "coeff-nan", "coeff-infj"],
    )
    def test_non_finite_rejected(self, kwargs):
        with pytest.raises(NonFiniteArgument):
            pf.FilterSpec(**kwargs)

    def test_c00_rejected(self):
        with pytest.raises(ValueError):
            pf.FilterSpec.general({(0, 0): 0.5})

    @pytest.mark.parametrize(
        "kwargs",
        [{"coeffs": ((0, 0, 0.5),)}, {"coeffs": ((2, 0, 0.1), (-1, 1, 0.2))},
         {"coeffs": ((1.7, 0, 0.1),)}],
        ids=["c00", "negative-power", "fractional-power"],
    )
    def test_invalid_spec_is_domain_error(self, kwargs):
        with pytest.raises(InvalidFilter) as info:
            pf.FilterSpec(**kwargs)
        assert isinstance(info.value, DomainError)

    @pytest.mark.parametrize(
        "kwargs",
        [{"s": "abc"}, {"s": None}, {"s": "0.5"}, {"s": True}, {"s": 1j},
         {"coeffs": ((2, 0, "0.1"),)}, {"coeffs": ((2, 0, None),)}, {"coeffs": ((2, 0, False),)}],
        ids=["s-str", "s-none", "s-numeric-str", "s-bool", "s-complex",
             "c-str", "c-none", "c-bool"],
    )
    def test_non_number_is_invalid_filter(self, kwargs):
        with pytest.raises(InvalidFilter):
            pf.FilterSpec(**kwargs)

    def test_default_is_wigner(self):
        assert pf.FilterSpec() == pf.FilterSpec.s_param(0.0) == pf.FilterSpec(coeffs=())
        assert pf.FilterSpec().as_s() == 0.0 and pf.FilterSpec().describe() == {"s": 0.0}

    def test_s_plus_terms_is_one_filter(self):
        # s and c_11 both hold |beta|^2: their sum is the filter's s
        f = pf.FilterSpec(s=0.5, coeffs=((1, 1, 0.1), (2, 0, 0.1)))
        assert f.s == 0.7 and f.coeffs == ((2, 0, 0.1),) and f.as_s() is None
        assert f == pf.FilterSpec.general({(1, 1): 0.35, (2, 0): 0.1})
        assert f.describe() == {"coeffs": [{"k": 1, "l": 1, "re": 0.35, "im": 0.0},
                                           {"k": 2, "l": 0, "re": 0.1, "im": 0.0}]}

    def test_one_spelling_per_filter(self):
        s_family = pf.FilterSpec.s_param(0.5)
        series = pf.FilterSpec.general({(1, 1): 0.25})
        assert s_family == series and hash(s_family) == hash(series)
        assert s_family.describe() == series.describe() == {"s": 0.5}
        assert pf.FilterSpec(s=0.5, coeffs=((2, 0, 0.1),)) == pf.FilterSpec.general(
            {(1, 1): 0.25, (2, 0): 0.1}
        )
        _, betas = qe.lattice(6, 128)
        assert np.array_equal(s_family.exponent(betas), series.exponent(betas))
        p_spellings = [
            pf.FilterSpec.s_param(1.0),
            pf.FilterSpec.general({(1, 1): 0.5}),
            pf.FilterSpec(s=0.5, coeffs=((1, 1, 0.25),)),
            pf.FilterSpec(s=2.0, coeffs=((1, 1, -0.25), (1, 1, -0.25))),
            pf.filter_from_json({"coeffs": [{"k": 1, "l": 1, "re": 0.5}]}),
        ]
        grid = disk_grid()
        for f in p_spellings:
            assert f == p_spellings[0]
            assert np.all(pf.vacuum_charfunc(f, grid) == 1.0)

    @given(s=st.floats(-50.0, 50.0, allow_subnormal=True))
    def test_s_survives_every_spelling(self, s):
        assert pf.FilterSpec.s_param(s).as_s() == s
        assert pf.FilterSpec.general({(1, 1): s / 2}).as_s() == 2 * (s / 2)

    def test_s_reduction(self):
        assert pf.FilterSpec.general({(1, 1): 0.25}).as_s() == pytest.approx(0.5)
        assert pf.FilterSpec.general({(2, 0): 0.1}).as_s() is None
        assert pf.FilterSpec.s_param(-1.0).as_s() == -1.0
        # exact: any imaginary part of c_11 leaves the s family
        assert pf.FilterSpec.general({(1, 1): 0.5 + 1e-300j}).as_s() is None
        assert pf.FilterSpec.general({(1, 1): 0.5, (2, 0): 0.0}).as_s() == 1.0

    def test_repeated_terms_sum(self):
        f = pf.FilterSpec(coeffs=((2, 0, 0.1), (1, 1, 0.2), (2, 0, -0.1), (1, 1, 0.3j)))
        assert f.s == 0.4 and f.coeffs == ((1, 1, 0.3j),)
        terms = [{"k": 1, "l": 1, "re": 0.2}, {"k": 1, "l": 1, "re": 0.3}]
        assert pf.filter_from_json({"coeffs": terms}).as_s() == 1.0
        # a sum that overflows is not finite
        with pytest.raises(NonFiniteArgument):
            pf.FilterSpec(coeffs=((2, 0, 1e308), (2, 0, 1e308)))

    def test_json_roundtrip(self):
        for f in [
            pf.FilterSpec.s_param(0.5),
            pf.FilterSpec.general({(2, 1): 0.3 - 0.1j, (1, 0): 1j}),
            pf.FilterSpec(s=-0.6, coeffs=((1, 1, 0.2j), (0, 2, 0.1))),
            pf.FilterSpec.general({(1, 1): -0.3j}),
        ]:
            assert pf.filter_from_json(f.describe()) == f

    @pytest.mark.parametrize(
        "obj",
        [{}, {"s": 0.5, "coeffs": [{"k": 2, "l": 0, "re": 0.1}]}, {"s": True}, {"s": "0.5"},
         {"coeffs": [{"k": 1.7, "l": 0, "re": 0.1}]}, {"coeffs": [{"k": True, "l": 0, "re": 0.1}]},
         {"coeffs": [{"k": 2, "l": 0, "re": True}]}, {"coeffs": [{"k": 2, "l": 0, "im": "1"}]}],
        ids=["neither", "both", "s-bool", "s-string", "k-float", "k-bool", "re-bool", "im-string"],
    )
    def test_malformed_record(self, obj):
        with pytest.raises(MalformedFile):
            pf.filter_from_json(obj)
        with pytest.raises(MalformedFile):
            pf.filter_from_json(json.dumps(obj))


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
        # |3> on 3 levels occupies its top level, but with leakage 0 it is exactly the matrix
        # it stores, so Tr(rho D(2)) is e^{-2} L_3(4) = 7 e^{-2} / 3
        assert abs(pf.symmetric_charfunc(fc.make_fock(3, 3), 2.0) - 7 * np.exp(-2) / 3) <= 1e-15

    def test_non_finite_beta_rejected(self):
        rho = fc.make_fock(0, 5)
        with pytest.raises(NonFiniteArgument):
            pf.symmetric_charfunc(rho, float("nan"))
        betas = qe.lattice(6.0, 128)[1].copy()
        betas[7, 9] = complex(float("inf"), 0.0)
        with pytest.raises(NonFiniteArgument):
            pf.symmetric_charfunc(rho, betas)

    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 31),
        radius=st.floats(0.0, 8.5),
        angle=st.floats(0.0, 2 * np.pi),
        cat=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_band_sum_matches_laguerre_elements(self, seed, d, radius, angle, cat):
        # one empty level above a dense block, or above an even cat state, which
        # holds no odd band
        rng = np.random.default_rng(seed)
        if cat:
            rho = even_cat(rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform()), d, d + 1)
        else:
            rho = random_density(d + 1, occupied=d, rng=rng)
        beta = radius * np.exp(1j * angle)
        elements = np.array(
            [[displacement_element(m, n, beta) for n in range(d)] for m in range(d)]
        )
        # Tr(rho D) = sum_{n,m} rho[n, m] <m|D|n>
        expected = np.sum(rho.entries[:d, :d].T * elements)
        assert abs(pf.symmetric_charfunc(rho, beta) - expected) < 1e-12
        assert np.max(np.abs(pf.displacement_stack(d, beta)[:, :, 0] - elements)) < 1e-12

    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 8),
        extent=st.floats(0.1, 6.0),
        points=st.integers(2, 7),
    )
    @settings(max_examples=25, deadline=None)
    def test_repeated_radii_match_points_and_elements(self, seed, d, extent, points):
        # the kernel runs once per distinct |beta|^2 and maps the sums back to the points
        rho = random_density(d + 1, occupied=d, rng=np.random.default_rng(seed))
        oracle = {}
        for betas in repeated_radii(extent, points, seed):
            got = pf.symmetric_charfunc(rho, betas)
            assert got.shape == betas.shape
            each = [pf.symmetric_charfunc(rho, b) for b in betas.ravel()]
            assert all(isinstance(v, complex) for v in each)
            assert np.max(np.abs(got.ravel() - each)) <= 1e-13
            for b in betas.ravel():
                if b not in oracle:
                    elements = np.array([
                        [displacement_element(m, n, b) for n in range(d)] for m in range(d)
                    ])
                    oracle[b] = np.sum(rho.entries[:d, :d].T * elements)
            want = np.array([oracle[b] for b in betas.ravel()])
            assert np.max(np.abs(got.ravel() - want)) <= 1e-12

    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 31),
        extent=st.floats(0.1, 6.0),
        points=st.one_of(st.integers(1, 3), st.integers(1, 40)),
    )
    @settings(max_examples=40, deadline=None)
    def test_paired_lattice_matches_shuffled_points(self, seed, d, extent, points):
        # a lattice() mesh, even or odd, is closed under b -> ib, so the kernel sees one point
        # of each rotation orbit and writes the other three; shuffled, every point goes
        # through it: the two agree within what two evaluation orders of the same band sums
        # can guarantee at each point
        rng = np.random.default_rng(seed)
        rho = random_density(d + 1, occupied=d, rng=rng)
        betas = qe.lattice(extent, points)[1].ravel()
        order = rng.permutation(betas.size)
        assume(points == 1 or not rotation_closed(betas[order]))
        paired = pf.symmetric_charfunc(rho, betas)
        unpaired = np.empty_like(paired)
        unpaired[order] = pf.symmetric_charfunc(rho, betas[order])
        bound = evaluation_order_bound(rho.entries[:d, :d], betas)
        assert np.all(np.abs(paired - unpaired) <= bound)

    def test_lattice_memory_linear_in_points(self):
        # a (d, d, N) displacement stack would take 252 MB here
        rho = random_density(32, occupied=31, rng=np.random.default_rng(3))
        tracemalloc.start()
        try:
            qe.charfunc_grid(rho, pf.FilterSpec.s_param(0.0), 6.0, 128).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20


def two_triangle_stack(dim, beta):
    """<m|D(b)|n> with both triangles built: the band below the diagonal from pref b^k and
    the band above from its own prefactor pref (-b*)^k, on the same Laguerre rows."""
    x = np.abs(beta) ** 2
    out = np.empty((dim, dim, beta.size), dtype=complex)
    lower = upper = np.exp(-x / 2).astype(complex)
    first = 1.0
    for k in range(dim):
        if k:
            lower, upper, first = lower * beta, upper * -beta.conjugate(), first / np.sqrt(k)
        for n, row in enumerate(pf._laguerre_band(k, dim - k, x, first)):
            out[n + k, n], out[n, n + k] = lower * row, upper * row
    return out


def fold_state(kind, d, rng):
    """A state on d levels with one empty level above: coherent, even cat, or the exactly
    Hermitian mean of a random state."""
    amp = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform())
    if kind == "cat":
        return even_cat(amp, d, d + 1)
    if kind == "coherent":
        c = fc.coherent_vector(amp, d - 1)
        return fc.embed(fc.DensityMatrix(d, np.outer(c, c.conj()) / np.vdot(c, c).real), d + 1)
    rho = random_density(d + 1, occupied=d, rng=rng)
    return fc.DensityMatrix(d + 1, fc.hermitian_mean(rho.entries))


class TestAnchoredKernel:
    """The recurrence runs on the bands k = 0 mod 3 only, and at s = 0 only; bands k + 1 and
    k + 2 are folded onto the anchor's rows by L_n^(k+1) = sum_{j<=n} L_j^(k), and the rows
    at s < 0 are M_k(s) times the rows at s = 0 (the multiplication theorem)."""

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 100),
           s=st.sampled_from([None, 0.0, -0.5, -1.0, -2.5]), extent=st.floats(0.1, 4.0),
           points=st.integers(2, 9))
    @settings(max_examples=40, deadline=None)
    # 31 dense levels on the default beta and alpha lattices; at s = -0.5, q = -1/3, so the
    # fold's q^(n-j) factors are not all +-1
    @example(seed=22, d=31, s=None, extent=6.0, points=128)
    @example(seed=22, d=31, s=0.0, extent=4.0, points=129)
    @example(seed=22, d=31, s=-0.5, extent=4.0, points=129)
    def test_anchored_bands_match_per_band_recurrence(self, seed, d, s, extent, points):
        # D (s None) and T(alpha, s) of a dense state, with one empty level above it, on a
        # lattice (one point per rotation orbit reaches the class sums) and on its points
        # shuffled (every point does), against one recurrence per band and point
        rng = np.random.default_rng(seed)
        rho = random_density(d + 1, occupied=d, rng=rng)
        mesh = qe.lattice(extent, points)[1].ravel()
        shuffled = rng.permutation(mesh)
        assume(not rotation_closed(shuffled))
        with pytest.MonkeyPatch.context() as patch:
            sizes = spy(patch, pf, "_class_sums", lambda e, p, *args: p.size)
            for betas in (mesh, shuffled):
                got = (pf.symmetric_charfunc(rho, betas) if s is None
                       else qe.quasiprob_pointwise(rho, betas, s))
                want = band_trace_per_band(rho.entries[:d, :d], betas, s)
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert sizes == [(points // 2) * (points - points // 2) + points % 2, points**2]

    def test_mpmath_spot_check(self):
        # 60 dense levels, 12 points of the 4:129 lattice, against mpmath's Laguerre
        # polynomials at 30 digits: at s = 0 and, from the s = 0 rows of those points (the T
        # table the call at s = 0 takes) and M_k(s), at s < 0
        rng = np.random.default_rng(60)
        rho = random_density(61, occupied=60, rng=rng)
        alpha = qe.lattice(4.0, 129)[1].ravel()[rng.choice(129**2, 12, replace=False)]
        for s in (0.0, -0.3, -0.7, -1.0):
            want = np.array([quasiprob_mpmath(rho.entries[:60, :60], a, s) for a in alpha])
            got = qe.quasiprob_pointwise(rho, alpha, s)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), s

    @pytest.mark.parametrize("d", [31, 60])
    def test_multiplication_weights(self, d):
        # M_k(0) is the identity and every entry of M_k(s) is finite and >= 0 for s < 0; on
        # the s = 0 rows at the radii of 4:129, the columns M_k(s)^T w give the band sums
        # w . R(s) of the recurrence at s itself, within 1e-14 of the largest of them
        rng = np.random.default_rng(d)
        distinct = pf._kept(qe.lattice(4.0, 129)[1])[5][0]
        for k in (0, 1, d // 2, d - 1):
            assert np.array_equal(pf._multiplication(k, d - k, 0.0), np.eye(d - k))
            for s in (-1e300, -2.5, -1.0, -0.5, -1e-3):
                weights = pf._multiplication(k, d - k, s)
                assert np.isfinite(weights).all() and (weights >= 0).all()
        for s in (-0.05, -0.3, -0.7, -0.99, -1.0, -2.5):
            first, errors, sums = 1.0, [], []
            for k in range(d):
                first = first / np.sqrt(k) if k else first
                w = rng.standard_normal(d - k)
                at_zero = pf._laguerre_band(k, d - k, -4.0 * distinct, first, -1.0)
                at_s = pf._laguerre_band(k, d - k, -4 / (1 - s) ** 2 * distinct, first,
                                         (s + 1) / (s - 1))
                want = w @ at_s
                columns = pf._multiplication(k, d - k, s).T @ w
                errors.append(np.max(np.abs(columns @ at_zero - want)))
                sums.append(np.max(np.abs(want)))
            assert max(errors) <= 1e-14 * max(sums), s

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 31, 200])
    def test_group_columns_match_the_closed_form(self, d):
        # every group's columns against T^(a)^T c from the closed form T^(a)[n, j] =
        # C(n-j+a-1, a-1) q^(n-j) sqrt(n! (j+k)! / (j! (n+k+a)!)), each root from the ratio of
        # exact factorials (int division rounds once: math.lgamma is off by 1e-13 at 200
        # levels) and each product summed in long double, within 1e-15 of sum |T| |c|; at
        # q = 0 (s = -1) T^(a) is diagonal, and at s < -1, 0 < q < 1
        rng = np.random.default_rng(d)
        e = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        two_h = e + e.conj().T
        two_h[np.diag_indices(d)] /= 2
        fact = [factorial(m) for m in range(2 * d + 2)]
        gap = np.subtract.outer(np.arange(d), np.arange(d))
        anchors = range(0, d, 3) if d < 100 else (0, 3, 63, 99, 138, 198)
        q_free = {}
        for k in anchors:
            for a in (1, 2):
                t = q_free[k, a] = np.zeros((d, d))
                for n in range(d - k - a):
                    for j in range(n + 1):
                        t[n, j] = comb(n - j + a - 1, a - 1) * np.sqrt(
                            fact[n] * fact[j + k] / (fact[j] * fact[n + k + a]))
        for q in (1.0, -1.0, 0.0, -1 / 3, 1 / 3):
            groups = pf._group_columns(e, q, d - 1)
            assert groups.shape == (d, len(range(0, d, 3)), 3, 2)
            got = groups[..., 0] + 1j * groups[..., 1]
            for k in anchors:
                c = [np.append(two_h.diagonal(k + a), np.zeros(min(k + a, d))) for a in range(3)]
                assert np.array_equal(got[:, k // 3, 0], c[0])
                for a in (1, 2):
                    fold = q_free[k, a] * q ** np.maximum(gap, 0)
                    want = fold.astype(np.longdouble).T @ c[a].astype(np.clongdouble)
                    bound = 1e-15 * np.sum(np.abs(fold).T @ np.abs(c[a]))
                    assert np.max(np.abs(got[:, k // 3, a] - want)) <= bound, (q, k, a)

    def test_recurrence_runs_on_every_third_band(self, monkeypatch):
        # a dense state on 31 levels runs 11 recurrences, 176 rows, in place of 31 and 496;
        # a diagonal state holds band 0 alone and runs one. No row table is held or kept, so
        # each call builds its own rows
        monkeypatch.setattr(pf, "_row_tables", {})
        monkeypatch.setattr(pf, "_ROW_TABLE_BYTES", 0)
        calls = spy(monkeypatch, pf, "_laguerre_band", lambda k, count, *args: (k, count))
        dense = random_density(32, occupied=31, rng=np.random.default_rng(31))
        qe.quasiprob_pointwise(dense, qe.lattice(4.0, 129)[1], 0.0)
        pf.symmetric_charfunc(dense, qe.lattice(6.0, 128)[1])
        anchors = [(k, 31 - k) for k in range(30, -1, -3)]
        assert calls == anchors * 2 and sum(count for _, count in anchors) == 176
        calls.clear()
        qe.quasiprob_pointwise(fc.make_thermal(0.7, 30), qe.lattice(4.0, 129)[1], 0.0)
        assert calls == [(0, 31)]


class TestHermitianFold:
    """Band k of D(b) above the diagonal is (-1)^k times the conjugate of the band below,
    so the kernel sums one triangle of the Hermitian part of the state."""

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 31),
           kind=st.sampled_from(["coherent", "cat", "hermitian"]))
    @settings(max_examples=30, deadline=None)
    def test_fold_matches_two_triangle_sum(self, seed, d, kind):
        rng = np.random.default_rng(seed)
        rho = fold_state(kind, d, rng)
        # three points and their negatives, which take the plain path, and a 2x2 rotation
        # orbit (b, ib, -ib, -b), of which the kernel sees b alone
        b = rng.uniform(0.0, 6.0, 3) * np.exp(2j * np.pi * rng.uniform(size=3))
        orbit = np.array([b[0], 1j * b[0], -1j * b[0], -b[0]])
        assert rotation_closed(orbit)
        for betas in (np.concatenate([b, -b[::-1]]), orbit):
            got = pf.symmetric_charfunc(rho, betas)
            for beta, value in zip(betas, got):
                elements = np.array(
                    [[displacement_element(m, n, beta) for n in range(d)] for m in range(d)]
                )
                # both triangles: sum_{n,m} rho[n, m] <m|D|n>
                assert abs(value - np.sum(rho.entries[:d, :d].T * elements)) < 1e-12

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 31), extent=st.floats(0.1, 8.0),
           points=st.integers(1, 12))
    @settings(max_examples=30, deadline=None)
    def test_displacement_stack_equals_two_triangle_assembly(self, seed, d, extent, points):
        rng = np.random.default_rng(seed)
        shuffled = rng.permutation(qe.lattice(extent, points)[1].ravel())
        for betas in (qe.lattice(extent, points)[1].ravel(), shuffled):
            assert np.array_equal(pf.displacement_stack(d, betas), two_triangle_stack(d, betas))

    @pytest.mark.parametrize("d", [1, 2, 7, 20])
    def test_non_hermitian_matrix_gives_its_hermitian_part(self, d):
        rng = np.random.default_rng(d)
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = fc.embed(fc.DensityMatrix(d, m), d + 1)
        herm = fc.embed(fc.DensityMatrix(d, fc.hermitian_mean(m)), d + 1)
        mesh = qe.lattice(3.0, 9)[1]
        for points in (mesh, rng.permutation(mesh.ravel())):
            assert np.array_equal(pf.symmetric_charfunc(rho, points),
                                  pf.symmetric_charfunc(herm, points))
            assert np.array_equal(qe.quasiprob_pointwise(rho, points, -0.4),
                                  qe.quasiprob_pointwise(herm, points, -0.4))
        if d > 1:  # Tr(m D) of the matrix itself is another value
            assert abs(pf.symmetric_charfunc(rho, 0.7) - np.trace(
                m @ pf.displacement_stack(d, np.array([0.7]))[:, :, 0])) > 1e-3


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


class TestOverflowingFilter:
    """A filtered characteristic function that is not finite at a requested beta is
    NonFiniteArgument, with no warning (the suite turns warnings into errors)."""

    HUGE = pf.FilterSpec.general({(2, 0): 1e308})

    @pytest.mark.parametrize("f", [HUGE, pf.FilterSpec.s_param(30.0)], ids=["c20-1e308", "s30"])
    def test_one_mode(self, f):
        betas = qe.lattice(6.0, 32)[1]
        with pytest.raises(NonFiniteArgument):
            pf.filtered_charfunc(fc.make_fock(1, 20), f, betas)
        with pytest.raises(NonFiniteArgument):
            pf.vacuum_charfunc(f, betas)

    def test_two_mode(self):
        rho = fc.tensor(fc.make_fock(1, 6), fc.make_fock(0, 6))
        with pytest.raises(NonFiniteArgument):
            pf.two_mode_charfunc(rho, self.HUGE, 1.5, 0.5j)

    def test_band_rows_that_overflow_raise(self):
        # 31 levels at |beta| = 1e6: the Laguerre rows overflow where e^{-|b|^2/2} is 0, on
        # any point set and on a kept mesh's orbits alike
        rho = fc.make_coherent(1, 30)
        for beta in (1e6, np.array([0.5, 1e6j]), qe.lattice(1e6, 5)[1]):
            with pytest.raises(NonFiniteArgument):
                pf.symmetric_charfunc(rho, beta)
            with pytest.raises(NonFiniteArgument):
                pf.filtered_charfunc(rho, pf.FilterSpec.s_param(-0.5), beta)

    def test_finite_values_pass(self):
        # s = 30 stays finite on a small lattice: only the corners of 6:128 overflow
        vals = pf.filtered_charfunc(fc.make_fock(1, 20), pf.FilterSpec.s_param(30.0), 2.0)
        assert vals == pytest.approx(-3 * np.exp(29 * 2.0), rel=1e-12)


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
        # mode 2 occupies its top level, and with leakage 0 that is no truncation: both modes
        # are exact at |beta| = 3, mode 2's value e^{-9/2} L_4(9) = -(37/8) e^{-9/2}
        rho = fc.tensor(fc.make_fock(0, 4), fc.make_fock(4, 4))
        f = pf.FilterSpec.s_param(0.0)
        assert pf.two_mode_charfunc(rho, f, 3.0, 0.0) == pytest.approx(np.exp(-4.5), abs=1e-15)
        assert pf.two_mode_charfunc(rho, f, 0.0, 3.0) == pytest.approx(
            -37 / 8 * np.exp(-4.5), abs=1e-15)


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
