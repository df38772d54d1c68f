import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaselab import theorem_lab as tl
from phaselab.classical_fields import BeamSplitterParams
from phaselab.errors import InvalidWeights, NonFiniteArgument
from phaselab.phase_filters import FilterSpec

SQ2 = 1 / np.sqrt(2)
SPECIALS = {(bs.t, bs.r) for bs in tl.SPECIAL_BS_CASES}


class TestResidual:
    def test_gaussian_family_invariant(self):
        m, b3, b4 = tl.random_probes(np.random.default_rng(1), 50)
        for s in np.linspace(-2.0, 2.0, 17):
            worst = tl.filter_bs_residual(FilterSpec.s_param(float(s)), m, b3, b4).max()
            assert worst <= 1e-14

    def test_wigner_filter_exact_zero(self):
        f = FilterSpec.s_param(0.0)
        bs = BeamSplitterParams(0.6, 0.8j)
        assert tl.filter_bs_residual(f, bs.matrix(), 1.0 + 0.5j, -0.3 + 0.2j) == 0.0

    def test_quartic_filter_breaks(self):
        f = FilterSpec.general({(2, 2): 0.1})
        res = tl.filter_bs_residual(f, tl.SPECIAL_BS_CASES[0].matrix(), 1.0, 0.0)
        assert res > 1e-3

    def test_global_phase_enters(self):
        # a real orthogonal splitter keeps b3^2 + b4^2; its phase phi_U = 0.9 does not
        f = FilterSpec.general({(2, 0): 0.3})
        bs = BeamSplitterParams(0.6, 0.8, phi_U=0.9)
        b3, b4 = 0.7 + 0.2j, -0.3 + 0.5j
        a1, a2 = bs.matrix().conj().T @ np.array([b3, b4])
        lhs = 0.3 * (b3**2 + b4**2)
        want = abs(lhs - 0.3 * (a1**2 + a2**2)) / max(1.0, abs(lhs))
        assert want == pytest.approx(0.137, abs=1e-3)
        assert tl.filter_bs_residual(f, bs.matrix(), b3, b4) == pytest.approx(want, rel=1e-13)
        # without the phase only the rounding of 0.6^2 + 0.8^2 = 1 is left, and none at all
        # for the swap, whose entries are exact
        assert tl.filter_bs_residual(f, BeamSplitterParams(0.6, 0.8).matrix(), b3, b4) <= 1e-16
        assert tl.filter_bs_residual(f, BeamSplitterParams(0.0, 1.0).matrix(), b3, b4) == 0.0

    def test_stack_matches_one_at_a_time(self):
        f = FilterSpec.general({(2, 1): 0.2 - 0.1j, (1, 1): 0.3})
        m, b3, b4 = tl.random_probes(np.random.default_rng(5), 12)
        each = [tl.filter_bs_residual(f, mi, x, y) for mi, x, y in zip(m, b3, b4)]
        assert tl.filter_bs_residual(f, m, b3, b4).tolist() == each

    def test_large_s_stays_finite(self):
        # the exponent difference cannot overflow where exp(s |beta|^2) would
        m, b3, b4 = tl.random_probes(np.random.default_rng(2), 20)
        assert tl.filter_bs_residual(FilterSpec.s_param(1e4), m, b3, b4).max() <= 1e-14

    def test_random_splitters_carry_a_global_phase(self):
        m, b3, b4 = tl.random_probes(np.random.default_rng(3), 20)
        # M00 = t e^{i phi_U} with t = cos(theta) >= 0
        phases = np.angle(m[:, 0, 0]) % (2 * np.pi)
        assert len(set(phases.tolist())) == 20
        unitary = np.einsum("nij,nkj->nik", m, m.conj())
        assert np.allclose(unitary, np.eye(2), atol=1e-15)
        assert np.abs(b3).max() <= 2 and np.abs(b4).max() <= 2


class TestOverflowingResidual:
    def test_non_finite_exponent_is_inf(self):
        f = FilterSpec.general({(2, 0): 1e308})
        m, b3, b4 = tl.random_probes(np.random.default_rng(3), 20)
        res = tl.filter_bs_residual(f, m, b3, b4)
        assert (res == np.inf).all()
        v = tl.classify_filter_bs(f, trials=20)
        assert v.verdict == tl.NOT_COVARIANT and v.max_residual == np.inf
        assert v.witness[-1] == np.inf


class TestBracketCoefficient:
    def test_balanced_real(self):
        bs = BeamSplitterParams(SQ2, SQ2)
        assert tl.bracket_coefficient(2, 0, bs) == pytest.approx(1.0)
        assert tl.bracket_coefficient(1, 1, bs) == pytest.approx(1.0)

    def test_balanced_imaginary_arm(self):
        bs = BeamSplitterParams(SQ2, 1j * SQ2)
        # (k, l) = (2, 0): (1/2) + (-i)^2/2 = 0
        assert tl.bracket_coefficient(2, 0, bs) == pytest.approx(0.0, abs=1e-15)
        assert tl.bracket_coefficient(1, 1, bs) == pytest.approx(1.0)

    def test_unit_diagonal(self):
        for bs in tl.SPECIAL_BS_CASES:
            assert tl.bracket_coefficient(1, 1, bs) == pytest.approx(1.0)

    def test_global_phase(self):
        # each factor of beta picks up e^{-i phi_U}, each of beta* e^{i phi_U}
        bs = BeamSplitterParams(0.6, 0.8j, phi_U=0.9)
        base = tl.bracket_coefficient(2, 0, BeamSplitterParams(0.6, 0.8j))
        assert tl.bracket_coefficient(2, 0, bs) == pytest.approx(base * np.exp(-1.8j), abs=1e-15)
        assert tl.bracket_coefficient(1, 1, bs) == pytest.approx(1.0)


def assert_witnessed(v):
    assert v.verdict == tl.NOT_COVARIANT and v.s is None
    bs, _, _, res = v.witness
    assert (bs.t, bs.r) in SPECIALS
    assert res > 0


# powers (k, l) with k + l <= 4 other than (0, 0) and (1, 1)
OFF_TERMS = [(k, l) for k in range(5) for l in range(5 - k) if (k, l) not in [(0, 0), (1, 1)]]
COEFF = st.builds(
    lambda mag, phase: mag * np.exp(1j * phase), st.floats(1e-3, 1.0), st.floats(0, 2 * np.pi)
)


class TestClassifyBS:
    @pytest.mark.parametrize("s", [-1.0, -0.5, 0.0, 0.5, 1.0, 3.0, 5.0, 10.0, 50.0, 400.0, -60.0])
    def test_gaussian_covariant(self, s):
        v = tl.classify_filter_bs(FilterSpec.s_param(s))
        assert v.verdict == tl.COVARIANT
        assert v.s == s
        assert v.max_residual <= 1e-10
        assert v.witness is None

    @given(s=st.floats(-50.0, 50.0))
    @settings(max_examples=60, deadline=None)
    def test_every_s_covariant(self, s):
        v = tl.classify_filter_bs(FilterSpec.s_param(s))
        assert v.verdict == tl.COVARIANT and v.s == s and v.witness is None
        assert v.max_residual <= 1e-13

    def test_general_diagonal_reduces(self):
        v = tl.classify_filter_bs(FilterSpec.general({(1, 1): 0.25}))
        assert v.verdict == tl.COVARIANT
        assert v.s == pytest.approx(0.5)

    def test_every_offdiagonal_coefficient_breaks(self):
        for k, l in OFF_TERMS:
            v = tl.classify_filter_bs(FilterSpec.general({(k, l): 0.3}))
            assert_witnessed(v)
            assert v.witness[3] > 1e-10, (k, l)

    @given(
        terms=st.dictionaries(st.sampled_from(OFF_TERMS), COEFF, min_size=1, max_size=3),
        c11=st.one_of(st.none(), st.floats(-1.0, 1.0)),
    )
    @settings(max_examples=100, deadline=None)
    def test_any_offdiagonal_term_is_witnessed(self, terms, c11):
        if c11 is not None:
            terms = {**terms, (1, 1): c11}
        v = tl.classify_filter_bs(FilterSpec.general(terms))
        assert_witnessed(v)
        k, l = min(terms.keys() - {(1, 1)})
        assert f"c_{k}{l}" in v.reason

    def test_tiny_quartic_term_witnessed(self):
        assert_witnessed(tl.classify_filter_bs(FilterSpec.general({(1, 1): 0.5, (2, 2): 1e-14})))

    def test_complex_c11_rejected_with_reason(self):
        v = tl.classify_filter_bs(FilterSpec.general({(1, 1): 0.5 + 1e-16j}))
        assert v.verdict == tl.NOT_COVARIANT and v.witness is None
        assert "not real" in v.reason
        assert v.max_residual <= 1e-13

    def test_split_c11_terms_sum(self):
        f = FilterSpec(coeffs=((1, 1, 0.2), (1, 1, 0.05)))
        assert tl.classify_filter_bs(f).s == 0.5

    def test_seed_moves_only_the_residual(self):
        f = FilterSpec.general({(2, 0): 0.3})
        a, b = tl.classify_filter_bs(f, seed=1), tl.classify_filter_bs(f, trials=7, seed=2)
        assert a.witness == b.witness and a.reason == b.reason
        assert a.max_residual != b.max_residual

    def test_trial_count_guard(self):
        with pytest.raises(InvalidWeights):
            tl.classify_filter_bs(FilterSpec.s_param(0.0), trials=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, None])
    def test_seed_guard(self, seed):
        with pytest.raises(InvalidWeights, match="nonnegative integer"):
            tl.classify_filter_bs(FilterSpec.s_param(0.0), seed=seed)


class TestClassifyAttenuator:
    @pytest.mark.parametrize("points", [2.5, True, 0])
    def test_disk_grid_points_guard(self, points):
        # 2.5 was a TypeError from linspace, and True and 0 an empty grid
        with pytest.raises(InvalidWeights, match=f"positive integer, got {points!r}$"):
            tl.disk_grid(3.0, points)

    def test_flat_vacuum_filter(self):
        v = tl.classify_filter_attenuator(FilterSpec.s_param(1.0), tl.disk_grid())
        assert v.verdict == tl.CLASSICAL_ATTENUATION
        assert v.max_deviation <= 1e-14
        assert v.witness_beta is None

    def test_series_p_filter(self):
        v = tl.classify_filter_attenuator(FilterSpec.general({(1, 1): 0.5}), tl.disk_grid())
        assert v.verdict == tl.CLASSICAL_ATTENUATION
        assert v.max_deviation <= 1e-14

    @pytest.mark.parametrize("s", [-1.0, 0.0, 0.5, 0.99])
    def test_other_gaussians_fail(self, s):
        v = tl.classify_filter_attenuator(FilterSpec.s_param(s), tl.disk_grid())
        assert v.verdict == tl.NOT_CLASSICAL
        assert v.witness_beta is not None
        assert v.max_deviation > 1e-12
        assert v.max_deviation == pytest.approx(-np.expm1((s - 1) * 4.5), rel=1e-14)

    def test_near_p_not_classical(self):
        v = tl.classify_filter_attenuator(FilterSpec.s_param(1 + 1e-14), tl.disk_grid())
        assert v.verdict == tl.NOT_CLASSICAL
        assert 0 < v.max_deviation < 1e-12

    def test_overflow_is_inf_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = tl.classify_filter_attenuator(FilterSpec.s_param(400.0), tl.disk_grid())
            w = tl.classify_filter_attenuator(FilterSpec.general({(2, 0): 80.0}), tl.disk_grid())
        assert v.verdict == w.verdict == tl.NOT_CLASSICAL
        assert v.max_deviation == w.max_deviation == np.inf
        assert abs(v.witness_beta) == 3.0

    def test_non_finite_exponent_is_inf(self):
        # 1e308 beta^2 overflows to inf or NaN at every beta with |beta| >= 1
        v = tl.classify_filter_attenuator(FilterSpec.general({(2, 0): 1e308}), tl.disk_grid())
        assert v.verdict == tl.NOT_CLASSICAL and v.max_deviation == np.inf
        z = FilterSpec.general({(2, 0): 1e308}).exponent(v.witness_beta)
        assert not (np.isfinite(z) and z.real <= np.log(np.finfo(float).max))

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidWeights):
            tl.classify_filter_attenuator(FilterSpec.s_param(1.0), [])

    @pytest.mark.parametrize("grid", [[np.nan, 0.5], [np.inf], [0.5, 1j * np.inf]],
                             ids=["nan", "inf", "imaginary inf"])
    def test_non_finite_probe_rejected(self, grid):
        # a NaN point read CLASSICAL_ATTENUATION with an inf deviation, and inf a witness
        with pytest.raises(NonFiniteArgument, match="probe grid must be finite"):
            tl.classify_filter_attenuator(FilterSpec.s_param(1.0), grid)


class TestDiskGrid:
    @pytest.mark.parametrize("radius, points, size", [(3.0, 41, 1257), (2.0, 21, 317), (1.5, 8, 32)])
    def test_disk_grid_is_closed_under_rotation_and_negation(self, radius, points, size):
        # the disk is cut from a lattice() mesh, whose axis is exactly antisymmetric, so
        # beta -> -beta and beta -> i beta map its points onto themselves bit for bit
        g = tl.disk_grid(radius, points)
        assert g.size == size
        for image in (-g, 1j * g):
            assert np.array_equal(np.sort_complex(image), np.sort_complex(g))

    @pytest.mark.parametrize("radius", [np.nan, np.inf, -np.inf, 1e308])
    def test_non_finite_radius_rejected(self, radius):
        # linspace spanned the NaN or infinite radius and returned NaN-tainted points
        with pytest.raises(NonFiniteArgument, match="must be finite"):
            tl.disk_grid(radius)

    def test_radius_clip(self):
        g = tl.disk_grid(radius=2.0, points=21)
        assert np.max(np.abs(g)) <= 2.0
        assert np.any(g == 0)
