import numpy as np
import pytest

from phaselab import theorem_lab as tl
from phaselab.classical_fields import BeamSplitterParams
from phaselab.errors import InvalidWeights
from phaselab.phase_filters import FilterSpec

SQ2 = 1 / np.sqrt(2)


class TestResidual:
    def test_gaussian_family_invariant(self):
        rng = np.random.default_rng(1)
        for s in np.linspace(-2.0, 2.0, 17):
            f = FilterSpec.s_param(float(s))
            worst = 0.0
            for _ in range(50):
                bs = tl.random_splitter(rng)
                res = tl.filter_bs_residual(
                    f, bs, tl._random_beta(rng), tl._random_beta(rng)
                )
                worst = max(worst, res)
            # float64 roundoff grows with e^{s |beta|^2}; the bound below is
            # attainable through s = 1.5, the extreme growths need slack
            tol = 1e-12 if abs(s) <= 1.5 else 5e-12
            assert worst <= tol

    def test_wigner_filter_exact_zero(self):
        f = FilterSpec.s_param(0.0)
        bs = BeamSplitterParams(0.6, 0.8j)
        assert tl.filter_bs_residual(f, bs, 1.0 + 0.5j, -0.3 + 0.2j) == 0.0

    def test_quartic_filter_breaks(self):
        f = FilterSpec.general({(2, 2): 0.1})
        res = tl.filter_bs_residual(f, tl.SPECIAL_BS_CASES[0], 1.0, 0.0)
        assert res > 1e-3

    def test_global_phase_enters(self):
        # a real orthogonal splitter keeps b3^2 + b4^2; its phase phi_U = 0.9 does not
        f = FilterSpec.general({(2, 0): 0.3})
        bs = BeamSplitterParams(0.6, 0.8, phi_U=0.9)
        b3, b4 = 0.7 + 0.2j, -0.3 + 0.5j
        a1, a2 = bs.matrix().conj().T @ np.array([b3, b4])
        want = abs(np.exp(0.3 * (b3**2 + b4**2)) - np.exp(0.3 * (a1**2 + a2**2)))
        assert want == pytest.approx(0.141, abs=1e-3)
        assert tl.filter_bs_residual(f, bs, b3, b4) == pytest.approx(want, rel=1e-13)
        assert tl.filter_bs_residual(f, BeamSplitterParams(0.6, 0.8), b3, b4) == 0.0

    def test_random_splitters_carry_a_global_phase(self):
        rng = np.random.default_rng(3)
        phases = [tl.random_splitter(rng).phi_U for _ in range(20)]
        assert len(set(phases)) == 20 and all(0 <= p < 2 * np.pi for p in phases)


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


class TestClassifyBS:
    @pytest.mark.parametrize("s", [-1.0, -0.5, 0.0, 0.5, 1.0])
    def test_gaussian_covariant(self, s):
        v = tl.classify_filter_bs(FilterSpec.s_param(s))
        assert v.verdict == tl.COVARIANT
        assert v.s == s
        assert v.max_residual <= 1e-10
        assert v.witness is None

    def test_general_diagonal_reduces(self):
        v = tl.classify_filter_bs(FilterSpec.general({(1, 1): 0.25}))
        assert v.verdict == tl.COVARIANT
        assert v.s == pytest.approx(0.5)

    def test_every_offdiagonal_coefficient_breaks(self):
        specials = {(bs.t, bs.r) for bs in tl.SPECIAL_BS_CASES}
        for k in range(5):
            for l in range(5 - k):
                if (k, l) in [(0, 0), (1, 1)]:
                    continue
                v = tl.classify_filter_bs(FilterSpec.general({(k, l): 0.3}))
                assert v.verdict == tl.NOT_COVARIANT, (k, l)
                bs, _, _, res = v.witness
                assert (bs.t, bs.r) in specials
                assert res > 1e-10

    def test_trial_count_guard(self):
        with pytest.raises(InvalidWeights):
            tl.classify_filter_bs(FilterSpec.s_param(0.0), trials=0)


class TestClassifyAttenuator:
    def test_flat_vacuum_filter(self):
        v = tl.classify_filter_attenuator(FilterSpec.s_param(1.0), tl.disk_grid())
        assert v.verdict == tl.CLASSICAL_ATTENUATION
        assert v.max_deviation <= 1e-14
        assert v.witness_beta is None

    @pytest.mark.parametrize("s", [-1.0, 0.0, 0.5, 0.99])
    def test_other_gaussians_fail(self, s):
        v = tl.classify_filter_attenuator(FilterSpec.s_param(s), tl.disk_grid())
        assert v.verdict == tl.NOT_CLASSICAL
        assert v.witness_beta is not None
        assert v.max_deviation > 1e-12

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidWeights):
            tl.classify_filter_attenuator(FilterSpec.s_param(1.0), [])


class TestDiskGrid:
    def test_radius_clip(self):
        g = tl.disk_grid(radius=2.0, points=21)
        assert np.max(np.abs(g)) <= 2.0
        assert np.any(g == 0)
