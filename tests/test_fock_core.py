import numpy as np
import pytest
from scipy.linalg import expm

from phaselab import fock_core as fc
from phaselab.errors import CutoffTooSmall, DimensionMismatch, InvalidWeights, NonFiniteArgument

from _support import random_density


def displacement_oracle(beta, dim=30):
    """Brute-force matrix exponential of beta a^dag - beta* a."""
    a = fc.annihilation(dim)
    return expm(beta * a.conj().T - np.conj(beta) * a)


class TestBuilders:
    def test_fock_projector(self):
        rho = fc.make_fock(1, 5)
        assert rho.entries[1, 1] == 1.0
        assert np.count_nonzero(rho.entries) == 1
        assert rho.entries.trace() == 1.0

    def test_fock_vacuum(self):
        rho = fc.make_fock(0, 3)
        assert rho.entries[0, 0] == 1.0

    def test_fock_above_cutoff(self):
        with pytest.raises(CutoffTooSmall):
            fc.make_fock(4, 2)

    def test_coherent_zero_is_vacuum(self):
        rho = fc.make_coherent(0, 8)
        assert np.allclose(rho.entries, fc.make_fock(0, 8).entries)

    def test_coherent_mean_photon_number(self):
        # oracle: Poisson mean |alpha|^2 of the coherent expansion
        rho = fc.make_coherent(1.0, 20)
        assert abs(fc.normal_moment(rho, 1, 1) - 1.0) <= 1e-10

    def test_coherent_leakage_rejected(self):
        # oracle: Poisson tail mass beyond cutoff 5 at |alpha|=4 is huge
        with pytest.raises(CutoffTooSmall):
            fc.make_coherent(4.0, 5)

    @pytest.mark.parametrize("alpha", [complex("nan"), complex(0.5, float("inf"))])
    def test_coherent_non_finite_rejected(self, alpha):
        with pytest.raises(NonFiniteArgument):
            fc.make_coherent(alpha, 20)

    def test_thermal_zero_temperature(self):
        assert np.allclose(fc.make_thermal(0.0, 3).entries, fc.make_fock(0, 3).entries)

    def test_thermal_mean(self):
        # oracle: geometric-series mean
        rho = fc.make_thermal(1.0, 60)
        assert abs(fc.normal_moment(rho, 1, 1) - 1.0) <= 1e-9

    def test_thermal_tail_rejected(self):
        with pytest.raises(CutoffTooSmall):
            fc.make_thermal(1.0, 2)

    @pytest.mark.parametrize(
        "rho",
        [
            fc.make_fock(2, 6),
            fc.make_coherent(0.7 + 0.4j, 20),
            fc.make_thermal(0.5, 40),
        ],
        ids=["fock", "coherent", "thermal"],
    )
    def test_builders_pass_validation(self, rho):
        assert fc.validate(rho).ok


class TestMix:
    def test_identity_mixture(self):
        rho = fc.make_coherent(0.5, 10)
        assert np.allclose(fc.mix([rho], [1.0]).entries, rho.entries)

    def test_orthogonal_mixture(self):
        out = fc.mix([fc.make_fock(0, 4), fc.make_fock(1, 4)], [0.5, 0.5])
        assert np.allclose(np.diag(out.entries), [0.5, 0.5, 0, 0, 0])

    def test_bad_weights(self):
        with pytest.raises(InvalidWeights):
            fc.mix([fc.make_fock(0, 4), fc.make_fock(1, 4)], [0.3, 0.6])

    def test_mismatched_dims(self):
        with pytest.raises(DimensionMismatch):
            fc.mix([fc.make_fock(0, 4), fc.make_fock(0, 5)], [0.5, 0.5])


class TestNormalMoments:
    def test_single_photon(self):
        rho = fc.make_fock(1, 8)
        assert fc.normal_moment(rho, 1, 1) == 1.0
        assert fc.normal_moment(rho, 2, 2) == 0.0

    def test_coherent_factorization(self):
        alpha = 0.8 - 0.3j
        rho = fc.make_coherent(alpha, 25)
        for m, n in [(1, 0), (0, 1), (1, 1), (2, 1), (2, 2)]:
            expected = np.conj(alpha) ** m * alpha**n
            assert abs(fc.normal_moment(rho, m, n) - expected) < 1e-9

    def test_normalization_moment(self):
        for rho in [fc.make_thermal(0.7, 50), fc.make_coherent(1.1, 25), random_density(12)]:
            assert abs(fc.normal_moment(rho, 0, 0) - 1.0) <= 1e-10

    def test_conjugate_symmetry(self):
        rho = random_density(12, rng=np.random.default_rng(3))
        for m, n in [(1, 0), (2, 1), (3, 2)]:
            assert fc.normal_moment(rho, m, n) == pytest.approx(
                np.conj(fc.normal_moment(rho, n, m))
            )

    def test_headroom_precondition(self):
        with pytest.raises(CutoffTooSmall):
            fc.normal_moment(fc.make_fock(0, 4), 2, 2)


class TestDisplacementElement:
    def test_vacuum_expectation(self):
        beta = 0.3 + 0.9j
        expected = np.exp(-abs(beta) ** 2 / 2)
        assert fc.displacement_element(0, 0, beta) == pytest.approx(expected)

    def test_element_11_at_one(self):
        # oracle: truncated matrix exponential at dim 30
        oracle = displacement_oracle(1.0)[1, 1]
        assert abs(oracle) < 1e-12
        assert abs(fc.displacement_element(1, 1, 1.0) - oracle) < 1e-12

    def test_element_20(self):
        beta = 0.6 - 0.2j
        oracle = displacement_oracle(beta)[2, 0]
        assert fc.displacement_element(2, 0, beta) == pytest.approx(oracle, abs=1e-10)
        closed = beta**2 / np.sqrt(2) * np.exp(-abs(beta) ** 2 / 2)
        assert fc.displacement_element(2, 0, beta) == pytest.approx(closed)

    def test_matches_matrix_exponential(self):
        beta = -0.4 + 0.7j
        oracle = displacement_oracle(beta)
        for m in range(6):
            for n in range(6):
                assert abs(fc.displacement_element(m, n, beta) - oracle[m, n]) < 1e-10

    def test_identity_at_zero(self):
        for m in range(4):
            for n in range(4):
                assert fc.displacement_element(m, n, 0.0) == (1.0 if m == n else 0.0)

    def test_unitarity_row_sums(self):
        beta = 0.7 + 0.2j
        cut = 40
        for m in range(4):
            for n in range(4):
                acc = sum(
                    fc.displacement_element(m, k, beta)
                    * np.conj(fc.displacement_element(n, k, beta))
                    for k in range(cut)
                )
                assert abs(acc - (1.0 if m == n else 0.0)) < 1e-8


class TestLevelOccupations:
    def test_single_mode_row_and_column_maxima(self):
        rho = random_density(9, occupied=5, rng=np.random.default_rng(2))
        a = np.abs(rho.entries)
        occ = fc.level_occupations(rho)
        assert occ.shape == (1, 9)
        assert np.array_equal(occ[0], np.maximum(a.max(axis=0), a.max(axis=1)))
        assert fc.effective_dim(occ[0]) == 5

    def test_two_mode_product(self):
        rng = np.random.default_rng(3)
        r1 = random_density(6, occupied=2, rng=rng)
        r2 = random_density(6, occupied=4, rng=rng)
        occ = fc.level_occupations(fc.tensor(r1, r2))
        assert occ.shape == (2, 6)
        assert [fc.effective_dim(row) for row in occ] == [2, 4]
        # mode 1 level m: the largest |r1[m, n] r2[p, q]| over rows and columns holding m
        top2 = np.abs(r2.entries).max()
        assert np.allclose(occ[0], fc.level_occupations(r1)[0] * top2, rtol=1e-15, atol=0)

    def test_empty_state_has_one_level(self):
        assert fc.effective_dim(np.zeros(4)) == 1


class TestCoherentVector:
    def test_vectorized_over_alpha(self):
        alphas = np.array([[0.0, 0.3 - 1.2j], [2.0j, -1.5]])
        c = fc.coherent_vector(alphas, 12)
        assert c.shape == (2, 2, 13)
        assert np.array_equal(c[0, 0], np.eye(13)[0])
        for idx in np.ndindex(alphas.shape):
            assert np.array_equal(c[idx], fc.coherent_vector(alphas[idx], 12))
        n = np.arange(13)
        fact = np.array([float(np.prod(np.arange(1, k + 1))) for k in n])
        want = np.exp(-abs(alphas[0, 1]) ** 2 / 2) * alphas[0, 1] ** n / np.sqrt(fact)
        assert np.allclose(c[0, 1], want, rtol=1e-13, atol=0)

    def test_leakage_elementwise(self):
        alphas = np.array([0.0, 1.0, 3.0])
        leak = fc.coherent_leakage(alphas, 5)
        assert leak.shape == (3,) and leak[0] == 0.0
        assert leak[2] == fc.coherent_leakage(3.0, 5) > leak[1] > 0


class TestValidate:
    def test_all_clear(self):
        assert fc.validate(fc.make_coherent(1.0, 20)).flags == ()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_flagged(self, bad):
        m = np.diag([1.0, 0, 0]).astype(complex)
        m[1, 1] = bad
        report = fc.validate(fc.DensityMatrix(3, m))
        assert report.flags == ("finite",)
        assert np.isnan(report.min_eigenvalue)

    def test_non_finite_state_file_rejected(self):
        obj = fc.save_state(fc.make_fock(0, 6))
        obj["re"][3][3] = float("nan")
        with pytest.raises(DimensionMismatch):
            fc.load_state(obj)

    def test_trace_flag(self):
        rho = fc.DensityMatrix(2, np.diag([0.5, 0.4]))
        report = fc.validate(rho)
        assert "trace" in report.flags

    def test_hermiticity_flag(self):
        m = np.diag([0.5, 0.5]).astype(complex)
        m[0, 1] = 1e-6
        report = fc.validate(fc.DensityMatrix(2, m))
        assert "hermiticity" in report.flags


class TestStateIO:
    def test_roundtrip(self):
        rho = fc.make_coherent(0.4 + 0.2j, 15)
        back = fc.load_state(fc.save_state(rho))
        assert back.dim == rho.dim
        assert back.n_modes == 1
        assert np.allclose(back.entries, rho.entries)
        assert back.leakage == rho.leakage

    def test_two_mode_roundtrip(self):
        rho = fc.tensor(fc.make_fock(1, 3), fc.make_fock(0, 3))
        back = fc.load_state(fc.save_state(rho))
        assert back.n_modes == 2
        assert np.allclose(back.entries, rho.entries)
