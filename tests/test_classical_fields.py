import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaselab import classical_fields as cl
from phaselab.errors import (
    DegenerateSplitter,
    DimensionMismatch,
    GainNotAllowed,
    InvalidWeights,
    NonFiniteArgument,
    NonUnitaryBeamSplitter,
)

SQ2 = 1 / np.sqrt(2)

amplitudes = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)


def symmetric_bs():
    return cl.BeamSplitterParams(SQ2, SQ2)


def assert_same_ensemble(a, b):
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert np.array_equal(a.weights, b.weights)


class TestFieldAtTime:
    def test_maximum_amplitude(self):
        assert cl.field_at_time(1.0, 2.0, 0.0) == pytest.approx(2.0)

    def test_imaginary_amplitude(self):
        assert cl.field_at_time(1j, 1.0, 0.0) == pytest.approx(0.0)

    def test_zero_field(self):
        assert cl.field_at_time(0.0, 5.0, 1.3) == 0.0


class TestBeamSplitterParams:
    def test_non_unitary_rejected(self):
        with pytest.raises(NonUnitaryBeamSplitter):
            cl.BeamSplitterParams(0.9, 0.9)

    @pytest.mark.parametrize(
        "t, r, phi_U",
        [
            (float("nan"), 0.0, 0.0),
            (1.0, complex("nan"), 0.0),
            (float("inf"), 0.0, 0.0),
            (1.0, 0.0, float("nan")),
            (SQ2, SQ2, float("inf")),
        ],
    )
    def test_non_finite_rejected(self, t, r, phi_U):
        with pytest.raises(NonUnitaryBeamSplitter):
            cl.BeamSplitterParams(t, r, phi_U)

    def test_matrix_is_unitary(self):
        u = cl.BeamSplitterParams(0.6, 0.8j).matrix()
        assert np.allclose(u @ u.conj().T, np.eye(2))


class TestClassicalBeamsplit:
    def test_symmetric_split(self):
        a3, a4 = cl.classical_beamsplit(1.0, 0.0, symmetric_bs())
        assert a3 == pytest.approx(SQ2)
        assert a4 == pytest.approx(-SQ2)

    def test_identity_splitter(self):
        alpha = 0.7 - 0.1j
        a3, a4 = cl.classical_beamsplit(alpha, 0.0, cl.BeamSplitterParams(1.0, 0.0))
        assert a3 == pytest.approx(alpha)
        assert a4 == pytest.approx(0.0)

    def test_constructive_destructive_arms(self):
        a3, a4 = cl.classical_beamsplit(1.0, 1.0, symmetric_bs())
        assert a3 == pytest.approx(np.sqrt(2))
        assert a4 == pytest.approx(0.0)

    @given(a1=amplitudes, a2=amplitudes)
    @settings(max_examples=50, deadline=None)
    def test_energy_conservation(self, a1, a2):
        bs = cl.BeamSplitterParams(0.6, 0.8 * np.exp(0.5j))
        a3, a4 = cl.classical_beamsplit(a1, a2, bs)
        assert abs(a3) ** 2 + abs(a4) ** 2 == pytest.approx(
            abs(a1) ** 2 + abs(a2) ** 2, abs=1e-12
        )


class TestSolveMissingAmplitudes:
    def test_spec_point(self):
        a2, a4 = cl.solve_missing_amplitudes(1.0, SQ2, symmetric_bs())
        assert a2 == pytest.approx(0.0, abs=1e-12)
        assert a4 == pytest.approx(-SQ2)

    def test_zero_fields(self):
        a2, a4 = cl.solve_missing_amplitudes(0.0, 0.0, cl.BeamSplitterParams(0.6, 0.8))
        assert a2 == 0 and a4 == 0

    def test_round_trip(self):
        bs = cl.BeamSplitterParams(0.6, 0.8 * np.exp(1.1j))
        a1, a2 = 0.4 + 0.2j, -0.9 + 0.5j
        a3, a4 = cl.classical_beamsplit(a1, a2, bs)
        b2, b4 = cl.solve_missing_amplitudes(a1, a3, bs)
        assert b2 == pytest.approx(a2, abs=1e-12)
        assert b4 == pytest.approx(a4, abs=1e-12)

    def test_transmission_output(self):
        bs = cl.BeamSplitterParams(0.6, 0.8j)
        a2, a4 = cl.solve_missing_amplitudes(1.0, bs.t, bs)
        assert a2 == pytest.approx(0.0, abs=1e-12)
        assert a4 == pytest.approx(-np.conj(bs.r), abs=1e-12)

    def test_degenerate(self):
        with pytest.raises(DegenerateSplitter):
            cl.solve_missing_amplitudes(1.0, 1.0, cl.BeamSplitterParams(1.0, 0.0))


class TestEnsembles:
    def test_single_point_image(self):
        ens = cl.ClassicalEnsemble.two_mode([(1.0, 0.0, 1.0)])
        out = cl.ensemble_beamsplit(ens, symmetric_bs())
        (amps,) = out.amplitudes
        assert amps[0] == pytest.approx(SQ2)
        assert amps[1] == pytest.approx(-SQ2)
        assert out.weights.tolist() == [1.0]

    def test_matches_sample_wise_splitter(self):
        rng = np.random.default_rng(8)
        amps = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
        ens = cl.ClassicalEnsemble(amps, np.full(6, 1 / 6))
        bs = cl.BeamSplitterParams(0.6, 0.8 * np.exp(0.9j), 0.4)
        out = cl.ensemble_beamsplit(ens, bs)
        want = [cl.classical_beamsplit(a1, a2, bs) for a1, a2 in amps]
        assert np.allclose(out.amplitudes, want, rtol=1e-15, atol=1e-15)

    def test_weights_preserved(self):
        ens = cl.ClassicalEnsemble.two_mode([(1.0, 0.5j, 0.25), (0.1, 0.0, 0.75)])
        out = cl.ensemble_beamsplit(ens, symmetric_bs())
        assert out.weights.tolist() == [0.25, 0.75]

    def test_identity_splitter_is_identity(self):
        ens = cl.ClassicalEnsemble.two_mode([(0.3, 0.8j, 0.5), (1.0, -1.0, 0.5)])
        out = cl.ensemble_beamsplit(ens, cl.BeamSplitterParams(1.0, 0.0))
        assert_same_ensemble(out, ens)

    def test_bad_weights(self):
        with pytest.raises(InvalidWeights):
            cl.ClassicalEnsemble.single([(1.0, 0.5), (2.0, 0.6)])

    @pytest.mark.parametrize("w", [float("nan"), float("inf"), -0.5])
    def test_non_finite_or_negative_weight(self, w):
        with pytest.raises(InvalidWeights):
            cl.ClassicalEnsemble.single([(1.0, w), (2.0, 1.0 - w)])

    @pytest.mark.parametrize("a", [complex("nan"), complex(0.0, float("inf"))])
    def test_non_finite_amplitude(self, a):
        with pytest.raises(NonFiniteArgument):
            cl.ClassicalEnsemble.two_mode([(1.0, a, 1.0)])

    def test_arrays(self):
        ens = cl.ClassicalEnsemble.two_mode([(1.0, 0.5j, 0.25), (0.1, 0.0, 0.75)])
        assert ens.n_modes == 2
        assert ens.amplitudes.dtype == complex and ens.amplitudes.shape == (2, 2)
        assert not ens.amplitudes.flags.writeable and not ens.weights.flags.writeable
        assert cl.ClassicalEnsemble([[1.0], [2.0]], [0.5, 0.5]).n_modes == 1
        with pytest.raises(InvalidWeights):
            cl.ClassicalEnsemble.single([])
        with pytest.raises(DimensionMismatch):
            cl.ClassicalEnsemble([[1.0, 2.0, 3.0]], [1.0])
        with pytest.raises(DimensionMismatch):
            cl.ClassicalEnsemble([[1.0], [2.0]], [1.0])


class TestClassicalAttenuate:
    def test_point_mass_scaling(self):
        ens = cl.ClassicalEnsemble.single([(2.0, 1.0)])
        out = cl.classical_attenuate(ens, SQ2)
        assert out.amplitudes[0, 0] == pytest.approx(np.sqrt(2))

    def test_identity(self):
        ens = cl.ClassicalEnsemble.single([(0.5 + 0.1j, 1.0)])
        assert_same_ensemble(cl.classical_attenuate(ens, 1.0), ens)

    def test_intensity_halves(self):
        ens = cl.ClassicalEnsemble.single([(1.0, 0.5), (2.0j, 0.5)])
        before = cl.classical_moments(ens, 1, 1).real
        after = cl.classical_moments(cl.classical_attenuate(ens, SQ2), 1, 1).real
        assert after == pytest.approx(before / 2)

    def test_gain_rejected(self):
        ens = cl.ClassicalEnsemble.single([(1.0, 1.0)])
        with pytest.raises(GainNotAllowed):
            cl.classical_attenuate(ens, 1.2)
        with pytest.raises(DegenerateSplitter):
            cl.classical_attenuate(ens, 0.0)
        with pytest.raises(GainNotAllowed):
            cl.classical_attenuate(ens, complex("nan"))


class TestClassicalMoments:
    def test_point_mass(self):
        ens = cl.ClassicalEnsemble.single([(1.5 - 0.5j, 1.0)])
        assert cl.classical_moments(ens, 1, 1) == pytest.approx(abs(1.5 - 0.5j) ** 2)

    def test_normalization(self):
        ens = cl.ClassicalEnsemble.single([(0.2, 0.3), (1.1j, 0.7)])
        assert cl.classical_moments(ens, 0, 0) == pytest.approx(1.0)

    def test_attenuation_scaling(self):
        rng = np.random.default_rng(11)
        amps = rng.normal(size=5) + 1j * rng.normal(size=5)
        w = rng.uniform(size=5)
        w /= w.sum()
        ens = cl.ClassicalEnsemble.single(zip(amps, w))
        t = 0.7 * np.exp(0.3j)
        eta = abs(t) ** 2
        out = cl.classical_attenuate(ens, t)
        for m in range(4):
            for n in range(4 - m):
                scale = eta ** ((m + n) / 2) * np.exp(1j * np.angle(t) * (n - m))
                assert cl.classical_moments(out, m, n) == pytest.approx(
                    scale * cl.classical_moments(ens, m, n), abs=1e-12
                )

    @given(st.lists(st.tuples(amplitudes, st.floats(0.01, 1.0)), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_classical_intensity_inequality(self, raw):
        total = sum(w for _, w in raw)
        ens = cl.ClassicalEnsemble.single([(a, w / total) for a, w in raw])
        g1 = cl.classical_moments(ens, 1, 1).real
        g2 = cl.classical_moments(ens, 2, 2).real
        assert g2 >= g1**2 - 1e-9 * max(1.0, g1**2)


class TestEnsembleIO:
    def test_roundtrip_single(self):
        ens = cl.ClassicalEnsemble.single([(0.3 + 0.1j, 0.4), (-1.0, 0.6)])
        assert_same_ensemble(cl.load_ensemble(cl.save_ensemble(ens)), ens)

    def test_file_format(self):
        ens = cl.ClassicalEnsemble.two_mode([(0.3, 1j, 1.0)])
        assert cl.save_ensemble(ens) == {
            "samples": [{"re1": 0.3, "im1": 0.0, "re2": 0.0, "im2": 1.0, "w": 1.0}],
            "n_modes": 2,
        }
        one = cl.ClassicalEnsemble.single([(0.3 - 2j, 1.0)])
        assert cl.save_ensemble(one) == {"samples": [{"re": 0.3, "im": -2.0, "w": 1.0}]}

    def test_roundtrip_two_mode(self):
        ens = cl.ClassicalEnsemble.two_mode([(0.3, 1j, 0.5), (0.0, 0.2, 0.5)])
        assert_same_ensemble(cl.load_ensemble(cl.save_ensemble(ens)), ens)
