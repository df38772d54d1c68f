import json
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import gammainc

from phaselab import _state_text as stx
from phaselab import fock_core as fc
from phaselab._state_text import SLICE
from phaselab.errors import (
    CutoffTooSmall,
    DimensionMismatch,
    InvalidWeights,
    MalformedFile,
    NonFiniteArgument,
)
from phaselab.linear_optics import attenuate

from _support import annihilation, assert_same_text, displacement_element, random_density
from _support import shortest_reprs, splitter_output


def displacement_oracle(beta, dim=30):
    """Brute-force matrix exponential of beta a^dag - beta* a."""
    a = annihilation(dim)
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

    @given(
        alpha=st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False),
        headroom=st.integers(0, 10),
    )
    @example(alpha=0.7 + 0.2j, headroom=10)  # cutoff 20
    @settings(max_examples=100, deadline=None)
    def test_coherent_exactly_hermitian(self, alpha, headroom):
        # the smallest cutoff the leakage guard accepts, plus headroom
        cutoff = next(c for c in range(100) if fc.coherent_leakage(alpha, c) <= fc.LEAKAGE_TOL)
        e = fc.make_coherent(alpha, cutoff + headroom).entries
        assert np.array_equal(e, e.conj().T)
        assert np.array_equal(e.diagonal().imag, np.zeros(len(e)))

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

    @pytest.mark.parametrize("weights", [[float("nan"), 0.5], [0.5, float("nan")],
                                         [float("inf"), 0.5]])
    def test_non_finite_weight(self, weights):
        with pytest.raises(InvalidWeights):
            fc.mix([fc.make_fock(0, 4), fc.make_fock(1, 4)], weights)


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

    def test_weights_keyed_by_size(self):
        # the weights are cached per (dim, m, n): each (m, n) is asked at cutoffs in turn,
        # on coherent states whose mass reaches past the smaller cutoffs, so weights of
        # another size would drop stored levels or index past the matrix
        cutoffs = (14, 40, 26, 14, 40)
        alphas = [np.sqrt(c / 12) * np.exp(0.7j) for c in cutoffs]
        states = [fc.make_coherent(a, c) for a, c in zip(alphas, cutoffs)]
        for m in range(4):
            for n in range(4):
                for alpha, rho in zip(alphas, states):
                    want = np.conj(alpha) ** m * alpha**n
                    assert abs(fc.normal_moment(rho, m, n) - want) <= 1e-8 * abs(want)

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

    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(11, 21),
        occupied=st.integers(1, 21),
        m=st.integers(0, 4),
        n=st.integers(0, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_ladder_product(self, seed, dim, occupied, m, n):
        # the truncated-algebra product, with the a^dag that drops the top level
        rho = random_density(dim, occupied=min(occupied, dim), rng=np.random.default_rng(seed))
        a = annihilation(dim)
        op = np.linalg.matrix_power(a.conj().T, m) @ np.linalg.matrix_power(a, n)
        want = np.trace(rho.entries @ op)
        assert abs(fc.normal_moment(rho, m, n) - want) <= 1e-12 * max(1.0, abs(want))


class TestDisplacementElement:
    def test_vacuum_expectation(self):
        beta = 0.3 + 0.9j
        expected = np.exp(-abs(beta) ** 2 / 2)
        assert displacement_element(0, 0, beta) == pytest.approx(expected)

    def test_element_11_at_one(self):
        # oracle: truncated matrix exponential at dim 30
        oracle = displacement_oracle(1.0)[1, 1]
        assert abs(oracle) < 1e-12
        assert abs(displacement_element(1, 1, 1.0) - oracle) < 1e-12

    def test_element_20(self):
        beta = 0.6 - 0.2j
        oracle = displacement_oracle(beta)[2, 0]
        assert displacement_element(2, 0, beta) == pytest.approx(oracle, abs=1e-10)
        closed = beta**2 / np.sqrt(2) * np.exp(-abs(beta) ** 2 / 2)
        assert displacement_element(2, 0, beta) == pytest.approx(closed)

    def test_matches_matrix_exponential(self):
        beta = -0.4 + 0.7j
        oracle = displacement_oracle(beta)
        for m in range(6):
            for n in range(6):
                assert abs(displacement_element(m, n, beta) - oracle[m, n]) < 1e-10

    def test_identity_at_zero(self):
        for m in range(4):
            for n in range(4):
                assert displacement_element(m, n, 0.0) == (1.0 if m == n else 0.0)

    def test_unitarity_row_sums(self):
        beta = 0.7 + 0.2j
        cut = 40
        for m in range(4):
            for n in range(4):
                acc = sum(
                    displacement_element(m, k, beta)
                    * np.conj(displacement_element(n, k, beta))
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

    def test_every_stored_entry_counts(self):
        # a coherence of 1e-300 between levels 0 and 5 occupies level 5
        m = np.diag([1.0, 0, 0, 0, 0, 0, 0]).astype(complex)
        m[0, 5] = m[5, 0] = 1e-300
        occ = fc.level_occupations(fc.DensityMatrix(7, m))
        assert fc.effective_dim(occ[0]) == 6


class TestOccupationsProperty:
    @pytest.mark.parametrize(
        "rho",
        [
            random_density(9, occupied=5, rng=np.random.default_rng(4)),
            fc.make_fock(1, 20),
            fc.tensor(random_density(6, occupied=2), random_density(6, occupied=4)),
        ],
        ids=["one_mode", "fock", "two_mode"],
    )
    def test_equals_level_occupations_read_only_once(self, rho):
        occ = rho.occupations
        assert np.array_equal(occ, fc.level_occupations(rho))
        assert occ.shape == (rho.n_modes, rho.dim)
        assert not occ.flags.writeable
        with pytest.raises(ValueError):
            occ[0, 0] = 0.0
        assert rho.occupations is occ


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

    @given(
        mag=st.floats(0.0, 30.0),
        phase=st.floats(0.0, 2 * np.pi),
        cutoff=st.integers(0, 150),
    )
    @example(mag=0.0, phase=0.0, cutoff=0)
    @example(mag=3.4, phase=0.0, cutoff=11)  # a tail of 0.49 whose sum reaches past level 42
    @example(mag=7.9, phase=1.0, cutoff=131)
    @settings(max_examples=300, deadline=None)
    def test_leakage_matches_incomplete_gamma(self, mag, phase, cutoff):
        # oracle: the Poisson tail P(N > cutoff) = P(cutoff + 1, |alpha|^2); 1e-12 relative
        # for a tail below 1e-3, 1e-12 absolute above. Below the smallest normal float
        # (where the oracle underflows to 0) no relative precision is representable.
        alpha = mag * np.exp(1j * phase)
        want = gammainc(cutoff + 1, mag**2)
        got = fc.coherent_leakage(alpha, cutoff)
        tol = 1e-12 * want + np.finfo(float).tiny if want < 1e-3 else 1e-12
        assert abs(got - want) <= tol
        if mag == 0:
            assert got == 0.0
        if got <= fc.LEAKAGE_TOL:
            assert fc.make_coherent(alpha, cutoff).leakage == got

    def test_leakage_elementwise(self):
        alphas = np.array([0.0, 1.0, 3.0])
        leak = fc.coherent_leakage(alphas, 5)
        assert leak.shape == (3,) and leak[0] == 0.0
        assert leak[2] == fc.coherent_leakage(3.0, 5) > leak[1] > 0


# where a non-finite value goes in a state on 4 levels per mode: an entry of a one-mode
# state, and entries of a two-mode state in photon-number blocks the splitter keeps whole
# (|0,0> and |0,1>: N < 4) and in blocks it cuts (|1,3>, |3,3>, |3,2>: N >= 4)
NON_FINITE_AT = {"one_mode": (1, (2, 1)), "complete_00": (2, (0, 0)),
                 "complete_01": (2, (0, 1)), "cut_77": (2, (7, 7)), "cut_1514": (2, (15, 14))}
NON_FINITE_CASES = [
    pytest.param(n_modes, at, complex(bad, 0) if part == "real" else complex(0, bad), 0.0,
                 id=f"{name}-{part}-{bad}")
    for name, (n_modes, at) in NON_FINITE_AT.items()
    for part in ("real", "imag")
    for bad in (float("nan"), float("inf"), -float("inf"))
] + [pytest.param(n, (0, 0), 1.0, float("nan"), id=f"leakage-{n}_mode") for n in (1, 2)]


class TestDensityMatrix:
    @pytest.mark.parametrize("leakage", [-0.5, -5e-324, 1 + 2e-16, 7.0])
    @pytest.mark.parametrize("n_modes", [1, 2])
    def test_leakage_outside_unit_interval_rejected(self, n_modes, leakage):
        e = np.zeros((3**n_modes,) * 2, dtype=complex)
        e[0, 0] = 1.0
        with pytest.raises(InvalidWeights):
            fc.DensityMatrix(3, e, n_modes, leakage)

    def test_numpy_integer_dims_are_int(self):
        # a numpy cutoff gives a numpy dim, which json.dumps cannot write
        rho = fc.make_fock(1, np.int64(3))
        assert type(rho.dim) is int and rho.dim == 4
        assert "".join(stx.state_json_chunks(rho)) == json.dumps(fc.save_state(rho))
        two = fc.DensityMatrix(np.int32(2), np.eye(4) / 4, np.uint8(2))
        assert (type(two.dim), type(two.n_modes)) == (int, int)

    @pytest.mark.parametrize(
        "dim, n_modes",
        [(2.0, 1), (True, 1), (np.float64(2.0), 1), (np.True_, 1), (2, 1.0), (1, True),
         (2, np.float32(1.0)), ("2", 1)],
    )
    def test_non_integer_dims_rejected(self, dim, n_modes):
        # a float or bool that equals an integer would be written as 2.0 or true
        side = int(dim) ** int(n_modes)
        with pytest.raises(DimensionMismatch):
            fc.DensityMatrix(dim, np.eye(side) / side, n_modes)

    @pytest.mark.parametrize("leakage", [0.0, 1.0])
    def test_leakage_bounds_accepted(self, leakage):
        assert fc.DensityMatrix(1, np.ones((1, 1)), leakage=leakage).leakage == leakage

    @pytest.mark.parametrize(
        "l1, l2, want",
        [(0.6, 0.6, 0.84), (1.0, 0.1, 1.0), (0.1, 1.0, 1.0), (0.0, 0.3, 0.3),
         (1e-24, 3e-24, 4e-24)],
    )
    def test_tensor_leakage_is_lost_mass(self, l1, l2, want):
        # the product keeps (1 - l1)(1 - l2) of the mass
        one = np.zeros((2, 2), dtype=complex)
        one[0, 0] = 1.0
        rho = fc.tensor(fc.DensityMatrix(2, one, leakage=l1), fc.DensityMatrix(2, one, leakage=l2))
        assert rho.leakage == pytest.approx(want, rel=1e-15)
        assert 0 <= rho.leakage <= 1

    @pytest.mark.parametrize("n_modes, at, value, leakage", NON_FINITE_CASES)
    def test_non_finite_rejected(self, n_modes, at, value, leakage):
        e = np.zeros((4**n_modes,) * 2, dtype=complex)
        e[0, 0] = 1.0
        e[at] = value
        with pytest.raises(NonFiniteArgument):
            fc.DensityMatrix(4, e, n_modes, leakage)


# guards that no other test reaches: without each, the call returns a value or raises a
# bare Python error (or, for a negative nbar, the thermal tail's CutoffTooSmall). Each case
# is named, so that its id does not depend on numpy's repr of the arguments
GUARDS = [
    pytest.param(fc.make_fock, (-1, 5), InvalidWeights,
                 "photon number must be a nonnegative integer", id="make_fock(-1, 5)"),
    pytest.param(fc.normal_moment, (fc.make_fock(1, 5), -1, 0), InvalidWeights,
                 "orders must be nonnegative", id="normal_moment(fock 1, -1, 0)"),
    pytest.param(fc.DensityMatrix, (1, [[1]], 3), DimensionMismatch, "1 or 2 modes, got 1 and 3",
                 id="DensityMatrix(1, [[1]])"),
    pytest.param(fc.DensityMatrix, (3, np.eye(4) / 4), DimensionMismatch,
                 "expected a 3x3 matrix", id="DensityMatrix(3, 4x4 matrix)"),
    pytest.param(fc.mix, ([fc.make_fock(0, 3), fc.make_fock(1, 3)], [1.0]), InvalidWeights,
                 "one weight per state", id="mix(two states, one weight)"),
    # without it, numpy's broadcast of a 3x3 and a 4x4 matrix raises a bare ValueError
    pytest.param(fc.mix, ([fc.make_fock(1, 2), fc.make_fock(1, 3)], [0.5, 0.5]),
                 DimensionMismatch, "mixture components live on different spaces",
                 id="mix(cutoffs 2 and 3)"),
    pytest.param(fc.embed, (fc.make_fock(1, 5), 4), CutoffTooSmall, "smaller than the state",
                 id="embed(cutoff 5 into 4)"),
    pytest.param(fc.make_thermal, (-0.3, 5), InvalidWeights, "nbar must be nonnegative",
                 id="make_thermal(-0.3, 5)"),
    # without it, the 20 x 20 product of a 4- and a 5-level state fails DensityMatrix's shape
    pytest.param(fc.tensor, (fc.make_fock(0, 3), fc.make_fock(0, 4)), DimensionMismatch,
                 "tensor factors must share the cutoff", id="tensor(cutoffs 3 and 4)"),
]


@pytest.mark.parametrize("func, args, error, message", GUARDS)
def test_guard(func, args, error, message):
    with pytest.raises(error, match=message):
        func(*args)


# a photon number, cutoff or dimension that is not an integer (a bool is not one) raised an
# IndexError, a TypeError, a failed trace check (make_fock(True, 5)) or the thermal tail's
# CutoffTooSmall (make_thermal(0.3, 6.5))
NOT_COUNTS = [
    (fc.make_fock, (1.5, 5), 1.5),
    (fc.make_fock, (True, 5), True),
    (fc.make_fock, (1, 5.0), 5.0),
    (fc.make_coherent, (0.5, 6.5), 6.5),
    (fc.make_thermal, (0.3, 6.5), 6.5),
    (fc.embed, (fc.make_fock(1, 5), 7.5), 7.5),
]


@pytest.mark.parametrize("func, args, bad", NOT_COUNTS,
                         ids=[f"{f.__name__}-{bad!r}" for f, _, bad in NOT_COUNTS])
def test_count_that_is_not_an_integer_rejected(func, args, bad):
    with pytest.raises(InvalidWeights, match=f"must be a nonnegative integer, got {bad!r}$"):
        func(*args)


class TestValidate:
    def test_all_clear(self):
        assert fc.validate(fc.make_coherent(1.0, 20)).flags == ()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_flagged(self, bad):
        # nothing non-finite reaches validate: the constructor raises
        m = np.diag([1.0, 0, 0]).astype(complex)
        m[1, 1] = bad
        with pytest.raises(NonFiniteArgument):
            fc.DensityMatrix(3, m)

    def test_non_finite_state_file_rejected(self):
        obj = fc.save_state(fc.make_fock(0, 6))
        obj["re"][3][3] = float("nan")
        with pytest.raises(NonFiniteArgument):
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


class TestHermitianMean:
    def test_out_of_place_and_bit_identical(self):
        # a read-only input is left as it is; the result has the bits, signed zeros included,
        # of (m + m^dag) / 2 computed in place on a copy
        rng = np.random.default_rng(21)
        m = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        m.real[rng.random((9, 9)) < 0.3] = -0.0
        m.imag[rng.random((9, 9)) < 0.3] = -0.0
        m.setflags(write=False)
        before = m.copy()
        want = m.copy()
        want += want.conj().T
        want *= 0.5
        got = fc.hermitian_mean(m)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(m.view(np.uint64), before.view(np.uint64))
        assert np.array_equal(got, got.conj().T)


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

    @pytest.mark.parametrize(
        "obj",
        [
            {"dim": 2, "re": [[1, 0], [0, 0]]},
            [1, 2],
            {"dim": "two", "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]},
            {"dim": 2, "re": [[1, 0], [0]], "im": [[0, 0], [0, 0]]},
            {"dim": 2, "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]], "leakage": [0]},
        ],
    )
    def test_malformed_record(self, obj):
        with pytest.raises(MalformedFile):
            fc.load_state(obj)

    @pytest.mark.parametrize(
        "field, value",
        [("leakage", -0.5), ("leakage", 7.0), ("leakage", True), ("leakage", "0.1"),
         ("dim", 5.7), ("dim", True), ("dim", "5"), ("n_modes", True), ("n_modes", 1.5)],
    )
    def test_invalid_field_is_malformed(self, field, value):
        obj = fc.save_state(fc.make_fock(1, 4))
        obj[field] = value
        with pytest.raises(MalformedFile):
            fc.load_state(obj)
        with pytest.raises(MalformedFile):
            fc.load_state(json.dumps(obj))


# signed zeros, the smallest subnormal, values next to the largest double and
# magnitudes that occur with both signs
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 0.1, -0.1, 1 / 3, -1 / 3, 1.0, -1.0,
               1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308,
               # subnormals, the smallest normal, and both sides of each layout switch
               1e-323, 8e-323, 2.2250738585072009e-308, 2.0**-1022,
               9.999999999999999e-05, 1e-4, 1e-5, 1e15, 1e16, 9999999999999998.0]
FINITE = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False))


class TestStateJsonChunks:
    @given(
        dim=st.integers(1, 4),
        n_modes=st.sampled_from([1, 2]),
        leakage=st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.sampled_from([5e-324, 1e-11])),
        pool=st.one_of(st.none(), st.lists(FINITE, min_size=1, max_size=4)),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_json_dumps(self, dim, n_modes, leakage, pool, data):
        # with a pool, entries repeat a few magnitudes with either sign; without one,
        # most entries differ
        side = dim**n_modes
        if pool is None:
            value = FINITE
        else:
            signed = st.tuples(st.sampled_from(pool), st.booleans())
            value = signed.map(lambda vf: -vf[0] if vf[1] else vf[0])
        parts = [data.draw(st.lists(value, min_size=side**2, max_size=side**2)) for _ in "ri"]
        re, im = (np.reshape(p, (side, side)) for p in parts)
        rho = fc.DensityMatrix(dim, re + 1j * im, n_modes, leakage)
        assert "".join(stx.state_json_chunks(rho)) == json.dumps(fc.save_state(rho))

    @pytest.mark.parametrize(
        "rho",
        [
            fc.make_coherent(0.9 - 0.4j, 12),
            fc.make_thermal(0.1, 12),
            random_density(9, occupied=6),
            fc.tensor(fc.make_coherent(0.3j, 8), fc.make_thermal(0.05, 8)),
        ],
    )
    def test_built_states(self, rho):
        assert "".join(stx.state_json_chunks(rho)) == json.dumps(fc.save_state(rho))

    @pytest.mark.parametrize("seed", [1207, 1208])
    def test_random_bits_across_slabs(self, seed):
        # two modes at dim 12: 144 columns, so slabs of 56, 56 and 32 rows; every finite
        # bit pattern, subnormals, random signs, zeros and -0.0
        rng = np.random.default_rng(seed)
        e = np.empty((144, 144), dtype=complex)
        for part in ("real", "imag"):
            bits = np.where(rng.random((144, 144)) < 0.2, rng.integers(1, 1 << 52, (144, 144)),
                            rng.integers(1, 0x7FF0000000000000, (144, 144))).astype(np.uint64)
            x = bits.view(np.float64) * rng.choice([-1.0, 1.0], (144, 144))
            x[rng.random((144, 144)) < 0.1] = 0.0
            x[rng.random((144, 144)) < 0.05] = -0.0
            setattr(e, part, x)
        rho = fc.DensityMatrix(12, e, 2)
        assert np.signbit(rho.entries.real[rho.entries.real == 0]).any()
        assert_same_text("".join(stx.state_json_chunks(rho)), json.dumps(fc.save_state(rho)))
        # its upper triangle mirrored: exactly Hermitian but for one lower entry an ulp away
        h = np.triu(e) + np.triu(e, 1).conj().T
        h.imag[np.diag_indices(144)] = 0.0
        h.real[100, 7] = np.nextafter(h.real[100, 7], np.inf)
        assert np.count_nonzero(h != h.conj().T) == 2
        rho = fc.DensityMatrix(12, h, 2)
        assert_same_text("".join(stx.state_json_chunks(rho)), json.dumps(fc.save_state(rho)))

    @pytest.mark.parametrize(
        "dim, n_modes, entries",
        [
            (1, 1, [[1.0]]),
            (1, 2, [[-0.0 - 0.0j]]),
            (1, 1, [[-5e-324 + 1e16j]]),
            # every row negative, over three slabs
            (12, 2, -np.arange(1, 144**2 + 1).reshape(144, 144) * (1 + 1j) / 7),
            (4, 1, [[5e-324, -1.7976931348623157e308, 1e16, -1e-5],
                    [1e-5j, 1.7976931348623157e308j, -5e-324j, -1e16j],
                    [-0.0, 0.0, 1e-4, 9999999999999998.0],
                    [1e15, -1e-300, 0.1, 1.0]]),
        ],
    )
    def test_edge_matrices(self, dim, n_modes, entries):
        rho = fc.DensityMatrix(dim, entries, n_modes)
        assert_same_text("".join(stx.state_json_chunks(rho)), json.dumps(fc.save_state(rho)))

    @given(
        dim=st.integers(2, 4),
        n_modes=st.sampled_from([1, 2]),
        pool=st.lists(FINITE, min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_hermitian_and_perturbed(self, dim, n_modes, pool, seed, data):
        # an exactly Hermitian matrix whose entries repeat a few magnitudes with either sign,
        # so mirrors and repeated values meet; then three ways to break one mirror pair
        side = dim**n_modes
        rng = np.random.default_rng(seed)
        re, im = (rng.choice(pool, (side, side)) * rng.choice([-1.0, 1.0], (side, side))
                  for _ in "ri")
        low = np.tril_indices(side, -1)
        re[low], im[low] = re.T[low], -im.T[low]
        np.fill_diagonal(im, 0.0)
        i = data.draw(st.integers(1, side - 1))
        j = data.draw(st.integers(0, i - 1))
        in_re = data.draw(st.booleans(), label="in re")
        part = re if in_re else im
        nudged, zeroed, signed = part.copy(), part.copy(), im.copy()
        with np.errstate(over="ignore"):  # the largest doubles move one way only
            moved = [np.nextafter(nudged[i, j], to) for to in (-np.inf, np.inf)]
        nudged[i, j] = data.draw(st.sampled_from([x for x in moved if np.isfinite(x)]))
        zeroed[j, i] = zeroed[j, i] or 1.0
        zeroed[i, j] = data.draw(st.sampled_from([0.0, -0.0]))
        k = data.draw(st.integers(0, side - 1))
        signed[k, k] = -0.0
        variants = [(re, im), (re, signed)]
        variants += [(x, im) if in_re else (re, x) for x in (nudged, zeroed)]
        for n, (x, y) in enumerate(variants):
            e = np.empty((side, side), dtype=complex)
            e.real, e.imag = x, y
            rho = fc.DensityMatrix(dim, e, n_modes)
            assert n or np.array_equal(rho.entries, rho.entries.conj().T)
            assert "".join(stx.state_json_chunks(rho)) == json.dumps(fc.save_state(rho))

    @given(
        dim=st.integers(1, 5),
        n_modes=st.sampled_from([1, 2]),
        share=st.sampled_from([0.0, 0.02, 0.1, stx.SPARSE_SHARE, 0.2, 0.6]),
        ends=st.sampled_from(["none", "row ends", "last entry"]),
        slice_=st.sampled_from([1, 8, 64, SLICE]),
        pool=st.lists(FINITE, min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_mostly_zero(self, dim, n_modes, share, ends, slice_, pool, seed):
        # mostly-zero parts on both sides of the share at which a part is written as runs of
        # 0.0, with -0.0 among the nonzero bit patterns, at row ends and at the last entry; a
        # small SLICE splits either layout into many slabs. The text is json.dumps's by the
        # rule and with either layout forced.
        side = dim**n_modes
        rng = np.random.default_rng(seed)
        e = np.zeros((side, side), dtype=complex)
        for part in ("real", "imag"):
            spots = rng.random((side, side)) < share
            if ends == "row ends":
                spots[:, -1] = True
            elif ends == "last entry":
                spots[-1, -1] = True
            x = np.zeros((side, side))
            x[spots] = rng.choice(pool + [-0.0], spots.sum()) * rng.choice([-1.0, 1.0], spots.sum())
            setattr(e, part, x)
        rho = fc.DensityMatrix(dim, e, n_modes)
        want = json.dumps(fc.save_state(rho))
        with mock.patch.object(stx, "SLICE", slice_):
            for rule in (stx.SPARSE_SHARE, -1.0, 1.0):
                with mock.patch.object(stx, "SPARSE_SHARE", rule):
                    assert "".join(stx.state_json_chunks(rho)) == want

    @pytest.mark.parametrize("kind, sparse", [("coherent", False), ("cat_vacuum", False),
                                              ("thermal", True), ("fock", True)])
    def test_splitter_outputs_on_both_layouts(self, kind, sparse):
        # the four kinds of 441x441 splitter output: the Fock and thermal pairs' parts are
        # written as runs of 0.0, the others as slabs of records; each gives the same text
        # with the other layout forced
        rho = splitter_output(kind)
        for part in (rho.entries.real, rho.entries.imag):
            code = stx._record_codes(part)[1]
            assert (np.count_nonzero(code) <= stx.SPARSE_SHARE * code.size) == sparse
        want = json.dumps(fc.save_state(rho))
        for rule in (stx.SPARSE_SHARE, -1.0, 1.0):
            with mock.patch.object(stx, "SPARSE_SHARE", rule):
                assert_same_text("".join(stx.state_json_chunks(rho)), want)

    def test_coherent_pair_output(self):
        # the 441x441 splitter output of the largest state file: 25 slabs of up to 18 rows
        rho = splitter_output("coherent")
        assert rho.entries.shape == (441, 441)
        assert_same_text("".join(stx.state_json_chunks(rho)), json.dumps(fc.save_state(rho)))

    @pytest.mark.parametrize("kind", ["cat_vacuum", "thermal", "fock"])
    def test_sparse_splitter_outputs(self, kind):
        # the same size, with 27% to 0.04% of the entries nonzero
        rho = splitter_output(kind)
        assert_same_text("".join(stx.state_json_chunks(rho)), json.dumps(fc.save_state(rho)))

    def test_kernel_is_repr_on_random_bit_patterns(self):
        # every finite positive double is equally likely as a bit pattern, and a second
        # draw is all subnormal
        rng = np.random.default_rng(20201)
        bits = np.concatenate([rng.integers(1, 0x7FF0000000000000, 200_000, dtype=np.uint64),
                               rng.integers(1, 1 << 52, 50_000, dtype=np.uint64)])
        mags = bits.view(np.float64)
        assert shortest_reprs(mags) == list(map(float.__repr__, mags.tolist()))

    def test_kernel_is_repr_on_powers_and_ties(self):
        # every power of two (the unevenly spaced neighbours), and m / 2^j for odd m, where
        # two shortest decimals can be equally near
        m = np.random.default_rng(7).integers(2**50, 2**53, 2000) | 1
        mags = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)),
                               *(np.ldexp(m.astype(float), -j) for j in range(1, 8))])
        assert shortest_reprs(mags) == list(map(float.__repr__, mags.tolist()))


class TestStateJsonWorker:
    """The im part's record table is filled on one worker thread when its magnitudes fill
    more than one SLICE, and inline otherwise."""

    def spy(self, monkeypatch, worker_delay=0.0, worker_error=None):
        """Record (on the calling thread, magnitudes) for each record_table call; a call on
        another thread first sleeps worker_delay seconds, then raises worker_error if given."""
        calls, caller, table = [], threading.get_ident(), stx.record_table

        def spy(mags):
            inline = threading.get_ident() == caller
            calls.append((inline, mags.size))
            if not inline:
                time.sleep(worker_delay)
                if worker_error is not None:
                    raise worker_error
            return table(mags)

        monkeypatch.setattr(stx, "record_table", spy)
        return calls

    @pytest.mark.parametrize("kind, worker", [("coherent", True), ("cat_vacuum", True),
                                              ("thermal", False), ("fock", False)])
    def test_splitter_outputs(self, monkeypatch, kind, worker):
        rho = splitter_output(kind)
        re_mags, im_mags = (stx._record_codes(a)[0].size for a in (rho.entries.real, rho.entries.imag))
        calls = self.spy(monkeypatch)
        "".join(stx.state_json_chunks(rho))
        assert (im_mags > SLICE) == worker
        assert sorted(calls) == sorted([(True, re_mags), (not worker, im_mags)])

    @pytest.mark.parametrize(
        "rho",
        [fc.make_fock(3, 20), fc.make_coherent(0.8 + 0.5j, 20), fc.make_thermal(0.4, 20),
         attenuate(fc.make_coherent(0.8 + 0.5j, 20), 0.37),
         # the largest Hermitian single-mode im part that fits one SLICE: 128 * 127 / 2 records
         fc.make_coherent(2 + 1j, 127)],
        ids=["fock", "coherent", "thermal", "attenuated", "coherent-cutoff-127"],
    )
    def test_single_mode_files_are_built_inline(self, monkeypatch, rho):
        calls = self.spy(monkeypatch)
        text = "".join(stx.state_json_chunks(rho))
        assert text == json.dumps(fc.save_state(rho))
        # the im part's table comes first, then the re part's
        assert len(calls) == 2 and all(inline for inline, _ in calls)
        assert calls[0][1] <= SLICE and (rho.dim < 128 or calls[0][1] == 128 * 127 // 2)

    def test_worker_error_is_raised_at_the_second_part(self, monkeypatch):
        rho = splitter_output("cat_vacuum")
        self.spy(monkeypatch, worker_error=MemoryError("Unable to allocate the table"))
        before, written = threading.active_count(), []
        with pytest.raises(MemoryError, match="the table"):
            for chunk in stx.state_json_chunks(rho):
                written.append(chunk)
        # the whole re part came first; the worker is joined
        want = json.dumps(fc.save_state(rho))
        assert want[len("".join(written)) :].startswith(', "im": [[')
        assert threading.active_count() == before

    def test_closing_early_joins_the_worker(self, monkeypatch):
        rho = splitter_output("coherent")
        calls = self.spy(monkeypatch, worker_delay=0.3)
        before = threading.active_count()
        chunks = stx.state_json_chunks(rho)
        assert next(chunks).startswith('{"dim": 21')
        assert threading.active_count() == before + 1
        chunks.close()
        assert threading.active_count() == before and calls == [(False, 97020)]

    def test_concurrent_writers(self):
        # three writers on their own threads, each with its worker (six threads at once), and
        # the interpreter switching threads every 10 us: every text is still json.dumps's
        rho = splitter_output("cat_vacuum")
        want, texts = json.dumps(fc.save_state(rho)), [None] * 3

        def write(k):
            texts[k] = "".join(stx.state_json_chunks(rho))

        writers = [threading.Thread(target=write, args=(k,)) for k in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for w in writers:
                w.start()
            for w in writers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in writers)
        assert texts == [want] * 3

    def test_codes_are_int32(self):
        rho = splitter_output("coherent")
        for a in (rho.entries.real, rho.entries.imag):
            mags, code = stx._record_codes(a)
            assert code.dtype == np.int32 and code.max() == mags.size
            assert np.array_equal(np.concatenate([[0.0], mags])[code], np.abs(a))
