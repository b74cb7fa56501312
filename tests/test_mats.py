import numpy as np
import pytest

from cpspectra import (
    ConvergenceError,
    FormatError,
    PreconditionError,
    eigenvalues,
    inverse,
    kron,
    matrix_from_json,
    matrix_to_json,
    numerical_rank,
    psd_report,
    psd_sqrt,
    spectral_radius,
    superop_of,
    trace_corner_map,
    unvec,
    vec,
)
from cpspectra.mats import frobenius_norm, side_of
from helpers import random_matrix, random_normal_matrix, random_unitary

GOLD = (1 + np.sqrt(5)) / 2


def unit(m, i, j):
    e = np.zeros((m, m), dtype=complex)
    e[i, j] = 1.0
    return e


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_all_ones(self):
        a = np.ones((2, 2))
        assert np.array_equal(kron(a.conj(), a), np.ones((4, 4)))

    def test_elementary_block(self):
        b = random_matrix(np.random.default_rng(0), 2)
        out = kron(unit(2, 0, 0), b)
        assert np.array_equal(out[:2, :2], b)
        assert np.abs(out[2:, :]).max() == 0 and np.abs(out[:, 2:]).max() == 0

    def test_associative_and_mixed_product(self):
        rng = np.random.default_rng(1)
        ints = [rng.integers(-3, 4, size=(2, 2)).astype(complex) for _ in range(3)]
        assert np.array_equal(kron(kron(ints[0], ints[1]), ints[2]),
                              kron(ints[0], kron(ints[1], ints[2])))
        a, b, c, d = (random_matrix(rng, 2) for _ in range(4))
        assert np.abs(kron(kron(a, b), c) - kron(a, kron(b, c))).max() < 1e-12
        assert np.abs(kron(a, b) @ kron(c, d) - kron(a @ c, b @ d)).max() < 1e-12


class TestVec:
    def test_e12_is_third_basis_vector(self):
        assert np.array_equal(vec(unit(2, 0, 1)), np.array([0, 0, 1, 0], dtype=complex))

    def test_round_trip(self):
        a = random_matrix(np.random.default_rng(2), 3)
        assert np.array_equal(unvec(vec(a)), a)

    def test_sandwich_identity(self):
        rng = np.random.default_rng(3)
        a, x, b = (random_matrix(rng, 2) for _ in range(3))
        assert np.abs(vec(a @ x @ b) - kron(b.T, a) @ vec(x)).max() < 1e-12

    def test_rejects_non_square(self):
        with pytest.raises(FormatError):
            vec(np.ones((2, 3)))


class TestSideOf:
    def test_perfect_squares(self):
        assert [side_of(n) for n in (1, 4, 9, 1024)] == [1, 2, 3, 32]

    def test_rejects_other_sizes(self):
        for n in (2, 3, 8, 1023):
            with pytest.raises(FormatError, match="perfect square"):
                side_of(n)

    def test_unvec_without_side(self):
        with pytest.raises(FormatError):
            unvec(np.zeros(3))


class TestEigenvalues:
    def test_identity(self):
        assert np.allclose(sorted(eigenvalues(np.eye(3)).real), [1, 1, 1])

    def test_path_adjacency(self):
        t = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        got = sorted(eigenvalues(t).real)
        assert np.allclose(got, [-np.sqrt(2), 0, np.sqrt(2)], atol=1e-12)

    def test_nilpotent(self):
        assert np.abs(eigenvalues(np.array([[0, 1], [0, 0.0]]))).max() < 1e-12

    def test_gelfand_limit_on_normal_matrices(self):
        rng = np.random.default_rng(4)
        for radius in (0.5, 1.0, 2.0):
            a = random_normal_matrix(rng, 4, radius)
            r = spectral_radius(a)
            gelfand = np.linalg.norm(np.linalg.matrix_power(a, 64), 2) ** (1 / 64)
            assert abs(r - gelfand) < 1e-6


class TestRank:
    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 3))) == 0

    def test_all_ones(self):
        assert numerical_rank(np.ones((2, 2))) == 1

    def test_extension_choi_rank(self):
        # Choi matrix of the extended double-trace map is 2*I_4
        assert numerical_rank(2 * np.eye(4)) == 4

    def test_unitary_invariant(self):
        rng = np.random.default_rng(5)
        a = random_matrix(rng, 4)
        a[:, 0] = a[:, 1]  # force a rank drop
        u, v = random_unitary(rng, 4), random_unitary(rng, 4)
        assert numerical_rank(u @ a @ v) == numerical_rank(a)


class TestPsdReport:
    def test_identity_strict(self):
        rep = psd_report(np.eye(2))
        assert rep.is_strictly_positive and rep.min_eigenvalue == pytest.approx(1.0)

    def test_psd_not_strict(self):
        rep = psd_report(np.diag([1.0, 0.0]))
        assert rep.is_psd and not rep.is_strictly_positive

    def test_golden_perron_element(self):
        ell = np.diag([GOLD**2, GOLD**2, GOLD]) / np.sqrt(5)
        assert psd_report(ell).is_strictly_positive

    def test_non_hermitian(self):
        rep = psd_report(np.array([[0, 1], [0, 0.0]]))
        assert not rep.is_hermitian and not rep.is_psd

    @pytest.mark.parametrize("scale", [1.0, 1e100, 1e160, 1e300])
    def test_non_hermitian_at_any_scale(self, scale):
        # np.linalg.norm of M - M* overflows above about 1e154, and inf <= inf would hold
        rep = psd_report(scale * np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert not rep.is_hermitian and not rep.is_psd and not rep.is_strictly_positive


class TestFrobeniusNorm:
    def test_matches_numpy_in_range(self):
        rng = np.random.default_rng(17)
        for a in (random_matrix(rng, 5), rng.normal(size=(4, 7)), 1e-100 * random_matrix(rng, 3)):
            want = np.linalg.norm(a)
            assert abs(frobenius_norm(a) - want) <= np.spacing(want)
        assert frobenius_norm(np.zeros((3, 3))) == 0.0 and frobenius_norm(np.zeros((0, 0))) == 0.0

    @pytest.mark.parametrize("scale", [1e-200, 1e160])
    def test_finite_where_the_squares_leave_the_range(self, scale):
        # the squares underflow to 0 below about 1e-154 and overflow to inf above 1e154
        a = random_matrix(np.random.default_rng(18), 4)
        assert frobenius_norm(scale * a) == pytest.approx(scale * np.linalg.norm(a), rel=1e-15)

    def test_out_of_range_norm_is_inf(self):
        assert frobenius_norm(np.full((2, 2), 1e308)) == np.inf  # 2e308 is out of range


class TestMatrixFunctions:
    def test_psd_sqrt(self):
        assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_psd_sqrt_rejects_indefinite(self):
        with pytest.raises(PreconditionError):
            psd_sqrt(np.diag([1.0, -1.0]))

    def test_resolvent_residual(self):
        t = superop_of(trace_corner_map()).matrix
        a = np.eye(4) - 0.25 * t
        x = inverse(a)
        assert np.linalg.norm(a @ x - np.eye(4)) < 1e-12

    def test_inverse_rejects_singular(self):
        with pytest.raises(PreconditionError):
            inverse(np.diag([1.0, 0.0]))


class TestMatrixJson:
    def test_round_trip(self):
        a = random_matrix(np.random.default_rng(7), 3)
        assert np.array_equal(matrix_from_json(matrix_to_json(a)), a)

    def test_rejects_length_mismatch(self):
        with pytest.raises(FormatError):
            matrix_from_json({"rows": 2, "cols": 2, "data": [[1.0, 0.0]] * 3})

    def test_rejects_bad_entries(self):
        with pytest.raises(FormatError):
            matrix_from_json({"rows": 1, "cols": 1, "data": [[1.0]]})
