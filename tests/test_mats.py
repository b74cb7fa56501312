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
    golden_ratio_map,
    norm_achieving_check,
    numerical_rank,
    perron_vector,
    psd_report,
    psd_sqrt,
    spectral_radius,
    superop_of,
    trace_corner_map,
    unvec,
    vec,
)
from cpspectra import mats, perron, spectra
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


    @staticmethod
    def kinds():
        rng = np.random.default_rng(31)
        g = random_matrix(rng, 5)
        low = random_matrix(rng, 5)[:, :3]
        indefinite = g + g.conj().T
        return {
            "psd": g @ g.conj().T + 0.1 * np.eye(5),
            "singular psd": low @ low.conj().T,
            "indefinite": indefinite,
            "non-hermitian": g @ g.conj().T + 1e-3 * g,
        }

    @pytest.mark.parametrize("c", [1e-150, 1e-12, 1e12, 1e150])
    def test_verdicts_do_not_depend_on_scale(self, c):
        # the floors are psd_tol times max |lambda| of the symmetric part, so c M reads as M
        for name, m in self.kinds().items():
            want, got = psd_report(m), psd_report(c * m)
            verdicts = (want.is_hermitian, want.is_psd, want.is_strictly_positive)
            assert (got.is_hermitian, got.is_psd, got.is_strictly_positive) == verdicts, name
            assert got.min_eigenvalue == pytest.approx(c * want.min_eigenvalue, rel=1e-6, abs=1e-9 * c)
        verdicts = {name: psd_report(m) for name, m in self.kinds().items()}
        assert [(r.is_psd, r.is_strictly_positive) for r in verdicts.values()] == [
            (True, True), (True, False), (False, False), (False, False)
        ]

    def test_zero_matrix_is_psd_and_not_strictly_positive(self):
        rep = psd_report(np.zeros((3, 3)))
        assert rep.is_hermitian and rep.is_psd and not rep.is_strictly_positive


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

    @pytest.mark.parametrize("c", [1e-12, 1e12])
    def test_psd_sqrt_of_a_scaled_singular_matrix(self, c):
        # rank 3 of side 5: at c = 1e12 rounding leaves eigenvalues near -1e-4, which an
        # absolute floor refuses
        low = random_matrix(np.random.default_rng(32), 5)[:, :3]
        m = low @ low.conj().T
        want = np.sqrt(c) * psd_sqrt(m)
        assert np.abs(psd_sqrt(c * m) - want).max() <= 1e-12 * np.abs(want).max()

    def test_norm_achieving_check_decomposes_w_twice(self, monkeypatch):
        # psd_sqrt decides on the eigenvalues of the eigh that gives the root, so w is taken
        # apart once by the strict-positivity check of w and once by psd_sqrt
        tau = golden_ratio_map()
        w = perron_vector(tau)
        sym, calls = (w + w.conj().T) / 2.0, []

        def counted(name, real):
            def spy(x, *args, **kwargs):
                if np.shape(x) == sym.shape and np.array_equal(x, sym):
                    calls.append(name)
                return real(x, *args, **kwargs)

            return spy

        for name in ("eigvalsh", "eigh"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        norm_achieving_check(tau, w)
        assert calls == ["eigvalsh", "eigh"]

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


class TestOneJordanDecision:
    def test_balance_and_the_maximal_part_read_one_degeneracy(self, monkeypatch):
        calls = []

        def counted(module):
            def peripheral(*args):
                calls.append(module.__name__)
                return mats.peripheral(*args)

            return peripheral

        for module in (perron, spectra):
            assert module.peripheral is mats.peripheral
            monkeypatch.setattr(module, "peripheral", counted(module))
        jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(PreconditionError, match="peripheral Jordan block"):
            spectra.balance_similarity(jordan)
        assert perron.maximal_part(np.kron(np.eye(2), jordan)).degeneracy == 2
        assert calls == ["cpspectra.spectra", "cpspectra.perron"]

    def test_one_svd_per_power(self, monkeypatch):
        # a Jordan block of size 3 at 1: ||t||_2, then the rank of N, N^2 and N^3, one SVD each
        t = (np.diag([1.0, 1.0, 1.0, 0.5]) + np.diag([1.0, 1.0, 0.0], 1)).astype(complex)
        _, clusters = mats.schur_clusters(t)
        calls, real = [], np.linalg.svd

        def spy(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        monkeypatch.setattr(np.linalg._linalg, "svd", spy)  # the one np.linalg.norm calls
        assert mats.degeneracy(t, clusters[0]) == 3
        assert calls == [(4, 4), (3, 3), (3, 3), (3, 3)]

    def test_a_normal_cluster_does_not_merge(self):
        # distinct eigenvalues 1e-6 apart with orthogonal eigenvectors stay two clusters
        t = np.diag([1.0, 1.0 - 1e-6, 0.5]).astype(complex)
        radius, clusters = mats.schur_clusters(t)
        assert radius == 1.0 and [c.value for c in clusters] == [1.0, 1.0 - 1e-6, 0.5]

    def test_a_split_jordan_pair_merges(self):
        # rounding of ||T|| ~ 1e2 splits a Jordan pair by about 1e-7: one cluster, d = 2
        t = np.array([[1.0 + 1e-7, 100.0, 0.0], [0.0, 1.0 - 1e-7, 0.0], [0.0, 0.0, 0.5]], dtype=complex)
        radius, clusters = mats.schur_clusters(t)
        assert radius == 1.0 and [int(c.members.sum()) for c in clusters] == [2, 1]
        assert mats.degeneracy(t, clusters[0]) == 2


NUMPY_LAPACK = pytest.mark.skipif(
    mats._LAPACK is None, reason="numpy's build exports no scipy_<name>_64_ LAPACK symbols"
)


def schur_kernel_outputs(a, rng):
    """``schur``, ``reorder_schur`` with and without ``q`` on a seeded selection, and
    ``schur_sylvester`` at the reordered split, beside the same LAPACK calls made through
    scipy: ``(ours, scipy's, name)`` triples."""
    import scipy.linalg

    lapack = scipy.linalg.lapack
    prefix = "z" if np.iscomplexobj(a) else "d"
    t, q = mats.schur(a)
    want_t, want_q = scipy.linalg.schur(a, output="complex" if prefix == "z" else "real")
    out = [(t, want_t, "t"), (q, want_q, "q")]
    if not a.size:  # LAPACK trsen and trsyl take no empty matrix
        return out
    members = rng.random(a.shape[0]) < 0.5
    members[-1] = True
    select = members.copy()
    k = mats.schur_pairs(want_t)
    select[k] = select[k + 1] = select[k] | select[k + 1]
    trsen = getattr(lapack, prefix + "trsen")
    ts, qs, sdim = mats.reorder_schur(t, q, members)
    want = trsen(select.astype(np.int32), want_t, want_q, job="N", wantq=1)
    out += [(ts, want[0], "trsen t"), (qs, want[1], "trsen q"), (sdim, want[-4], "trsen m")]
    alone, none, _ = mats.reorder_schur(t, None, members)
    out += [(alone, want[0], "trsen t without q"), (none is None, True, "no q returned")]
    if sdim < a.shape[0]:
        x, scale, _ = getattr(lapack, prefix + "trsyl")(
            want[0][:sdim, :sdim], want[0][sdim:, sdim:], -want[0][:sdim, sdim:], isgn=-1
        )
        out.append((mats.schur_sylvester(ts, sdim), x / scale, "trsyl"))
    return out


class TestSchurKernel:
    """The Schur kernel runs LAPACK from numpy's own build where it exports the routines, and
    the same routines through scipy otherwise; both give scipy's arrays."""

    SIDES = (0, 1, 2, 4, 13, 48, 144)  # 144: the minimal gees workspace rounds differently there

    def kernel_cases(self):
        for side in self.SIDES:
            rng = np.random.default_rng(side)
            real = rng.standard_normal((side, side))
            yield real, rng
            yield real + 1j * rng.standard_normal((side, side)), rng

    @NUMPY_LAPACK
    def test_numpy_lapack_matches_scipy(self):
        blocks = 0
        for a, rng in self.kernel_cases():
            for got, want, name in schur_kernel_outputs(a, rng):
                if name == "trsyl" and not np.iscomplexobj(a):
                    # OpenBLAS 0.3.31 (numpy's) and 0.3.30 (scipy's) round a strided ddot
                    # differently, and real trsyl reads t11 by rows: rounding of the solution
                    bound = 8 * a.shape[0] * np.finfo(float).eps * np.abs(want).max()
                    assert np.abs(got - want).max() <= bound, (a.shape, name)
                else:
                    assert np.array_equal(got, want) and np.asarray(got).dtype == np.asarray(want).dtype, (a.shape, name)
            blocks += mats.schur_pairs(mats.schur(a)[0]).size
        assert blocks > 0  # real forms with 2 x 2 blocks among them

    @NUMPY_LAPACK
    def test_the_scipy_fallback_matches_scipy(self, monkeypatch):
        monkeypatch.setattr(mats, "_LAPACK", None)  # numpy's build without the symbols
        for a, rng in self.kernel_cases():
            for got, want, name in schur_kernel_outputs(a, rng):
                assert np.array_equal(got, want) and np.asarray(got).dtype == np.asarray(want).dtype, (a.shape, name)

    @pytest.mark.parametrize("shape", [(3, 2), (2, 3), (0, 3), (3,), (2, 2, 2)])
    def test_non_square_is_a_format_error_before_lapack(self, monkeypatch, shape):
        # gees writes an n x n form in place: a rows x cols buffer must never reach it
        def forbidden(*args, **kwargs):
            raise AssertionError("gees reached with a non-square matrix")

        monkeypatch.setattr(mats, "_gees", forbidden)
        for a in (np.ones(shape), np.ones(shape, complex)):
            with pytest.raises(FormatError, match="expected a square matrix"):
                mats.schur(a)


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

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"rows": 1, "cols": 2, "data": [[None, 0], [1, 0]]}, "must be numbers, got None"),
            ({"rows": 1, "cols": 2, "data": [["a", 0], [1, 0]]}, "must be numbers, got 'a'"),
            ({"rows": 1, "cols": 2, "data": [[True, 0], [1, 0]]}, "must be numbers, got True"),
            ({"rows": 1, "cols": 1, "data": [[10**400, 0]]}, "of 1329 bits is beyond the float range"),
            ({"rows": 1.9, "cols": 1, "data": [[1, 0]]}, "matrix rows must be an integer, got 1.9"),
            ({"rows": 1, "cols": "1", "data": [[1, 0]]}, "matrix cols must be an integer, got '1'"),
            ({"rows": None, "cols": 1, "data": [[1, 0]]}, "matrix rows must be an integer, got None"),
            ({"cols": 1, "data": [[1, 0]]}, "missing or invalid field"),
        ],
    )
    def test_rejects_non_numbers_and_non_integral_sizes(self, obj, message):
        with pytest.raises(FormatError, match=message.replace("(", r"\(").replace(".", r"\.")):
            matrix_from_json(obj)

    def test_integral_sizes_of_any_integer_type(self):
        obj = {"rows": np.int64(1), "cols": 2.0, "data": [[np.int32(3), 0.5], [np.float32(1.5), -1]]}
        assert np.array_equal(matrix_from_json(obj), np.array([[3 + 0.5j, 1.5 - 1j]]))
