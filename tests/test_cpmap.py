import time

import numpy as np
import pytest

from cpspectra import cpmap
from cpspectra import (
    AlgebraShape,
    ConvergenceError,
    CpMap,
    FormatError,
    PreconditionError,
    SuperOperator,
    algebra_map,
    canonical_extension,
    choi_of,
    choi_of_superop,
    choi_rank,
    coefficient_space,
    compress,
    compose,
    dominates,
    irreducible_cp,
    is_cp,
    kraus_of_choi,
    kron,
    map_power,
    membership,
    op_norm,
    preserves_algebra,
    psd_report,
    spectral_radius_of,
    superop_of,
    unvec,
    vec,
)
from cpspectra.reference_maps import double_trace_map, golden_ratio_map, path_adjacency_map, trace_corner_map
from helpers import random_cpmap, random_matrix, random_psd, random_unitary, reference_superop


def unit(m, i, j):
    e = np.zeros((m, m), dtype=complex)
    e[i, j] = 1.0
    return e


def full_map(*kraus):
    return CpMap(tuple(np.asarray(k, dtype=complex) for k in kraus), AlgebraShape.full(kraus[0].shape[0]))


IDENTITY_CHANNEL = full_map(np.eye(2))


def choi_by_matrix_units(s):
    """Reference Choi matrix: sum over E_ij of kron(s(E_ij), E_ij)."""
    m = s.m
    out = np.zeros((m * m, m * m), dtype=complex)
    for i in range(m):
        for j in range(m):
            e = unit(m, i, j)
            out += kron(s(e), e)
    return out


def transpose_superop(m):
    """Superoperator of X -> X.T, which permutes vec coordinates (not CP)."""
    perm = np.zeros((m * m, m * m))
    for i in range(m):
        for j in range(m):
            perm[j + i * m, i + j * m] = 1.0
    return SuperOperator(m, perm)


def seeded_maps():
    rng = np.random.default_rng(15)
    maps = [full_map(*(random_matrix(rng, m) for _ in range(3))) for m in (1, 3, 5)]
    maps += [random_cpmap(rng, blocks) for blocks in ((2, 1), (3, 3), (2, 2, 2))]
    return maps


def leak_ratio(tau):
    """max over in-algebra E_ij of ||off-block part of tau(E_ij)|| / max(1, ||tau(E_ij)||)."""
    worst = 0.0
    for sl in tau.shape.slices():
        for i in range(sl.start, sl.stop):
            for j in range(sl.start, sl.stop):
                y = tau(unit(tau.m, i, j))
                off = y - compress(y, tau.shape)
                worst = max(worst, np.linalg.norm(off) / max(1.0, np.linalg.norm(y)))
    return worst


def preserves_by_matrix_units(tau, tol=1e-10):
    """Reference verdict: tau applied to every in-algebra matrix unit E_ij."""
    if tau.shape.is_full:
        return True
    for sl in tau.shape.slices():
        for i in range(sl.start, sl.stop):
            for j in range(sl.start, sl.stop):
                y = tau(unit(tau.m, i, j))
                if np.linalg.norm(y - compress(y, tau.shape)) > tol * max(1.0, np.linalg.norm(y)):
                    return False
    return True


class TestChoi:
    def test_identity_channel(self):
        expect = sum(kron(unit(2, i, j), unit(2, i, j)) for i in range(2) for j in range(2))
        c = choi_of(IDENTITY_CHANNEL)
        assert np.abs(c - expect).max() < 1e-14
        assert np.linalg.matrix_rank(c) == 1

    def test_trace_corner(self):
        c = choi_of(trace_corner_map())
        assert np.abs(c - kron(unit(2, 0, 0), np.eye(2))).max() < 1e-14

    def test_routes_agree(self):
        rng = np.random.default_rng(0)
        for tau in [full_map(random_matrix(rng, 3), random_matrix(rng, 3))] + seeded_maps():
            assert np.abs(choi_of(tau) - choi_of_superop(superop_of(tau))).max() < 1e-12

    def test_linear_in_the_map(self):
        rng = np.random.default_rng(1)
        a, b = random_matrix(rng, 2), random_matrix(rng, 2)
        joint = choi_of(full_map(2.0 * a, b))  # Choi of 4*alpha_a + alpha_b
        assert np.abs(joint - 4 * choi_of(full_map(a)) - choi_of(full_map(b))).max() < 1e-12

    def test_always_psd(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            tau = full_map(random_matrix(rng, 2), random_matrix(rng, 2))
            assert psd_report(choi_of(tau)).is_psd


class TestChoiReshuffle:
    def test_equals_matrix_unit_loop(self):
        for tau in seeded_maps():
            s = superop_of(tau)
            assert np.array_equal(choi_of_superop(s), choi_by_matrix_units(s))
            if not tau.shape.is_full:
                ext = SuperOperator(tau.m, s.matrix @ np.diag(tau.shape.vec_mask().astype(complex)))
                assert np.array_equal(choi_of_superop(ext), choi_by_matrix_units(ext))

    def test_equals_matrix_unit_loop_on_transpose_swap(self):
        for m in (2, 3, 4):
            s = transpose_superop(m)
            assert np.array_equal(choi_of_superop(s), choi_by_matrix_units(s))

    def test_returns_a_fresh_array(self):
        for tau in seeded_maps():
            s = superop_of(tau)
            before = s.matrix.copy()
            c = choi_of_superop(s)
            assert c.flags.c_contiguous
            c[...] = 7.0
            assert np.array_equal(s.matrix, before)

    def test_canonical_extension_budget(self):
        # the O(m^6) matrix-unit assembly took about 5 s on a 2-vCPU Xeon
        tau = random_cpmap(np.random.default_rng(16), (6, 6, 6, 6))
        start = time.perf_counter()
        ext = canonical_extension(tau)
        elapsed = time.perf_counter() - start
        assert ext.shape.is_full and ext.m == 24
        assert elapsed < 1.0, f"canonical_extension took {elapsed:.2f}s at blocks (6,6,6,6)"


class TestKrausOfChoi:
    def test_identity_channel_single_kraus(self):
        ops = kraus_of_choi(choi_of(IDENTITY_CHANNEL))
        assert len(ops) == 1
        b = ops[0]
        assert np.abs(b / b[0, 0] - np.eye(2)).max() < 1e-12  # identity up to phase

    def test_twice_identity_choi(self):
        ops = kraus_of_choi(2 * np.eye(4))
        assert len(ops) == 4
        space = coefficient_space(full_map(*ops))
        assert space.dimension == 4

    def test_round_trip_random_psd(self):
        rng = np.random.default_rng(3)
        for m in (2, 3):
            c = random_psd(rng, m * m)
            rebuilt = choi_of(full_map(*kraus_of_choi(c)))
            assert np.abs(rebuilt - c).max() < 1e-9

    def test_rejects_non_psd(self):
        with pytest.raises(PreconditionError):
            kraus_of_choi(np.diag([1.0, -1.0, 1.0, 1.0]))

    def test_rejects_non_hermitian(self):
        c = choi_of(IDENTITY_CHANNEL)
        c[0, 1] += 1e-3
        with pytest.raises(PreconditionError, match="Hermitian"):
            kraus_of_choi(c)

    def test_hermitian_rounding_is_tolerated(self):
        c = choi_of(IDENTITY_CHANNEL)
        c[0, 1] += 1e-13
        assert len(kraus_of_choi(c)) == 1

    def test_rejects_non_square_side(self):
        with pytest.raises(Exception):
            kraus_of_choi(np.eye(3))

    def test_rank_tol_drops_small_eigenpairs(self):
        rng = np.random.default_rng(17)
        u = random_unitary(rng, 4)
        c = u @ np.diag([1.0, 0.5, 1e-6, 0.25]) @ u.conj().T
        assert len(kraus_of_choi(c)) == 4
        kept = kraus_of_choi(c, rank_tol=1e-3)
        assert len(kept) == 3
        assert np.abs(choi_of(full_map(*kept)) - c).max() < 2e-6


class TestSuperop:
    def test_matches_the_kron_sum(self):
        rng = np.random.default_rng(9)
        wide = [full_map(*(random_matrix(rng, m) for _ in range(k))) for m, k in ((16, 8), (24, 4))]
        for tau in seeded_maps() + wide:
            want = reference_superop(tau.kraus)
            assert np.abs(superop_of(tau).matrix - want).max() <= 1e-15 * np.abs(want).max()

    def test_one_choi_product_and_no_per_kraus_loop(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a per-Kraus kron or outer product ran")

        tau = seeded_maps()[-1]
        monkeypatch.setattr(np, "kron", forbidden)
        monkeypatch.setattr(np, "outer", forbidden)
        s = superop_of(tau)
        assert np.array_equal(choi_of_superop(s), choi_of(tau))

    def test_overflow_keeps_its_message(self):
        tau = full_map(*(1e160 * random_matrix(np.random.default_rng(0), 3) for _ in range(2)))
        with pytest.raises(ConvergenceError, match="^superoperator entries overflow$"):
            superop_of(tau)

    def test_identity_channel_acts_trivially(self):
        x = random_matrix(np.random.default_rng(4), 2)
        assert np.abs(IDENTITY_CHANNEL(x) - x).max() == 0

    def test_path_map_diagonal_coordinates(self):
        tau = path_adjacency_map()
        s = superop_of(tau).matrix
        idx = [i + i * 3 for i in range(3)]  # vec positions of diagonal entries
        expect = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
        assert np.abs(s[np.ix_(idx, idx)] - expect).max() < 1e-14

    def test_trace_corner_powers_fix_the_corner(self):
        tau = trace_corner_map()
        for n in range(1, 6):
            out = map_power(tau, n)(np.eye(2))
            assert np.abs(out - np.diag([2.0, 0.0])).max() < 1e-12

    def test_compose_is_superop_product(self):
        rng = np.random.default_rng(5)
        tau = full_map(random_matrix(rng, 2), random_matrix(rng, 2))
        sig = full_map(random_matrix(rng, 2))
        x = random_matrix(rng, 2)
        assert np.abs(compose(tau, sig)(x) - tau(sig(x))).max() < 1e-12

    def test_norm_attained_at_identity(self):
        # for CP maps the norm is ||tau(1)||: random PSD probes never beat it
        rng = np.random.default_rng(6)
        tau = full_map(random_matrix(rng, 3), random_matrix(rng, 3))
        bound = op_norm(tau(np.eye(3)))
        for _ in range(25):
            x = random_psd(rng, 3)
            assert op_norm(tau(x)) <= bound * op_norm(x) + 1e-9


MIXING_BLOCKS = ((3,), (2, 1), (2, 2), (1, 1, 1), (3, 2))


def mixed(tau, rng):
    """The same map through the Kraus list ``B_j = sum_i u_ji A_i``, u a random unitary."""
    u = random_unitary(rng, len(tau.kraus))
    return CpMap(tuple(np.tensordot(u, np.array(tau.kraus), axes=1)), tau.shape)


class TestWrongSide:
    """Calling a map on a matrix of another side is a FormatError naming both sides."""

    def test_cp_map(self):
        tau = CpMap((np.eye(4),), AlgebraShape((2, 2)))
        with pytest.raises(FormatError, match=r"shape \(3, 3\) does not match the map's side 4"):
            tau(np.ones((3, 3)))

    def test_algebra_map_and_superoperator(self):
        phi = algebra_map(CpMap((np.eye(4),), AlgebraShape((2, 2))))
        for f in (phi, phi.superop):
            with pytest.raises(FormatError, match=r"shape \(3, 3\) does not match the map's side 4"):
                f(np.ones((3, 3)))
            with pytest.raises(FormatError, match=r"shape \(2, 8\) does not match the map's side 4"):
                f(np.ones((2, 8)))


class TestKrausMixing:
    def test_coefficient_space_basis_is_unchanged(self):
        rng = np.random.default_rng(19)
        for blocks in MIXING_BLOCKS:
            tau = random_cpmap(rng, blocks)
            a, b = coefficient_space(tau), coefficient_space(mixed(tau, rng))
            assert a.dimension == b.dimension
            assert np.abs(a.stacked() - b.stacked()).max() < 1e-10

    def test_projector_choi_rank_and_extension_are_unchanged(self):
        rng = np.random.default_rng(20)
        for blocks in MIXING_BLOCKS:
            tau = random_cpmap(rng, blocks)
            mix = mixed(tau, rng)
            assert np.abs(coefficient_space(tau).projector() - coefficient_space(mix).projector()).max() < 1e-10
            assert choi_rank(mix) == choi_rank(tau)
            s_tau = superop_of(canonical_extension(tau)).matrix
            s_mix = superop_of(canonical_extension(mix)).matrix
            assert np.abs(s_mix - s_tau).max() <= 1e-12 * np.abs(s_tau).max()


class TestKrausSpanRoute:
    def test_no_choi_matrix_and_no_eigh(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a Kraus-list span went through a Choi matrix or eigh")

        for name in ("choi_of", "choi_of_superop", "kraus_of_choi"):
            monkeypatch.setattr(cpmap, name, forbidden)
        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        tau = random_cpmap(np.random.default_rng(17), (2, 1))
        assert coefficient_space(tau).dimension == choi_rank(tau) >= 1
        assert membership(tau.kraus[0], tau).member
        assert canonical_extension(tau).shape.is_full

    def test_budget_at_blocks_16_16(self):
        # through the m^2 x m^2 Choi matrix each call took about 1 s on a 2-vCPU Xeon
        tau = random_cpmap(np.random.default_rng(18), (16, 16))
        for func in (coefficient_space, canonical_extension):
            start = time.perf_counter()
            func(tau)
            elapsed = time.perf_counter() - start
            assert elapsed < 0.1, f"{func.__name__} took {elapsed:.3f}s at blocks (16,16)"

    def test_zero_map_extends_to_one_zero_kraus_operator(self):
        ext = canonical_extension(random_cpmap(np.random.default_rng(21), (2, 1), scale=0.0))
        assert len(ext.kraus) == 1 and np.array_equal(ext.kraus[0], np.zeros((3, 3)))


class TestHugeKrausNorms:
    """Kraus operators of norm 1e160: their Choi eigenvalues, the squared singular
    values, overflow, but the span rule does not square them."""

    def scaled_pair(self, scale):
        rng = np.random.default_rng(0)
        return full_map(*(scale * random_matrix(rng, 3) for _ in range(2)))

    def test_span_keeps_the_unscaled_count_and_dimension(self):
        small, huge = self.scaled_pair(1.0), self.scaled_pair(1e160)
        assert len(canonical_extension(huge).kraus) == len(canonical_extension(small).kraus) == 2
        assert coefficient_space(huge).dimension == coefficient_space(small).dimension == 2

    def test_superoperator_overflow_is_a_convergence_error(self):
        huge = self.scaled_pair(1e160)
        # spectral_radius_of first overflows in its radius bracket, which must fall through
        with np.errstate(over="ignore", invalid="ignore"):
            for call in (superop_of, irreducible_cp, spectral_radius_of):
                with pytest.raises(ConvergenceError, match="overflow"):
                    call(huge)


class TestHugeNormVerdicts:
    """Frobenius norms of 1e160 matrices square past the float range; the gates built on
    them (PSD floors, membership bounds) must not turn into inf <= inf."""

    @pytest.mark.parametrize("c", [1.0, 1e100, 1e150, 1e160])
    def test_false_verdicts_stay_false(self, c):
        tau0 = golden_ratio_map()
        m = tau0.m
        tau = CpMap(tuple(np.sqrt(c) * k for k in tau0.kraus), tau0.shape)
        swap = np.zeros((m * m, m * m))
        for i in range(m):
            for j in range(m):
                swap[j + i * m, i + j * m] = 1.0  # the transpose map, not CP
        outsider = np.zeros((m, m))
        outsider[1, 1] = 1.0  # E_11 is not in span{E_00, E_01, E_12, E_20, E_21}
        assert not is_cp(SuperOperator(m, c * swap))
        assert not dominates(CpMap(tau.kraus[:1], tau.shape), tau)
        assert not membership(c * outsider, tau).member
        assert is_cp(superop_of(tau)) and dominates(tau, CpMap(tau.kraus[:1], tau.shape))
        assert membership(c * tau0.kraus[1], tau).member


class TestCoefficientSpace:
    def test_single_identity(self):
        space = coefficient_space(IDENTITY_CHANNEL)
        assert space.dimension == 1
        assert np.abs(space.project(np.eye(2)) - np.eye(2)).max() < 1e-12

    def test_double_trace_pair(self):
        assert coefficient_space(double_trace_map()).dimension == 2

    def test_invariant_under_kraus_rotation(self):
        rng = np.random.default_rng(7)
        a1, a2 = random_matrix(rng, 2), random_matrix(rng, 2)
        tau = full_map(a1, a2)
        rot = full_map((a1 + a2) / np.sqrt(2), (a1 - a2) / np.sqrt(2))
        p1 = coefficient_space(tau).projector()
        p2 = coefficient_space(rot).projector()
        assert np.abs(p1 - p2).max() < 1e-10

    def test_project_matches_projector(self):
        rng = np.random.default_rng(17)
        space = coefficient_space(full_map(random_matrix(rng, 3), random_matrix(rng, 3)))
        x = random_matrix(rng, 3)
        p = space.projector()
        assert np.abs(vec(space.project(x)) - p @ vec(x)).max() < 1e-12
        assert np.abs(p @ p - p).max() < 1e-12
        assert np.abs(p - p.conj().T).max() < 1e-14

    def test_empty_space(self):
        space = coefficient_space(full_map(np.zeros((2, 2))))
        assert space.dimension == 0
        assert np.array_equal(space.projector(), np.zeros((4, 4)))
        assert np.array_equal(space.project(np.eye(2)), np.zeros((2, 2)))

    def test_choi_rank_examples(self):
        assert choi_rank(IDENTITY_CHANNEL) == 1
        assert choi_rank(canonical_extension(double_trace_map())) == 4
        depolarizing = full_map(*(unit(2, i, j) for i in range(2) for j in range(2)))
        assert np.abs(depolarizing(np.eye(2)) - 2 * np.eye(2)).max() < 1e-12
        assert choi_rank(depolarizing) == 4


class TestDomination:
    def test_reflexive_and_scaled(self):
        rng = np.random.default_rng(8)
        tau = full_map(random_matrix(rng, 2), random_matrix(rng, 2))
        doubled = full_map(*(np.sqrt(2.0) * a for a in tau.kraus))
        assert dominates(tau, tau)
        assert dominates(doubled, tau)
        assert not dominates(tau, doubled)

    def test_membership_certificate_bound(self):
        # A = A1 + A2 expands with coefficients (1, 1); q = ||V|| + 1 = 3 works
        rng = np.random.default_rng(9)
        a1, a2 = random_matrix(rng, 2), random_matrix(rng, 2)
        tau = full_map(a1, a2)
        scaled = full_map(np.sqrt(3.0) * a1, np.sqrt(3.0) * a2)
        assert dominates(scaled, full_map(a1 + a2))

    def test_dominated_coefficient_space_nested(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            a1, a2 = random_matrix(rng, 2), random_matrix(rng, 2)
            tau, eta = full_map(a1, a2), full_map(a1)
            assert dominates(tau, eta)
            p_tau = coefficient_space(tau).projector()
            p_eta = coefficient_space(eta).projector()
            assert np.abs(p_tau @ p_eta - p_eta).max() < 1e-10


class TestMembership:
    def test_first_kraus_operator(self):
        rng = np.random.default_rng(11)
        tau = full_map(random_matrix(rng, 2), random_matrix(rng, 2))
        result = membership(tau.kraus[0], tau)
        assert result.member and result.q is not None

    def test_identity_not_in_nilpotent_span(self):
        tau = full_map(unit(2, 0, 1))
        result = membership(np.eye(2), tau)
        assert not result.member and result.residual > 0.5

    def test_agrees_with_domination(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            a1, a2 = random_matrix(rng, 2), random_matrix(rng, 2)
            tau = full_map(a1, a2)
            if rng.uniform() < 0.5:
                coeff = rng.normal(size=2) + 1j * rng.normal(size=2)
                probe = coeff[0] * a1 + coeff[1] * a2
            else:
                probe = random_matrix(rng, 2)
            result = membership(probe, tau)
            if result.member:
                scaled = full_map(*(np.sqrt(result.q) * a for a in tau.kraus))
                assert dominates(scaled, full_map(probe))
            else:
                for q in (1.0, 10.0, 1e3):
                    scaled = full_map(*(np.sqrt(q) * a for a in tau.kraus))
                    assert not dominates(scaled, full_map(probe))

    def test_rank_tol_decides_the_space(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        tau = full_map(a, 1e-2 * b)
        assert coefficient_space(tau).dimension == 2
        assert coefficient_space(tau, rank_tol=1e-3).dimension == 1
        assert membership(b, tau).member
        assert not membership(b, tau, rank_tol=1e-3).member


class TestIsCp:
    def test_identity_superoperator(self):
        assert is_cp(SuperOperator(2, np.eye(4)))

    def test_transpose_map_is_not_cp(self):
        assert not is_cp(transpose_superop(2))

    def test_difference_of_kraus_terms(self):
        rng = np.random.default_rng(13)
        a1, a2 = random_matrix(rng, 2), random_matrix(rng, 2)
        s = superop_of(full_map(a1, a2)).matrix - superop_of(full_map(a1)).matrix
        assert is_cp(SuperOperator(2, s))


class TestPreservesAlgebra:
    def test_block_supported_kraus(self):
        rng = np.random.default_rng(14)
        tau = random_cpmap(rng, (2, 1))
        assert preserves_algebra(tau)

    def test_off_block_kraus(self):
        tau = CpMap((np.ones((2, 2), dtype=complex),), AlgebraShape((1, 1)))
        assert not preserves_algebra(tau)

    def test_verdicts_match_matrix_unit_loop(self):
        rng = np.random.default_rng(18)
        for blocks in ((2, 1), (1, 1, 1), (3, 2), (2, 2, 2)):
            kept = random_cpmap(rng, blocks)
            leaky = CpMap(kept.kraus + (random_matrix(rng, kept.m),), kept.shape)
            assert preserves_algebra(kept) and preserves_by_matrix_units(kept)
            assert not preserves_algebra(leaky) and not preserves_by_matrix_units(leaky)

    def test_verdicts_at_scaled_leaks(self):
        # a leaking Kraus term eps * B leaks eps^2 * B* E_ij B; scale it to 0.5x and 2x tol
        rng = np.random.default_rng(19)
        tol = cpmap._LEAK_TOL
        for blocks in ((2, 1), (3, 2), (2, 2, 2)):
            kept = random_cpmap(rng, blocks)
            b = random_matrix(rng, kept.m)
            probe = 1e-3
            ratio = leak_ratio(CpMap(kept.kraus + (probe * b,), kept.shape))
            for factor in (0.5, 2.0):
                eps = probe * np.sqrt(factor * tol / ratio)
                tau = CpMap(kept.kraus + (eps * b,), kept.shape)
                assert abs(leak_ratio(tau) / tol - factor) < 1e-3 * factor
                assert preserves_algebra(tau) == preserves_by_matrix_units(tau, tol) == (factor < 1)


class TestOneCoercion:
    """cpmap.map_matrix is the one reader of a map's matrix and algebra."""

    def test_algebra_of_each_input(self):
        tau = random_cpmap(np.random.default_rng(20), (2, 1))
        mat, shape = cpmap.map_matrix(tau)
        assert shape == tau.shape
        assert np.array_equal(mat, np.where(tau.shape.vec_mask(), superop_of(tau).matrix, 0))
        assert cpmap.map_matrix(algebra_map(tau))[1] == tau.shape
        assert cpmap.map_matrix(SuperOperator(3, mat))[1] == AlgebraShape.full(3)
        assert cpmap.map_matrix(mat)[1] == AlgebraShape.full(3)
        assert cpmap.map_matrix(np.eye(5))[1] is None
        with pytest.raises(PreconditionError, match="square"):
            cpmap.map_matrix(np.ones((2, 3)))

    def test_superop_matrix_of_a_cpmap_builds_no_algebra_map(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("an AlgebraMap was built")

        tau = random_cpmap(np.random.default_rng(21), (2, 2))
        want = algebra_map(tau).superop.matrix
        monkeypatch.setattr(cpmap.AlgebraMap, "__init__", forbidden)
        assert np.array_equal(cpmap.superop_matrix(tau), want)


def superop_of_choi(c, m):
    """The superoperator whose Choi matrix is ``c`` (the inverse reshuffle)."""
    return SuperOperator(m, c.reshape(m, m, m, m).transpose(2, 0, 3, 1).reshape(m * m, m * m))


class TestScaleFreeVerdicts:
    """is_cp, dominates, kraus_of_choi, membership and preserves_algebra compare each
    residual with their tolerance times the norm of what they check, so scaling an input
    by c changes no verdict, below unit scale as above it."""

    SCALES = [1e-12, 1e-9, 1.0, 1e6]

    @staticmethod
    def skewed_golden_choi():
        # Choi(golden) plus an anti-Hermitian part of 1e-3 of its Frobenius norm
        c0 = choi_of(golden_ratio_map())
        rng = np.random.default_rng(0)
        k = rng.normal(size=c0.shape) + 1j * rng.normal(size=c0.shape)
        k = k - k.conj().T
        return c0 + 1e-3 * np.linalg.norm(c0) / np.linalg.norm(k) * k

    @pytest.mark.parametrize("c", SCALES)
    def test_choi_verdicts(self, c):
        good = choi_of(golden_ratio_map())
        swap = choi_of_superop(transpose_superop(3))  # eigenvalues +-1
        for bad in (self.skewed_golden_choi(), swap):
            assert not is_cp(superop_of_choi(c * bad, 3))
            with pytest.raises(PreconditionError):
                kraus_of_choi(c * bad)
        assert is_cp(superop_of_choi(c * good, 3))
        assert len(kraus_of_choi(c * good)) == choi_rank(golden_ratio_map())

    @pytest.mark.parametrize("c", SCALES)
    def test_dominates(self, c):
        rng = np.random.default_rng(0)
        a0, a1 = (np.sqrt(c) * rng.normal(size=(3, 3)) for _ in range(2))
        tau, eta = full_map(a0, a1), full_map(a0, 2 * a1)
        assert not dominates(tau, eta)
        assert dominates(eta, tau)

    @pytest.mark.parametrize("c", SCALES)
    def test_membership(self, c):
        tau = golden_ratio_map()
        outsider = np.random.default_rng(5).normal(size=(3, 3))
        assert coefficient_space(tau).residual(outsider) > 1.0
        assert not membership(c * outsider, tau).member
        assert membership(c * tau.kraus[1], tau).member

    @pytest.mark.parametrize("c", SCALES)
    def test_preserves_algebra(self, c):
        rng = np.random.default_rng(0)
        leaky = [random_matrix(rng, 4) for _ in range(2)]
        assert not preserves_algebra(CpMap(tuple(np.sqrt(c) * k for k in leaky), AlgebraShape((2, 2))))
        kept = random_cpmap(rng, (2, 2))
        assert preserves_algebra(CpMap(tuple(np.sqrt(c) * k for k in kept.kraus), kept.shape))
