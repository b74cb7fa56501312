import json
import pathlib
import time

import numpy as np
import pytest
import scipy.linalg

from cpspectra import cpmap, mats, perron
from cpspectra import (
    AlgebraShape,
    ConvergenceError,
    CpMap,
    FormatError,
    PreconditionError,
    algebra_basis,
    algebra_map,
    canonical_extension,
    choi_of_superop,
    compress,
    exp_eta,
    irreducible_cp,
    kraus_of_choi,
    maximal_factorization,
    maximal_ideal_check,
    maximal_part,
    numerical_rank,
    perron_vector,
    preserves_algebra,
    psd_report,
    resolvent_gamma,
    spectral_radius_of,
    spectral_structure,
    superop_of,
    unvec,
    vec,
)
from cpspectra.cli import main
from cpspectra.reference_maps import (
    double_trace_map,
    golden_ratio_map,
    path_adjacency_map,
    trace_corner_map,
)
from helpers import (
    block_unitary,
    hermitian_basis,
    perron_dense_map,
    random_unitary,
    reference_clusters,
    random_cpmap,
    random_matrix,
    random_psd,
    rect_kraus,
    reference_maximal_hat,
    reference_probe_ratios,
    ring_pairs,
    triangular_pairs,
)

GOLD = (1 + np.sqrt(5)) / 2


def unit(m, i, j):
    e = np.zeros((m, m), dtype=complex)
    e[i, j] = 1.0
    return e


def full_map(*kraus):
    return CpMap(
        tuple(np.asarray(k, dtype=complex) for k in kraus), AlgebraShape.full(kraus[0].shape[0])
    )


def diagonal_algebra_map(matrix):
    """Positive map on the diagonal algebra of M_k given by an entrywise-nonnegative matrix."""
    k = matrix.shape[0]
    s = np.zeros((k * k, k * k), dtype=complex)
    for i in range(k):
        for j in range(k):
            s[i + i * k, j + j * k] = matrix[i, j]
    return algebra_map(s, AlgebraShape((1,) * k))


class TestSpectralStructure:
    def test_diagonalizable(self):
        rng = np.random.default_rng(0)
        d = np.diag([2.0, 1.0, 0.5])
        v = random_matrix(rng, 3) + 2 * np.eye(3)
        struct = spectral_structure(v @ d @ np.linalg.inv(v))
        assert all(c.degeneracy == 1 for c in struct.clusters)
        assert struct.d_max == 1
        assert abs(struct.radius - 2.0) < 1e-9

    def test_jordan_block(self):
        t = np.array([[1.0, 1.0], [0.0, 1.0]])
        struct = spectral_structure(t)
        assert struct.radius == pytest.approx(1.0)
        assert struct.d_max == 2
        assert len(struct.maximal_spectrum) == 1
        assert struct.maximal_spectrum[0] == pytest.approx(1.0)

    def test_golden_superoperator(self):
        struct = spectral_structure(algebra_map(golden_ratio_map()).superop.matrix)
        assert abs(struct.radius - GOLD) < 1e-9
        assert struct.d_max == 1

    def test_mixed_degeneracies(self):
        t = np.diag([1.0, 1.0, 0.3])
        t[0, 1] = 1.0  # Jordan block at the peripheral eigenvalue
        struct = spectral_structure(t)
        assert struct.d_max == 2
        interior = [c for c in struct.clusters if abs(c.value - 0.3) < 1e-8]
        assert interior[0].degeneracy == 1

    def test_simple_spectrum_runs_no_rank_test(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("rank test run for a cluster of multiplicity 1")

        monkeypatch.setattr(perron, "numerical_rank", forbidden)
        rng = np.random.default_rng(4)
        tau = CpMap(tuple(random_matrix(rng, 3) for _ in range(3)), AlgebraShape.full(3))
        struct = spectral_structure(tau)
        assert all(c.multiplicity == c.degeneracy == 1 for c in struct.clusters)

    def test_radius_in_maximal_spectrum_for_positive_maps(self):
        rng = np.random.default_rng(21)
        for blocks in [(2,), (2, 1), (1, 1, 1)]:
            for _ in range(5):
                tau = random_cpmap(rng, blocks, terms=4)
                struct = spectral_structure(algebra_map(tau).superop.matrix)
                if struct.radius <= 1e-8:
                    continue
                assert min(abs(v - struct.radius) for v in struct.maximal_spectrum) < 1e-7


class TestMaximalPart:
    def test_golden_matches_expected_formula(self):
        mp = maximal_part(algebra_map(golden_ratio_map()))
        row = np.zeros(9)
        row[0], row[4], row[8] = 1.0, GOLD - 1.0, 1.0
        expected = np.outer(vec(np.diag([1.0, 1.0, GOLD - 1.0])), row) / np.sqrt(5)
        assert np.abs(mp.superop.matrix - expected).max() < 1e-8
        assert mp.degeneracy == 1 and mp.idempotent

    def test_path_matches_projector(self):
        mp = maximal_part(algebra_map(path_adjacency_map()))
        v = np.array([1.0, np.sqrt(2), 1.0])
        row = np.zeros(9)
        row[[0, 4, 8]] = v
        expected = 0.25 * np.outer(vec(np.diag(v)), row)
        assert np.abs(mp.superop.matrix - expected).max() < 1e-8

    def test_identity_map(self):
        ident = full_map(np.eye(2))
        mp = maximal_part(ident)
        assert np.abs(mp.superop.matrix - np.eye(4)).max() < 1e-10
        assert mp.radius == pytest.approx(1.0) and mp.idempotent

    def test_trace_corner_projector(self):
        tau = trace_corner_map()
        mp = maximal_part(tau)
        assert np.abs(mp.superop.matrix - superop_of(tau).matrix).max() < 1e-8

    def test_degeneracy_two_cesaro_agrees(self):
        # at d = 2 the second route is the contour rule, not the Cesaro mean
        phi = diagonal_algebra_map(np.array([[1.0, 1.0], [0.0, 1.0]]))
        mp = maximal_part(phi)
        assert mp.degeneracy == 2 and not mp.idempotent
        expected = np.zeros((4, 4))
        expected[0, 3] = 1.0  # maps diag(a, b) to diag(b, 0)
        assert np.abs(mp.superop.matrix - expected).max() < 1e-6

    @pytest.mark.parametrize("coupling", [1.0, 0.25])
    def test_weak_jordan_coupling_at_default_tolerances(self, coupling):
        # diag(a, b) -> diag(a + c b, b): the maximal part is diag(a, b) -> diag(c b, 0)
        phi = diagonal_algebra_map(np.array([[1.0, coupling], [0.0, 1.0]]))
        start = time.perf_counter()
        mp = maximal_part(phi)
        assert time.perf_counter() - start < 1.0
        assert mp.degeneracy == 2 and not mp.idempotent
        expected = np.zeros((4, 4))
        expected[0, 3] = coupling
        assert np.abs(mp.superop.matrix - expected).max() < 1e-12

    @pytest.mark.parametrize(
        "seed, blocks", [(26, (2, 3)), (39, (2, 2, 2)), (40, (2, 2, 2)), (55, (3, 3))]
    )
    def test_block_triangular_maps_pass_at_default_tolerances(self, seed, blocks):
        # maps with a large reduced resolvent K, where the plain mean P + K/N stalls above cesaro_tol
        kraus = rect_kraus(np.random.default_rng(seed), blocks, triangular_pairs(len(blocks)))
        tau = CpMap(tuple(kraus), AlgebraShape(blocks))
        mp = maximal_part(tau)
        hat = mp.superop.matrix
        scale = max(1.0, float(np.abs(hat).max()))
        assert mp.degeneracy == 1 and mp.idempotent
        assert mp.route_gap <= 1e-6 * scale
        # the Riesz projector from the right and left eigenvectors at r
        s = cpmap.superop_matrix(tau)
        vals, right = np.linalg.eig(s)
        k = int(np.argmin(np.abs(vals - mp.radius)))
        left = np.linalg.inv(right)[k]
        assert np.abs(hat - np.outer(right[:, k], left)).max() < 1e-8 * scale

    def test_max_terms_caps_the_cesaro_mean(self, monkeypatch):
        monkeypatch.setattr(perron, "_CESARO_TERMS", 4)
        with pytest.raises(ConvergenceError, match="within 4 terms"):
            maximal_part(golden_ratio_map())

    def test_rejects_nilpotent(self):
        with pytest.raises(PreconditionError):
            maximal_part(full_map(unit(2, 0, 1)))

    def test_rejects_non_positive_rotation(self):
        # spectral radius of a rotation is not an eigenvalue
        theta = 0.7
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        with pytest.raises(PreconditionError):
            maximal_part(diagonal_algebra_map(rot).superop.matrix)

    def test_rejects_non_square_size_before_eigen_work(self, monkeypatch):
        calls = []
        monkeypatch.setattr(scipy.linalg, "schur", lambda *a, **k: calls.append(a))
        for call in (maximal_part, perron_vector):
            with pytest.raises(FormatError, match="perfect square"):
                call(np.diag([2.0, 1.0, 0.5]))
        assert calls == []

    def test_commutation_and_branching_on_random_maps(self):
        rng = np.random.default_rng(1)
        for blocks in [(2,), (2, 1), (1, 1, 1)]:
            for _ in range(5):
                tau = random_cpmap(rng, blocks, terms=4)
                phi = algebra_map(tau)
                s = phi.superop.matrix
                if np.abs(np.linalg.eigvals(s)).max() < 1e-3:
                    continue
                mp = maximal_part(phi)
                hat = mp.superop.matrix
                assert np.abs(s @ hat - mp.radius * hat).max() < 1e-8
                assert np.abs(hat @ s - mp.radius * hat).max() < 1e-8
                sq = hat @ hat
                if mp.idempotent:
                    assert np.abs(sq - hat).max() < 1e-8 and mp.degeneracy == 1
                else:
                    assert np.abs(sq).max() < 1e-8 and mp.degeneracy > 1

    def test_fixed_points_match_eigenvectors(self):
        phi = algebra_map(golden_ratio_map())
        mp = maximal_part(phi)
        hat = mp.superop.matrix
        rng = np.random.default_rng(2)
        x = vec(random_matrix(rng, 3))
        y = hat @ x  # in the image of the maximal part
        assert np.linalg.norm(phi.superop.matrix @ y - mp.radius * y) < 1e-8
        assert np.linalg.norm(hat @ y - y) < 1e-8

    def test_annihilates_interior_eigenvectors(self):
        phi = algebra_map(golden_ratio_map())
        mp = maximal_part(phi)
        s = phi.superop.matrix
        vals, vecs = np.linalg.eig(s)
        for k, lam in enumerate(vals):
            if abs(lam) < mp.radius - 1e-8:
                assert np.linalg.norm(mp.superop.matrix @ vecs[:, k]) < 1e-8


class TestPerronVector:
    def test_golden(self):
        ell = perron_vector(golden_ratio_map())
        expect = np.diag([GOLD**2, GOLD**2, GOLD]) / np.sqrt(5)
        assert np.abs(ell - expect).max() < 1e-8

    def test_path(self):
        ell = perron_vector(path_adjacency_map())
        expect = 0.25 * (2 + np.sqrt(2)) * np.diag([1.0, np.sqrt(2), 1.0])
        assert np.abs(ell - expect).max() < 1e-8

    def test_trace_corner(self):
        ell = perron_vector(trace_corner_map())
        assert np.abs(ell - np.diag([2.0, 0.0])).max() < 1e-8

    def test_random_maps_give_eigenvectors(self):
        rng = np.random.default_rng(3)
        count = 0
        while count < 10:
            tau = random_cpmap(rng, (2, 1), terms=4)
            phi = algebra_map(tau)
            s = phi.superop.matrix
            r = np.abs(np.linalg.eigvals(s)).max()
            if r < 1e-3:
                continue
            count += 1
            ell = perron_vector(phi)
            assert psd_report(ell).is_psd
            assert np.linalg.norm(phi(ell) - r * ell) < 1e-8 * np.linalg.norm(ell)

    def test_coerces_the_map_once(self, monkeypatch):
        calls = []
        original = cpmap.algebra_map

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cpmap, "algebra_map", counted)
        perron_vector(golden_ratio_map())
        assert len(calls) == 1


def gaussian_block_map(rng, blocks, terms=4, scale=0.25):
    """Dense Gaussian Kraus operators on a block shape: their action leaves the algebra."""
    m = sum(blocks)
    kraus = tuple(
        scale * (rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))) for _ in range(terms)
    )
    return CpMap(kraus, AlgebraShape(tuple(blocks)))


class TestBlockMapMeaning:
    """A block-shaped map means iota o tau o E at every entry point."""

    def seeded_maps(self):
        # the first map is the (4, 4) one whose raw Kraus radius is 3.9043, not 3.9809
        leaking = [gaussian_block_map(np.random.default_rng(0), (4, 4))]
        rng = np.random.default_rng(5)
        leaking += [gaussian_block_map(rng, blocks) for blocks in [(2, 1), (2, 2), (3, 2, 1)]]
        kept = [random_cpmap(rng, blocks) for blocks in [(2, 1), (2, 2), (3, 2, 1)]]
        return leaking, kept

    def test_seeded_maps_leak_or_keep_the_algebra(self):
        leaking, kept = self.seeded_maps()
        assert not any(preserves_algebra(tau) for tau in leaking)
        assert all(preserves_algebra(tau) for tau in kept)

    def test_entry_points_agree_on_the_radius(self):
        leaking, kept = self.seeded_maps()
        for tau in leaking + kept:
            r = spectral_radius_of(tau)
            assert abs(maximal_part(tau).radius - r) <= 1e-9 * r
            assert abs(spectral_radius_of(canonical_extension(tau)) - r) <= 1e-9 * r

    def test_found_map_radius(self):
        tau = self.seeded_maps()[0][0]
        assert spectral_radius_of(tau) == pytest.approx(3.9809, abs=1e-4)

    def test_perron_vector_of_a_leaking_map(self):
        tau = self.seeded_maps()[0][1]
        ell = perron_vector(tau)
        phi = algebra_map(tau)
        r = spectral_radius_of(tau)
        assert np.linalg.norm(phi(ell) - r * ell) <= 1e-8 * np.linalg.norm(ell)

    def test_calling_the_map_applies_its_matrix(self):
        # tau(x) is iota o tau o E: the off-block entries of x never count
        leaking, kept = self.seeded_maps()
        rng = np.random.default_rng(11)
        full = random_cpmap(rng, (5,))
        for tau in leaking + kept + [full]:
            x = random_matrix(rng, tau.m)
            want = unvec(cpmap.superop_matrix(tau) @ vec(x), tau.m)
            got = tau(x)
            assert np.linalg.norm(got - want) <= 1e-12 * max(1.0, np.linalg.norm(want))

    def test_calling_the_map_rejects_non_finite_input(self):
        tau = self.seeded_maps()[0][1]
        for bad in (np.nan, np.inf, complex(0.0, np.inf)):
            x = np.ones((tau.m, tau.m), dtype=complex)
            x[0, 0] = bad
            with pytest.raises(FormatError, match="finite"):
                tau(x)


class TestMaximalFactorization:
    def test_golden(self):
        fact = maximal_factorization(golden_ratio_map())
        assert abs(fact.radius - GOLD) < 1e-9
        expect_l = np.diag([GOLD**2, GOLD**2, GOLD]) / np.sqrt(5)
        assert np.abs(fact.eigenvector - expect_l).max() < 1e-8
        assert psd_report(fact.state).is_strictly_positive
        assert abs(np.trace(fact.state @ fact.eigenvector).real - 1.0) < 1e-12

    def test_path_state_direction(self):
        fact = maximal_factorization(path_adjacency_map())
        v = np.array([1.0, np.sqrt(2), 1.0])
        assert np.abs(fact.state - np.diag(v) / (2 + np.sqrt(2))).max() < 1e-8
        s = superop_of(canonical_extension(path_adjacency_map())).matrix
        assert np.linalg.norm(s.conj().T @ vec(fact.state) - np.sqrt(2) * vec(fact.state)) < 1e-8

    def test_depolarizing(self):
        depol = full_map(*(unit(2, i, j) / np.sqrt(2) for i in range(2) for j in range(2)))
        fact = maximal_factorization(depol)
        assert abs(fact.radius - 1.0) < 1e-10
        assert np.abs(fact.state - np.eye(2) / 2).max() < 1e-8
        assert np.abs(fact.eigenvector - np.eye(2)).max() < 1e-8

    def test_rejects_reducible(self):
        with pytest.raises(PreconditionError):
            maximal_factorization(full_map(np.diag([2.0, 1.0])))

    def test_reducible_message_names_the_dimension(self):
        # X -> trace(X) E_11: d = 1 and a rank-one maximal part, but L = 2 E_11 is singular
        message = r"^map is reducible \(lambda_min\(L\) = 0\.000e\+00 <= psd_tol\)$"
        with pytest.raises(PreconditionError, match=message):
            maximal_factorization(trace_corner_map())

    def test_each_stage_runs_once(self, monkeypatch):
        names = ("_maximal_part", "canonical_extension", "algebra_basis", "irreducible_cp")
        calls = {name: [] for name in names}
        for name in calls:
            original = getattr(perron, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name].append(kwargs)
                return _original(*args, **kwargs)

            monkeypatch.setattr(perron, name, counted)
        maximal_factorization(golden_ratio_map(), rank_tol=1e-7)
        # the verdict reads the one maximal part: no extension and no Burnside closure
        assert calls["canonical_extension"] == calls["algebra_basis"] == []
        assert calls["_maximal_part"] == [{"rank_tol": 1e-7}]
        assert calls["irreducible_cp"] == []

    def test_rank_tol_reaches_the_perron_vector(self):
        rng = np.random.default_rng(24)
        maps = [golden_ratio_map(), path_adjacency_map()]
        maps += [random_cpmap(rng, blocks) for blocks in ((3,), (2, 2))]
        for tau in maps:
            # the factorization runs maximal_part on tau itself, in tau's coordinates
            fact = maximal_factorization(tau, rank_tol=1e-7)
            ell = perron_vector(tau, rank_tol=1e-7)
            assert np.array_equal(fact.eigenvector, ell)


class TestIrreducibility:
    def test_double_trace_is_irreducible_despite_common_invariant_span(self):
        rep = irreducible_cp(double_trace_map())
        assert rep.irreducible and rep.dimension == 4 and rep.probes_consistent

    def test_reference_maps_irreducible(self):
        for tau in (golden_ratio_map(), path_adjacency_map()):
            rep = irreducible_cp(tau)
            assert rep.irreducible and rep.dimension == tau.m**2

    def test_block_diagonal_single_kraus_reducible(self):
        tau = CpMap((np.diag([2.0, 1.0]).astype(complex),), AlgebraShape((1, 1)))
        rep = irreducible_cp(tau)
        assert not rep.irreducible and rep.dimension == 2
        assert rep.witness is not None
        for b in algebra_basis(canonical_extension(tau).kraus, unital=False).basis:
            assert abs(np.vdot(b, rep.witness)) < 1e-8

    def test_zero_map_reducible_with_unit_witness(self):
        rep = irreducible_cp(full_map(np.zeros((2, 2))))
        assert not rep.irreducible and rep.dimension == 0
        assert abs(np.linalg.norm(rep.witness) - 1.0) < 1e-12

    def test_verdict_matches_extension_verdict(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            tau = random_cpmap(rng, (2, 1), terms=4)
            ext = canonical_extension(tau)
            assert irreducible_cp(tau).irreducible == irreducible_cp(ext).irreducible

    def test_no_psd_vector_dies_under_irreducible_map(self):
        rng = np.random.default_rng(5)
        for tau in (golden_ratio_map(), path_adjacency_map(), double_trace_map()):
            phi = algebra_map(tau)
            r = np.abs(np.linalg.eigvals(phi.superop.matrix)).max()
            normalized = phi.superop.matrix / r
            powered = np.linalg.matrix_power(normalized, 128)
            from cpspectra import compress

            for _ in range(10):
                x = compress(random_psd(rng, tau.m), tau.shape)
                y = powered @ vec(x)
                assert np.linalg.norm(y) > 1e-6 * np.linalg.norm(x)

    def test_maximal_part_strictly_positive_and_rank_one(self):
        rng = np.random.default_rng(6)
        for tau in (golden_ratio_map(), path_adjacency_map()):
            mp = maximal_part(algebra_map(tau))
            assert numerical_rank(mp.superop.matrix) == 1
            from cpspectra import compress

            for _ in range(10):
                x = compress(random_psd(rng, tau.m), tau.shape)
                out = mp.superop(x)
                out = (out + out.conj().T) / 2
                assert psd_report(out).is_strictly_positive


def block_diagonal(rng, blocks):
    m = sum(blocks)
    a = np.zeros((m, m), dtype=complex)
    start = 0
    for n in blocks:
        a[start : start + n, start : start + n] = random_matrix(rng, n)
        start += n
    return a


def assert_orthonormal_and_closed(gen, mats):
    """Orthonormal basis whose span holds every generator and generator product."""
    q = np.column_stack([vec(b) for b in gen.basis])
    assert np.abs(q.conj().T @ q - np.eye(gen.dimension)).max() < 1e-12
    for g in mats:
        for x in [g] + [g @ b for b in gen.basis]:
            v = vec(x)
            assert np.linalg.norm(v - q @ (q.conj().T @ v)) <= 1e-9 * max(1.0, np.linalg.norm(v))


class TestAlgebraBasis:
    def check(self, mats, unital_pin, non_unital_pin):
        """Each pin is (dimension, stabilization_index)."""
        for unital, pin in ((True, unital_pin), (False, non_unital_pin)):
            gen = algebra_basis(mats, unital=unital)
            assert (gen.dimension, gen.stabilization_index) == pin
            if gen.dimension:
                assert_orthonormal_and_closed(gen, mats)

    def test_generic_tuples_generate_everything(self):
        rng = np.random.default_rng(18)
        for m, stab in ((5, 4), (8, 6)):
            mats = [random_matrix(rng, m) for _ in range(2)]
            self.check(mats, (m * m, stab), (m * m, stab))

    def test_block_diagonal_tuples(self):
        rng = np.random.default_rng(19)
        for blocks, stab in (((2, 3), 3), ((3, 3, 1), 4), ((4, 4), 5)):
            mats = [block_diagonal(rng, blocks) for _ in range(2)]
            dim = sum(n * n for n in blocks)
            self.check(mats, (dim, stab), (dim, stab))

    def test_degenerate_generators(self):
        rng = np.random.default_rng(20)
        a, b = random_matrix(rng, 3), random_matrix(rng, 3)
        zero = np.zeros((3, 3))
        self.check([zero, a, b], (9, 3), (9, 3))
        self.check([zero], (1, 0), (0, 0))
        self.check([a], (3, 2), (3, 3))  # polynomials in a
        self.check([a, a], (3, 2), (3, 3))
        self.check([2.5 * np.eye(3)], (1, 0), (1, 1))
        self.check([2.5 * np.eye(3), a], (3, 2), (3, 2))

    def test_identity_tuple(self):
        for unital in (True, False):
            gen = algebra_basis([np.eye(2)], unital=unital)
            assert gen.dimension == 1

    def test_shift_pair_generates_everything(self):
        gen = algebra_basis([unit(2, 0, 1), unit(2, 1, 0)], unital=True)
        assert gen.dimension == 4
        assert gen.stabilization_index <= 4
        self.check([unit(2, 0, 1), unit(2, 1, 0)], (4, 2), (4, 2))

    def test_single_nilpotent(self):
        assert algebra_basis([unit(2, 0, 1)], unital=False).dimension == 1
        assert algebra_basis([unit(2, 0, 1)], unital=True).dimension == 2

    def test_double_trace_extension_kraus(self):
        ext = canonical_extension(double_trace_map())
        gen = algebra_basis(ext.kraus, unital=False)
        assert gen.dimension == 4

    def test_stabilization_bounded_by_m_squared(self):
        rng = np.random.default_rng(7)
        for m in (2, 3):
            for _ in range(10):
                mats = [random_matrix(rng, m) for _ in range(2)]
                for unital in (True, False):
                    gen = algebra_basis(mats, unital=unital)
                    assert gen.stabilization_index <= m * m

    @pytest.mark.parametrize("scale", [1e160, 1e-300])
    def test_huge_and_tiny_generators_keep_the_unscaled_algebra(self, scale):
        # the squared norms of these generators overflow or underflow
        rng = np.random.default_rng(0)
        pair = [random_matrix(rng, 3) for _ in range(2)]
        for unital in (True, False):
            want = algebra_basis(pair, unital=unital)
            got = algebra_basis([scale * a for a in pair], unital=unital)
            assert (got.dimension, got.stabilization_index) == (want.dimension, want.stabilization_index)
            assert got.dimension == 9

    def test_power_of_two_scaling_leaves_the_basis_bitwise(self):
        rng = np.random.default_rng(8)
        for m, count in ((3, 1), (4, 2), (5, 3)):
            mats = [random_matrix(rng, m) for _ in range(count)]
            for unital in (True, False):
                want = algebra_basis(mats, unital=unital).basis
                for factor in (2.0**-40, 8.0, 2.0**600):
                    got = algebra_basis([factor * a for a in mats], unital=unital).basis
                    assert len(got) == len(want)
                    assert all(np.array_equal(g, w) for g, w in zip(got, want))


class TestResolventAndExponential:
    def test_zero_map_resolvent_is_identity(self):
        zero = full_map(np.zeros((2, 2)))
        g0, g1 = resolvent_gamma(zero, b=0.5)
        assert np.abs(g0.matrix - np.eye(4)).max() < 1e-12
        assert numerical_rank(choi_of_superop(g0)) == 1
        assert np.abs(g1.matrix).max() < 1e-12

    def test_double_trace_extension_rank(self):
        ext = canonical_extension(double_trace_map())
        g0, g1 = resolvent_gamma(ext, b=0.2)
        assert numerical_rank(choi_of_superop(g1)) == 4
        assert numerical_rank(choi_of_superop(g0)) == 4

    def test_nilpotent_kraus_ranks(self):
        tau = full_map(unit(2, 0, 1))
        e0, e1 = exp_eta(tau, d=1.0)
        assert numerical_rank(choi_of_superop(e0)) == 2  # span{1, E12}
        g0, g1 = resolvent_gamma(tau, b=0.5)
        assert numerical_rank(choi_of_superop(g1)) == 1  # span{E12}

    def test_resolvent_and_exponential_are_cp(self):
        rng = np.random.default_rng(8)
        tau = full_map(random_matrix(rng, 2), random_matrix(rng, 2))
        from cpspectra import is_cp

        g0, g1 = resolvent_gamma(tau)
        e0, e1 = exp_eta(tau, d=0.7)
        for s in (g0, g1, e0, e1):
            assert is_cp(s)

    def test_resolvent_precondition(self):
        with pytest.raises(PreconditionError):
            resolvent_gamma(full_map(2.0 * np.eye(2)), b=0.5)

    def test_ranks_match_generated_algebra(self):
        rng = np.random.default_rng(9)
        for m in (2, 3):
            for _ in range(5):
                mats = [random_matrix(rng, m) for _ in range(2)]
                tau = full_map(*mats)
                g0, g1 = resolvent_gamma(tau)
                dim0 = algebra_basis(mats, unital=True).dimension
                dim1 = algebra_basis(mats, unital=False).dimension
                assert numerical_rank(choi_of_superop(g0)) == dim0
                assert numerical_rank(choi_of_superop(g1)) == dim1


class TestMaximalIdealCheck:
    def test_reference_maps(self):
        for tau in (golden_ratio_map(), double_trace_map(), path_adjacency_map()):
            check = maximal_ideal_check(tau)
            assert check.is_subalgebra and check.is_ideal
            assert max(check.subalgebra_residual, check.ideal_residual) < 1e-8

    def test_identity_channel(self):
        check = maximal_ideal_check(full_map(np.eye(2)))
        assert check.is_subalgebra and check.is_ideal and check.dimension == 1

    def test_rank_tol_reaches_every_rank_decision(self, monkeypatch):
        seen = {"maximal_part": [], "kraus_of_choi": []}

        def spy(name):
            real = getattr(perron, name)

            def call(*args, rank_tol, **kwargs):
                seen[name].append(rank_tol)
                return real(*args, rank_tol=rank_tol, **kwargs)

            return call

        for name in seen:
            monkeypatch.setattr(perron, name, spy(name))
        check = maximal_ideal_check(golden_ratio_map(), rank_tol=1e-7)
        assert seen == {"maximal_part": [1e-7], "kraus_of_choi": [1e-7]}
        assert check.is_subalgebra and check.is_ideal


class TestKrausOfMaximalPart:
    def test_spans_full_algebra_for_irreducible(self):
        # the maximal part of an irreducible map has Choi rank m^2
        for tau in (golden_ratio_map(), path_adjacency_map(), double_trace_map()):
            ext = canonical_extension(tau)
            mp = maximal_part(algebra_map(ext))
            b_list = kraus_of_choi(choi_of_superop(mp.superop))
            stacked = np.column_stack([vec(b) for b in b_list])
            assert np.linalg.matrix_rank(stacked, tol=1e-10) == tau.m**2


# perron_dense-style maps: (class, blocks); the Jordan map has degeneracy 2
DENSE_MAPS = [
    ("irreducible", (6,)),
    ("irreducible", (12,)),
    ("irreducible", (4, 4)),
    ("irreducible", (4, 4, 4)),
    ("irreducible", (5, 5)),
    ("reducible", (2, 2, 2)),
    ("reducible", (3, 3)),
    ("jordan", (1, 1)),
]


def schur_fails(*args, **kwargs):
    raise np.linalg.LinAlgError("Schur form not found. Possibly ill-conditioned.")


def dense_maps(seed):
    rng = np.random.default_rng(seed)
    return [(cls, perron_dense_map(rng, cls, blocks)) for cls, blocks in DENSE_MAPS]


class TestOneSchurForm:
    """spectral_structure and maximal_part run on one real Schur form of the map's
    coordinates per call, taken per group of algebra blocks that reach each other."""

    @pytest.mark.parametrize("seed", [11, 12])
    def test_maximal_part_matches_the_three_factorisation_route(self, seed):
        for cls, tau in dense_maps(seed):
            mp = maximal_part(tau)
            assert mp.degeneracy == (2 if cls == "jordan" else 1)
            want = reference_maximal_hat(cpmap.superop_matrix(tau), mp.degeneracy)
            scale = np.abs(want).max()
            assert np.abs(mp.superop.matrix - want).max() <= 1e-12 * scale, (cls, tau.shape)

    def test_one_schur_form_per_call(self, monkeypatch):
        calls = []
        real_schur = scipy.linalg.schur

        def counted(*args, **kwargs):
            calls.append((args[0].shape, args[0].dtype))
            return real_schur(*args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("a second factorisation ran")

        monkeypatch.setattr(scipy.linalg, "schur", counted)
        monkeypatch.setattr(scipy.linalg, "solve_sylvester", forbidden)
        monkeypatch.setattr(mats, "eigenvalues", forbidden)
        for kind, tau in route_maps(11):  # leaking maps too
            # real coordinates of the algebra: side sum n_i^2 in one form, or one form
            # per block where the blocks feed each other without a cycle
            squares = [n * n for n in tau.shape.blocks]
            sides = squares if kind in ("reducible", "jordan") else [sum(squares)]
            for call in (maximal_part, spectral_structure):
                calls.clear()
                call(tau)
                got = sorted(shape for shape, _ in calls)
                assert got == sorted((k, k) for k in sides), (call.__name__, kind, tau.shape)
                assert all(dtype == np.float64 for _, dtype in calls)
        # a matrix that does not preserve Hermitian matrices keeps complex coordinates
        calls.clear()
        maximal_part(np.kron(np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]])))
        assert calls == [((4, 4), np.complex128)]

    def test_many_scale_jordan_block(self):
        # a Jordan block at 1 with coupling 1e9 next to an eigenvalue 0.5: the rank
        # test must read the block at the scale of t11, where 0.5 is not rounding
        phi = diagonal_algebra_map(np.array([[1.0, 1e9, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.5]]))
        top = spectral_structure(phi).clusters[0]
        assert top.value == pytest.approx(1.0) and top.multiplicity == 2 and top.degeneracy == 2
        start = time.perf_counter()
        mp = maximal_part(phi)
        assert time.perf_counter() - start < 1.0
        assert mp.degeneracy == 2 and not mp.idempotent
        # (T - 1) P_1 maps diag(a, b, c) to diag(1e9 b + 2e9 c, 0, 0)
        expected = np.zeros((9, 9))
        expected[0, 4], expected[0, 8] = 1e9, 2e9
        assert np.abs(mp.superop.matrix - expected).max() <= 1e-6 * 2e9

    @pytest.mark.parametrize("scale", [1e-10, 1e-6, 1.0, 1e8])
    def test_jordan_degeneracy_does_not_depend_on_scale(self, scale):
        # t11 - r is read relative to ||T||: a Jordan block whose coupling
        # equals its eigenvalue stays a Jordan block at any scale
        mat = scale * np.kron(np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert spectral_structure(mat).clusters[0].degeneracy == 2
        mp = maximal_part(mat)
        assert mp.degeneracy == 2 and not mp.idempotent
        assert mp.radius == pytest.approx(scale)
        tau = perron_dense_map(np.random.default_rng(11), "jordan", (1, 1))
        tau = CpMap(tuple(np.sqrt(scale) * k for k in tau.kraus), tau.shape)
        phi = diagonal_algebra_map(scale * np.array([[1.0, 1.0], [0.0, 1.0]]))
        for op in (tau, phi):
            structure = spectral_structure(op)
            assert structure.d_max == 2
            # the coordinates of M_1 + M_1 hold the Jordan block alone: the off-diagonal
            # entries of M_2 add no zero cluster
            assert [(c.multiplicity, c.degeneracy) for c in structure.clusters] == [(2, 2)]
            mp = maximal_part(op)
            assert mp.degeneracy == 2 and mp.radius == pytest.approx(structure.radius)

    @pytest.mark.parametrize("seed", [11, 12])
    def test_degeneracies_of_large_maps_match_the_unit_scale(self, seed):
        # rounding in a zero cluster grows with ||T|| and must not read as a Jordan block
        for cls, tau in dense_maps(seed):
            want = [(c.multiplicity, c.degeneracy) for c in spectral_structure(tau).clusters]
            big = CpMap(tuple(1e4 * k for k in tau.kraus), tau.shape)  # ||T|| grows by 1e8
            got = [(c.multiplicity, c.degeneracy) for c in spectral_structure(big).clusters]
            assert got == want, (cls, tau.shape)
            assert maximal_part(big).degeneracy == maximal_part(tau).degeneracy

    @pytest.mark.parametrize("coupling", [1e-10, 1e-14])
    def test_coupling_below_rank_tol_counts_as_semisimple(self, coupling):
        # t11 - 1 of norm below rank_tol has rank 0; ranks relative to the largest
        # singular value alone would report a Jordan block that no route resolves
        for extra in ([], [0.5]):
            matrix = np.diag([1.0, 1.0] + extra)
            matrix[0, 1] = coupling
            phi = diagonal_algebra_map(matrix)
            assert spectral_structure(phi).clusters[0].degeneracy == 1
            mp = maximal_part(phi)
            assert mp.degeneracy == 1 and mp.idempotent

    def test_schur_failure_is_a_convergence_error(self, monkeypatch):
        monkeypatch.setattr(scipy.linalg, "schur", schur_fails)
        for call in (maximal_part, spectral_structure):
            with pytest.raises(ConvergenceError, match="Schur decomposition failed"):
                call(golden_ratio_map())

    def test_lapack_failures_are_convergence_errors(self, monkeypatch):
        # the real routines serve maps that preserve Hermitian matrices, the complex ones the rest
        lapack = scipy.linalg.lapack
        complex_map = np.kron(np.eye(3), np.diag([2.0, 1.0, 0.5]) + np.eye(3, k=1))
        for prefix, phi in (("d", golden_ratio_map()), ("z", complex_map)):
            real_trsen, real_trsyl = getattr(lapack, prefix + "trsen"), getattr(lapack, prefix + "trsyl")
            monkeypatch.setattr(lapack, prefix + "trsen", lambda *a, **k: real_trsen(*a, **k)[:-1] + (1,))
            with pytest.raises(ConvergenceError, match="trsen info 1"):
                maximal_part(phi)
            if prefix == "z":
                with pytest.raises(ConvergenceError, match="trsen info 1"):
                    spectral_structure(np.array([[1.0, 1.0], [0.0, 1.0]]))
            monkeypatch.setattr(lapack, prefix + "trsen", real_trsen)
            monkeypatch.setattr(lapack, prefix + "trsyl", lambda *a, **k: real_trsyl(*a, **k)[:-1] + (-3,))
            with pytest.raises(ConvergenceError, match="trsyl info -3"):
                maximal_part(phi)
            monkeypatch.setattr(lapack, prefix + "trsyl", real_trsyl)

    def test_schur_failure_exits_2_from_the_cli(self, monkeypatch, capsys):
        monkeypatch.setattr(scipy.linalg, "schur", schur_fails)
        data = pathlib.Path(__file__).resolve().parent.parent / "demos" / "data"
        code = main(["maximal-part", "--map", str(data / "golden_ratio_map.json")])
        report = json.loads(capsys.readouterr().out)
        assert code == 2 and "Schur decomposition failed" in report["error"]["message"]


def scaled_map(tau, c):
    """The map ``c tau``: every Kraus operator times ``sqrt(c)``."""
    return CpMap(tuple(np.sqrt(c) * k for k in tau.kraus), tau.shape)


class TestBatchedProbes:
    @pytest.mark.parametrize("seed", [11, 12])
    def test_probes_match_the_per_probe_loop(self, seed):
        for cls, tau in dense_maps(seed):
            mat = cpmap.superop_matrix(canonical_extension(tau))
            got = perron._probe_ratios(mat, np.random.default_rng(0))
            want = reference_probe_ratios(mat, np.random.default_rng(0))
            assert np.all(np.abs(got - want) <= 1e-12), (cls, tau.shape)
            strict = int(np.count_nonzero(want > mats.PSD_TOL))
            assert irreducible_cp(tau).strict_probes == strict
            assert cls != "irreducible" or strict == 64

    @pytest.mark.parametrize("c", [1e-100, 1e100])
    def test_scaled_identity_map_keeps_its_count(self, c):
        # T / ||T(1)|| is the identity at every c, so (1 + T)^2 never nears 1e400
        want = irreducible_cp(full_map(np.eye(3)))
        got = irreducible_cp(full_map(c * np.eye(3)))
        assert (got.irreducible, got.strict_probes) == (want.irreducible, want.strict_probes) == (False, 0)

    @pytest.mark.parametrize("c", [1e-12, 1e-8, 1e-4, 1e4, 1e8])
    def test_scaled_maps_keep_their_unit_counts(self, c):
        ring = CpMap(tuple(rect_kraus(np.random.default_rng(5), (6,), ring_pairs(1))), AlgebraShape((6,)))
        for tau in (golden_ratio_map(), double_trace_map(), ring):
            want, got = irreducible_cp(tau), irreducible_cp(scaled_map(tau, c))
            assert got.irreducible and got.strict_probes == want.strict_probes == 64
            assert got.probes_consistent

    def test_a_contradicted_verdict_raises(self):
        # one Kraus operator generates a commutative algebra, yet algebra_basis reaches
        # dimension m^2 here; no probe image is strictly positive
        tau = full_map(random_matrix(np.random.default_rng(3), 24))
        with pytest.raises(ConvergenceError, match="only 0 of 64 probe images"):
            irreducible_cp(tau)


class TestCesaroOverflow:
    def test_overflowing_powers_are_a_convergence_error(self):
        # a Jordan block at 1.5 with coupling 150, rotated by 0.3: rounding splits the
        # defective eigenvalue, the map reads as d = 1, and the doubled powers overflow
        u = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
        tau = full_map(u.T @ (np.sqrt(1.5) * np.eye(2)) @ u, u.T @ (np.sqrt(150.0) * unit(2, 1, 0)) @ u)
        for call in (maximal_part, perron_vector, maximal_factorization):
            with pytest.raises(ConvergenceError, match="Cesaro partial sums overflow"):
                call(tau)


class TestSuperOperatorInput:
    def test_superoperator_matches_the_full_shape_map(self):
        rng = np.random.default_rng(31)
        for tau in (golden_ratio_map(), path_adjacency_map(), random_cpmap(rng, (3,)), random_cpmap(rng, (2, 2))):
            full = CpMap(tau.kraus, AlgebraShape.full(tau.m))
            s = superop_of(full)
            assert spectral_radius_of(s) == pytest.approx(spectral_radius_of(full), rel=1e-12)
            assert spectral_structure(s) == spectral_structure(full)
            got, want = maximal_part(s), maximal_part(full)
            assert np.array_equal(got.superop.matrix, want.superop.matrix)
            assert (got.radius, got.degeneracy, got.idempotent) == (want.radius, want.degeneracy, want.idempotent)


class TestAlgebraBasisStops:
    @pytest.mark.parametrize(
        "blocks, stabilization", [((16,), 8), ((4, 4, 4), 5), ((6, 6), 6)]
    )
    def test_no_candidate_after_the_full_algebra(self, monkeypatch, blocks, stabilization):
        seen = []
        real = perron._orthogonal_part

        def spy(rows, v):
            seen.append(rows.shape[0])
            return real(rows, v)

        monkeypatch.setattr(perron, "_orthogonal_part", spy)
        kraus = rect_kraus(np.random.default_rng(11), blocks, ring_pairs(len(blocks)))
        ext = canonical_extension(CpMap(tuple(kraus), AlgebraShape(blocks)))
        m = sum(blocks)
        for unital in (False, True):
            seen.clear()
            gen = algebra_basis(ext.kraus, unital=unital)
            assert (gen.dimension, gen.stabilization_index) == (m * m, stabilization)
            assert seen and max(seen) == m * m - 1


def route_maps(seed):
    """(kind, map) pairs: the perron_dense kinds (full, kept, reducible, Jordan) and
    maps that leak out of their algebra."""
    maps = dense_maps(seed)
    rng = np.random.default_rng(seed)
    maps += [("leaking", gaussian_block_map(rng, blocks)) for blocks in [(4, 4), (3, 3, 2), (2, 3)]]
    return maps


def rel_max(a, b):
    """Largest entry of ``a - b`` relative to the largest entry of ``b``."""
    return float(np.abs(a - b).max() / np.abs(b).max())


class TestHermitianCoordinates:
    """maximal_part runs on the map's real matrix in the Hermitian basis of its algebra."""

    @pytest.mark.parametrize("blocks", [(1,), (3,), (2, 1), (1, 1, 1), (3, 2, 2)])
    def test_coordinates_and_embedding_match_the_basis_matrix(self, blocks):
        shape = AlgebraShape(blocks)
        v = hermitian_basis(shape)
        side = sum(n * n for n in blocks)
        assert v.shape == (shape.m**2, side)
        assert np.abs(v.conj().T @ v - np.eye(side)).max() < 1e-15
        for col in v.T:  # every basis element is Hermitian and in the algebra
            x = unvec(col, shape.m)
            assert np.array_equal(x, x.conj().T) and np.array_equal(x, compress(x, shape))
        rng = np.random.default_rng(sum(blocks))
        keep = np.diag(shape.vec_mask()).astype(complex)
        # a CP map has real coordinates in the Hermitian basis
        mat = cpmap.superop_matrix(random_cpmap(rng, blocks))
        h, idx = perron._coordinates(mat, shape)
        assert h.dtype == np.float64
        assert rel_max(h, (v.conj().T @ mat @ v).real) < 1e-15
        h = rng.normal(size=(side, side))
        assert rel_max(perron._embed(h, idx, keep, 1.0), v @ h @ v.conj().T) < 1e-15
        # any other map keeps its own entries on the algebra, complex
        mat = random_matrix(rng, shape.m**2)
        h, idx = perron._coordinates(mat, shape)
        assert np.array_equal(idx, np.flatnonzero(shape.vec_mask()))
        assert np.array_equal(h, mat[np.ix_(idx, idx)])
        out = perron._embed(h, idx, keep, 1.0)
        assert np.array_equal(out[np.ix_(idx, idx)], h) and np.count_nonzero(out) == h.size

    def test_positive_maps_have_real_coordinates(self):
        for _, tau in route_maps(11):
            mat = cpmap.superop_matrix(tau)
            v = hermitian_basis(tau.shape)
            h = v.conj().T @ mat @ v
            assert np.abs(h.imag).max() <= 1e-15 * np.abs(h).max()
            assert perron._coordinates(mat, tau.shape)[0].dtype == np.float64

    def test_block_schur_keeps_the_zeros_between_blocks(self):
        for kind, tau in route_maps(11):
            mat = cpmap.superop_matrix(tau)
            h, idx = perron._coordinates(mat, tau.shape)
            owner = np.repeat(np.arange(len(tau.shape.blocks)), tau.shape.blocks)[idx % tau.m]
            t, q = perron._block_schur(h, owner)
            assert np.abs(q.T @ q - np.eye(h.shape[0])).max() < 1e-14
            assert rel_max(q @ t @ q.T, h) < 1e-14, (kind, tau.shape)
            assert not np.tril(t, -2).any()  # quasi-triangular, exactly
            if kind in ("reducible", "jordan"):  # one form per block: no 2 x 2 block across two
                starts = np.cumsum([n * n for n in tau.shape.blocks])[:-1]
                assert not np.diag(t, -1)[starts - 1].any()
            else:
                t_one, q_one = mats.schur(h)
                assert np.array_equal(t, t_one) and np.array_equal(q, q_one)

    @pytest.mark.parametrize("seed", [11, 12])
    def test_entry_points_match_the_parent_route(self, seed):
        # the parent route: three factorisations of the complex m^2 x m^2 matrix, refined
        for kind, tau in route_maps(seed):
            mp = maximal_part(tau)
            assert (mp.degeneracy, mp.idempotent) == ((2, False) if kind == "jordan" else (1, True))
            want = reference_maximal_hat(cpmap.superop_matrix(tau), mp.degeneracy)
            assert rel_max(mp.superop.matrix, want) <= 1e-12, (kind, tau.shape)
            ell = unvec(want @ vec(np.eye(tau.m)), tau.m)
            assert rel_max(perron_vector(tau), (ell + ell.conj().T) / 2) <= 1e-12, (kind, tau.shape)
            if kind != "irreducible":
                continue
            fact = maximal_factorization(tau)
            ext_hat = reference_maximal_hat(cpmap.superop_matrix(canonical_extension(tau)), 1)
            ell = unvec(ext_hat @ vec(np.eye(tau.m)), tau.m)
            ell = (ell + ell.conj().T) / 2
            state = unvec(ext_hat.conj().T @ vec(ell) / np.vdot(vec(ell), vec(ell)).real, tau.m)
            state = (state + state.conj().T) / 2
            state /= np.trace(state @ ell).real
            assert rel_max(fact.eigenvector, ell) <= 1e-12
            assert rel_max(fact.state, state) <= 1e-12

    def test_leaking_rows_are_fixed_by_the_map(self):
        # (T - r) hat = 0 on every row, the off-algebra ones included
        for kind, tau in route_maps(12):
            mat = cpmap.superop_matrix(tau)
            mp = maximal_part(tau)
            hat = mp.superop.matrix
            off = ~tau.shape.vec_mask()
            if kind == "leaking":
                assert np.abs(hat[off]).max() > 1e-3 * np.abs(hat).max()
            else:
                assert not hat[off].any()
            assert not hat[:, off].any()
            if mp.degeneracy == 1:
                assert rel_max(mat @ hat, mp.radius * hat) <= 1e-12

    @pytest.mark.parametrize("seed", [11, 12])
    def test_block_unitary_conjugation_conjugates_the_perron_vector(self, seed):
        # A_i -> U* A_i U gives X -> U* tau(U X U*) U, whose Perron vector is U* L U
        rng = np.random.default_rng(seed)
        for kind, tau in route_maps(seed):
            if kind not in ("irreducible", "leaking"):
                continue
            u = block_unitary(rng, tau.shape)
            turned = CpMap(tuple(u.conj().T @ a @ u for a in tau.kraus), tau.shape)
            ell = perron_vector(tau)
            assert rel_max(perron_vector(turned), u.conj().T @ ell @ u) <= 1e-12, (kind, tau.shape)

    @pytest.mark.parametrize("seed", [11, 12])
    def test_kraus_mixing_leaves_the_perron_vector_and_the_verdict(self, seed):
        # B_j = sum_i u_ji A_i with u unitary is another Kraus list of the same map
        rng = np.random.default_rng(seed)
        for kind, tau in route_maps(seed):
            if kind == "jordan":
                continue
            u = random_unitary(rng, len(tau.kraus))
            mixed = CpMap(tuple(np.tensordot(u, np.stack(tau.kraus), axes=1)), tau.shape)
            assert rel_max(perron_vector(mixed), perron_vector(tau)) <= 1e-12, (kind, tau.shape)
            want, got = irreducible_cp(tau), irreducible_cp(mixed)
            assert (got.irreducible, got.dimension) == (want.irreducible, want.dimension)


class TestScaleFreeClusters:
    def test_tiny_jordan_block_keeps_its_own_cluster(self):
        # below unit radius, an absolute 1e-8 would merge r = 1e-10 into the zero cluster;
        # the third diagonal entry is a zero eigenvalue of the coordinates themselves
        cases = [
            ([[1.0, 1.0], [0.0, 1.0]], []),
            ([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]], [(1, 1)]),
        ]
        for matrix, zeros in cases:
            phi = diagonal_algebra_map(1e-10 * np.array(matrix))
            got = [(c.value, c.multiplicity, c.degeneracy) for c in spectral_structure(phi).clusters]
            assert [(m, d) for _, m, d in got] == [(2, 2)] + zeros
            assert got[0][0] == pytest.approx(1e-10, rel=1e-12)
            assert all(value == 0 for value, _, _ in got[1:])
            mp = maximal_part(phi)
            assert mp.degeneracy == 2 and not mp.idempotent
            assert mp.radius == pytest.approx(1e-10, rel=1e-12)

    @pytest.mark.parametrize("seed", [11, 12])
    def test_clusters_match_the_per_eigenvalue_loop(self, seed):
        # bitwise: the same values, members and order as the sorted() loop
        arrays = []
        for _, tau in dense_maps(seed):
            mat = cpmap.superop_matrix(tau)
            arrays += [np.linalg.eigvals(mat), np.linalg.eigvals(perron._coordinates(mat, tau.shape)[0])]
        rng = np.random.default_rng(seed)
        chain = 1.0 + 0.6e-8 * np.arange(5)  # each within CLUSTER_TOL of the next, not of all
        pairs = rng.normal(size=4) + 1j * rng.normal(size=4)
        arrays += [np.concatenate([chain, -chain, pairs, pairs.conj(), np.zeros(3)]).astype(complex)]
        for eig in arrays:
            radius, got = perron._clusters(eig)
            want = reference_clusters(eig, mats.CLUSTER_TOL * radius)
            assert radius == float(np.abs(eig).max())
            assert [c.value for c in got] == [v for v, _ in want]
            assert all(np.array_equal(c.members, w) for c, (_, w) in zip(got, want))


class TestOnePipeline:
    """spectral_structure reads the Schur form of the coordinates that maximal_part uses."""

    @pytest.mark.parametrize("seed", [11, 12])
    @pytest.mark.parametrize("scale", [1e-4, 1.0, 1e4])
    def test_structure_agrees_with_the_maximal_part(self, seed, scale):
        for kind, tau in route_maps(seed):
            tau = CpMap(tuple(np.sqrt(scale) * k for k in tau.kraus), tau.shape)
            structure, mp = spectral_structure(tau), maximal_part(tau)
            r = mp.radius
            assert abs(structure.radius - r) <= 1e-12 * r, (kind, tau.shape)
            assert mp.degeneracy == structure.d_max, (kind, tau.shape)
            assert min(abs(v - r) for v in structure.maximal_spectrum) <= 1e-12 * r, (kind, tau.shape)

    @pytest.mark.parametrize("seed", [11, 12])
    def test_clusters_are_the_nonzero_clusters_of_the_full_matrix(self, seed):
        # the m^2 x m^2 matrix adds only zeros: m^2 - sum n_i^2 of them, from the off-block entries
        for kind, tau in route_maps(seed):
            mat = cpmap.superop_matrix(tau)
            eig = np.linalg.eigvals(mat)
            r = float(np.abs(eig).max())
            want = [(v, int(w.sum())) for v, w in reference_clusters(eig, mats.CLUSTER_TOL * r)]
            got = [(c.value, c.multiplicity) for c in spectral_structure(tau).clusters]
            extra = tau.m**2 - sum(n * n for n in tau.shape.blocks)
            zero = [(v, k) for v, k in want if abs(v) <= mats.CLUSTER_TOL * r]
            assert [k for _, k in zero] == ([extra] if extra else []), (kind, tau.shape)
            want = [pair for pair in want if pair not in zero]
            assert len(got) == len(want), (kind, tau.shape)
            for v, k in got:  # a multiset: rounding may swap equal-modulus clusters
                hit = min(want, key=lambda pair: abs(pair[0] - v))
                assert hit[1] == k and abs(hit[0] - v) <= 1e-9 * r, (kind, tau.shape)
                want.remove(hit)

    def test_raw_arrays_of_another_side_run_on_their_own_entries(self, monkeypatch):
        calls = []
        real_schur = scipy.linalg.schur

        def counted(*args, **kwargs):
            calls.append(args[0].copy())
            return real_schur(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "schur", counted)
        for n in (2, 3, 5):
            a = random_matrix(np.random.default_rng(n), n)
            calls.clear()
            structure = spectral_structure(a)
            assert len(calls) == 1 and np.array_equal(calls[0], a)
            assert sum(c.multiplicity for c in structure.clusters) == n


def cycle_map():
    """The period-3 cycle X -> sum_i E_{i+1,i} X E_{i,i+1} on the diagonal algebra (1, 1, 1):
    irreducible, with the cube roots of r = 1 on the spectral circle."""
    return CpMap(tuple(unit(3, i, (i + 1) % 3) for i in range(3)), AlgebraShape((1, 1, 1)))


def equal_radius_sum(rng):
    """tau + tau on (2, 2) for an irreducible tau on M_2: L and R are strictly positive, but
    r has multiplicity 2 and the maximal part rank 2, so the sum is reducible."""
    z = np.zeros((2, 2))
    kraus = random_cpmap(rng, (2,)).kraus
    both = [np.block([[a, z], [z, z]]) for a in kraus] + [np.block([[z, z], [z, a]]) for a in kraus]
    return CpMap(tuple(both), AlgebraShape((2, 2)))


def verdict_maps(seed):
    """Seeded ring, triangular, random_cpmap, leaking and one-Kraus maps (m <= 6), the four
    bundled maps, the period-3 cycle and an equal-radius direct sum."""
    rng = np.random.default_rng(seed)
    maps = [golden_ratio_map(), path_adjacency_map(), double_trace_map(), trace_corner_map()]
    maps += [cycle_map(), equal_radius_sum(rng)]
    for blocks in [(3,), (2, 2), (3, 3), (2, 2, 2)]:
        for pairs in (ring_pairs, triangular_pairs):
            maps.append(CpMap(tuple(rect_kraus(rng, blocks, pairs(len(blocks)))), AlgebraShape(blocks)))
    maps += [random_cpmap(rng, blocks) for blocks in [(2,), (3,), (2, 2), (3, 2), (2, 1, 1)]]
    maps += [gaussian_block_map(rng, blocks, terms=3) for blocks in [(2, 2), (3, 2)]]
    maps += [CpMap((random_matrix(rng, m),), AlgebraShape.full(m)) for m in (3, 5, 6)]
    return maps


def outcome(func, *args):
    """``func(*args)``, or the error it raised."""
    try:
        return func(*args)
    except (PreconditionError, ConvergenceError) as exc:
        return exc


class TestVerdictFromTheMaximalPart:
    """maximal_factorization decides reducibility from its own maximal part: d = 1, rank one,
    L > 0 and R > 0, each failure a PreconditionError naming the condition and its margin."""

    @pytest.mark.parametrize("seed", range(1000, 1006))
    def test_verdict_agrees_with_irreducible_cp(self, seed):
        verdicts = []
        for tau in verdict_maps(seed):
            irreducible = irreducible_cp(tau).irreducible
            got = outcome(maximal_factorization, tau)
            want = perron.Factorization if irreducible else PreconditionError
            assert isinstance(got, want), (tau.shape, got)
            verdicts.append(irreducible)
        assert any(verdicts) and not all(verdicts)

    def test_each_condition_names_its_margin(self):
        # x0' = x0, x1' = x0 + x1 / 2 on the diagonal algebra (1, 1): L = (1, 2) but R = (1, 0)
        kraus = (unit(2, 0, 0), unit(2, 0, 1), np.sqrt(0.5) * unit(2, 1, 1))
        source = CpMap(kraus, AlgebraShape((1, 1)))
        jordan = perron_dense_map(np.random.default_rng(0), "jordan", (1, 1))
        direct_sum = equal_radius_sum(np.random.default_rng(1))
        cases = [
            (jordan, r"\(degeneracy index 2 != 1\)$"),
            (direct_sum, r"\(sigma2/sigma1 = 1\.000e\+00 > rank_tol\)$"),
            (trace_corner_map(), r"\(lambda_min\(L\) = 0\.000e\+00 <= psd_tol\)$"),
            (source, r"\(lambda_min\(R\) = 0\.000e\+00 <= psd_tol\)$"),
        ]
        for tau, message in cases:
            with pytest.raises(PreconditionError, match="^map is reducible " + message):
                maximal_factorization(tau)
        # the direct sum fails on the rank alone: its Perron vector is strictly positive
        assert psd_report(perron_vector(direct_sum)).is_strictly_positive
        fact = maximal_factorization(cycle_map())
        assert np.abs(fact.eigenvector - np.eye(3)).max() < 1e-12
        assert np.abs(fact.state - np.eye(3) / 3).max() < 1e-12

    @pytest.mark.parametrize("seed", [0, 3])
    def test_one_generic_kraus_operator_at_m_24_is_reducible(self, seed):
        # the Burnside closure reports dimension 574 (seed 0) and 576 (seed 3) for this algebra
        # of polynomials in a, of dimension 24; the maximal part's L is rank one
        tau = CpMap((random_matrix(np.random.default_rng(seed), 24),), AlgebraShape.full(24))
        with pytest.raises(PreconditionError, match=r"^map is reducible \(lambda_min\(L\) = "):
            maximal_factorization(tau)


class TestScaleFreeGates:
    """The eigenvector gates of perron_vector and maximal_factorization are relative to r, so
    scaling a map by c changes no outcome: the same error type, or r times c with the
    normalised L and with R unchanged."""

    @pytest.mark.parametrize("c", [1e-8, 1e-4, 1e4, 1e7, 1e8])
    def test_outcomes_do_not_depend_on_scale(self, c):
        maps = [random_cpmap(np.random.default_rng(s), (3, 2)) for s in range(20)]
        maps += [tau for seed in (11, 12) for _, tau in route_maps(seed)]
        for tau in maps:
            scaled = CpMap(tuple(np.sqrt(c) * a for a in tau.kraus), tau.shape)
            for func in (perron_vector, maximal_factorization):
                want, got = outcome(func, tau), outcome(func, scaled)
                assert type(got) is type(want), (func.__name__, tau.shape, got)
                if isinstance(want, np.ndarray):  # L scales like c^(d-1) at degeneracy index d
                    assert rel_max(got / np.linalg.norm(got), want / np.linalg.norm(want)) <= 1e-12
                elif isinstance(want, perron.Factorization):
                    assert abs(got.radius - c * want.radius) <= 1e-12 * c * want.radius
                    assert rel_max(got.eigenvector, want.eigenvector) <= 1e-12
                    assert rel_max(got.state, want.state) <= 1e-12
