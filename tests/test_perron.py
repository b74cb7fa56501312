import time

import numpy as np
import pytest

from cpspectra import cpmap, perron
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
from cpspectra.reference_maps import (
    double_trace_map,
    golden_ratio_map,
    path_adjacency_map,
    trace_corner_map,
)
from helpers import random_cpmap, random_matrix, random_psd, rect_kraus, triangular_pairs

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
        monkeypatch.setattr(perron, "spectral_structure", lambda *a, **k: calls.append(a))
        with pytest.raises(FormatError, match="perfect square"):
            maximal_part(np.diag([2.0, 1.0, 0.5]))
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
        message = r"^map is reducible \(generated algebra has dimension 2 < 4\)$"
        with pytest.raises(PreconditionError, match=message):
            maximal_factorization(trace_corner_map())

    def test_each_stage_runs_once(self, monkeypatch):
        calls = {"maximal_part": [], "canonical_extension": [], "irreducible_cp": []}
        for name in calls:
            original = getattr(perron, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name].append(kwargs)
                return _original(*args, **kwargs)

            monkeypatch.setattr(perron, name, counted)
        maximal_factorization(golden_ratio_map(), rank_tol=1e-7)
        assert len(calls["canonical_extension"]) == 1
        assert calls["maximal_part"] == [{"rank_tol": 1e-7}]
        assert calls["irreducible_cp"] == []

    def test_rank_tol_reaches_the_perron_vector(self):
        rng = np.random.default_rng(24)
        maps = [golden_ratio_map(), path_adjacency_map()]
        maps += [random_cpmap(rng, blocks) for blocks in ((3,), (2, 2))]
        for tau in maps:
            fact = maximal_factorization(tau, rank_tol=1e-7)
            ell = perron_vector(canonical_extension(tau), rank_tol=1e-7)
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
