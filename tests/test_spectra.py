import dataclasses
import itertools
import json
import pathlib
import time

import numpy as np
import pytest

from cpspectra import cpmap, spectra
from cpspectra import (
    AlgebraShape,
    BudgetExceededError,
    ConvergenceError,
    AlgebraMap,
    CpMap,
    FormatError,
    PreconditionError,
    algebra_map,
    balance_similarity,
    canonical_extension,
    compress,
    conjugate_map,
    friedland_value,
    jsr_brute,
    jsr_tensor_approx,
    kron,
    matrix_from_json,
    maximal_part,
    neumann_witness,
    norm_achieving_check,
    op_norm,
    outer_radius,
    outer_radius_gelfand,
    perron_vector,
    positive_map_norm,
    psd_report,
    psd_sqrt,
    scaled_outer_radius,
    spectral_radius,
    spectral_radius_bounds,
    spectral_radius_of,
    singular_psd_combination,
    spectral_structure,
    unvec,
    vec,
)
from cpspectra.mats import CLUSTER_TOL
from cpspectra.cpmap import SuperOperator, superop_matrix
from cpspectra.reference_maps import (
    double_trace_map,
    golden_ratio_map,
    path_adjacency_map,
    trace_corner_map,
)
from helpers import (
    block_unitary,
    random_cpmap,
    random_matrix,
    random_normal_matrix,
    random_strictly_positive,
    random_unitary,
    rect_kraus,
    ring_pairs,
    triangular_pairs,
)

GOLD = (1 + np.sqrt(5)) / 2
DEMO_DATA = pathlib.Path(__file__).resolve().parent.parent / "demos" / "data"


def _load_tuple(path):
    return [matrix_from_json(m) for m in json.loads(path.read_text())["matrices"]]


class TestSpectralRadius:
    def test_reference_values(self):
        assert abs(spectral_radius_of(algebra_map(trace_corner_map())) - 1.0) < 1e-12
        assert abs(spectral_radius_of(algebra_map(path_adjacency_map())) - np.sqrt(2)) < 1e-12
        assert abs(spectral_radius_of(algebra_map(golden_ratio_map())) - GOLD) < 1e-12

    def test_positive_map_norm(self):
        assert positive_map_norm(trace_corner_map()) == pytest.approx(2.0)

    def test_positive_map_norm_rejects_a_non_square_size(self):
        with pytest.raises(FormatError, match="perfect square"):
            positive_map_norm(np.eye(3))


class TestOuterRadius:
    def test_singleton_equals_spectral_radius(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = random_matrix(rng, 3)
            assert abs(outer_radius([a]) - spectral_radius(a)) < 1e-10

    def test_repeated_identity(self):
        for d in (1, 2, 5):
            assert abs(outer_radius([np.eye(2)] * d) - np.sqrt(d)) < 1e-12

    def test_adjoint_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            mats = [random_matrix(rng, 2) for _ in range(3)]
            adj = [a.conj().T for a in mats]
            assert abs(outer_radius(mats) - outer_radius(adj)) < 1e-9


class TestGelfand:
    def test_single_identity_kraus(self):
        for n in (1, 7, 64):
            assert abs(outer_radius_gelfand([np.eye(2)], n) - 1.0) < 1e-12

    def test_double_trace_pair_converges(self):
        mats = list(double_trace_map().kraus)
        target = outer_radius(mats)
        assert target == pytest.approx(2.0, abs=1e-12)
        assert abs(outer_radius_gelfand(mats, 64) - target) < 1e-3

    def test_gap_shrinks_along_doublings(self):
        # ||tau^(2n)(1)|| <= ||tau^n||^2 makes the gap monotone along n -> 2n
        rng = np.random.default_rng(2)
        for _ in range(20):
            mats = [random_matrix(rng, 2) for _ in range(2)]
            target = outer_radius(mats)
            if target < 1e-8:
                continue
            gaps = [outer_radius_gelfand(mats, n) - target for n in (4, 8, 16, 32)]
            for a, b in zip(gaps, gaps[1:]):
                assert b <= a + 1e-9

    def test_large_n_does_not_overflow(self):
        mats = [5.0 * np.eye(2), 5.0 * np.ones((2, 2))]
        value = outer_radius_gelfand(mats, 64)
        assert np.isfinite(value)

    def test_matches_word_sum_oracle(self):
        # ||tau^n(1)|| is the norm of the sum of W*W over all length-n words W
        import itertools

        rng = np.random.default_rng(16)
        mats = [random_matrix(rng, 2) for _ in range(2)]
        for n in (1, 2, 3):
            total = np.zeros((2, 2), dtype=complex)
            for word in itertools.product(mats, repeat=n):
                prod = np.eye(2, dtype=complex)
                for a in word:
                    prod = prod @ a
                total += prod.conj().T @ prod
            expect = op_norm(total) ** (1.0 / (2.0 * n))
            assert outer_radius_gelfand(mats, n) == pytest.approx(expect, rel=1e-12)


class TestJsrBrute:
    def test_singleton_normal(self):
        rng = np.random.default_rng(3)
        a = random_normal_matrix(rng, 2, radius=1.3)
        est = jsr_brute([a], 20)
        assert abs(est.lower - 1.3) < 1e-3 and abs(est.upper - 1.3) < 1e-3

    def test_golden_pair_lower_bound(self):
        a = np.array([[1, 1], [0, 1.0]])
        b = np.array([[1, 0], [1, 1.0]])
        est = jsr_brute([a, b], 2)
        assert est.lower >= GOLD - 1e-9

    def test_zero_tuple(self):
        est = jsr_brute([np.zeros((2, 2))], 4)
        assert est.lower == 0.0 and est.upper == 0.0

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            jsr_brute([np.eye(2)] * 2, 30, budget=10**4)

    def test_matches_the_every_word_loop(self):
        # reference: each word's product, norm and spectral radius one by one,
        # with no Lyndon reduction (rotations and powers give the same root up to
        # rounding); d = 1 has no Lyndon word past length 1
        rng = np.random.default_rng(15)
        for m, d, n_max in ((2, 2, 8), (3, 3, 5), (5, 2, 6), (3, 1, 6), (12, 2, 6)):
            mats = [random_matrix(rng, m) for _ in range(d)]
            lower, upper = 0.0, np.inf
            for n in range(1, n_max + 1):
                norms, radii = [], []
                for word in itertools.product(range(d), repeat=n):
                    prod = np.eye(m, dtype=complex)
                    for i in word:
                        prod = prod @ mats[i]
                    norms.append(op_norm(prod))
                    radii.append(spectral_radius(prod))
                upper = min(upper, max(norms) ** (1 / n))
                lower = max(lower, max(radii) ** (1 / n))
            est = jsr_brute(mats, n_max)
            assert est.upper == pytest.approx(upper, rel=1e-13)
            assert est.lower == pytest.approx(lower, rel=1e-13)

    def test_a_huge_word_length_is_refused_at_once(self):
        # the enumeration size is not summed past 2^64 (|budget| + 1): 2^(10^9) is refused at once
        pair = [np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[1.0, 0.0], [1.0, 1.0]])]
        start = time.perf_counter()
        message = r"^word enumeration size of at least 2\^1000000000 exceeds the budget 10$"
        with pytest.raises(BudgetExceededError, match=message) as info:
            jsr_brute(pair, 10**9, budget=10)
        assert time.perf_counter() - start < 1.0 and len(str(info.value)) < 100
        with pytest.raises(BudgetExceededError, match=r"at least 2\^10{400} exceeds"):
            jsr_brute(pair, 10**400, budget=10)  # past the float range: compared as an int
        with pytest.raises(BudgetExceededError, match=r"^word enumeration size 8190 exceeds the budget 10$"):
            jsr_brute(pair, 12, budget=10)
        one = jsr_brute(pair[:1], 5, budget=5)  # d = 1: n_max words
        assert one.lower == pytest.approx(1.0) and one.parameter == 5
        with pytest.raises(BudgetExceededError, match=r"^word enumeration size 6 exceeds the budget 5$"):
            jsr_brute(pair[:1], 6, budget=5)

    @pytest.mark.parametrize("c", [1e8, 1e30, 1e50])
    def test_bound_consistency_is_judged_at_the_bounds_scale(self, c):
        # for a normal matrix lower = r and upper = ||a|| agree up to rounding, which at scale c
        # exceeds any absolute margin
        rng = np.random.default_rng(18)
        for _ in range(10):
            u = random_unitary(rng, 4)
            est = jsr_brute([c * u @ np.diag([1.0, 0.5, 0.3, 0.2]) @ u.conj().T], 6)
            assert est.lower == pytest.approx(c, rel=1e-12) and est.upper == pytest.approx(c, rel=1e-12)

    def test_lyndon_representatives(self):
        from cpspectra.spectra import _lyndon_words

        for d, n in ((1, 1), (1, 3), (2, 1), (2, 6), (3, 4), (4, 3)):
            words = list(itertools.product(range(d), repeat=n))
            lyndon = [i for i, w in enumerate(words) if all(w < w[r:] + w[:r] for r in range(1, n))]
            assert _lyndon_words(d, n).tolist() == lyndon

        def mobius(k):
            primes = [p for p in range(2, k + 1) if k % p == 0 and all(p % q for q in range(2, p))]
            return 0 if any(k % (p * p) == 0 for p in primes) else (-1) ** len(primes)

        # Moreau's necklace-polynomial count (1/n) sum_{k | n} mu(k) d^(n/k)
        for d in (1, 2, 3):
            counts = [len(_lyndon_words(d, n)) for n in range(1, 9)]
            moreau = [
                sum(mobius(k) * d ** (n // k) for k in range(1, n + 1) if n % k == 0) // n
                for n in range(1, 9)
            ]
            assert counts == moreau
        assert [len(_lyndon_words(2, n)) for n in range(1, 9)] == [2, 1, 2, 3, 6, 9, 18, 30]

    def test_eigenvalues_only_on_lyndon_words(self, monkeypatch):
        # 71 Lyndon words of length 1..8 over two letters reach eigvals, of the 510 words
        rng = np.random.default_rng(19)
        a, b = random_matrix(rng, 4), random_matrix(rng, 4)
        seen = []
        eigvals = np.linalg.eigvals

        def spy(x):
            seen.append(x.shape[0])
            return eigvals(x)

        monkeypatch.setattr(np.linalg, "eigvals", spy)
        est = jsr_brute([a, b], 8)
        assert sum(seen) == 71 and len(seen) == 8
        assert 0.0 < est.lower <= est.upper


class TestJsrTensor:
    def test_k1_reduces_to_plain_sandwich(self):
        rng = np.random.default_rng(4)
        mats = [random_matrix(rng, 2) for _ in range(2)]
        est = jsr_tensor_approx(mats, 1)
        rho = outer_radius(mats)
        assert est.upper == pytest.approx(rho, abs=1e-12)
        assert est.lower == pytest.approx(rho / np.sqrt(2), abs=1e-12)

    def test_singleton_collapses(self):
        rng = np.random.default_rng(5)
        a = random_matrix(rng, 2)
        for k in (1, 2, 3):
            est = jsr_tensor_approx([a], k)
            assert est.lower == pytest.approx(est.upper)
            assert est.upper == pytest.approx(spectral_radius(a), rel=1e-8, abs=1e-10)

    def test_singleton_at_k_20(self, monkeypatch):
        # Sym^20(C^2) has side 21, so the 2^20-side Kronecker power is never
        # formed: each kron is C^2 (x) Sym^(j-1), of side at most 2 * 20, and the
        # lifted superoperator has side 21^2.  A normal matrix keeps the lifted
        # eigenvalue well conditioned.
        sides = {}
        for name in ("kron", "superop_matrix"):
            wrapped = getattr(spectra, name)

            def spy(*args, wrapped=wrapped, name=name):
                out = wrapped(*args)
                sides.setdefault(name, []).append(out.shape)
                return out

            monkeypatch.setattr(spectra, name, spy)
        a = random_normal_matrix(np.random.default_rng(20), 2, radius=0.9)
        est = jsr_tensor_approx([a], 20)
        assert len(sides["kron"]) == 19 and max(max(s) for s in sides["kron"]) <= 40
        assert sides["superop_matrix"] == [(441, 441)]
        assert est.lower == pytest.approx(est.upper)
        assert est.upper == pytest.approx(0.9, rel=1e-12)

    def test_ill_conditioned_lift_raises_in_place_of_wrong_bounds(self):
        # The non-normal singleton of test_singleton_collapses: its lifted
        # eigenvalue's condition grows with k, and the unchecked dense eig put
        # upper below r(a) at k = 12 and lower = upper = 1.3 r(a) at k = 20.
        # Every k returns bounds that bracket r(a) or raises ConvergenceError.
        a = random_matrix(np.random.default_rng(5), 2)
        r = spectral_radius(a)
        for k in range(1, 21):
            try:
                est = jsr_tensor_approx([a], k)
            except ConvergenceError:
                assert k >= 8
                continue
            assert est.lower <= r * (1 + 1e-8) and est.upper >= r * (1 - 1e-8)
        with pytest.raises(ConvergenceError, match="ill-conditioned at k = 20"):
            jsr_tensor_approx([a], 20)

    def test_defective_lift_raises(self):
        # a nilpotent singleton lifts to a nilpotent map: no first-order bound
        with pytest.raises(ConvergenceError, match="ill-conditioned at k = 2"):
            jsr_tensor_approx([np.array([[0.0, 1.0], [0.0, 0.0]])], 2)

    def test_tensor_power_exactness(self):
        rng = np.random.default_rng(6)
        a = random_matrix(rng, 2)
        base = outer_radius([a])
        for k in (2, 3):
            powered = a
            for _ in range(k - 1):
                powered = kron(powered, a)
            assert outer_radius([powered]) == pytest.approx(base**k, rel=1e-8)

    def test_nested_intervals_intersect_brute(self):
        a = np.array([[1, 1], [0, 1.0]])
        b = np.array([[1, 0], [1, 1.0]])
        brute = jsr_brute([a, b], 12)
        mid = (brute.lower + brute.upper) / 2
        for k in (1, 2, 3):
            est = jsr_tensor_approx([a, b], k)
            assert est.lower - 1e-9 <= mid <= est.upper + 1e-9

    @staticmethod
    def _kron_power_bounds(mats, k):
        """The bounds from the full m^k-side Kronecker powers, for reference."""
        powers = []
        for a in mats:
            out = np.ones((1, 1), dtype=complex)
            for _ in range(k):
                out = kron(out, a)
            powers.append(out)
        upper = outer_radius(powers) ** (1.0 / k)
        return len(mats) ** (-0.5 / k) * upper, upper

    # (m, k, d, real); (4, 3) is left out: its 4096-side reference eig takes ~100 s
    SUITE = [
        (m, k, d, real)
        for m, k in ((2, 2), (2, 3), (3, 2), (4, 2))
        for d in (2, 3)
        for real in (True, False)
    ] + [(3, 3, 2, False), (3, 3, 3, True)]

    @pytest.mark.parametrize("m, k, d, real", SUITE)
    def test_symmetric_power_equals_kronecker_power(self, m, k, d, real):
        rng = np.random.default_rng(1000 * m + 100 * k + 10 * d + real)
        mats = [random_matrix(rng, m) for _ in range(d)]
        if real:
            mats = [a.real for a in mats]
        est = jsr_tensor_approx(mats, k)
        lower, upper = self._kron_power_bounds(mats, k)
        assert est.upper == pytest.approx(upper, rel=1e-10)
        assert est.lower == pytest.approx(lower, rel=1e-10)

    def test_golden_pair_at_k_8_brackets_brute(self):
        mats = _load_tuple(DEMO_DATA / "golden_pair.json")
        brute = jsr_brute(mats, 12)
        est, wide = jsr_tensor_approx(mats, 8), jsr_tensor_approx(mats, 2)
        assert est.lower <= brute.lower and brute.upper <= est.upper
        assert est.upper - est.lower < wide.upper - wide.lower

    @pytest.mark.parametrize("m, k", [(2, 20), (3, 5), (4, 3)])
    def test_lift_never_forms_the_kronecker_power(self, monkeypatch, m, k):
        from math import comb

        from cpspectra import spectra

        rng = np.random.default_rng(m + k)
        mats = [random_matrix(rng, m) for _ in range(2)]
        sides, lifted = [], []
        real_kron = np.kron

        def spy(a, b):
            out = real_kron(a, b)
            sides.append(out.shape[0])
            return out

        def record(tau, k):
            lifted.extend(tau.kraus)
            return 1.0

        monkeypatch.setattr(np, "kron", spy)
        monkeypatch.setattr(spectra, "_lifted_radius", record)  # keeps the superoperator out
        jsr_tensor_approx(mats, k)
        assert len(sides) == 2 * (k - 1)
        assert max(sides) <= m * comb(m + k - 2, k - 1) < m**k
        assert [b.shape for b in lifted] == [(comb(m + k - 1, k),) * 2] * 2

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            jsr_tensor_approx([np.eye(4)], 8)  # C(11, 8)^2 = 27225
        est = jsr_tensor_approx([np.eye(4)], 4)  # C(7, 4)^2 = 1225, over m^(2k) = 65536
        assert (est.lower, est.upper) == pytest.approx((1.0, 1.0), rel=1e-12)


class TestScaledOuterRadius:
    def test_identity_scaling(self):
        rng = np.random.default_rng(7)
        mats = [random_matrix(rng, 2) for _ in range(2)]
        expect = np.sqrt(op_norm(sum(a.conj().T @ a for a in mats)))
        assert scaled_outer_radius(mats, np.eye(2)) == pytest.approx(expect)

    def test_conjugation_identity(self):
        rng = np.random.default_rng(8)
        mats = [random_matrix(rng, 2) for _ in range(2)]
        v = random_strictly_positive(rng, 2)
        vi = np.linalg.inv(v)
        moved = [v @ a @ vi for a in mats]
        assert scaled_outer_radius(mats, v) == pytest.approx(
            scaled_outer_radius(moved, np.eye(2)), rel=1e-10
        )

    def test_always_above_outer_radius(self):
        rng = np.random.default_rng(9)
        mats = [random_matrix(rng, 2) for _ in range(2)]
        rho = outer_radius(mats)
        for _ in range(20):
            v = random_strictly_positive(rng, 2)
            assert scaled_outer_radius(mats, v) >= rho - 1e-9

    def test_perron_scaling_attains_infimum(self):
        tau = canonical_extension(golden_ratio_map())
        ell = perron_vector(algebra_map(tau))
        value = scaled_outer_radius(list(tau.kraus), psd_sqrt(ell))
        assert abs(value - outer_radius(list(tau.kraus))) < 1e-6

    def test_rejects_indefinite_scaling(self):
        with pytest.raises(PreconditionError):
            scaled_outer_radius([np.eye(2)], np.diag([1.0, -1.0]))

    def test_wrong_side_scaling_is_a_format_error(self):
        with pytest.raises(FormatError, match="does not match"):
            scaled_outer_radius([np.eye(2)], np.eye(3))


class TestFriedland:
    def test_at_identity_matches_norm(self):
        tau = golden_ratio_map()
        phi = algebra_map(tau)
        assert friedland_value(phi, np.eye(3)) == pytest.approx(positive_map_norm(phi))

    def test_at_perron_vector_attains_radius(self):
        tau = golden_ratio_map()
        phi = algebra_map(tau)
        ell = perron_vector(phi)
        assert abs(friedland_value(phi, ell) - GOLD) < 1e-9

    def test_lower_bound_on_random_scalings(self):
        rng = np.random.default_rng(10)
        phi = algebra_map(path_adjacency_map())
        for _ in range(100):
            w = np.diag(rng.uniform(0.2, 2.0, size=3)).astype(complex)
            assert friedland_value(phi, w) >= np.sqrt(2) - 1e-9

    def test_random_maps_lower_bound(self):
        from cpspectra import compress

        rng = np.random.default_rng(11)
        for blocks in [(2,), (2, 1)]:
            tau = random_cpmap(rng, blocks, terms=4)
            phi = algebra_map(tau)
            r = spectral_radius_of(phi)
            for _ in range(100):
                w = compress(random_strictly_positive(rng, phi.m), phi.shape)
                assert friedland_value(phi, w) >= r - 1e-9


class TestNeumannWitness:
    def test_zero_map(self):
        zero = CpMap((np.zeros((2, 2), dtype=complex),), AlgebraShape.full(2))
        w = neumann_witness(algebra_map(zero), 1.0)
        assert np.abs(w - np.eye(2)).max() < 1e-12

    def test_trace_corner_explicit_witness(self):
        phi = algebra_map(trace_corner_map())
        w = neumann_witness(phi, 2.0)
        assert np.abs(w - np.diag([3.0, 1.0])).max() < 1e-10
        assert np.linalg.norm(phi(w) - 2.0 * (w - np.eye(2))) < 1e-10

    def test_rejects_s_below_radius(self):
        phi = algebra_map(trace_corner_map())
        with pytest.raises(PreconditionError):
            neumann_witness(phi, 0.5)

    def test_rejects_nan_s(self):
        for phi in (algebra_map(trace_corner_map()), trace_corner_map()):
            with pytest.raises(PreconditionError, match="requires s > r"):
                neumann_witness(phi, float("nan"))

    def test_rejects_infinite_s(self):
        for phi in (algebra_map(trace_corner_map()), trace_corner_map()):
            for s in (float("inf"), float("-inf")):
                with pytest.raises(PreconditionError, match="requires a finite s"):
                    neumann_witness(phi, s)

    def test_near_singular_solve_reported(self):
        phi = algebra_map(trace_corner_map())
        with pytest.raises((PreconditionError, ConvergenceError)):
            neumann_witness(phi, 1.0 + 1e-12)

    @pytest.fixture
    def returned(self, monkeypatch):
        """What each call of the fixed-point iteration returned."""
        returned = []
        real = spectra._neumann_iterate

        def spy(*args):
            returned.append(real(*args))
            return returned[-1]

        monkeypatch.setattr(spectra, "_neumann_iterate", spy)
        return returned

    def test_stalled_iteration_falls_back_to_the_dense_solve(self, returned):
        # at s = 1.01 r the fixed point contracts by 1/1.01 a step: 400 steps cannot reach it,
        # which the rate r/s shows before the loop, so the dense solve runs without the iterate
        tau = golden_ratio_map()
        s = 1.01 * spectral_radius_of(tau)
        w = neumann_witness(tau, s)
        dense = neumann_witness(algebra_map(tau), s)  # an AlgebraMap alike
        assert returned == []
        assert np.abs(w - dense).max() <= 1e-12 * np.abs(dense).max()
        assert np.linalg.norm(tau(w) - s * (w - np.eye(3))) < 1e-10

    def test_transient_growth_stalls_the_iteration(self, returned):
        # X -> a* X a for a Jordan block with coupling 10: at s = r / 0.9 the rate r/s lets the
        # loop start, but ||(phi/s)^n(1)|| grows like n^2 c^2 0.9^n and is still 1e-11 s after
        # 400 steps, so the stalled iterate hands over to the dense solve
        tau = CpMap((np.array([[1.0, 10.0], [0.0, 1.0]], dtype=complex),), AlgebraShape.full(2))
        s = spectral_radius_of(tau) / 0.9
        w = neumann_witness(tau, s)
        assert returned == [None]
        dense = unvec(np.linalg.solve(np.eye(4) - superop_matrix(tau) / s, vec(np.eye(2))))
        assert np.abs(w - dense).max() <= 1e-12 * np.abs(dense).max()

    def test_contracting_iteration_converges(self, returned):
        # at s = 2 r the fixed point halves its residual a step and meets its tolerance
        tau = golden_ratio_map()
        s = 2.0 * spectral_radius_of(tau)
        w = neumann_witness(tau, s)
        assert len(returned) == 1 and returned[0] is not None  # so no dense solve ran
        dense = unvec(np.linalg.solve(np.eye(9) - algebra_map(tau).superop.matrix / s, vec(np.eye(3))))
        assert np.abs(w - dense).max() <= 1e-12 * np.abs(dense).max()
        assert np.linalg.norm(tau(w) - s * (w - np.eye(3))) < 1e-10


    @pytest.mark.parametrize("c", [1e-12, 1e-9, 1e6, 1e12])
    def test_the_witness_of_a_scaled_map_is_the_same_matrix(self, c):
        # (c phi, c s) has the witness of (phi, s): every gate compares with conv_tol * s
        tau = golden_ratio_map()
        s = 2.0 * spectral_radius_of(tau)
        want = neumann_witness(tau, s)
        scaled = CpMap(tuple(np.sqrt(c) * a for a in tau.kraus), tau.shape)
        got = neumann_witness(scaled, c * s)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("s", [1e6, 1e10])
    def test_rank_one_map_far_from_its_radius(self, s):
        # X -> tr(X) v v* has r = 1 and the witness 1 + 2 v v* / (s - 1); the residual of
        # s (w - 1) is rounding of size eps s, far above an absolute conv_tol
        v = np.array([1.0, 1.0]) / np.sqrt(2.0)
        tau = CpMap(tuple(np.outer(e, v) for e in np.eye(2)), AlgebraShape.full(2))
        w = neumann_witness(tau, s)
        want = np.eye(2) + 2.0 / (s - 1.0) * np.outer(v, v)
        assert np.abs(w - want).max() <= 1e-12


class TestConjugateMap:
    def test_identity_scaling_is_noop(self):
        phi = algebra_map(golden_ratio_map())
        sigma = conjugate_map(phi, np.eye(3))
        assert np.abs(sigma.superop.matrix - phi.superop.matrix).max() < 1e-12

    def test_golden_example_form(self):
        phi = algebra_map(golden_ratio_map())
        ell = perron_vector(phi)
        sigma = conjugate_map(phi, psd_sqrt(ell))
        x = np.diag([1.0, 1.0, 0.0]) + 0j
        x[0, 1] = 0.7  # b entry, killed by the map
        out = sigma(x)
        expect = np.diag([1.0, 1.0, GOLD * 1.0])  # a=d=1, e=0: diag(a+(r-1)e, ., r d)
        assert np.abs(out - expect).max() < 1e-9
        assert abs(positive_map_norm(sigma) - GOLD) < 1e-9

    def test_radius_invariance(self):
        rng = np.random.default_rng(12)
        tau = random_cpmap(rng, (2, 1), terms=4)
        phi = algebra_map(tau)
        r = spectral_radius_of(phi)
        for _ in range(5):
            blocks = [random_strictly_positive(rng, 2), random_strictly_positive(rng, 1)]
            v = np.zeros((3, 3), dtype=complex)
            v[:2, :2], v[2:, 2:] = blocks[0], blocks[1]
            assert abs(spectral_radius_of(conjugate_map(phi, v)) - r) < 1e-9


class TestNormAchieving:
    def test_golden_perron_scaling(self):
        phi = algebra_map(golden_ratio_map())
        ell = perron_vector(phi)
        result = norm_achieving_check(phi, ell)
        assert abs(result.norm - GOLD) < 1e-8

    def test_trace_corner_has_no_achieving_scaling(self):
        # tau(w) <= r w has no strictly positive solution here
        phi = algebra_map(trace_corner_map())
        for w in (np.eye(2), np.diag([3.0, 1.0]), np.diag([10.0, 0.5])):
            with pytest.raises(PreconditionError) as err:
                norm_achieving_check(phi, w.astype(complex))
            assert "violating eigenvalue" in str(err.value)

    @staticmethod
    def perron_scaled_maps():
        """Maps with a strictly positive Perron vector: complex ring maps, the three
        random (3, 2) maps of seeds 0-19 with L > 0, the real bundled maps, and the
        golden-ratio map scaled far from unit norm."""
        shapes = [(3,), (4,), (2, 2), (6,), (3, 3), (8,), (2, 2, 2), (4, 4), (12,), (6, 6), (16,), (4, 4, 4)]
        maps = [
            CpMap(tuple(rect_kraus(np.random.default_rng(s), b, ring_pairs(len(b)))), AlgebraShape(b))
            for b in shapes
            for s in (3, 4)
        ]
        maps += [random_cpmap(np.random.default_rng(s), (3, 2)) for s in (12, 15, 19)]
        maps += [golden_ratio_map(), double_trace_map(), path_adjacency_map()]
        gold = golden_ratio_map()
        maps += [CpMap(tuple(np.sqrt(c) * a for a in gold.kraus), gold.shape) for c in (1e-8, 1e4, 1e8)]
        return maps

    def test_accepts_the_perron_vector_at_any_scale(self):
        # r w - phi(w) at the Perron vector is rounding noise of r ||w||: it is judged at that
        # scale, and the radius is the certified bracket's
        for tau in self.perron_scaled_maps():
            ell = perron_vector(tau)
            assert psd_report(ell).is_strictly_positive
            result = norm_achieving_check(tau, ell)
            assert result.radius == spectral_radius_of(tau)
            assert abs(result.norm - result.radius) <= 1e-8 * result.radius
            assert np.abs(result.v @ result.v - ell).max() <= 1e-12 * np.abs(ell).max()

    def test_applies_the_kraus_list(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a superoperator or a conjugated map was built")

        tau = CpMap(tuple(rect_kraus(np.random.default_rng(3), (4, 4), ring_pairs(2))), AlgebraShape((4, 4)))
        ell = perron_vector(tau)
        monkeypatch.setattr(cpmap, "superop_of", forbidden)
        monkeypatch.setattr(spectra, "conjugate_map", forbidden)
        result = norm_achieving_check(tau, ell)
        assert abs(result.norm - result.radius) <= 1e-8 * result.radius

    def test_a_conjugated_norm_that_misses_the_radius(self, monkeypatch):
        # phi(w) 1e-6 below r w passes phi(w) <= r w, but its conjugated norm misses r by 1e-6 r
        real = spectra._image
        monkeypatch.setattr(spectra, "_image", lambda *args: real(*args) * (1.0 - 1e-6))
        tau = golden_ratio_map()
        match = r"^conjugated norm [-+0-9.e]+ misses the spectral radius [-+0-9.e]+ by [-+0-9.e]+$"
        with pytest.raises(ConvergenceError, match=match):
            norm_achieving_check(tau, perron_vector(tau))

    def test_w_outside_the_algebra(self):
        tau = golden_ratio_map()
        with pytest.raises(PreconditionError, match="^w must belong to the block algebra$"):
            norm_achieving_check(tau, np.ones((3, 3)) + np.eye(3))


class TestBalanceSimilarity:
    def test_normal_matrix(self):
        rng = np.random.default_rng(13)
        for side in (3, 12, 16, 24):
            a = random_normal_matrix(rng, side, radius=1.7)
            result = balance_similarity(a)
            assert result.norm <= 1.7 * (1 + 1e-6)

    def test_interior_jordan_block_scaled(self):
        a = np.array([[1.0, 0, 0], [0, 0.5, 100.0], [0, 0, 0.5]])
        result = balance_similarity(a)
        assert result.norm <= 1.0 + 1e-6
        p_inv = np.linalg.inv(result.p)
        assert op_norm(result.p @ a @ p_inv) == pytest.approx(result.norm)

    def test_all_peripheral_spectrum(self):
        # every eigenvalue on the circle: no interior block, P diagonalizes a alone
        rng = np.random.default_rng(15)
        for side in (2, 5, 9):
            v = random_matrix(rng, side) + 2.0 * np.eye(side)
            a = 1.5 * v @ random_unitary(rng, side) @ np.linalg.inv(v)
            result = balance_similarity(a)
            assert result.radius == pytest.approx(1.5, rel=1e-12)
            assert result.norm <= 1.5 * (1 + 1e-6)
            balanced = result.p @ a @ np.linalg.inv(result.p)
            assert np.abs(balanced - np.diag(np.diag(balanced))).max() <= 1e-10

    def test_one_schur_form_per_call(self, monkeypatch):
        import scipy.linalg

        from cpspectra import mats

        calls = []
        real_gees = mats._gees

        def counted(*args, **kwargs):
            calls.append((args, kwargs))
            return real_gees(*args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("a second factorisation ran")

        # every Schur factorisation of the package runs LAPACK gees through mats._gees
        monkeypatch.setattr(mats, "_gees", counted)
        monkeypatch.setattr(scipy.linalg, "solve_sylvester", forbidden)
        monkeypatch.setattr(np.linalg, "eigvals", forbidden)
        rng = np.random.default_rng(16)
        inputs = [np.array([[1.0, 0, 0], [0, 0.5, 100.0], [0, 0, 0.5]])]
        inputs += [random_normal_matrix(rng, side, radius=1.7) for side in (3, 12)]
        inputs += [1.5 * random_unitary(rng, 4)]
        for a in inputs:
            calls.clear()
            balance_similarity(a)
            # one unsorted form of a itself: the radius is read off it, not off eigvals
            (args, kwargs), = calls
            assert not kwargs and len(args) == 1 and np.array_equal(args[0], a)

    def test_peripheral_jordan_rejected(self):
        with pytest.raises(PreconditionError):
            balance_similarity(np.array([[1.0, 1.0], [0, 1.0]]))

    def test_scaled_peripheral_jordan_rejected(self):
        # normalized powers of [[0.5, 100], [0, 0.5]] grow linearly
        with pytest.raises(PreconditionError):
            balance_similarity(np.array([[0.5, 100.0], [0, 0.5]]))

    def test_rejects_nilpotent(self):
        with pytest.raises(PreconditionError):
            balance_similarity(np.array([[0.0, 1.0], [0, 0.0]]))

    def test_rejects_the_empty_matrix(self):
        with pytest.raises(PreconditionError, match="positive spectral radius"):
            balance_similarity(np.zeros((0, 0)))

    @pytest.mark.parametrize("shape", [(3, 2), (2, 3)])
    def test_rejects_a_non_square_matrix(self, shape):
        with pytest.raises(FormatError, match="expected a square matrix"):
            balance_similarity(np.ones(shape))

    @staticmethod
    def rotated(a, seed):
        rng = np.random.default_rng(seed)
        for _ in range(10):
            u = random_unitary(rng, a.shape[0])
            yield u @ a @ u.conj().T

    @pytest.mark.parametrize("c", [1e-3, 1.0, 1e2, 1e3])
    def test_rotated_peripheral_jordan_blocks_are_rejected(self, c):
        # a Jordan block at 1, at i and of size 3 at 1: rounding splits it, by far more than
        # CLUSTER_TOL once c >= 1, and the clusters near the circle merge back
        for diag, size in (([1, 1, 0.5, 0.2], 2), ([1j, 1j, 0.5, 0.2], 2), ([1, 1, 1, 0.5, 0.2], 3)):
            a = np.diag(diag).astype(complex)
            a[range(size - 1), range(1, size)] = c
            for b in self.rotated(a, 7):
                with pytest.raises(PreconditionError, match="peripheral Jordan block"):
                    balance_similarity(b)

    @pytest.mark.parametrize("c", [1e3, 3e3, 1e4])
    def test_rotated_interior_jordan_blocks_are_balanced(self, c):
        # bounded powers with a strongly coupled interior block
        a = np.diag([1.0, 0.5, 0.5, 0.2]).astype(complex)
        a[1, 2] = c
        for b in self.rotated(a, 0):
            result = balance_similarity(b)
            assert result.radius == pytest.approx(1.0, rel=1e-9)  # rounding of ||b|| ~ c
            assert result.norm <= result.radius * (1 + 1e-6)
            assert op_norm(result.p @ b @ np.linalg.inv(result.p)) == pytest.approx(result.norm)

    def test_peripheral_window_is_that_of_spectral_structure(self):
        # a Jordan block at 1 - 5 CLUSTER_TOL is interior for spectral_structure (d_max = 1),
        # so balancing scales it rather than refusing it
        lam = 1.0 - 5.0 * CLUSTER_TOL
        a = np.array([[1.0, 0.0, 0.0], [0.0, lam, 1.0], [0.0, 0.0, lam]])
        assert spectral_structure(a).d_max == 1
        res = balance_similarity(a)
        assert res.radius == pytest.approx(1.0) and res.norm <= 1.0 + 1e-6
        assert op_norm(res.p @ a @ np.linalg.inv(res.p)) <= 1.0 + 1e-6

    def test_coupling_below_rank_tol_is_no_jordan_block(self):
        a = np.diag([1.0, 1.0, 0.5, 0.2]).astype(complex)
        a[0, 1] = 1e-12
        for b in self.rotated(a, 7):
            assert balance_similarity(b).norm <= 1.0 + 1e-6

    @pytest.mark.parametrize("side, seed", [(16, 2), (20, 0), (30, 0), (30, 1), (30, 2)])
    def test_gaussian_matrices_are_balanced(self, side, seed):
        # distinct eigenvalues, so a balancing similarity exists
        a = np.random.default_rng(seed).normal(size=(side, side))
        result = balance_similarity(a)
        r = float(np.abs(np.linalg.eigvals(a)).max())
        assert result.radius == pytest.approx(r, rel=1e-9)
        assert op_norm(result.p @ a @ np.linalg.inv(result.p)) <= r * (1 + 1e-6)
        assert np.linalg.cond(result.p) < 1e4

    def test_long_interior_jordan_block_is_balanced_or_a_convergence_error(self):
        # a size-15 Jordan block at 0.9 under a simple radius of 1 does balance in exact
        # arithmetic.  Today its Stein root is too ill conditioned for the balanced norm to meet
        # the slack, a known numerical limitation and not required behaviour; what is required
        # is a certified balance or a failed solve (exit 2), never a malformed matrix (exit 3)
        j = np.diag([1.0] + [0.9] * 15)
        j[range(1, 15), range(2, 16)] = 1.0
        u = random_unitary(np.random.default_rng(0), 16)
        a = u @ j @ u.conj().T
        try:
            result = balance_similarity(a)
        except ConvergenceError:
            return
        assert op_norm(result.p @ a @ np.linalg.inv(result.p)) <= 1 + 1e-6

    @pytest.mark.parametrize("c", [1e-150, 1e-8, 1e8, 1e150])
    def test_scaling_and_rotation_laws(self, c):
        # r(c a) = r(c v a v*) = c r(a), and both keep the ratio of the balanced norm to r
        rng = np.random.default_rng(17)
        for side in (3, 8):
            t = np.diag(rng.uniform(0.2, 1.0, side) * np.exp(2j * np.pi * rng.uniform(size=side)))
            t[0, 0] = 1.3
            t += np.triu(random_matrix(rng, side), 1)  # not normal, same spectrum
            u = random_unitary(rng, side)
            a = u @ t @ u.conj().T
            base = balance_similarity(a)
            v = random_unitary(rng, side)
            for b in (c * a, c * (v @ a @ v.conj().T)):
                result = balance_similarity(b)
                assert result.radius == pytest.approx(c * base.radius, rel=1e-12)
                assert result.norm / result.radius == pytest.approx(base.norm / base.radius, abs=1e-12)


class TestSingularPsdCombination:
    def test_singular_input_returned(self):
        w1 = np.diag([1.0, 0.0])
        out = singular_psd_combination(w1, np.eye(2))
        assert np.abs(out - w1).max() == 0

    def test_singular_second_input_returned(self):
        w2 = np.diag([0.0, 3.0])
        out = singular_psd_combination(np.eye(2), w2)
        assert out is not w2 and np.abs(out - w2).max() == 0

    def test_hand_example(self):
        out = singular_psd_combination(np.eye(2), np.diag([1.0, 2.0]))
        assert np.abs(out - np.diag([0.5, 0.0])).max() < 1e-12

    def test_random_pairs(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            w1 = random_strictly_positive(rng, 3)
            w2 = random_strictly_positive(rng, 3)
            out = singular_psd_combination(w1, w2)
            eigs = np.linalg.eigvalsh(out)
            assert eigs.min() > -1e-9
            assert eigs.min() < 1e-9
            assert np.linalg.norm(out) > 1e-9

    def test_rejects_proportional(self):
        with pytest.raises(PreconditionError):
            singular_psd_combination(np.eye(2), 2.0 * np.eye(2))

    def test_rejects_indefinite(self):
        with pytest.raises(PreconditionError):
            singular_psd_combination(np.diag([1.0, -1.0]), np.eye(2))

    def test_wrong_side_is_a_format_error(self):
        with pytest.raises(FormatError, match="does not match"):
            singular_psd_combination(np.eye(2), np.eye(3))


class TestStrictlyPositiveInputsAtAnyScale:
    """The strictly positive w and v of the evaluators are judged by psd_report at their own
    scale, so c w reads as w and each value is unchanged (or scales with its inputs)."""

    SCALES = [1e-12, 1e12]

    @staticmethod
    def golden():
        tau = golden_ratio_map()
        return tau, perron_vector(tau)

    @pytest.mark.parametrize("c", SCALES)
    def test_friedland_value(self, c):
        tau, ell = self.golden()
        w = compress(random_strictly_positive(np.random.default_rng(41), 3), tau.shape)
        for x in (ell, w):
            want = friedland_value(tau, x)
            assert friedland_value(tau, c * x) == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("c", SCALES)
    def test_norm_achieving_check(self, c):
        tau, ell = self.golden()
        want = norm_achieving_check(tau, ell).norm
        assert norm_achieving_check(tau, c * ell).norm == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("c", SCALES)
    def test_scaled_outer_radius_and_conjugate_map(self, c):
        tau, ell = self.golden()
        v = psd_sqrt(ell)
        want = scaled_outer_radius(list(tau.kraus), v)
        assert scaled_outer_radius(list(tau.kraus), c * v) == pytest.approx(want, rel=1e-12, abs=0)
        mat = conjugate_map(tau, v).superop.matrix
        got = conjugate_map(tau, c * v).superop.matrix
        assert np.abs(got - mat).max() <= 1e-12 * np.abs(mat).max()

    @pytest.mark.parametrize("c", SCALES)
    def test_singular_psd_combination_scales_with_its_inputs(self, c):
        rng = np.random.default_rng(42)
        w1, w2 = random_strictly_positive(rng, 4), random_strictly_positive(rng, 4)
        want = singular_psd_combination(w1, w2)
        got = singular_psd_combination(c * w1, c * w2)
        assert np.abs(got - c * want).max() <= 1e-12 * c * np.abs(want).max()
        assert psd_report(got).is_psd and not psd_report(got).is_strictly_positive


class TestSandwichProperty:
    def test_brute_vs_outer_radius(self):
        rng = np.random.default_rng(15)
        for d, m in [(2, 2), (3, 2), (2, 3)]:
            for _ in range(4):
                mats = [random_matrix(rng, m) for _ in range(d)]
                rho_hat = outer_radius(mats)
                est = jsr_brute(mats, 10)
                assert rho_hat / np.sqrt(d) <= est.upper + 1e-6
                assert est.lower <= rho_hat + 1e-6


def kraus_route_map(kind, m, seed):
    """Seeded CP map of side m whose radius bracket closes: a full tuple, an
    irreducible ring of 8x8 blocks, a block-triangular map whose first block
    dominates (so the Perron vector is strictly positive), or a Gaussian
    Kraus list that leaks out of the blocks (m/2, m/2)."""
    rng = np.random.default_rng(seed)
    if kind == "full":
        return CpMap((random_matrix(rng, m), random_matrix(rng, m)), AlgebraShape.full(m))
    if kind == "leaking":
        kraus = tuple(random_matrix(rng, m) for _ in range(3))
        return CpMap(kraus, AlgebraShape((m // 2, m // 2)))
    blocks = (8,) * (m // 8)
    if kind == "ring":
        return CpMap(tuple(rect_kraus(rng, blocks, ring_pairs(len(blocks)))), AlgebraShape(blocks))
    pairs = [(k, k) for k in range(len(blocks))] + triangular_pairs(len(blocks))
    kraus = [2.0 * a if k == l == 0 else a for a, (k, l) in zip(rect_kraus(rng, blocks, pairs), pairs)]
    return CpMap(tuple(kraus), AlgebraShape(blocks))


def rel(a, b):
    return abs(a - b) / abs(b)


ROUTE_CASES = [(kind, m) for kind in ("full", "ring", "triangular", "leaking") for m in (16, 24, 32)]


class TestKrausRadiusRoute:
    @pytest.mark.parametrize("kind,m", ROUTE_CASES)
    def test_bracket_holds_the_dense_radius(self, kind, m):
        tau = kraus_route_map(kind, m, 40 + m)
        bounds = spectral_radius_bounds(tau)
        dense = spectral_radius(superop_matrix(tau))
        assert bounds.lower <= dense <= bounds.upper
        assert bounds.upper - bounds.lower <= 1e-12 * bounds.upper
        assert rel(spectral_radius_of(tau), dense) <= 1e-12
        if kind == "leaking":  # w is in the algebra, and the Kraus action leaves it
            assert friedland_value(tau, bounds.w) >= dense * (1 - 1e-12)
        else:
            assert rel(bounds.upper, friedland_value(tau, bounds.w)) <= 1e-12

    @pytest.mark.parametrize("kind,m", ROUTE_CASES)
    def test_kraus_mixing_and_block_unitary_conjugation(self, kind, m):
        tau = kraus_route_map(kind, m, 50 + m)
        rng = np.random.default_rng(60 + m)
        r = spectral_radius_of(tau)
        u = random_unitary(rng, len(tau.kraus))
        mixed = CpMap(tuple(np.einsum("ji,ikl->jkl", u, np.stack(tau.kraus))), tau.shape)
        assert rel(spectral_radius_of(mixed), r) <= 1e-12
        v = block_unitary(rng, tau.shape)
        turned = CpMap(tuple(v.conj().T @ a @ v for a in tau.kraus), tau.shape)
        assert rel(spectral_radius_of(turned), r) <= 1e-12

    @pytest.mark.parametrize("m", (16, 24, 32))
    def test_tuple_scaling_and_adjoint(self, m):
        mats = kraus_route_map("full", m, 70 + m).kraus
        rho = outer_radius(mats)
        c = 0.3 - 1.7j
        assert rel(outer_radius([c * a for a in mats]), abs(c) * rho) <= 1e-12
        assert rel(outer_radius([a.conj().T for a in mats]), rho) <= 1e-12

    @pytest.mark.parametrize("kind", ("full", "ring", "triangular", "leaking"))
    def test_norm_witness_and_gelfand_match_the_dense_maps(self, kind):
        tau = kraus_route_map(kind, 16, 80)
        mat = superop_matrix(tau)
        one = np.eye(16, dtype=complex)
        assert rel(positive_map_norm(tau), op_norm(unvec(mat @ vec(one)))) <= 1e-12
        s = 1.5 * positive_map_norm(tau)
        dense = unvec(np.linalg.solve(np.eye(256) - mat / s, vec(one)))
        w = neumann_witness(tau, s)
        assert np.linalg.norm(w - dense) <= 1e-9 * np.linalg.norm(dense)
        assert np.linalg.norm(unvec(mat @ vec(w)) - s * (w - one)) < 1e-10
        if kind == "full":
            value = outer_radius_gelfand(tau.kraus, 64)
            power = np.linalg.matrix_power(mat, 64) @ vec(one)
            assert rel(value, op_norm(unvec(power)) ** (1 / 128)) <= 1e-12


def fallback_maps():
    rng = np.random.default_rng(90)
    blocks = (8, 8)
    triangular = CpMap(tuple(rect_kraus(rng, blocks, triangular_pairs(2))), AlgebraShape(blocks))
    small = [random_matrix(rng, 4) for _ in range(2)]
    kron_power = CpMap(tuple(kron(a, a) for a in small), AlgebraShape.full(16))
    full = AlgebraShape.full(16)
    zero = CpMap((np.zeros((16, 16)),), full)
    shift = CpMap((np.eye(16, k=1),), full)
    slow_gap = CpMap((np.diag(0.999 ** np.arange(16)),), full)
    return {
        "block_triangular": triangular,
        "kron_power": kron_power,
        "zero": zero,
        "nilpotent_shift": shift,
        "slow_gap_diagonal": slow_gap,
    }


class TestKrausRadiusFallback:
    @pytest.mark.parametrize("name", sorted(fallback_maps()))
    def test_dense_radius_when_no_bracket_closes(self, name):
        tau = fallback_maps()[name]
        with pytest.raises(ConvergenceError):
            spectral_radius_bounds(tau)
        assert spectral_radius_of(tau) == spectral_radius(superop_matrix(tau))

    def test_periodic_cyclic_shift(self):
        shift = np.roll(np.eye(16), 1, axis=1)
        assert abs(spectral_radius_of(CpMap((shift,), AlgebraShape.full(16))) - 1.0) <= 1e-12

    def test_requires_a_kraus_list(self):
        with pytest.raises(PreconditionError):
            spectral_radius_bounds(np.eye(256))


class TestKrausRouteGuard:
    def test_no_superoperator_eigvals_or_solve_at_m_32(self, monkeypatch):
        rng = np.random.default_rng(93)
        mats = [random_matrix(rng, 32) for _ in range(2)]
        tau = CpMap(tuple(mats), AlgebraShape.full(32))
        s = 1.5 * positive_map_norm(tau)

        def forbidden(*args, **kwargs):
            raise AssertionError("the Kraus route built a superoperator or ran eigvals/solve")

        monkeypatch.setattr(cpmap, "superop_of", forbidden)
        monkeypatch.setattr(np.linalg, "eigvals", forbidden)
        monkeypatch.setattr(np.linalg, "solve", forbidden)
        # through the superoperator each call took about 3 s on a 2-vCPU Xeon
        calls = {
            "spectral_radius_of": lambda: spectral_radius_of(tau),
            "outer_radius": lambda: outer_radius(mats),
            "neumann_witness": lambda: neumann_witness(tau, s),
            "outer_radius_gelfand": lambda: outer_radius_gelfand(mats, 64),
        }
        for name, call in calls.items():
            start = time.perf_counter()
            call()
            elapsed = time.perf_counter() - start
            assert elapsed < 0.25, f"{name} took {elapsed:.3f}s at m = 32"

    def test_iterations_apply_the_unvalidated_step(self, monkeypatch):
        # CpMap.__call__ re-validates its input; iterations use step, and only a final residual calls the map
        rng = np.random.default_rng(94)
        mats = [random_matrix(rng, 16) for _ in range(2)]
        tau = CpMap(tuple(mats), AlgebraShape.full(16))
        s = 1.5 * positive_map_norm(tau)
        calls = []
        original = CpMap.__call__

        def counted(self, x):
            calls.append(x)
            return original(self, x)

        monkeypatch.setattr(CpMap, "__call__", counted)
        spectral_radius_bounds(tau)
        positive_map_norm(tau)
        outer_radius_gelfand(mats, 64)
        assert calls == []
        neumann_witness(tau, s)
        assert len(calls) == 1


SMALL_SIDES = (2, 3, 5, 8, 12, 15)


def small_route_maps():
    """Seeded CP maps of every side below 16: full pairs, maps that keep the
    blocks (2, 1) and (3, 2), Gaussian maps that leak out of two blocks,
    block-triangular maps whose downstream block dominates (so the Perron vector
    is singular and the bracket falls back), and the periodic trace-corner map."""
    out = {"trace_corner": trace_corner_map()}
    for blocks in ((2, 1), (3, 2)):
        rng = np.random.default_rng(110 + sum(blocks))
        out[f"kept-{blocks}"] = CpMap(tuple(rect_kraus(rng, blocks, ring_pairs(2))), AlgebraShape(blocks))
    for m in SMALL_SIDES:
        rng = np.random.default_rng(100 + m)
        blocks = (m // 2, m - m // 2)
        out[f"full-{m}"] = CpMap((random_matrix(rng, m), random_matrix(rng, m)), AlgebraShape.full(m))
        leaking = tuple(random_matrix(rng, m) for _ in range(3))
        out[f"leaking-{m}"] = CpMap(leaking, AlgebraShape(blocks))
        pairs = triangular_pairs(2)  # (0, 0), (1, 1), (0, 1): block 0 feeds block 1
        kraus = [2.0 * a if k == l == 1 else a for a, (k, l) in zip(rect_kraus(rng, blocks, pairs), pairs)]
        out[f"triangular-{m}"] = CpMap(tuple(kraus), AlgebraShape(blocks))
    return out


def gelfand_reference(mats, n):
    mat = superop_matrix(CpMap(tuple(mats), AlgebraShape.full(mats[0].shape[0])))
    power = np.linalg.matrix_power(mat, n) @ vec(np.eye(mats[0].shape[0]))
    return op_norm(unvec(power)) ** (1 / (2 * n))


class TestOneRouteBelowSide16:
    """Every CpMap entry point takes its Kraus route at every side and answers
    what the dense superoperator answers."""

    @pytest.mark.parametrize("name", sorted(small_route_maps()))
    def test_entry_points_match_the_dense_maps(self, name):
        tau = small_route_maps()[name]
        m = tau.m
        mat = superop_matrix(tau)
        one = np.eye(m, dtype=complex)
        r = spectral_radius(mat)
        assert rel(spectral_radius_of(tau), r) <= 1e-12
        assert rel(positive_map_norm(tau), op_norm(unvec(mat @ vec(one)))) <= 1e-12
        rng = np.random.default_rng(120 + m)
        w = compress(random_strictly_positive(rng, m), tau.shape)
        assert rel(friedland_value(tau, w), spectral_radius(np.linalg.solve(w, unvec(mat @ vec(w))))) <= 1e-12
        for n in (1, 7, 64):
            assert rel(outer_radius_gelfand(tau.kraus, n), gelfand_reference(tau.kraus, n)) <= 1e-12
        s = 1.5 * r
        w = neumann_witness(tau, s)
        assert np.linalg.norm(unvec(mat @ vec(w)) - s * (w - one)) < 1e-10
        assert np.linalg.eigvalsh(w - one).min() >= -1e-9

    @pytest.mark.parametrize("name", sorted(small_route_maps()))
    def test_radius_invariance_under_mixing_and_block_unitaries(self, name):
        tau = small_route_maps()[name]
        rng = np.random.default_rng(130 + tau.m)
        r = spectral_radius_of(tau)
        u = random_unitary(rng, len(tau.kraus))
        mixed = CpMap(tuple(np.einsum("ji,ikl->jkl", u, np.stack(tau.kraus))), tau.shape)
        assert rel(spectral_radius_of(mixed), r) <= 1e-12
        v = block_unitary(rng, tau.shape)
        turned = CpMap(tuple(v.conj().T @ a @ v for a in tau.kraus), tau.shape)
        assert rel(spectral_radius_of(turned), r) <= 1e-12

    @pytest.mark.parametrize("m", SMALL_SIDES)
    def test_block_triangular_maps_fall_back_to_the_dense_radius(self, m):
        tau = small_route_maps()[f"triangular-{m}"]
        with pytest.raises(ConvergenceError, match="strict positivity"):
            spectral_radius_bounds(tau)
        assert spectral_radius_of(tau) == spectral_radius(superop_matrix(tau))

    def test_no_superoperator_at_m_8(self, monkeypatch):
        rng = np.random.default_rng(140)
        mats = [random_matrix(rng, 8) for _ in range(2)]
        tau = CpMap(tuple(mats), AlgebraShape.full(8))
        w = random_strictly_positive(rng, 8)
        s = 1.5 * positive_map_norm(tau)

        def forbidden(*args, **kwargs):
            raise AssertionError("a CpMap entry point built its superoperator")

        monkeypatch.setattr(cpmap, "superop_of", forbidden)
        spectral_radius_of(tau)
        outer_radius(mats)
        positive_map_norm(tau)
        friedland_value(tau, w)
        neumann_witness(tau, s)
        outer_radius_gelfand(mats, 64)


class TestOverflowIsAConvergenceError:
    """Kraus norms of 1e160 overflow inside the computation: a convergence failure,
    never a FormatError (malformed input) or an untyped LinAlgError."""

    def pair(self):
        rng = np.random.default_rng(0)
        return [1e160 * random_matrix(rng, 3) for _ in range(2)]

    def test_every_entry_point_raises_convergence_error(self):
        pair = self.pair()
        tau = CpMap(tuple(pair), AlgebraShape.full(3))
        calls = {
            "positive_map_norm": lambda: positive_map_norm(tau),
            "outer_radius_gelfand": lambda: outer_radius_gelfand(pair, 7),
            "friedland_value": lambda: friedland_value(tau, np.eye(3)),
            "jsr_tensor_approx": lambda: jsr_tensor_approx(pair, 2),
            "scaled_outer_radius": lambda: scaled_outer_radius(pair, np.eye(3)),
            "jsr_brute": lambda: jsr_brute(pair, 4),
        }
        for name, call in calls.items():
            with pytest.raises(ConvergenceError, match="overflow"):
                call()

    def test_unscaled_pair_still_answers(self):
        pair = [a / 1e160 for a in self.pair()]
        tau = CpMap(tuple(pair), AlgebraShape.full(3))
        assert positive_map_norm(tau) > 0
        assert outer_radius_gelfand(pair, 7) > 0
        assert friedland_value(tau, np.eye(3)) > 0
        assert jsr_tensor_approx(pair, 2).upper > 0
        assert scaled_outer_radius(pair, np.eye(3)) > 0
        assert jsr_brute(pair, 4).upper > 0

    def test_an_overflowing_radius_bracket_raises_a_typed_error(self):
        # the matmul overflows to inf and inf - inf gives nan: neither may escape as a warning
        tau = CpMap((1e160 * np.eye(2), 1e150 * np.ones((2, 2))), AlgebraShape.full(2))
        with pytest.raises(ConvergenceError, match="sends its iterate to nan at step 1"):
            spectral_radius_bounds(tau)
        for call in (lambda: spectral_radius_of(tau), lambda: neumann_witness(tau, 1e300)):
            with pytest.raises(ConvergenceError, match="superoperator entries overflow"):
                call()


def form_maps():
    """The bundled maps and seeded full-algebra maps, so that each form is one map."""
    out = {f.__name__: f() for f in (trace_corner_map, golden_ratio_map, double_trace_map, path_adjacency_map)}
    for seed, m in ((3, 3), (4, 4), (5, 6)):
        kraus = rect_kraus(np.random.default_rng(seed), (m,), ring_pairs(1))
        out[f"rect-{seed}-{m}"] = CpMap(tuple(kraus), AlgebraShape.full(m))
    return out


FORM_MAPS = form_maps()
FORM_ENTRIES = {
    "spectral_radius_of": lambda phi, tau: spectral_radius_of(phi),
    "positive_map_norm": lambda phi, tau: positive_map_norm(phi),
    "friedland_value": lambda phi, tau: friedland_value(phi, np.eye(tau.m)),
    "neumann_witness": lambda phi, tau: neumann_witness(phi, 2.0 * positive_map_norm(tau)),
    "norm_achieving_check": lambda phi, tau: norm_achieving_check(phi, perron_vector(tau)),
    "conjugate_map": lambda phi, tau: conjugate_map(phi, 2.0 * np.eye(tau.m)),
    "maximal_part": lambda phi, tau: maximal_part(phi),
}


def form_answer(entry, phi, tau) -> list:
    """The answer as a list of numbers and arrays (a map as its matrix, a result as its
    fields), or the error's type and message."""
    try:
        out = FORM_ENTRIES[entry](phi, tau)
    except Exception as exc:  # noqa: BLE001 - the error is the answer
        return [type(exc).__name__, str(exc)]
    out = out.superop if isinstance(out, AlgebraMap) else out
    values = [getattr(out, f.name) for f in dataclasses.fields(out)] if dataclasses.is_dataclass(out) else [out]
    return [v.matrix if isinstance(v, SuperOperator) else v for v in values]


class TestEveryMapFormReadsAlike:
    """An AlgebraMap, its SuperOperator and its raw side-m^2 matrix are one map at every
    entry point: bitwise-equal answers or the same error, each near the CpMap's answer."""

    @pytest.mark.parametrize("entry", sorted(FORM_ENTRIES))
    @pytest.mark.parametrize("name", sorted(FORM_MAPS))
    def test_forms_agree(self, name, entry):
        tau = FORM_MAPS[name]
        phi = algebra_map(tau)
        forms = (phi, phi.superop, phi.superop.matrix)
        answers = [form_answer(entry, form, tau) for form in forms]
        want = form_answer(entry, tau, tau)
        for got in answers:
            assert len(got) == len(want)
            for x, y, ref in zip(got, answers[0], want):
                if isinstance(ref, (str, bool, np.bool_)):
                    assert x == ref
                    continue
                assert np.array_equal(x, y)
                size = np.abs(np.asarray(ref)).max(initial=0.0)
                assert np.abs(np.asarray(x) - np.asarray(ref)).max(initial=0.0) <= 1e-12 * size
