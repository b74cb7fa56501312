import numpy as np
import pytest

from cpspectra import (
    AlgebraShape,
    CpMap,
    FormatError,
    SuperOperator,
    algebra_map,
    canonical_extension,
    choi_of,
    choi_of_superop,
    compress,
    in_algebra,
    kraus_of_choi,
    kron,
    psd_report,
    spectral_radius,
    spectral_radius_of,
    superop_of,
)
from cpspectra.reference_maps import double_trace_map, golden_ratio_map
from helpers import random_cpmap, random_matrix, random_psd


class TestShape:
    def test_parse(self):
        shape = AlgebraShape.parse("2,1")
        assert shape.blocks == (2, 1) and shape.m == 3

    def test_rejects_bad_blocks(self):
        with pytest.raises(FormatError):
            AlgebraShape((0, 1))

    def test_json_round_trip(self):
        shape = AlgebraShape((1, 3, 2))
        assert AlgebraShape.from_json(shape.to_json()) == shape

    @pytest.mark.parametrize(
        "obj",
        [{"blocks": ["x"]}, {"blocks": 2}, {"blocks": [1.5, 1.7]}, {"blocks": [None]}, {"blocks": [True]},
         {}],
        ids=["string", "number", "fractional", "null", "bool", "missing"],
    )
    def test_rejects_malformed_json_blocks(self, obj):
        with pytest.raises(FormatError):
            AlgebraShape.from_json(obj)

    def test_integral_blocks_of_any_integer_type(self):
        assert AlgebraShape.from_json({"blocks": [2.0, np.int64(1)]}).blocks == (2, 1)
        assert AlgebraShape((np.int32(3),)).blocks == (3,)


def block_diagonal(x, shape):
    """The diagonal blocks of ``x`` copied into a zero matrix, one slice at a time."""
    out = np.zeros((shape.m, shape.m), dtype=complex)
    for sl in shape.slices():
        out[sl, sl] = x[sl, sl]
    return out


class TestEmbedCompress:
    def test_compress_fixed_point(self):
        shape = AlgebraShape((2, 1))
        x = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1.0]])
        assert np.array_equal(compress(x, shape), x)

    def test_compress_all_ones(self):
        out = compress(np.ones((2, 2)), AlgebraShape((1, 1)))
        assert np.array_equal(out, np.eye(2))

    def test_compress_idempotent(self):
        rng = np.random.default_rng(1)
        shape = AlgebraShape((2, 1))
        x = random_matrix(rng, 3)
        once = compress(x, shape)
        assert np.array_equal(compress(once, shape), once)

    def test_compress_preserves_psd(self):
        rng = np.random.default_rng(2)
        shape = AlgebraShape((2, 2))
        for _ in range(10):
            out = compress(random_psd(rng, 4), shape)
            assert psd_report(out).is_psd

    def test_compress_after_embed_round_trip(self):
        rng = np.random.default_rng(3)
        shape = AlgebraShape((1, 2))
        blocks = [random_matrix(rng, 1), random_matrix(rng, 2)]
        x = np.zeros((3, 3), dtype=complex)
        for a, sl in zip(blocks, shape.slices()):
            x[sl, sl] = a
        back = compress(x, shape)
        for a, sl in zip(blocks, shape.slices()):
            assert np.array_equal(a, back[sl, sl])

    def test_in_algebra(self):
        shape = AlgebraShape((1, 1))
        assert in_algebra(np.eye(2), shape)
        assert not in_algebra(np.ones((2, 2)), shape)

    @pytest.mark.parametrize("scale", [1.0, 1e160, 1e300])
    def test_in_algebra_at_large_scale(self, scale):
        # the squares of a 1e160 gap overflow np.linalg.norm, and inf <= inf would hold
        shape = AlgebraShape((1, 1))
        assert in_algebra(scale * np.eye(2), shape)
        assert not in_algebra(scale * np.ones((2, 2)), shape)


SHAPES = [(2, 1), (1, 1, 1), (3, 2, 4), (5,), (1, 4)]


class TestVecMask:
    """The vec mask against the block-projection forms of the algebra it replaced,
    which are kept here only as test references."""

    def test_marks_index_pairs_in_one_block(self):
        for blocks in SHAPES:
            shape = AlgebraShape(blocks)
            block_of = [k for k, n in enumerate(blocks) for _ in range(n)]
            mask = shape.vec_mask()
            assert mask.dtype == bool and mask.shape == (shape.m**2,)
            for i in range(shape.m):
                for j in range(shape.m):
                    assert mask[i + j * shape.m] == (block_of[i] == block_of[j])

    def test_compress_superop_equals_projection_kron_sum(self):
        # the superoperator of compress is the diagonal of the mask
        for blocks in SHAPES:
            shape = AlgebraShape(blocks)
            old = np.zeros((shape.m**2, shape.m**2), dtype=complex)
            for p in shape.projections():
                old += kron(p, p)
            assert np.array_equal(np.diag(shape.vec_mask()), old)

    def test_compress_equals_embed_of_split(self):
        rng = np.random.default_rng(21)
        for blocks in SHAPES:
            shape = AlgebraShape(blocks)
            x = random_matrix(rng, shape.m)
            assert np.array_equal(compress(x, shape), block_diagonal(x, shape))

    def test_algebra_map_equals_compress_superop_product(self):
        rng = np.random.default_rng(22)
        for blocks in SHAPES:
            tau = random_cpmap(rng, blocks, terms=3)
            s = superop_of(tau).matrix
            compressed = s @ np.diag(tau.shape.vec_mask().astype(complex))
            assert np.array_equal(algebra_map(tau).superop.matrix, compressed)

    def test_canonical_extension_equals_compress_superop_product(self):
        # reference: the Kraus list of the Choi matrix of the superop times the compression's diagonal mask
        rng = np.random.default_rng(23)
        for blocks in SHAPES:
            tau = random_cpmap(rng, blocks, terms=3)
            s = superop_of(tau).matrix @ np.diag(tau.shape.vec_mask().astype(complex))
            old = kraus_of_choi(choi_of_superop(SuperOperator(tau.m, s)))
            new = canonical_extension(tau).kraus
            assert len(new) == len(old)
            s_new = superop_of(CpMap(new, AlgebraShape.full(tau.m))).matrix
            s_old = superop_of(CpMap(tuple(old), AlgebraShape.full(tau.m))).matrix
            assert np.abs(s_new - s_old).max() <= 1e-12 * np.abs(s_old).max()


class TestCanonicalExtension:
    def test_double_trace_extension_action(self):
        ext = canonical_extension(double_trace_map())
        for i in range(2):
            for j in range(2):
                e = np.zeros((2, 2), dtype=complex)
                e[i, j] = 1.0
                expect = 2.0 * (1.0 if i == j else 0.0) * np.eye(2)
                assert np.abs(ext(e) - expect).max() < 1e-12
        assert np.abs(choi_of(ext) - 2 * np.eye(4)).max() < 1e-9

    def test_identity_map_extends_to_compression(self):
        shape = AlgebraShape((2, 1))
        ident = CpMap(tuple(np.asarray(p) for p in shape.projections()), shape)
        ext = canonical_extension(ident)
        assert np.abs(superop_of(ext).matrix - np.diag(shape.vec_mask())).max() < 1e-9

    def test_golden_radius_preserved(self):
        tau = golden_ratio_map()
        ext = canonical_extension(tau)
        r_ext = spectral_radius_of(ext)
        assert abs(r_ext - (1 + np.sqrt(5)) / 2) < 1e-9

    def test_extension_powers_factor_through_compression(self):
        # ext^n == iota o tau^n o compress as superoperators
        rng = np.random.default_rng(5)
        for blocks in [(2, 1), (1, 1, 1)]:
            tau = random_cpmap(rng, blocks, terms=3)
            s_given = superop_of(tau).matrix
            c = np.diag(tau.shape.vec_mask().astype(complex))
            s_ext = s_given @ c
            for n in (2, 3):
                lhs = np.linalg.matrix_power(s_ext, n)
                rhs = np.linalg.matrix_power(s_given, n) @ c
                assert np.abs(lhs - rhs).max() < 1e-12

    def test_extension_agrees_with_functional_definition(self):
        # ext(X) == tau(compress(X)) evaluated entirely without superoperators
        rng = np.random.default_rng(7)
        for blocks in [(2, 1), (1, 1, 1), (3,)]:
            tau = random_cpmap(rng, blocks, terms=3)
            ext = canonical_extension(tau)
            for _ in range(5):
                x = random_matrix(rng, tau.m)
                assert np.abs(ext(x) - tau(compress(x, tau.shape))).max() < 1e-10

    def test_extension_radius_matches_restriction(self):
        # r(extension) equals r of the map restricted to algebra coordinates
        rng = np.random.default_rng(6)
        for blocks in [(2, 1), (1, 1, 1)]:
            tau = random_cpmap(rng, blocks, terms=4)
            phi = algebra_map(tau)
            idx = []
            for sl in tau.shape.slices():
                for i in range(sl.start, sl.stop):
                    for j in range(sl.start, sl.stop):
                        idx.append(i + j * tau.m)
            restricted = phi.superop.matrix[np.ix_(idx, idx)]
            assert abs(spectral_radius_of(phi) - spectral_radius(restricted)) < 1e-9


@pytest.mark.parametrize("c", [1e-12, 1e-10, 1.0])
def test_in_algebra_below_unit_scale(c):
    # the gap is relative to ||x|| at every scale, with no unit floor
    shape = AlgebraShape((2, 2))
    y = np.random.default_rng(6).normal(size=(4, 4))
    assert not in_algebra(c * y, shape)
    assert in_algebra(c * compress(y, shape), shape)
