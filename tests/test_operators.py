import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projcorr import (
    CircularBlurOperator,
    DegenerateOperatorError,
    DenseOperator,
    Geometry,
    MaskOperator,
    ParameterError,
    ShapeError,
    make_gaussian_blur,
    make_inpainting_mask,
    make_random_projection,
    operator_norm,
)

# m for geometry 16x16x1, p=0.5, seed=7, frozen from one generator run;
# the binomial 3-sigma band for 256 pixels at p=0.5 is [104, 152].
GOLDEN_MASK_M_16x16_P05_SEED7 = 120


def dense_circulant_oracle(op):
    """Materialize a circular-filter operator column by column from apply."""
    cols = np.zeros((op.m, op.n))
    e = np.zeros(op.n)
    for j in range(op.n):
        e[j] = 1.0
        cols[:, j] = op.apply(e)
        e[j] = 0.0
    return cols


class TestApplyAdjointExamples:
    def test_mask_apply_selects(self):
        op = MaskOperator(2, [0])
        assert np.array_equal(op.apply([4.0, 9.0]), [4.0])

    def test_dense_identity_apply(self):
        op = DenseOperator(np.eye(2))
        assert np.array_equal(op.apply([1.0, 2.0]), [1.0, 2.0])

    def test_blur_1d_hand_convolution(self):
        # taps at offsets 0 and 1 on a length-4 circle
        op = CircularBlurOperator(Geometry(1, 4, 1), [[0.5, 0.5]], origin=(0, 0))
        out = op.apply([1.0, 0.0, 0.0, 0.0])
        assert np.allclose(out, [0.5, 0.0, 0.0, 0.5], atol=1e-14)
        # and against the dense materialization of the same operator
        dense = dense_circulant_oracle(op)
        assert np.allclose(out, dense @ np.array([1.0, 0.0, 0.0, 0.0]), atol=1e-14)

    def test_mask_adjoint_scatters(self):
        op = MaskOperator(2, [0])
        assert np.array_equal(op.adjoint([4.0]), [4.0, 0.0])

    def test_dense_identity_adjoint(self):
        op = DenseOperator(np.eye(2))
        assert np.array_equal(op.adjoint([1.0, 2.0]), [1.0, 2.0])

    def test_inner_product_oracle_dense(self, rng):
        op = DenseOperator(rng.standard_normal((3, 5)))
        u = rng.standard_normal(3)
        for _ in range(100):
            x = rng.standard_normal(5)
            assert op.apply(x) @ u == pytest.approx(x @ op.adjoint(u), abs=1e-12)

    def test_dimension_mismatch(self):
        op = MaskOperator(4, [1, 2])
        with pytest.raises(ShapeError):
            op.apply([1.0, 2.0, 3.0])
        with pytest.raises(ShapeError):
            op.adjoint([1.0])


class TestAdjointConsistencyInvariant:
    @pytest.fixture
    def operators(self, rng):
        g = Geometry(8, 8, 2)
        return [
            DenseOperator(rng.standard_normal((5, 9))),
            make_inpainting_mask(g, 0.4, seed=11),
            make_gaussian_blur(g, (1.0, 0.6), truncation=2.0),
            make_random_projection(g.size, 20, seed=5, geometry=g),
        ]

    def test_adjoint_consistency_per_kind(self, operators, rng):
        for op in operators:
            for _ in range(100):
                x = rng.standard_normal(op.n)
                u = rng.standard_normal(op.m)
                lhs = op.apply(x) @ u
                rhs = x @ op.adjoint(u)
                bound = 1e-10 * (np.linalg.norm(x) * np.linalg.norm(u) + 1.0)
                assert abs(lhs - rhs) <= bound

    def test_linearity(self, operators, rng):
        for op in operators:
            x1 = rng.standard_normal(op.n)
            x2 = rng.standard_normal(op.n)
            a, b = 0.7, -1.3
            combined = op.apply(a * x1 + b * x2)
            split = a * op.apply(x1) + b * op.apply(x2)
            assert np.linalg.norm(combined - split) <= 1e-10 * (
                np.linalg.norm(combined) + 1.0
            )

    def test_determinism_bit_identical(self, rng):
        g = Geometry(8, 8, 1)
        x = rng.standard_normal(g.size)
        for build in (
            lambda: make_inpainting_mask(g, 0.5, seed=3),
            lambda: make_gaussian_blur(g, (1.2, 0.7), truncation=2.0),
            lambda: make_random_projection(g.size, 10, seed=3),
        ):
            first = build().apply(x)
            second = build().apply(x)
            assert np.array_equal(first, second)


class TestInpaintingMask:
    def test_keep_probability_one_is_identity_like(self):
        g = Geometry(4, 4, 1)
        op = make_inpainting_mask(g, 1.0, seed=0)
        assert op.m == op.n

    def test_keep_probability_zero_degenerate(self):
        with pytest.raises(DegenerateOperatorError):
            make_inpainting_mask(Geometry(4, 4, 1), 0.0, seed=0)

    def test_invalid_probability(self):
        with pytest.raises(ParameterError):
            make_inpainting_mask(Geometry(4, 4, 1), 1.5, seed=0)

    def test_golden_m_16x16(self):
        op = make_inpainting_mask(Geometry(16, 16, 1), 0.5, seed=7)
        assert 64 <= op.m <= 192
        assert op.m == GOLDEN_MASK_M_16x16_P05_SEED7

    def test_channels_share_mask(self):
        g = Geometry(4, 4, 3)
        op = make_inpainting_mask(g, 0.5, seed=2)
        assert op.m % 3 == 0
        pixels = op.keep.reshape(-1, 3)
        assert np.array_equal(pixels[:, 1], pixels[:, 0] + 1)
        assert np.array_equal(pixels[:, 2], pixels[:, 0] + 2)

    def test_per_channel_mask_flag(self):
        g = Geometry(6, 6, 3)
        shared = make_inpainting_mask(g, 0.5, seed=2, share_channels=True)
        independent = make_inpainting_mask(g, 0.5, seed=2, share_channels=False)
        assert not np.array_equal(shared.keep, independent.keep)

    def test_rows_orthonormal(self):
        op = make_inpainting_mask(Geometry(5, 5, 1), 0.6, seed=4)
        a = op.to_dense()
        assert np.allclose(a @ a.T, np.eye(op.m))

    def test_keep_set_strictly_increasing(self):
        op = make_inpainting_mask(Geometry(16, 16, 2), 0.5, seed=9)
        assert np.all(np.diff(op.keep) > 0)
        with pytest.raises(ParameterError):
            MaskOperator(8, [3, 3])


class TestGaussianBlur:
    def test_near_delta_kernel_is_identity(self, rng):
        g = Geometry(8, 8, 1)
        op = make_gaussian_blur(g, (1e-6, 1e-6))
        x = rng.random(g.size)
        assert np.linalg.norm(op.apply(x) - x) <= 1e-9

    def test_constant_image_preserved(self):
        g = Geometry(8, 8, 1)
        op = make_gaussian_blur(g, (1.0, 0.5), truncation=2.0)
        c = np.full(g.size, 0.37)
        assert np.allclose(op.apply(c), c, atol=1e-12)

    def test_kernel_sums_to_one(self):
        op = make_gaussian_blur(Geometry(32, 32, 1), (3.0, 0.15))
        assert abs(op.kernel.sum() - 1.0) <= 1e-12

    def test_matches_dense_circulant_oracle(self, rng):
        # anisotropic kernel on an 8x8 image; truncation 1 keeps taps inside
        g = Geometry(8, 8, 1)
        op = make_gaussian_blur(g, (3.0, 0.15), truncation=1.0)
        dense = dense_circulant_oracle(op)
        for _ in range(5):
            x = rng.standard_normal(g.size)
            assert np.linalg.norm(op.apply(x) - dense @ x) <= 1e-10

    @pytest.mark.parametrize("channels", [1, 3])
    def test_to_dense_is_column_stack_of_applies(self, channels):
        op = make_gaussian_blur(Geometry(8, 6, channels), (1.3, 0.6), truncation=2.0)
        assert np.array_equal(op.to_dense(), dense_circulant_oracle(op))

    def test_kernel_larger_than_image_error(self):
        with pytest.raises(ParameterError):
            make_gaussian_blur(Geometry(8, 8, 1), (3.0, 0.15), truncation=4.0)

    def test_invalid_sigma_and_truncation(self):
        with pytest.raises(ParameterError):
            make_gaussian_blur(Geometry(8, 8, 1), (0.0, 1.0))
        with pytest.raises(ParameterError):
            make_gaussian_blur(Geometry(8, 8, 1), (1.0, 1.0), truncation=0.5)

    def test_commutes_with_circular_shifts(self, rng):
        g = Geometry(8, 8, 1)
        op = make_gaussian_blur(g, (1.3, 0.6), truncation=2.0)
        x = rng.random((8, 8))

        def shift(img, dr, dc):
            return np.roll(np.roll(img, dr, axis=0), dc, axis=1)

        for dr, dc in [(1, 0), (0, 3), (5, 2)]:
            blurred_shifted = op.apply(shift(x, dr, dc).ravel()).reshape(8, 8)
            shifted_blurred = shift(op.apply(x.ravel()).reshape(8, 8), dr, dc)
            assert np.linalg.norm(blurred_shifted - shifted_blurred) <= 1e-10

    def test_multichannel_acts_per_channel(self, rng):
        g = Geometry(8, 8, 3)
        op = make_gaussian_blur(g, (1.0, 1.0), truncation=2.0)
        g1 = Geometry(8, 8, 1)
        op1 = make_gaussian_blur(g1, (1.0, 1.0), truncation=2.0)
        img = rng.random((8, 8, 3))
        out = op.apply(img.ravel()).reshape(8, 8, 3)
        for c in range(3):
            assert np.allclose(out[:, :, c], op1.apply(img[:, :, c].ravel()).reshape(8, 8))


class TestToDense:
    # to_dense fills the matrix from identity blocks of TO_DENSE_BLOCK columns;
    # 585 columns leave a last block of 73
    @pytest.mark.parametrize("make_op", [
        lambda: make_gaussian_blur(Geometry(15, 13, 3), (1.3, 0.6), truncation=2.0),
        lambda: make_inpainting_mask(Geometry(15, 13, 3), 0.5, seed=7),
        lambda: make_gaussian_blur(Geometry(32, 32, 1), (3.0, 0.15)),
    ], ids=["blur_585", "mask_585", "blur_criterion8"])
    def test_equals_apply_to_identity(self, make_op):
        op = make_op()
        assert np.array_equal(op.to_dense(), op.apply(np.eye(op.n)))

    def test_peak_memory_is_a_fraction_above_the_matrix(self):
        op = make_gaussian_blur(Geometry(32, 32, 1), (3.0, 0.15))
        tracemalloc.start()
        try:
            dense = op.to_dense()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * dense.nbytes


class TestRandomProjection:
    def test_one_by_one_is_sign(self):
        for seed in range(5):
            op = make_random_projection(1, 1, seed=seed)
            a = op.to_dense()[0, 0]
            assert a in (-1.0, 1.0)
            assert op.apply([2.0])[0] == pytest.approx(2.0 * a)

    def test_streamed_equals_materialized(self, rng):
        streamed = make_random_projection(8, 4, seed=3, materialize_limit=0)
        dense = make_random_projection(8, 4, seed=3)
        assert streamed._dense is None and dense._dense is not None
        # identical generated rows; applies agree to summation-order round-off
        assert np.array_equal(streamed.apply(np.eye(8)), dense.to_dense())
        x = rng.standard_normal(8)
        u = rng.standard_normal(4)
        assert np.allclose(streamed.apply(x), dense.apply(x), rtol=1e-12, atol=1e-14)
        assert np.allclose(streamed.adjoint(u), dense.adjoint(u), rtol=1e-12, atol=1e-14)

    def test_materialized_adjoint_matches_dense_transpose(self, rng):
        op = make_random_projection(64, 16, seed=5)
        assert op._dense is not None
        for u in (rng.standard_normal(16), rng.standard_normal((16, 5))):
            want = op.to_dense().T @ u
            got = op.adjoint(u)
            assert got.shape == want.shape
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_entries_are_scaled_signs(self):
        op = make_random_projection(16, 4, seed=1)
        assert np.all(np.isin(op.to_dense() * 2.0, [-1.0, 1.0]))

    def test_gaussian_family_flag(self):
        op = make_random_projection(16, 4, seed=1, family="gaussian")
        values = op.to_dense() * 2.0
        assert not np.all(np.isin(values, [-1.0, 1.0]))

    def test_compression_ratios(self):
        # desk-scale stand-in and the full-scale references, computed not asserted
        op = make_random_projection(4096, 512, seed=0)
        assert op.m / op.n == pytest.approx(0.125)
        assert 512 / (256 * 256 * 3) == pytest.approx(0.0026, abs=1e-4)
        assert 512 / (256 * 256) == pytest.approx(0.0078, abs=1e-4)

    def test_m_larger_than_n_rejected(self):
        with pytest.raises(ParameterError):
            make_random_projection(4, 5, seed=0)
        with pytest.raises(ParameterError):
            make_random_projection(4, 0, seed=0)

    def test_bit_identical_across_constructions(self):
        a = make_random_projection(32, 8, seed=42).to_dense()
        b = make_random_projection(32, 8, seed=42).to_dense()
        assert np.array_equal(a, b)


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=6),
    extra=st.integers(min_value=0, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_adjoint_consistency_property(m, extra, seed):
    rng = np.random.default_rng(seed)
    op = DenseOperator(rng.standard_normal((m, m + extra)))
    x = rng.standard_normal(op.n)
    u = rng.standard_normal(op.m)
    bound = 1e-10 * (np.linalg.norm(x) * np.linalg.norm(u) + 1.0)
    assert abs(op.apply(x) @ u - x @ op.adjoint(u)) <= bound


def test_operator_norm_matches_svd(rng):
    a = rng.standard_normal((6, 9))
    op = DenseOperator(a)
    assert operator_norm(op) == pytest.approx(np.linalg.svd(a, compute_uv=False)[0], rel=1e-8)


def test_non_finite_signal_rejected():
    from projcorr.operators import as_vector

    with pytest.raises(ParameterError):
        as_vector([1.0, np.nan])
    with pytest.raises(ShapeError):
        as_vector([1.0, 2.0], length=3)
