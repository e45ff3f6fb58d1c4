import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projcorr import (
    CgEngine,
    DenseOperator,
    Geometry,
    MaskOperator,
    NoiseModel,
    ParameterError,
    ShapeError,
    UnsupportedConfigError,
    make_engine,
    make_gaussian_blur,
    make_inpainting_mask,
    make_random_projection,
    monte_carlo_noise_error,
    mse,
    noise_bias_trace,
    nullspace_consistency,
    psnr,
    range_residual,
    ssim,
)
from projcorr.metrics import SSIM_K1, SSIM_K2, SSIM_SIGMA, SSIM_WINDOW, format_metric
from projcorr.rng import generator


def ssim_reference(a, b, data_range=1.0):
    """Independent sliding-window implementation (explicit loops)."""
    half = SSIM_WINDOW // 2
    d = np.arange(-half, half + 1, dtype=float)
    g = np.exp(-0.5 * (d / SSIM_SIGMA) ** 2)
    w = np.outer(g, g)
    w /= w.sum()
    c1 = (SSIM_K1 * data_range) ** 2
    c2 = (SSIM_K2 * data_range) ** 2
    h, width = a.shape
    values = []
    for i in range(h - SSIM_WINDOW + 1):
        for j in range(width - SSIM_WINDOW + 1):
            pa = a[i:i + SSIM_WINDOW, j:j + SSIM_WINDOW]
            pb = b[i:i + SSIM_WINDOW, j:j + SSIM_WINDOW]
            mu_a = float((w * pa).sum())
            mu_b = float((w * pb).sum())
            var_a = float((w * pa * pa).sum()) - mu_a**2
            var_b = float((w * pb * pb).sum()) - mu_b**2
            cov = float((w * pa * pb).sum()) - mu_a * mu_b
            values.append(
                ((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                / ((mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2))
            )
    return float(np.mean(values))


class TestMse:
    def test_identical_is_zero(self, rng):
        a = rng.standard_normal(10)
        assert mse(a, a) == 0.0

    def test_unit_example(self):
        assert mse([0.0, 0.0], [1.0, 1.0]) == 1.0

    def test_matches_naive_loop(self, rng):
        a = rng.standard_normal(50)
        b = rng.standard_normal(50)
        naive = sum((ai - bi) ** 2 for ai, bi in zip(a, b)) / 50
        assert mse(a, b) == pytest.approx(naive, abs=1e-14)
        assert mse(a, b) == mse(b, a)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            mse([1.0], [1.0, 2.0])


class TestPsnr:
    def test_identical_is_infinite(self, rng):
        a = rng.random(8)
        assert psnr(a, a) == math.inf

    def test_zero_db(self):
        assert psnr([0.0], [1.0], peak=1.0) == pytest.approx(0.0)

    def test_constant_images(self):
        value = psnr(np.zeros(16), np.full(16, 0.5), peak=1.0)
        assert value == pytest.approx(10 * math.log10(1 / 0.25), abs=1e-12)
        assert value == pytest.approx(6.0206, abs=1e-4)

    def test_invalid_peak(self):
        with pytest.raises(ParameterError):
            psnr([0.0], [1.0], peak=0.0)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=0.9))
    def test_strictly_decreasing_in_mse(self, scale):
        base = np.zeros(16)
        smaller = psnr(base, np.full(16, scale))
        larger = psnr(base, np.full(16, min(scale * 1.5, 1.0)))
        assert smaller > larger


class TestSsim:
    def test_self_similarity_is_one(self, rng):
        a = rng.random((16, 16))
        assert ssim(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self, rng):
        a = rng.random((16, 16))
        b = rng.random((16, 16))
        assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-14)

    def test_matches_reference_implementation(self, rng):
        a = rng.random((16, 16))
        b = np.clip(a + 0.1 * rng.standard_normal((16, 16)), 0, 1)
        assert ssim(a, b) == pytest.approx(ssim_reference(a, b), abs=1e-10)

    def test_bounded(self, rng):
        for _ in range(10):
            a = rng.random((12, 12))
            b = rng.random((12, 12))
            assert -1.0 <= ssim(a, b) <= 1.0

    def test_window_too_large(self, rng):
        with pytest.raises(ParameterError):
            ssim(rng.random((8, 8)), rng.random((8, 8)))

    def test_channels_averaged(self, rng):
        a = rng.random((12, 12, 3))
        b = rng.random((12, 12, 3))
        per_channel = [ssim(a[:, :, c], b[:, :, c]) for c in range(3)]
        assert ssim(a, b) == pytest.approx(np.mean(per_channel), abs=1e-14)

    def test_flat_input_needs_geometry(self, rng):
        g = Geometry(12, 12, 1)
        flat_a = rng.random(g.size)
        flat_b = rng.random(g.size)
        assert ssim(flat_a, flat_b, geometry=g) == pytest.approx(
            ssim(flat_a.reshape(12, 12), flat_b.reshape(12, 12))
        )
        with pytest.raises(ParameterError):
            ssim(flat_a, flat_b)


class TestNullspaceConsistency:
    def test_pinv_output_is_consistent(self, rng):
        op = DenseOperator(rng.standard_normal((3, 6)))
        engine = make_engine(op)
        y = rng.standard_normal(3)
        assert nullspace_consistency(engine, y, engine.pinv_apply(y)) <= 1e-18

    def test_selection_example(self):
        engine = make_engine(MaskOperator(2, [0]))
        assert nullspace_consistency(engine, [3.0], [5.0, 7.0]) == pytest.approx(4.0)

    def test_matches_dense_evaluation(self, rng):
        a = rng.standard_normal((4, 7))
        engine = make_engine(DenseOperator(a))
        y = rng.standard_normal(4)
        out = rng.standard_normal(7)
        expected = np.linalg.norm(a @ (out - np.linalg.pinv(a) @ y)) ** 2
        assert nullspace_consistency(engine, y, out) == pytest.approx(expected, rel=1e-10)

    def test_invariant_under_null_space_shift(self, rng):
        a = rng.standard_normal((3, 7))
        op = DenseOperator(a)
        engine = make_engine(op)
        y = rng.standard_normal(3)
        out = rng.standard_normal(7)
        shift = engine.nullspace_projector_apply(rng.standard_normal(7))
        base = nullspace_consistency(engine, y, out)
        shifted = nullspace_consistency(engine, y, out + shift)
        assert abs(base - shifted) <= 1e-10 * max(base, 1.0)

    def test_range_residual(self, rng):
        a = rng.standard_normal((3, 7))
        op = DenseOperator(a)
        y = rng.standard_normal(3)
        out = rng.standard_normal(7)
        assert range_residual(op, y, out) == pytest.approx(
            np.linalg.norm(a @ out - y) ** 2, rel=1e-12
        )

    def test_range_residual_rejects_short_measurement(self, rng):
        # a length-1 y would otherwise broadcast against A out
        op = DenseOperator(rng.standard_normal((2, 3)))
        with pytest.raises(ShapeError):
            range_residual(op, [0.5], np.ones(3))


class TestNoiseBiasTrace:
    def test_identity_operator(self):
        engine = make_engine(DenseOperator(np.eye(5)))
        assert noise_bias_trace(engine, NoiseModel.isotropic(0.2)) == pytest.approx(
            5 * 0.04, rel=1e-12
        )

    def test_selection_operator(self):
        engine = make_engine(MaskOperator(2, [0]))
        assert noise_bias_trace(engine, NoiseModel.isotropic(0.3)) == pytest.approx(0.09)

    @pytest.mark.parametrize("kind", ["svd", "mask", "blur", "blur_3ch"])
    def test_explicit_formula_dense(self, rng, kind):
        if kind == "svd":
            op = DenseOperator(rng.standard_normal((4, 6)))
        elif kind == "mask":
            op = make_inpainting_mask(Geometry(4, 4, 1), 0.5, seed=3)
        else:
            g = Geometry(6, 6, 3 if kind == "blur_3ch" else 1)
            op = make_gaussian_blur(g, (0.8, 0.5), truncation=2.0)
        engine = make_engine(op)
        pinv = np.linalg.pinv(op.to_dense())
        m = op.m
        noises = [
            NoiseModel.isotropic(0.17),
            NoiseModel.diagonal(rng.uniform(0.01, 0.2, m)),
        ]
        if not kind.startswith("blur"):  # the spectral engine rejects dense noise
            noises.append(NoiseModel.dense(_random_spd(rng, m)))
        for noise in noises:
            cov = _noise_covariance(noise, m)
            expected = float(np.trace(pinv @ cov @ pinv.T))
            assert noise_bias_trace(engine, noise) == pytest.approx(expected, rel=1e-10)

    def test_monte_carlo_agreement(self, rng):
        a = rng.standard_normal((4, 6))
        op = DenseOperator(a)
        engine = make_engine(op)
        noise = NoiseModel.isotropic(0.1)
        trace = noise_bias_trace(engine, noise)
        estimate = monte_carlo_noise_error(engine, op, rng.standard_normal(6), noise,
                                           trials=100_000, seed=99)
        assert abs(estimate - trace) <= 0.05 * trace

    def test_orthogonal_row_mixing_invariance(self, rng):
        # isotropic noise: the trace depends only on singular values, so
        # mixing measurement rows by an orthogonal matrix changes nothing
        a = rng.standard_normal((4, 6))
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        noise = NoiseModel.isotropic(0.25)
        t1 = noise_bias_trace(make_engine(DenseOperator(a)), noise)
        t2 = noise_bias_trace(make_engine(DenseOperator(q @ a)), noise)
        assert t1 == pytest.approx(t2, rel=1e-10)

    def test_spectral_engine_matches_svd(self, rng):
        g = Geometry(8, 8, 2)
        op = make_gaussian_blur(g, (1.0, 0.7), truncation=2.0)
        spectral = make_engine(op, method="spectral_fft")
        svd = make_engine(op, method="svd_dense")
        iso = NoiseModel.isotropic(0.1)
        assert noise_bias_trace(spectral, iso) == pytest.approx(
            noise_bias_trace(svd, iso), rel=1e-8
        )
        diag = NoiseModel.diagonal(rng.uniform(0.01, 0.1, op.m))
        assert noise_bias_trace(spectral, diag) == pytest.approx(
            noise_bias_trace(svd, diag), rel=1e-8
        )
        with pytest.raises(UnsupportedConfigError):
            noise_bias_trace(spectral, NoiseModel.dense(np.eye(op.m)))

    def test_cg_engine_falls_back_to_svd(self, rng):
        op = make_random_projection(16, 4, seed=5)
        cg = CgEngine(op)
        svd = make_engine(op, method="svd_dense")
        noise = NoiseModel.isotropic(0.2)
        before = dict(vars(cg))
        assert noise_bias_trace(cg, noise) == pytest.approx(
            noise_bias_trace(svd, noise), rel=1e-10
        )
        assert vars(cg) == before

    def test_streamed_operator_unsupported(self):
        op = make_random_projection(64, 8, seed=5, materialize_limit=0)
        with pytest.raises(UnsupportedConfigError):
            noise_bias_trace(CgEngine(op), NoiseModel.isotropic(0.1))

    def test_none_noise_is_zero(self, rng):
        engine = make_engine(DenseOperator(rng.standard_normal((3, 5))))
        assert noise_bias_trace(engine, NoiseModel.none()) == 0.0


class TestMonteCarloNoiseError:
    def test_no_noise_is_exactly_zero(self, rng):
        op = DenseOperator(rng.standard_normal((3, 5)))
        engine = make_engine(op)
        assert monte_carlo_noise_error(
            engine, op, rng.standard_normal(5), NoiseModel.none(), trials=10, seed=0
        ) == 0.0

    def test_single_trial_self_consistent(self, rng):
        op = DenseOperator(rng.standard_normal((3, 5)))
        engine = make_engine(op)
        noise = NoiseModel.isotropic(0.2)
        x = rng.standard_normal(5)
        value = monte_carlo_noise_error(engine, op, x, noise, trials=1, seed=31)
        draw = noise.sample(generator(31), 3, 1)[:, 0]
        expected = float(np.linalg.norm(np.linalg.pinv(op.matrix) @ draw) ** 2)
        assert value == pytest.approx(expected, rel=1e-9)

    def test_streamed_operator_matches_materialized_twin(self, rng):
        # both go through one path: A+ applied to the block of noise draws
        streamed = make_random_projection(24, 6, seed=8, materialize_limit=0)
        dense = make_random_projection(24, 6, seed=8)
        noise = NoiseModel.isotropic(0.3)
        x = rng.standard_normal(24)
        values = [
            monte_carlo_noise_error(make_engine(op), op, x, noise, trials=40, seed=12)
            for op in (streamed, dense)
        ]
        assert values[0] == pytest.approx(values[1], rel=1e-10)

    def test_invalid_trials(self, rng):
        op = DenseOperator(rng.standard_normal((2, 3)))
        engine = make_engine(op)
        with pytest.raises(ParameterError):
            monte_carlo_noise_error(engine, op, np.zeros(3), NoiseModel.none(), 0, 0)


class TestFormatting:
    def test_format_metric(self):
        assert format_metric(None) == ""
        assert format_metric(math.inf) == "inf"
        assert format_metric(0.123456789) == "0.123457"
        assert format_metric(1e-05) == "1e-05"
        assert format_metric(120.0) == "120"


def _random_spd(rng, m):
    a = rng.standard_normal((m, m))
    return a @ a.T + m * np.eye(m)


def _noise_covariance(noise, m):
    if noise.form == "isotropic":
        return noise.sigma**2 * np.eye(m)
    if noise.form == "diagonal":
        return np.diag(noise.variances)
    return noise.covariance
