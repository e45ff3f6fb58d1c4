import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projcorr import (
    CircularBlurOperator,
    CorrectionConfig,
    DEFAULT_LAMBDA_GRID,
    DenseOperator,
    Geometry,
    MaskOperator,
    NoiseModel,
    ParameterError,
    conjugate_gradient,
    correct,
    exact_correction,
    lambda_grid_search,
    make_engine,
    make_gaussian_blur,
    make_inpainting_mask,
    make_random_projection,
    regularized_correction,
)


def kkt_solve(a, y, fhat):
    """Constrained least-squares oracle: solve the first-order system

        [2I  A^T] [x  ]   [2 fhat]
        [A    0 ] [mul] = [  y   ]
    """
    m, n = a.shape
    system = np.block([[2.0 * np.eye(n), a.T], [a, np.zeros((m, m))]])
    rhs = np.concatenate([2.0 * fhat, y])
    return np.linalg.solve(system, rhs)[:n]


class TestExactCorrection:
    def test_selection_keeps_free_coordinate(self):
        engine = make_engine(MaskOperator(2, [0]))
        out = exact_correction(engine, [3.0], [5.0, 7.0])
        assert np.allclose(out, [3.0, 7.0], atol=1e-14)

    def test_identity_constraint_determines_everything(self):
        engine = make_engine(DenseOperator(np.eye(2)))
        out = exact_correction(engine, [1.0, 2.0], [9.0, 9.0])
        assert np.allclose(out, [1.0, 2.0], atol=1e-12)

    def test_matches_kkt_oracle(self, full_row_rank_factory, rng):
        for _ in range(20):
            op = full_row_rank_factory(2, 4)
            engine = make_engine(op)
            y = rng.standard_normal(2)
            fhat = rng.standard_normal(4)
            ours = exact_correction(engine, y, fhat)
            oracle = kkt_solve(op.matrix, y, fhat)
            assert np.linalg.norm(ours - oracle) <= 1e-8 * max(np.linalg.norm(oracle), 1.0)

    def test_constraint_satisfaction(self, full_row_rank_factory, rng):
        op = full_row_rank_factory(4, 9)
        engine = make_engine(op)
        for _ in range(20):
            y = rng.standard_normal(4)
            fhat = rng.standard_normal(9)
            out = exact_correction(engine, y, fhat)
            assert np.linalg.norm(op.apply(out) - y) <= 1e-8 * (np.linalg.norm(y) + 1.0)

    def test_consistent_input_left_unchanged(self, full_row_rank_factory, rng):
        # inputs already of the form A+ y + null-space component are fixed points
        op = full_row_rank_factory(3, 7)
        engine = make_engine(op)
        for _ in range(20):
            y = rng.standard_normal(3)
            w = rng.standard_normal(7)
            fhat = engine.pinv_apply(y) + engine.nullspace_projector_apply(w)
            out = exact_correction(engine, y, fhat)
            assert np.linalg.norm(out - fhat) <= 1e-9 * np.linalg.norm(fhat)

    def test_noise_free_dominance(self, full_row_rank_factory, rng):
        op = full_row_rank_factory(3, 8)
        engine = make_engine(op)
        for _ in range(20):
            x = rng.standard_normal(8)
            y = op.apply(x)
            fhat = rng.standard_normal(8)
            out = exact_correction(engine, y, fhat)
            assert np.linalg.norm(out - x) <= np.linalg.norm(fhat - x) + 1e-9

    def test_ideal_decomposition_reconstructs_exactly(self, full_row_rank_factory, rng):
        op = full_row_rank_factory(3, 8)
        engine = make_engine(op)
        for _ in range(20):
            x = rng.standard_normal(8)
            y = op.apply(x)
            fhat = engine.pinv_apply(y) + engine.nullspace_projector_apply(x)
            assert np.linalg.norm(fhat - x) <= 1e-9 * np.linalg.norm(x)


class TestRegularizedCorrection:
    def test_lambda_zero_returns_reconstruction(self, rng):
        op = DenseOperator(rng.standard_normal((3, 5)))
        engine = make_engine(op)
        fhat = rng.standard_normal(5)
        config = CorrectionConfig(mode="regularized", lam=0.0)
        out = regularized_correction(engine, rng.standard_normal(3), fhat, config)
        assert np.array_equal(out, fhat)

    def test_scalar_closed_form_by_hand(self):
        engine = make_engine(DenseOperator([[1.0]]))
        config = CorrectionConfig(
            mode="regularized", lam=1.0, noise=NoiseModel.isotropic(1.0)
        )
        out = regularized_correction(engine, [2.0], [0.0], config)
        assert out[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("noise_builder", [
        lambda rng, m: NoiseModel.isotropic(0.2),
        lambda rng, m: NoiseModel.diagonal(rng.uniform(0.01, 0.3, m)),
        lambda rng, m: NoiseModel.dense(_random_spd(rng, m)),
    ])
    def test_direct_and_cg_agree_and_are_stationary(self, rng, noise_builder):
        a = rng.standard_normal((3, 5))
        op = DenseOperator(a)
        engine = make_engine(op)
        noise = noise_builder(rng, 3)
        lam = 0.01
        y = rng.standard_normal(3)
        fhat = rng.standard_normal(5)
        direct = regularized_correction(
            engine, y, fhat, CorrectionConfig(mode="regularized", lam=lam, noise=noise)
        )
        via_cg = regularized_correction(
            make_engine(op, method="cg_minimum_norm", cg_tol=1e-12), y, fhat,
            CorrectionConfig(mode="regularized", lam=lam, noise=noise),
        )
        assert np.linalg.norm(direct - via_cg) <= 1e-8 * max(np.linalg.norm(direct), 1.0)
        residual = (direct - fhat) + lam * a.T @ noise.inv_apply(a @ direct - y)
        assert np.linalg.norm(residual) <= 1e-8 * (
            np.linalg.norm(fhat) + np.linalg.norm(y) + 1.0
        )

    @pytest.mark.parametrize("op, noise_builder", [
        (make_inpainting_mask(Geometry(6, 5, 2), 0.5, seed=4),
         lambda rng, m: NoiseModel.diagonal(rng.uniform(0.05, 0.2, m))),
        (make_gaussian_blur(Geometry(8, 6, 1), (1.5, 0.7), 2.0),
         lambda rng, m: NoiseModel.dense(_random_spd(rng, m) / (10 * m))),
    ], ids=["mask_diagonal", "blur_dense"])
    def test_dual_solve_matches_dense_solve(self, rng, op, noise_builder):
        engine = make_engine(op, cg_tol=1e-13)
        a = op.to_dense()
        noise = noise_builder(rng, op.m)
        s = noise.covariance if noise.form == "dense" else np.diag(noise.variances)
        y = rng.standard_normal(engine.op.m)
        fhat = rng.standard_normal(engine.op.n)
        lam = 0.5
        out = regularized_correction(
            engine, y, fhat, CorrectionConfig(mode="regularized", lam=lam, noise=noise)
        )
        weighted = lam * a.T @ np.linalg.inv(s)
        ref = np.linalg.solve(np.eye(engine.op.n) + weighted @ a, fhat + weighted @ y)
        assert np.linalg.norm(out - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("method", ["svd_dense", "cg_minimum_norm"])
    @pytest.mark.parametrize("noise_builder", [
        lambda rng, m: NoiseModel.diagonal(rng.uniform(0.05, 0.2, m)),
        lambda rng, m: NoiseModel.dense(_random_spd(rng, m) / (10 * m)),
    ], ids=["diagonal", "dense"])
    def test_covariance_is_applied_never_inverted(self, rng, monkeypatch, method,
                                                  noise_builder):
        def forbidden(*args):
            raise AssertionError("the correction inverted the noise covariance")

        rows = []

        def spy(matvec, b, tol, max_iter):
            rows.append(b.shape[0])
            return conjugate_gradient(matvec, b, tol, max_iter)

        engine = make_engine(DenseOperator(rng.standard_normal((5, 9))), method=method)
        noise = noise_builder(rng, 5)
        monkeypatch.setattr(NoiseModel, "inv_apply", forbidden)
        monkeypatch.setattr("numpy.linalg.solve", forbidden)
        monkeypatch.setattr("projcorr.pinv.conjugate_gradient", spy)
        config = CorrectionConfig(mode="regularized", lam=0.1, noise=noise)
        regularized_correction(
            engine, rng.standard_normal((5, 3)), rng.standard_normal((9, 3)), config
        )
        assert rows == [5]

    def test_large_lambda_approaches_exact_projection(self, full_row_rank_factory, rng):
        op = full_row_rank_factory(2, 4)
        engine = make_engine(op)
        y = rng.standard_normal(2)
        fhat = rng.standard_normal(4)
        config = CorrectionConfig(
            mode="regularized", lam=1e6, noise=NoiseModel.isotropic(1.0)
        )
        reg = regularized_correction(engine, y, fhat, config)
        exact = exact_correction(engine, y, fhat)
        assert np.linalg.norm(reg - exact) <= 1e-3

    def test_tikhonov_reduction_isotropic(self, rng):
        # with covariance sigma^2 I the solution equals the plain ridge form
        a = rng.standard_normal((4, 6))
        engine = make_engine(DenseOperator(a))
        sigma, lam = 0.3, 0.05
        y = rng.standard_normal(4)
        fhat = rng.standard_normal(6)
        config = CorrectionConfig(
            mode="regularized", lam=lam, noise=NoiseModel.isotropic(sigma)
        )
        out = regularized_correction(engine, y, fhat, config)
        scaled = lam / sigma ** 2
        tikhonov = np.linalg.solve(
            np.eye(6) + scaled * a.T @ a, fhat + scaled * a.T @ y
        )
        assert np.linalg.norm(out - tikhonov) <= 1e-10 * max(np.linalg.norm(tikhonov), 1.0)

    def test_data_misfit_monotone_in_lambda(self, rng):
        a = rng.standard_normal((4, 6))
        engine = make_engine(DenseOperator(a))
        noise = NoiseModel.diagonal(rng.uniform(0.05, 0.2, 4))
        y = rng.standard_normal(4)
        fhat = rng.standard_normal(6)
        misfits = []
        for lam in [0.0, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0]:
            out = regularized_correction(
                engine, y, fhat,
                CorrectionConfig(mode="regularized", lam=lam, noise=noise),
            )
            r = a @ out - y
            misfits.append(float(r @ noise.inv_apply(r)))
        assert all(b <= a_ + 1e-10 for a_, b in zip(misfits, misfits[1:]))

    def test_negative_lambda_rejected(self, rng):
        engine = make_engine(DenseOperator(rng.standard_normal((2, 3))))
        with pytest.raises(ParameterError):
            CorrectionConfig(mode="regularized", lam=-1.0)
        good = CorrectionConfig(mode="exact")
        with pytest.raises(ParameterError):
            # bypass config validation to hit the function's own check
            object.__setattr__(good, "lam", -1.0)
            regularized_correction(engine, [1.0, 2.0], [0.0, 0.0, 0.0], good)

    def test_dense_noise_on_streamed_operator(self, rng):
        # the CG path applies A, A^T and S only, so a streamed operator
        # gives the same dense-noise correction as its materialized twin
        streamed = make_random_projection(32, 8, seed=1, materialize_limit=0)
        dense = make_random_projection(32, 8, seed=1)
        config = CorrectionConfig(
            mode="regularized", lam=0.1, noise=NoiseModel.dense(_random_spd(rng, 8)),
        )
        y = rng.standard_normal(8)
        fhat = rng.standard_normal(32)
        out_stream = regularized_correction(
            make_engine(streamed, method="cg_minimum_norm", cg_tol=1e-12), y, fhat, config
        )
        out_dense = regularized_correction(make_engine(dense, cg_tol=1e-12), y, fhat, config)
        assert np.linalg.norm(out_stream - out_dense) <= 1e-8

    def test_matrix_free_cg_path_on_streamed_operator(self, rng):
        streamed = make_random_projection(32, 8, seed=1, materialize_limit=0)
        dense = make_random_projection(32, 8, seed=1)
        noise = NoiseModel.isotropic(0.1)
        y = rng.standard_normal(8)
        fhat = rng.standard_normal(32)
        out_stream = regularized_correction(
            make_engine(streamed, method="cg_minimum_norm", cg_tol=1e-12), y, fhat,
            CorrectionConfig(mode="regularized", lam=0.02, noise=noise),
        )
        out_direct = regularized_correction(
            make_engine(dense, method="cg_minimum_norm"), y, fhat,
            CorrectionConfig(mode="regularized", lam=0.02, noise=noise),
        )
        assert np.linalg.norm(out_stream - out_direct) <= 1e-8


def _dense_engine(rng, m, n, rank):
    a = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    return make_engine(DenseOperator(a))


def _same_state(engine, before):
    after = vars(engine)
    return after.keys() == before.keys() and all(after[k] is v for k, v in before.items())


class TestClosedFormFilter:
    @pytest.mark.parametrize("build", [
        lambda rng: _dense_engine(rng, 4, 7, 4),
        lambda rng: _dense_engine(rng, 5, 7, 2),    # rank-deficient, wide
        lambda rng: _dense_engine(rng, 8, 5, 3),    # rank-deficient, tall
        lambda rng: make_engine(make_inpainting_mask(Geometry(6, 5, 2), 0.5, seed=4)),
        lambda rng: make_engine(make_gaussian_blur(Geometry(8, 6, 1), (1.5, 0.7), 2.0)),
        # asymmetric taps: a complex transfer function
        lambda rng: make_engine(CircularBlurOperator(
            Geometry(6, 8, 3), [[0.5, 0.2], [0.1, 0.2]], origin=(0, 1))),
    ], ids=["svd", "svd_rank_deficient_wide", "svd_rank_deficient_tall", "mask",
            "spectral_1ch", "spectral_3ch"])
    @pytest.mark.parametrize("noise", [NoiseModel.none(), NoiseModel.isotropic(0.1)],
                             ids=["none", "isotropic"])
    def test_matches_dense_solve(self, rng, monkeypatch, build, noise):
        def no_cg(*args):
            raise AssertionError("closed-form engine fell back to conjugate gradient")

        monkeypatch.setattr("projcorr.pinv.conjugate_gradient", no_cg)
        engine = build(rng)
        a = engine.op.to_dense()
        y = rng.standard_normal(engine.op.m)
        fhat = rng.standard_normal(engine.op.n)
        lam = 0.05
        out = regularized_correction(
            engine, y, fhat, CorrectionConfig(mode="regularized", lam=lam, noise=noise)
        )
        weight = lam if noise.form == "none" else lam / noise.sigma ** 2
        ref = np.linalg.solve(np.eye(engine.op.n) + weight * a.T @ a, fhat + weight * a.T @ y)
        assert np.linalg.norm(out - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_blur_grid_search_factorizes_nothing(self, rng, monkeypatch):
        from projcorr.experiments import make_smooth_images

        def forbidden(*args, **kwargs):
            raise AssertionError("dense factorization on the spectral path")

        g = Geometry(16, 16, 1)
        op = make_gaussian_blur(g, (1.5, 0.5))
        engine = make_engine(op)
        for target in ("projcorr.correction.cho_factor", "projcorr.noise.cho_factor",
                       "scipy.linalg.cho_factor", "numpy.linalg.svd",
                       "numpy.linalg.solve", "numpy.linalg.cholesky"):
            monkeypatch.setattr(target, forbidden)
        monkeypatch.setattr(type(op), "to_dense", forbidden)
        before = dict(vars(engine))
        sigma = 0.05
        pairs = []
        for x in make_smooth_images(g, 3, seed=2):
            pairs.append((x, op.apply(x) + sigma * rng.standard_normal(op.m)))
        result = lambda_grid_search(engine, pairs, op.adjoint,
                                    noise=NoiseModel.isotropic(sigma))
        assert [row["lambda"] for row in result.table] == list(DEFAULT_LAMBDA_GRID)
        assert _same_state(engine, before)

    @pytest.mark.parametrize("geometry", [Geometry(128, 128, 1), Geometry(64, 64, 3)],
                             ids=["128x128", "64x64x3"])
    def test_large_blur_is_stationary(self, rng, geometry):
        # both operators exceed the dense materialization limit
        op = make_gaussian_blur(geometry, (3.0, 0.15))
        assert not op.materializable()
        engine = make_engine(op)
        sigma, lam = 0.05, 1e-3
        fhat = rng.random(op.n)
        y = op.apply(rng.random(op.n)) + sigma * rng.standard_normal(op.m)
        out = regularized_correction(
            engine, y, fhat,
            CorrectionConfig(mode="regularized", lam=lam, noise=NoiseModel.isotropic(sigma)),
        )
        weight = lam / sigma ** 2
        residual = (out - fhat) + weight * op.adjoint(op.apply(out) - y)
        assert np.linalg.norm(residual) <= 1e-8 * (
            np.linalg.norm(fhat) + np.linalg.norm(y) + 1.0
        )


class TestCorrectDispatch:
    def test_exact_mode(self):
        engine = make_engine(MaskOperator(2, [0]))
        config = CorrectionConfig(mode="exact")
        assert np.allclose(correct(engine, [3.0], [5.0, 7.0], config), [3.0, 7.0])

    def test_regularized_lambda_zero(self, rng):
        engine = make_engine(DenseOperator(rng.standard_normal((2, 4))))
        fhat = rng.standard_normal(4)
        config = CorrectionConfig(mode="regularized", lam=0.0)
        assert np.array_equal(correct(engine, rng.standard_normal(2), fhat, config), fhat)

    def test_regularized_limit_matches_exact(self, full_row_rank_factory, rng):
        op = full_row_rank_factory(2, 4)
        engine = make_engine(op)
        y = rng.standard_normal(2)
        fhat = rng.standard_normal(4)
        big = CorrectionConfig(mode="regularized", lam=1e6, noise=NoiseModel.isotropic(1.0))
        exact_cfg = CorrectionConfig(mode="exact")
        assert np.linalg.norm(
            correct(engine, y, fhat, big) - correct(engine, y, fhat, exact_cfg)
        ) <= 1e-3

    def test_exact_mode_with_noise_logs_note(self, rng, caplog):
        engine = make_engine(DenseOperator(rng.standard_normal((2, 4))))
        config = CorrectionConfig(mode="exact", noise=NoiseModel.isotropic(0.1))
        with caplog.at_level(logging.INFO, logger="projcorr.correction"):
            correct(engine, rng.standard_normal(2), rng.standard_normal(4), config)
        assert any("noisy" in rec.message for rec in caplog.records)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ParameterError):
            CorrectionConfig(mode="projective")

    @pytest.mark.parametrize("mode", ["exact", "regularized"])
    @pytest.mark.parametrize("target", ["y", "fhat"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, rng, mode, target, bad):
        op = make_gaussian_blur(Geometry(32, 32, 1), (3.0, 0.15))
        engine = make_engine(op)
        inputs = {"y": rng.random(op.m), "fhat": rng.random(op.n)}
        inputs[target][5] = bad
        config = CorrectionConfig(mode=mode, lam=1e-3, noise=NoiseModel.isotropic(0.05))
        with pytest.raises(ParameterError, match="non-finite"):
            correct(engine, inputs["y"], inputs["fhat"], config)


class TestLambdaGridSearch:
    def test_perfect_reconstructor_ties_to_smallest(self, full_row_rank_factory, rng):
        op = full_row_rank_factory(3, 6)
        engine = make_engine(op)
        xs = [rng.standard_normal(6) for _ in range(4)]
        pairs = [(x, op.apply(x)) for x in xs]
        exact = {tuple(op.apply(x)): x for x in xs}

        def perfect(y):
            return exact[tuple(y)]

        result = lambda_grid_search(engine, pairs, perfect, grid=[0.5, 0.0, 0.01])
        assert result.best_lambda == 0.0
        # all weights agree up to solver round-off; the tie goes to the smallest
        scores = [row["mean_psnr"] for row in result.table]
        assert all(s == np.inf or s > 250.0 for s in scores)

    def test_exact_ties_break_to_smallest(self, rng):
        # identity operator with y = fhat: the closed-form step
        # lam (y - fhat) / (1 + lam) is exactly zero at every grid point
        engine = make_engine(DenseOperator(np.eye(4)))
        x = rng.standard_normal(4)
        result = lambda_grid_search(
            engine, [(x, x.copy())], lambda y: y.copy(), grid=[15.0, 0.0, 3.0]
        )
        assert all(row["mean_psnr"] == np.inf for row in result.table)
        assert result.best_lambda == 0.0

    def test_range_error_prefers_largest_lambda_noise_free(self, full_row_rank_factory, rng):
        # reconstruction carries a pure measured-component error; with clean
        # measurements, stronger consistency weighting is monotonically better
        op = full_row_rank_factory(3, 6)
        engine = make_engine(op)
        pairs = []
        recons = {}
        for _ in range(4):
            x = rng.standard_normal(6)
            y = op.apply(x)
            fhat = x + op.adjoint(rng.standard_normal(3))
            pairs.append((x, y))
            recons[tuple(y)] = fhat
        result = lambda_grid_search(
            engine, pairs, lambda y: recons[tuple(y)], grid=list(DEFAULT_LAMBDA_GRID)
        )
        assert result.best_lambda == max(DEFAULT_LAMBDA_GRID)
        psnrs = [row["mean_psnr"] for row in result.table]
        assert all(b >= a for a, b in zip(psnrs, psnrs[1:]))

    def test_default_grid_values(self):
        assert DEFAULT_LAMBDA_GRID == (0.0, 1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1)

    def test_ssim_objective_flag(self, rng):
        from projcorr import Geometry, make_inpainting_mask

        g = Geometry(16, 16, 1)
        op = make_inpainting_mask(g, 0.5, seed=3)
        engine = make_engine(op)
        from projcorr.experiments import make_smooth_images

        pairs = []
        recons = {}
        for i, x in enumerate(make_smooth_images(g, 3, seed=9)):
            y = op.apply(x)
            pairs.append((x, y))
            recons[i] = x + 0.2 * op.adjoint(rng.standard_normal(op.m))
        counter = iter(range(3))
        result = lambda_grid_search(
            engine, pairs, lambda y: recons[next(counter)],
            grid=[0.0, 0.1, 1.0], objective="ssim",
        )
        assert all("mean_ssim" in row for row in result.table)
        assert result.best_lambda in (0.0, 0.1, 1.0)

    def test_ssim_objective_needs_geometry(self, rng):
        engine = make_engine(DenseOperator(rng.standard_normal((2, 3))))
        x = rng.standard_normal(3)
        with pytest.raises(ParameterError):
            lambda_grid_search(engine, [(x, engine.op.apply(x))], lambda y: x,
                               grid=[0.0], objective="ssim")

    def test_empty_inputs_rejected(self, rng):
        engine = make_engine(DenseOperator(rng.standard_normal((2, 3))))
        with pytest.raises(ParameterError):
            lambda_grid_search(engine, [], lambda y: y, grid=[0.0])
        x = rng.standard_normal(3)
        with pytest.raises(ParameterError):
            lambda_grid_search(engine, [(x, engine.op.apply(x))], lambda y: x, grid=[])
        with pytest.raises(ParameterError):
            lambda_grid_search(engine, [(x, engine.op.apply(x))], lambda y: x, grid=[-1.0])


def _random_spd(rng, m):
    a = rng.standard_normal((m, m))
    return a @ a.T + m * np.eye(m)


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=5),
    extra=st.integers(min_value=0, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_exact_correction_properties(m, extra, seed):
    # constraint satisfaction and error dominance hold for any full-row-rank
    # operator, measurement, and reconstruction
    rng = np.random.default_rng(seed)
    n = m + extra
    a = rng.standard_normal((m, n))
    if np.linalg.svd(a, compute_uv=False)[-1] < 0.3:
        return
    op = DenseOperator(a)
    engine = make_engine(op)
    x = rng.standard_normal(n)
    y = op.apply(x)
    fhat = rng.standard_normal(n)
    out = exact_correction(engine, y, fhat)
    assert np.linalg.norm(op.apply(out) - y) <= 1e-8 * (np.linalg.norm(y) + 1.0)
    assert np.linalg.norm(out - x) <= np.linalg.norm(fhat - x) + 1e-9


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=5),
    extra=st.integers(min_value=0, max_value=5),
    lam=st.floats(min_value=1e-4, max_value=10.0),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_regularized_stationarity_property(m, extra, lam, seed):
    rng = np.random.default_rng(seed)
    n = m + extra
    a = rng.standard_normal((m, n))
    op = DenseOperator(a)
    engine = make_engine(op)
    noise = NoiseModel.isotropic(float(rng.uniform(0.05, 1.0)))
    y = rng.standard_normal(m)
    fhat = rng.standard_normal(n)
    out = regularized_correction(
        engine, y, fhat, CorrectionConfig(mode="regularized", lam=lam, noise=noise)
    )
    residual = (out - fhat) + lam * a.T @ noise.inv_apply(a @ out - y)
    assert np.linalg.norm(residual) <= 1e-8 * (
        np.linalg.norm(fhat) + np.linalg.norm(y) + 1.0
    )
