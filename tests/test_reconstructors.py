import numpy as np
import pytest

from projcorr import (
    AdjointReconstructor,
    Dataset,
    DenseOperator,
    DivergenceError,
    ExternalReconstructor,
    LearnedLinearReconstructor,
    MaskOperator,
    MissingOutputError,
    ParameterError,
    PinvReconstructor,
    ShapeError,
    TikhonovReconstructor,
    exact_correction,
    fit_learned_linear,
    gradient_descent,
    gradient_lipschitz,
    make_dataset,
    make_engine,
    train_epochs,
)
from projcorr.tensorio import write_nit1

from conftest import make_oracle_reconstructor
from test_pinv import _record_calls


def dataset_mse(recon, dataset):
    total = 0.0
    for x, y in dataset:
        r = recon(y) - x
        total += float(r @ r) / x.size
    return total / len(dataset)


class TestReconstructKinds:
    def test_pinv_on_mask(self):
        op = MaskOperator(2, [0])
        recon = PinvReconstructor(make_engine(op))
        assert np.array_equal(recon([4.0]), [4.0, 0.0])

    def test_adjoint(self, rng):
        a = rng.standard_normal((3, 5))
        recon = AdjointReconstructor(DenseOperator(a))
        y = rng.standard_normal(3)
        assert np.allclose(recon(y), a.T @ y)

    def test_tikhonov_huge_alpha_vanishes(self, rng):
        a = rng.standard_normal((3, 5))
        op = DenseOperator(a)
        recon = TikhonovReconstructor(make_engine(op), alpha=1e12)
        y = rng.standard_normal(3)
        assert np.linalg.norm(recon(y)) <= 1e-9 * np.linalg.norm(a.T @ y)

    @pytest.mark.parametrize("method", ["svd_dense", "cg_minimum_norm"])
    def test_tikhonov_matches_normal_equations(self, rng, method):
        a = rng.standard_normal((4, 7))
        recon = TikhonovReconstructor(make_engine(DenseOperator(a), method=method), 0.3)
        y = rng.standard_normal(4)
        ref = np.linalg.solve(a.T @ a + 0.3 * np.eye(7), a.T @ y)
        assert np.linalg.norm(recon(y) - ref) <= 1e-9 * np.linalg.norm(ref)

    def test_tikhonov_on_cg_engine_applies_a_only_in_its_iterations(self, rng):
        # Tikhonov starts from fhat = 0, so no product A fhat is formed: every
        # op.apply is the one inside a CG iteration's Gram product
        op = DenseOperator(rng.standard_normal((6, 11)))
        engine = make_engine(op, method="cg_minimum_norm")
        applies = _record_calls(op, "apply")
        grams = _record_calls(engine, "_gram_apply")
        TikhonovReconstructor(engine, 0.1)(rng.standard_normal((6, 3)))
        assert len(grams) > 0
        assert len(applies) == len(grams)

    def test_tikhonov_requires_positive_alpha(self, rng):
        engine = make_engine(DenseOperator(rng.standard_normal((2, 3))))
        with pytest.raises(ParameterError):
            TikhonovReconstructor(engine, alpha=0.0)

    def test_learned_with_pinv_weights_matches_pinv(self, rng):
        a = rng.standard_normal((3, 5))
        op = DenseOperator(a)
        engine = make_engine(op)
        learned = LearnedLinearReconstructor(np.linalg.pinv(a), np.zeros(5), op)
        for _ in range(10):
            y = rng.standard_normal(3)
            assert np.linalg.norm(learned(y) - engine.pinv_apply(y)) <= 1e-9

    def test_learned_shape_validation(self, rng):
        op = DenseOperator(rng.standard_normal((3, 5)))
        with pytest.raises(ShapeError):
            LearnedLinearReconstructor(np.zeros((4, 3)), np.zeros(4), op)
        with pytest.raises(ShapeError):
            LearnedLinearReconstructor(np.zeros((5, 3)), np.zeros(2), op)

    def test_external_replays_files(self, tmp_path, rng):
        stored = rng.standard_normal(6)
        write_nit1(tmp_path / "recon_img0000.nit1", stored)
        recon = ExternalReconstructor(tmp_path, n=6)
        out = recon(np.zeros(3), image_id="img0000")
        assert np.allclose(out, stored, atol=1e-6)

    def test_external_missing_id_raises(self, tmp_path):
        recon = ExternalReconstructor(tmp_path)
        with pytest.raises(MissingOutputError):
            recon(np.zeros(3), image_id="img0042")

    def test_external_needs_id(self, tmp_path):
        recon = ExternalReconstructor(tmp_path)
        with pytest.raises(ParameterError):
            recon(np.zeros(3))


class TestFitLearnedLinear:
    def test_invertible_operator_exact_fit(self, rng):
        a = rng.standard_normal((5, 5)) + 5 * np.eye(5)
        op = DenseOperator(a)
        xs = [rng.standard_normal(5) for _ in range(12)]
        dataset = make_dataset(op, xs)
        recon = fit_learned_linear(op, dataset, alpha=0.0)
        assert dataset_mse(recon, dataset) <= 1e-12

    def test_single_pair_bias_absorbs_everything(self, rng):
        op = DenseOperator(rng.standard_normal((3, 5)))
        dataset = make_dataset(op, [rng.standard_normal(5)])
        recon = fit_learned_linear(op, dataset, alpha=0.0)
        assert dataset_mse(recon, dataset) <= 1e-12

    def test_subspace_data_beats_pinv_on_held_out(self, rng):
        # noise-free signals from a k-dim subspace with k <= m: the fitted
        # affine map can invert on the subspace, the pseudoinverse cannot
        m, n, k = 4, 10, 3
        op = DenseOperator(rng.standard_normal((m, n)))
        basis = np.linalg.qr(rng.standard_normal((n, k)))[0]
        train = make_dataset(op, [basis @ rng.standard_normal(k) for _ in range(30)])
        held_out = make_dataset(op, [basis @ rng.standard_normal(k) for _ in range(10)])
        learned = fit_learned_linear(op, train, alpha=1e-10)
        pinv = PinvReconstructor(make_engine(op))
        assert dataset_mse(learned, held_out) < dataset_mse(pinv, held_out)

    def test_fit_dominates_pinv_on_training_set(self, rng):
        op = DenseOperator(rng.standard_normal((4, 8)))
        dataset = make_dataset(op, [rng.standard_normal(8) for _ in range(20)],
                               noise_sigma=0.05, seed=3)
        learned = fit_learned_linear(op, dataset, alpha=0.0)
        pinv = PinvReconstructor(make_engine(op))
        assert dataset_mse(learned, dataset) <= dataset_mse(pinv, dataset) + 1e-9

    def test_local_optimality_spot_check(self, rng):
        op = DenseOperator(rng.standard_normal((3, 6)))
        dataset = make_dataset(op, [rng.standard_normal(6) for _ in range(15)],
                               noise_sigma=0.1, seed=5)
        recon = fit_learned_linear(op, dataset, alpha=0.0)
        base = dataset_mse(recon, dataset)
        for _ in range(10):
            perturbed = LearnedLinearReconstructor(
                recon.weights + 1e-4 * rng.standard_normal(recon.weights.shape),
                recon.bias + 1e-4 * rng.standard_normal(recon.bias.shape),
                op,
            )
            assert dataset_mse(perturbed, dataset) >= base - 1e-12

    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    def test_fewer_pairs_than_measurements(self, rng, alpha):
        # N = 4 pairs, m = 9 measurements: the m x m Gram matrix is singular
        op = DenseOperator(rng.standard_normal((9, 6)))
        dataset = make_dataset(op, [rng.standard_normal(6) for _ in range(4)],
                               noise_sigma=0.1, seed=11)
        recon = fit_learned_linear(op, dataset, alpha=alpha)
        x_mat, y_mat = dataset.signal_matrix(), dataset.measurement_matrix()
        xc = x_mat - x_mat.mean(axis=1, keepdims=True)
        yc = y_mat - y_mat.mean(axis=1, keepdims=True)
        if alpha == 0.0:
            want = xc @ np.linalg.pinv(yc)
        else:
            want = np.linalg.solve(yc @ yc.T + alpha * np.eye(op.m), yc @ xc.T).T
        assert np.linalg.norm(recon.weights - want) <= 1e-10 * np.linalg.norm(want)
        want_bias = x_mat.mean(axis=1) - want @ y_mat.mean(axis=1)
        assert np.linalg.norm(recon.bias - want_bias) <= 1e-10 * np.linalg.norm(want_bias)

    def test_negative_alpha_rejected(self, rng):
        op = DenseOperator(rng.standard_normal((2, 3)))
        with pytest.raises(ParameterError):
            fit_learned_linear(op, make_dataset(op, [rng.standard_normal(3)]), alpha=-1.0)

    def test_empty_dataset_rejected(self, rng):
        op = DenseOperator(rng.standard_normal((2, 3)))
        with pytest.raises(ParameterError):
            fit_learned_linear(op, Dataset(pairs=[]))


class TestTrainEpochs:
    def test_tiny_learning_rate_keeps_initialization(self, rng):
        op = DenseOperator(rng.standard_normal((3, 6)))
        dataset = make_dataset(op, [rng.standard_normal(6) for _ in range(8)])
        history = train_epochs(op, dataset, epochs=1, learning_rate=1e-18)
        init, after = history.snapshots
        assert np.linalg.norm(after.weights - init.weights) <= 1e-12
        assert np.linalg.norm(after.bias - init.bias) <= 1e-12

    def test_safe_step_size_monotone(self, rng):
        op = DenseOperator(rng.standard_normal((4, 8)))
        dataset = make_dataset(op, [rng.standard_normal(8) for _ in range(16)],
                               noise_sigma=0.02, seed=7)
        lipschitz = gradient_lipschitz(dataset)
        history = train_epochs(op, dataset, epochs=50, learning_rate=1.0 / lipschitz)
        diffs = np.diff(history.train_mse)
        assert np.all(diffs <= 1e-12)

    def test_converges_to_closed_form_optimum(self, rng):
        # well-conditioned measurements: gradient descent reaches the ridge
        # optimum with zero regularization
        op = DenseOperator(rng.standard_normal((6, 6)) + 4 * np.eye(6))
        dataset = make_dataset(op, [rng.standard_normal(6) for _ in range(24)])
        optimum = fit_learned_linear(op, dataset, alpha=0.0)
        best = dataset_mse(optimum, dataset)
        history = train_epochs(op, dataset, epochs=4000)
        assert history.train_mse[-1] <= best + 1e-6

    def test_divergence_raises(self, rng):
        op = DenseOperator(rng.standard_normal((4, 8)))
        dataset = make_dataset(op, [rng.standard_normal(8) for _ in range(16)])
        with pytest.raises(DivergenceError) as err:
            train_epochs(op, dataset, epochs=500, learning_rate=50.0)
        assert err.value.epoch >= 1

    def test_snapshot_indexing(self, rng):
        op = DenseOperator(rng.standard_normal((3, 6)))
        dataset = make_dataset(op, [rng.standard_normal(6) for _ in range(8)])
        history = train_epochs(op, dataset, epochs=5)
        assert len(history.snapshots) == 6
        assert len(history.train_mse) == 6
        assert history.final is history.snapshots[-1]

    def test_initialization_is_scaled_adjoint(self, rng):
        a = rng.standard_normal((4, 8))
        op = DenseOperator(a)
        dataset = make_dataset(op, [rng.standard_normal(8) for _ in range(8)])
        history = train_epochs(op, dataset, epochs=1, learning_rate=1e-18)
        norm = np.linalg.svd(a, compute_uv=False)[0]
        assert np.allclose(history.snapshots[0].weights, a.T / norm**2, atol=1e-8)
        assert np.array_equal(history.snapshots[0].bias, np.zeros(8))

    def test_parameter_validation(self, rng):
        op = DenseOperator(rng.standard_normal((2, 4)))
        dataset = make_dataset(op, [rng.standard_normal(4)])
        with pytest.raises(ParameterError):
            train_epochs(op, dataset, epochs=0)
        with pytest.raises(ParameterError):
            train_epochs(op, dataset, epochs=1, learning_rate=-0.1)

    def test_training_loss_helper_matches_history(self, rng):
        op = DenseOperator(rng.standard_normal((3, 6)))
        dataset = make_dataset(op, [rng.standard_normal(6) for _ in range(8)])
        history = train_epochs(op, dataset, epochs=3)
        x_mat = dataset.signal_matrix()
        y_mat = dataset.measurement_matrix()
        for snapshot, loss in zip(history.snapshots, history.train_mse, strict=True):
            # mean over samples of the per-element squared reconstruction error
            r = snapshot.weights @ y_mat + snapshot.bias[:, None] - x_mat
            assert float(np.mean(np.sum(r * r, axis=0))) / x_mat.shape[0] == pytest.approx(
                loss, rel=1e-12
            )

    def test_gradient_descent_yields_each_epoch_outputs(self, rng):
        op = DenseOperator(rng.standard_normal((3, 6)))
        dataset = make_dataset(op, [rng.standard_normal(6) for _ in range(8)])
        y = dataset.measurement_matrix()
        epochs = list(gradient_descent(op, dataset, epochs=4))
        assert len(epochs) == 5
        history = train_epochs(op, dataset, epochs=4)
        for (model, outputs, loss), snapshot, kept in zip(
            epochs, history.snapshots, history.train_mse
        ):
            assert np.array_equal(outputs, model(y))
            assert np.array_equal(model.weights, snapshot.weights)
            assert loss == kept


class TestOracleReconstructor:
    def test_noise_free_recovers_truth(self, full_row_rank_factory, rng):
        op = full_row_rank_factory(3, 7)
        oracle = make_oracle_reconstructor(make_engine(op))
        x = rng.standard_normal(7)
        out = oracle(op.apply(x), x)
        assert np.linalg.norm(out - x) <= 1e-9 * np.linalg.norm(x)

    def test_exact_correction_is_identity_on_oracle(self, full_row_rank_factory, rng):
        op = full_row_rank_factory(3, 7)
        engine = make_engine(op)
        oracle = make_oracle_reconstructor(engine)
        x = rng.standard_normal(7)
        y = op.apply(x)
        out = oracle(y, x)
        corrected = exact_correction(engine, y, out)
        assert np.linalg.norm(corrected - out) <= 1e-9 * np.linalg.norm(out)

    def test_noisy_output_is_truth_plus_pinv_noise(self, full_row_rank_factory, rng):
        # with noisy measurements the oracle error is exactly the
        # pseudoinverse image of the noise (checked against an SVD oracle)
        op = full_row_rank_factory(3, 7)
        engine = make_engine(op)
        oracle = make_oracle_reconstructor(engine)
        x = rng.standard_normal(7)
        noise = 0.1 * rng.standard_normal(3)
        out = oracle(op.apply(x) + noise, x)
        pinv_noise = np.linalg.pinv(op.matrix) @ noise
        assert np.linalg.norm(out - (x + pinv_noise)) <= 1e-9

    def test_null_residual_invariant(self, full_row_rank_factory, rng):
        op = full_row_rank_factory(4, 9)
        engine = make_engine(op)
        oracle = make_oracle_reconstructor(engine)
        for _ in range(10):
            x = rng.standard_normal(9)
            y = op.apply(x) + 0.05 * rng.standard_normal(4)
            out = oracle(y, x)
            residual = op.apply(out - engine.pinv_apply(y))
            assert np.linalg.norm(residual) <= 1e-8
