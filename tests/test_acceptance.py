"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is asserted exactly as stated.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from projcorr import (
    CorrectionConfig,
    NoiseModel,
    exact_correction,
    make_engine,
    make_gaussian_blur,
    make_inpainting_mask,
    make_oracle_reconstructor,
    make_random_projection,
    monte_carlo_noise_error,
    mse,
    noise_bias_trace,
    psnr,
    regularized_correction,
    ssim,
)
from projcorr.config import ExperimentConfig
from projcorr.experiments import run_correct, run_simulate, run_train_dynamics
from projcorr.operators import DenseOperator, Geometry
from projcorr.reconstructors import gradient_lipschitz

from conftest import random_full_row_rank
from test_correction import kkt_solve
from test_metrics import ssim_reference


def _report(number, description):
    print(f"\nACCEPTANCE {number:>2} PASS: {description}")


def _instances(seed, count, m_range=(1, 8), n_extra=12):
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(count):
        m = int(rng.integers(m_range[0], m_range[1] + 1))
        n = int(rng.integers(m, n_extra + 1))
        ops.append(random_full_row_rank(rng, m, n))
    return rng, ops


def test_criterion_01_exact_correction_matches_kkt_oracle():
    start = time.monotonic()
    rng, ops = _instances(101, 200)
    for op in ops:
        engine = make_engine(op)
        y = rng.standard_normal(op.m)
        fhat = rng.standard_normal(op.n)
        ours = exact_correction(engine, y, fhat)
        oracle = kkt_solve(op.matrix, y, fhat)
        assert np.linalg.norm(ours - oracle) <= 1e-8 * max(np.linalg.norm(oracle), 1.0)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(1, f"200 closed-form corrections match the KKT solve to 1e-8 ({elapsed:.2f}s)")


def test_criterion_02_constraint_satisfaction():
    rng, ops = _instances(202, 200)
    for op in ops:
        engine = make_engine(op)
        y = rng.standard_normal(op.m)
        fhat = rng.standard_normal(op.n)
        out = exact_correction(engine, y, fhat)
        assert np.linalg.norm(op.apply(out) - y) <= 1e-8 * (np.linalg.norm(y) + 1.0)
    _report(2, "corrected outputs satisfy A x = y to 1e-8 on 200 instances")


def test_criterion_03_consistent_inputs_are_fixed_points():
    rng, ops = _instances(303, 200)
    for op in ops:
        engine = make_engine(op)
        y = rng.standard_normal(op.m)
        w = rng.standard_normal(op.n)
        fhat = engine.pinv_apply(y) + engine.nullspace_projector_apply(w)
        out = exact_correction(engine, y, fhat)
        assert np.linalg.norm(out - fhat) <= 1e-9 * np.linalg.norm(fhat)
    _report(3, "correction is the identity on decomposition-form inputs (1e-9, 200x)")


def test_criterion_04_oracle_reconstructor_is_exact_noise_free():
    rng, ops = _instances(404, 100)
    for op in ops:
        engine = make_engine(op)
        oracle = make_oracle_reconstructor(engine)
        x = rng.standard_normal(op.n)
        out = oracle(op.apply(x), x)
        assert mse(out, x) <= 1e-18
    _report(4, "ideal-decomposition reconstructor attains MSE <= 1e-18 on 100 instances")


def test_criterion_05_noise_trace_matches_monte_carlo():
    start = time.monotonic()
    rng = np.random.default_rng(505)
    for index in range(10):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(m, 11))
        op = random_full_row_rank(rng, m, n)
        engine = make_engine(op)
        x = rng.standard_normal(n)
        for sigma in (0.05, 0.3):
            noise = NoiseModel.isotropic(sigma)
            trace = noise_bias_trace(engine, noise)
            estimate = monte_carlo_noise_error(
                engine, op, x, noise, trials=100_000, seed=505 + index
            )
            assert abs(estimate - trace) <= 0.05 * trace
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(5, f"1e5-draw Monte Carlo matches the covariance trace within 5% ({elapsed:.2f}s)")


def test_criterion_06_regularized_closed_form():
    rng, ops = _instances(606, 200)
    for op in ops:
        engine = make_engine(op)
        a = op.matrix
        y = rng.standard_normal(op.m)
        fhat = rng.standard_normal(op.n)
        noise = NoiseModel.isotropic(float(rng.uniform(0.05, 0.5)))
        lam = float(rng.uniform(1e-3, 1e-1))
        direct = regularized_correction(
            engine, y, fhat, CorrectionConfig(mode="regularized", lam=lam, noise=noise)
        )
        residual = (direct - fhat) + lam * a.T @ noise.inv_apply(a @ direct - y)
        assert np.linalg.norm(residual) <= 1e-8 * (
            np.linalg.norm(fhat) + np.linalg.norm(y) + 1.0
        )
        via_cg = regularized_correction(
            make_engine(op, method="cg_minimum_norm", cg_tol=1e-13), y, fhat,
            CorrectionConfig(mode="regularized", lam=lam, noise=noise),
        )
        assert np.linalg.norm(direct - via_cg) <= 1e-8 * max(np.linalg.norm(direct), 1.0)
        zero = regularized_correction(
            engine, y, fhat, CorrectionConfig(mode="regularized", lam=0.0, noise=noise)
        )
        assert np.array_equal(zero, fhat)
        big = regularized_correction(
            engine, y, fhat,
            CorrectionConfig(mode="regularized", lam=1e6, noise=NoiseModel.isotropic(1.0)),
        )
        assert np.linalg.norm(big - exact_correction(engine, y, fhat)) <= 1e-3
    _report(6, "regularized solution: stationary, lam=0 identity, lam->inf limit, CG agreement")


def test_criterion_07_identity_covariance_reduces_to_tikhonov():
    rng, ops = _instances(707, 100)
    for op in ops:
        engine = make_engine(op)
        a = op.matrix
        y = rng.standard_normal(op.m)
        fhat = rng.standard_normal(op.n)
        sigma = float(rng.uniform(0.1, 2.0))
        lam = float(rng.uniform(1e-3, 1e-1))
        out = regularized_correction(
            engine, y, fhat,
            CorrectionConfig(mode="regularized", lam=lam, noise=NoiseModel.isotropic(sigma)),
        )
        scaled = lam / sigma**2
        tikhonov = np.linalg.solve(
            np.eye(op.n) + scaled * a.T @ a, fhat + scaled * a.T @ y
        )
        assert np.linalg.norm(out - tikhonov) <= 1e-10 * max(np.linalg.norm(tikhonov), 1.0)
    _report(7, "isotropic covariance reproduces the Tikhonov form to 1e-10 on 100 instances")


def test_criterion_08_training_dynamics_toy(tmp_path):
    config = ExperimentConfig.from_dict({
        "experiment": "train_dynamics",
        "operator": {"kind": "gaussian_blur", "height": 32, "width": 32,
                     "sigmas": [3.0, 0.15]},
        "noise": {"sigma": 0.0},
        "reconstructor": {"kind": "trainable_linear", "epochs": 100},
        "dataset": {"count": 200, "test_count": 32, "seed": 5},
        "output_dir": str(tmp_path / "out"),
        "base_seed": 21,
    })
    # quadratic objective: any step below 2/L converges; 1.5/L reaches a
    # lower residual than the monotone-safe 1/L within the 100-epoch budget
    from projcorr.config import build_operator
    from projcorr.experiments import _split_datasets

    op = build_operator(config.operator)
    train_set, _ = _split_datasets(config, op, 0.0)
    config.reconstructor.learning_rate = 1.5 / gradient_lipschitz(train_set)

    summary = run_train_dynamics(config)
    rows = summary["epochs"]
    assert len(rows) == 101
    for row in rows:
        assert row["test_mse_projected"] <= row["test_mse_net"] + 1e-12
    for split in ("train", "test"):
        first = rows[0][f"nullspace_consistency_{split}"]
        last = rows[-1][f"nullspace_consistency_{split}"]
        assert last <= 0.10 * first, f"{split} consistency only fell to {last / first:.1%}"
    _report(8, "deblurring toy: projected test MSE dominates every epoch; "
               "consistency drops below 10% of its initial value")


def test_criterion_09_cross_engine_pseudoinverse_agreement():
    rng = np.random.default_rng(909)
    blur = make_gaussian_blur(Geometry(16, 16, 1), (1.5, 0.8), truncation=2.0)
    spectral = make_engine(blur, method="spectral_fft")
    blur_svd = make_engine(blur, method="svd_dense")
    for _ in range(5):
        y = rng.standard_normal(blur.m)
        a = spectral.pinv_apply(y)
        b = blur_svd.pinv_apply(y)
        assert np.linalg.norm(a - b) <= 1e-6 * max(np.linalg.norm(b), 1.0)

    mask = make_inpainting_mask(Geometry(16, 16, 1), 0.5, seed=7)
    analytic = make_engine(mask, method="mask_analytic")
    mask_svd = make_engine(mask, method="svd_dense")
    for _ in range(5):
        y = rng.standard_normal(mask.m)
        assert np.linalg.norm(analytic.pinv_apply(y) - mask_svd.pinv_apply(y)) <= 1e-10

    spi = make_random_projection(256, 64, seed=17)
    cg = make_engine(spi, method="cg_minimum_norm")
    spi_svd = make_engine(spi, method="svd_dense")
    for _ in range(5):
        y = rng.standard_normal(64)
        a = cg.pinv_apply(y)
        b = spi_svd.pinv_apply(y)
        assert np.linalg.norm(a - b) <= 1e-8 * np.linalg.norm(b)
    _report(9, "spectral/mask/CG engines agree with dense SVD at 1e-6/1e-10/1e-8")


def test_criterion_10_metric_references_and_pseudoinverse_axioms():
    rng = np.random.default_rng(1010)
    # metric reference values
    assert psnr(np.zeros(16), np.full(16, 0.5)) == pytest.approx(6.0206, abs=1e-4)
    assert psnr(np.zeros(4), np.ones(4)) == pytest.approx(0.0, abs=1e-12)
    a_img = rng.random((16, 16))
    b_img = np.clip(a_img + 0.1 * rng.standard_normal((16, 16)), 0, 1)
    assert ssim(a_img, b_img) == pytest.approx(ssim_reference(a_img, b_img), abs=1e-10)
    va, vb = rng.standard_normal(64), rng.standard_normal(64)
    naive = sum((x - y) ** 2 for x, y in zip(va, vb)) / 64
    assert mse(va, vb) == pytest.approx(naive, abs=1e-14)

    # Moore-Penrose axioms for every engine kind
    g = Geometry(8, 8, 1)
    engines = [
        make_engine(DenseOperator(rng.standard_normal((5, 9)))),
        make_engine(make_inpainting_mask(g, 0.5, seed=13)),
        make_engine(make_gaussian_blur(g, (1.2, 0.7), truncation=2.0)),
        make_engine(make_random_projection(32, 8, seed=2), method="cg_minimum_norm"),
    ]
    for engine in engines:
        a = engine.op.to_dense()
        p = engine.pinv_matrix()
        assert np.linalg.norm(a @ p @ a - a, 2) <= 1e-8 * np.linalg.norm(a, 2)
        assert np.linalg.norm(p @ a @ p - p, 2) <= 1e-8 * np.linalg.norm(p, 2)
        ap, pa = a @ p, p @ a
        assert np.linalg.norm(ap - ap.T, 2) <= 1e-8 * max(np.linalg.norm(ap, 2), 1.0)
        assert np.linalg.norm(pa - pa.T, 2) <= 1e-8 * max(np.linalg.norm(pa, 2), 1.0)
    _report(10, "PSNR/SSIM/MSE match independent references; pseudoinverse axioms hold "
                "for all engine kinds")


def test_criterion_11_bit_identical_reruns(tmp_path):
    def pipeline(root):
        sim = ExperimentConfig.from_dict({
            "experiment": "simulate",
            "operator": {"kind": "inpainting_mask", "height": 16, "width": 16,
                         "keep_probability": 0.5, "seed": 7},
            "noise": {"sigma": 0.05},
            "dataset": {"type": "synthetic", "count": 4, "seed": 3},
            "output_dir": str(root / "sim"),
            "base_seed": 11,
        })
        run_simulate(sim)
        cor = ExperimentConfig.from_dict({
            "experiment": "correct",
            "correction": {"mode": "regularized", "lambda": 0.01},
            "reconstructor": {"kind": "tikhonov", "alpha": 1e-6},
            "dataset": {"manifest": str(root / "sim" / "manifest.json")},
            "output_dir": str(root / "cor"),
            "base_seed": 11,
        })
        run_correct(cor)
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(Path(root).rglob("*"))
            if p.is_file()
        }

    first = pipeline(tmp_path / "run1")
    second = pipeline(tmp_path / "run2")
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between reruns"
    _report(11, "simulate+correct rerun produced bit-identical NIT1, manifest, and CSV")
