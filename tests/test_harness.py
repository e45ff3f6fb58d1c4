import csv
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from projcorr import (
    LearnedLinearReconstructor,
    ParameterError,
    fit_learned_linear,
    make_engine,
    train_epochs,
)
from projcorr.cli import main as cli_main
from projcorr.config import (
    CorrectionSpec,
    ExperimentConfig,
    OperatorSpec,
    build_engine,
    build_operator,
)
from projcorr.experiments import (
    METRICS_COLUMNS,
    SWEEP_COLUMNS,
    TRAIN_DYNAMICS_COLUMNS,
    _split_datasets,
    _Stage,
    make_smooth_images,
    run_bench,
    run_correct,
    run_evaluate,
    run_reconstruct,
    run_simulate,
    run_sweep_lambda,
    run_train_dynamics,
)
from projcorr.metrics import mse
from projcorr.reconstructors import measure_pairs
from projcorr.tensorio import read_nit1, write_nit1, write_pgm

from conftest import make_oracle_reconstructor


def simulate_config(out, sigma=0.0, count=4, kind="inpainting_mask", **op_extra):
    operator = {"kind": kind, "height": 16, "width": 16, "keep_probability": 0.5, "seed": 7}
    operator.update(op_extra)
    return ExperimentConfig.from_dict({
        "experiment": "simulate",
        "operator": operator,
        "noise": {"sigma": sigma},
        "dataset": {"type": "synthetic", "count": count, "seed": 3},
        "output_dir": str(out),
        "base_seed": 11,
    })


def tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(Path(root).rglob("*"))
        if p.is_file()
    }


class TestConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ParameterError):
            ExperimentConfig.from_dict({"experiment": "simulate", "bogus": 1})
        with pytest.raises(ParameterError):
            ExperimentConfig.from_dict({"experiment": "simulate", "operator": {"what": 2}})

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ParameterError):
            ExperimentConfig.from_dict({"experiment": "guess"})

    def test_lambda_alias_roundtrip(self, tmp_path):
        config = ExperimentConfig.from_dict(
            {"experiment": "correct", "correction": {"mode": "regularized", "lambda": 0.25}}
        )
        assert config.correction.lam == 0.25
        path = tmp_path / "cfg.json"
        config.save(path)
        raw = json.loads(path.read_text())
        assert raw["correction"]["lambda"] == 0.25
        again = ExperimentConfig.from_json(path)
        assert again.correction.lam == 0.25

    def test_build_operator_kinds(self, tmp_path, rng):
        mask = build_operator(OperatorSpec(kind="inpainting_mask", height=8, width=8))
        assert mask.kind == "mask"
        blur = build_operator(
            OperatorSpec(kind="gaussian_blur", height=8, width=8, sigmas=[1.0, 0.5],
                         truncation=2.0)
        )
        assert blur.kind == "circular_blur"
        spi = build_operator(OperatorSpec(kind="random_projection", n=64, m=16, seed=1))
        assert spi.kind == "random_projection" and spi.m == 16
        matrix = rng.standard_normal((3, 5))
        path = tmp_path / "a.nit1"
        write_nit1(path, matrix)
        dense = build_operator(OperatorSpec(kind="dense", matrix_path=str(path)))
        assert dense.kind == "dense" and dense.m == 3

    def test_build_engine_hands_cg_settings_to_every_engine(self):
        correction = CorrectionSpec.from_dict({"cg_tol": 1e-13, "cg_max_iter": 7})
        specs = [
            OperatorSpec(kind="inpainting_mask", height=8, width=8),
            OperatorSpec(kind="gaussian_blur", height=8, width=8, sigmas=[1.0, 0.5],
                         truncation=2.0),
            OperatorSpec(kind="random_projection", n=64, m=16, seed=1),
            OperatorSpec(kind="random_projection", n=64, m=16, seed=1,
                         pinv_method="svd_dense"),
        ]
        methods = set()
        for spec in specs:
            engine = build_engine(build_operator(spec), spec, correction)
            methods.add(engine.method)
            assert (engine.cg_tol, engine.cg_max_iter) == (1e-13, 7), engine.method
        assert methods == {"mask_analytic", "spectral_fft", "cg_minimum_norm", "svd_dense"}

    def test_build_operator_missing_params(self):
        with pytest.raises(ParameterError):
            build_operator(OperatorSpec(kind="gaussian_blur", height=None, width=None))
        with pytest.raises(ParameterError):
            build_operator(OperatorSpec(kind="random_projection", height=None, width=None))
        with pytest.raises(ParameterError):
            build_operator(OperatorSpec(kind="random_projection", m=None))
        with pytest.raises(ParameterError):
            build_operator(OperatorSpec(kind="warp"))


class TestSimulate:
    def test_noise_free_measurement_matches_apply(self, tmp_path):
        config = simulate_config(tmp_path / "out")
        run_simulate(config)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        op = build_operator(OperatorSpec.from_dict(manifest["operator"]))
        entry = manifest["images"][0]
        x = read_nit1(tmp_path / "out" / entry["truth"]).ravel()
        y = read_nit1(tmp_path / "out" / entry["measurement"]).ravel()
        assert np.array_equal(
            y, op.apply(x).astype(np.float32).astype(np.float64)
        )

    def test_run_twice_bit_identical(self, tmp_path):
        run_simulate(simulate_config(tmp_path / "a", sigma=0.1))
        run_simulate(simulate_config(tmp_path / "b", sigma=0.1))
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_manifest_records_golden_mask_size(self, tmp_path):
        run_simulate(simulate_config(tmp_path / "out"))
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["operator_shape"]["m"] == 120
        assert manifest["sigma"] == 0.0
        assert [e["noise_seed"] for e in manifest["images"]] == [11 ^ i for i in range(4)]

    def test_ingested_pgm_images(self, tmp_path, rng):
        img_paths = []
        for i in range(2):
            p = tmp_path / f"img{i}.pgm"
            write_pgm(p, rng.random((16, 16)))
            img_paths.append(str(p))
        config = simulate_config(tmp_path / "out")
        config.dataset.type = "ingested"
        config.dataset.paths = img_paths
        summary = run_simulate(config)
        assert summary["count"] == 2

    def test_dimension_mismatch_rejected(self, tmp_path, rng):
        p = tmp_path / "img.pgm"
        write_pgm(p, rng.random((8, 8)))
        config = simulate_config(tmp_path / "out")
        config.dataset.type = "ingested"
        config.dataset.paths = [str(p)]
        with pytest.raises(ParameterError):
            run_simulate(config)


class TestReconstructAndCorrect:
    @pytest.fixture
    def simulated(self, tmp_path):
        config = simulate_config(tmp_path / "sim")
        run_simulate(config)
        return tmp_path / "sim" / "manifest.json"

    def correct_config(self, manifest, out, recon_dir=None, mode="exact", lam=0.0,
                       recon_kind="pinv", sigma=None):
        d = {
            "experiment": "correct",
            "correction": {"mode": mode, "lambda": lam},
            "reconstructor": {"kind": recon_kind},
            "dataset": {"manifest": str(manifest)},
            "output_dir": str(out),
            "base_seed": 11,
        }
        if sigma is not None:
            d["noise"] = {"sigma": sigma}
        config = ExperimentConfig.from_dict(d)
        if recon_dir is not None:
            config.dataset.reconstruction_dir = str(recon_dir)
        return config

    def test_oracle_reconstructions_left_unchanged(self, simulated, tmp_path):
        # store reconstructions that already satisfy the decomposition; the
        # correction must not alter them and the psnr column must match
        manifest = json.loads(Path(simulated).read_text())
        base = Path(simulated).parent
        op = build_operator(OperatorSpec.from_dict(manifest["operator"]))
        engine = make_engine(op)
        oracle = make_oracle_reconstructor(engine)
        recon_dir = tmp_path / "recons"
        recon_dir.mkdir()
        for entry in manifest["images"]:
            x = read_nit1(base / entry["truth"]).ravel()
            y = read_nit1(base / entry["measurement"]).ravel()
            write_nit1(recon_dir / f"recon_{entry['id']}.nit1", oracle(y, x))
        out = tmp_path / "out"
        summary = run_correct(self.correct_config(simulated, out, recon_dir))
        for entry in manifest["images"]:
            fhat = read_nit1(recon_dir / f"recon_{entry['id']}.nit1").ravel()
            corrected = read_nit1(out / "corrected" / f"corrected_{entry['id']}.nit1").ravel()
            assert np.linalg.norm(corrected - fhat) <= 1e-6 * np.linalg.norm(fhat)
        lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == ",".join(METRICS_COLUMNS)
        by_image = {}
        for line in lines[1:]:
            cells = line.split(",")
            by_image.setdefault(cells[2], {})[cells[3]] = cells
        for cells in by_image.values():
            assert cells["network"][5] == cells["projected"][5]  # psnr column

    def test_learned_reconstructor_trains_on_configured_blobs(self):
        # the reconstruct and correct stages train on the same images as
        # the synthetic experiments, with the configured number of blobs
        config = ExperimentConfig.from_dict({
            "operator": {"kind": "inpainting_mask", "height": 16, "width": 16,
                         "keep_probability": 0.5, "seed": 7},
            "reconstructor": {"kind": "learned_linear", "alpha": 1e-3},
            "dataset": {"type": "synthetic", "count": 6, "seed": 3, "blobs": 2},
            "base_seed": 11,
        })
        op = build_operator(config.operator)
        stage = _Stage(config)
        stage.sigma = 0.01
        model = stage.reconstructor("learned_linear")
        want = fit_learned_linear(op, _split_datasets(config, op, 0.01)[0], alpha=1e-3)
        assert np.array_equal(model.weights, want.weights)
        assert np.array_equal(model.bias, want.bias)

    def test_learned_reconstructor_measures_only_training_images(self, monkeypatch):
        config = ExperimentConfig.from_dict({
            "operator": {"kind": "inpainting_mask", "height": 16, "width": 16,
                         "keep_probability": 0.5, "seed": 7},
            "reconstructor": {"kind": "learned_linear", "alpha": 1e-3},
            "dataset": {"type": "synthetic", "count": 6, "test_count": 4, "seed": 3},
            "base_seed": 11,
        })
        measured = []

        def counting(op, images, *args):
            measured.append(len(images))
            return measure_pairs(op, images, *args)

        monkeypatch.setattr("projcorr.experiments.measure_pairs", counting)
        stage = _Stage(config)
        stage.sigma = 0.01
        stage.reconstructor("learned_linear")
        assert sum(measured) == 6

    def test_corrected_dominates_network_noise_free(self, simulated, tmp_path):
        recon_out = tmp_path / "recons"
        run_reconstruct(ExperimentConfig.from_dict({
            "experiment": "reconstruct",
            "reconstructor": {"kind": "adjoint"},
            "dataset": {"manifest": str(simulated)},
            "output_dir": str(recon_out),
            "base_seed": 11,
        }))
        out = tmp_path / "out"
        summary = run_correct(self.correct_config(simulated, out, recon_out))
        records = summary["records"]
        nets = [r for r in records if r.method == "network"]
        projs = {r.image_id: r for r in records if r.method == "projected"}
        assert nets
        for net in nets:
            assert projs[net.image_id].mse <= net.mse + 1e-12

    def test_lambda_zero_regularized_copies_files(self, simulated, tmp_path):
        recon_out = tmp_path / "recons"
        run_reconstruct(ExperimentConfig.from_dict({
            "experiment": "reconstruct",
            "reconstructor": {"kind": "adjoint"},
            "dataset": {"manifest": str(simulated)},
            "output_dir": str(recon_out),
            "base_seed": 11,
        }))
        out = tmp_path / "out"
        run_correct(self.correct_config(simulated, out, recon_out,
                                        mode="regularized", lam=0.0))
        for path in sorted(recon_out.glob("recon_*.nit1")):
            iid = path.stem.replace("recon_", "")
            corrected = out / "corrected" / f"corrected_{iid}.nit1"
            assert corrected.read_bytes() == path.read_bytes()

    def test_dense_covariance_from_file(self, simulated, tmp_path, rng):
        manifest = json.loads(Path(simulated).read_text())
        m = manifest["operator_shape"]["m"]
        a = rng.standard_normal((m, m))
        cov = a @ a.T / m + np.eye(m)
        cov_path = tmp_path / "cov.nit1"
        write_nit1(cov_path, cov.astype(np.float32))
        config = self.correct_config(simulated, tmp_path / "out",
                                     mode="regularized", lam=0.01)
        config.noise.covariance_path = str(cov_path)
        summary = run_correct(config)
        assert all(np.isfinite(r.mse) for r in summary["records"])

    def test_missing_reconstruction_fails(self, simulated, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(KeyError):
            run_correct(self.correct_config(simulated, tmp_path / "out", empty))

    def test_evaluate_round_trip_reproduces_metrics(self, simulated, tmp_path):
        recon_out = tmp_path / "recons"
        run_reconstruct(ExperimentConfig.from_dict({
            "experiment": "reconstruct",
            "reconstructor": {"kind": "tikhonov", "alpha": 1e-6},
            "dataset": {"manifest": str(simulated)},
            "output_dir": str(recon_out),
            "base_seed": 11,
        }))
        correct_out = tmp_path / "out"
        run_correct(self.correct_config(simulated, correct_out, recon_out))
        eval_out = tmp_path / "eval"
        run_evaluate(ExperimentConfig.from_dict({
            "experiment": "evaluate",
            "reconstructor": {"kind": "projected", "pattern": "corrected_{image_id}.nit1"},
            "dataset": {"manifest": str(simulated),
                        "reconstruction_dir": str(correct_out / "corrected")},
            "output_dir": str(eval_out),
            "base_seed": 11,
        }))

        def numeric_rows(path, method):
            rows = {}
            for line in Path(path).read_text().strip().splitlines()[1:]:
                cells = line.split(",")
                if cells[3] == method:
                    rows[cells[2]] = cells[5:]
            return rows

        first = numeric_rows(correct_out / "metrics.csv", "projected")
        second = numeric_rows(eval_out / "metrics.csv", "projected")
        assert first == second

    @pytest.mark.parametrize("field", ["truth", "measurement"])
    def test_evaluate_rejects_non_finite_file(self, simulated, tmp_path, field):
        recon_out = tmp_path / "recons"
        run_reconstruct(ExperimentConfig.from_dict({
            "experiment": "reconstruct",
            "reconstructor": {"kind": "pinv"},
            "dataset": {"manifest": str(simulated)},
            "output_dir": str(recon_out),
        }))
        entry = json.loads(simulated.read_text())["images"][1]
        path = simulated.parent / entry[field]
        values = read_nit1(path)
        values.flat[3] = np.nan
        write_nit1(path, values)
        with pytest.raises(ParameterError, match="non-finite"):
            run_evaluate(ExperimentConfig.from_dict({
                "experiment": "evaluate",
                "reconstructor": {"kind": "pinv", "pattern": "recon_{image_id}.nit1"},
                "dataset": {"manifest": str(simulated), "reconstruction_dir": str(recon_out)},
                "output_dir": str(tmp_path / "eval"),
            }))

    def test_evaluate_requires_directory(self, simulated, tmp_path):
        with pytest.raises(ParameterError):
            run_evaluate(ExperimentConfig.from_dict({
                "experiment": "evaluate",
                "dataset": {"manifest": str(simulated)},
                "output_dir": str(tmp_path / "eval"),
            }))


class TestTrainDynamics:
    def make_config(self, out, epochs=8, sigma=0.0):
        return ExperimentConfig.from_dict({
            "experiment": "train_dynamics",
            "operator": {"kind": "gaussian_blur", "height": 16, "width": 16,
                         "sigmas": [1.5, 0.8], "truncation": 2.0},
            "noise": {"sigma": sigma},
            "reconstructor": {"kind": "trainable_linear", "epochs": epochs},
            "dataset": {"count": 16, "test_count": 6, "seed": 5},
            "output_dir": str(out),
            "base_seed": 21,
        })

    def test_noise_free_dominance_every_epoch(self, tmp_path):
        summary = run_train_dynamics(self.make_config(tmp_path / "out"))
        for row in summary["epochs"]:
            assert row["test_mse_projected"] <= row["test_mse_net"] + 1e-12
            assert row["train_mse_projected"] <= row["train_mse_net"] + 1e-12

    def test_csv_columns_and_epoch_count(self, tmp_path):
        summary = run_train_dynamics(self.make_config(tmp_path / "out", epochs=5))
        lines = Path(summary["csv"]).read_text().strip().splitlines()
        assert lines[0] == ",".join(TRAIN_DYNAMICS_COLUMNS)
        assert len(lines) == 1 + 6  # header + epochs 0..5

    def test_mask_operator_initialization_is_consistent(self, tmp_path):
        # for a selection operator the scaled-adjoint initialization equals
        # the pseudoinverse, so the epoch-0 consistency term vanishes
        config = ExperimentConfig.from_dict({
            "experiment": "train_dynamics",
            "operator": {"kind": "inpainting_mask", "height": 16, "width": 16,
                         "keep_probability": 0.5, "seed": 7},
            "noise": {"sigma": 0.0},
            "reconstructor": {"kind": "trainable_linear", "epochs": 2},
            "dataset": {"count": 8, "test_count": 4, "seed": 5},
            "output_dir": str(tmp_path / "out"),
            "base_seed": 21,
        })
        summary = run_train_dynamics(config)
        first = summary["epochs"][0]
        assert first["nullspace_consistency_train"] <= 1e-12
        blur_summary = run_train_dynamics(self.make_config(tmp_path / "blur"))
        assert blur_summary["epochs"][0]["nullspace_consistency_train"] > 1e-6

    def test_bit_identical_reruns(self, tmp_path):
        a = run_train_dynamics(self.make_config(tmp_path / "a", epochs=4))
        b = run_train_dynamics(self.make_config(tmp_path / "b", epochs=4))
        assert Path(a["csv"]).read_bytes() == Path(b["csv"]).read_bytes()

    @staticmethod
    def replayed_rows(config):
        # every epoch's rows recomputed from kept snapshots: each split passed
        # through the snapshot, A+ y + (I - A+ A) fhat, ||A fhat - A A+ y||^2
        op = build_operator(config.operator)
        engine = build_engine(op, config.operator, config.correction)
        train_set, test_set = _split_datasets(config, op, config.noise.sigma_or(0.0))
        history = train_epochs(op, train_set, config.reconstructor.epochs,
                               learning_rate=config.reconstructor.learning_rate,
                               seed=config.base_seed)
        rows = []
        for epoch, model in enumerate(history.snapshots):
            row = {"epoch": epoch}
            for name, dataset in (("train", train_set), ("test", test_set)):
                x, y = dataset.signal_matrix(), dataset.measurement_matrix()
                fhat = model(y)
                pinv_y = engine.pinv_apply(y)
                r = op.apply(fhat) - op.apply(pinv_y)
                row[f"{name}_mse_net"] = mse(fhat, x)
                row[f"{name}_mse_projected"] = mse(
                    pinv_y + engine.nullspace_projector_apply(fhat), x)
                row[f"nullspace_consistency_{name}"] = float(np.sum(r * r)) / r.shape[1]
            rows.append({key: row[key] for key in TRAIN_DYNAMICS_COLUMNS})
        return rows

    @pytest.mark.parametrize("operator", [
        {"kind": "gaussian_blur", "sigmas": [1.5, 0.8], "truncation": 2.0},
        {"kind": "inpainting_mask", "keep_probability": 0.5, "seed": 7},
    ], ids=["blur", "mask"])
    def test_rows_equal_snapshot_replay(self, tmp_path, operator):
        config = self.make_config(tmp_path / "out", epochs=6, sigma=0.05)
        config.operator = OperatorSpec.from_dict({"height": 16, "width": 16, **operator})
        summary = run_train_dynamics(config)
        assert summary["epochs"] == self.replayed_rows(config)

    def test_memory_does_not_grow_with_epochs(self, tmp_path, monkeypatch):
        calls = []
        reconstruct = LearnedLinearReconstructor.reconstruct

        def counted(self, y, image_id=None):
            calls.append(np.shape(y)[1])
            return reconstruct(self, y, image_id)

        monkeypatch.setattr(LearnedLinearReconstructor, "reconstruct", counted)
        config = ExperimentConfig.from_dict({
            "experiment": "train_dynamics",
            "operator": {"kind": "gaussian_blur", "height": 32, "width": 32,
                         "sigmas": [3.0, 0.15]},
            "reconstructor": {"kind": "trainable_linear"},
            "dataset": {"count": 8, "test_count": 4, "seed": 5},
            "base_seed": 21,
        })
        peaks = {}
        for epochs in (3, 30):
            calls.clear()
            config.reconstructor.epochs = epochs
            config.output_dir = str(tmp_path / f"e{epochs}")
            tracemalloc.start()
            try:
                run_train_dynamics(config)
                peaks[epochs] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # the train split's outputs come from the descent step itself
            assert calls == [4] * (epochs + 1)
        one_weight_matrix = 1024 * 1024 * 8
        assert peaks[30] - peaks[3] < one_weight_matrix, peaks


class TestSweepLambda:
    def make_config(self, out, sigmas, grid=None):
        return ExperimentConfig.from_dict({
            "experiment": "sweep_lambda",
            "operator": {"kind": "gaussian_blur", "height": 16, "width": 16,
                         "sigmas": [1.5, 0.8], "truncation": 2.0},
            "noise": {"sigmas": sigmas},
            "reconstructor": {"kind": "learned_linear", "alpha": 1e-6},
            "correction": {"lambda_grid": grid or [0.0, 1e-3, 1e-2, 1e-1]},
            "dataset": {"count": 16, "test_count": 6, "seed": 5},
            "output_dir": str(out),
            "base_seed": 77,
        })

    def test_zero_noise_prefers_largest_lambda(self, tmp_path):
        summary = run_sweep_lambda(self.make_config(tmp_path / "out", [0.0]))
        row = summary["summaries"][0]
        assert row["best_lambda"] == 0.1
        assert row["projected_psnr"] >= row["network_psnr"]

    def test_degenerate_grid_keeps_network(self, tmp_path):
        summary = run_sweep_lambda(self.make_config(tmp_path / "out", [0.05], grid=[0.0]))
        row = summary["summaries"][0]
        assert row["best_lambda"] == 0.0
        assert row["projected_psnr"] == pytest.approx(row["network_psnr"], abs=1e-9)

    def test_default_sigma_list_and_csv_shape(self, tmp_path):
        config = self.make_config(tmp_path / "out", [0.0, 0.1])
        assert ExperimentConfig().noise.sigmas == [0.01, 0.05, 0.1, 0.2, 0.3]
        summary = run_sweep_lambda(config)
        lines = Path(summary["csv"]).read_text().strip().splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 1 + 2 * 2  # two sigmas x (network, projected)

    def test_empty_sigmas_rejected(self, tmp_path):
        config = self.make_config(tmp_path / "out", [])
        with pytest.raises(ParameterError):
            run_sweep_lambda(config)


class TestBench:
    def test_projected_never_worse_noise_free(self, tmp_path):
        config = ExperimentConfig.from_dict({
            "experiment": "bench",
            "operator": {"kind": "inpainting_mask", "height": 16, "width": 16,
                         "keep_probability": 0.5, "seed": 7},
            "noise": {"sigma": 0.0},
            "reconstructor": {"kinds": ["adjoint", "pinv", "learned_linear"],
                              "alpha": 1e-6},
            "dataset": {"count": 16, "test_count": 6, "seed": 5},
            "output_dir": str(tmp_path / "out"),
            "base_seed": 77,
        })
        summary = run_bench(config)
        for row in summary["summaries"]:
            assert row["psnr_projected"] >= row["psnr_net"] - 1e-9

    def test_unknown_kind_rejected(self, tmp_path):
        config = ExperimentConfig.from_dict({
            "experiment": "bench",
            "operator": {"kind": "inpainting_mask", "height": 16, "width": 16,
                         "keep_probability": 0.5, "seed": 7},
            "reconstructor": {"kinds": ["cnn"]},
            "dataset": {"count": 4, "test_count": 2},
            "output_dir": str(tmp_path / "out"),
        })
        with pytest.raises(ParameterError):
            run_bench(config)


class TestCli:
    def test_simulate_and_override(self, tmp_path, capsys):
        cfg = {
            "experiment": "simulate",
            "operator": {"kind": "inpainting_mask", "height": 16, "width": 16,
                         "keep_probability": 0.5, "seed": 7},
            "noise": {"sigma": 0.2},
            "dataset": {"type": "synthetic", "count": 2, "seed": 3},
            "output_dir": str(tmp_path / "ignored"),
            "base_seed": 11,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "cli_out"
        code = cli_main(["simulate", "--config", str(cfg_path), "--out", str(out),
                         "--sigma", "0", "--seed", "99"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["sigma"] == 0.0
        assert manifest["base_seed"] == 99
        assert "wrote" in capsys.readouterr().out

    def test_failure_prints_error_line(self, tmp_path, capsys):
        code = cli_main(["correct", "--manifest", str(tmp_path / "missing.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_lambda_grid_flag(self, tmp_path):
        out = tmp_path / "out"
        code = cli_main([
            "sweep-lambda",
            "--out", str(out),
            "--sigma", "0.0",
            "--lambda-grid", "0,0.01",
            "--seed", "5",
        ])
        assert code == 0
        lines = (out / "sweep_lambda.csv").read_text().strip().splitlines()
        assert len(lines) == 3

    def test_pipeline_solves_once_per_solving_stage(self, tmp_path, monkeypatch):
        # every CG solve goes through dual_solve: reconstruct (Tikhonov) and
        # correct (exact) make one block solve each, and evaluate reads the
        # consistency metric off the range projector without solving
        from projcorr.pinv import PinvEngine

        calls = []
        dual_solve = PinvEngine.dual_solve

        def counted(engine, *args, **kwargs):
            calls.append(engine.method)
            return dual_solve(engine, *args, **kwargs)

        monkeypatch.setattr(PinvEngine, "dual_solve", counted)
        cfg_path = tmp_path / "cfg.json"
        ExperimentConfig.from_dict({
            "operator": {"kind": "random_projection", "height": 16, "width": 16, "m": 32},
            "reconstructor": {"kind": "tikhonov", "alpha": 1e-2,
                              "pattern": "corrected_{image_id}.nit1"},
            "dataset": {"type": "synthetic", "count": 3},
        }).save(cfg_path)
        sim, rec, cor, ev = (tmp_path / d for d in ("sim", "rec", "cor", "ev"))
        manifest = sim / "manifest.json"
        stages = [
            ("simulate", ["--out", sim, "--sigma", 0.01], 0),
            ("reconstruct", ["--manifest", manifest, "--out", rec], 1),
            ("correct", ["--manifest", manifest, "--recon-dir", rec, "--mode", "exact",
                         "--out", cor], 1),
            ("evaluate", ["--manifest", manifest, "--recon-dir", cor / "corrected",
                          "--out", ev], 0),
        ]
        for stage, flags, solves in stages:
            calls.clear()
            code = cli_main([stage, "--config", str(cfg_path)] + [str(f) for f in flags])
            assert code == 0, stage
            assert calls == ["cg_minimum_norm"] * solves, stage
        assert (ev / "metrics.csv").exists()

    @staticmethod
    def run_pipeline(tmp_path, capsys, config):
        """simulate, reconstruct, correct and evaluate through the CLI.

        Returns the manifest and the rows of both metrics tables.
        """
        cfg_path = tmp_path / "cfg.json"
        ExperimentConfig.from_dict(dict(config, reconstructor={
            "kind": "adjoint", "pattern": "corrected_{image_id}.nit1"})).save(cfg_path)
        sim, rec, cor, ev = (tmp_path / d for d in ("sim", "rec", "cor", "ev"))
        manifest = sim / "manifest.json"
        stages = [
            ("simulate", ["--out", sim, "--sigma", 0.01]),
            ("reconstruct", ["--manifest", manifest, "--out", rec]),
            ("correct", ["--manifest", manifest, "--recon-dir", rec, "--out", cor]),
            ("evaluate", ["--manifest", manifest, "--recon-dir", cor / "corrected",
                          "--out", ev]),
        ]
        for stage, flags in stages:
            code = cli_main([stage, "--config", str(cfg_path)] + [str(f) for f in flags])
            assert code == 0, (stage, capsys.readouterr().err)
        tables = []
        for root in (cor, ev):
            with open(root / "metrics.csv", newline="") as fh:
                tables.append(list(csv.DictReader(fh)))
        return json.loads(manifest.read_text()), tables

    def test_round_trip_without_geometry(self, tmp_path, capsys):
        # a 30x100 random projection with no image geometry on two ingested
        # images: every later stage replays the 100-column operator
        rng = np.random.default_rng(0)
        paths = []
        for i in range(2):
            paths.append(str(tmp_path / f"truth{i}.nit1"))
            write_nit1(paths[-1], rng.uniform(0.1, 0.9, 100))
        manifest, (corrected, evaluated) = self.run_pipeline(tmp_path, capsys, {
            "operator": {"kind": "random_projection", "height": None, "width": None,
                         "n": 100, "m": 30},
            "dataset": {"type": "ingested", "paths": paths},
        })
        assert manifest["operator"]["height"] is None
        assert manifest["operator"]["width"] is None
        assert read_nit1(tmp_path / "rec" / "recon_img0000.nit1").size == 100
        assert len(corrected) == 4 and len(evaluated) == 2
        assert all(row["ssim"] == "" for row in corrected + evaluated)

    def test_round_trip_below_the_ssim_window(self, tmp_path, capsys):
        # 10x10 images hold no 11x11 SSIM window: the SSIM cells stay empty
        _, (corrected, evaluated) = self.run_pipeline(tmp_path, capsys, {
            "operator": {"kind": "random_projection", "height": 10, "width": 10, "m": 30},
            "dataset": {"type": "synthetic", "count": 3},
        })
        assert len(corrected) == 6 and len(evaluated) == 3
        assert all(row["ssim"] == "" for row in corrected + evaluated)
        assert all(np.isfinite(float(row["psnr"])) for row in corrected + evaluated)


class TestLazyEngine:
    """Stages that use no engine build none, so a dense operator runs no SVD."""

    @pytest.fixture
    def no_svd(self, tmp_path, monkeypatch):
        matrix = np.random.default_rng(4).standard_normal((60, 256))
        write_nit1(tmp_path / "a.nit1", matrix)
        config = simulate_config(tmp_path / "sim", sigma=0.01, count=2, kind="dense",
                                 matrix_path=str(tmp_path / "a.nit1"))

        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        return config

    def test_simulate_dense_runs_no_svd(self, no_svd, tmp_path):
        assert run_simulate(no_svd)["count"] == 2

    def test_adjoint_reconstruct_runs_no_svd(self, no_svd, tmp_path):
        run_simulate(no_svd)
        summary = run_reconstruct(ExperimentConfig.from_dict({
            "experiment": "reconstruct",
            "reconstructor": {"kind": "adjoint"},
            "dataset": {"manifest": str(tmp_path / "sim" / "manifest.json")},
            "output_dir": str(tmp_path / "rec"),
        }))
        assert summary["count"] == 2
        assert read_nit1(tmp_path / "rec" / "recon_img0001.nit1").size == 256


def test_smooth_images_deterministic_and_bounded():
    from projcorr.operators import Geometry

    g = Geometry(16, 16, 2)
    imgs_a = make_smooth_images(g, 3, seed=5)
    imgs_b = make_smooth_images(g, 3, seed=5)
    for a, b in zip(imgs_a, imgs_b):
        assert np.array_equal(a, b)
        assert a.min() >= 0.0 and a.max() <= 1.0


TRACED_RUN = """
import numpy as np
import spans

tracer = spans.Tracer()
spans.install(tracer)
tracer.job_id = 0
from projcorr import (
    CorrectionConfig, Geometry, exact_correction, fit_learned_linear, make_dataset,
    make_engine, make_gaussian_blur, regularized_correction, train_epochs,
)

op = make_gaussian_blur(Geometry(8, 8, 1), (1.0, 0.7), truncation=2.0)
engine = make_engine(op)
rng = np.random.default_rng(0)
data = make_dataset(op, [rng.random(op.n) for _ in range(4)])
x, y = data.pairs[0]
fhat = op.adjoint(y)
exact_correction(engine, y, fhat)
engine.nullspace_projector_apply(fhat)
regularized_correction(engine, y, fhat, CorrectionConfig(mode="regularized", lam=0.1))
fit_learned_linear(op, data, alpha=1e-3)
train_epochs(op, data, epochs=1)
metrics = {k: v for k, (v, _) in spans.layer_metrics(tracer, 1).items()}
assert metrics["pinv.pinv_apply.calls"] >= 1, metrics
assert metrics["pinv.nullspace_projector_apply.calls"] >= 1, metrics
assert metrics["kernel.cholesky_calls"] == 0, metrics
"""


def test_benchmark_tracer_installs():
    # perfbench/spans.py rebinds package names by attribute; a name it expects
    # but the package no longer binds fails here instead of in a traced run.
    # The traced calls check that methods inherited from the engine base class
    # are still counted.  A fresh interpreter keeps the wrapping out of the
    # other tests.
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(root / "perfbench"), str(root / "src")])
    result = subprocess.run(
        [sys.executable, "-c", TRACED_RUN],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


SCIPY_FREE_RUN = """
import sys

import numpy as np

import projcorr.cli
from projcorr.config import ExperimentConfig
from projcorr.experiments import run_train_dynamics
from projcorr.metrics import ssim

run_train_dynamics(ExperimentConfig.from_dict({
    "experiment": "train_dynamics",
    "operator": {"kind": "gaussian_blur", "height": 16, "width": 16,
                 "sigmas": [1.5, 0.8], "truncation": 2.0},
    "reconstructor": {"kind": "trainable_linear", "epochs": 2},
    "dataset": {"count": 8, "test_count": 4, "seed": 5},
    "output_dir": sys.argv[1],
}))
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
ssim(np.ones(256), np.ones(256), projcorr.Geometry(16, 16, 1))
assert "scipy.signal" in sys.modules
"""


def test_scipy_loads_only_for_ssim(tmp_path):
    # SSIM is the package's only SciPy use; a fresh interpreter shows what
    # importing the CLI and training a reconstructor load
    root = Path(__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE_RUN, str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=str(root / "src")), capture_output=True, text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
