"""Experiment drivers: simulation, correction, training dynamics, sweeps.

Every driver takes an :class:`~projcorr.config.ExperimentConfig`, writes its
artifacts (NIT1 tensors, a JSON manifest, CSV tables) under the configured
output directory, and returns a small summary dict.  All randomness is
derived from the recorded seeds, so re-running a config reproduces every
output byte-for-byte.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import List, Sequence

import numpy as np

from .config import (
    ExperimentConfig,
    OperatorSpec,
    build_engine,
    build_operator,
    operator_manifest,
)
from .correction import (
    DEFAULT_LAMBDA_GRID,
    CorrectionConfig,
    correct,
    exact_correction,
    lambda_grid_search,
)
from .errors import ParameterError
from .metrics import (
    evaluate_reconstruction,
    format_metric,
    mse,
    nullspace_consistency,
    psnr,
    ssim,
)
from .noise import NoiseModel
from .operators import Geometry, SensingOperator
from .pinv import PinvEngine
from .reconstructors import (
    AdjointReconstructor,
    Dataset,
    ExternalReconstructor,
    PinvReconstructor,
    Reconstructor,
    TikhonovReconstructor,
    fit_learned_linear,
    make_dataset,
    train_epochs,
)
from .rng import derive_seed, generator, stream
from .tensorio import read_nit1, read_pgm, write_nit1

METRICS_COLUMNS = (
    "experiment", "dataset", "image_id", "method", "lambda",
    "psnr", "ssim", "mse", "nullspace_consistency", "range_residual",
)
TRAIN_DYNAMICS_COLUMNS = (
    "epoch", "train_mse_net", "train_mse_projected",
    "test_mse_net", "test_mse_projected",
    "nullspace_consistency_train", "nullspace_consistency_test",
)
SWEEP_COLUMNS = ("sigma", "dataset", "best_lambda", "method", "psnr", "ssim")
BENCH_COLUMNS = (
    "problem", "reconstructor",
    "psnr_net", "psnr_projected", "ssim_net", "ssim_projected",
)

# Offset separating image streams of different sweeps/splits; larger than any
# desk-scale image count.
STREAM_STRIDE = 1_000_003


def image_id(index: int) -> str:
    return f"img{index:04d}"


def make_smooth_images(
    geometry: Geometry, count: int, seed: int, blobs: int = 6
) -> List[np.ndarray]:
    """Deterministic smooth test images in [0, 1] (sums of Gaussian bumps).

    Bump radii span min(H, W)/5 to min(H, W)/2.2, giving spectra dominated by
    low frequencies, a desk-scale stand-in for natural image crops.
    """
    h, w = geometry.height, geometry.width
    rows = np.arange(h)[:, None]
    cols = np.arange(w)[None, :]
    images = []
    for i in range(count):
        rng = stream(seed, i)
        img = np.zeros((h, w, geometry.channels))
        for c in range(geometry.channels):
            fieldsum = np.zeros((h, w))
            for _ in range(blobs):
                cr = rng.uniform(0, h)
                cc = rng.uniform(0, w)
                radius = rng.uniform(min(h, w) / 5.0, min(h, w) / 2.2)
                amp = rng.uniform(0.3, 1.0)
                fieldsum += amp * np.exp(
                    -((rows - cr) ** 2 + (cols - cc) ** 2) / (2.0 * radius ** 2)
                )
            span = fieldsum.max() - fieldsum.min()
            if span > 0:
                fieldsum = (fieldsum - fieldsum.min()) / span
            img[:, :, c] = 0.05 + 0.9 * fieldsum
        images.append(img.ravel())
    return images


def _load_truth_image(path: Path, op: SensingOperator) -> np.ndarray:
    if path.suffix.lower() == ".pgm":
        img = read_pgm(path)
    else:
        img = read_nit1(path)
    x = np.asarray(img, dtype=np.float64).ravel()
    if x.size != op.n:
        raise ParameterError(
            f"{path}: image has {x.size} samples, operator expects {op.n}"
        )
    return x


def _truth_images(config: ExperimentConfig, op: SensingOperator) -> List[np.ndarray]:
    ds = config.dataset
    if ds.type == "synthetic":
        geometry = op.geometry
        if geometry is None:
            raise ParameterError("synthetic images need an operator with geometry")
        return make_smooth_images(geometry, ds.count, ds.seed, blobs=ds.blobs)
    if ds.type == "ingested":
        if not ds.paths:
            raise ParameterError("ingested dataset needs non-empty paths")
        return [_load_truth_image(Path(p), op) for p in ds.paths]
    raise ParameterError(f"unknown dataset type {ds.type!r}")


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def run_simulate(config: ExperimentConfig) -> dict:
    """Measure ground-truth images through the operator, with seeded noise.

    Writes ``truth/<id>.nit1``, ``meas/<id>.nit1``, and ``manifest.json``;
    image ``i`` draws its noise from the stream ``base_seed ^ i``.
    """
    op = build_operator(config.operator)
    out = Path(config.output_dir)
    (out / "truth").mkdir(parents=True, exist_ok=True)
    (out / "meas").mkdir(parents=True, exist_ok=True)
    sigma = config.noise.sigma_or(0.0)
    images = _truth_images(config, op)

    entries = []
    for i, x in enumerate(images):
        iid = image_id(i)
        y = op.apply(x)
        noise_seed = derive_seed(config.base_seed, i)
        if sigma > 0:
            y = y + sigma * generator(noise_seed).standard_normal(op.m)
        truth_rel = f"truth/{iid}.nit1"
        meas_rel = f"meas/{iid}.nit1"
        if op.geometry is not None:
            write_nit1(out / truth_rel, op.geometry.reshape(x))
        else:
            write_nit1(out / truth_rel, x)
        write_nit1(out / meas_rel, y)
        entries.append(
            {
                "id": iid,
                "index": i,
                "noise_seed": noise_seed,
                "truth": truth_rel,
                "measurement": meas_rel,
            }
        )

    manifest = {
        "experiment": "simulate",
        "dataset_name": config.dataset.name,
        "operator": operator_manifest(config.operator),
        "operator_shape": {"m": op.m, "n": op.n},
        "sigma": sigma,
        "base_seed": config.base_seed,
        "images": entries,
    }
    _write_json(out / "manifest.json", manifest)
    return {"manifest": str(out / "manifest.json"), "count": len(entries)}


def _load_manifest(config: ExperimentConfig) -> tuple:
    if config.dataset.manifest is None:
        raise ParameterError("this experiment needs dataset.manifest")
    manifest_path = Path(config.dataset.manifest)
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    op_spec = OperatorSpec.from_dict(manifest["operator"])
    op = build_operator(op_spec)
    return manifest, manifest_path.parent, op, op_spec


def _build_reconstructor(
    config: ExperimentConfig,
    op: SensingOperator,
    engine: PinvEngine,
    sigma: float,
) -> Reconstructor:
    spec = config.reconstructor
    if spec.kind == "adjoint":
        return AdjointReconstructor(op)
    if spec.kind == "pinv":
        return PinvReconstructor(engine)
    if spec.kind == "tikhonov":
        return TikhonovReconstructor(engine, spec.alpha)
    if spec.kind == "external":
        if spec.source_dir is None:
            raise ParameterError("external reconstructor needs source_dir")
        return ExternalReconstructor(spec.source_dir, pattern=spec.pattern, n=op.n)
    if spec.kind in ("learned_linear", "trainable_linear"):
        geometry = op.geometry
        if geometry is None:
            raise ParameterError("training a reconstructor needs operator geometry")
        signals = make_smooth_images(geometry, config.dataset.count, config.dataset.seed)
        train_set = make_dataset(op, signals, noise_sigma=sigma, seed=config.base_seed)
        if spec.kind == "learned_linear":
            return fit_learned_linear(op, train_set, alpha=spec.alpha)
        history = train_epochs(
            op, train_set, spec.epochs, learning_rate=spec.learning_rate,
            seed=config.base_seed,
        )
        return history.final
    raise ParameterError(f"unknown reconstructor kind {spec.kind!r}")


def run_reconstruct(config: ExperimentConfig) -> dict:
    """Apply the configured reconstructor to every measurement in a manifest."""
    manifest, base_dir, op, op_spec = _load_manifest(config)
    engine = build_engine(op, op_spec, config.correction)
    sigma = config.noise.sigma_or(manifest.get("sigma", 0.0))
    recon = _build_reconstructor(config, op, engine, sigma)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for entry in manifest["images"]:
        y = read_nit1(base_dir / entry["measurement"]).ravel()
        fhat = recon(y, image_id=entry["id"])
        rel = f"recon_{entry['id']}.nit1"
        write_nit1(out / rel, fhat)
        written.append(rel)
    return {"count": len(written), "output_dir": str(out)}


def _metrics_row(experiment: str, dataset: str, record) -> List[str]:
    return [
        experiment,
        dataset,
        record.image_id,
        record.method,
        format_metric(record.lam),
        format_metric(record.psnr),
        format_metric(record.ssim),
        format_metric(record.mse),
        format_metric(record.nullspace_consistency),
        format_metric(record.range_residual),
    ]


def _sorted_metric_rows(rows: List[List[str]]) -> List[List[str]]:
    return sorted(rows, key=lambda r: (r[1], r[2], r[3], r[4]))


def run_correct(config: ExperimentConfig) -> dict:
    """Correct stored reconstructions and emit the per-image metrics table.

    Reconstructions come from ``dataset.reconstruction_dir`` when set
    (files named ``recon_<id>.nit1``), otherwise from the configured
    reconstructor.  The noise weighting defaults to the manifest's sigma.
    """
    manifest, base_dir, op, op_spec = _load_manifest(config)
    engine = build_engine(op, op_spec, config.correction)
    sigma = config.noise.sigma_or(manifest.get("sigma", 0.0))
    if config.dataset.reconstruction_dir is not None:
        recon = ExternalReconstructor(config.dataset.reconstruction_dir, n=op.n)
    else:
        recon = _build_reconstructor(config, op, engine, sigma)
    correction = CorrectionConfig(
        mode=config.correction.mode,
        lam=config.correction.lam,
        noise=config.noise.model(sigma),
        cg_tol=config.correction.cg_tol,
        cg_max_iter=config.correction.cg_max_iter,
    )
    out = Path(config.output_dir)
    (out / "corrected").mkdir(parents=True, exist_ok=True)

    rows = []
    records = []
    for entry in manifest["images"]:
        iid = entry["id"]
        x = read_nit1(base_dir / entry["truth"]).ravel()
        y = read_nit1(base_dir / entry["measurement"]).ravel()
        fhat = recon(y, image_id=iid)
        corrected = correct(engine, y, fhat, correction)
        write_nit1(out / "corrected" / f"corrected_{iid}.nit1", corrected)
        lam = correction.lam if correction.mode == "regularized" else None
        net = evaluate_reconstruction(engine, x, y, fhat, iid, "network", None)
        proj = evaluate_reconstruction(engine, x, y, corrected, iid, "projected", lam)
        records.extend([net, proj])
        rows.append(_metrics_row("correct", manifest["dataset_name"], net))
        rows.append(_metrics_row("correct", manifest["dataset_name"], proj))

    csv_path = out / "metrics.csv"
    _write_csv(csv_path, METRICS_COLUMNS, _sorted_metric_rows(rows))
    return {"csv": str(csv_path), "records": records}


def run_evaluate(config: ExperimentConfig) -> dict:
    """Metrics table for stored outputs (no correction applied).

    Evaluates files from ``dataset.reconstruction_dir`` named by
    ``reconstructor.pattern`` against the manifest's ground truth.
    """
    manifest, base_dir, op, op_spec = _load_manifest(config)
    engine = build_engine(op, op_spec, config.correction)
    if config.dataset.reconstruction_dir is None:
        raise ParameterError("evaluate needs dataset.reconstruction_dir")
    source = ExternalReconstructor(
        config.dataset.reconstruction_dir, pattern=config.reconstructor.pattern, n=op.n
    )
    method = config.reconstructor.kind
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    rows = []
    records = []
    for entry in manifest["images"]:
        iid = entry["id"]
        x = read_nit1(base_dir / entry["truth"]).ravel()
        y = read_nit1(base_dir / entry["measurement"]).ravel()
        output = source(y, image_id=iid)
        rec = evaluate_reconstruction(engine, x, y, output, iid, method, None)
        records.append(rec)
        rows.append(_metrics_row("evaluate", manifest["dataset_name"], rec))

    csv_path = out / "metrics.csv"
    _write_csv(csv_path, METRICS_COLUMNS, _sorted_metric_rows(rows))
    return {"csv": str(csv_path), "records": records}


def _split_datasets(
    config: ExperimentConfig,
    op: SensingOperator,
    sigma: float,
    block: int = 0,
) -> tuple:
    """Disjoint train/test image and noise streams for sweep block ``block``."""
    geometry = op.geometry
    if geometry is None:
        raise ParameterError("synthetic experiments need operator geometry")
    ds = config.dataset
    offset = block * STREAM_STRIDE
    train_images = [
        make_smooth_images(geometry, 1, derive_seed(ds.seed, offset + i), blobs=ds.blobs)[0]
        for i in range(ds.count)
    ]
    test_images = [
        make_smooth_images(
            geometry, 1, derive_seed(ds.seed, offset + ds.count + j), blobs=ds.blobs
        )[0]
        for j in range(ds.test_count)
    ]
    train_set = Dataset(
        pairs=[], provenance={"sigma": sigma, "seed": ds.seed, "block": block}
    )
    for i, x in enumerate(train_images):
        y = op.apply(x)
        if sigma > 0:
            y = y + sigma * generator(derive_seed(config.base_seed, offset + i)).standard_normal(op.m)
        train_set.pairs.append((x, y))
    test_set = Dataset(
        pairs=[], provenance={"sigma": sigma, "seed": ds.seed, "block": block, "split": "test"}
    )
    for j, x in enumerate(test_images):
        y = op.apply(x)
        if sigma > 0:
            y = y + sigma * generator(
                derive_seed(config.base_seed, offset + ds.count + j)
            ).standard_normal(op.m)
        test_set.pairs.append((x, y))
    return train_set, test_set


def run_train_dynamics(config: ExperimentConfig) -> dict:
    """Track raw vs corrected error and consistency across training epochs."""
    op = build_operator(config.operator)
    engine = build_engine(op, config.operator, config.correction)
    sigma = config.noise.sigma_or(0.0)
    train_set, test_set = _split_datasets(config, op, sigma)

    history = train_epochs(
        op,
        train_set,
        config.reconstructor.epochs,
        learning_rate=config.reconstructor.learning_rate,
        seed=config.base_seed,
    )

    def split_state(dataset: Dataset) -> dict:
        pinv_y = np.stack([engine.pinv_apply(y) for _, y in dataset], axis=1)
        return {
            "x": dataset.signal_matrix(),
            "y": dataset.measurement_matrix(),
            "pinv_y": pinv_y,
            "a_pinv_y": np.stack(
                [op.apply(pinv_y[:, i]) for i in range(pinv_y.shape[1])], axis=1
            ),
        }

    splits = {"train": split_state(train_set), "test": split_state(test_set)}
    rows = []
    epoch_rows = []
    for epoch, model in enumerate(history.snapshots):
        stats = {}
        for name, state in splits.items():
            fhat = model.weights @ state["y"] + model.bias[:, None]
            count = fhat.shape[1]
            net_mse = proj_mse = consistency = 0.0
            for i in range(count):
                f_i = fhat[:, i]
                x_i = state["x"][:, i]
                projected = state["pinv_y"][:, i] + engine.nullspace_projector_apply(f_i)
                net_mse += mse(f_i, x_i)
                proj_mse += mse(projected, x_i)
                r = op.apply(f_i) - state["a_pinv_y"][:, i]
                consistency += float(r @ r)
            stats[name] = (net_mse / count, proj_mse / count, consistency / count)
        row = {
            "epoch": epoch,
            "train_mse_net": stats["train"][0],
            "train_mse_projected": stats["train"][1],
            "test_mse_net": stats["test"][0],
            "test_mse_projected": stats["test"][1],
            "nullspace_consistency_train": stats["train"][2],
            "nullspace_consistency_test": stats["test"][2],
        }
        epoch_rows.append(row)
        rows.append(
            [str(epoch)] + [format_metric(row[k]) for k in TRAIN_DYNAMICS_COLUMNS[1:]]
        )

    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "train_dynamics.csv"
    _write_csv(csv_path, TRAIN_DYNAMICS_COLUMNS, rows)
    return {"csv": str(csv_path), "epochs": epoch_rows, "history": history}


def run_sweep_lambda(config: ExperimentConfig) -> dict:
    """Per-noise-level grid search; emits network vs projected summary rows."""
    op = build_operator(config.operator)
    engine = build_engine(op, config.operator, config.correction)
    sigmas = config.noise.sigmas
    if not sigmas:
        raise ParameterError("sweep needs a non-empty noise.sigmas list")
    grid = config.correction.lambda_grid or list(DEFAULT_LAMBDA_GRID)
    geometry = op.geometry
    with_ssim = geometry is not None and min(geometry.height, geometry.width) >= 11

    rows = []
    summaries = []
    for block, sigma in enumerate(sigmas):
        train_set, test_set = _split_datasets(config, op, sigma, block=block)
        recon = fit_learned_linear(op, train_set, alpha=config.reconstructor.alpha)
        noise = NoiseModel.from_sigma(sigma)
        search = lambda_grid_search(
            engine,
            test_set.pairs,
            recon,
            grid=grid,
            noise=noise,
            objective=config.correction.objective,
        )
        net_psnr, net_ssim = [], []
        for x, y in test_set:
            fhat = recon(y)
            net_psnr.append(psnr(fhat, x))
            if with_ssim:
                net_ssim.append(ssim(fhat, x, geometry=geometry))
        best_row = next(r for r in search.table if r["lambda"] == search.best_lambda)
        summary = {
            "sigma": sigma,
            "best_lambda": search.best_lambda,
            "network_psnr": float(np.mean(net_psnr)),
            "projected_psnr": best_row["mean_psnr"],
            "table": search.table,
        }
        summaries.append(summary)
        rows.append([
            format_metric(sigma), config.dataset.name, "", "network",
            format_metric(summary["network_psnr"]),
            format_metric(float(np.mean(net_ssim)) if with_ssim else None),
        ])
        rows.append([
            format_metric(sigma), config.dataset.name,
            format_metric(search.best_lambda), "projected",
            format_metric(best_row["mean_psnr"]),
            format_metric(best_row.get("mean_ssim")),
        ])

    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "sweep_lambda.csv"
    _write_csv(csv_path, SWEEP_COLUMNS, rows)
    return {"csv": str(csv_path), "summaries": summaries}


def run_bench(config: ExperimentConfig) -> dict:
    """Benchmark reconstructor kinds with and without the exact correction."""
    op = build_operator(config.operator)
    engine = build_engine(op, config.operator, config.correction)
    sigma = config.noise.sigma_or(0.0)
    train_set, test_set = _split_datasets(config, op, sigma)
    geometry = op.geometry
    with_ssim = geometry is not None and min(geometry.height, geometry.width) >= 11

    rows = []
    summaries = []
    for kind in config.reconstructor.kinds:
        if kind == "adjoint":
            recon = AdjointReconstructor(op)
        elif kind == "pinv":
            recon = PinvReconstructor(engine)
        elif kind == "tikhonov":
            recon = TikhonovReconstructor(engine, config.reconstructor.alpha)
        elif kind == "learned_linear":
            recon = fit_learned_linear(op, train_set, alpha=config.reconstructor.alpha)
        elif kind == "trainable_linear":
            recon = train_epochs(
                op, train_set, config.reconstructor.epochs,
                learning_rate=config.reconstructor.learning_rate,
                seed=config.base_seed,
            ).final
        else:
            raise ParameterError(f"unknown bench reconstructor kind {kind!r}")

        net_psnr, proj_psnr, net_ssim, proj_ssim = [], [], [], []
        for x, y in test_set:
            fhat = recon(y)
            projected = exact_correction(engine, y, fhat)
            net_psnr.append(psnr(fhat, x))
            proj_psnr.append(psnr(projected, x))
            if with_ssim:
                net_ssim.append(ssim(fhat, x, geometry=geometry))
                proj_ssim.append(ssim(projected, x, geometry=geometry))
        summary = {
            "reconstructor": kind,
            "psnr_net": float(np.mean(net_psnr)),
            "psnr_projected": float(np.mean(proj_psnr)),
            "ssim_net": float(np.mean(net_ssim)) if with_ssim else None,
            "ssim_projected": float(np.mean(proj_ssim)) if with_ssim else None,
        }
        summaries.append(summary)
        rows.append([
            op.kind, kind,
            format_metric(summary["psnr_net"]),
            format_metric(summary["psnr_projected"]),
            format_metric(summary["ssim_net"]),
            format_metric(summary["ssim_projected"]),
        ])

    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "bench.csv"
    _write_csv(csv_path, BENCH_COLUMNS, rows)
    return {"csv": str(csv_path), "summaries": summaries}


RUNNERS = {
    "simulate": run_simulate,
    "reconstruct": run_reconstruct,
    "correct": run_correct,
    "evaluate": run_evaluate,
    "train_dynamics": run_train_dynamics,
    "sweep_lambda": run_sweep_lambda,
    "bench": run_bench,
}


def run_experiment(config: ExperimentConfig) -> dict:
    runner = RUNNERS.get(config.experiment)
    if runner is None:
        raise ParameterError(f"unknown experiment {config.experiment!r}")
    return runner(config)
