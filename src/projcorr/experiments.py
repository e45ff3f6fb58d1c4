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
from typing import List, Optional, Sequence

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
from .metrics import evaluate_reconstruction, format_metric, mean_quality, mse
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
    gradient_descent,
    measure_pairs,
)
from .rng import derive_seed, stream
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
    noise_seeds = [derive_seed(config.base_seed, i) for i in range(len(images))]
    pairs = measure_pairs(op, images, sigma, noise_seeds)

    entries = []
    for i, ((x, y), noise_seed) in enumerate(zip(pairs, noise_seeds)):
        iid = image_id(i)
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


def _read_columns(base_dir: Path, entries: List[dict], key: str) -> np.ndarray:
    """The manifest files named by ``key``, one flattened image per column."""
    return np.stack([read_nit1(base_dir / e[key]).ravel() for e in entries], axis=1)


def _build_reconstructor(
    config: ExperimentConfig,
    op: SensingOperator,
    engine: PinvEngine,
    sigma: float,
    kind: str,
    train_set: Optional[Dataset] = None,
) -> Reconstructor:
    """The ``kind`` reconstructor; learned kinds fit ``train_set`` if given."""
    spec = config.reconstructor
    if kind == "adjoint":
        return AdjointReconstructor(op)
    if kind == "pinv":
        return PinvReconstructor(engine)
    if kind == "tikhonov":
        return TikhonovReconstructor(engine, spec.alpha)
    if kind == "external":
        if spec.source_dir is None:
            raise ParameterError("external reconstructor needs source_dir")
        return ExternalReconstructor(spec.source_dir, pattern=spec.pattern, n=op.n)
    if kind in ("learned_linear", "trainable_linear"):
        if train_set is None:
            train_set = _draw_split(config, op, sigma, 0, config.dataset.count)
        if kind == "learned_linear":
            return fit_learned_linear(op, train_set, alpha=spec.alpha)
        for model, _, _ in gradient_descent(
            op, train_set, spec.epochs, learning_rate=spec.learning_rate,
            seed=config.base_seed,
        ):
            pass
        return model
    raise ParameterError(f"unknown reconstructor kind {kind!r}")


def run_reconstruct(config: ExperimentConfig) -> dict:
    """Apply the configured reconstructor to every measurement in a manifest."""
    manifest, base_dir, op, op_spec = _load_manifest(config)
    engine = build_engine(op, op_spec, config.correction)
    sigma = config.noise.sigma_or(manifest.get("sigma", 0.0))
    recon = _build_reconstructor(config, op, engine, sigma, config.reconstructor.kind)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = manifest["images"]
    ids = [entry["id"] for entry in entries]
    fhat = recon(_read_columns(base_dir, entries, "measurement"), image_id=ids)
    for iid, column in zip(ids, fhat.T):
        write_nit1(out / f"recon_{iid}.nit1", column)
    return {"count": len(ids), "output_dir": str(out)}


def _write_metrics(out: Path, experiment: str, dataset: str, records) -> str:
    """``out/metrics.csv``, one row per record, sorted by image, method and lambda."""
    rows = [
        [experiment, dataset, r.image_id, r.method]
        + [format_metric(v) for v in (r.lam, r.psnr, r.ssim, r.mse,
                                      r.nullspace_consistency, r.range_residual)]
        for r in records
    ]
    csv_path = out / "metrics.csv"
    _write_csv(csv_path, METRICS_COLUMNS, sorted(rows, key=lambda row: row[1:5]))
    return str(csv_path)


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
        recon = _build_reconstructor(config, op, engine, sigma, config.reconstructor.kind)
    correction = CorrectionConfig(
        mode=config.correction.mode,
        lam=config.correction.lam,
        noise=config.noise.model(sigma),
    )
    out = Path(config.output_dir)
    (out / "corrected").mkdir(parents=True, exist_ok=True)

    entries = manifest["images"]
    ids = [entry["id"] for entry in entries]
    x = _read_columns(base_dir, entries, "truth")
    y = _read_columns(base_dir, entries, "measurement")
    fhat = recon(y, image_id=ids)
    corrected = correct(engine, y, fhat, correction)
    for iid, column in zip(ids, corrected.T):
        write_nit1(out / "corrected" / f"corrected_{iid}.nit1", column)
    lam = correction.lam if correction.mode == "regularized" else None
    net = evaluate_reconstruction(engine, x, y, fhat, ids, "network", None)
    proj = evaluate_reconstruction(engine, x, y, corrected, ids, "projected", lam)
    records = [record for pair in zip(net, proj) for record in pair]
    csv_path = _write_metrics(out, "correct", manifest["dataset_name"], records)
    return {"csv": csv_path, "records": records}


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
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    entries = manifest["images"]
    ids = [entry["id"] for entry in entries]
    y = _read_columns(base_dir, entries, "measurement")
    records = evaluate_reconstruction(
        engine, _read_columns(base_dir, entries, "truth"), y, source(y, image_id=ids),
        ids, config.reconstructor.kind, None,
    )
    csv_path = _write_metrics(out, "evaluate", manifest["dataset_name"], records)
    return {"csv": csv_path, "records": records}


def _draw_split(
    config: ExperimentConfig,
    op: SensingOperator,
    sigma: float,
    first: int,
    count: int,
    block: int = 0,
    **provenance,
) -> Dataset:
    """Images ``first`` to ``first + count - 1`` of sweep block ``block``, measured."""
    geometry = op.geometry
    if geometry is None:
        raise ParameterError("synthetic experiments need operator geometry")
    ds = config.dataset
    start = block * STREAM_STRIDE + first
    streams = range(start, start + count)
    images = [
        make_smooth_images(geometry, 1, derive_seed(ds.seed, k), blobs=ds.blobs)[0]
        for k in streams
    ]
    noise_seeds = [derive_seed(config.base_seed, k) for k in streams]
    return Dataset(
        pairs=measure_pairs(op, images, sigma, noise_seeds),
        provenance={"sigma": sigma, "seed": ds.seed, "block": block, **provenance},
    )


def _split_datasets(
    config: ExperimentConfig,
    op: SensingOperator,
    sigma: float,
    block: int = 0,
) -> tuple:
    """Disjoint train/test image and noise streams for sweep block ``block``."""
    count = config.dataset.count
    return (
        _draw_split(config, op, sigma, 0, count, block),
        _draw_split(config, op, sigma, count, config.dataset.test_count, block, split="test"),
    )


def run_train_dynamics(config: ExperimentConfig) -> dict:
    """Track raw vs corrected error and consistency across training epochs.

    Each epoch is evaluated as ``gradient_descent`` yields it, so memory does
    not grow with the epoch count; the train split reuses the yielded outputs.
    """
    op = build_operator(config.operator)
    engine = build_engine(op, config.operator, config.correction)
    sigma = config.noise.sigma_or(0.0)
    train_set, test_set = _split_datasets(config, op, sigma)

    def split_state(dataset: Dataset) -> dict:
        y = dataset.measurement_matrix()
        pinv_y = engine.pinv_apply(y)
        return {"x": dataset.signal_matrix(), "y": y, "pinv_y": pinv_y,
                "a_pinv_y": op.apply(pinv_y)}

    splits = {"train": split_state(train_set), "test": split_state(test_set)}
    rows = []
    epoch_rows = []
    spec = config.reconstructor
    descent = gradient_descent(op, train_set, spec.epochs,
                               learning_rate=spec.learning_rate, seed=config.base_seed)
    for epoch, (model, train_outputs, _) in enumerate(descent):
        stats = {"epoch": epoch}
        for name, state in splits.items():
            # mse of two blocks is the mean of the per-image MSEs
            fhat = train_outputs if name == "train" else model(state["y"])
            projected = state["pinv_y"] + engine.nullspace_projector_apply(fhat)
            r = op.apply(fhat) - state["a_pinv_y"]
            stats[f"{name}_mse_net"] = mse(fhat, state["x"])
            stats[f"{name}_mse_projected"] = mse(projected, state["x"])
            stats[f"nullspace_consistency_{name}"] = float(np.sum(r * r)) / r.shape[1]
        row = {key: stats[key] for key in TRAIN_DYNAMICS_COLUMNS}
        epoch_rows.append(row)
        rows.append(
            [str(epoch)] + [format_metric(row[k]) for k in TRAIN_DYNAMICS_COLUMNS[1:]]
        )

    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "train_dynamics.csv"
    _write_csv(csv_path, TRAIN_DYNAMICS_COLUMNS, rows)
    return {"csv": str(csv_path), "epochs": epoch_rows}


def run_sweep_lambda(config: ExperimentConfig) -> dict:
    """Per-noise-level grid search; emits network vs projected summary rows."""
    op = build_operator(config.operator)
    engine = build_engine(op, config.operator, config.correction)
    sigmas = config.noise.sigmas
    if not sigmas:
        raise ParameterError("sweep needs a non-empty noise.sigmas list")
    grid = config.correction.lambda_grid or list(DEFAULT_LAMBDA_GRID)

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
        net_psnr, net_ssim = mean_quality(
            recon(test_set.measurement_matrix()), test_set.signal_matrix(), op.geometry
        )
        best_row = next(r for r in search.table if r["lambda"] == search.best_lambda)
        summary = {
            "sigma": sigma,
            "best_lambda": search.best_lambda,
            "network_psnr": net_psnr,
            "projected_psnr": best_row["mean_psnr"],
            "table": search.table,
        }
        summaries.append(summary)
        rows.append([
            format_metric(sigma), config.dataset.name, "", "network",
            format_metric(summary["network_psnr"]),
            format_metric(net_ssim),
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
    x = test_set.signal_matrix()
    y = test_set.measurement_matrix()

    rows = []
    summaries = []
    for kind in config.reconstructor.kinds:
        recon = _build_reconstructor(config, op, engine, sigma, kind, train_set)
        fhat = recon(y)
        psnr_net, ssim_net = mean_quality(fhat, x, op.geometry)
        psnr_projected, ssim_projected = mean_quality(
            exact_correction(engine, y, fhat), x, op.geometry
        )
        summary = {
            "reconstructor": kind,
            "psnr_net": psnr_net,
            "psnr_projected": psnr_projected,
            "ssim_net": ssim_net,
            "ssim_projected": ssim_projected,
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
