"""Experiment drivers: simulation, correction, training dynamics, sweeps.

Every driver takes an :class:`~projcorr.config.ExperimentConfig` and opens one
``_Stage`` on it: the operator, the noise level, the output directory, an
engine built on first use, and for the stages that replay a simulation the
manifest's ids and files.  The stage draws the train/test splits, builds
reconstructors and writes the CSV tables; drivers keep only what is their
own and return a small summary dict.  All randomness is derived from the
recorded seeds, so re-running a config reproduces every output byte-for-byte.
"""

from __future__ import annotations

import csv
import json
from functools import cached_property
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


def make_smooth_images(
    geometry: Geometry, count: int, seed: int, blobs: int = 6, start: int = 0
) -> List[np.ndarray]:
    """Deterministic smooth test images in [0, 1] (sums of Gaussian bumps).

    Image ``i``, for ``i`` from ``start`` to ``start + count - 1``, draws from
    the stream ``seed ^ i``, so any run of images can be drawn on its own.
    Bump radii span min(H, W)/5 to min(H, W)/2.2, giving spectra dominated by
    low frequencies, a desk-scale stand-in for natural image crops.
    """
    h, w = geometry.height, geometry.width
    rows = np.arange(h)[:, None]
    cols = np.arange(w)[None, :]
    images = []
    for i in range(start, start + count):
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


def _draw_split(
    config: ExperimentConfig,
    op: SensingOperator,
    sigma: float,
    first: int,
    count: int,
    block: int = 0,
    images: Optional[List[np.ndarray]] = None,
    **provenance,
) -> Dataset:
    """Images ``first`` to ``first + count - 1`` of sweep block ``block``, measured.

    ``images`` replaces the synthetic draw (ingested ground truth); the noise
    streams are the same either way.
    """
    ds = config.dataset
    start = block * STREAM_STRIDE + first
    if images is None:
        if op.geometry is None:
            raise ParameterError("synthetic images need an operator with geometry")
        images = make_smooth_images(op.geometry, count, ds.seed, blobs=ds.blobs, start=start)
    noise_seeds = [derive_seed(config.base_seed, k) for k in range(start, start + count)]
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


class _Stage:
    """One driver's operator, engine, noise level and outputs.

    With ``manifest=True`` the operator and the default sigma are replayed
    from ``dataset.manifest``, whose entries give ``ids`` and ``columns``.
    """

    def __init__(self, config: ExperimentConfig, manifest: bool = False):
        self.config = config
        self.spec = config.operator
        sigma = 0.0
        if manifest:
            if config.dataset.manifest is None:
                raise ParameterError("this experiment needs dataset.manifest")
            path = Path(config.dataset.manifest)
            with open(path) as fh:
                self.manifest = json.load(fh)
            self.base_dir = path.parent
            self.ids = [entry["id"] for entry in self.manifest["images"]]
            self.spec = OperatorSpec.from_dict(self.manifest["operator"])
            sigma = self.manifest.get("sigma", 0.0)
        self.op = build_operator(self.spec)
        self.sigma = config.noise.sigma_or(sigma)
        self.out = Path(config.output_dir)

    @cached_property
    def engine(self) -> PinvEngine:
        return build_engine(self.op, self.spec, self.config.correction)

    def columns(self, key: str) -> np.ndarray:
        """The manifest files named by ``key``, one flattened image per column."""
        entries = self.manifest["images"]
        return np.stack([read_nit1(self.base_dir / e[key]).ravel() for e in entries], axis=1)

    def splits(self, sigma: Optional[float] = None, block: int = 0) -> tuple:
        """Train and test sets of sweep block ``block``, at ``sigma`` or the stage's."""
        return _split_datasets(self.config, self.op, self.sigma if sigma is None else sigma, block)

    def reconstructor(self, kind: str, train_set: Optional[Dataset] = None) -> Reconstructor:
        """The ``kind`` reconstructor; learned kinds fit ``train_set`` if given."""
        spec = self.config.reconstructor
        if kind == "adjoint":
            return AdjointReconstructor(self.op)
        if kind == "pinv":
            return PinvReconstructor(self.engine)
        if kind == "tikhonov":
            return TikhonovReconstructor(self.engine, spec.alpha)
        if kind == "external":
            if spec.source_dir is None:
                raise ParameterError("external reconstructor needs source_dir")
            return ExternalReconstructor(spec.source_dir, pattern=spec.pattern, n=self.op.n)
        if kind in ("learned_linear", "trainable_linear"):
            if train_set is None:
                train_set = _draw_split(self.config, self.op, self.sigma, 0,
                                        self.config.dataset.count)
            if kind == "learned_linear":
                return fit_learned_linear(self.op, train_set, alpha=spec.alpha)
            for model, _, _ in gradient_descent(
                self.op, train_set, spec.epochs, learning_rate=spec.learning_rate,
                seed=self.config.base_seed,
            ):
                pass
            return model
        raise ParameterError(f"unknown reconstructor kind {kind!r}")

    def path(self, *parts: str) -> Path:
        """``out/parts...``, with its directory made."""
        path = self.out.joinpath(*parts)
        path.parent.mkdir(parents=True, exist_ok=True)
        return path

    def write_csv(self, name: str, header: Sequence[str],
                  rows: Sequence[Sequence[str]]) -> str:
        path = self.path(name)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        return str(path)

    def write_metrics(self, experiment: str, records) -> str:
        """``metrics.csv``, one row per record, sorted by image, method and lambda."""
        rows = [
            [experiment, self.manifest["dataset_name"], r.image_id, r.method]
            + [format_metric(v) for v in (r.lam, r.psnr, r.ssim, r.mse,
                                          r.nullspace_consistency, r.range_residual)]
            for r in records
        ]
        return self.write_csv("metrics.csv", METRICS_COLUMNS,
                              sorted(rows, key=lambda row: row[1:5]))


def run_simulate(config: ExperimentConfig) -> dict:
    """Measure ground-truth images through the operator, with seeded noise.

    Writes ``truth/<id>.nit1``, ``meas/<id>.nit1``, and ``manifest.json``;
    image ``i`` draws its noise from the stream ``base_seed ^ i``.  Synthetic
    images are the training split that the other drivers draw.
    """
    stage = _Stage(config)
    op, ds = stage.op, config.dataset
    images = None
    if ds.type == "ingested":
        if not ds.paths:
            raise ParameterError("ingested dataset needs non-empty paths")
        images = [_load_truth_image(Path(p), op) for p in ds.paths]
    elif ds.type != "synthetic":
        raise ParameterError(f"unknown dataset type {ds.type!r}")
    count = ds.count if images is None else len(images)
    pairs = _draw_split(config, op, stage.sigma, 0, count, images=images).pairs

    entries = []
    for i, (x, y) in enumerate(pairs):
        iid = f"img{i:04d}"
        truth_rel = f"truth/{iid}.nit1"
        meas_rel = f"meas/{iid}.nit1"
        write_nit1(stage.path(truth_rel), x if op.geometry is None else op.geometry.reshape(x))
        write_nit1(stage.path(meas_rel), y)
        entries.append(
            {
                "id": iid,
                "index": i,
                "noise_seed": derive_seed(config.base_seed, i),
                "truth": truth_rel,
                "measurement": meas_rel,
            }
        )

    manifest = {
        "experiment": "simulate",
        "dataset_name": ds.name,
        "operator": operator_manifest(config.operator),
        "operator_shape": {"m": op.m, "n": op.n},
        "sigma": stage.sigma,
        "base_seed": config.base_seed,
        "images": entries,
    }
    path = stage.path("manifest.json")
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return {"manifest": str(path), "count": len(entries)}


def run_reconstruct(config: ExperimentConfig) -> dict:
    """Apply the configured reconstructor to every measurement in a manifest."""
    stage = _Stage(config, manifest=True)
    recon = stage.reconstructor(config.reconstructor.kind)
    fhat = recon(stage.columns("measurement"), image_id=stage.ids)
    for iid, column in zip(stage.ids, fhat.T):
        write_nit1(stage.path(f"recon_{iid}.nit1"), column)
    return {"count": len(stage.ids), "output_dir": str(stage.out)}


def run_correct(config: ExperimentConfig) -> dict:
    """Correct stored reconstructions and emit the per-image metrics table.

    Reconstructions come from ``dataset.reconstruction_dir`` when set
    (files named ``recon_<id>.nit1``), otherwise from the configured
    reconstructor.  The noise weighting defaults to the manifest's sigma.
    """
    stage = _Stage(config, manifest=True)
    if config.dataset.reconstruction_dir is not None:
        recon = ExternalReconstructor(config.dataset.reconstruction_dir, n=stage.op.n)
    else:
        recon = stage.reconstructor(config.reconstructor.kind)
    correction = CorrectionConfig(
        mode=config.correction.mode,
        lam=config.correction.lam,
        noise=config.noise.model(stage.sigma),
    )
    engine, ids = stage.engine, stage.ids
    x = stage.columns("truth")
    y = stage.columns("measurement")
    fhat = recon(y, image_id=ids)
    corrected = correct(engine, y, fhat, correction)
    for iid, column in zip(ids, corrected.T):
        write_nit1(stage.path("corrected", f"corrected_{iid}.nit1"), column)
    lam = correction.lam if correction.mode == "regularized" else None
    net = evaluate_reconstruction(engine, x, y, fhat, ids, "network", None)
    proj = evaluate_reconstruction(engine, x, y, corrected, ids, "projected", lam)
    records = [record for pair in zip(net, proj) for record in pair]
    return {"csv": stage.write_metrics("correct", records), "records": records}


def run_evaluate(config: ExperimentConfig) -> dict:
    """Metrics table for stored outputs (no correction applied).

    Evaluates files from ``dataset.reconstruction_dir`` named by
    ``reconstructor.pattern`` against the manifest's ground truth.
    """
    stage = _Stage(config, manifest=True)
    if config.dataset.reconstruction_dir is None:
        raise ParameterError("evaluate needs dataset.reconstruction_dir")
    source = ExternalReconstructor(
        config.dataset.reconstruction_dir, pattern=config.reconstructor.pattern, n=stage.op.n
    )
    y = stage.columns("measurement")
    records = evaluate_reconstruction(
        stage.engine, stage.columns("truth"), y, source(y, image_id=stage.ids),
        stage.ids, config.reconstructor.kind, None,
    )
    return {"csv": stage.write_metrics("evaluate", records), "records": records}


def run_train_dynamics(config: ExperimentConfig) -> dict:
    """Track raw vs corrected error and consistency across training epochs.

    Each epoch is evaluated as ``gradient_descent`` yields it, so memory does
    not grow with the epoch count; the train split reuses the yielded outputs.
    """
    stage = _Stage(config)
    op, engine = stage.op, stage.engine
    train_set, test_set = stage.splits()

    def split_state(dataset: Dataset) -> dict:
        y = dataset.measurement_matrix()
        pinv_y = engine.pinv_apply(y)
        return {"x": dataset.signal_matrix(), "y": y, "pinv_y": pinv_y,
                "a_pinv_y": op.apply(pinv_y)}

    splits = {"train": split_state(train_set), "test": split_state(test_set)}
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
        epoch_rows.append({key: stats[key] for key in TRAIN_DYNAMICS_COLUMNS})

    rows = [[str(row["epoch"])] + [format_metric(row[k]) for k in TRAIN_DYNAMICS_COLUMNS[1:]]
            for row in epoch_rows]
    csv_path = stage.write_csv("train_dynamics.csv", TRAIN_DYNAMICS_COLUMNS, rows)
    return {"csv": csv_path, "epochs": epoch_rows}


def run_sweep_lambda(config: ExperimentConfig) -> dict:
    """Per-noise-level grid search; emits network vs projected summary rows."""
    stage = _Stage(config)
    op = stage.op
    sigmas = config.noise.sigmas
    if not sigmas:
        raise ParameterError("sweep needs a non-empty noise.sigmas list")
    grid = config.correction.lambda_grid or list(DEFAULT_LAMBDA_GRID)
    name = config.dataset.name

    rows = []
    summaries = []
    for block, sigma in enumerate(sigmas):
        train_set, test_set = stage.splits(sigma, block)
        recon = fit_learned_linear(op, train_set, alpha=config.reconstructor.alpha)
        search = lambda_grid_search(
            stage.engine,
            test_set.pairs,
            recon,
            grid=grid,
            noise=NoiseModel.from_sigma(sigma),
            objective=config.correction.objective,
        )
        net_psnr, net_ssim = mean_quality(
            recon(test_set.measurement_matrix()), test_set.signal_matrix(), op.geometry
        )
        best_row = next(r for r in search.table if r["lambda"] == search.best_lambda)
        summaries.append({
            "sigma": sigma,
            "best_lambda": search.best_lambda,
            "network_psnr": net_psnr,
            "projected_psnr": best_row["mean_psnr"],
            "table": search.table,
        })
        rows.append([format_metric(sigma), name, "", "network",
                     format_metric(net_psnr), format_metric(net_ssim)])
        rows.append([format_metric(sigma), name, format_metric(search.best_lambda),
                     "projected", format_metric(best_row["mean_psnr"]),
                     format_metric(best_row.get("mean_ssim"))])

    csv_path = stage.write_csv("sweep_lambda.csv", SWEEP_COLUMNS, rows)
    return {"csv": csv_path, "summaries": summaries}


def run_bench(config: ExperimentConfig) -> dict:
    """Benchmark reconstructor kinds with and without the exact correction."""
    stage = _Stage(config)
    op = stage.op
    train_set, test_set = stage.splits()
    x = test_set.signal_matrix()
    y = test_set.measurement_matrix()

    rows = []
    summaries = []
    for kind in config.reconstructor.kinds:
        fhat = stage.reconstructor(kind, train_set)(y)
        psnr_net, ssim_net = mean_quality(fhat, x, op.geometry)
        psnr_projected, ssim_projected = mean_quality(
            exact_correction(stage.engine, y, fhat), x, op.geometry
        )
        values = (psnr_net, psnr_projected, ssim_net, ssim_projected)
        summaries.append({"reconstructor": kind, **dict(zip(BENCH_COLUMNS[2:], values))})
        rows.append([op.kind, kind] + [format_metric(v) for v in values])

    csv_path = stage.write_csv("bench.csv", BENCH_COLUMNS, rows)
    return {"csv": csv_path, "summaries": summaries}


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
