"""The benchmark's three workloads and the reference checks on their outputs.

Each workload is a closed loop: one job at a time, the next job starts when
the previous one has returned.  Every seed a workload uses is derived from
one workload seed ``s``: the dataset seed is ``s * 2**32 + 5``, the noise
base seed ``s * 2**32 + 21`` and the operator seed ``s * 2**32 + 37``.  The
package derives per-item streams by XOR-ing small indices into these seeds,
so seeds that differ only in their low bits would draw the same images and
projection rows; spacing them by ``2**32`` keeps every workload seed's
inputs distinct.  The default ``s = 0`` makes ``train_blur32`` exactly the
acceptance-test criterion-8 configuration (dataset seed 5, base seed 21).

A job is driven through the package's public entry points only
(``projcorr.cli.main``, ``projcorr.experiments.run_*``,
``projcorr.config.build_*``), looked up on their modules at call time so
that a traced run sees the wrapped drivers.  The checks run after the timed part and
compare every job's outputs with a reference computed here by NumPy.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import struct
import sys
from pathlib import Path

import numpy as np

from projcorr import DEFAULT_LAMBDA_GRID, cli, experiments
from projcorr.config import ExperimentConfig, build_engine, build_operator
from projcorr.experiments import STREAM_STRIDE, make_smooth_images
from projcorr.reconstructors import Dataset, fit_learned_linear, gradient_lipschitz
from projcorr.rng import derive_seed, generator

DEFAULT_SEED = 0

# Last-epoch test MSEs of train_blur32 per workload seed, recorded from
# unmodified code (commit 5ad0365).  The projected MSE sits at the rounding
# floor (about 6e-23 on every seed), so it is compared with a tolerance of
# 1e-6 of the network's MSE rather than of itself.
TRAIN_REFERENCE = Path(__file__).with_name("train_reference.json")


def read_nit1(path: Path) -> np.ndarray:
    """NIT1 reader independent of ``projcorr.tensorio`` (header, dims, float32)."""
    raw = path.read_bytes()
    ndim = raw[5]
    shape = struct.unpack(f"<{ndim}I", raw[8:8 + 4 * ndim])
    return np.frombuffer(raw, dtype="<f4", offset=8 + 4 * ndim).astype(np.float64).reshape(shape)


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    d = np.ravel(a) - np.ravel(b)
    return 10.0 * math.log10(d.size / float(d @ d))


class Workload:
    """One benchmark workload; ``span`` is replaced by a tracer in traced runs."""

    name = "abstract"
    items_per_job = 1
    span = staticmethod(lambda name: contextlib.nullcontext())

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.config = self.make_config()
        self.config.dataset.seed = (seed << 32) + 5
        self.config.base_seed = (seed << 32) + 21
        self.config.operator.seed = (seed << 32) + 37

    def make_config(self) -> ExperimentConfig:
        raise NotImplementedError

    def build(self):
        """Operator and engine construction, the part timed as ``setup_s``."""
        op = build_operator(self.config.operator)
        return op, build_engine(op, self.config.operator, self.config.correction)

    def run_job(self, job: int):
        """Run one job; returns what ``check`` needs."""
        raise NotImplementedError

    def check(self, outputs: list) -> tuple:
        """``(failed items, psnr_db)`` over the outputs of jobs that returned."""
        raise NotImplementedError


class PipelineCs64(Workload):
    """simulate -> reconstruct -> correct -> evaluate through the CLI."""

    name = "pipeline_cs64"
    items_per_job = 16
    sigma = 0.01

    def make_config(self):
        return ExperimentConfig.from_dict({
            "operator": {"kind": "random_projection", "height": 64, "width": 64, "m": 1024},
            "reconstructor": {"kind": "tikhonov", "alpha": 1e-2,
                              "pattern": "corrected_{image_id}.nit1"},
            "correction": {"mode": "exact"},
            "dataset": {"type": "synthetic", "count": self.items_per_job},
        })

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.config_path = workdir / "pipeline.json"
        self.config.save(self.config_path)

    def run_job(self, job):
        root = self.workdir / f"job{job:03d}"
        sim, rec, cor, ev = (root / d for d in ("sim", "rec", "cor", "ev"))
        manifest = sim / "manifest.json"
        stages = (
            ("simulate", ["--out", sim, "--sigma", self.sigma]),
            ("reconstruct", ["--manifest", manifest, "--out", rec]),
            ("correct", ["--manifest", manifest, "--recon-dir", rec, "--mode", "exact",
                         "--out", cor]),
            ("evaluate", ["--manifest", manifest, "--recon-dir", cor / "corrected",
                          "--out", ev]),
        )
        for stage, flags in stages:
            argv = [stage, "--config", str(self.config_path)] + [str(f) for f in flags]
            with self.span(f"cli.stage.{stage}"), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"projcorr {stage} exited with code {code}")
        return root

    def check(self, outputs):
        a = build_operator(self.config.operator).to_dense()
        pinv = np.linalg.pinv(a)
        failed = 0
        psnrs = []
        for root in outputs:
            with open(root / "sim" / "manifest.json") as fh:
                entries = json.load(fh)["images"]
            with open(root / "ev" / "metrics.csv", newline="") as fh:
                scored = {row["image_id"]: float(row["psnr"]) for row in csv.DictReader(fh)}
            psnrs = []
            for entry in entries:
                iid = entry["id"]
                x = read_nit1(root / "sim" / entry["truth"]).ravel()
                y = read_nit1(root / "sim" / entry["measurement"]).ravel()
                fhat = read_nit1(root / "rec" / f"recon_{iid}.nit1").ravel()
                out = read_nit1(root / "cor" / "corrected" / f"corrected_{iid}.nit1").ravel()
                ref = fhat + pinv @ (y - a @ fhat)
                error = np.linalg.norm(out - ref) / np.linalg.norm(ref)
                psnrs.append(psnr(out, x))
                if not (error <= 1e-6 and abs(scored[iid] - psnrs[-1]) <= 1e-5 * abs(psnrs[-1])):
                    print(f"{self.name}: {root.name}/{iid} misses the reference: "
                          f"relative error {error:.3g}, evaluate psnr {scored[iid]} "
                          f"vs {psnrs[-1]:.6g}", file=sys.stderr)
                    failed += 1
        return failed, float(np.mean(psnrs)) if psnrs else math.nan


def split_pairs(config: ExperimentConfig, op, sigma: float, block: int = 0) -> tuple:
    """Train and test ``(x, y)`` pairs of one sweep block, as the drivers draw them.

    Rebuilt from public helpers rather than by calling the drivers' private
    ``_split_datasets``, so the references do not depend on its signature.
    """
    ds = config.dataset
    offset = block * STREAM_STRIDE

    def pair(index):
        x = make_smooth_images(op.geometry, 1, derive_seed(ds.seed, offset + index),
                               blobs=ds.blobs)[0]
        y = op.apply(x)
        if sigma > 0:
            noise = generator(derive_seed(config.base_seed, offset + index))
            y = y + sigma * noise.standard_normal(op.m)
        return x, y

    train = [pair(i) for i in range(ds.count)]
    test = [pair(ds.count + j) for j in range(ds.test_count)]
    return train, test


class SweepBlur32(Workload):
    """``run_sweep_lambda`` with its defaults: 5 noise levels x 9 weights x 8 images."""

    name = "sweep_blur32"

    def make_config(self):
        return ExperimentConfig(experiment="sweep_lambda")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        c = self.config
        self.items_per_job = len(c.noise.sigmas) * len(DEFAULT_LAMBDA_GRID) * c.dataset.test_count

    def run_job(self, job):
        self.config.output_dir = str(self.workdir / f"job{job:03d}")
        return experiments.run_sweep_lambda(self.config)["summaries"]

    def check(self, outputs):
        op = build_operator(self.config.operator)
        a = op.to_dense()
        sigmas = self.config.noise.sigmas
        per_block = self.items_per_job // len(sigmas)
        expected = {}

        def reference_psnr(block, lam):
            # the chosen weight re-solved densely: x = (I + w A^T A)^-1 (fhat + w A^T y)
            sigma = sigmas[block]
            train, test = split_pairs(self.config, op, sigma, block)
            recon = fit_learned_linear(op, Dataset(pairs=train),
                                       alpha=self.config.reconstructor.alpha)
            x = np.stack([x for x, _ in test], axis=1)
            y = np.stack([y for _, y in test], axis=1)
            fhat = np.stack([recon(y[:, j]) for j in range(y.shape[1])], axis=1)
            w = lam / sigma ** 2
            corrected = np.linalg.solve(np.eye(op.n) + w * (a.T @ a), fhat + w * (a.T @ y))
            return float(np.mean([psnr(corrected[:, j], x[:, j]) for j in range(x.shape[1])]))

        failed = 0
        psnr_db = math.nan
        for summaries in outputs:
            projected = []
            for block, summary in enumerate(summaries):
                sigma, lam = sigmas[block], summary["best_lambda"]
                row = next(r for r in summary["table"] if r["lambda"] == lam)
                if (block, lam) not in expected:
                    expected[block, lam] = reference_psnr(block, lam)
                ref = expected[block, lam]
                best = max(r["mean_psnr"] for r in summary["table"])
                if abs(row["mean_psnr"] - ref) > 1e-6 or row["mean_psnr"] != best:
                    print(f"{self.name}: sigma {sigma} lambda {lam}: mean psnr "
                          f"{row['mean_psnr']!r}, reference {ref!r}", file=sys.stderr)
                    failed += per_block
                projected.append(summary["projected_psnr"])
            psnr_db = float(np.mean(projected))
        return failed, psnr_db


class TrainBlur32(Workload):
    """Criterion-8 training dynamics: 200 train and 32 test images, 100 epochs."""

    name = "train_blur32"

    def make_config(self):
        return ExperimentConfig.from_dict({
            "experiment": "train_dynamics",
            "operator": {"kind": "gaussian_blur", "height": 32, "width": 32,
                         "sigmas": [3.0, 0.15]},
            "noise": {"sigma": 0.0},
            "reconstructor": {"kind": "trainable_linear", "epochs": 100},
            "dataset": {"count": 200, "test_count": 32},
        })

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.items_per_job = self.config.reconstructor.epochs
        # learning rate 1.5 / L, L from the training set, as the acceptance test sets it
        op = build_operator(self.config.operator)
        train, _ = split_pairs(self.config, op, 0.0)
        self.config.reconstructor.learning_rate = 1.5 / gradient_lipschitz(Dataset(pairs=train))

    def run_job(self, job):
        self.config.output_dir = str(self.workdir / f"job{job:03d}")
        # keep only the per-epoch rows: the training history holds every snapshot
        return experiments.run_train_dynamics(self.config)["epochs"]

    def check(self, outputs):
        failed = 0
        psnr_db = math.nan
        recorded = json.loads(TRAIN_REFERENCE.read_text()).get(str(self.seed))
        if recorded is None:
            print(f"{self.name}: no recorded test MSE for seed {self.seed}; "
                  "checking the criterion-8 invariants only", file=sys.stderr)
        for rows in outputs:
            problems = []
            if len(rows) != self.items_per_job + 1:
                problems.append(f"{len(rows)} epoch rows")
            if any(r["test_mse_projected"] > r["test_mse_net"] + 1e-12 for r in rows):
                problems.append("projected test MSE above the network's")
            # Criterion 8 asks the consistency to fall below 10% of its initial
            # value for its own configuration, seed 0; other seeds need not
            # reach 10% in 100 epochs (seed 1 stops at 10.1%), only fall.
            limit = 0.10 if self.seed == DEFAULT_SEED else 1.0
            for split in ("train", "test"):
                key = f"nullspace_consistency_{split}"
                if not rows[-1][key] < limit * rows[0][key]:
                    problems.append(f"{split} consistency fell only to "
                                    f"{rows[-1][key] / rows[0][key]:.1%}")
            last = {key: rows[-1][key] for key in ("test_mse_net", "test_mse_projected")}
            if recorded is not None:
                scale = 1e-6 * recorded["test_mse_net"]
                if any(abs(last[key] - recorded[key]) > scale for key in last):
                    problems.append(f"last-epoch test MSEs {last}, recorded {recorded}")
            if problems:
                print(f"{self.name}: " + "; ".join(problems), file=sys.stderr)
                failed += self.items_per_job
            psnr_db = 10.0 * math.log10(1.0 / last["test_mse_projected"])
        return failed, psnr_db


WORKLOADS = {w.name: w for w in (PipelineCs64, SweepBlur32, TrainBlur32)}
