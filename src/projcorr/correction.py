"""Measurement-consistency correction of reconstructions.

Given a reconstruction ``fhat`` of a signal from measurements ``y = A x + n``,
two corrections are provided:

* exact:        x* = A+ y + (I - A+ A) fhat
  the Euclidean-closest point to ``fhat`` satisfying A x = y exactly
  (appropriate for noise-free measurements);

* regularized:  x* = (I + lam * A^T S^-1 A)^-1 (fhat + lam * A^T S^-1 y)
  the minimizer of ||x - fhat||^2 + lam * (A x - y)^T S^-1 (A x - y)
  for noise covariance S.  By the Woodbury identity it is also
  x* = fhat + A^T z with (A A^T + S / lam) z = y - A fhat, a system in
  measurement space that needs S but not its inverse.  With S = sigma^2 I
  (or no noise model, S = I) it is the engine's ``solve`` with weight
  lam / sigma^2, a closed-form spectral filter on every engine but the CG
  one; every other covariance is the engine's ``dual_solve`` of the system
  above.  The exact correction is that solve's weight = inf limit.

Both accept one ``(y, fhat)`` pair of vectors or a block of pairs, an
``(m, N)`` measurement block with an ``(n, N)`` reconstruction block, and
correct every column at once.  ``lambda_grid_search`` picks the
regularization weight maximizing mean reconstruction quality over a paired
dataset.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ParameterError, ShapeError
from .metrics import mean_quality, ssim_applies
# cho_factor is bound here only because perfbench/spans.py rebinds it by name
# in this module; the import can go once the tracer skips missing names.
from .noise import NoiseModel, cho_factor  # noqa: F401
from .operators import as_vector
from .pinv import PinvEngine

logger = logging.getLogger(__name__)

# Regularization weights tried by default; 0 keeps the reconstruction as-is.
DEFAULT_LAMBDA_GRID: Tuple[float, ...] = (
    0.0, 1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1,
)


@dataclass(frozen=True)
class CorrectionConfig:
    """How to correct a reconstruction: exact projection or weighted trade-off."""

    mode: str = "exact"
    lam: float = 0.0
    noise: NoiseModel = field(default_factory=NoiseModel.none)

    def __post_init__(self):
        if self.mode not in ("exact", "regularized"):
            raise ParameterError(f"unknown correction mode {self.mode!r}")
        if self.mode == "regularized" and self.lam < 0:
            raise ParameterError(f"regularization weight must be >= 0, got {self.lam}")


def _check_pair(engine: PinvEngine, y, fhat) -> Tuple[np.ndarray, np.ndarray]:
    y = as_vector(y, engine.op.m, "measurement")
    fhat = as_vector(fhat, engine.op.n, "signal")
    if y.shape[1:] != fhat.shape[1:]:
        raise ShapeError("reconstruction columns", y.shape[1:], fhat.shape[1:])
    return y, fhat


def exact_correction(engine: PinvEngine, y, fhat) -> np.ndarray:
    """Closest point to ``fhat`` with A x = y: A+ y + (I - A+ A) fhat.

    Computed as fhat + A+ (y - A fhat), the same point with one A+ solve.
    """
    y, fhat = _check_pair(engine, y, fhat)
    return fhat + engine.pinv_apply(y - engine.op.apply(fhat))


def regularized_correction(
    engine: PinvEngine, y, fhat, config: CorrectionConfig
) -> np.ndarray:
    """Minimizer of ||x - fhat||^2 + lam (A x - y)^T S^-1 (A x - y).

    Uses the engine's ``solve`` for S = sigma^2 I and for no noise model,
    and otherwise fhat + A^T z with (A A^T + S / lam) z = y - A fhat.
    """
    if config.lam < 0:
        raise ParameterError(f"regularization weight must be >= 0, got {config.lam}")
    y, fhat = _check_pair(engine, y, fhat)
    noise = config.noise
    noise.check_dim(engine.op.m)
    if config.lam == 0.0:
        return fhat.copy()
    if noise.form in ("none", "isotropic"):
        weight = config.lam if noise.form == "none" else config.lam / noise.sigma ** 2
        return engine.solve(y, fhat, weight)
    return engine.dual_solve(y, fhat, lambda z: noise.apply(z) / config.lam)


def correct(engine: PinvEngine, y, fhat, config: CorrectionConfig) -> np.ndarray:
    """Dispatch on the configured correction mode."""
    if config.mode == "exact":
        if config.noise.form != "none":
            logger.info(
                "exact consistency enforced on noisy measurements; the expected "
                "error grows with the noise covariance -- consider mode='regularized'"
            )
        return exact_correction(engine, y, fhat)
    return regularized_correction(engine, y, fhat, config)


@dataclass
class LambdaGridResult:
    """Outcome of a regularization-weight search."""

    best_lambda: float
    table: List[dict]


def lambda_grid_search(
    engine: PinvEngine,
    dataset: Sequence[Tuple[np.ndarray, np.ndarray]],
    reconstructor: Callable[[np.ndarray], np.ndarray],
    grid: Sequence[float] = DEFAULT_LAMBDA_GRID,
    noise: Optional[NoiseModel] = None,
    objective: str = "psnr",
) -> LambdaGridResult:
    """Pick the regularization weight with the best mean quality.

    ``dataset`` is a sequence of ``(x_true, y)`` pairs; lambda 0 means the
    reconstruction is kept unchanged.  Ties go to the smallest weight.  Each
    weight corrects the whole dataset as one column block.
    """
    pairs = list(dataset)
    grid = sorted(float(g) for g in grid)
    if not pairs:
        raise ParameterError("lambda grid search needs a non-empty dataset")
    if not grid:
        raise ParameterError("lambda grid search needs a non-empty grid")
    if grid[0] < 0:
        raise ParameterError(f"lambda values must be >= 0, got {grid[0]}")
    if objective not in ("psnr", "ssim"):
        raise ParameterError(f"unknown selection objective {objective!r}")
    noise = noise if noise is not None else NoiseModel.none()

    geometry = engine.op.geometry
    if objective == "ssim" and not ssim_applies(geometry):
        raise ParameterError("ssim objective needs image geometry of at least 11x11")

    truth = np.stack([np.ravel(x) for x, _ in pairs], axis=1)
    measured = np.stack([y for _, y in pairs], axis=1)
    recons = np.stack(
        [np.asarray(reconstructor(y), dtype=np.float64).ravel() for _, y in pairs], axis=1
    )
    table = []
    best_lambda = grid[0]
    best_score = -np.inf
    for lam in grid:
        config = CorrectionConfig(mode="regularized", lam=lam, noise=noise)
        corrected = regularized_correction(engine, measured, recons, config)
        mean_psnr, mean_ssim = mean_quality(corrected, truth, geometry)
        row = {"lambda": lam, "mean_psnr": mean_psnr}
        if mean_ssim is not None:
            row["mean_ssim"] = mean_ssim
        table.append(row)
        score = row["mean_psnr"] if objective == "psnr" else row["mean_ssim"]
        if score > best_score:
            best_score = score
            best_lambda = lam
    return LambdaGridResult(best_lambda=best_lambda, table=table)
