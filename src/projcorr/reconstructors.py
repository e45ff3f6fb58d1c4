"""Baseline, learned, and file-backed reconstructors.

A reconstructor maps measurements to signal estimates: one measurement
vector to one estimate, or an ``(m, N)`` block of measurements to an
``(n, N)`` block of estimates.  Analytic baselines
(adjoint, pseudoinverse, Tikhonov-regularized inverse) need no data; the
affine reconstructors stand in for trained networks at desk scale and come in
two flavours: closed-form ridge fit and full-batch gradient descent, which
yields each epoch as it runs.  ``ExternalReconstructor`` replays outputs
stored in tensor files so reconstructions produced by real networks elsewhere
can be plugged into the correction and evaluation pipeline; it reads one file
per image id, and a block needs one id per column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import cho_factor  # noqa: F401 -- perfbench/spans.py wraps it by name

from .errors import (
    DivergenceError,
    MissingOutputError,
    ParameterError,
    ShapeError,
)
from .operators import SensingOperator, as_vector, operator_norm
from .pinv import DEFAULT_RCOND, PinvEngine
from .rng import derive_seed, generator


@dataclass
class Dataset:
    """Paired signals and measurements, dimensionally tied to one operator."""

    pairs: List[Tuple[np.ndarray, np.ndarray]]
    provenance: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def signal_matrix(self) -> np.ndarray:
        """Signals as columns of an (n, N) array."""
        return np.stack([x for x, _ in self.pairs], axis=1)

    def measurement_matrix(self) -> np.ndarray:
        """Measurements as columns of an (m, N) array."""
        return np.stack([y for _, y in self.pairs], axis=1)


def measure_pairs(
    op: SensingOperator, signals: Sequence[np.ndarray], sigma: float, noise_seeds
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """``(x, A x + sigma n)`` pairs, measuring all signals as one column block.

    Signal ``i`` draws its standard normal noise ``n`` from
    ``generator(noise_seeds[i])``; ``sigma = 0`` adds none.
    """
    x = np.array([as_vector(s, op.n, finite=False) for s in signals]).reshape(-1, op.n)
    y = op.apply(x.T)
    if sigma > 0:
        noise = [generator(seed).standard_normal(op.m) for seed in noise_seeds]
        y = y + sigma * np.array(noise).T
    return list(zip(x, np.ascontiguousarray(y.T)))


def make_dataset(
    op: SensingOperator,
    signals: Sequence[np.ndarray],
    noise_sigma: float = 0.0,
    seed: int = 0,
    provenance: Optional[dict] = None,
) -> Dataset:
    """Measure each signal through ``op``; image ``i`` draws noise stream ``seed ^ i``."""
    seeds = [derive_seed(seed, i) for i in range(len(signals))]
    return Dataset(
        pairs=measure_pairs(op, signals, noise_sigma, seeds),
        provenance=provenance or {"seed": seed, "sigma": noise_sigma},
    )


class Reconstructor:
    """Base class: callable measurement -> estimate."""

    kind: str = "abstract"

    def reconstruct(self, y, image_id: Optional[str] = None) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, y, image_id: Optional[str] = None) -> np.ndarray:
        return self.reconstruct(y, image_id=image_id)


class AdjointReconstructor(Reconstructor):
    """x = A^T y, the classical backprojection baseline."""

    kind = "adjoint"

    def __init__(self, op: SensingOperator):
        self.op = op

    def reconstruct(self, y, image_id=None) -> np.ndarray:
        return self.op.adjoint(y)


class PinvReconstructor(Reconstructor):
    """x = A+ y, the minimum-norm least-squares baseline."""

    kind = "pinv"

    def __init__(self, engine: PinvEngine):
        self.engine = engine

    def reconstruct(self, y, image_id=None) -> np.ndarray:
        return self.engine.pinv_apply(y)


class TikhonovReconstructor(Reconstructor):
    """x = (A^T A + alpha I)^-1 A^T y.

    This is the engine's ``solve`` from ``fhat = 0`` with weight
    ``1 / alpha``: a closed-form spectral filter on a decomposition engine,
    A^T z with (A A^T + alpha I) z = y by conjugate gradient on the CG one.
    """

    kind = "tikhonov"

    def __init__(self, engine: PinvEngine, alpha: float):
        if alpha <= 0:
            raise ParameterError(f"tikhonov alpha must be > 0, got {alpha}")
        self.engine = engine
        self.alpha = float(alpha)

    def reconstruct(self, y, image_id=None) -> np.ndarray:
        y = as_vector(y, self.engine.op.m, "measurement")
        return self.engine.solve(y, None, 1.0 / self.alpha)


class LearnedLinearReconstructor(Reconstructor):
    """Affine map x = W y + b with fixed coefficients."""

    kind = "learned_linear"

    def __init__(self, weights, bias, op: Optional[SensingOperator] = None):
        w = np.asarray(weights, dtype=np.float64)
        b = np.asarray(bias, dtype=np.float64).ravel()
        if w.ndim != 2:
            raise ParameterError("weights must be a 2-D (n, m) array")
        if b.size != w.shape[0]:
            raise ShapeError("bias length", w.shape[0], b.size)
        if op is not None and (w.shape[0] != op.n or w.shape[1] != op.m):
            raise ShapeError("weights shape", (op.n, op.m), w.shape)
        self.weights = w
        self.bias = b
        self.op = op

    def reconstruct(self, y, image_id=None) -> np.ndarray:
        y = as_vector(y, self.weights.shape[1], "measurement", finite=False)
        return (self.bias + (self.weights @ y).T).T


class ExternalReconstructor(Reconstructor):
    """Replays reconstructions stored as tensor files, one per image id."""

    kind = "external"

    def __init__(self, source_dir, pattern: str = "recon_{image_id}.nit1",
                 n: Optional[int] = None):
        self.source_dir = Path(source_dir)
        self.pattern = pattern
        self.n = n

    def reconstruct(self, y, image_id=None) -> np.ndarray:
        from .tensorio import read_nit1

        if image_id is None:
            raise ParameterError("external reconstructor needs an image id")
        if not isinstance(image_id, str):
            return np.stack([self.reconstruct(None, iid) for iid in image_id], axis=1)
        path = self.source_dir / self.pattern.format(image_id=image_id)
        if not path.exists():
            raise MissingOutputError(f"no stored reconstruction for id {image_id!r} at {path}")
        out = read_nit1(path).ravel()
        if self.n is not None and out.size != self.n:
            raise ShapeError("stored reconstruction length", self.n, out.size)
        return out


def fit_learned_linear(
    op: SensingOperator,
    dataset: Dataset,
    alpha: float = 0.0,
) -> LearnedLinearReconstructor:
    """Ridge fit of W y + b to the dataset on the thin SVD of the measurements.

    Minimizes sum_i ||W y_i + b - x_i||^2 + alpha ||W||_F^2.  With centered
    measurements Yc = P diag(sigma) Q^T, W = Xc Q diag(g) P^T where
    g = sigma / (sigma^2 + alpha) on sigma > rcond * max(sigma) and 0
    elsewhere, so alpha = 0 gives the minimum-norm least-squares fit.
    """
    if alpha < 0:
        raise ParameterError(f"ridge alpha must be >= 0, got {alpha}")
    if len(dataset) == 0:
        raise ParameterError("cannot fit a reconstructor on an empty dataset")
    x_mat = dataset.signal_matrix()
    y_mat = dataset.measurement_matrix()
    if x_mat.shape[0] != op.n or y_mat.shape[0] != op.m:
        raise ShapeError("dataset dims", (op.n, op.m), (x_mat.shape[0], y_mat.shape[0]))
    x_mean = x_mat.mean(axis=1)
    y_mean = y_mat.mean(axis=1)
    xc = x_mat - x_mean[:, None]
    p, sigma, qt = np.linalg.svd(y_mat - y_mean[:, None], full_matrices=False)
    gain = np.zeros_like(sigma)
    kept = sigma > DEFAULT_RCOND * sigma[0]
    gain[kept] = sigma[kept] / (sigma[kept] ** 2 + alpha)
    weights = ((xc @ qt.T) * gain) @ p.T
    bias = x_mean - weights @ y_mean
    return LearnedLinearReconstructor(weights, bias, op)


def gradient_lipschitz(dataset: Dataset) -> float:
    """Largest eigenvalue of the empirical quadratic's Hessian, in closed form.

    The objective is (1/N) sum_i ||W y_i + b - x_i||^2 over (W, b); its
    Hessian is 2/N [Y; 1][Y; 1]^T (per output row), whose largest eigenvalue
    is 2/N ||[Y; 1]||_2^2, so gradient descent with learning rate <= 1/L is
    non-expansive.
    """
    y_mat = dataset.measurement_matrix()
    n_samples = y_mat.shape[1]
    design = np.vstack([y_mat, np.ones((1, n_samples))])
    return 2.0 / n_samples * float(np.linalg.norm(design, 2)) ** 2


@dataclass
class TrainingHistory:
    """Per-epoch snapshots and losses; index 0 is the initialization."""

    snapshots: List[LearnedLinearReconstructor]
    train_mse: np.ndarray

    @property
    def final(self) -> LearnedLinearReconstructor:
        return self.snapshots[-1]


def gradient_descent(
    op: SensingOperator,
    dataset: Dataset,
    epochs: int,
    learning_rate: Optional[float] = None,
    seed: int = 0,
    divergence_limit: float = 1e12,
) -> Iterator[Tuple[LearnedLinearReconstructor, np.ndarray, float]]:
    """Full-batch gradient descent on the empirical squared-error objective.

    Yields ``(reconstructor, outputs, train_mse)`` for epochs 0 through
    ``epochs``: the affine map, its training outputs ``W Y + b``, formed once
    per epoch and also giving the gradient, and their per-element MSE.
    Initialization is the scaled adjoint W = A^T / ||A||^2, b = 0.  When
    ``learning_rate`` is None it defaults to 1/L with L from
    ``gradient_lipschitz``, which makes the loss non-increasing.
    """
    if epochs < 1:
        raise ParameterError(f"epochs must be >= 1, got {epochs}")
    if len(dataset) == 0:
        raise ParameterError("cannot train on an empty dataset")
    if learning_rate is not None and learning_rate <= 0:
        raise ParameterError(f"learning rate must be > 0, got {learning_rate}")

    x_mat = dataset.signal_matrix()
    y_mat = dataset.measurement_matrix()
    n_samples = x_mat.shape[1]
    if learning_rate is None:
        lipschitz = gradient_lipschitz(dataset)
        if lipschitz == 0.0:
            raise ParameterError("degenerate dataset: zero curvature")
        learning_rate = 1.0 / lipschitz

    norm = operator_norm(op, seed=seed)
    weights = op.to_dense().T / max(norm * norm, np.finfo(float).tiny)
    bias = np.zeros(op.n)
    for epoch in range(epochs + 1):
        outputs = weights @ y_mat + bias[:, None]
        r = outputs - x_mat
        # per-element MSE, consistent with the metrics module
        value = float(np.mean(np.sum(r * r, axis=0))) / op.n
        if epoch > 0 and (not np.isfinite(value) or value > divergence_limit):
            raise DivergenceError(epoch, value)
        # every epoch makes new arrays, so a yielded model never changes afterwards
        yield LearnedLinearReconstructor(weights, bias, op), outputs, value
        if epoch < epochs:
            grad_w = (2.0 / n_samples) * (r @ y_mat.T)
            grad_b = (2.0 / n_samples) * r.sum(axis=1)
            weights = weights - learning_rate * grad_w
            bias = bias - learning_rate * grad_b


def train_epochs(
    op: SensingOperator,
    dataset: Dataset,
    epochs: int,
    learning_rate: Optional[float] = None,
    seed: int = 0,
    divergence_limit: float = 1e12,
) -> TrainingHistory:
    """Every epoch of ``gradient_descent`` kept; its memory grows with ``epochs``."""
    snapshots, losses = [], []
    for model, _, value in gradient_descent(
        op, dataset, epochs, learning_rate, seed, divergence_limit
    ):
        snapshots.append(model)
        losses.append(value)
    return TrainingHistory(snapshots, np.array(losses))
