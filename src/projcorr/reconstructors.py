"""Baseline, learned, and file-backed reconstructors.

A reconstructor maps measurements to signal estimates.  Analytic baselines
(adjoint, pseudoinverse, Tikhonov-regularized inverse) need no data; the
affine reconstructors stand in for trained networks at desk scale and come in
two flavours: closed-form ridge fit and full-batch gradient descent with
per-epoch snapshots.  ``ExternalReconstructor`` replays outputs stored in
tensor files so reconstructions produced by real networks elsewhere can be
plugged into the correction and evaluation pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import cho_factor  # noqa: F401 -- perfbench/spans.py wraps it by name

from .correction import CorrectionConfig, regularized_correction
from .errors import (
    DivergenceError,
    MissingOutputError,
    ParameterError,
    ShapeError,
)
from .operators import SensingOperator, operator_norm
from .pinv import DEFAULT_RCOND, PinvEngine
from .rng import generator


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


def make_dataset(
    op: SensingOperator,
    signals: Sequence[np.ndarray],
    noise_sigma: float = 0.0,
    seed: int = 0,
    provenance: Optional[dict] = None,
) -> Dataset:
    """Measure each signal through ``op``; image ``i`` draws noise stream ``seed ^ i``."""
    from .rng import stream

    pairs = []
    for i, x in enumerate(signals):
        x = np.asarray(x, dtype=np.float64).ravel()
        if x.size != op.n:
            raise ShapeError("signal length", op.n, x.size)
        y = op.apply(x)
        if noise_sigma > 0:
            y = y + noise_sigma * stream(seed, i).standard_normal(op.m)
        pairs.append((x, y))
    return Dataset(pairs=pairs, provenance=provenance or {"seed": seed, "sigma": noise_sigma})


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

    This is the regularized correction of ``fhat = 0`` with weight
    ``1 / alpha`` and no noise model, so it uses the engine's closed-form
    filter where the engine has one and conjugate gradient otherwise.
    """

    kind = "tikhonov"

    def __init__(self, engine: PinvEngine, alpha: float):
        if alpha <= 0:
            raise ParameterError(f"tikhonov alpha must be > 0, got {alpha}")
        self.engine = engine
        self.alpha = float(alpha)
        self._config = CorrectionConfig(mode="regularized", lam=1.0 / self.alpha)

    def reconstruct(self, y, image_id=None) -> np.ndarray:
        zero = np.zeros(self.engine.op.n)
        return regularized_correction(self.engine, y, zero, self._config)


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
        y = np.asarray(y, dtype=np.float64).ravel()
        if y.size != self.weights.shape[1]:
            raise ShapeError("measurement length", self.weights.shape[1], y.size)
        return self.weights @ y + self.bias


class TrainableLinearReconstructor(LearnedLinearReconstructor):
    """Affine map whose coefficients are updated by gradient descent."""

    kind = "trainable_linear"

    def snapshot(self) -> LearnedLinearReconstructor:
        return LearnedLinearReconstructor(self.weights.copy(), self.bias.copy(), self.op)


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
        path = self.source_dir / self.pattern.format(image_id=image_id)
        if not path.exists():
            raise MissingOutputError(f"no stored reconstruction for id {image_id!r} at {path}")
        out = read_nit1(path).ravel()
        if self.n is not None and out.size != self.n:
            raise ShapeError("stored reconstruction length", self.n, out.size)
        return out


def make_oracle_reconstructor(engine: PinvEngine) -> Callable:
    """Ideal reconstructor ``oracle(y, x_true)`` used as a test fixture.

    Given the true signal, returns the minimum-norm solution of the
    measurements plus the true signal's null-space component, i.e. the output
    an ideally-trained estimator would produce.  Applying the exact correction
    to this output leaves it unchanged.
    """

    def oracle(y, x_true) -> np.ndarray:
        return engine.pinv_apply(y) + engine.nullspace_projector_apply(x_true)

    return oracle


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


def training_loss(weights: np.ndarray, bias: np.ndarray, dataset: Dataset) -> float:
    """Mean over samples of the per-element squared reconstruction error."""
    x_mat = dataset.signal_matrix()
    y_mat = dataset.measurement_matrix()
    r = weights @ y_mat + bias[:, None] - x_mat
    return float(np.mean(np.sum(r * r, axis=0))) / x_mat.shape[0]


def gradient_lipschitz(dataset: Dataset, iters: int = 200, seed: int = 0) -> float:
    """Largest eigenvalue of the empirical quadratic's Hessian (power iteration).

    The objective is (1/N) sum_i ||W y_i + b - x_i||^2 over (W, b); its
    Hessian is 2/N [Y; 1][Y; 1]^T (per output row), so gradient descent with
    learning rate <= 1/L is non-expansive.
    """
    y_mat = dataset.measurement_matrix()
    n_samples = y_mat.shape[1]
    design = np.vstack([y_mat, np.ones((1, n_samples))])
    hess = 2.0 / n_samples * (design @ design.T)
    rng = generator(seed)
    v = rng.standard_normal(hess.shape[0])
    v /= np.linalg.norm(v)
    value = 0.0
    for _ in range(iters):
        w = hess @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        value = nw
    return float(value)


@dataclass
class TrainingHistory:
    """Per-epoch snapshots and losses; index 0 is the initialization."""

    snapshots: List[LearnedLinearReconstructor]
    train_mse: np.ndarray
    learning_rate: float

    @property
    def final(self) -> LearnedLinearReconstructor:
        return self.snapshots[-1]


def train_epochs(
    op: SensingOperator,
    dataset: Dataset,
    epochs: int,
    learning_rate: Optional[float] = None,
    seed: int = 0,
    divergence_limit: float = 1e12,
) -> TrainingHistory:
    """Full-batch gradient descent on the empirical squared-error objective.

    Initialization is the scaled adjoint W = A^T / ||A||^2, b = 0.  When
    ``learning_rate`` is None it defaults to 1/L with L estimated by power
    iteration, which makes the recorded loss non-increasing.
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
        lipschitz = gradient_lipschitz(dataset, seed=seed)
        if lipschitz == 0.0:
            raise ParameterError("degenerate dataset: zero curvature")
        learning_rate = 1.0 / lipschitz

    norm = operator_norm(op, seed=seed)
    model = TrainableLinearReconstructor(
        op.to_dense().T / max(norm * norm, np.finfo(float).tiny), np.zeros(op.n), op
    )

    def loss(w, b):
        r = w @ y_mat + b[:, None] - x_mat
        return float(np.mean(np.sum(r * r, axis=0)))

    snapshots = [model.snapshot()]
    losses = [loss(model.weights, model.bias)]
    for epoch in range(1, epochs + 1):
        r = model.weights @ y_mat + model.bias[:, None] - x_mat
        grad_w = (2.0 / n_samples) * (r @ y_mat.T)
        grad_b = (2.0 / n_samples) * r.sum(axis=1)
        model.weights = model.weights - learning_rate * grad_w
        model.bias = model.bias - learning_rate * grad_b
        value = loss(model.weights, model.bias)
        if not np.isfinite(value) or value / op.n > divergence_limit:
            raise DivergenceError(epoch, value / op.n)
        snapshots.append(model.snapshot())
        losses.append(value)
    # report per-element MSE, consistent with the metrics module
    per_element = np.asarray(losses) / op.n
    return TrainingHistory(
        snapshots=snapshots, train_mse=per_element, learning_rate=learning_rate
    )
