"""Gaussian measurement-noise models."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParameterError, ShapeError


def cho_factor(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of the symmetric positive-definite matrix ``a``.

    Raises ``numpy.linalg.LinAlgError`` if ``a`` is not positive definite.
    """
    return np.linalg.cholesky(a)


@dataclass(frozen=True)
class NoiseModel:
    """Covariance of additive Gaussian measurement noise.

    Forms: ``none`` (noiseless), ``isotropic`` (sigma^2 I), ``diagonal``
    (per-measurement variances), ``dense`` (full SPD covariance).  When a
    ``none`` model weights the regularized correction it acts as the identity
    covariance, which turns the correction into plain Tikhonov regularization.
    """

    form: str
    sigma: float = 0.0
    variances: Optional[np.ndarray] = None
    covariance: Optional[np.ndarray] = None

    @staticmethod
    def none() -> "NoiseModel":
        return NoiseModel(form="none")

    @staticmethod
    def isotropic(sigma: float) -> "NoiseModel":
        if sigma <= 0:
            raise ParameterError(f"isotropic noise needs sigma > 0, got {sigma}")
        return NoiseModel(form="isotropic", sigma=float(sigma))

    @staticmethod
    def diagonal(variances) -> "NoiseModel":
        v = np.asarray(variances, dtype=np.float64).ravel().copy()
        if v.size == 0 or np.any(v <= 0):
            raise ParameterError("diagonal noise variances must all be positive")
        v.setflags(write=False)
        return NoiseModel(form="diagonal", variances=v)

    @staticmethod
    def dense(covariance) -> "NoiseModel":
        c = np.asarray(covariance, dtype=np.float64)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ParameterError("dense noise covariance must be square")
        scale = np.linalg.norm(c)
        if np.linalg.norm(c - c.T) > 1e-12 * max(scale, 1.0):
            raise ParameterError("dense noise covariance must be symmetric")
        c = 0.5 * (c + c.T)
        c.setflags(write=False)
        try:
            cho_factor(c)
        except np.linalg.LinAlgError as exc:
            raise ParameterError(
                f"dense noise covariance is not positive definite: {exc}"
            ) from exc
        return NoiseModel(form="dense", covariance=c)

    @staticmethod
    def from_sigma(sigma: float) -> "NoiseModel":
        """Isotropic model for sigma > 0, noiseless for sigma = 0."""
        if sigma < 0:
            raise ParameterError(f"noise sigma must be >= 0, got {sigma}")
        return NoiseModel.none() if sigma == 0 else NoiseModel.isotropic(sigma)

    def dim(self) -> Optional[int]:
        if self.form == "diagonal":
            return self.variances.size
        if self.form == "dense":
            return self.covariance.shape[0]
        return None

    def check_dim(self, m: int):
        d = self.dim()
        if d is not None and d != m:
            raise ShapeError("noise model dimension", m, d)

    def apply(self, u: np.ndarray) -> np.ndarray:
        """S u (identity for the ``none`` form); u may hold columns."""
        if self.form == "none":
            return u
        if self.form == "isotropic":
            return u * self.sigma ** 2
        self.check_dim(u.shape[0])
        if self.form == "diagonal":
            return u * (self.variances[:, None] if u.ndim == 2 else self.variances)
        # one dot product per row, so a block column gets the bits of that
        # column alone; ``S @ block`` does not
        return np.vecdot(self.covariance, u.T[..., None, :]).T

    def inv_apply(self, u: np.ndarray) -> np.ndarray:
        """S^-1 u (identity for the ``none`` form); u may hold columns."""
        if self.form == "none":
            return u
        if self.form == "isotropic":
            return u / (self.sigma ** 2)
        self.check_dim(u.shape[0])
        if self.form == "diagonal":
            return u / (self.variances[:, None] if u.ndim == 2 else self.variances)
        return np.linalg.solve(self.covariance, u)

    def sample(self, rng: np.random.Generator, m: int, trials: int = 1) -> np.ndarray:
        """Draw noise vectors as columns of an (m, trials) array."""
        self.check_dim(m)
        if self.form == "none":
            return np.zeros((m, trials))
        g = rng.standard_normal((m, trials))
        if self.form == "isotropic":
            return self.sigma * g
        if self.form == "diagonal":
            return np.sqrt(self.variances)[:, None] * g
        return np.linalg.cholesky(self.covariance) @ g
