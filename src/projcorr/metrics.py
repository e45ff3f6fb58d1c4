"""Reconstruction-quality metrics and consistency diagnostics.

Besides MSE/PSNR/SSIM this module provides:

* ``nullspace_consistency`` -- ||A out - A A+ y||^2, how far a reconstruction
  strays from "minimum-norm solution plus null-space component" form; A A+ y
  is the engine's ``range_projector_apply(y)``, which on the CG engine is y
  itself (full row rank is assumed there), so it runs no solve;
* ``range_residual``        -- ||A out - y||^2, raw measurement misfit; it
  equals ``nullspace_consistency`` wherever A has full row rank (mask, CG),
  since A A+ = I there;
* ``noise_bias_trace``      -- Tr(A+ S (A+)^T), the expected squared error a
  consistency-preserving reconstructor inherits from noise covariance S.
  On an engine's spectrum it is sum_i (U^H S U)_ii / |s_i|^2 over the
  retained directions; ``monte_carlo_noise_error`` cross-checks it.

The consistency diagnostics and ``evaluate_reconstruction`` also take
column blocks (one image per column) and then give one value per column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ParameterError, ShapeError, UnsupportedConfigError
from .noise import NoiseModel
from .operators import Geometry, SensingOperator
from .pinv import CgEngine, PinvEngine, SvdEngine
from .rng import generator

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def mse(a, b) -> float:
    """Mean squared difference of two equal-length vectors."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.size != b.size:
        raise ShapeError("mse operand length", a.size, b.size)
    d = a - b
    return float(d @ d) / a.size


def psnr(a, b, peak: float = 1.0) -> float:
    """Peak signal-to-noise ratio in dB; +inf for identical inputs."""
    if peak <= 0:
        raise ParameterError(f"psnr peak must be > 0, got {peak}")
    err = mse(a, b)
    if err == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / err)


def ssim_applies(geometry: Optional[Geometry]) -> bool:
    """Whether images of this geometry hold at least one full SSIM window."""
    return geometry is not None and min(geometry.height, geometry.width) >= SSIM_WINDOW


def _ssim_window() -> np.ndarray:
    half = SSIM_WINDOW // 2
    d = np.arange(-half, half + 1, dtype=np.float64)
    g = np.exp(-0.5 * (d / SSIM_SIGMA) ** 2)
    w = np.outer(g, g)
    return w / w.sum()


def _as_image(a, geometry: Optional[Geometry]) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim == 1:
        if geometry is None:
            raise ParameterError("flat input needs an image geometry")
        a = geometry.reshape(a)
    if a.ndim == 2:
        a = a[:, :, None]
    if a.ndim != 3:
        raise ParameterError(f"expected a 2-D or 3-D image, got ndim={a.ndim}")
    return a


def ssim(
    a,
    b,
    geometry: Optional[Geometry] = None,
    data_range: float = 1.0,
) -> float:
    """Mean local structural similarity over fully-interior windows.

    Uses the standard 11x11 Gaussian window (sigma 1.5), K1=0.01, K2=0.03;
    no padding: only windows entirely inside the image contribute.  Channels
    are averaged.
    """
    # the only SciPy use in the package: imported on first call, so that
    # ``import projcorr`` does not load it
    from scipy.signal import correlate2d

    img_a = _as_image(a, geometry)
    img_b = _as_image(b, geometry)
    if img_a.shape != img_b.shape:
        raise ShapeError("ssim image shape", img_a.shape, img_b.shape)
    h, w, channels = img_a.shape
    if h < SSIM_WINDOW or w < SSIM_WINDOW:
        raise ParameterError(
            f"image {h}x{w} smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} window"
        )
    window = _ssim_window()
    c1 = (SSIM_K1 * data_range) ** 2
    c2 = (SSIM_K2 * data_range) ** 2
    values = []
    for c in range(channels):
        x = img_a[:, :, c]
        y = img_b[:, :, c]
        mu_x = correlate2d(x, window, mode="valid")
        mu_y = correlate2d(y, window, mode="valid")
        var_x = correlate2d(x * x, window, mode="valid") - mu_x * mu_x
        var_y = correlate2d(y * y, window, mode="valid") - mu_y * mu_y
        cov = correlate2d(x * y, window, mode="valid") - mu_x * mu_y
        num = (2 * mu_x * mu_y + c1) * (2 * cov + c2)
        den = (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
        values.append(np.mean(num / den))
    return float(np.mean(values))


def _squared_norm(r: np.ndarray):
    """||r||^2 of a vector, or of every column of a block."""
    return float(r @ r) if r.ndim == 1 else np.sum(r * r, axis=0)


def mean_quality(out, truth, geometry: Optional[Geometry]) -> Tuple[float, Optional[float]]:
    """Mean PSNR and mean SSIM over the columns of two ``(n, N)`` blocks.

    The SSIM mean is None when ``ssim_applies(geometry)`` is false.
    """
    pairs = list(zip(np.asarray(out).T, np.asarray(truth).T))
    mean_psnr = float(np.mean([psnr(o, t) for o, t in pairs]))
    if not ssim_applies(geometry):
        return mean_psnr, None
    return mean_psnr, float(np.mean([ssim(o, t, geometry=geometry) for o, t in pairs]))


def nullspace_consistency(engine: PinvEngine, y, out):
    """||A out - A A+ y||^2: zero iff ``out`` keeps the measured component."""
    return _squared_norm(engine.op.apply(out) - engine.range_projector_apply(y))


def range_residual(op: SensingOperator, y, out):
    """||A out - y||^2: raw measurement misfit of a reconstruction."""
    return _squared_norm(op.apply(out) - op._check_measurement(y))


def noise_bias_trace(engine: PinvEngine, noise: NoiseModel) -> float:
    """Tr(A+ S (A+)^T) = sum_i (U^H S U)_ii |1/s_i|^2 on the engine's spectrum.

    A CG engine holds no spectrum; its operator is factorized here.
    """
    noise.check_dim(engine.op.m)
    if noise.form == "none":
        return 0.0
    if isinstance(engine, CgEngine):
        if not engine.op.materializable():
            raise UnsupportedConfigError(
                "noise trace needs a factorization; the operator is too large "
                "to materialize"
            )
        engine = SvdEngine(engine.op)
    return float(np.sum(engine._noise_diagonal(noise) * np.abs(engine.inverse) ** 2))


def monte_carlo_noise_error(
    engine: PinvEngine,
    x,
    noise: NoiseModel,
    trials: int,
    seed: int,
) -> float:
    """Empirical mean squared error of a consistency-preserving reconstructor.

    Draws seeded noise, forms the reconstruction ``A+ (A x + n)`` plus the
    true null-space component of ``x``, and averages the squared error
    against ``x``; converges to ``noise_bias_trace`` as trials grow.
    """
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    x = engine.op._check_signal(x)
    if noise.form == "none":
        return 0.0
    draws = noise.sample(generator(seed), engine.op.m, trials)
    # reconstruction error = A+ n plus the (round-off) residual of projecting x
    base = (
        engine.pinv_apply(engine.op.apply(x))
        + engine.nullspace_projector_apply(x)
        - x
    )
    errors = engine.pinv_apply(draws) + base[:, None]
    return float(np.mean(np.sum(errors * errors, axis=0)))


@dataclass
class MetricsRecord:
    """Per-image metrics for one reconstruction method."""

    image_id: str
    method: str
    lam: Optional[float]
    mse: float
    psnr: float
    ssim: Optional[float]
    nullspace_consistency: float
    range_residual: float


def evaluate_reconstruction(
    engine: PinvEngine,
    x_true,
    y,
    output,
    image_id,
    method: str,
    lam: Optional[float] = None,
):
    """Compute the full metrics row for one reconstruction.

    For an ``(n, N)`` block of reconstructions, with ``x_true`` and ``y``
    blocks and one id per column in ``image_id``, returns a list of rows.
    SSIM is None where ``ssim_applies(op.geometry)`` is false.
    """
    op = engine.op
    scores_ssim = ssim_applies(op.geometry)
    x_true = op._check_signal(x_true)
    output = op._check_signal(output)
    consistency = nullspace_consistency(engine, y, output)
    residual = range_residual(op, y, output)

    def record(iid, out, x, null, misfit) -> MetricsRecord:
        return MetricsRecord(
            image_id=iid,
            method=method,
            lam=lam,
            mse=mse(out, x),
            psnr=psnr(out, x),
            ssim=ssim(out, x, geometry=op.geometry) if scores_ssim else None,
            nullspace_consistency=float(null),
            range_residual=float(misfit),
        )

    if output.ndim == 1:
        return record(image_id, output, x_true, consistency, residual)
    return list(map(record, image_id, output.T, x_true.T, consistency, residual))


def format_metric(value) -> str:
    """CSV cell: 6 significant digits, 'inf' for infinity, '' for missing."""
    if value is None:
        return ""
    v = float(value)
    if math.isinf(v):
        return "inf"
    return f"{v:.6g}"
