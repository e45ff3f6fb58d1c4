"""Pseudoinverse engines: apply A+, the projector A+A, and I - A+A.

One engine is bound to one operator and caches whatever factorization its
method needs at construction time:

* ``svd_dense``       -- truncated SVD of the materialized matrix
* ``mask_analytic``   -- A+ = A^T for selection operators (orthonormal rows)
* ``spectral_fft``    -- per-frequency inversion for circular filtering
* ``cg_minimum_norm`` -- matrix-free: solve A A^T z = y, return A^T z
                         (valid for full-row-rank operators)

The complement projector is never materialized; it is always applied as
``v - range_projector_apply(v)``.

The first three engines hold a decomposition A = U S V^T (singular vectors,
kept mask indices with s = 1, DFT bins with s = |transfer|), so they also
solve the Tikhonov-type problem argmin ||x - fhat||^2 + w ||A x - y||^2 in
closed form (``regularized_solve``): each singular direction keeps its
component of ``fhat`` and moves towards the measured one by the filter
factor w s^2 / (1 + w s^2).  The CG engine holds none and returns None.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .errors import ParameterError, SolverError, UnsupportedConfigError
from .operators import CircularBlurOperator, MaskOperator, SensingOperator

DEFAULT_RCOND = 1e-10
DEFAULT_CG_TOL = 1e-10


def conjugate_gradient(
    matvec: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    tol: float,
    max_iter: int,
) -> np.ndarray:
    """Solve the SPD system M z = b to relative residual ``tol``."""
    z = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return z
    threshold = tol * b_norm
    for _ in range(max_iter):
        if np.sqrt(rs) <= threshold:
            return z
        mp = matvec(p)
        alpha = rs / float(p @ mp)
        z += alpha * p
        r -= alpha * mp
        rs_new = float(r @ r)
        p = r + (rs_new / rs) * p
        rs = rs_new
    if np.sqrt(rs) <= threshold:
        return z
    raise SolverError(
        "conjugate gradient did not converge", np.sqrt(rs) / b_norm, max_iter
    )


class PinvEngine:
    """Base class; subclasses implement pinv_apply and range_projector_apply."""

    method: str = "abstract"

    def __init__(self, op: SensingOperator):
        self.op = op

    def pinv_apply(self, y) -> np.ndarray:
        """Minimum-norm least-squares solution A+ y."""
        raise NotImplementedError

    def range_projector_apply(self, v) -> np.ndarray:
        """Orthogonal projection A+ A v onto the row space of A."""
        raise NotImplementedError

    def regularized_solve(self, y, fhat, weight: float) -> Optional[np.ndarray]:
        """argmin ||x - fhat||^2 + weight ||A x - y||^2 in closed form.

        Returns None when the engine holds no decomposition of A.
        """
        return None

    def nullspace_projector_apply(self, v) -> np.ndarray:
        """(I - A+ A) v, applied as the complement of the range projector."""
        v = self.op._check_signal(v)
        return v - self.range_projector_apply(v)

    def pinv_matrix(self) -> np.ndarray:
        """Materialized n x m pseudoinverse (column-by-column fallback)."""
        cols = np.zeros((self.op.n, self.op.m))
        e = np.zeros(self.op.m)
        for j in range(self.op.m):
            e[j] = 1.0
            cols[:, j] = self.pinv_apply(e)
            e[j] = 0.0
        return cols

    def __repr__(self):
        return f"<{type(self).__name__} method={self.method} op={self.op!r}>"


class SvdEngine(PinvEngine):
    """Truncated SVD of the materialized operator."""

    method = "svd_dense"

    def __init__(self, op: SensingOperator, rcond: float = DEFAULT_RCOND):
        super().__init__(op)
        self.rcond = float(rcond)
        a = op.to_dense()
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        rank = int(np.sum(s > self.rcond * s[0])) if s.size and s[0] > 0 else 0
        self.u = u[:, :rank]
        self.s = s[:rank]
        self.vt = vt[:rank]

    @property
    def singular_values(self) -> np.ndarray:
        return self.s

    def pinv_apply(self, y) -> np.ndarray:
        y = self.op._check_measurement(y)
        return self.vt.T @ ((self.u.T @ y) / self.s) if self.s.size else np.zeros(self.op.n)

    def range_projector_apply(self, v) -> np.ndarray:
        v = self.op._check_signal(v)
        return self.vt.T @ (self.vt @ v)

    def regularized_solve(self, y, fhat, weight: float) -> np.ndarray:
        y = self.op._check_measurement(y)
        fhat = self.op._check_signal(fhat)
        s = self.s
        step = weight * s * (self.u.T @ y - s * (self.vt @ fhat)) / (1.0 + weight * s * s)
        return fhat + self.vt.T @ step

    def pinv_matrix(self) -> np.ndarray:
        if not self.s.size:
            return np.zeros((self.op.n, self.op.m))
        return self.vt.T @ np.diag(1.0 / self.s) @ self.u.T


class MaskEngine(PinvEngine):
    """A+ = A^T for selection operators; projectors are index masks."""

    method = "mask_analytic"

    def __init__(self, op: MaskOperator):
        if not isinstance(op, MaskOperator):
            raise ParameterError("mask_analytic engine requires a mask operator")
        super().__init__(op)

    @property
    def singular_values(self) -> np.ndarray:
        return np.ones(self.op.m)

    def pinv_apply(self, y) -> np.ndarray:
        return self.op.adjoint(self.op._check_measurement(y))

    def range_projector_apply(self, v) -> np.ndarray:
        v = self.op._check_signal(v)
        out = np.zeros_like(v)
        out[self.op.keep] = v[self.op.keep]
        return out

    def regularized_solve(self, y, fhat, weight: float) -> np.ndarray:
        y = self.op._check_measurement(y)
        x = self.op._check_signal(fhat).copy()
        keep = self.op.keep
        x[keep] = (x[keep] + weight * y) / (1.0 + weight)
        return x

    def pinv_matrix(self) -> np.ndarray:
        return self.op.to_dense().T


class SpectralEngine(PinvEngine):
    """Frequency-domain inversion for circular filtering operators.

    Frequency bins with ``|transfer| <= rcond * max|transfer|`` are treated
    as null directions: the inverse multiplier is set to 0 there and the
    range projector excludes them.
    """

    method = "spectral_fft"

    def __init__(self, op: CircularBlurOperator, rcond: float = DEFAULT_RCOND):
        if not isinstance(op, CircularBlurOperator):
            raise ParameterError("spectral_fft engine requires a circular blur operator")
        super().__init__(op)
        self.rcond = float(rcond)
        magnitude = np.abs(op.transfer)
        self.retained = magnitude > self.rcond * magnitude.max()
        # apply() multiplies by conj(transfer); invert that factor bin-wise.
        inv = np.zeros_like(op.transfer)
        inv[self.retained] = 1.0 / np.conj(op.transfer[self.retained])
        self.inverse_multiplier = inv

    @property
    def singular_values(self) -> np.ndarray:
        g = self.op.geometry
        per_channel = np.sort(np.abs(self.op.transfer[self.retained]))[::-1]
        return np.repeat(per_channel, g.channels)

    def pinv_apply(self, y) -> np.ndarray:
        return self.op._filter(self.op._check_measurement(y), self.inverse_multiplier)

    def range_projector_apply(self, v) -> np.ndarray:
        return self.op._filter(self.op._check_signal(v), self.retained.astype(np.float64))

    def regularized_solve(self, y, fhat, weight: float) -> np.ndarray:
        # bin-wise (F fhat + w t F y) / (1 + w |t|^2); A^T A is |t|^2 per bin
        t = self.op.transfer
        denom = 1.0 + weight * (t.real ** 2 + t.imag ** 2)
        return (self.op._filter(self.op._check_signal(fhat), 1.0 / denom)
                + self.op._filter(self.op._check_measurement(y), weight * t / denom))


class CgEngine(PinvEngine):
    """Matrix-free minimum-norm solution via CG on A A^T z = y.

    Assumes full row rank (A A^T nonsingular); rank-deficient operators
    should use the dense SVD engine instead.
    """

    method = "cg_minimum_norm"

    def __init__(
        self,
        op: SensingOperator,
        cg_tol: float = DEFAULT_CG_TOL,
        cg_max_iter: Optional[int] = None,
    ):
        super().__init__(op)
        self.cg_tol = float(cg_tol)
        self.cg_max_iter = (
            int(cg_max_iter) if cg_max_iter is not None else 10 * min(op.m, op.n)
        )

    def _gram_apply(self, z: np.ndarray) -> np.ndarray:
        return self.op.apply(self.op.adjoint(z))

    def pinv_apply(self, y) -> np.ndarray:
        y = self.op._check_measurement(y)
        z = conjugate_gradient(self._gram_apply, y, self.cg_tol, self.cg_max_iter)
        return self.op.adjoint(z)

    def range_projector_apply(self, v) -> np.ndarray:
        return self.pinv_apply(self.op.apply(self.op._check_signal(v)))


_DEFAULT_METHODS = {
    "dense": "svd_dense",
    "mask": "mask_analytic",
    "circular_blur": "spectral_fft",
    "random_projection": "cg_minimum_norm",
}


def make_engine(
    op: SensingOperator,
    method: str = "auto",
    rcond: float = DEFAULT_RCOND,
    cg_tol: float = DEFAULT_CG_TOL,
    cg_max_iter: Optional[int] = None,
) -> PinvEngine:
    """Build the pseudoinverse engine for an operator.

    ``method='auto'`` picks the analytic/spectral path where one exists and
    falls back to dense SVD for explicit matrices.
    """
    if method == "auto":
        method = _DEFAULT_METHODS.get(op.kind, "svd_dense")
        if method == "cg_minimum_norm" and op.m > op.n:
            method = "svd_dense"
    if method == "svd_dense":
        return SvdEngine(op, rcond=rcond)
    if method == "mask_analytic":
        return MaskEngine(op)
    if method == "spectral_fft":
        return SpectralEngine(op, rcond=rcond)
    if method == "cg_minimum_norm":
        return CgEngine(op, cg_tol=cg_tol, cg_max_iter=cg_max_iter)
    raise UnsupportedConfigError(f"unknown pseudoinverse method {method!r}")
