"""Pseudoinverse engines: apply A+, the projector A+A, and I - A+A.

One engine is bound to one operator.  Every engine but the CG one holds a
decomposition A = U diag(s) V^H, computed once at construction:

* ``svd_dense``       -- truncated SVD of the materialized matrix
* ``mask_analytic``   -- U = I, V = the kept columns of the identity, s = 1
* ``spectral_fft``    -- U = V = the per-channel DFT, s = conj(transfer) per
                         frequency bin (the multiplier ``apply`` uses)
* ``cg_minimum_norm`` -- matrix-free: solve A A^T z = y, return A^T z
                         (valid for full-row-rank operators)

A decomposition engine implements one transform, ``_filter``:

    fhat + V (phi * U^H y - psi * V^H fhat)

and every operation is a choice of filter factors on its spectrum ``s``.
Directions with |s| <= rcond * max|s| are null directions (not retained).

* ``pinv_apply``                -- phi = 1/s on retained directions, 0 elsewhere
* ``nullspace_projector_apply`` -- psi = 1 on retained directions
* ``range_projector_apply``     -- v - (I - A+ A) v
* ``regularized_solve``         -- argmin ||x - fhat||^2 + w ||A x - y||^2:
                                   phi = w conj(s) / (1 + w |s|^2) and
                                   psi = w |s|^2 / (1 + w |s|^2) on every
                                   direction, so none divides by a small s

The CG engine holds no decomposition: it applies A+ by CG, derives the
projectors from it and has no closed-form regularized solve.

Every operation takes a flat vector or a column block (one signal or
measurement per column) and returns the same shape; the filter factors
scale the rows of a block, ``(phi * z.T).T``, and ``conjugate_gradient``
runs the columns of a block in lockstep, one operator product per iteration
for all of them.
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
    """Solve the SPD system M z = b to relative residual ``tol``.

    A 2-D ``b`` holds one right-hand side per column, and the columns run
    one CG each in lockstep: every column keeps its own step sizes, its own
    threshold ``tol * ||b_j||`` and its own stop.  ``matvec`` is called once
    per iteration, on the ``(n, k)`` block of the k columns still running
    (on a vector for a 1-D ``b``), so a block costs one matrix product per
    iteration instead of one per column.  The iterates are kept as one
    contiguous row per right-hand side, so a column's dot products, and so
    its iterates, do not depend on which columns share its block.

    Raises ``SolverError`` if a column misses ``tol`` after ``max_iter``
    iterations; for a block it reports the worst such column's residual.
    """
    r = np.array(b.T, order="C", ndmin=2)
    z = np.zeros_like(r)
    p = r.copy()
    rs = np.vecdot(r, r)
    b_norm = np.sqrt(rs)
    threshold = tol * b_norm

    def unconverged():
        # a NaN residual counts as unconverged, so a broken solve raises
        return ~(np.sqrt(rs) <= threshold)

    for _ in range(max_iter):
        active = np.flatnonzero(unconverged())
        if active.size == 0:
            break
        pa = p[active]
        mp = matvec(pa.T if b.ndim == 2 else pa[0])
        mp = np.array(mp.T, order="C", ndmin=2)
        alpha = (rs[active] / np.vecdot(pa, mp))[:, None]
        z[active] += alpha * pa
        ra = r[active] - alpha * mp
        rs_new = np.vecdot(ra, ra)
        r[active] = ra
        p[active] = ra + (rs_new / rs[active])[:, None] * pa
        rs[active] = rs_new
    failed = unconverged()
    if failed.any():
        residual = np.max(np.sqrt(rs[failed]) / b_norm[failed])
        message = "conjugate gradient did not converge"
        if b.ndim == 2:
            message += f" on {int(failed.sum())} of {b.shape[1]} columns"
        raise SolverError(message, residual, max_iter)
    return z.T if b.ndim == 2 else z[0]


class PinvEngine:
    """A+, both projectors and the regularized solve as filters on ``s``.

    Subclasses hand their spectrum ``s`` to this constructor and implement
    ``_filter``; ``CgEngine`` instead overrides the operations it computes.
    """

    method: str = "abstract"

    def __init__(self, op: SensingOperator, s: np.ndarray, rcond: float = DEFAULT_RCOND):
        self.op = op
        self.rcond = float(rcond)
        self.s = s
        magnitude = np.abs(s)
        self.retained = magnitude > self.rcond * magnitude.max(initial=0.0)
        self.inverse = np.zeros_like(s)
        self.inverse[self.retained] = 1.0 / s[self.retained]

    def _filter(self, y, fhat, phi, psi) -> np.ndarray:
        """fhat + V (phi U^H y - psi V^H fhat); a None input counts as zero."""
        raise NotImplementedError

    def _noise_diagonal(self, noise):
        """diag(U^H S U): the variance of noise with covariance S along each U."""
        raise NotImplementedError

    def pinv_apply(self, y) -> np.ndarray:
        """Minimum-norm least-squares solution A+ y."""
        return self._filter(self.op._check_measurement(y), None, self.inverse, None)

    def nullspace_projector_apply(self, v) -> np.ndarray:
        """(I - A+ A) v: v without its components along retained directions."""
        return self._filter(None, self.op._check_signal(v), None, self.retained)

    def range_projector_apply(self, v) -> np.ndarray:
        """Orthogonal projection A+ A v onto the row space of A."""
        v = self.op._check_signal(v)
        return v - self._filter(None, v, None, self.retained)

    def regularized_solve(self, y, fhat, weight: float) -> Optional[np.ndarray]:
        """argmin ||x - fhat||^2 + weight ||A x - y||^2 in closed form.

        Returns None when the engine holds no decomposition of A.
        """
        y = self.op._check_measurement(y)
        fhat = self.op._check_signal(fhat)
        power = np.abs(self.s) ** 2
        denom = 1.0 + weight * power
        return self._filter(y, fhat, weight * np.conj(self.s) / denom, weight * power / denom)

    def pinv_matrix(self) -> np.ndarray:
        """Materialized n x m pseudoinverse: A+ applied to the identity block."""
        return self.pinv_apply(np.eye(self.op.m))

    def __repr__(self):
        return f"<{type(self).__name__} method={self.method} op={self.op!r}>"


class SvdEngine(PinvEngine):
    """Truncated SVD of the materialized operator."""

    method = "svd_dense"

    def __init__(self, op: SensingOperator, rcond: float = DEFAULT_RCOND):
        a = op.to_dense()
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        rank = int(np.sum(s > rcond * s[0])) if s.size and s[0] > 0 else 0
        super().__init__(op, s[:rank], rcond)
        self.u = u[:, :rank]
        self.vt = vt[:rank]

    def _filter(self, y, fhat, phi, psi) -> np.ndarray:
        coef = 0.0 if y is None else (phi * (self.u.T @ y).T).T
        if fhat is None:
            return self.vt.T @ coef
        return fhat + self.vt.T @ (coef - (psi * (self.vt @ fhat).T).T)

    def _noise_diagonal(self, noise):
        if noise.form == "isotropic":
            return noise.sigma ** 2
        if noise.form == "diagonal":
            return noise.variances @ (self.u * self.u)
        return np.sum(self.u * (noise.covariance @ self.u), axis=0)


class MaskEngine(PinvEngine):
    """Selection operators: A+ = A^T, the projectors are index masks."""

    method = "mask_analytic"

    def __init__(self, op: MaskOperator):
        if not isinstance(op, MaskOperator):
            raise ParameterError("mask_analytic engine requires a mask operator")
        super().__init__(op, np.ones(op.m))

    def _filter(self, y, fhat, phi, psi) -> np.ndarray:
        keep = self.op.keep
        out = np.zeros((self.op.n,) + y.shape[1:]) if fhat is None else fhat.copy()
        if y is not None:
            out[keep] += (phi * y.T).T
        if fhat is not None:
            out[keep] -= (psi * fhat[keep].T).T
        return out

    def _noise_diagonal(self, noise):
        if noise.form == "isotropic":
            return noise.sigma ** 2
        if noise.form == "diagonal":
            return noise.variances
        return np.diag(noise.covariance)


class SpectralEngine(PinvEngine):
    """Frequency-domain filtering for circular blur operators.

    The spectrum is one value per DFT bin, shared by all channels; bins with
    ``|transfer| <= rcond * max|transfer|`` are null directions.
    """

    method = "spectral_fft"

    def __init__(self, op: CircularBlurOperator, rcond: float = DEFAULT_RCOND):
        if not isinstance(op, CircularBlurOperator):
            raise ParameterError("spectral_fft engine requires a circular blur operator")
        super().__init__(op, np.conj(op.transfer), rcond)

    def _filter(self, y, fhat, phi, psi) -> np.ndarray:
        if fhat is None:
            out = np.zeros((self.op.n,) + y.shape[1:])
        else:
            out = fhat - self.op._filter(fhat, psi)
        if y is not None:
            out += self.op._filter(y, phi)
        return out

    def _noise_diagonal(self, noise):
        # summed over channels; a unitary DFT spreads every pixel's variance
        # evenly over the H * W bins
        g = self.op.geometry
        if noise.form == "isotropic":
            return noise.sigma ** 2 * g.channels
        if noise.form == "diagonal":
            return noise.variances.sum() / (g.height * g.width)
        raise UnsupportedConfigError(
            "dense noise covariance is not supported by the spectral engine"
        )


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
        self.op = op
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

    def nullspace_projector_apply(self, v) -> np.ndarray:
        v = self.op._check_signal(v)
        return v - self.range_projector_apply(v)

    def regularized_solve(self, y, fhat, weight: float) -> None:
        return None


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
    if method == "svd_dense":
        return SvdEngine(op, rcond=rcond)
    if method == "mask_analytic":
        return MaskEngine(op)
    if method == "spectral_fft":
        return SpectralEngine(op, rcond=rcond)
    if method == "cg_minimum_norm":
        return CgEngine(op, cg_tol=cg_tol, cg_max_iter=cg_max_iter)
    raise UnsupportedConfigError(f"unknown pseudoinverse method {method!r}")
