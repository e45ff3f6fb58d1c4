"""Pseudoinverse engines: one solve gives A+, I - A+ A and both corrections.

One engine is bound to one operator and has one numerical operation,
``solve(y, fhat, weight)``: argmin ||x - fhat||^2 + weight ||A x - y||^2,
where a None input counts as zero.  Its default weight = inf is the hard
constraint, A+ y + (I - A+ A) fhat, so ``pinv_apply(y)`` is solve(y, None)
and ``nullspace_projector_apply(v)`` is solve(None, v); a finite weight is
Tikhonov (fhat = None) or the regularized correction.  Beside
``pinv_apply`` and ``nullspace_projector_apply``, ``range_projector_apply(y)``
is A A+ y, the part of y in the range of A: A applied to ``pinv_apply(y)``,
except on the CG engine, which assumes full row rank and so returns y
itself without a solve.  Every engine but the CG one holds a decomposition
A = U diag(s) V^H, computed once at construction:

* ``svd_dense``       -- truncated SVD of the materialized matrix
* ``mask_analytic``   -- U = I, V = the kept columns of the identity, s = 1
* ``spectral_fft``    -- U = V = the per-channel DFT, s = conj(transfer) per
                         frequency bin (the multiplier ``apply`` uses)
* ``cg_minimum_norm`` -- matrix-free: ``dual_solve`` below
                         (valid for full-row-rank operators)

A decomposition engine implements one transform, ``_filter``:

    fhat + V (phi * U^H y - psi * V^H fhat)

and ``solve`` is a choice of filter factors on its spectrum ``s``.
Directions with |s| <= rcond * max|s| are null directions (not retained).

* weight = inf: phi = 1/s and psi = 1 on retained directions, 0 elsewhere
* finite weight w: phi = w conj(s) / (1 + w |s|^2) and
  psi = w |s|^2 / (1 + w |s|^2) on every direction, so none divides by a
  small s

Every solve without a closed form is ``dual_solve``: fhat + A^T z with
(A A^T + shift) z = y - A fhat, one conjugate gradient at the engine's
``cg_tol`` and ``cg_max_iter``.  The CG engine holds no decomposition and
its ``solve`` is that system, with shift z / weight.

Every operation takes a flat vector or a column block (one signal or
measurement per column) and returns the same shape; the filter factors
scale the rows of a block, ``(phi * z.T).T``, and ``conjugate_gradient``
runs the columns of a block in lockstep, one operator product per iteration
for all of them.
"""

from __future__ import annotations

import math
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
    """One regularized solve, a filter on ``s``, and the operations it gives.

    Subclasses hand their spectrum ``s`` to this constructor and implement
    ``_filter``; ``CgEngine`` has no spectrum and instead overrides
    ``solve``.
    """

    method: str = "abstract"

    def __init__(
        self,
        op: SensingOperator,
        s: Optional[np.ndarray] = None,
        rcond: float = DEFAULT_RCOND,
        cg_tol: float = DEFAULT_CG_TOL,
        cg_max_iter: Optional[int] = None,
    ):
        self.op = op
        self.cg_tol = float(cg_tol)
        self.cg_max_iter = int(cg_max_iter) if cg_max_iter is not None else 10 * op.m
        if s is None:
            return
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

    def _gram_apply(self, z: np.ndarray) -> np.ndarray:
        return self.op.apply(self.op.adjoint(z))

    def solve(self, y, fhat, weight: float = math.inf) -> np.ndarray:
        """argmin ||x - fhat||^2 + weight ||A x - y||^2, for weight > 0.

        A None input counts as zero.  ``weight = inf`` is the closest point
        to ``fhat`` among the least-squares solutions of A x = y,
        A+ y + (I - A+ A) fhat.
        """
        y = None if y is None else self.op._check_measurement(y)
        fhat = None if fhat is None else self.op._check_signal(fhat)
        if weight == math.inf:
            return self._filter(y, fhat, self.inverse, self.retained)
        power = np.abs(self.s) ** 2
        denom = 1.0 + weight * power
        return self._filter(y, fhat, weight * np.conj(self.s) / denom, weight * power / denom)

    def dual_solve(self, y, fhat, shift: Optional[Callable] = None) -> np.ndarray:
        """fhat + A^T z with (A A^T + shift) z = y - A fhat, by conjugate gradient.

        A None input counts as zero; a None ``fhat`` costs no product with A.
        ``shift`` maps z to a symmetric positive semidefinite term; without
        one, A A^T must be nonsingular.
        """
        r = None if y is None else self.op._check_measurement(y)
        if fhat is not None:
            fhat = self.op._check_signal(fhat)
            product = self.op.apply(fhat)
            r = -product if r is None else r - product

        def matvec(z):
            gram = self._gram_apply(z)
            return gram if shift is None else gram + shift(z)

        z = self.op.adjoint(conjugate_gradient(matvec, r, self.cg_tol, self.cg_max_iter))
        return z if fhat is None else fhat + z

    def pinv_apply(self, y) -> np.ndarray:
        """Minimum-norm least-squares solution A+ y."""
        return self.solve(y, None)

    def nullspace_projector_apply(self, v) -> np.ndarray:
        """(I - A+ A) v: v without its components along retained directions."""
        return self.solve(None, v)

    def range_projector_apply(self, y) -> np.ndarray:
        """A A+ y: the component of y in the range of A."""
        return self.op.apply(self.pinv_apply(y))

    def __repr__(self):
        return f"<{type(self).__name__} method={self.method} op={self.op!r}>"


class SvdEngine(PinvEngine):
    """Truncated SVD of the materialized operator."""

    method = "svd_dense"

    def __init__(self, op: SensingOperator, rcond: float = DEFAULT_RCOND, **cg):
        a = op.to_dense()
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        rank = int(np.sum(s > rcond * s[0])) if s.size and s[0] > 0 else 0
        super().__init__(op, s[:rank], rcond, **cg)
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

    def __init__(self, op: MaskOperator, **cg):
        if not isinstance(op, MaskOperator):
            raise ParameterError("mask_analytic engine requires a mask operator")
        super().__init__(op, np.ones(op.m), **cg)

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

    def __init__(self, op: CircularBlurOperator, rcond: float = DEFAULT_RCOND, **cg):
        if not isinstance(op, CircularBlurOperator):
            raise ParameterError("spectral_fft engine requires a circular blur operator")
        super().__init__(op, np.conj(op.transfer), rcond, **cg)

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
    """Matrix-free solves by CG on the dual system (A A^T + I / weight) z = r.

    Assumes full row rank (A A^T nonsingular) for ``weight = inf``;
    rank-deficient operators should use the dense SVD engine instead.  Under
    that assumption A A+ = I, so ``range_projector_apply`` returns a copy of
    y.  On a rank-deficient operator with y outside the range of A, where
    the solve raises ``SolverError``, ``metrics.nullspace_consistency``
    therefore reports ||A out - y||^2 instead of raising.
    """

    method = "cg_minimum_norm"

    def range_projector_apply(self, y) -> np.ndarray:
        return self.op._check_measurement(y).copy()

    def solve(self, y, fhat, weight: float = math.inf) -> np.ndarray:
        return self.dual_solve(y, fhat, None if weight == math.inf else lambda z: z / weight)


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
    cg = {"cg_tol": cg_tol, "cg_max_iter": cg_max_iter}
    if method == "svd_dense":
        return SvdEngine(op, rcond=rcond, **cg)
    if method == "mask_analytic":
        return MaskEngine(op, **cg)
    if method == "spectral_fft":
        return SpectralEngine(op, rcond=rcond, **cg)
    if method == "cg_minimum_norm":
        return CgEngine(op, **cg)
    raise UnsupportedConfigError(f"unknown pseudoinverse method {method!r}")
