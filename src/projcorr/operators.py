"""Linear forward operators for measurement models.

Four operator kinds are provided, all exposing ``apply`` (A x) and
``adjoint`` (A^T u).  Both take a flat float64 vector or a column block, an
``(n, N)`` array (``(m, N)`` for ``adjoint``) holding one signal per column,
and return the same shape they were given:

* ``dense``             -- explicit matrix, mainly for testing and oracles
* ``mask``              -- pixel selection (inpainting)
* ``circular_blur``     -- per-channel periodic 2-D convolution (deblurring)
* ``random_projection`` -- rows of i.i.d. +-1/sqrt(m) entries (single-pixel
  style compressive acquisition), streamed or materialized

Operators are immutable after construction; ``apply``/``adjoint`` are pure.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import DegenerateOperatorError, ParameterError, ShapeError
from .rng import generator, stream

# Dense fallbacks (SVD engines, direct solvers) refuse to materialize
# operators with more than this many matrix entries.
DEFAULT_MATERIALIZE_LIMIT = 1 << 24


@dataclass(frozen=True)
class Geometry:
    """Image geometry (height, width, channels) for flat signals."""

    height: int
    width: int
    channels: int = 1

    def __post_init__(self):
        if self.height < 1 or self.width < 1 or self.channels < 1:
            raise ParameterError(f"invalid geometry {self}")

    @property
    def size(self) -> int:
        return self.height * self.width * self.channels

    def reshape(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x).reshape(self.height, self.width, self.channels)


def as_vector(
    values, length: Optional[int] = None, what: str = "signal", finite: bool = True
) -> np.ndarray:
    """Validate and convert to float64: a 1-D vector or a ``(length, N)`` block.

    A 2-D input whose first axis is ``length`` is a block of N columns and
    keeps its shape; any other input is flattened to one vector.
    """
    x = np.asarray(values, dtype=np.float64)
    if not (length is not None and x.ndim == 2 and x.shape[0] == length):
        x = x.ravel()
        if length is not None and x.size != length:
            raise ShapeError(f"{what} length", length, x.size)
    if finite and not np.all(np.isfinite(x)):
        raise ParameterError(f"{what} contains non-finite entries")
    return x


class SensingOperator(abc.ABC):
    """Linear map from signal space (dim n) to measurement space (dim m)."""

    kind: str = "abstract"

    def __init__(
        self,
        n: int,
        m: int,
        geometry: Optional[Geometry] = None,
        materialize_limit: int = DEFAULT_MATERIALIZE_LIMIT,
    ):
        self.n = int(n)
        self.m = int(m)
        self.geometry = geometry
        self.materialize_limit = int(materialize_limit)

    def _check_signal(self, x) -> np.ndarray:
        return as_vector(x, self.n, "signal", finite=False)

    def _check_measurement(self, u) -> np.ndarray:
        return as_vector(u, self.m, "measurement", finite=False)

    @abc.abstractmethod
    def apply(self, x) -> np.ndarray:
        """Return A x: length m, or (m, N) for an (n, N) block."""

    @abc.abstractmethod
    def adjoint(self, u) -> np.ndarray:
        """Return A^T u: length n, or (n, N) for an (m, N) block."""

    def materializable(self) -> bool:
        return self.m * self.n <= self.materialize_limit

    def to_dense(self) -> np.ndarray:
        """Materialize the m x n matrix as A applied to the identity block."""
        if not self.materializable():
            raise ParameterError(
                f"operator of size {self.m}x{self.n} exceeds its materialization limit"
            )
        return self.apply(np.eye(self.n))

    def __repr__(self):
        return f"<{type(self).__name__} kind={self.kind} m={self.m} n={self.n}>"


class DenseOperator(SensingOperator):
    """Explicit dense matrix operator."""

    kind = "dense"

    def __init__(self, matrix, geometry: Optional[Geometry] = None):
        a = np.array(matrix, dtype=np.float64)
        if a.ndim != 2:
            raise ParameterError(f"dense operator needs a 2-D matrix, got ndim={a.ndim}")
        m, n = a.shape
        super().__init__(n=n, m=m, geometry=geometry)
        self.matrix = a
        self.matrix.setflags(write=False)

    def apply(self, x) -> np.ndarray:
        return self.matrix @ self._check_signal(x)

    def adjoint(self, u) -> np.ndarray:
        return self.matrix.T @ self._check_measurement(u)

    def to_dense(self) -> np.ndarray:
        return self.matrix


class MaskOperator(SensingOperator):
    """Selection of a fixed subset of signal entries (rows of the identity)."""

    kind = "mask"

    def __init__(self, n: int, keep, geometry: Optional[Geometry] = None):
        keep = np.array(keep, dtype=np.int64).ravel()
        if keep.size == 0:
            raise DegenerateOperatorError("mask keeps no entries")
        if np.any(np.diff(keep) <= 0):
            raise ParameterError("mask keep-set must be strictly increasing and unique")
        if keep[0] < 0 or keep[-1] >= n:
            raise ParameterError(f"mask keep-set out of range [0, {n})")
        super().__init__(n=n, m=keep.size, geometry=geometry)
        self.keep = keep
        self.keep.setflags(write=False)

    def apply(self, x) -> np.ndarray:
        return self._check_signal(x)[self.keep]

    def adjoint(self, u) -> np.ndarray:
        u = self._check_measurement(u)
        z = np.zeros((self.n,) + u.shape[1:])
        z[self.keep] = u
        return z


class CircularBlurOperator(SensingOperator):
    """Per-channel circular 2-D filtering, diagonalized by the DFT.

    The kernel is a 2-D tap array; tap ``[a, b]`` weights the input sample at
    offset ``(a - origin[0], b - origin[1])`` from the output location:

        y[i, j] = sum_{a,b} kernel[a, b] * x[(i + a - o_r) % H, (j + b - o_c) % W]

    Taps must sum to 1 (mean-preserving filter).
    """

    kind = "circular_blur"

    def __init__(self, geometry: Geometry, kernel, origin: Tuple[int, int]):
        kernel = np.asarray(kernel, dtype=np.float64)
        if kernel.ndim != 2:
            raise ParameterError("blur kernel must be 2-D")
        if abs(kernel.sum() - 1.0) > 1e-12:
            raise ParameterError(f"blur kernel taps must sum to 1, got {kernel.sum()!r}")
        kh, kw = kernel.shape
        if kh > geometry.height or kw > geometry.width:
            raise ParameterError(
                f"kernel {kh}x{kw} larger than image "
                f"{geometry.height}x{geometry.width}"
            )
        super().__init__(n=geometry.size, m=geometry.size, geometry=geometry)
        self.kernel = kernel
        self.kernel.setflags(write=False)
        self.origin = (int(origin[0]), int(origin[1]))

        # Embed taps at their offsets on the periodic grid; the operator is
        # multiplication by conj(transfer) in the Fourier domain.
        h, w = geometry.height, geometry.width
        point_spread = np.zeros((h, w))
        rows = (np.arange(kh) - self.origin[0]) % h
        cols = (np.arange(kw) - self.origin[1]) % w
        np.add.at(point_spread, np.ix_(rows, cols), kernel)
        self.transfer = np.fft.fft2(point_spread)
        self.transfer.setflags(write=False)

    def _filter(self, x: np.ndarray, multiplier: np.ndarray) -> np.ndarray:
        # every channel of every column is one image plane of the stack
        g = self.geometry
        stack = x.reshape(g.height, g.width, x.size // (g.height * g.width))
        planes = np.fft.fft2(stack, axes=(0, 1))
        return np.fft.ifft2(planes * multiplier[:, :, None], axes=(0, 1)).real.reshape(x.shape)

    def apply(self, x) -> np.ndarray:
        return self._filter(self._check_signal(x), np.conj(self.transfer))

    def adjoint(self, u) -> np.ndarray:
        return self._filter(self._check_measurement(u), self.transfer)


class RandomProjectionOperator(SensingOperator):
    """Rows of i.i.d. random entries scaled to 1/sqrt(m).

    Row ``r`` is drawn from the stream ``seed ^ r``, so the matrix is fully
    determined by ``(family, n, m, seed)`` and the streamed and materialized
    paths produce bit-identical results.
    """

    kind = "random_projection"

    def __init__(
        self,
        n: int,
        m: int,
        seed: int,
        family: str = "rademacher",
        geometry: Optional[Geometry] = None,
        materialize_limit: int = DEFAULT_MATERIALIZE_LIMIT,
    ):
        if m < 1 or m > n:
            raise ParameterError(f"need 1 <= m <= n, got m={m}, n={n}")
        if family not in ("rademacher", "gaussian"):
            raise ParameterError(f"unknown row family {family!r}")
        super().__init__(n=n, m=m, geometry=geometry, materialize_limit=materialize_limit)
        self.seed = int(seed)
        self.family = family
        self._dense: Optional[np.ndarray] = None
        if self.materializable():
            # rows written in place: a list of m rows would grow the heap by
            # the matrix size on every construction
            self._dense = np.empty((m, n))
            for r in range(m):
                self._dense[r] = self._row(r)
            self._dense.setflags(write=False)

    def _row(self, r: int) -> np.ndarray:
        rng = stream(self.seed, r)
        if self.family == "rademacher":
            row = rng.integers(0, 2, size=self.n).astype(np.float64) * 2.0 - 1.0
        else:
            row = rng.standard_normal(self.n)
        return row / math.sqrt(self.m)

    def apply(self, x) -> np.ndarray:
        x = self._check_signal(x)
        if self._dense is not None:
            return self._dense @ x
        return np.array([self._row(r) @ x for r in range(self.m)])

    def adjoint(self, u) -> np.ndarray:
        u = self._check_measurement(u)
        if self._dense is not None:
            # for a block, OpenBLAS forms u^T A about 3x faster than A^T u
            return (u.T @ self._dense).T
        z = np.zeros((self.n,) + u.shape[1:])
        for r in range(self.m):
            z += np.multiply.outer(self._row(r), u[r])
        return z

    def to_dense(self) -> np.ndarray:
        if self._dense is not None:
            return self._dense
        return super().to_dense()


def make_inpainting_mask(
    geometry: Geometry,
    keep_probability: float,
    seed: int,
    share_channels: bool = True,
) -> MaskOperator:
    """Random pixel-selection operator.

    Each pixel location is kept independently with ``keep_probability``; by
    default all channels of a kept pixel are kept together.
    """
    if not 0.0 <= keep_probability <= 1.0:
        raise ParameterError(f"keep probability must be in [0, 1], got {keep_probability}")
    rng = generator(seed)
    c = geometry.channels
    if share_channels:
        draws = rng.random(geometry.height * geometry.width)
        pixels = np.flatnonzero(draws < keep_probability)
        keep = (pixels[:, None] * c + np.arange(c)[None, :]).ravel()
    else:
        draws = rng.random(geometry.size)
        keep = np.flatnonzero(draws < keep_probability)
    if keep.size == 0:
        raise DegenerateOperatorError(
            f"inpainting mask with keep probability {keep_probability} kept no pixels"
        )
    return MaskOperator(geometry.size, keep, geometry=geometry)


def make_gaussian_blur(
    geometry: Geometry,
    sigmas: Tuple[float, float],
    truncation: float = 4.0,
) -> CircularBlurOperator:
    """Separable anisotropic Gaussian blur with periodic boundaries.

    ``sigmas = (sigma_row, sigma_col)`` are the standard deviations along the
    two image axes; taps cover offsets ``|d| <= ceil(truncation * sigma)`` per
    axis and are normalized to sum 1.
    """
    sig_r, sig_c = float(sigmas[0]), float(sigmas[1])
    if sig_r <= 0 or sig_c <= 0:
        raise ParameterError(f"blur sigmas must be positive, got {sigmas}")
    if truncation < 1.0:
        raise ParameterError(f"truncation must be >= 1, got {truncation}")

    def taps(sigma: float) -> np.ndarray:
        radius = math.ceil(truncation * sigma)
        d = np.arange(-radius, radius + 1, dtype=np.float64)
        g = np.exp(-0.5 * (d / sigma) ** 2)
        return g / g.sum()

    row_taps = taps(sig_r)
    col_taps = taps(sig_c)
    kernel = np.outer(row_taps, col_taps)
    kernel /= kernel.sum()
    origin = (row_taps.size // 2, col_taps.size // 2)
    return CircularBlurOperator(geometry, kernel, origin)


def make_random_projection(
    n: int,
    m: int,
    seed: int,
    family: str = "rademacher",
    geometry: Optional[Geometry] = None,
    materialize_limit: int = DEFAULT_MATERIALIZE_LIMIT,
) -> RandomProjectionOperator:
    """Compressive acquisition operator with m random projection rows."""
    return RandomProjectionOperator(
        n, m, seed, family=family, geometry=geometry, materialize_limit=materialize_limit
    )


def operator_norm(op: SensingOperator, iters: int = 200, seed: int = 0) -> float:
    """Spectral norm estimate via power iteration on A^T A."""
    rng = generator(seed)
    v = rng.standard_normal(op.n)
    v /= np.linalg.norm(v)
    value = 0.0
    for _ in range(iters):
        w = op.adjoint(op.apply(v))
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        value = nw
    return math.sqrt(value)
