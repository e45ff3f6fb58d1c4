"""Tensor and image file formats used by the experiment harness.

NIT1 container (little-endian throughout):

    bytes 0-3   magic ``NIT1``
    byte  4     version, currently 1
    byte  5     number of dimensions
    bytes 6-7   zero padding
    next        ndim unsigned 32-bit dims
    rest        row-major IEEE-754 32-bit floats

The format is deliberately trivial so reconstructions produced by external
tools (in any language) can be dropped into the pipeline.  Grayscale images
are also accepted as binary PGM (P5, maxval 255), mapped to [0, 1].
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import ParameterError

MAGIC = b"NIT1"
VERSION = 1


def write_nit1(path, array) -> None:
    """Write an array as a NIT1 tensor file (stored as float32)."""
    a = np.asarray(array, dtype=np.float32)
    if a.ndim < 1 or a.ndim > 255:
        raise ParameterError(f"unsupported tensor rank {a.ndim}")
    header = MAGIC + struct.pack("<BBBB", VERSION, a.ndim, 0, 0)
    dims = struct.pack(f"<{a.ndim}I", *a.shape)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(dims)
        fh.write(np.ascontiguousarray(a, dtype="<f4").tobytes())


def read_nit1(path) -> np.ndarray:
    """Read a NIT1 tensor file into a float64 array; NaN or inf is rejected."""
    raw = Path(path).read_bytes()
    if len(raw) < 8 or raw[:4] != MAGIC:
        raise ParameterError(f"{path}: not a NIT1 file")
    version, ndim, pad0, pad1 = struct.unpack("<BBBB", raw[4:8])
    if version != VERSION:
        raise ParameterError(f"{path}: unsupported NIT1 version {version}")
    if pad0 != 0 or pad1 != 0:
        raise ParameterError(f"{path}: nonzero header padding")
    dims_end = 8 + 4 * ndim
    if len(raw) < dims_end:
        raise ParameterError(f"{path}: truncated dimension header")
    shape = struct.unpack(f"<{ndim}I", raw[8:dims_end])
    count = int(np.prod(shape)) if ndim else 0
    expected = dims_end + 4 * count
    if len(raw) != expected:
        raise ParameterError(
            f"{path}: payload size mismatch (expected {expected} bytes, got {len(raw)})"
        )
    data = np.frombuffer(raw[dims_end:], dtype="<f4").astype(np.float64)
    if not np.all(np.isfinite(data)):
        raise ParameterError(f"{path}: non-finite values")
    return data.reshape(shape)


def _read_pgm_token(raw: bytes, pos: int) -> tuple:
    # skip whitespace and '#' comment lines between header tokens
    while pos < len(raw):
        ch = raw[pos:pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            while pos < len(raw) and raw[pos:pos + 1] != b"\n":
                pos += 1
        else:
            break
    start = pos
    while pos < len(raw) and not raw[pos:pos + 1].isspace():
        pos += 1
    return raw[start:pos], pos


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM (P5, maxval 255) image into an (H, W) array in [0, 1]."""
    raw = Path(path).read_bytes()
    token, pos = _read_pgm_token(raw, 0)
    if token != b"P5":
        raise ParameterError(f"{path}: expected binary PGM magic 'P5', got {token!r}")
    fields = []
    for _ in range(3):
        token, pos = _read_pgm_token(raw, pos)
        try:
            fields.append(int(token))
        except ValueError:
            raise ParameterError(f"{path}: malformed PGM header token {token!r}")
    width, height, maxval = fields
    if maxval != 255:
        raise ParameterError(f"{path}: only maxval 255 is supported, got {maxval}")
    pos += 1  # single whitespace byte after maxval
    pixels = raw[pos:pos + width * height]
    if len(pixels) != width * height:
        raise ParameterError(f"{path}: truncated PGM payload")
    img = np.frombuffer(pixels, dtype=np.uint8).reshape(height, width)
    return img.astype(np.float64) / 255.0


def write_pgm(path, image) -> None:
    """Write an (H, W) array in [0, 1] as binary PGM with maxval 255."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ParameterError(f"PGM images are 2-D, got ndim={img.ndim}")
    quantized = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(quantized.tobytes())
