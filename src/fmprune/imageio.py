"""Test-image decoding and conversion to network input tensors.

Only binary PPM (P6, maxval 255) and the raw tensor fixture format are
supported; convert anything else externally (e.g. `convert img.jpg img.ppm`).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .tensor import ShapeError, Tensor, read_raw_tensor


class PPMError(ValueError):
    """The PPM byte stream is malformed."""


_WHITESPACE = b" \t\r\n\x0b\x0c"
_DIGITS = b"0123456789"


def load_ppm(path) -> np.ndarray:
    """Decode the binary PPM ("P6") file at path into its pixels.

    Returns a writable (H, W, 3) uint8 array of interleaved RGB. The magic
    must be followed by whitespace, as Netpbm requires.
    """
    data = Path(path).read_bytes()
    if data[:2] != b"P6":
        raise PPMError("not a binary PPM: magic is not 'P6'")
    if len(data) < 3 or data[2] not in _WHITESPACE:
        raise PPMError("malformed PPM header: magic not followed by whitespace")
    pos = 2
    values = []
    while len(values) < 3:
        while pos < len(data):
            if data[pos] in _WHITESPACE:
                pos += 1
            elif data[pos:pos + 1] == b"#":  # a comment runs to CR or LF
                while pos < len(data) and data[pos] not in b"\r\n":
                    pos += 1
            else:
                break
        start = pos
        while pos < len(data) and data[pos] in _DIGITS:
            pos += 1
        if start == pos:
            raise PPMError("malformed PPM header: expected an integer")
        try:
            values.append(int(data[start:pos]))
        except ValueError:  # more digits than int() converts
            raise PPMError(f"malformed PPM header: {pos - start}-digit integer") from None
    width, height, maxval = values
    if maxval != 255:
        raise PPMError(f"unsupported maxval {maxval}, only 255 is accepted")
    if width < 1 or height < 1:
        raise PPMError(f"invalid image dimensions {width}×{height}")
    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise PPMError("malformed PPM header: maxval not followed by whitespace")
    pos += 1
    need = 3 * width * height
    if len(data) - pos < need:
        raise PPMError(f"truncated pixel data: need {need} bytes, got {len(data) - pos}")
    return np.frombuffer(data, np.uint8, count=need, offset=pos).reshape(height, width, 3).copy()


def _bilinear_axis(length: int, target: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # half-pixel-center sampling, clamped at the borders
    coords = (np.arange(target, dtype=np.float64) + 0.5) * (length / target) - 0.5
    coords = np.clip(coords, 0.0, length - 1)
    lo = np.floor(coords).astype(np.int64)
    frac = coords - lo
    hi = np.minimum(lo + 1, length - 1)
    return lo, hi, frac


def _sample(a: np.ndarray, index: np.ndarray, axis: int) -> np.ndarray:
    # a itself when the index takes every entry in order (source length = target)
    return a if index.size == a.shape[axis] else np.take(a, index, axis=axis)


def _planar(pixels: np.ndarray) -> np.ndarray:
    # (H, W, 3) uint8 -> C-contiguous (3, H, W) float64
    return pixels.transpose(2, 0, 1).astype(np.float64, order="C")


def _blend(a: np.ndarray, b: np.ndarray, frac: np.ndarray) -> np.ndarray:
    # a*(1-frac) + b*frac, computed in a's storage
    a *= 1 - frac
    b *= frac
    a += b
    return a


def to_input_tensor(pixels: np.ndarray, target_shape: tuple[int, int, int]) -> Tensor:
    """Bilinear-resize (H, W, 3) uint8 pixels to the model input plane and
    scale them to [0, 1].

    Output is planar RGB (channel 0 = red) of exactly target_shape; the
    target must have 3 channels. The sampled rows and then columns are
    gathered as interleaved uint8, and only those are widened, to planar
    float64. An axis whose bilinear fractions are all 0 (one whose source
    length equals the target, for example) samples whole pixels and skips
    its blend, which would give a*(1-0) + b*0 = a exactly.
    """
    if pixels.dtype != np.uint8 or pixels.ndim != 3 or pixels.shape[2] != 3 or not pixels.size:
        raise ShapeError(f"need non-empty (H, W, 3) uint8 pixels, got {pixels.dtype} {pixels.shape}")
    c, th, tw = target_shape
    if c != 3:
        raise ShapeError(f"input tensors are RGB: target channels must be 3, got {c}")
    y0, y1, fy = _bilinear_axis(pixels.shape[0], th)
    x0, x1, fx = _bilinear_axis(pixels.shape[1], tw)

    def columns(rows):
        left = _planar(_sample(rows, x0, 1))
        return _blend(left, _planar(np.take(rows, x1, axis=1)), fx) if fx.any() else left

    resized = columns(_sample(pixels, y0, 0))
    if fy.any():
        resized = _blend(resized, columns(np.take(pixels, y1, axis=0)), fy[:, None])
    resized /= 255.0
    return Tensor(resized.astype(np.float32))


def load_input(path, target_shape: tuple[int, int, int]) -> Tensor:
    """Load a .ppm (decoded and resized) or raw tensor file as model input."""
    p = Path(path)
    if p.suffix.lower() in (".ppm", ".pnm"):
        return to_input_tensor(load_ppm(p), target_shape)
    t = read_raw_tensor(p)
    if t.shape != tuple(target_shape):
        raise ShapeError(
            f"raw tensor {p} has shape {t.shape}, model expects {tuple(target_shape)}"
        )
    return t
