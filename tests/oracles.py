"""Loop, scalar and nested-where formulas the vectorized engine is checked
against: bit for bit where the arithmetic is the same, within the stated
tolerance where the summation order differs."""

import math

import numpy as np

from fmprune import MODE_LITERAL, MODE_OFF, LayerSpec, PruneConfig, Tensor, WeightBlock
from fmprune.model import BN_EPSILON

_F32_ZERO = np.float32(0.0)


def max_abs_in_plane(t: Tensor, c: int) -> float:
    """Largest magnitude in channel plane c."""
    return float(np.abs(t.data[c]).max())


def epsilon_activate(x: float, cfg: PruneConfig) -> float:
    """Scalar epsilon-threshold activation (total function of x).

    literal:    x if x > eps; 0 if -leak*eps <= x <= eps; leak*x below.
    magnitude:  y = x if x > 0 else leak*x; y if |y| > eps else 0.
    """
    if cfg.mode == MODE_OFF:
        raise ValueError("epsilon_activate requires a pruning mode, not 'off'")
    eps, leak = cfg.epsilon, cfg.leak
    if cfg.mode == MODE_LITERAL:
        if x > eps:
            return x
        if x >= -(leak * eps):
            return 0.0
        return leak * x
    y = x if x > 0 else leak * x
    return y if abs(y) > eps else 0.0


def conv_forward_reference(fmap: Tensor, layer: LayerSpec, block: WeightBlock,
                           cfg: PruneConfig | None = None) -> Tensor:
    """Direct 6-loop convolution, batch norm applied unfolded when present.

    out(f,y,x) = bias(f) + sum over the filter's group channels and kernel
    taps of w*in, out-of-range input reading as zero; with batch norm the
    sum s becomes scale(f)*(s - mean(f))/sqrt(var(f) + 1e-6) + bias(f).
    """
    c, h, w = fmap.shape
    o, cpg, k = block.out_channels, block.in_channels_per_group, block.kernel_size
    s, p = layer.stride, layer.padding
    oh = (h + 2 * p - k) // s + 1
    ow = (w + 2 * p - k) // s + 1
    fpg = o // layer.groups

    src = fmap.data.tolist()
    wts = block.weights.tolist()
    biases = block.biases.tolist()
    if block.has_batch_norm:
        scales = block.bn_scales.tolist()
        means = block.bn_rolling_mean.tolist()
        rstd = [1.0 / math.sqrt(v + float(BN_EPSILON)) for v in block.bn_rolling_var.tolist()]

    out = np.empty((o, oh, ow), dtype=np.float32)
    for f in range(o):
        c0 = (f // fpg) * cpg
        wf = wts[f]
        for oy in range(oh):
            for ox in range(ow):
                acc = 0.0
                for ci in range(cpg):
                    plane = src[c0 + ci]
                    wc = wf[ci]
                    for ky in range(k):
                        iy = oy * s - p + ky
                        if 0 <= iy < h:
                            row = plane[iy]
                            wrow = wc[ky]
                            for kx in range(k):
                                ix = ox * s - p + kx
                                if 0 <= ix < w:
                                    acc += wrow[kx] * row[ix]
                if block.has_batch_norm:
                    acc = scales[f] * (acc - means[f]) * rstd[f] + biases[f]
                else:
                    acc += biases[f]
                out[f, oy, ox] = acc
    return Tensor(activation_where(out, layer.activation, cfg))


def maxpool_loop(fmap: Tensor, size: int, stride: int) -> Tensor:
    """Ceil-mode max pooling, one window at a time, with edge-clamped windows."""
    c, h, w = fmap.shape
    oh = max(-((h - size) // -stride) + 1, 1)
    ow = max(-((w - size) // -stride) + 1, 1)
    out = np.empty((c, oh, ow), dtype=np.float32)
    for oy in range(oh):
        y0 = min(oy * stride, h - 1)
        y1 = min(oy * stride + size, h)
        for ox in range(ow):
            x0 = min(ox * stride, w - 1)
            x1 = min(ox * stride + size, w)
            out[:, oy, ox] = fmap.data[:, y0:y1, x0:x1].max(axis=(1, 2))
    return Tensor(out)


def _epsilon_where(values: np.ndarray, cfg: PruneConfig) -> np.ndarray:
    eps = np.float32(cfg.epsilon)
    leak = np.float32(cfg.leak)
    if cfg.mode == MODE_LITERAL:
        return np.where(values > eps, values,
                        np.where(values >= -(leak * eps), _F32_ZERO, leak * values))
    y = np.where(values > _F32_ZERO, values, leak * values)
    return np.where(np.abs(y) > eps, y, _F32_ZERO)


def activation_where(values: np.ndarray, activation: str,
                     cfg: PruneConfig | None = None) -> np.ndarray:
    """Layer activation as nested np.where calls; never modifies values."""
    if activation == "linear":
        return values
    pruning = cfg is not None and cfg.mode != MODE_OFF
    if activation == "relu":
        rectified = np.maximum(values, _F32_ZERO)
        return _epsilon_where(rectified, cfg) if pruning else rectified
    if pruning:
        return _epsilon_where(values, cfg)
    leak = np.float32(cfg.leak if cfg is not None else 0.01)
    return np.where(values > _F32_ZERO, values, leak * values)


def conv_sums_float64(fmap: Tensor, layer: LayerSpec, block: WeightBlock):
    """A conv layer's sums without bias, in float64, one tap at a time.

    Returns (sums, magnitudes): Σ w·x over each output's group channels and
    kernel taps in (channel, ky, kx) order, and Σ |w·x| over the same
    terms, padding reading as zero. Each product of two float32 values is
    exact in float64.
    """
    _, h, w = fmap.shape
    o, cpg, k = block.out_channels, block.in_channels_per_group, block.kernel_size
    s, p = layer.stride, layer.padding
    oh = (h + 2 * p - k) // s + 1
    ow = (w + 2 * p - k) // s + 1
    fpg = o // layer.groups
    x = np.pad(fmap.data.astype(np.float64), ((0, 0), (p, p), (p, p)))
    sums = np.zeros((o, oh, ow))
    magnitudes = np.zeros((o, oh, ow))
    for f in range(o):
        c0 = (f // fpg) * cpg
        for ci in range(cpg):
            for ky in range(k):
                for kx in range(k):
                    term = (float(block.weights[f, ci, ky, kx])
                            * x[c0 + ci, ky:ky + s * (oh - 1) + 1:s, kx:kx + s * (ow - 1) + 1:s])
                    sums[f] += term
                    magnitudes[f] += np.abs(term)
    return sums, magnitudes


def bilinear_resize_formula(pixels: np.ndarray, height: int, width: int) -> np.ndarray:
    """Half-pixel-center bilinear resize of (H, W, 3) uint8 pixels, scaled to
    [0, 1]: both blends of every axis on the interleaved layout in float64,
    then planar float32."""

    def axis(length, target):
        coords = (np.arange(target, dtype=np.float64) + 0.5) * (length / target) - 0.5
        coords = np.clip(coords, 0.0, length - 1)
        lo = np.floor(coords).astype(np.int64)
        return lo, np.minimum(lo + 1, length - 1), coords - lo

    y0, y1, fy = axis(pixels.shape[0], height)
    x0, x1, fx = axis(pixels.shape[1], width)
    src = pixels.astype(np.float64)
    wx0, wx1 = (1 - fx)[None, :, None], fx[None, :, None]
    top = src[y0][:, x0] * wx0 + src[y0][:, x1] * wx1
    bottom = src[y1][:, x0] * wx0 + src[y1][:, x1] * wx1
    resized = top * (1 - fy)[:, None, None] + bottom * fy[:, None, None]
    return (resized.transpose(2, 0, 1) / 255.0).astype(np.float32)
