"""Loop and nested-where formulas the vectorized engine is checked against,
bit for bit."""

import numpy as np

from fmprune import MODE_LITERAL, MODE_OFF, PruneConfig, Tensor

_F32_ZERO = np.float32(0.0)


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
