"""Independent float64 forward pass for the benchmark's two network shapes.

It shares no code with the engine: it works from the generator's own layer
list and weight arrays, never from the parsed config or `fmprune.inference`.
Convolution is an im2col product batched over the group axis, batch norm is
applied unfolded, and in a pruned pass every ReLU output at or below epsilon
is set to zero. On these ReLU networks that equals skipping the channels the
engine marks, because a marked channel is one whose every value was zeroed.
"""

from __future__ import annotations

import numpy as np

BN_EPSILON = 1e-6


def conv2d(x: np.ndarray, w: np.ndarray, stride: int, pad: int, groups: int) -> np.ndarray:
    """Grouped 2-D convolution without bias, float64 in and out."""
    c, h, wd = x.shape
    o, cpg, k, _ = w.shape
    if pad:
        x = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - k) // stride + 1
    ow = (wd + 2 * pad - k) // stride + 1
    taps = [x[:, ky:ky + stride * (oh - 1) + 1:stride, kx:kx + stride * (ow - 1) + 1:stride]
            for ky in range(k) for kx in range(k)]
    # cols[g, ci * k*k + tap, pos] matches w[g * O/g + f, ci, ky, kx] flattened
    cols = np.stack(taps, axis=1).reshape(groups, cpg * k * k, oh * ow)
    wg = w.reshape(groups, o // groups, cpg * k * k).astype(np.float64)
    return np.matmul(wg, cols).reshape(o, oh, ow)


def maxpool(x: np.ndarray, size: int, stride: int) -> np.ndarray:
    """Ceil-mode max pooling whose windows are clipped at the input edge."""
    c, h, w = x.shape
    oh = -((h - size) // -stride) + 1
    ow = -((w - size) // -stride) + 1
    ph = max((oh - 1) * stride + size - h, 0)
    pw = max((ow - 1) * stride + size - w, 0)
    padded = np.pad(x, ((0, 0), (0, ph), (0, pw)), constant_values=-np.inf)
    out = np.full((c, oh, ow), -np.inf)
    for ky in range(size):
        for kx in range(size):
            out = np.maximum(out, padded[:, ky:ky + stride * (oh - 1) + 1:stride,
                                         kx:kx + stride * (ow - 1) + 1:stride])
    return out


def activate(x: np.ndarray, activation: str,
             epsilon: float | None) -> tuple[np.ndarray, np.ndarray | None]:
    """ReLU, then in a pruned pass every value at or below epsilon set to 0.

    Returns (output, ReLU output before thresholding, or None if unpruned).
    """
    if activation == "linear":
        return x, None
    y = np.maximum(x, 0.0)
    if epsilon is None:
        return y, None
    return np.where(y <= epsilon, 0.0, y), y


def batch_norm(raw: np.ndarray, bn: dict) -> np.ndarray:
    rstd = 1.0 / np.sqrt(bn["var"].astype(np.float64) + BN_EPSILON)
    return ((raw - bn["mean"][:, None, None]) * (bn["scale"] * rstd)[:, None, None])


def layer_forward(spec: dict, wts: dict | None, x: np.ndarray,
                  epsilon: float | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """One layer in float64: (output, pre-threshold output or None).

    The second value is the ReLU output before values at or below epsilon
    are zeroed, returned for pruned passes so a caller can tell which
    values sit within rounding distance of epsilon.
    """
    kind = spec["kind"]
    if kind == "convolutional":
        raw = conv2d(x, wts["weights"], spec["stride"], spec["pad"], spec["groups"])
        if "bn" in wts:
            raw = batch_norm(raw, wts["bn"])
        return activate(raw + wts["biases"][:, None, None], spec["activation"], epsilon)
    if kind == "maxpool":
        return maxpool(x, spec["size"], spec["stride"]), None
    if kind == "avgpool":
        return x.mean(axis=(1, 2), keepdims=True), None
    if kind == "connected":
        flat = x.reshape(-1)
        w = wts["weights"]
        out = np.empty(w.shape[0])
        for lo in range(0, w.shape[0], 1024):  # bounds the float64 copy of big layers
            out[lo:lo + 1024] = w[lo:lo + 1024].astype(np.float64) @ flat
        y, pre = activate(out + wts["biases"], spec["activation"], epsilon)
        return y.reshape(-1, 1, 1), None if pre is None else pre.reshape(-1, 1, 1)
    if kind == "softmax":
        flat = x.reshape(-1)
        e = np.exp(flat - flat.max())
        return (e / e.sum()).reshape(x.shape), None
    raise ValueError(f"reference has no layer kind {kind!r}")


def marked_channels(x: np.ndarray, epsilon: float) -> np.ndarray:
    """Channels whose every value has magnitude at most epsilon, compared in
    float32 as the engine's marking contract states."""
    return np.abs(x.astype(np.float32)).max(axis=(1, 2)) <= np.float32(epsilon)


def forward(layers: list[dict], weights: list[dict | None], image: np.ndarray,
            epsilon: float | None = None) -> np.ndarray:
    """Class scores of a whole pass over a C×H×W input in [0, 1]; epsilon None
    means unpruned."""
    x = image.astype(np.float64)
    seen_conv = False
    for spec, wts in zip(layers, weights):
        if spec["kind"] == "convolutional":
            if epsilon is not None and seen_conv:
                x = np.where(marked_channels(x, epsilon)[:, None, None], 0.0, x)
            seen_conv = True
        x, _ = layer_forward(spec, wts, x, epsilon)
    return x.reshape(-1)


def read_weights(path, layers: list[dict], in_channels: int = 3) -> list[dict | None]:
    """Read a weights stream written for this layer list (version 0.2: 20-byte header)."""
    data = np.fromfile(path, dtype="<f4", offset=20)
    pos = 0

    def take(n):
        nonlocal pos
        pos += n
        return data[pos - n:pos]

    out: list[dict | None] = []
    c = in_channels
    for spec in layers:
        kind = spec["kind"]
        if kind == "convolutional":
            o, k = spec["filters"], spec["size"]
            block = {"biases": take(o)}
            if spec["bn"]:
                block["bn"] = {key: take(o) for key in ("scale", "mean", "var")}
            block["weights"] = take(o * (c // spec["groups"]) * k * k).reshape(
                o, c // spec["groups"], k, k)
            out.append(block)
            c = o
        elif kind == "connected":
            o = spec["outputs"]
            n_in = spec["inputs"]
            out.append({"biases": take(o), "weights": take(o * n_in).reshape(o, n_in)})
            c = o
        else:
            out.append(None)
    if pos != data.size:
        raise ValueError(f"weights stream has {data.size - pos} values left over")
    return out
