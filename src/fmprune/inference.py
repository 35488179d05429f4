"""Forward-pass execution with epsilon-threshold activation pruning.

One convolution kernel, an im2col matrix product over all groups, runs
every convolutional layer; forward reaches it through the skip-aware
convolution, which hands it the channel marks, if any, so that it gathers
and computes on only the unmarked channels. It expects batch norm folded
into the weights (model.fold_batch_norm). The conv and connected kernels
return the biased linear map; forward applies each layer's activation,
which is where the epsilon pruning transform lives when a PruneConfig
enables it, and then marks the channels within epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import LayerSpec, NetworkModel
from .pruning import ChannelMarkTable, LoadRecorder, mark_zero_channels, require_epsilon
from .tensor import ShapeError, Tensor, WeightBlock

MODE_OFF = "off"
MODE_LITERAL = "literal"
MODE_MAGNITUDE = "magnitude"

_F32_ZERO = np.float32(0.0)


@dataclass
class PruneConfig:
    """Epsilon pruning settings for a forward pass.

    mode "off" runs the layer's plain activation with no pruning.
    "literal" is the piecewise threshold activation: keep x above epsilon,
    zero the band [-leak*epsilon, epsilon], leak below it. "magnitude" is
    the alternative reading that first applies the leak to negatives and
    then prunes anything whose magnitude is within epsilon.
    """

    epsilon: float = 0.0
    leak: float = 0.01
    mode: str = MODE_OFF

    def __post_init__(self):
        require_epsilon(self.epsilon)
        if not 0 < self.leak < 1:
            raise ValueError(f"leak must be in (0, 1), got {self.leak}")
        if self.mode not in (MODE_OFF, MODE_LITERAL, MODE_MAGNITUDE):
            raise ValueError(f"unknown prune mode {self.mode!r}")


def apply_activation(values: np.ndarray, activation: str, cfg: PruneConfig) -> np.ndarray:
    """Apply a named layer activation, routed through epsilon pruning when on.

    relu and leaky (with cfg.leak) compute y; "off" returns it and
    "magnitude" zeroes the values of y within epsilon in magnitude.
    "literal" thresholds the raw values: leaky keeps v > eps, zeroes
    [-leak*eps, eps] and leaks below; relu zeroes the rectified [0, eps].
    linear is never transformed (epsilon acts on it only through channel
    marking). relu rectifies in place: forward passes a kernel's fresh output.
    """
    if activation == "linear":
        return values
    eps = np.float32(cfg.epsilon)
    leak = np.float32(cfg.leak)
    literal = cfg.mode == MODE_LITERAL
    if activation == "relu":
        y = np.maximum(values, _F32_ZERO, out=values)
        if literal:
            # Rectified values are +0 or above (or NaN), so the literal
            # transform only zeroes [0, eps]. Multiplying by the mask keeps
            # NaN, which np.where(v > eps, v, 0) would turn into 0.
            return np.multiply(y, y > eps, out=y)
    elif activation == "leaky":
        if literal:
            return np.where(values > eps, values,
                            np.where(values >= -(leak * eps), _F32_ZERO, leak * values))
        y = np.where(values > _F32_ZERO, values, leak * values)
    else:
        raise ValueError(f"unsupported activation {activation!r}")
    if cfg.mode == MODE_OFF:
        return y
    return np.where(np.abs(y) > eps, y, _F32_ZERO)


def conv_forward_fast(fmap: Tensor, layer: LayerSpec, block: WeightBlock,
                      marked: np.ndarray | None = None) -> Tensor:
    """Biased linear map of a conv layer: im2col + one matmul over all groups.

    forward reaches it through pruned_conv_forward. marked, when given, is
    a boolean mask over the input channels; the result is that of the same
    convolution over the input with the marked channels replaced by exact
    zeros, but marked channels are not computed on. Only groups with an
    unmarked channel are run, and within them only the channel positions
    unmarked in some run group: those input channels and the matching
    kernel slices are gathered, and a marked channel left inside that grid
    (possible only when 1 < groups < channels) is zeroed in the gathered
    copy. A group that is not run outputs its bias. The input itself is
    left unchanged.

    The gathered input is padded in float32; one strided copy per kernel
    tap (one copy in all for 1×1) widens it to float64, in which the patch
    products accumulate, and the result is stored float32. Batch norm must
    already be folded into the block's weights and biases (fold_batch_norm).
    """
    if block.has_batch_norm:
        raise ValueError(f"layer {layer.index}: batch norm is not folded; "
                         "run fold_batch_norm on the model first")
    c, h, w = fmap.shape
    o, cpg, k = block.out_channels, block.in_channels_per_group, block.kernel_size
    s, p = layer.stride, layer.padding
    groups = layer.groups
    if c != cpg * groups:
        raise ShapeError(f"conv expects {cpg * groups} input channels, got {c}")
    oh = (h + 2 * p - k) // s + 1
    ow = (w + 2 * p - k) // s + 1
    if oh < 1 or ow < 1:
        raise ShapeError(f"kernel {k} larger than padded {h}×{w} input")

    x = fmap.data
    wmat = block.weights.reshape(groups, o // groups, cpg, k * k)
    if marked is not None and marked.any():
        grid = marked.reshape(groups, cpg)
        run = np.flatnonzero(~grid.all(axis=1))
        grid = grid[run]
        keep = np.flatnonzero(~grid.all(axis=0))
        x = np.take(x, (run[:, None] * cpg + keep).reshape(-1), axis=0)
        inside = grid[:, keep].reshape(-1)
        if inside.any():
            x[inside] = 0.0
        if run.size < groups:
            wmat = wmat[run]
        wmat = np.take(wmat, keep, axis=2)
    g, cg = wmat.shape[0], wmat.shape[2]

    if p:
        buf = np.zeros((g * cg, h + 2 * p, w + 2 * p), np.float32)
        buf[:, p:p + h, p:p + w] = x
    else:
        buf = x
    # rows ordered (channel, ky, kx) to match the weight layout
    cols = np.empty((g * cg, k, k, oh, ow))
    ys, xs = s * (oh - 1) + 1, s * (ow - 1) + 1
    for ky in range(k):
        for kx in range(k):
            cols[:, ky, kx] = buf[:, ky:ky + ys:s, kx:kx + xs:s]
    cols = cols.reshape(g, cg * k * k, oh * ow)
    wmat = wmat.reshape(g, o // groups, cg * k * k).astype(np.float64)
    if g == groups:
        out = np.matmul(wmat, cols).astype(np.float32)
    else:
        out = np.zeros((groups, o // groups, oh * ow), np.float32)
        out[run] = np.matmul(wmat, cols)
    out = out.reshape(o, oh, ow)
    out += block.biases[:, None, None]
    return Tensor(out)


def pruned_conv_forward(fmap: Tensor, marks: ChannelMarkTable | None, layer: LayerSpec,
                        block: WeightBlock, recorder: LoadRecorder | None = None) -> Tensor:
    """Convolution (biased linear map) that skips the marked input channels.

    forward runs every conv layer through here; marks=None marks nothing.
    The output is identical to running the plain convolution over the input
    with marked channels replaced by exact zeros; the conv kernel receives
    the marks and computes over the unmarked channels only. Marked channels
    are not loaded: the recorder's row for the layer counts their plane
    elements and the kernel slices reading them as skipped. Marks may have
    been computed before a pooling layer, so only the channel count is
    checked against the input.
    """
    if marks is None:
        marked, skipped = None, 0
    elif marks.channels != fmap.c:
        raise ShapeError(f"mark table covers {marks.channels} channels, input has {fmap.c}")
    else:
        marked, skipped = marks.aggregate, int(marks.marked_channels().size)
    if recorder is not None:
        coeffs_per_channel = (block.out_channels // layer.groups) * block.kernel_size ** 2
        recorder.record(layer.index, layer.kind, fmap.c, skipped,
                        fmap.h * fmap.w, skipped * coeffs_per_channel)
    return conv_forward_fast(fmap, layer, block, marked=marked)


def maxpool_forward(fmap: Tensor, size: int, stride: int) -> Tensor:
    """Max pooling with ceil-mode output size and edge-clamped windows.

    Window (oy, ox) covers rows [min(oy*stride, h-1), min(oy*stride+size, h))
    and the matching columns.
    """
    c, h, w = fmap.shape
    oh = max(-((h - size) // -stride) + 1, 1)
    ow = max(-((w - size) // -stride) + 1, 1)
    hp, wp = (oh - 1) * stride + size, (ow - 1) * stride + size
    data = fmap.data
    if (hp, wp) != (h, w):
        # -inf never wins, so the ceil-mode overhang drops out of every
        # window. A last window that starts past the edge (stride > size) is
        # clamped to the last row or column, so that line is copied to where
        # the window starts.
        data = np.full((c, hp, wp), -np.inf, dtype=np.float32)
        data[:, :h, :w] = fmap.data
        last_y, last_x = (oh - 1) * stride, (ow - 1) * stride
        if last_x >= w:
            data[:, :h, last_x] = fmap.data[:, :, w - 1]
        if last_y >= h:
            data[:, last_y] = data[:, h - 1]
    ys, xs = stride * (oh - 1) + 1, stride * (ow - 1) + 1
    out = data[:, :ys:stride, :xs:stride].copy()
    for dy in range(size):
        for dx in range(size):
            if dy or dx:
                np.maximum(out, data[:, dy:dy + ys:stride, dx:dx + xs:stride], out=out)
    return Tensor(out)


def avgpool_forward(fmap: Tensor) -> Tensor:
    """Global average pooling to a C×1×1 tensor."""
    return Tensor(fmap.data.mean(axis=(1, 2), dtype=np.float32).reshape(fmap.c, 1, 1))


def connected_forward(fmap: Tensor, block: WeightBlock) -> Tensor:
    """The biased linear map of a connected layer, as an O×1×1 tensor."""
    flat = fmap.data.reshape(-1)
    wmat = block.weights.reshape(block.out_channels, -1)
    if wmat.shape[1] != flat.size:
        raise ShapeError(f"connected layer expects {wmat.shape[1]} inputs, got {flat.size}")
    out = wmat @ flat + block.biases
    return Tensor(out.reshape(block.out_channels, 1, 1))


def softmax_forward(fmap: Tensor) -> Tensor:
    flat = fmap.data.reshape(-1)
    shifted = np.exp(flat - flat.max())
    return Tensor((shifted / shifted.sum()).reshape(fmap.shape))


def forward(model: NetworkModel, image: Tensor, cfg: PruneConfig | None = None,
            recorder: LoadRecorder | None = None, layer_tap=None) -> Tensor:
    """Run all layers in order, producing the final class scores.

    Every conv layer goes through pruned_conv_forward, with the marks left
    by the layers before it or None. Each conv and connected layer's kernel
    output goes through the layer's activation here, once. With pruning
    enabled, that output is then channel marked and the next convolutional
    layer skips the marked channels; a connected layer's output is marked
    too. Marks survive pooling (channel count and the within-epsilon
    property are both preserved) and are discarded only at softmax. The
    recorder, when given, receives one load event per convolutional layer
    per image, pruned or not.
    """
    cfg = cfg if cfg is not None else PruneConfig()
    if image.shape != tuple(model.input_shape):
        raise ShapeError(f"input shape {image.shape} does not match model {model.input_shape}")
    if recorder is not None:
        recorder.begin_image()
    pruning = cfg.mode != MODE_OFF

    x = image
    marks = None
    for layer, block in zip(model.layers, model.weights):
        kind = layer.kind
        if kind in ("convolutional", "connected"):
            if block is None:
                raise ShapeError(f"layer {layer.index} has no weights loaded")
            if kind == "connected":
                x = connected_forward(x, block)
            else:
                x = pruned_conv_forward(x, marks, layer, block, recorder=recorder)
            x = Tensor(apply_activation(x.data, layer.activation, cfg))
            marks = mark_zero_channels(x, cfg.epsilon) if pruning else None
        elif kind == "maxpool":
            x = maxpool_forward(x, layer.size, layer.stride)
        elif kind == "avgpool":
            x = avgpool_forward(x)
        elif kind == "softmax":
            x = softmax_forward(x)
            marks = None
        else:
            raise ShapeError(f"unsupported layer kind {kind!r}")
        if layer_tap is not None:
            layer_tap(layer, x)
    return x
