"""Forward-pass execution with epsilon-threshold activation pruning.

Two convolution paths are provided: a direct 6-loop reference used as the
correctness oracle, and an im2col matrix-product fast path used by the
engine, through which the skip-aware convolution also runs. Both apply the
layer's activation, which is where the epsilon pruning transform lives when
a PruneConfig enables it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import BN_EPSILON, LayerSpec, NetworkModel
from .pruning import ChannelMarkTable, LoadRecorder, ProcessorCapability, mark_zero_channels
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
        if not math.isfinite(self.epsilon) or self.epsilon < 0:
            raise ValueError(f"epsilon must be finite and non-negative, got {self.epsilon}")
        if not 0 < self.leak < 1:
            raise ValueError(f"leak must be in (0, 1), got {self.leak}")
        if self.mode not in (MODE_OFF, MODE_LITERAL, MODE_MAGNITUDE):
            raise ValueError(f"unknown prune mode {self.mode!r}")


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


def _epsilon_activate_array(values: np.ndarray, cfg: PruneConfig) -> np.ndarray:
    eps = np.float32(cfg.epsilon)
    leak = np.float32(cfg.leak)
    if cfg.mode == MODE_LITERAL:
        return np.where(values > eps, values,
                        np.where(values >= -(leak * eps), _F32_ZERO, leak * values))
    y = np.where(values > _F32_ZERO, values, leak * values)
    return np.where(np.abs(y) > eps, y, _F32_ZERO)


def apply_activation(values: np.ndarray, activation: str, cfg: PruneConfig | None = None) -> np.ndarray:
    """Apply a named layer activation, routed through epsilon pruning when on.

    relu feeds its non-negative output into the epsilon transform; leaky is
    the epsilon transform itself (which embeds the leak); linear is never
    transformed, so epsilon pruning on linear layers happens only through
    channel marking downstream. relu rectifies in place, so the caller must
    own values; the result is returned either way.
    """
    if activation == "linear":
        return values
    pruning = cfg is not None and cfg.mode != MODE_OFF
    if activation == "relu":
        rectified = np.maximum(values, _F32_ZERO, out=values)
        if not pruning:
            return rectified
        if cfg.mode == MODE_LITERAL:
            # Rectified values are +0 or above (or NaN), so the literal
            # transform only zeroes [0, eps]. Multiplying by the mask keeps
            # NaN, which np.where(v > eps, v, 0) would turn into 0.
            return np.multiply(rectified, rectified > np.float32(cfg.epsilon), out=rectified)
        return _epsilon_activate_array(rectified, cfg)
    if activation == "leaky":
        if pruning:
            return _epsilon_activate_array(values, cfg)
        leak = np.float32(cfg.leak if cfg is not None else 0.01)
        return np.where(values > _F32_ZERO, values, leak * values)
    raise ValueError(f"unsupported activation {activation!r}")


def _check_conv_input(fmap: Tensor, layer: LayerSpec, block: WeightBlock):
    if fmap.c != block.in_channels_per_group * layer.groups:
        raise ShapeError(
            f"conv expects {block.in_channels_per_group * layer.groups} input channels, got {fmap.c}"
        )
    k, s, p = block.kernel_size, layer.stride, layer.padding
    oh = (fmap.h + 2 * p - k) // s + 1
    ow = (fmap.w + 2 * p - k) // s + 1
    if oh < 1 or ow < 1:
        raise ShapeError(f"kernel {k} larger than padded {fmap.h}×{fmap.w} input")
    return oh, ow


def conv_forward_reference(fmap: Tensor, layer: LayerSpec, block: WeightBlock,
                           cfg: PruneConfig | None = None) -> Tensor:
    """Direct 6-loop convolution; the oracle the fast path is checked against.

    out(f,y,x) = bias(f) + sum over the filter's group channels and kernel
    taps of w*in, out-of-range input reading as zero.
    """
    oh, ow = _check_conv_input(fmap, layer, block)
    c, h, w = fmap.shape
    o, cpg, k = block.out_channels, block.in_channels_per_group, block.kernel_size
    s, p = layer.stride, layer.padding
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
    return Tensor(apply_activation(out, layer.activation, cfg))


def _finish_conv(out: np.ndarray, block: WeightBlock) -> None:
    """Apply batch norm (when present) and the bias to conv output in place."""
    if block.has_batch_norm:
        rstd = np.float32(1.0) / np.sqrt(block.bn_rolling_var + BN_EPSILON)
        out -= block.bn_rolling_mean[:, None, None]
        out *= block.bn_scales[:, None, None]
        out *= rstd[:, None, None]
    out += block.biases[:, None, None]


def conv_forward_fast(fmap: Tensor, layer: LayerSpec, block: WeightBlock,
                      cfg: PruneConfig | None = None,
                      zero_channels: np.ndarray | None = None) -> Tensor:
    """im2col + one matrix product over all groups; contract-equal to the reference.

    The input is padded once into a float64 buffer, in which the patch
    products accumulate; the result is stored float32. Input channels listed
    in zero_channels read as exact zeros there, as if the input had been
    zeroed; the input itself is left unchanged.
    """
    oh, ow = _check_conv_input(fmap, layer, block)
    c, h, w = fmap.shape
    o, cpg, k = block.out_channels, block.in_channels_per_group, block.kernel_size
    s, p = layer.stride, layer.padding
    groups = layer.groups

    if p:
        buf = np.zeros((c, h + 2 * p, w + 2 * p))
        buf[:, p:p + h, p:p + w] = fmap.data
    else:
        buf = fmap.data.astype(np.float64)
    if zero_channels is not None:
        buf[zero_channels] = 0.0
    if k == 1 and s == 1:
        cols = buf.reshape(groups, cpg, oh * ow)
    else:
        # one strided copy per kernel tap; rows ordered (channel, ky, kx)
        # to match the weight layout
        cols = np.empty((c, k, k, oh, ow))
        ys, xs = s * (oh - 1) + 1, s * (ow - 1) + 1
        for ky in range(k):
            for kx in range(k):
                cols[:, ky, kx] = buf[:, ky:ky + ys:s, kx:kx + xs:s]
        cols = cols.reshape(groups, cpg * k * k, oh * ow)
    wmat = block.weights.reshape(groups, o // groups, cpg * k * k).astype(np.float64)
    out = np.matmul(wmat, cols).reshape(o, oh, ow).astype(np.float32)
    _finish_conv(out, block)
    return Tensor(apply_activation(out, layer.activation, cfg))


def pruned_conv_forward(fmap: Tensor, marks: ChannelMarkTable, layer: LayerSpec,
                        block: WeightBlock, recorder: LoadRecorder | None = None,
                        cfg: PruneConfig | None = None) -> Tensor:
    """Convolution that skips the marked input channels.

    The output is identical to running the plain convolution over the input
    with marked channels replaced by exact zeros; the conv kernel zeroes them
    in its own buffer, so the input is not copied. Marked channels are not
    loaded: their plane elements and the kernel slices reading them are
    counted as skipped, not loaded. Marks may have been computed before a
    pooling layer, so only the channel count is checked against the input.
    """
    if marks.channels != fmap.c:
        raise ShapeError(
            f"mark table covers {marks.channels} channels, input has {fmap.c}"
        )
    skipped = marks.marked_channels()
    if recorder is not None:
        coeffs_per_channel = (block.out_channels // layer.groups) * block.kernel_size ** 2
        recorder.record(layer.index, layer.kind, fmap.c, int(skipped.size),
                        fmap.h * fmap.w, int(skipped.size) * coeffs_per_channel)
    return conv_forward_fast(fmap, layer, block, cfg=cfg, zero_channels=skipped)


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


def connected_forward(fmap: Tensor, block: WeightBlock, activation: str,
                      cfg: PruneConfig | None = None) -> Tensor:
    flat = fmap.data.reshape(-1)
    wmat = block.weights.reshape(block.out_channels, -1)
    if wmat.shape[1] != flat.size:
        raise ShapeError(f"connected layer expects {wmat.shape[1]} inputs, got {flat.size}")
    out = wmat @ flat + block.biases
    return Tensor(apply_activation(out, activation, cfg).reshape(block.out_channels, 1, 1))


def softmax_forward(fmap: Tensor) -> Tensor:
    flat = fmap.data.reshape(-1)
    shifted = np.exp(flat - flat.max())
    return Tensor((shifted / shifted.sum()).reshape(fmap.shape))


def forward(model: NetworkModel, image: Tensor, cfg: PruneConfig | None = None,
            recorder: LoadRecorder | None = None,
            capability: ProcessorCapability | None = None,
            layer_tap=None) -> Tensor:
    """Run all layers in order, producing the final class scores.

    With pruning enabled, every convolutional activation output is channel
    marked and the next convolutional layer skips the marked channels.
    Marks survive pooling (channel count and the within-epsilon property
    are both preserved) and are discarded at connected/softmax boundaries.
    The recorder, when given, receives one load event per convolutional
    layer per image, pruned or not.
    """
    cfg = cfg if cfg is not None else PruneConfig()
    cap = capability if capability is not None else ProcessorCapability(16, 16)
    if image.shape != tuple(model.input_shape):
        raise ShapeError(f"input shape {image.shape} does not match model {model.input_shape}")
    if recorder is not None:
        recorder.begin_image()
    pruning = cfg.mode != MODE_OFF

    x = image
    marks = None
    for layer, block in zip(model.layers, model.weights):
        kind = layer.kind
        if kind == "convolutional":
            if block is None:
                raise ShapeError(f"layer {layer.index} has no weights loaded")
            if pruning and marks is not None:
                x = pruned_conv_forward(x, marks, layer, block, recorder=recorder, cfg=cfg)
            else:
                if recorder is not None:
                    recorder.record(layer.index, kind, x.c, 0, x.h * x.w, 0)
                x = conv_forward_fast(x, layer, block, cfg=cfg)
            marks = mark_zero_channels(x, cfg.epsilon, cap) if pruning else None
        elif kind == "maxpool":
            x = maxpool_forward(x, layer.size, layer.stride)
        elif kind == "avgpool":
            x = avgpool_forward(x)
        elif kind == "connected":
            if block is None:
                raise ShapeError(f"layer {layer.index} has no weights loaded")
            x = connected_forward(x, block, layer.activation, cfg=cfg)
            marks = mark_zero_channels(x, cfg.epsilon, cap) if pruning else None
        elif kind == "softmax":
            x = softmax_forward(x)
            marks = None
        else:
            raise ShapeError(f"unsupported layer kind {kind!r}")
        if layer_tap is not None:
            layer_tap(layer, x)
    return x
