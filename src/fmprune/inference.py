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

import math
import threading
from dataclasses import dataclass

import numpy as np

from .model import LayerSpec, NetworkModel
from .pruning import ChannelMarkTable, LoadRecorder, mark_zero_channels, require_epsilon
from .tensor import ShapeError, Tensor, WeightBlock

MODE_OFF = "off"
MODE_LITERAL = "literal"
MODE_MAGNITUDE = "magnitude"

_F32_ZERO = np.float32(0.0)
# byte budget of the patch rows conv_forward_fast builds at once
_BLOCK_BYTES = 1 << 20
# Most kernel taps K that conv_forward_fast sums in float32, in a layer
# whose groups each read one input channel. A float32 sum of K products is
# within K·2⁻²⁴·Σ|w·x| of the exact sum (to first order), and K·2⁻²⁴ ≤ 1e-6,
# a tenth of acceptance criterion 2's 1e-5, gives K ≤ 16: every 3×3
# depth-wise layer (K = 9) qualifies, a 5×5 one (K = 25) stays float64.
# With more than one channel per group, the channel gather changes K and so
# the float32 rounding, which would break the bit-exact skip; those layers
# stay float64 whatever K is.
_F32_MAX_TAPS = int(1e-6 * 2 ** 24)


class _Scratch(threading.local):
    """One thread's reusable memory for the temporaries of conv_forward_fast.

    A call starts with begin() and takes each temporary from one arena with
    array(). A call that needs more than the arena holds gets fresh arrays
    for the rest, and the next begin() replaces the arena by one that holds
    the largest total a call has needed, dropping the old arena first so
    the two never coexist. A steady-state call thus allocates no
    temporaries. An array stays valid only until the next begin() in the
    same thread, so nothing that leaves conv_forward_fast may live in it.
    """

    def __init__(self):
        self.arena = np.empty(0, np.uint8)
        self.used = 0
        self.needed = 0

    def begin(self) -> None:
        if self.needed > self.arena.size:
            self.arena = np.empty(0, np.uint8)  # free the old arena first
            self.arena = np.empty(self.needed, np.uint8)
        self.used = 0

    def array(self, shape: tuple, dtype) -> np.ndarray:
        """An uninitialised C-contiguous array: 64-byte aligned in the arena,
        or a fresh array once this call has outgrown the arena."""
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        start = -(-self.used // 64) * 64
        self.used = start + nbytes
        self.needed = max(self.needed, self.used)
        if self.used > self.arena.size:
            return np.empty(shape, dtype)
        return self.arena[start:self.used].view(dtype).reshape(shape)


_SCRATCH = _Scratch()


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
    """Biased linear map of a conv layer: im2col + matmul, a block of groups at a time.

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

    The gathered input is padded in float32. The run groups are then taken
    in blocks of as many whole groups as fit their patch rows into
    _BLOCK_BYTES (at least one group, so a dense layer is a single block):
    one copy from a strided window view of the input writes the block's
    patch rows into one reused buffer, and one stacked matmul with the
    block's kernels accumulates the patch products while the patch matrix
    is still in cache. The products are accumulated in float64 (the patch
    rows and kernels widened), except in a layer whose groups each read one
    input channel through at most _F32_MAX_TAPS taps, such as a 3×3
    depth-wise layer, which accumulates in float32 straight into the
    output. Each group's product is independent of the others in its
    stack, so the block size never changes a bit of the result, which is
    stored float32. Batch norm must already be folded into the block's
    weights and biases (fold_batch_norm).

    Every temporary (gathered and padded input, gathered and widened
    kernels, patch rows and float64 products) lives in this thread's
    scratch arena (_Scratch), so a steady-state call allocates only its
    output, which is always a fresh array.
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

    scratch = _SCRATCH
    scratch.begin()
    x = fmap.data
    fpg = o // groups
    wmat = block.weights.reshape(groups, fpg, cpg, k * k)
    g, cg = groups, cpg
    if marked is not None and marked.any():
        grid = marked.reshape(groups, cpg)
        run = np.flatnonzero(~grid.all(axis=1))
        grid = grid[run]
        keep = np.flatnonzero(~grid.all(axis=0))
        g, cg = run.size, keep.size
        # mode="clip" (the indices are in range) lets take write into out unbuffered
        x = np.take(x, (run[:, None] * cpg + keep).reshape(-1), axis=0, mode="clip",
                    out=scratch.array((g * cg, h, w), np.float32))
        inside = grid[:, keep].reshape(-1)
        if inside.any():
            x[inside] = 0.0
        if g < groups:
            wmat = np.take(wmat, run, axis=0, mode="clip",
                           out=scratch.array((g, fpg, cpg, k * k), np.float32))
        if cg < cpg:
            wmat = np.take(wmat, keep, axis=2, mode="clip",
                           out=scratch.array((g, fpg, cg, k * k), np.float32))

    if p:
        buf = scratch.array((g * cg, h + 2 * p, w + 2 * p), np.float32)
        # the buffer holds stale values: zero the border, then copy the inside
        buf[:, :p] = buf[:, -p:] = 0.0
        buf[:, :, :p] = buf[:, :, -p:] = 0.0
        buf[:, p:p + h, p:p + w] = x
    else:
        buf = x
    rows = cg * k * k
    dtype = np.float32 if cpg == 1 and k * k <= _F32_MAX_TAPS else np.float64
    if dtype is np.float32:
        wmat = wmat.reshape(g, fpg, rows)
    else:
        wide = scratch.array((g, fpg, rows), np.float64)
        wide[...] = wmat.reshape(g, fpg, rows)
        wmat = wide
    # a group that is not run outputs zeros before the bias
    out = (np.empty if g == groups else np.zeros)((groups, fpg, oh * ow), np.float32)
    # taps[c, ky, kx, y, x] = buf[c, ky + s*y, kx + s*x]: a view of the patch
    # rows in the weight layout's (channel, ky, kx) order; buf is contiguous
    sc, sy, sx = buf.strides
    taps = np.ndarray((g * cg, k, k, oh, ow), np.float32, buffer=buf,
                      strides=(sc, sy, sx, s * sy, s * sx))
    # groups per block; rows is 0 only when every group is marked (g = 0)
    step = max(1, _BLOCK_BYTES // (np.dtype(dtype).itemsize * max(rows, 1) * oh * ow))
    patches = scratch.array((min(step, g) * cg, k, k, oh, ow), dtype)
    # float32 products of a layer that runs every group go straight into out
    direct = dtype is np.float32 and g == groups
    if not direct:
        prod = scratch.array((min(step, g), fpg, oh * ow), dtype)
    for g0 in range(0, g, step):
        g1 = min(g0 + step, g)
        cols = patches[:(g1 - g0) * cg]
        cols[...] = taps[g0 * cg:g1 * cg]
        cols = cols.reshape(g1 - g0, rows, oh * ow)
        if direct:
            np.matmul(wmat[g0:g1], cols, out=out[g0:g1])
            continue
        np.matmul(wmat[g0:g1], cols, out=prod[:g1 - g0])
        if g == groups:
            out[g0:g1] = prod[:g1 - g0]
        else:
            out[run[g0:g1]] = prod[:g1 - g0]
    out = out.reshape(o, oh, ow)
    out += block.biases[:, None, None]
    return Tensor(out)


def pruned_conv_forward(fmap: Tensor, marks: ChannelMarkTable | None, layer: LayerSpec,
                        block: WeightBlock, recorder: LoadRecorder | None = None) -> Tensor:
    """Convolution (biased linear map) that skips the marked input channels.

    forward runs every conv layer through here; marks=None marks nothing.
    The output is identical to running the plain convolution over the input
    with marked channels replaced by exact zeros; the conv kernel receives
    the marks and gathers the unmarked channels. Marked channels are not
    loaded: the recorder's row for the layer counts their plane elements as
    skipped, and as kernel_coeffs_skipped the kernel coefficients that read
    a marked channel. Depth-wise and groups=1 layers multiply none of those;
    with 1 < groups < channels a marked channel can stay inside the
    gathered grid, and its coefficients are then multiplied by zeros. Marks
    may have been computed before a pooling layer, so only the channel
    count is checked against the input.
    """
    if marks is None:
        marked, skipped = None, 0
    elif marks.channels != fmap.c:
        raise ShapeError(f"mark table covers {marks.channels} channels, input has {fmap.c}")
    else:
        marked, skipped = marks.aggregate, int(marks.marked_channels().size)
    if recorder is not None:
        coeffs_per_channel = (block.out_channels // layer.groups) * block.kernel_size ** 2
        recorder.record(layer.index, fmap.c, skipped, fmap.h * fmap.w,
                        skipped * coeffs_per_channel)
    return conv_forward_fast(fmap, layer, block, marked=marked)


def maxpool_forward(fmap: Tensor, size: int, stride: int) -> Tensor:
    """Max pooling with ceil-mode output size and edge-clamped windows.

    Window (oy, ox) covers rows [min(oy*stride, h-1), min(oy*stride+size, h))
    and the matching columns. When the windows reach past the input, the
    input is padded by edge replication: a tap past the last row or column
    reads that line again, which is already in its window or is the line the
    window is clamped to, so one strided maximum over the taps serves every
    window.
    """
    _, h, w = fmap.shape
    oh = max(-((h - size) // -stride) + 1, 1)
    ow = max(-((w - size) // -stride) + 1, 1)
    ys, xs = stride * (oh - 1) + 1, stride * (ow - 1) + 1
    py, px = ys + size - 1 - h, xs + size - 1 - w
    data = fmap.data
    if py or px:
        data = np.pad(data, ((0, 0), (0, py), (0, px)), mode="edge")
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
