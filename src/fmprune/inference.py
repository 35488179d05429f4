"""Forward-pass execution with epsilon-threshold activation pruning.

forward runs the layers in order. Every conv layer goes through
pruned_conv_forward, which records the layer's loads and hands
conv_forward_fast, the one convolution kernel for every groups value, the
channel marks left by the layers before it. The conv and connected kernels
return the biased linear map; forward applies each layer's activation,
which is where the epsilon pruning transform lives when a PruneConfig
enables it, and then marks the channels within epsilon. Both kernels run
their products through _in_parts, in one part or cut between the calling
thread and one worker thread.
"""

from __future__ import annotations

import functools
import math
import os
import queue
import threading
from dataclasses import dataclass

import numpy as np

from .model import LayerSpec, NetworkModel, conv_output_size, pool_output_size
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
# A one-group layer's channel gather changes K and so the float32 rounding,
# which would break the bit-exact skip; every layer with more than one
# channel per group stays float64 whatever K is.
_F32_MAX_TAPS = int(1e-6 * 2 ** 24)
# Parts that conv_forward_fast and connected_forward cut their products
# into: 2 when the process may run on two CPUs, the caller running one part
# and the worker thread the other, else 1. Read once, at import.
_PARTS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
# Rows (filters, connected outputs) of a part come in multiples of this.
# BLAS kernels take rows in groups of up to 8, and a row's sum can round
# differently in a group of another size, so a cut at a multiple of 8 keeps
# every row's arithmetic as in one whole product, as long as BLAS uses the
# same kernel for a part as for the whole. OpenBLAS may pick another kernel
# for a part's smaller product; a float64 conv sum can then differ in the
# last bit, which reaches the float32 output only for a sum that close to a
# rounding boundary.
_ROW_ALIGN = 8
# Least multiply-adds each part must hold for _in_parts to cut, by product: the
# float32 and float64 conv products, and the connected layers' float32
# matrix-vector products. A cut hands a part to the worker (about 24 µs),
# and the two threads then share the memory bus and take turns at the GIL
# for small numpy calls, so a small part runs slower cut than whole. Each
# layer of the benchmark's MobileNet (224²) and AlexNet (227²) and of their
# 32² and 67² test nets was timed in two parts against one (2 vCPUs, numpy
# 2.4.6, OpenBLAS 0.3.31, one BLAS thread), by the multiply-adds of a part:
# - float64 (one-group) layers: 5.4M and up won (0.60–0.88×); the test
#   nets' 2.5K–235K lost (1.9–2.4×);
# - connected: 8.4M and up won (0.58–0.60×); 2.03M (AlexNet's 1000×4096)
#   lost (1.18×), 508K (MobileNet's 1000×1024) lost (1.56×);
# - float32 (depth-wise) layers, after _GROUP_CALL_MACS: 677K–1.47M won
#   (0.81–0.86×), 325K–691K held even (0.98–0.99×), and the test nets'
#   234–4.6K lost (2.0–3.2×).
_MIN_PART_MACS = {"float32": 1 << 17, "float64": 1 << 22, "connected": 1 << 21}
# A part cut by groups makes one BLAS call per group, and those calls do
# not run side by side: 256 stacked 1×9 by 9×196 products took 186 µs in
# one thread and 184 µs as two halves in two. So a group counts only its
# multiply-adds beyond this many towards _MIN_PART_MACS. MobileNet's
# depth-wise layers at 14² and 7² (1764 and 441 per group) lost 1.12–1.25×
# when cut, whatever their total; those at 28² and up (7056 and more per
# group) held even or won.
_GROUP_CALL_MACS = 1 << 11
# (thread, job queue) of the worker thread, started on the first cut
_worker = None
_worker_lock = threading.Lock()


def _in_parts(part, n: int, align: int, unit_macs: int, least_macs: int) -> None:
    """Run part(start, stop) over n units (filters, groups, rows) of
    unit_macs multiply-adds each, in one part or cut in two.

    mid is the multiple of align at or below n/2. The cut is made when
    _PARTS > 1, unit_macs > 0 and each part holds at least least_macs
    multiply-adds (mid·unit_macs, in the smaller part), mid being at least
    one: then part(0, mid) runs here and part(mid, n) on the worker thread,
    started on the first cut. Otherwise part(0, n) runs here. The cut
    depends on the arguments and _PARTS only, never on timing, so every run
    gives the same output. This returns, or raises (this thread's error
    first), only after both parts have stopped.
    """
    mid = align * (n // (2 * align))
    if _PARTS < 2 or unit_macs <= 0 or mid < 1 or mid * unit_macs < least_macs:
        part(0, n)
        return
    done = queue.SimpleQueue()
    _worker_jobs().put((part, mid, n, done))
    try:
        part(0, mid)
    finally:
        error = done.get()
    if error is not None:
        raise error


def _worker_jobs() -> queue.SimpleQueue:
    """The worker thread's job queue; starts the thread when there is none
    (on first use, and in a forked child, which has no copy of it)."""
    global _worker
    with _worker_lock:
        if _worker is None or not _worker[0].is_alive():
            jobs = queue.SimpleQueue()
            thread = threading.Thread(target=_serve, args=(jobs,), name="fmprune-part",
                                      daemon=True)
            thread.start()
            _worker = (thread, jobs)
        return _worker[1]


def _serve(jobs: queue.SimpleQueue) -> None:
    while True:
        part, start, stop, done = jobs.get()
        try:
            _SCRATCH.begin()
            part(start, stop)
        except BaseException as error:  # handed to the caller, which raises it
            done.put(error)
        else:
            done.put(None)


class _Scratch(threading.local):
    """One thread's reusable memory for the temporaries of conv_forward_fast.

    A call starts with begin() and takes each temporary from one arena with
    array(). A call that needs more than the arena holds gets fresh arrays
    for the rest, and the next begin() replaces the arena by one that holds
    the largest total a call has needed, dropping the old arena first so
    the two never coexist. A steady-state call thus allocates no
    temporaries. An array stays valid only until the next begin() in the
    same thread, so nothing that leaves conv_forward_fast may live in it.

    The worker thread that runs the second part of a call (_in_parts) has
    its own arena and calls begin() at the start of each part. It reads
    the caller's arena and writes there only its own run groups' rows of
    the call's placement buffer. The caller reads those rows, and returns,
    only after the part has stopped, so neither thread reads memory the
    other is writing, or touches the other's arena after its call.
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


def require_leak(leak: float) -> float:
    """Return leak, or raise ValueError unless leak and its float32, which
    the activations compute with, are in (0, 1) (1e-46's float32 is 0)."""
    if not (0 < leak < 1 and 0 < np.float32(leak) < 1):
        raise ValueError(f"leak must be in (0, 1) in float32, got {leak}")
    return leak


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
        require_leak(self.leak)
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
            # transform only zeroes [0, eps], which at eps=0 holds only +0:
            # then y is already the result. Multiplying by the mask keeps
            # NaN, which np.where(v > eps, v, 0) would turn into 0.
            return np.multiply(y, y > eps, out=y) if eps else y
    elif activation == "leaky":
        if literal:
            return np.where(values > eps, values,
                            np.where(values >= -(leak * eps), _F32_ZERO, leak * values))
        y = np.where(values > _F32_ZERO, values, leak * values)
    else:
        raise ValueError(f"unsupported activation {activation!r}")
    if cfg.mode == MODE_OFF:
        return y
    # zero where |y| <= eps, so a NaN stays NaN as it does in the other modes
    return np.where(np.abs(y) <= eps, _F32_ZERO, y)


def conv_forward_fast(fmap: Tensor, layer: LayerSpec, block: WeightBlock,
                      marked: np.ndarray | None = None) -> Tensor:
    """Biased linear map of a conv layer: im2col + matmul, a block of groups at a time.

    forward reaches it through pruned_conv_forward. marked, when given, is
    a boolean mask over the input channels; the result is that of the same
    convolution over the input with the marked channels replaced by exact
    zeros, but marked channels are skipped, by one of two mark plans. A
    one-group layer gathers its unmarked channels and the kernel slices
    that read them, and never computes on a marked channel. Any other layer
    runs whole each group that holds an unmarked channel, with the marked
    channels inside it zeroed in the gathered copy (a depth-wise layer,
    one channel per group, has none); a group that is not run outputs its
    bias. The input itself is left unchanged. Batch norm must already be
    folded into the block's weights and biases (fold_batch_norm).

    Two closures over the call's locals, taps and products, do the work.
    taps reads a run of input channels' patch rows through a strided window
    view. A padded layer, or one with channels to gather or zero, first
    copies its channels into a float32 buffer whose padding is never
    written (_pad_taps). An unpadded layer with nothing to gather reads its
    taps from the input in place. Making that copy anyway slowed an
    unpruned MobileNet forward (224²; 2 vCPUs, numpy 2.4.6, OpenBLAS 0.3.31,
    one BLAS thread; medians over alternating rounds in one process) by
    0.2–2.2 ms of 34.8–43.9 in each of six processes on two CPUs, the
    in-place read faster in 7–12 of 16 rounds. On one CPU it slowed five of
    six processes by 0.4–2.6 ms of 38.4–52.6 (the in-place read faster in
    10 of 12, 10 and 11 of 16, and 17 and 18 of 24 rounds), and the sixth
    ran 2.6 ms faster with the copy (2 of 12).

    A grouped layer takes its run groups in blocks of as many whole groups
    as fit their patch rows into _BLOCK_BYTES, at least one: one copy from
    the window view writes a block's patch rows into one reused buffer, and
    one stacked matmul with the block's kernels sums the products while the
    patch rows are still in cache. A 1 MiB budget beat 256 KiB, 2 MiB and
    8 MiB, and blocks of output rows instead of groups made AlexNet's dense
    layers 60% slower. A one-group layer builds its whole patch matrix from
    the same view, in chunks of channels of the same budget. The products
    are summed in float64, patch rows and kernels widened, except in the
    layers _F32_MAX_TAPS lets sum in float32, and stored float32. Each
    group's product is independent of the others in its stack, so the
    block size never changes a bit of the result.

    When every group runs, each block's sums go straight into the output.
    Otherwise they go to their run groups' rows of one placement buffer,
    which this thread takes from its arena before the parts start, with a
    zero row ahead of them. Once both parts have stopped, one take puts
    every output group in place, and each group that is not run (every
    group, when every channel is marked) takes the zero row. A take of the
    run groups' rows beat a fancy-index store of pre-biased rows (marked
    against unmarked depth-wise layers, in one process: 1.001 against
    1.033) and a take per block (1.075 against 1.15). The bias is added
    last.

    products runs in one part or two (_in_parts). A grouped layer cuts its
    run groups (_GROUP_CALL_MACS): each half gathers its own input channels
    and kernels and takes its groups in blocks of its own. A one-group
    layer builds its patch matrix once, in this thread, and each half
    gathers, widens and multiplies a run of the filters (_ROW_ALIGN). Every
    temporary, the placement buffer included, is taken from a scratch
    arena (_Scratch); the output is always a fresh array.
    """
    if block.has_batch_norm:
        raise ValueError(f"layer {layer.index}: batch norm is not folded; "
                         "run fold_batch_norm on the model first")
    c, h, w = fmap.shape
    o, cpg, k = block.out_channels, block.in_channels_per_group, block.kernel_size
    s, p, groups = layer.stride, layer.padding, layer.groups
    if c != cpg * groups:
        raise ShapeError(f"conv expects {cpg * groups} input channels, got {c}")
    oh, ow = conv_output_size(h, k, s, p), conv_output_size(w, k, s, p)
    if oh < 1 or ow < 1:
        raise ShapeError(f"kernel {k} larger than padded {h}×{w} input")

    _SCRATCH.begin()
    x = fmap.data
    fpg = o // groups
    weights = block.weights.reshape(groups, fpg, cpg, k * k)
    run = keep = gather = inside = None
    g, cg = groups, cpg
    if marked is not None:
        # run each group that holds an unmarked channel
        runs = ~marked.reshape(groups, cpg).all(axis=1)
        run = gather = np.flatnonzero(runs)
        g = run.size
        if groups == 1:  # gather the unmarked channels
            keep = gather = np.flatnonzero(~marked)
            cg = keep.size
        elif cpg > 1:  # run whole, zeroing their marked channels
            gather = np.flatnonzero(runs.repeat(cpg))
            inside = marked[gather]
            inside = inside if inside.any() else None
        if g == groups:
            run = None
        if cg == cpg:
            keep = None
        if run is None and keep is None and inside is None:
            gather = None
    dtype = _sum_dtype(cpg, k)
    rows, n = cg * k * k, oh * ow
    # input channels whose patch rows fit _BLOCK_BYTES (at least one): a
    # one-group layer's chunk; a block takes as many whole groups
    chans = max(1, _BLOCK_BYTES // (np.dtype(dtype).itemsize * k * k * n))
    step = max(1, chans // cpg)
    out = np.empty((groups, fpg, n), np.float32)
    if run is not None:
        # row 1 + i: the products of run group i; row 0 stays zero, the
        # products of the groups that are not run
        placed = _SCRATCH.array((g + 1, fpg, n), np.float32)
        placed[0] = 0.0

    pads = _pad_taps(h, w, k, s, p)
    spare = p * (w + 1)

    def taps(g0: int, g1: int) -> np.ndarray:
        """Run groups g0:g1's patch rows, (channels, ky, kx, y, x), as a view
        of their input; with padding, the taps in pads read neighbouring
        values, not zeros."""
        c0, c1 = g0 * cg, g1 * cg
        if gather is None and not p:
            flat = x[c0:c1].reshape(-1)
        else:
            flat = _SCRATCH.array(((c1 - c0) * h * w + 2 * spare,), np.float32)
            if spare:  # no stale bits reach a cast
                flat[:spare] = flat[flat.size - spare:] = 0.0
            xg = flat[spare:flat.size - spare].reshape(c1 - c0, h, w)
            if gather is None:
                xg[...] = x[c0:c1]
            else:
                # mode="clip" (the indices are in range) lets take write into xg unbuffered
                x.take(gather[c0:c1], axis=0, out=xg, mode="clip")
                if inside is not None:
                    xg[inside[c0:c1]] = 0.0
        # taps[c, ky, kx, y, x] = xg[c, s*y + ky - p, s*x + kx - p], read in
        # flat memory: the patch rows in the weight layout's (channel, ky, kx) order
        return np.ndarray((c1 - c0, k, k, oh, ow), np.float32, buffer=flat,
                          offset=4 * (spare - p * w - p),
                          strides=(4 * h * w, 4 * w, 4, 4 * s * w, 4 * s))

    def copy_rows(dst: np.ndarray, src: np.ndarray) -> np.ndarray:
        """Copy the patch rows src into dst and zero their taps in the padding."""
        dst[...] = src
        for pad in pads:
            dst[pad] = 0.0
        return dst

    def products(g0: int, g1: int, f0: int, f1: int, cols=None) -> None:
        """Store the products of run groups g0:g1, filters f0:f1 of each,
        into out, or, when marks leave groups out, into their rows of
        placed; cols, when given, is the one group's patch matrix."""
        if run is None:
            kern = weights[g0:g1, f0:f1]
        else:  # several whole run groups
            kern = weights.take(run[g0:g1], axis=0, mode="clip",
                                out=_SCRATCH.array((g1 - g0, fpg, cpg, k * k), np.float32))
        if keep is not None:
            kern = kern.take(keep, axis=2, mode="clip",
                             out=_SCRATCH.array((g1 - g0, f1 - f0, cg, k * k), np.float32))
        kern = kern.reshape(g1 - g0, f1 - f0, rows)
        if dtype is np.float64:
            wide = _SCRATCH.array(kern.shape, np.float64)
            wide[...] = kern
            kern = wide
            prod = _SCRATCH.array((min(step, g1 - g0), f1 - f0, n), dtype)
        if cols is None:
            src = taps(g0, g1)
            patches = _SCRATCH.array((min(step, g1 - g0) * cg, k, k, oh, ow), dtype)
        for b0 in range(g0, g1, step):
            b1 = min(b0 + step, g1)
            if cols is None:
                patch = copy_rows(patches[:(b1 - b0) * cg],
                                  src[(b0 - g0) * cg:(b1 - g0) * cg]).reshape(b1 - b0, rows, n)
            else:
                patch = cols
            dst = out[b0:b1, f0:f1] if run is None else placed[1 + b0:1 + b1]
            if dtype is np.float32:
                np.matmul(kern[b0 - g0:b1 - g0], patch, out=dst)
            else:
                np.matmul(kern[b0 - g0:b1 - g0], patch, out=prod[:b1 - b0])
                dst[...] = prod[:b1 - b0]

    if groups == 1 and g:
        # build the patch matrix once, a chunk of channels at a time, then
        # cut the filters
        cols = _SCRATCH.array((cg, k, k, oh, ow), dtype)
        src = taps(0, 1)
        for c0 in range(0, cg, chans):
            copy_rows(cols[c0:c0 + chans], src[c0:c0 + chans])
        cols = cols.reshape(1, rows, n)
        _in_parts(lambda f0, f1: products(0, 1, f0, f1, cols), fpg, _ROW_ALIGN,
                  rows * n, _MIN_PART_MACS[dtype.__name__])
    elif g:
        _in_parts(lambda g0, g1: products(g0, g1, 0, fpg), g, 1,
                  fpg * rows * n - _GROUP_CALL_MACS, _MIN_PART_MACS[dtype.__name__])
    if run is not None:
        # output group i takes row cumsum(runs)[i] of placed, its run group's
        # products, or row 0 when it is not run; every index is in range, and
        # mode="clip" lets take write into out unbuffered
        placed.take(np.cumsum(runs) * runs, axis=0, out=out, mode="clip")
    out = out.reshape(o, oh, ow)
    out += block.biases[:, None, None]
    return Tensor(out)


@functools.lru_cache(maxsize=256)
def _pad_taps(h: int, w: int, k: int, s: int, p: int) -> tuple:
    """Index tuples into patch rows (channels, ky, kx, y, x) of an h×w
    input that cover every tap falling in the padding.

    conv_forward_fast never writes a layer's padding out. A padded layer's
    part copies (or gathers) its input channels into a buffer with
    p·(w + 1) spare elements at either end and reads its taps from there
    with row pitch w, so a tap in the padding reads a neighbouring element
    (of the row or plane next to it, or a spare one). The copy that writes
    each block's or chunk's patch rows zeroes those taps (copy_rows), while
    the rows are in cache. Against padding each part's buffer in memory,
    this made the marked depth-wise layers of MobileNet (224², literal 0.1
    marks, 8 images, 15 alternating rounds in one process; 2 vCPUs, numpy
    2.4.6, OpenBLAS 0.3.31) 14.4 → 10.5 ms per forward (sums of per-layer
    medians; one CPU: 19.4 → 14.5 ms), and a whole literal-0.1 forward
    60.5 → 56.2 ms (median of 64; quartiles [55.8, 64.5] → [50.4, 58.6]).
    A one-group layer zeroes each chunk of channels of its float64 patch
    matrix right after its copy (zeroing the whole matrix after building it
    cost AlexNet 1.5 ms per forward); against padding its input in memory,
    that made AlexNet's padded conv layers 0.980–0.994× as long (sums of
    per-layer medians, 8 images × 12 alternating rounds, six processes;
    0.982–0.997× on one CPU).
    """
    pads = []
    every = slice(None)
    oh, ow = conv_output_size(h, k, s, p), conv_output_size(w, k, s, p)
    for t in range(k):
        for size, span, at in ((h, oh, lambda r: (every, t, every, r)),
                               (w, ow, lambda r: (every, every, t, every, r))):
            # the outputs whose tap t reads inside the plane: first to last
            first = min(span, max(0, -((t - p) // s)))
            last = min(span, max(first, (size - 1 + p - t) // s + 1))
            pads += [at(r) for r in (slice(0, first), slice(last, span)) if r.start < r.stop]
    return tuple(pads)


def _sum_dtype(cpg: int, k: int):
    """The dtype conv_forward_fast builds patch rows and sums products in."""
    return np.float32 if cpg == 1 and k * k <= _F32_MAX_TAPS else np.float64


def pruned_conv_forward(fmap: Tensor, marks: ChannelMarkTable | None, layer: LayerSpec,
                        block: WeightBlock, recorder: LoadRecorder | None = None) -> Tensor:
    """Convolution (biased linear map) that skips the marked input channels.

    forward runs every conv layer through here; marks=None marks nothing.
    The output is identical to running the plain convolution over the input
    with marked channels replaced by exact zeros; conv_forward_fast receives
    the marks and skips the marked channels by its mark plans. Marked
    channels are not loaded: the recorder's row for the layer counts their
    plane elements as skipped, and as kernel_coeffs_skipped every kernel
    coefficient that reads a marked channel, those that a run group
    multiplies by zeros included. Marks may have been computed before a
    pooling layer, so only the channel count is checked against the input.
    """
    if marks is None:
        marked, skipped = None, 0
    elif marks.channels != fmap.c:
        raise ShapeError(f"mark table covers {marks.channels} channels, input has {fmap.c}")
    else:
        marked, skipped = marks.aggregate, int(np.count_nonzero(marks.aggregate))
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
    oh, ow = pool_output_size(h, size, stride), pool_output_size(w, size, stride)
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
    """The biased linear map of a connected layer, as an O×1×1 tensor: a
    float32 matrix-vector product, its output rows run in one part or two
    (_in_parts)."""
    flat = fmap.data.reshape(-1)
    wmat = block.weights.reshape(block.out_channels, -1)
    if wmat.shape[1] != flat.size:
        raise ShapeError(f"connected layer expects {wmat.shape[1]} inputs, got {flat.size}")
    out = np.empty(block.out_channels, np.float32)
    _in_parts(lambda r0, r1: np.matmul(wmat[r0:r1], flat, out=out[r0:r1]),
              block.out_channels, _ROW_ALIGN, flat.size, _MIN_PART_MACS["connected"])
    out += block.biases
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
            x = (connected_forward(x, block) if kind == "connected" else
                 pruned_conv_forward(x, marks, layer, block, recorder=recorder))
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
