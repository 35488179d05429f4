"""Static weight-sparsity analysis, static pruning, activation sparsity,
and the convolution computation-cost model."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .model import NetworkModel
from .tensor import Tensor

DEFAULT_THRESHOLDS = (0.0, 0.005, 0.01, 0.02, 0.04, 0.06, 0.08, 0.1, 0.2)


def _require_sorted(thresholds) -> list[float]:
    values = [float(t) for t in thresholds]
    if not values:
        raise ValueError("threshold list must not be empty")
    if values != sorted(values):
        raise ValueError("thresholds must be sorted ascending")
    if values[0] < 0:
        raise ValueError("thresholds must be non-negative")
    return values


def _gather_coefficients(model: NetworkModel, kinds) -> np.ndarray:
    chunks = []
    for layer, block in zip(model.layers, model.weights):
        if layer.kind in kinds:
            if block is None:
                raise ValueError(f"layer {layer.index} has no weights loaded")
            chunks.append(block.weights.ravel())
    if not chunks:
        raise ValueError("model has no coefficient-bearing layers in the requested scope")
    return np.concatenate(chunks)


@dataclass
class SparsityReport:
    """Fraction of coefficients with magnitude at most each threshold.

    Two scopes: all_parameters covers convolutional plus connected
    coefficients, conv_kernels_only just the convolutional ones. Biases and
    batch-norm statistics are excluded from both. drop_classes is an
    optional per-threshold accuracy-impact label (green / yellow / red).
    """

    thresholds: list[float]
    all_parameters: list[float]
    conv_kernels_only: list[float]
    drop_classes: list[str] | None = None

    def to_json(self, path=None) -> str:
        text = json.dumps(asdict(self), indent=2)
        if path is not None:
            with open(path, "w") as f:
                f.write(text + "\n")
        return text

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["scope"] + [f"{t:g}" for t in self.thresholds])
            writer.writerow(["all_parameters"] + [f"{v:.6f}" for v in self.all_parameters])
            writer.writerow(["conv_kernels_only"] + [f"{v:.6f}" for v in self.conv_kernels_only])
            if self.drop_classes is not None:
                writer.writerow(["drop_class"] + list(self.drop_classes))


def weight_sparsity(model: NetworkModel, thresholds=DEFAULT_THRESHOLDS) -> SparsityReport:
    """Coefficient-magnitude sparsity at each threshold, per scope.

    Comparison is inclusive (|v| <= eps) in float32 for consistency with
    the runtime channel marking.
    """
    values = _require_sorted(thresholds)
    all_params = np.abs(_gather_coefficients(model, ("convolutional", "connected")))
    conv_only = np.abs(_gather_coefficients(model, ("convolutional",)))
    report = SparsityReport(thresholds=values, all_parameters=[], conv_kernels_only=[])
    for t in values:
        t32 = np.float32(t)
        report.all_parameters.append(float(np.count_nonzero(all_params <= t32) / all_params.size))
        report.conv_kernels_only.append(float(np.count_nonzero(conv_only <= t32) / conv_only.size))
    return report


def classify_drop(top1_drop: float, top5_drop: float, limit: float = 0.01) -> str:
    """Accuracy-impact label: green when both drops stay under the limit,
    yellow when one crosses it, red when both do."""
    over = (top1_drop >= limit) + (top5_drop >= limit)
    return ("green", "yellow", "red")[over]


def static_prune(model: NetworkModel, epsilon: float) -> NetworkModel:
    """Zero every conv/connected coefficient with |v| <= epsilon.

    Biases and batch-norm statistics are untouched; a new model is returned
    and the input model is left unchanged.
    """
    if not math.isfinite(epsilon) or epsilon < 0:
        raise ValueError(f"epsilon must be finite and non-negative, got {epsilon}")
    eps = np.float32(epsilon)
    pruned = model.copy()
    for layer, block in zip(pruned.layers, pruned.weights):
        if layer.kind in ("convolutional", "connected") and block is not None:
            block.weights = np.where(np.abs(block.weights) <= eps,
                                     np.float32(0.0), block.weights)
    return pruned


def activation_sparsity(model: NetworkModel, images, thresholds=DEFAULT_THRESHOLDS,
                        cfg=None, capability=None) -> list[float]:
    """Fraction of post-activation conv feature-map elements within each
    threshold, aggregated over all convolutional layers and all images."""
    from .inference import forward

    values = _require_sorted(thresholds)
    if not images:
        raise ValueError("activation sparsity needs at least one image")
    counts = np.zeros(len(values), dtype=np.int64)
    total = 0

    def tap(layer, out: Tensor):
        nonlocal total
        if layer.kind != "convolutional":
            return
        mags = np.abs(out.data.ravel())
        for i, t in enumerate(values):
            counts[i] += int(np.count_nonzero(mags <= np.float32(t)))
        total += mags.size

    for image in images:
        forward(model, image, cfg=cfg, capability=capability, layer_tap=tap)
    if total == 0:
        raise ValueError("model has no convolutional layers")
    return [float(c / total) for c in counts]


@dataclass
class LayerCost:
    layer_index: int
    in_channels: int
    out_channels: int
    kernel_size: int
    groups: int
    out_area: int
    macs: int
    fmap_elements: int
    kernel_coeffs: int
    fmap_to_kernel_ratio: float


@dataclass
class CostModel:
    layers: list[LayerCost]
    total_macs: int

    def to_json(self, path=None) -> str:
        text = json.dumps(asdict(self), indent=2)
        if path is not None:
            with open(path, "w") as f:
                f.write(text + "\n")
        return text

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["layer_index", "in_channels", "out_channels", "kernel_size",
                             "groups", "out_area", "macs", "fmap_elements", "kernel_coeffs",
                             "fmap_to_kernel_ratio"])
            for l in self.layers:
                writer.writerow([l.layer_index, l.in_channels, l.out_channels, l.kernel_size,
                                 l.groups, l.out_area, l.macs, l.fmap_elements, l.kernel_coeffs,
                                 f"{l.fmap_to_kernel_ratio:.6f}"])
            writer.writerow(["total", "", "", "", "", "", self.total_macs, "", "", ""])


def compute_cost(model: NetworkModel) -> CostModel:
    """Multiply-accumulate counts per convolutional layer.

    General grouped convolution costs I*K^2*O*A/groups; depth-wise
    (groups == I == O) reduces to I*K^2*A. Each layer also reports the
    ratio of feature-map elements read to kernel coefficients read, the
    quantity depth-wise layers improve by a factor of O.
    """
    layers = []
    for layer in model.layers:
        if layer.kind != "convolutional":
            continue
        i_ch, h, w = layer.in_shape
        o_ch, oh, ow = layer.out_shape
        area = oh * ow
        macs = i_ch * layer.size ** 2 * o_ch * area // layer.groups
        fmap_elements = i_ch * h * w
        kernel_coeffs = o_ch * (i_ch // layer.groups) * layer.size ** 2
        layers.append(LayerCost(
            layer_index=layer.index,
            in_channels=i_ch,
            out_channels=o_ch,
            kernel_size=layer.size,
            groups=layer.groups,
            out_area=area,
            macs=macs,
            fmap_elements=fmap_elements,
            kernel_coeffs=kernel_coeffs,
            fmap_to_kernel_ratio=fmap_elements / kernel_coeffs,
        ))
    return CostModel(layers=layers, total_macs=sum(l.macs for l in layers))
