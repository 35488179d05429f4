"""Channel zero-marking under a processor capability and feature-map load
accounting."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .report import write_csv
from .tensor import Tensor

FLOAT_BITS = 32


def require_epsilon(epsilon: float) -> float:
    """Return epsilon, or raise ValueError unless it is finite and non-negative."""
    if not math.isfinite(epsilon) or epsilon < 0:
        raise ValueError(f"epsilon must be finite and non-negative, got {epsilon}")
    return epsilon


@dataclass(frozen=True)
class ProcessorCapability:
    """Largest plane tile (h, w) the compute unit processes at once."""

    h: int
    w: int

    def __post_init__(self):
        if self.h < 1 or self.w < 1:
            raise ValueError(f"capability must be at least 1×1, got {self.h}×{self.w}")


@dataclass
class ChannelMarkTable:
    """Per-channel zero marks for one feature map.

    within[i, k] is True when element k of the flattened plane of channel i
    has magnitude at most epsilon; aggregate[i], the whole-channel mark that
    drives skipping, is set exactly when the whole row is. part_flags splits
    each row into channel_part consecutive parts of capability.h*w elements
    (the last part may be short) and is computed only when read: part j of
    channel i is 1 when the whole part is within epsilon, so a channel's
    aggregate mark is set exactly when all of its part flags are. The tiling
    affects bookkeeping only, never the aggregate decision.
    """

    within: np.ndarray
    aggregate: np.ndarray
    capability: ProcessorCapability

    @property
    def channels(self) -> int:
        return self.within.shape[0]

    @property
    def channel_part(self) -> int:
        return -(self.within.shape[1] // -(self.capability.h * self.capability.w))

    @property
    def part_flags(self) -> np.ndarray:
        c, plane = self.within.shape
        parts, part_size = self.channel_part, self.capability.h * self.capability.w
        tiled = np.ones((c, parts * part_size), dtype=bool)
        tiled[:, :plane] = self.within
        return tiled.reshape(c, parts, part_size).all(axis=2).astype(np.uint8)

    def marked_channels(self) -> np.ndarray:
        return np.flatnonzero(self.aggregate)


def mark_zero_channels(fmap: Tensor, epsilon: float,
                       cap: ProcessorCapability = ProcessorCapability(16, 16)) -> ChannelMarkTable:
    """Mark channels whose every element has magnitude at most epsilon.

    One whole-plane test per channel; cap only sets the tiling that the
    table's part_flags report when read. Comparison is inclusive and in
    float32, so epsilon=0 marks exactly-zero channels (-0.0 included) and a
    channel holding a NaN or an infinity is never marked.
    """
    within = np.abs(fmap.data.reshape(fmap.c, -1)) <= np.float32(require_epsilon(epsilon))
    return ChannelMarkTable(within=within, aggregate=within.all(axis=1), capability=cap)


@dataclass
class LoadRow:
    """Load accounting for one convolutional layer on one image."""

    image: int
    layer_index: int
    layer_kind: str
    channels_total: int
    channels_skipped: int
    elements_total: int
    elements_loaded: int
    kernel_coeffs_skipped: int

    @property
    def elements_skipped(self) -> int:
        return self.elements_total - self.elements_loaded

    @property
    def bits_loaded(self) -> int:
        return self.elements_loaded * FLOAT_BITS


CSV_COLUMNS = ("image", "layer_index", "layer_kind", "channels_total", "channels_skipped",
               "elements_loaded", "bits_loaded", "kernel_coeffs_skipped")


class LoadRecorder:
    """Accumulates per-layer feature-map load events across forward passes.

    One row is recorded per (image, convolutional layer), numbered from 0
    in the order begin_image was called; totals sum over every row.
    """

    def __init__(self):
        self.rows: list[LoadRow] = []
        self._image = -1

    def begin_image(self):
        self._image += 1

    def record(self, layer_index: int, layer_kind: str, channels_total: int,
               channels_skipped: int, plane_elements: int, kernel_coeffs_skipped: int):
        if channels_skipped > channels_total:
            raise ValueError("skipped channels exceed total channels")
        self.rows.append(LoadRow(
            image=max(self._image, 0),
            layer_index=layer_index,
            layer_kind=layer_kind,
            channels_total=channels_total,
            channels_skipped=channels_skipped,
            elements_total=channels_total * plane_elements,
            elements_loaded=(channels_total - channels_skipped) * plane_elements,
            kernel_coeffs_skipped=kernel_coeffs_skipped,
        ))

    def to_csv(self, path) -> None:
        rows = sorted(self.rows, key=lambda r: (r.image, r.layer_index))
        write_csv(path, CSV_COLUMNS, [[getattr(r, c) for c in CSV_COLUMNS] for r in rows])


@dataclass
class LayerSavings:
    layer_index: int
    saved_fraction: float
    elements_loaded: int
    megabits_loaded: float
    megabits_total: float


@dataclass
class SavingsReport:
    """Load savings summed over every recorded image."""

    per_layer: list[LayerSavings]
    saved_fraction: float


def savings_ratio(recorder: LoadRecorder) -> SavingsReport:
    """Per-layer and total saved-load fractions from a populated recorder.

    One pass over the rows sums, per layer index, the channels, skipped
    channels, elements and loaded elements. The total saved fraction is
    skipped channel-loads over the channel-loads an unpruned run would
    perform; the per-layer rows carry the mega-bit series needed for
    layer-by-layer bandwidth plots.
    """
    if not recorder.rows:
        raise ValueError("recorder is empty: the savings ratio is undefined")
    sums: dict[int, list[int]] = {}
    for row in recorder.rows:
        layer = sums.setdefault(row.layer_index, [0, 0, 0, 0])
        layer[0] += row.channels_total
        layer[1] += row.channels_skipped
        layer[2] += row.elements_total
        layer[3] += row.elements_loaded
    per_layer = [LayerSavings(
        layer_index=index,
        saved_fraction=skipped / channels,
        elements_loaded=loaded,
        megabits_loaded=loaded * FLOAT_BITS / 1e6,
        megabits_total=elements * FLOAT_BITS / 1e6,
    ) for index, (channels, skipped, elements, loaded) in sorted(sums.items())]
    channels = sum(layer[0] for layer in sums.values())
    skipped = sum(layer[1] for layer in sums.values())
    return SavingsReport(per_layer=per_layer, saved_fraction=skipped / channels)
