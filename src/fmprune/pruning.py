"""Channel zero-marking under a processor capability and feature-map load
accounting."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor

FLOAT_BITS = 32


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
    """Per-channel, per-part zero marks for one feature map.

    part_flags[i][j] is 1 when every element of part j of channel i has
    magnitude at most epsilon; aggregate[i] is the whole-channel mark (the
    extra "part+1" column), set exactly when all part flags are set. Parts
    are consecutive runs of h*w elements of the flattened plane; the last
    part may be short. The tiling affects bookkeeping only, never the
    aggregate decision.
    """

    part_flags: np.ndarray
    aggregate: np.ndarray
    epsilon: float
    capability: ProcessorCapability
    source_shape: tuple[int, int, int]

    @property
    def channels(self) -> int:
        return self.part_flags.shape[0]

    @property
    def channel_part(self) -> int:
        return self.part_flags.shape[1]

    def marked_channels(self) -> np.ndarray:
        return np.flatnonzero(self.aggregate)


def mark_zero_channels(fmap: Tensor, epsilon: float,
                       cap: ProcessorCapability = ProcessorCapability(16, 16)) -> ChannelMarkTable:
    """Mark channels whose every element has magnitude at most epsilon.

    The plane is scanned in parts of cap.h*cap.w elements (channel_part =
    ceil(H*W / (h*w)) parts per channel); a part flag is set when the whole
    part is within epsilon, and the channel's aggregate mark is set when all
    of its part flags are. Comparison is inclusive and in float32, so
    epsilon=0 marks exactly-zero channels.
    """
    if not math.isfinite(epsilon) or epsilon < 0:
        raise ValueError(f"epsilon must be finite and non-negative, got {epsilon}")
    c, h, w = fmap.shape
    plane = h * w
    part_size = cap.h * cap.w
    n_parts = -(plane // -part_size)
    within = np.abs(fmap.data.reshape(c, plane)) <= np.float32(epsilon)
    if n_parts * part_size != plane:
        pad = n_parts * part_size - plane
        within = np.concatenate([within, np.ones((c, pad), dtype=bool)], axis=1)
    part_flags = within.reshape(c, n_parts, part_size).all(axis=2)
    return ChannelMarkTable(
        part_flags=part_flags.astype(np.uint8),
        aggregate=part_flags.all(axis=1),
        epsilon=float(epsilon),
        capability=cap,
        source_shape=fmap.shape,
    )


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

    @property
    def bits_total(self) -> int:
        return self.elements_total * FLOAT_BITS


CSV_COLUMNS = ("layer_index", "layer_kind", "channels_total", "channels_skipped",
               "elements_loaded", "bits_loaded", "kernel_coeffs_skipped")


class LoadRecorder:
    """Accumulates per-layer feature-map load events across forward passes.

    One row is recorded per (image, convolutional layer); rows from
    separate recorders merge by concatenation, and totals by summation.
    """

    def __init__(self):
        self.rows: list[LoadRow] = []
        self._image = -1

    def begin_image(self):
        self._image += 1

    @property
    def images(self) -> int:
        return self._image + 1

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

    def merge(self, other: "LoadRecorder"):
        offset = self.images
        for row in other.rows:
            self.rows.append(LoadRow(
                image=row.image + offset,
                layer_index=row.layer_index,
                layer_kind=row.layer_kind,
                channels_total=row.channels_total,
                channels_skipped=row.channels_skipped,
                elements_total=row.elements_total,
                elements_loaded=row.elements_loaded,
                kernel_coeffs_skipped=row.kernel_coeffs_skipped,
            ))
        self._image += other.images

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(CSV_COLUMNS)
            for row in sorted(self.rows, key=lambda r: (r.image, r.layer_index)):
                writer.writerow([row.layer_index, row.layer_kind, row.channels_total,
                                 row.channels_skipped, row.elements_loaded, row.bits_loaded,
                                 row.kernel_coeffs_skipped])


@dataclass
class LayerSavings:
    layer_index: int
    layer_kind: str
    channels_total: int
    channels_skipped: int
    saved_fraction: float
    elements_total: int
    elements_loaded: int
    megabits_loaded: float
    megabits_total: float


@dataclass
class SavingsReport:
    """Aggregated load savings across every recorded image."""

    per_layer: list[LayerSavings]
    images: int
    channels_total: int
    channels_skipped: int
    saved_fraction: float
    megabits_loaded: float
    megabits_total: float

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["layer_index", "layer_kind", "channels_total", "channels_skipped",
                             "saved_fraction", "megabits_loaded", "megabits_total"])
            for row in self.per_layer:
                writer.writerow([row.layer_index, row.layer_kind, row.channels_total,
                                 row.channels_skipped, f"{row.saved_fraction:.6f}",
                                 f"{row.megabits_loaded:.6f}", f"{row.megabits_total:.6f}"])
            writer.writerow(["total", "", self.channels_total, self.channels_skipped,
                             f"{self.saved_fraction:.6f}", f"{self.megabits_loaded:.6f}",
                             f"{self.megabits_total:.6f}"])


def savings_ratio(recorder: LoadRecorder) -> SavingsReport:
    """Per-layer and total saved-load fractions from a populated recorder.

    The total saved fraction is skipped channel-loads over the channel-loads
    an unpruned run would perform; the per-layer rows carry the mega-bit
    series needed for layer-by-layer bandwidth plots.
    """
    if not recorder.rows:
        raise ValueError("recorder is empty: the savings ratio is undefined")
    by_layer: dict[int, list[LoadRow]] = {}
    for row in recorder.rows:
        by_layer.setdefault(row.layer_index, []).append(row)
    per_layer = []
    for index in sorted(by_layer):
        rows = by_layer[index]
        total = sum(r.channels_total for r in rows)
        skipped = sum(r.channels_skipped for r in rows)
        elements_total = sum(r.elements_total for r in rows)
        elements_loaded = sum(r.elements_loaded for r in rows)
        per_layer.append(LayerSavings(
            layer_index=index,
            layer_kind=rows[0].layer_kind,
            channels_total=total,
            channels_skipped=skipped,
            saved_fraction=skipped / total,
            elements_total=elements_total,
            elements_loaded=elements_loaded,
            megabits_loaded=elements_loaded * FLOAT_BITS / 1e6,
            megabits_total=elements_total * FLOAT_BITS / 1e6,
        ))
    channels_total = sum(r.channels_total for r in per_layer)
    channels_skipped = sum(r.channels_skipped for r in per_layer)
    return SavingsReport(
        per_layer=per_layer,
        images=recorder.images,
        channels_total=channels_total,
        channels_skipped=channels_skipped,
        saved_fraction=channels_skipped / channels_total,
        megabits_loaded=sum(r.megabits_loaded for r in per_layer),
        megabits_total=sum(r.megabits_total for r in per_layer),
    )
