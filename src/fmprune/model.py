"""Darknet-style network description and binary weights parsing.

The config is INI-like text: a leading [net] section declaring the input
shape, followed by one section per layer. The weights file is the matching
binary stream: a version header, then per layer biases, optional batch-norm
statistics, and coefficients, all little-endian float32.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .tensor import WeightBlock

SUPPORTED_ACTIVATIONS = ("linear", "relu", "leaky")
LAYER_SECTIONS = ("convolutional", "maxpool", "avgpool", "connected", "softmax")
NET_SECTIONS = ("net", "network")

BN_EPSILON = np.float32(1e-6)


class ConfigError(ValueError):
    """The network description text is malformed or unsupported."""


class WeightsError(ValueError):
    """The binary weights stream does not match the network description."""


class ConfigWarning(UserWarning):
    """Non-fatal parse issue, e.g. an unknown key that was ignored."""


@dataclass
class LayerSpec:
    kind: str
    index: int = 0
    filters: int = 0
    size: int = 1
    stride: int = 1
    padding: int = 0
    groups: int = 1
    batch_normalize: bool = False
    activation: str = "linear"
    outputs: int = 0
    in_shape: tuple[int, int, int] = (0, 0, 0)
    out_shape: tuple[int, int, int] = (0, 0, 0)


@dataclass
class WeightsHeader:
    major: int = 0
    minor: int = 2
    revision: int = 0
    seen: int = 0

    @property
    def seen_is_64bit(self) -> bool:
        return self.major * 10 + self.minor >= 2


@dataclass
class NetworkModel:
    input_shape: tuple[int, int, int]
    layers: list[LayerSpec]
    weights: list[WeightBlock | None]
    header: WeightsHeader | None = None

    def copy(self) -> "NetworkModel":
        return NetworkModel(
            self.input_shape,
            list(self.layers),
            [b.copy() if b is not None else None for b in self.weights],
            None if self.header is None else replace(self.header),
        )


class _Options(dict):
    """Section key/value map that tracks which keys were consumed."""

    def __init__(self, raw: dict, section: str, lineno: int):
        super().__init__(raw)
        self.section = section
        self.lineno = lineno
        self._used: set[str] = set()

    def take_int(self, key: str, default=None) -> int:
        if key not in self:
            if default is None:
                raise ConfigError(f"[{self.section}] line {self.lineno}: missing required key '{key}'")
            return default
        self._used.add(key)
        try:
            return int(self[key])
        except ValueError:
            raise ConfigError(
                f"[{self.section}] line {self.lineno}: key '{key}' is not an integer: {self[key]!r}"
            ) from None

    def take_str(self, key: str, default: str) -> str:
        if key not in self:
            return default
        self._used.add(key)
        return self[key]

    def warn_leftovers(self):
        unknown = sorted(set(self) - self._used)
        if unknown:
            warnings.warn(
                f"[{self.section}] line {self.lineno}: ignoring unknown keys: {', '.join(unknown)}",
                ConfigWarning,
                stacklevel=3,
            )


def _split_sections(text: str) -> list[_Options]:
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {lineno}: malformed section header: {raw.strip()!r}")
            current = _Options({}, line[1:-1].strip().lower(), lineno)
            sections.append(current)
            continue
        if current is None:
            raise ConfigError(f"line {lineno}: key=value outside any section")
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw.strip()!r}")
        key, val = line.split("=", 1)
        current[key.strip().lower()] = val.strip()
    return sections


def _conv_layer(opts: _Options, in_shape, index: int) -> LayerSpec:
    c, h, w = in_shape
    filters = opts.take_int("filters", 1)
    size = opts.take_int("size", 1)
    stride = opts.take_int("stride", 1)
    groups = opts.take_int("groups", 1)
    batch_normalize = opts.take_int("batch_normalize", 0) != 0
    pad_flag = opts.take_int("pad", 0)
    padding = opts.take_int("padding", size // 2 if pad_flag else 0)
    activation = opts.take_str("activation", "linear")
    if activation not in SUPPORTED_ACTIVATIONS:
        raise ConfigError(f"[convolutional] line {opts.lineno}: unsupported activation '{activation}'")
    if min(filters, size, stride, groups) < 1 or padding < 0:
        raise ConfigError(f"[convolutional] line {opts.lineno}: non-positive layer parameter")
    if c % groups:
        raise ConfigError(
            f"[convolutional] line {opts.lineno}: groups={groups} does not divide input channels {c}"
        )
    if filters % groups:
        raise ConfigError(
            f"[convolutional] line {opts.lineno}: groups={groups} does not divide filters {filters}"
        )
    oh = (h + 2 * padding - size) // stride + 1
    ow = (w + 2 * padding - size) // stride + 1
    if oh < 1 or ow < 1:
        raise ConfigError(f"[convolutional] line {opts.lineno}: kernel larger than padded input")
    return LayerSpec(
        kind="convolutional", index=index, filters=filters, size=size, stride=stride,
        padding=padding, groups=groups, batch_normalize=batch_normalize,
        activation=activation, in_shape=in_shape, out_shape=(filters, oh, ow),
    )


def _maxpool_layer(opts: _Options, in_shape, index: int) -> LayerSpec:
    c, h, w = in_shape
    stride = opts.take_int("stride", 1)
    size = opts.take_int("size", stride)
    if min(size, stride) < 1:
        raise ConfigError(f"[maxpool] line {opts.lineno}: non-positive size or stride")
    oh = max(-((h - size) // -stride) + 1, 1)
    ow = max(-((w - size) // -stride) + 1, 1)
    return LayerSpec(kind="maxpool", index=index, size=size, stride=stride,
                     in_shape=in_shape, out_shape=(c, oh, ow))


def _connected_layer(opts: _Options, in_shape, index: int) -> LayerSpec:
    outputs = opts.take_int("outputs", 1)
    activation = opts.take_str("activation", "linear")
    if activation not in SUPPORTED_ACTIVATIONS:
        raise ConfigError(f"[connected] line {opts.lineno}: unsupported activation '{activation}'")
    if outputs < 1:
        raise ConfigError(f"[connected] line {opts.lineno}: outputs must be positive")
    return LayerSpec(kind="connected", index=index, outputs=outputs, activation=activation,
                     in_shape=in_shape, out_shape=(outputs, 1, 1))


def parse_config(text: str) -> NetworkModel:
    """Parse a network description into a model skeleton (weights unset).

    Shapes are resolved for every layer; any inconsistency is an error,
    never a silent truncation. Unknown keys are ignored with a warning;
    unknown section kinds (shortcut, route, ...) are rejected.
    """
    sections = _split_sections(text)
    if not sections:
        raise ConfigError("empty network description")
    head = sections[0]
    if head.section not in NET_SECTIONS:
        raise ConfigError(f"first section must be [net], got [{head.section}]")
    height = head.take_int("height")
    width = head.take_int("width")
    channels = head.take_int("channels")
    if min(height, width, channels) < 1:
        raise ConfigError("[net]: height, width, and channels must be positive")
    head.warn_leftovers()

    shape = (channels, height, width)
    layers: list[LayerSpec] = []
    for index, opts in enumerate(sections[1:]):
        kind = opts.section
        if kind in NET_SECTIONS:
            raise ConfigError(f"line {opts.lineno}: duplicate [net] section")
        if kind == "convolutional":
            layer = _conv_layer(opts, shape, index)
        elif kind == "maxpool":
            layer = _maxpool_layer(opts, shape, index)
        elif kind == "avgpool":
            layer = LayerSpec(kind="avgpool", index=index, in_shape=shape,
                              out_shape=(shape[0], 1, 1))
        elif kind == "connected":
            layer = _connected_layer(opts, shape, index)
        elif kind == "softmax":
            layer = LayerSpec(kind="softmax", index=index, in_shape=shape, out_shape=shape)
        else:
            raise ConfigError(f"line {opts.lineno}: unsupported section [{kind}]")
        opts.warn_leftovers()
        layers.append(layer)
        shape = layer.out_shape
    return NetworkModel(input_shape=(channels, height, width), layers=layers,
                        weights=[None] * len(layers))


def count_weight_floats(layer: LayerSpec) -> int:
    """Number of float32 values the weights stream holds for one layer."""
    if layer.kind == "convolutional":
        c = layer.in_shape[0]
        n = layer.filters + layer.filters * (c // layer.groups) * layer.size ** 2
        if layer.batch_normalize:
            n += 3 * layer.filters
        return n
    if layer.kind == "connected":
        inputs = math.prod(layer.in_shape)
        return layer.outputs + layer.outputs * inputs
    return 0


def load_weights(data, model: NetworkModel) -> NetworkModel:
    """Fill every WeightBlock of the skeleton from a binary weights stream.

    Layout: three LE int32 (major, minor, revision); an images-seen counter,
    64-bit when major*10+minor >= 2 else 32-bit; then per convolutional
    layer biases[O], optional {scales[O], rolling_mean[O], rolling_var[O]},
    and coefficients; per connected layer biases then weights. The stream
    must be consumed exactly.
    """
    if hasattr(data, "read"):
        data = data.read()
    buf = bytes(data)
    if len(buf) < 12:
        raise WeightsError("truncated stream: missing version header")
    major, minor, revision = struct.unpack_from("<iii", buf, 0)
    pos = 12
    seen_fmt = "<q" if major * 10 + minor >= 2 else "<i"
    seen_size = struct.calcsize(seen_fmt)
    if len(buf) < pos + seen_size:
        raise WeightsError("truncated stream: missing seen counter")
    (seen,) = struct.unpack_from(seen_fmt, buf, pos)
    pos += seen_size

    def take(count: int, what: str) -> np.ndarray:
        nonlocal pos
        nbytes = 4 * count
        if pos + nbytes > len(buf):
            raise WeightsError(
                f"truncated stream while reading {what}: need {count} values, "
                f"{len(buf) - pos} bytes left"
            )
        arr = np.frombuffer(buf, dtype="<f4", count=count, offset=pos).copy()
        pos += nbytes
        return arr

    for i, layer in enumerate(model.layers):
        if layer.kind == "convolutional":
            o = layer.filters
            cpg = layer.in_shape[0] // layer.groups
            k = layer.size
            biases = take(o, f"layer {i} biases")
            scales = means = variances = None
            if layer.batch_normalize:
                scales = take(o, f"layer {i} bn scales")
                means = take(o, f"layer {i} bn rolling mean")
                variances = take(o, f"layer {i} bn rolling variance")
            wts = take(o * cpg * k * k, f"layer {i} coefficients").reshape(o, cpg, k, k)
            model.weights[i] = WeightBlock(wts, biases, scales, means, variances)
        elif layer.kind == "connected":
            inputs = math.prod(layer.in_shape)
            o = layer.outputs
            biases = take(o, f"layer {i} biases")
            wts = take(o * inputs, f"layer {i} weights").reshape(o, inputs, 1, 1)
            model.weights[i] = WeightBlock(wts, biases)
    if pos != len(buf):
        raise WeightsError(f"{len(buf) - pos} trailing bytes after the final layer")
    model.header = WeightsHeader(major, minor, revision, seen)
    return model


def save_weights(model: NetworkModel, path=None) -> bytes:
    """Serialize weights back to the binary stream format; optionally write."""
    header = model.header or WeightsHeader()
    out = bytearray(struct.pack("<iii", header.major, header.minor, header.revision))
    out += struct.pack("<q" if header.seen_is_64bit else "<i", header.seen)
    for i, (layer, block) in enumerate(zip(model.layers, model.weights)):
        if layer.kind not in ("convolutional", "connected"):
            continue
        if block is None:
            raise WeightsError(f"layer {i} has no weights to save")
        if layer.kind == "convolutional" and layer.batch_normalize != block.has_batch_norm:
            raise WeightsError(f"layer {i}: batch_normalize flag does not match its weight block")
        out += block.biases.astype("<f4").tobytes()
        if block.has_batch_norm:
            out += block.bn_scales.astype("<f4").tobytes()
            out += block.bn_rolling_mean.astype("<f4").tobytes()
            out += block.bn_rolling_var.astype("<f4").tobytes()
        out += block.weights.astype("<f4").tobytes()
    blob = bytes(out)
    if path is not None:
        Path(path).write_bytes(blob)
    return blob


def fold_batch_norm(model: NetworkModel) -> NetworkModel:
    """Absorb batch-norm statistics into weights and biases (inference only).

    Each affected output channel is scaled by scale/sqrt(variance + 1e-6)
    and its bias shifted so the folded forward pass matches the unfolded
    one; the statistics arrays are dropped. Returns a new model; blocks
    without batch norm are not copied but shared with the input model, so
    writing to their arrays in place changes both.
    """
    layers: list[LayerSpec] = []
    blocks: list[WeightBlock | None] = []
    for layer, block in zip(model.layers, model.weights):
        if layer.kind == "convolutional" and block is not None and block.has_batch_norm:
            var = block.bn_rolling_var
            if bool((var < 0).any()):
                raise WeightsError("negative rolling variance; model rejected")
            mult = block.bn_scales / np.sqrt(var + BN_EPSILON)
            folded = WeightBlock(
                block.weights * mult[:, None, None, None],
                block.biases - block.bn_rolling_mean * mult,
            )
            layers.append(replace(layer, batch_normalize=False))
            blocks.append(folded)
        else:
            layers.append(layer)
            blocks.append(block)
    return NetworkModel(model.input_shape, layers, blocks,
                        None if model.header is None else replace(model.header))
