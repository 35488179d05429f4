"""Darknet-style network description and binary weights parsing.

The config is INI-like text: a leading [net] section declaring the input
shape, followed by one section per layer. The weights file is the matching
binary stream: a version header, then each layer's arrays in the order
block_layout gives, all little-endian float32.
"""

from __future__ import annotations

import math
import os
import struct
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .tensor import WeightBlock

SUPPORTED_ACTIVATIONS = ("linear", "relu", "leaky")
NET_SECTIONS = ("net", "network")

BN_EPSILON = np.float32(1e-6)
# values per np.isfinite call when loading weights: bounds its bool temporary
_FINITE_CHUNK = 1 << 16


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

    def take_activation(self) -> str:
        """The section's activation, linear when it names none."""
        self._used.add("activation")
        activation = self.get("activation", "linear")
        if activation not in SUPPORTED_ACTIVATIONS:
            raise ConfigError(f"[{self.section}] line {self.lineno}: "
                              f"unsupported activation '{activation}'")
        return activation

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


def conv_output_size(n: int, k: int, stride: int, padding: int) -> int:
    """Outputs along a side of n inputs of a conv layer: kernel k, with
    padding on both sides; less than 1 when k is larger than the padded side."""
    return (n + 2 * padding - k) // stride + 1


def pool_output_size(n: int, size: int, stride: int) -> int:
    """Outputs along a side of n inputs of a ceil-mode max pool (at least 1)."""
    return max(-((n - size) // -stride) + 1, 1)


def _conv_layer(opts: _Options, in_shape, index: int) -> LayerSpec:
    c, h, w = in_shape
    filters = opts.take_int("filters", 1)
    size = opts.take_int("size", 1)
    stride = opts.take_int("stride", 1)
    groups = opts.take_int("groups", 1)
    batch_normalize = opts.take_int("batch_normalize", 0) != 0
    pad_flag = opts.take_int("pad", 0)
    padding = opts.take_int("padding", size // 2 if pad_flag else 0)
    activation = opts.take_activation()
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
    oh, ow = conv_output_size(h, size, stride, padding), conv_output_size(w, size, stride, padding)
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
    oh, ow = pool_output_size(h, size, stride), pool_output_size(w, size, stride)
    return LayerSpec(kind="maxpool", index=index, size=size, stride=stride,
                     in_shape=in_shape, out_shape=(c, oh, ow))


def _connected_layer(opts: _Options, in_shape, index: int) -> LayerSpec:
    outputs = opts.take_int("outputs", 1)
    activation = opts.take_activation()
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


def block_layout(layer: LayerSpec) -> list[tuple[str, str, tuple[int, ...]]]:
    """The arrays a layer stores in the weights stream, in stream order.

    Each is (WeightBlock field, name for error messages, shape): a conv
    layer stores biases, the batch-norm triple when batch_normalize is set,
    then its coefficients; a connected layer stores biases, then weights;
    any other layer stores nothing.
    """
    if layer.kind == "convolutional":
        o, k = layer.filters, layer.size
        bn = [("bn_scales", "bn scales", (o,)), ("bn_rolling_mean", "bn rolling mean", (o,)),
              ("bn_rolling_var", "bn rolling variance", (o,))] if layer.batch_normalize else []
        return [("biases", "biases", (o,)), *bn,
                ("weights", "coefficients", (o, layer.in_shape[0] // layer.groups, k, k))]
    if layer.kind == "connected":
        return [("biases", "biases", (layer.outputs,)),
                ("weights", "weights", (layer.outputs, math.prod(layer.in_shape), 1, 1))]
    return []


def load_weights(data: bytes, model: NetworkModel) -> NetworkModel:
    """Fill every WeightBlock of the skeleton from the bytes of a weights file.

    Layout: three LE int32 (major, minor, revision); an images-seen counter,
    64-bit when WeightsHeader.seen_is_64bit else 32-bit; then each layer's
    arrays as block_layout lists them. The stream must be consumed exactly,
    and every value must be finite (a NaN or an infinity is a WeightsError
    naming its layer and array). The skeleton's weights and header are set
    only then: a stream that raises WeightsError leaves the skeleton
    unchanged.

    The arrays are not copied: each is a read-only view of the stream's
    bytes, so an in-place write to one raises ValueError, and a loaded
    model keeps the stream alive. (On a big-endian host WeightBlock
    converts each array to native float32, which copies it.)
    """
    buf = bytes(data)
    if len(buf) < 12:
        raise WeightsError("truncated stream: missing version header")
    header = WeightsHeader(*struct.unpack_from("<iii", buf, 0))
    pos = 12
    seen_fmt = "<q" if header.seen_is_64bit else "<i"
    seen_size = struct.calcsize(seen_fmt)
    if len(buf) < pos + seen_size:
        raise WeightsError("truncated stream: missing seen counter")
    (header.seen,) = struct.unpack_from(seen_fmt, buf, pos)
    pos += seen_size

    def take(shape: tuple[int, ...], what: str) -> np.ndarray:
        nonlocal pos
        count = math.prod(shape)
        nbytes = 4 * count
        if pos + nbytes > len(buf):
            raise WeightsError(
                f"truncated stream while reading {what}: need {count} values, "
                f"{len(buf) - pos} bytes left"
            )
        arr = np.frombuffer(buf, dtype="<f4", count=count, offset=pos)
        if not all(np.isfinite(arr[i:i + _FINITE_CHUNK]).all()
                   for i in range(0, count, _FINITE_CHUNK)):
            raise WeightsError(f"{what}: non-finite value")
        pos += nbytes
        return arr.reshape(shape)

    blocks: list[WeightBlock | None] = [None] * len(model.layers)
    for i, layer in enumerate(model.layers):
        if layout := block_layout(layer):
            blocks[i] = WeightBlock(**{field: take(shape, f"layer {i} {name}")
                                       for field, name, shape in layout})
    if pos != len(buf):
        raise WeightsError(f"{len(buf) - pos} trailing bytes after the final layer")
    model.weights = blocks
    model.header = header
    return model


def save_weights(model: NetworkModel, path) -> None:
    """Write the weights to path in the binary stream format.

    The header and then each array go to a new file beside path, which is
    then renamed over it. The path thus keeps its old contents unless the
    whole stream was written, even when it is the file the model was loaded
    from, and a failed save removes the new file. A symbolic link stays and
    its target gets the new contents, as a write through it would.
    """
    path = Path(path).resolve()
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    out = open(tmp, "xb")
    try:
        with out:
            header = model.header or WeightsHeader()
            out.write(struct.pack("<iii", header.major, header.minor, header.revision))
            out.write(struct.pack("<q" if header.seen_is_64bit else "<i", header.seen))
            for i, (layer, block) in enumerate(zip(model.layers, model.weights)):
                if not (layout := block_layout(layer)):
                    continue
                if block is None:
                    raise WeightsError(f"layer {i} has no weights to save")
                if layer.batch_normalize != block.has_batch_norm:
                    raise WeightsError(
                        f"layer {i}: batch_normalize flag does not match its weight block")
                for field, name, shape in layout:
                    arr = getattr(block, field)
                    if arr.shape != shape:
                        raise WeightsError(f"layer {i} {name}: shape {arr.shape} does not fit "
                                           f"the layer's {shape}")
                    # no copy for a float32 array, as load_weights and static_prune give
                    out.write(np.ascontiguousarray(arr, "<f4"))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def fold_batch_norm(model: NetworkModel) -> NetworkModel:
    """Absorb batch-norm statistics into weights and biases (inference only).

    Each affected output channel is scaled by scale/sqrt(variance + 1e-6)
    and its bias shifted so the folded forward pass matches the unfolded
    one; the statistics arrays are dropped. Returns a new model; blocks
    without batch norm are not copied but shared with the input model (the
    arrays load_weights returns are read-only, so an in-place write to a
    loaded array raises ValueError instead of changing both models).
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
