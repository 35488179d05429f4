"""Span tracing around the engine's public functions, for the traced run only.

`Tracer.install` replaces module attributes that the engine looks up at call
time with wrappers that record a span per call: name, start, end, parent
span, image id and benchmark phase. The wrapped `forward` also passes a
`layer_tap` that records one span per network layer. Spans stay in memory
until `write`. Self time is a span's duration minus its child call spans;
layer spans overlap call spans and are kept out of that sum.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    start: int   # ns, perf_counter_ns
    end: int
    parent: int | None
    image: int
    phase: str
    kind: str = "call"   # "call" or "layer"
    groups: int = 0      # conv spans: the layer's group count

    @property
    def ns(self) -> int:
        return self.end - self.start


# (module name, attribute, span name). The evaluate module is reached through
# sys.modules because the package re-exports a function under its name.
WRAPPED = (
    ("fmprune.model", "parse_config", "model.parse"),
    ("fmprune.model", "load_weights", "model.load_weights"),
    ("fmprune.model", "fold_batch_norm", "model.fold"),
    ("fmprune.imageio", "load_input", "imageio.load_input"),
    ("fmprune.imageio", "load_ppm", "imageio.decode"),
    ("fmprune.imageio", "to_input_tensor", "imageio.resize"),
    ("fmprune.inference", "conv_forward_fast", "inference.conv"),
    ("fmprune.inference", "apply_activation", "inference.activation"),
    ("fmprune.inference", "maxpool_forward", "inference.maxpool"),
    ("fmprune.inference", "connected_forward", "inference.connected"),
    ("fmprune.inference", "mark_zero_channels", "pruning.mark"),
    ("fmprune.inference", "pruned_conv_forward", "pruning.pruned_conv"),
    ("fmprune.evaluate", "forward", "inference.forward"),
    ("fmprune.evaluate", "classify", "evaluate.classify"),
    ("fmprune.evaluate", "evaluate", "evaluate.evaluate"),
    ("fmprune.evaluate", "epsilon_sweep", "evaluate.sweep"),
    ("fmprune.evaluate", "savings_ratio", "evaluate.savings"),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self.image = -1
        self._stack: list[int] = []
        self._next = 0
        self._saved = []
        # load accounting of timed passes, from the recorders evaluate() fills
        self.loads = defaultdict(int)
        self.out_area: dict[int, int] = {}
        self.static_pass: dict[str, int] = {}

    def install(self):
        for module_name, attr, name in WRAPPED:
            module = sys.modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def set_cost(self, cost, model):
        """Per-layer output area and per-pass totals of an unrecorded pass."""
        self.out_area = {l.layer_index: l.out_area for l in cost.layers}
        convs = [l for l in model.layers if l.kind == "convolutional"]
        self.static_pass = {
            "channels_total": sum(l.in_shape[0] for l in convs),
            "elements_loaded": sum(l.in_shape[0] * l.in_shape[1] * l.in_shape[2] for l in convs),
        }

    def _wrap(self, original, name):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            sid = tracer._next
            tracer._next += 1
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(sid, name, 0, 0, parent, tracer.image, tracer.phase)
            if name == "inference.conv":
                span.groups = args[1].groups
            elif name == "inference.forward" and kwargs.get("layer_tap") is None:
                kwargs["layer_tap"] = tracer._layer_tap(sid)
            recorder = kwargs.get("recorder") if name == "evaluate.evaluate" else None
            rows_before = len(recorder.rows) if recorder is not None else 0
            tracer._stack.append(sid)
            span.start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                tracer._stack.pop()
                tracer.spans.append(span)
            if name == "evaluate.evaluate" and tracer.phase == "timed":
                tracer._count_loads(recorder, rows_before, result.images_evaluated)
            return result

        return wrapper

    def _layer_tap(self, forward_id):
        last = [time.perf_counter_ns()]

        def tap(layer, out):
            now = time.perf_counter_ns()
            self.spans.append(Span(-1, f"layer{layer.index:02d}.{layer.kind}", last[0], now,
                                   forward_id, self.image, self.phase, kind="layer"))
            last[0] = now

        return tap

    def _count_loads(self, recorder, rows_before, images):
        if recorder is None:  # an unpruned, unrecorded pass loads every channel
            for key, value in self.static_pass.items():
                self.loads[key] += value * images
            return
        for row in recorder.rows[rows_before:]:
            self.loads["channels_total"] += row.channels_total
            self.loads["channels_skipped"] += row.channels_skipped
            self.loads["elements_loaded"] += row.elements_loaded
            self.loads["macs_skipped"] += row.kernel_coeffs_skipped * self.out_area[row.layer_index]

    def self_times(self, phase: str) -> dict[str, list[int]]:
        """Self time in ns of every call span of one phase, by span name."""
        child_ns = defaultdict(int)
        for s in self.spans:
            if s.kind == "call" and s.parent is not None:
                child_ns[s.parent] += s.ns
        out = defaultdict(list)
        for s in self.spans:
            if s.kind == "call" and s.phase == phase:
                out[s.name].append(s.ns - child_ns[s.id])
        return out

    def write(self, path):
        with open(path, "w") as f:
            for s in sorted(self.spans, key=lambda s: s.start):
                f.write(json.dumps(s.__dict__) + "\n")


def upper_percentile(samples: int) -> int:
    """p90, or the highest whole percentile with at least ten samples beyond it."""
    return max(0, min(90, int(100 * (1 - 10 / samples)))) if samples else 0


def layer_metrics(tracer: Tracer, model, cost, main_calls: int) -> tuple[dict, dict]:
    """Per-layer metrics of the traced phase, per forward pass unless stated,
    and a detail dict (percentile used, per-network-layer ms)."""
    selfs = tracer.self_times("timed")
    forwards = [s for s in tracer.spans if s.name == "inference.forward" and s.phase == "timed"]
    passes = max(len(forwards), 1)

    def per_pass_ms(name):
        return sum(selfs.get(name, ())) / 1e6 / passes

    def once_ms(name):
        ns = [s.ns for s in tracer.spans if s.name == name and s.phase == "setup"]
        return ns[0] / 1e6 if ns else 0.0

    conv_spans = [s for s in tracer.spans if s.name == "inference.conv" and s.phase == "timed"]
    fwd_ms = np.array([s.ns / 1e6 for s in forwards]) if forwards else np.zeros(1)
    pct = upper_percentile(len(forwards))
    first = [s for s in tracer.spans if s.name == "inference.forward" and s.phase == "first"]
    loads = tracer.loads
    macs = cost.total_macs
    weight_bytes = sum(b.weights.nbytes + b.biases.nbytes for b in model.weights if b is not None)
    metrics = {
        "model.parse_ms": (once_ms("model.parse"), "ms"),
        "model.load_weights_ms": (once_ms("model.load_weights"), "ms"),
        "model.fold_ms": (once_ms("model.fold"), "ms"),
        "model.weight_mb": (weight_bytes / 1e6, "MB"),
        "imageio.decode_ms": (per_pass_ms("imageio.decode"), "ms"),
        "imageio.resize_ms": (per_pass_ms("imageio.resize"), "ms"),
        "imageio.loads_per_image": (len(selfs.get("imageio.decode", ())) / max(main_calls, 1),
                                    "count"),
        "inference.conv_ms": (per_pass_ms("inference.conv"), "ms"),
        "inference.conv_calls": (len(conv_spans) / passes, "count"),
        "inference.group_matmuls": (sum(s.groups for s in conv_spans) / passes, "count"),
        "inference.activation_ms": (per_pass_ms("inference.activation"), "ms"),
        "inference.maxpool_ms": (per_pass_ms("inference.maxpool"), "ms"),
        "inference.connected_ms": (per_pass_ms("inference.connected"), "ms"),
        "inference.forward_self_ms": (per_pass_ms("inference.forward"), "ms"),
        "inference.forward_ms_p50": (float(np.percentile(fwd_ms, 50)), "ms"),
        "inference.forward_ms_p90": (float(np.percentile(fwd_ms, pct)), "ms"),
        "inference.first_forward_ms": (first[0].ns / 1e6 if first else 0.0, "ms"),
        "inference.macs": (float(macs), "count"),
        "pruning.macs_skipped": (loads["macs_skipped"] / passes, "count"),
        "pruning.macs_skipped_share": (loads["macs_skipped"] / passes / macs, "share"),
        "pruning.mark_ms": (per_pass_ms("pruning.mark"), "ms"),
        "pruning.pruned_conv_self_ms": (per_pass_ms("pruning.pruned_conv"), "ms"),
        "pruning.channel_loads": ((loads["channels_total"] - loads["channels_skipped"]) / passes,
                                  "count"),
        "pruning.channels_skipped": (loads["channels_skipped"] / passes, "count"),
        "pruning.loaded_mb": (loads["elements_loaded"] * 4 / 1e6 / passes, "MB"),
        "evaluate.classify_self_ms": (per_pass_ms("evaluate.classify"), "ms"),
        "evaluate.savings_ms": (per_pass_ms("evaluate.savings"), "ms"),
        "evaluate.passes": (len(forwards) / max(main_calls, 1), "count"),
    }
    layer_ms = defaultdict(float)
    for s in tracer.spans:
        if s.kind == "layer" and s.phase == "timed":
            layer_ms[s.name] += s.ns / 1e6 / passes
    detail = {
        "timed_passes": len(forwards),
        "timed_calls": main_calls,
        "forward_ms_p90_is_percentile": pct,
        "loaded_mb_note": "computed from the recorder's element counts x 4 bytes, not measured",
        "network_layer_ms": dict(sorted(layer_ms.items())),
    }
    return metrics, detail
