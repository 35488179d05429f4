"""Output checks: the engine against the independent float64 reference.

Every (image, pass configuration) of a workload is validated once, after the
timed part, by running the engine's public `forward` with its `layer_tap`
hook and comparing each layer's output with the reference layer applied to
the engine's own input to that layer. Whole-network scores of
well-conditioned passes are also compared with the reference pass made by
the generator. Every timed call must then reproduce the validated top-1 hit
and load counts of the same image exactly, the engine being deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference
import workloads

TOLERANCE = 1e-5  # acceptance criterion 2's bound on the engine against its oracle


@dataclass
class ValidatedPass:
    scores: np.ndarray
    hit: bool
    channels_total: int
    channels_skipped: int
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def score_vector(ranked, classes: int) -> np.ndarray:
    """Scores indexed by class from classify's ranked list, or ValueError if the
    list is not a ranking of every class by score, ties toward the lower index."""
    if len(ranked) != classes or sorted(i for i, _ in ranked) != list(range(classes)):
        raise ValueError("ranking does not list every class exactly once")
    keys = [(-s, i) for i, s in ranked]
    if keys != sorted(keys):
        raise ValueError("ranking is not in descending score order")
    out = np.empty(classes)
    for i, s in ranked:
        out[i] = s
    return out


def score_errors(scores: np.ndarray, expected: np.ndarray, what: str) -> list[str]:
    """An error message when any score is not within TOLERANCE of the expected
    one; expected NaN means the pass has no whole-network reference."""
    if np.isnan(expected).all():
        return []
    if scores.shape != expected.shape or not np.isfinite(scores).all():
        return [f"{what}: scores malformed"]
    worst = float(np.abs(scores - expected).max())
    return [f"{what}: score off by {worst:.3g}"] if worst > TOLERANCE else []


def _within(actual: np.ndarray, expected: np.ndarray, slack=0.0) -> np.ndarray:
    return np.abs(actual - expected) <= TOLERANCE * (1.0 + np.abs(expected)) + slack


def _accumulation_slack(spec: dict, wts, x: np.ndarray):
    """Extra tolerance for a connected layer, which the engine sums in float32:
    1e-6 of the sum of the absolute products, far above float32 rounding of
    that sum and far below the effect of a wrong or missing input."""
    if spec["kind"] != "connected":
        return 0.0
    terms = np.abs(wts["weights"]) @ np.abs(x.reshape(-1)).astype(np.float32)
    return 1e-6 * terms.astype(np.float64).reshape(-1, 1, 1)


def layer_errors(layers, weights, engine_input: np.ndarray, outputs: list[np.ndarray],
                 epsilon: float | None, rows) -> list[str]:
    """Teacher-forced check of one engine pass, layer by layer.

    Each layer's output must be within TOLERANCE (relative, plus absolute,
    plus a float32-summation slack on connected layers) of the reference
    layer run on the engine's input to it. Where the reference value before
    thresholding is itself within that tolerance of epsilon, either side of
    the threshold is accepted. Each conv's load row must count exactly the
    input channels the reference marks.
    """
    errors = []
    x = engine_input
    conv = 0
    for index, (spec, wts, out) in enumerate(zip(layers, weights, outputs)):
        xin = x.astype(np.float64)
        if spec["kind"] == "convolutional":
            skipped = 0
            if epsilon is not None and conv:
                marks = reference.marked_channels(x, epsilon)
                skipped = int(marks.sum())
                xin[marks] = 0.0
            row = rows[conv] if conv < len(rows) else None
            if row is None or (row.channels_total, row.channels_skipped) != (x.shape[0], skipped):
                errors.append(f"layer {index}: load row {row} expected "
                              f"{x.shape[0]} channels, {skipped} skipped")
            conv += 1
        expected, pre = reference.layer_forward(spec, wts, xin, epsilon)
        if out.shape != expected.shape:
            errors.append(f"layer {index}: shape {out.shape}, expected {expected.shape}")
            break
        slack = _accumulation_slack(spec, wts, x)
        good = _within(out, expected, slack)
        if pre is not None:
            near = np.abs(pre - epsilon) <= TOLERANCE * (1.0 + pre) + slack
            good |= near & ((out == 0) | _within(out, pre, slack))
        if not good.all():
            worst = float(np.abs(out - expected)[~good].max())
            errors.append(f"layer {index} ({spec['kind']}): {int((~good).sum())} values "
                          f"off, worst by {worst:.3g}")
        x = out
    if conv != len(rows):
        errors.append(f"{len(rows)} load rows for {conv} conv layers")
    return errors


def read_ppm(path) -> np.ndarray:
    """Pixels of a PPM written by workloads.write_ppm."""
    data = Path(path).read_bytes()
    magic, dims, maxval, rest = data.split(b"\n", 3)
    w, h = map(int, dims.split())
    return np.frombuffer(rest, dtype=np.uint8, count=w * h * 3).reshape(h, w, 3)


def validate(fm, model, desc: dict, ref_weights, ref_scores: np.ndarray,
             image: int, config: int) -> ValidatedPass:
    """Run and check one engine pass of one image under one pass configuration."""
    entry = desc["images"][image]
    mode, eps = desc["configs"][config]
    x = fm.imageio.load_input(entry["path"], model.input_shape)
    errors = []
    if config == 0:  # the input is the same for every pass configuration
        expected_input = workloads.resize_input(read_ppm(entry["path"]), desc["side"])
        if not _within(x.data, expected_input).all():
            errors.append("input tensor differs from the reference resize")
    outputs = []
    recorder = fm.LoadRecorder()
    cfg = fm.PruneConfig(epsilon=eps, leak=desc["leak"], mode=mode)
    fm.inference.forward(model, x, cfg, recorder=recorder,
                         layer_tap=lambda layer, out: outputs.append(out.data))
    epsilon = None if mode == "off" else eps
    errors += layer_errors(desc["layers"], ref_weights, x.data, outputs, epsilon, recorder.rows)
    scores = outputs[-1].reshape(-1).astype(np.float64)
    errors += score_errors(scores, ref_scores[image, config], "whole network")
    return ValidatedPass(
        scores=scores,
        hit=int(np.argmax(scores)) == entry["label"],
        channels_total=sum(r.channels_total for r in recorder.rows),
        channels_skipped=sum(r.channels_skipped for r in recorder.rows),
        errors=[f"image {image} pass {mode} eps={eps:g}: {e}" for e in errors],
    )
