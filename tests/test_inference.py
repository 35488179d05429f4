import importlib
import itertools
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from fmprune import inference
from fmprune import (
    MODE_LITERAL, MODE_MAGNITUDE, MODE_OFF, LayerSpec, LoadRecorder, PruneConfig,
    ShapeError, Tensor, WeightBlock, apply_activation, avgpool_forward,
    connected_forward, conv_forward_fast, forward, mark_zero_channels, maxpool_forward,
    parse_config, softmax_forward,
)
from conftest import build_model, conv_block, random_input, random_relu_net, set_parts
from oracles import (
    activation_where, conv_forward_reference, conv_sums_float64, epsilon_activate, maxpool_loop,
)


def literal(eps, leak=0.01):
    return PruneConfig(epsilon=eps, leak=leak, mode=MODE_LITERAL)


class TestEpsilonActivate:
    def test_first_branch(self):
        assert epsilon_activate(0.5, literal(0.1)) == 0.5

    def test_middle_branch(self):
        assert epsilon_activate(0.05, literal(0.1)) == 0.0

    def test_leak_branch(self):
        assert epsilon_activate(-1.0, literal(0.1)) == 0.01 * -1.0

    def test_middle_branch_negative_boundary(self):
        # -leak*eps = -0.001, so -0.0005 still falls in the zero band
        assert epsilon_activate(-0.0005, literal(0.1)) == 0.0

    def test_epsilon_zero_is_leaky_relu(self):
        cfg = literal(0.0)
        for x in (-2.0, -0.1, 0.0, 0.1, 2.0):
            expected = x if x > 0 else 0.01 * x
            assert epsilon_activate(x, cfg) == expected

    def test_boundary_inclusivity(self):
        cfg = literal(0.1)
        assert epsilon_activate(0.1, cfg) == 0.0          # x == eps zeroes
        assert epsilon_activate(0.1 + 1e-9, cfg) != 0.0
        assert epsilon_activate(-0.001, cfg) == 0.0       # x == -leak*eps zeroes
        assert epsilon_activate(-0.001 - 1e-9, cfg) == 0.01 * (-0.001 - 1e-9)

    def test_mode_off_rejected(self):
        with pytest.raises(ValueError):
            epsilon_activate(1.0, PruneConfig())

    def test_magnitude_mode(self):
        cfg = PruneConfig(epsilon=0.1, leak=0.01, mode=MODE_MAGNITUDE)
        assert epsilon_activate(0.5, cfg) == 0.5
        assert epsilon_activate(0.05, cfg) == 0.0
        # after the leak, -1.0 becomes -0.01, whose magnitude is within eps
        assert epsilon_activate(-1.0, cfg) == 0.0
        assert epsilon_activate(-20.0, cfg) == 0.01 * -20.0
        assert math.isnan(epsilon_activate(math.nan, cfg))

    def test_idempotent_for_non_negative_inputs(self, rng):
        # the negative side is not idempotent in general: with eps=0.1 and
        # leak=0.01, x=-0.05 maps to -0.0005 which a second pass zeroes
        cfg = literal(0.1)
        once = epsilon_activate(-0.05, cfg)
        assert epsilon_activate(once, cfg) != once
        for x in np.concatenate([rng.uniform(0, 2, size=200), [0.0, 0.05, 0.1, 0.2]]):
            x = float(x)
            once = epsilon_activate(x, cfg)
            assert epsilon_activate(once, cfg) == once

    def test_config_validation(self):
        # 1e39 and 3.4028236e38 are finite, but their float32 is inf; the
        # float32 of 1e-46 is 0, and that of 0.99999999 is 1
        for bad in (-0.1, float("nan"), float("inf"), 1e39, 3.4028236e38):
            with pytest.raises(ValueError):
                PruneConfig(epsilon=bad, mode=MODE_LITERAL)
        for bad in (0.0, 1.0, 1e-46, 0.99999999):
            with pytest.raises(ValueError):
                PruneConfig(leak=bad)
        with pytest.raises(ValueError):
            PruneConfig(mode="sometimes")


def make_conv(c, h, w, filters, k, stride=1, pad=0, groups=1, activation="linear"):
    return LayerSpec(kind="convolutional", filters=filters, size=k, stride=stride,
                     padding=pad, groups=groups, activation=activation,
                     in_shape=(c, h, w),
                     out_shape=(filters, (h + 2 * pad - k) // stride + 1,
                                (w + 2 * pad - k) // stride + 1))


class TestConvReference:
    def test_scalar_multiply_add(self):
        layer = make_conv(1, 1, 1, 1, 1)
        block = WeightBlock(np.full((1, 1, 1, 1), 3.0, np.float32), np.array([1.0], np.float32))
        out = conv_forward_reference(Tensor(np.full((1, 1, 1), 2.0, np.float32)), layer, block)
        assert out.data.ravel().tolist() == [7.0]

    def test_overlap_counting_with_padding(self):
        layer = make_conv(1, 3, 3, 1, 3, pad=1)
        block = WeightBlock(np.ones((1, 1, 3, 3), np.float32), np.zeros(1, np.float32))
        out = conv_forward_reference(Tensor(np.ones((1, 3, 3), np.float32)), layer, block)
        expected = np.array([[4, 6, 4], [6, 9, 6], [4, 6, 4]], dtype=np.float32)
        assert np.array_equal(out.data[0], expected)

    def test_fast_path_matches_reference(self, rng):
        layer = make_conv(3, 8, 8, 4, 3, pad=1)
        block = WeightBlock(rng.normal(size=(4, 3, 3, 3)).astype(np.float32),
                            rng.normal(size=4).astype(np.float32))
        image = random_input(rng, (3, 8, 8))
        ref = conv_forward_reference(image, layer, block)
        fast = conv_forward_fast(image, layer, block)
        assert np.abs(ref.data - fast.data).max() < 1e-5

    def test_fast_matches_reference_grouped_and_strided(self, rng):
        # (kernel, stride, padding); 1×1 stride 1 with padding 1 grows the plane
        for k, stride, pad in ((3, 2, 1), (1, 1, 1)):
            for groups in (1, 2, 4):
                layer = make_conv(4, 9, 7, 4, k, stride=stride, pad=pad, groups=groups,
                                  activation="relu")
                block = WeightBlock(rng.normal(size=(4, 4 // groups, k, k)).astype(np.float32),
                                    rng.normal(size=4).astype(np.float32))
                image = random_input(rng, (4, 9, 7))
                ref = conv_forward_reference(image, layer, block, literal(0.05))
                fast = Tensor(apply_activation(conv_forward_fast(image, layer, block).data,
                                               layer.activation, literal(0.05)))
                assert ref.shape == fast.shape == tuple(layer.out_shape)
                assert np.abs(ref.data - fast.data).max() < 1e-5

    # one channel or group per chunk or block, so every boundary is crossed,
    # and the default budget, where each case fits one
    @pytest.mark.parametrize("budget", [1, inference._BLOCK_BYTES])
    def test_padding_matches_a_padded_input(self, rng, monkeypatch, budget):
        """The kernel never writes the padding out (_pad_taps): its output
        must equal, bit for bit, the same layer without padding over the
        input padded with zeros, marked channels zeroed, for any kernel,
        stride, padding, plane and block budget."""
        monkeypatch.setattr(inference, "_BLOCK_BYTES", budget)
        cases = 0
        for k, stride, pad in itertools.product((1, 2, 3, 5), (1, 2, 3), (1, 2, 3)):
            for h, w in ((1, 1), (2, 5), (7, 4)):
                if h + 2 * pad < k or w + 2 * pad < k:
                    continue
                for c, groups in ((3, 1), (4, 4), (4, 2)):
                    layer = make_conv(c, h, w, 4, k, stride=stride, pad=pad, groups=groups)
                    block = conv_block(rng, layer)
                    x = random_input(rng, (c, h, w))
                    padded = np.pad(x.data, ((0, 0), (pad, pad), (pad, pad)))
                    unpadded = make_conv(c, h + 2 * pad, w + 2 * pad, 4, k, stride=stride,
                                         groups=groups)
                    for marked in (None, np.arange(c) == 1):
                        got = conv_forward_fast(x, layer, block, marked=marked).data
                        want = padded.copy()
                        if marked is not None:
                            want[marked] = 0.0
                        want = conv_forward_fast(Tensor(want), unpadded, block).data
                        assert np.array_equal(bits(got), bits(want)), (k, stride, pad, h, w, c)
                        cases += 1
        assert cases == 612

    def test_shape_mismatch_rejected(self, rng):
        layer = make_conv(3, 8, 8, 4, 3, pad=1)
        block = WeightBlock(rng.normal(size=(4, 3, 3, 3)).astype(np.float32),
                            np.zeros(4, np.float32))
        with pytest.raises(ShapeError):
            conv_forward_fast(random_input(rng, (2, 8, 8)), layer, block)
        unpadded = make_conv(3, 8, 8, 4, 3, pad=0)
        with pytest.raises(ShapeError):
            conv_forward_fast(random_input(rng, (3, 2, 2)), unpadded, block)


class TestOtherLayers:
    def test_maxpool_of_four(self):
        out = maxpool_forward(Tensor(np.array([[1, 2], [3, 4]], np.float32).reshape(1, 2, 2)), 2, 2)
        assert out.data.ravel().tolist() == [4.0]

    def test_maxpool_ceil_mode_clamps_edges(self):
        t = Tensor(np.arange(5, dtype=np.float32).reshape(1, 1, 5))
        out = maxpool_forward(t, 2, 2)
        # windows [0,1] [2,3] [4]; ceil mode keeps the short last window
        assert out.data.ravel().tolist() == [1.0, 3.0, 4.0]

    def test_maxpool_matches_window_loop_bit_for_bit(self, rng):
        covered = set()
        for _ in range(300):
            c, h, w = (int(v) for v in rng.integers(1, 12, size=3))
            size, stride = int(rng.integers(1, 6)), int(rng.integers(1, 5))
            data = rng.normal(size=(c, h, w)).astype(np.float32)
            specials = rng.random(size=data.shape) < 0.05
            data[specials] = rng.choice([np.nan, np.inf, -np.inf], size=int(specials.sum()))
            t = Tensor(data)
            out = maxpool_forward(t, size, stride)
            assert out.data.tobytes() == maxpool_loop(t, size, stride).data.tobytes()
            oh = out.h
            covered.add(("size<stride", size < stride))
            covered.add(("size>input", size > h))
            covered.add(("overhang", (oh - 1) * stride + size > h))
            covered.add(("clamped", (oh - 1) * stride >= h))
        assert all((kind, True) in covered
                   for kind in ("size<stride", "size>input", "overhang", "clamped"))

    def test_activation_bit_identical_to_nested_where(self):
        specials = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0, 2.5, -2.5,
                    1e-45, -1e-45, 1e-39, -1e-39, 1e-3, -1e-3, 0.1, -0.1]
        for eps in (0.0, 0.1):
            for leak in (0.01, 0.2):
                band = np.float32(eps)
                edge = -(np.float32(leak) * band)
                values = np.array(specials + [band, edge,
                                              np.nextafter(band, np.float32(1)),
                                              np.nextafter(band, np.float32(-1)),
                                              np.nextafter(edge, np.float32(1)),
                                              np.nextafter(edge, np.float32(-1))],
                                  dtype=np.float32)
                for mode in (MODE_OFF, MODE_LITERAL, MODE_MAGNITUDE):
                    cfg = PruneConfig(epsilon=eps, leak=leak, mode=mode)
                    for activation in ("linear", "relu", "leaky"):
                        got = apply_activation(values.copy(), activation, cfg)
                        want = activation_where(values, activation, cfg)
                        assert got.tobytes() == want.tobytes(), (eps, leak, mode, activation)

    def test_literal_relu_at_epsilon_zero_is_off_bit_for_bit(self):
        """At eps=0 the literal ReLU skips its mask multiply: np.maximum
        already maps every v <= 0, -0.0 included, to +0."""
        eps = np.float32(0.1)
        values = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, -1e-45, -1.0, -3e38,
                           1e-45, 1e-3, eps, np.nextafter(eps, np.float32(0)), 0.5],
                          dtype=np.float32).reshape(2, 7, 1)
        off = apply_activation(values.copy(), "relu", PruneConfig())
        for leak in (0.01, 0.5):
            got = apply_activation(values.copy(), "relu", literal(0.0, leak))
            assert np.array_equal(got.view(np.uint32), off.view(np.uint32)), leak
        assert not np.signbit(off[~np.isnan(off)]).any()

    @pytest.mark.parametrize("activation", ["relu", "leaky"])
    def test_magnitude_mode_keeps_nan_and_its_channel_unmarked(self, activation):
        values = np.zeros((2, 2, 2), np.float32)
        values[1, 0, 1] = np.nan
        out = apply_activation(values, activation, PruneConfig(epsilon=0.1, mode=MODE_MAGNITUDE))
        assert np.isnan(out[1, 0, 1])
        assert mark_zero_channels(Tensor(out), 0.1).aggregate.tolist() == [True, False]

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError, match="unsupported activation 'tanh'"):
            apply_activation(np.zeros((1, 2, 2), np.float32), "tanh", PruneConfig())

    def test_global_avgpool_mean(self):
        out = avgpool_forward(Tensor(np.array([1, 2, 3, 4], np.float32).reshape(1, 2, 2)))
        assert out.data.ravel().tolist() == [2.5]

    def test_softmax_symmetry_and_normalization(self, rng):
        out = softmax_forward(Tensor(np.zeros((2, 1, 1), np.float32)))
        assert out.data.ravel().tolist() == [0.5, 0.5]
        out = softmax_forward(random_input(rng, (7, 1, 1)))
        assert abs(out.data.sum() - 1.0) < 1e-6

    def test_connected_matches_manual_matmul(self, rng):
        w = rng.normal(size=(3, 4)).astype(np.float32)
        b = rng.normal(size=3).astype(np.float32)
        block = WeightBlock(w.reshape(3, 4, 1, 1), b)
        x = random_input(rng, (4, 1, 1))
        out = connected_forward(x, block)
        expected = w @ x.data.ravel() + b
        assert np.allclose(out.data.ravel(), expected, atol=1e-6)
        with pytest.raises(ShapeError):
            connected_forward(random_input(rng, (5, 1, 1)), block)


TOY_NET = """
[net]
height=6
width=6
channels=2

[convolutional]
filters=4
size=3
stride=1
pad=1
activation=relu

[maxpool]
size=2
stride=2

[convolutional]
filters=3
size=1
stride=1
activation=relu
"""


# the connected layer's output (6x1x1) is marked like a conv layer's
CONNECTED_THEN_CONV = """
[net]
height=3
width=3
channels=1

[convolutional]
filters=2
size=3
stride=1
pad=1
activation=relu

[connected]
outputs=6
activation=relu

[convolutional]
filters=2
size=1
stride=1
activation=linear
"""


class TestForward:
    def test_composition_matches_manual_layer_calls(self, rng):
        model = build_model(TOY_NET, rng=rng)
        image = random_input(rng, (2, 6, 6))
        out = forward(model, image)
        off = PruneConfig()
        x = conv_forward_fast(image, model.layers[0], model.weights[0])
        x = Tensor(apply_activation(x.data, "relu", off))
        x = maxpool_forward(x, 2, 2)
        x = conv_forward_fast(x, model.layers[2], model.weights[2])
        x = Tensor(apply_activation(x.data, "relu", off))
        assert np.array_equal(out.data, x.data)

    def test_epsilon_zero_identity_on_relu_net(self, rng):
        model = build_model(TOY_NET, rng=rng)
        image = random_input(rng, (2, 6, 6))
        plain = forward(model, image)
        pruned = forward(model, image, literal(0.0))
        assert np.array_equal(plain.data, pruned.data)

    def test_epsilon_zero_identity_on_leaky_net(self, rng):
        model = build_model(TOY_NET.replace("activation=relu", "activation=leaky"), rng=rng)
        image = random_input(rng, (2, 6, 6))
        plain = forward(model, image)
        pruned = forward(model, image, literal(0.0))
        assert np.array_equal(plain.data, pruned.data)

    def test_forced_zero_channel_is_skipped(self, rng):
        model = build_model(TOY_NET, rng=rng)
        # filter 1 can never fire: zero weights and a negative bias; loaded
        # arrays are read-only, so the block is rebuilt from copies
        weights, biases = model.weights[0].weights.copy(), model.weights[0].biases.copy()
        weights[1] = 0.0
        biases[1] = -3.0
        model.weights[0] = WeightBlock(weights, biases)
        recorder = LoadRecorder()
        image = random_input(rng, (2, 6, 6))
        pruned = forward(model, image, literal(0.0), recorder=recorder)
        plain = forward(model, image)
        assert np.array_equal(plain.data, pruned.data)
        rows = {r.layer_index: r for r in recorder.rows}
        assert rows[0].channels_skipped == 0
        assert rows[2].channels_skipped == 1
        assert rows[2].channels_total == 4

    def test_input_shape_checked(self, rng):
        model = build_model(TOY_NET, rng=rng)
        with pytest.raises(ShapeError):
            forward(model, random_input(rng, (2, 5, 6)))

    def test_model_without_weights_rejected(self, rng):
        with pytest.raises(ShapeError, match="layer 0 has no weights loaded"):
            forward(parse_config(TOY_NET), random_input(rng, (2, 6, 6)))

    def test_magnitude_and_literal_differ_on_negatives(self, rng):
        model = build_model(TOY_NET.replace("activation=relu", "activation=leaky"), rng=rng)
        image = random_input(rng, (2, 6, 6))
        lit = forward(model, image, PruneConfig(0.05, 0.01, MODE_LITERAL))
        mag = forward(model, image, PruneConfig(0.05, 0.01, MODE_MAGNITUDE))
        # magnitude mode prunes the whole [-eps/leak, eps] band, literal only
        # [-leak*eps, eps]; leaky nets expose the difference
        assert not np.array_equal(lit.data, mag.data)

    def test_linear_activations_pass_through(self, rng):
        model = build_model(TOY_NET.replace("activation=relu", "activation=linear"), rng=rng)
        image = random_input(rng, (2, 6, 6))
        plain = forward(model, image)
        pruned = forward(model, image, literal(0.0))
        assert np.array_equal(plain.data, pruned.data)

    def test_magnitude_epsilon_zero_identity_on_random_nets(self):
        rng = np.random.default_rng(5)
        skipped = 0
        for case in range(200):
            model = random_relu_net(rng)
            if case % 2:
                for layer in model.layers:
                    if layer.kind == "convolutional":
                        layer.activation = "leaky"
            image = random_input(rng, model.input_shape)
            recorder = LoadRecorder()
            pruned = forward(model, image, PruneConfig(0.0, mode=MODE_MAGNITUDE), recorder=recorder)
            assert np.array_equal(forward(model, image).data, pruned.data), case
            skipped += sum(r.channels_skipped for r in recorder.rows)
        assert skipped > 0

    def test_conv_after_connected_skips_its_zero_outputs(self, rng):
        model = build_model(CONNECTED_THEN_CONV, rng=rng)
        outputs = {}
        recorder = LoadRecorder()
        forward(model, random_input(rng, model.input_shape), literal(0.0), recorder=recorder,
                layer_tap=lambda layer, x: outputs.setdefault(layer.index, x.data.copy()))
        zeros = int(np.count_nonzero(outputs[1] == 0))
        assert zeros > 0
        assert [r.layer_index for r in recorder.rows] == [0, 2]
        assert recorder.rows[1].channels_skipped == zeros


# MobileNet-shaped: a dense stem, then 3×3 depth-wise and 1×1 point-wise pairs
MOBILE_NET = """
[net]
height=16
width=16
channels=3

[convolutional]
filters=8
size=3
stride=2
pad=1
activation=relu

[convolutional]
filters=8
size=3
stride=1
pad=1
groups=8
activation=relu

[convolutional]
filters=16
size=1
stride=1
activation=relu

[convolutional]
filters=16
size=3
stride=2
pad=1
groups=16
activation=relu

[convolutional]
filters=12
size=1
stride=1
activation=relu

[avgpool]

[connected]
outputs=10
activation=linear

[softmax]
"""


def mobile_net(rng):
    """MOBILE_NET with random weights and about a third of each conv layer's
    channels dead (zero weights, negative bias), so marks reach every layer."""
    model = build_model(MOBILE_NET, rng=rng)
    for i, (layer, block) in enumerate(zip(model.layers, model.weights)):
        if layer.kind == "convolutional":
            weights, biases = block.weights.copy(), block.biases.copy()
            dead = rng.random(layer.filters) < 0.35
            weights[dead] = 0.0
            biases[dead] = -1.0
            model.weights[i] = WeightBlock(weights, biases)
    return model


def bits(a):
    return np.ascontiguousarray(a).view(np.uint32)


def in_new_thread(fn):
    """fn's result, run in a fresh thread, which starts with empty scratch memory."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn).result(timeout=60)


class TestConvScratch:
    """conv_forward_fast keeps its temporaries in per-thread scratch memory
    that is reused across calls: nothing a caller holds may live there, and
    reuse must never change a bit."""

    def test_tapped_outputs_and_mark_tables_survive_later_forwards(self, rng):
        model, other = mobile_net(rng), build_model(TOY_NET, rng=rng)
        held = []

        def tap(layer, x):
            held.append((x.data, x.data.copy()))
            table = mark_zero_channels(x, 0.1)
            held.append((table.fmap.data, x.data.copy()))

        forward(model, random_input(rng, model.input_shape), literal(0.1), layer_tap=tap)
        for _ in range(2):
            forward(model, random_input(rng, model.input_shape), literal(0.1))
            forward(other, random_input(rng, other.input_shape))
        assert len(held) == 2 * len(model.layers)
        for data, saved in held:
            assert np.array_equal(bits(data), bits(saved))

    def test_growing_the_scratch_changes_no_bit(self, rng):
        depthwise = make_conv(16, 9, 9, 16, 3, pad=1, groups=16)
        dense = make_conv(6, 9, 9, 8, 3, stride=2, pad=1)
        large = make_conv(64, 40, 40, 64, 1)
        calls = [(random_input(rng, layer.in_shape), layer, conv_block(rng, layer), marked)
                 for layer, marked in [(depthwise, rng.random(16) < 0.3),
                                       (dense, np.isin(np.arange(6), [2])),
                                       (large, None)]]

        def run():
            # each layer's first call sizes the arena that its next call gets
            outputs = [[conv_forward_fast(*call).data for call in calls[:2]] for _ in range(2)]
            conv_forward_fast(*calls[2])
            conv_forward_fast(*calls[2])
            return outputs + [[conv_forward_fast(*call).data for call in calls[:2]]]

        runs = in_new_thread(run)
        for outputs in runs[1:]:
            for got, first in zip(outputs, runs[0]):
                assert np.array_equal(bits(got), bits(first))

    def test_concurrent_forwards_match_sequential_runs(self, rng):
        model, other = mobile_net(rng), build_model(TOY_NET, rng=rng)
        cases = [(model, random_input(rng, model.input_shape), literal(0.1)),
                 (model, random_input(rng, model.input_shape), PruneConfig()),
                 (other, random_input(rng, other.input_shape), literal(0.0)),
                 (model, random_input(rng, model.input_shape), literal(0.0))]
        expected = [forward(*case).data for case in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(cases)) as pool:
                futures = [pool.submit(lambda case=case: [forward(*case).data for _ in range(40)])
                           for case in cases]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for want, runs in zip(expected, results):
            for got in runs:
                assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("k,groups", [(3, 128), (1, 1)])
    def test_warm_call_allocates_only_its_output_and_gathered_input(self, rng, k, groups):
        # MobileNet-shaped: 128 channels at 28², a quarter of them marked
        layer = make_conv(128, 28, 28, 128, k, pad=k // 2, groups=groups)
        block = conv_block(rng, layer)
        t = random_input(rng, layer.in_shape)
        marked = rng.random(128) < 0.25
        for _ in range(2):  # the first call sizes this thread's arena, the second makes it
            conv_forward_fast(t, layer, block, marked)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = conv_forward_fast(t, layer, block, marked)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        gathered = int((~marked).sum()) * t.h * t.w * 4
        # a float64 temporary of this layer (patch rows, products or
        # kernels) would take at least 400 KiB more than the 64 KiB slack
        assert peak <= out.data.nbytes + gathered + (64 << 10)


class TestFloat32Sums:
    """A group that reads one input channel through at most _F32_MAX_TAPS
    taps is summed in float32; every other layer in float64."""

    def test_depthwise_3x3_within_the_float32_bound(self, rng):
        for stride in (1, 2):
            layer = make_conv(32, 20, 20, 64, 3, stride=stride, pad=1, groups=32)
            block = WeightBlock(rng.normal(size=(64, 1, 3, 3)).astype(np.float32),
                                np.zeros(64, np.float32))
            t = random_input(rng, layer.in_shape)
            sums, magnitudes = conv_sums_float64(t, layer, block)
            got = conv_forward_fast(t, layer, block).data
            assert (np.abs(got - sums) <= 1e-6 * magnitudes).all()

    @pytest.mark.parametrize("mode", [MODE_LITERAL, MODE_MAGNITUDE])
    def test_epsilon_zero_matches_off_bit_for_bit(self, rng, mode):
        model = mobile_net(rng)
        for _ in range(5):
            image = random_input(rng, model.input_shape)
            recorder = LoadRecorder()
            pruned = forward(model, image, PruneConfig(0.0, mode=mode), recorder=recorder)
            assert np.array_equal(bits(pruned.data), bits(forward(model, image).data))
            depthwise_skips = [r.channels_skipped for r in recorder.rows if r.layer_index in (1, 3)]
            assert min(depthwise_skips) > 0

    @pytest.mark.parametrize("c,o,k,groups", [(8, 16, 1, 1), (12, 12, 5, 12)])
    def test_other_layers_stay_float64(self, rng, c, o, k, groups):
        # a 1×1 layer over 8 channels and a 5×5 depth-wise layer: the float64
        # sums rounded once to float32 match bit for bit, which float32 sums
        # of 8 or 25 terms would not
        layer = make_conv(c, 24, 24, o, k, pad=k // 2, groups=groups)
        block = conv_block(rng, layer)
        t = random_input(rng, layer.in_shape)
        sums, _ = conv_sums_float64(t, layer, block)
        expected = sums.astype(np.float32) + block.biases[:, None, None]
        assert np.array_equal(bits(conv_forward_fast(t, layer, block).data), bits(expected))


# Every conv and connected layer here is cut with two parts: the dense stem
# and the point-wise layer by filters (24 = 8 + 16, 20 = 8 + 12), the
# depth-wise layer by groups, the connected layers by rows (40 = 16 + 24).
PARTS_NET = """
[net]
height=12
width=12
channels=3

[convolutional]
filters=24
size=3
stride=1
pad=1
activation=relu

[convolutional]
filters=24
size=3
stride=2
pad=1
groups=24
activation=relu

[convolutional]
filters=20
size=1
stride=1
activation=relu

[maxpool]
size=2
stride=2

[connected]
outputs=40
activation=relu

[connected]
outputs=17
activation=linear

[softmax]
"""


class TestParts:
    """With two parts, each conv and connected layer's products are cut
    between the calling thread and one worker thread. The cut must change
    no bit, and the caller must return or raise only once both parts have
    stopped."""

    def test_connected_two_parts_match_one_part(self, rng, monkeypatch):
        for o, n in [(1, 5), (15, 9), (16, 9), (17, 300), (40, 33), (1000, 64)]:
            w = rng.normal(size=(o, n)).astype(np.float32)
            b = rng.normal(size=o).astype(np.float32)
            block = WeightBlock(w.reshape(o, n, 1, 1), b)
            x = random_input(rng, (n, 1, 1)).data.ravel()
            exact = w.astype(np.float64) @ x.astype(np.float64) + b
            scale = np.abs(w).astype(np.float64) @ np.abs(x).astype(np.float64)
            outputs = []
            for parts in (1, 2):
                set_parts(monkeypatch, parts)
                got = connected_forward(Tensor(x.reshape(n, 1, 1)), block).data.ravel()
                assert np.all(np.abs(got - exact) <= 1e-5 * scale + 1e-6), (o, n, parts)
                outputs.append(got)
            assert np.array_equal(bits(outputs[0]), bits(outputs[1])), (o, n)

    def test_worker_error_reaches_caller_after_its_part(self, monkeypatch):
        set_parts(monkeypatch, 2)
        ran = []

        def part(start, stop):
            ran.append((start, stop, threading.get_ident()))
            if start:
                raise RuntimeError("worker part failed")
            time.sleep(0.05)
            ran.append("caller part done")

        with pytest.raises(RuntimeError, match="worker part failed"):
            inference._in_parts(part, 20, 8, 1, 1)
        assert ran[-1] == "caller part done"
        parts = sorted(r for r in ran if isinstance(r, tuple))
        assert [(start, stop) for start, stop, _ in parts] == [(0, 8), (8, 20)]
        assert parts[0][2] == threading.get_ident() != parts[1][2]

    def test_a_part_with_too_little_work_is_not_cut(self, rng, monkeypatch):
        """With two CPUs, a product is cut only when each part holds at
        least _MIN_PART_MACS multiply-adds (a group counting those beyond
        _GROUP_CALL_MACS); set_parts lifts that minimum."""
        monkeypatch.setattr(inference, "_PARTS", 2)
        ran = []
        inference._in_parts(lambda a, b: ran.append((a, b)), 20, 8, 1, 9)
        inference._in_parts(lambda a, b: ran.append((a, b)), 20, 8, 1, 8)
        assert sorted(ran) == [(0, 8), (0, 20), (8, 20)]

        handed = []
        jobs = inference._worker_jobs
        monkeypatch.setattr(inference, "_worker_jobs", lambda: handed.append(1) or jobs())
        classifier = WeightBlock(rng.normal(size=(1000, 1024, 1, 1)).astype(np.float32),
                                 np.zeros(1000, np.float32))
        features = random_input(rng, (1024, 1, 1))
        small_dw = make_conv(512, 14, 14, 512, 3, pad=1, groups=512)  # 1764 MACs a group
        large_dw = make_conv(64, 56, 56, 64, 3, pad=1, groups=64)     # 28224 MACs a group
        pointwise = make_conv(16, 8, 8, 32, 1)                        # 8192 MACs a part
        whole = connected_forward(features, classifier).data
        for layer in (small_dw, pointwise):
            conv_forward_fast(random_input(rng, layer.in_shape), layer, conv_block(rng, layer))
        assert handed == []
        conv_forward_fast(random_input(rng, large_dw.in_shape), large_dw,
                          conv_block(rng, large_dw))
        assert handed == [1]
        set_parts(monkeypatch, 2)
        assert np.array_equal(bits(connected_forward(features, classifier).data), bits(whole))
        assert handed == [1, 1]

    def test_cuts_where_the_least_units_rule_did(self, monkeypatch):
        """_in_parts decides from multiply-adds where an earlier rule decided
        from units: a part needed ceil(least_macs / unit_macs) units, and at
        least one, and a unit of no multiply-adds never cut. For positive
        integers, mid >= ceil(m / u) exactly when mid * u >= m."""
        monkeypatch.setattr(inference, "_PARTS", 2)
        minimums = [0, *sorted(set(inference._MIN_PART_MACS.values()))]
        units = [-5, 0, 1, 7, 2048, 4095, 4096, 5000, 1 << 16, 1 << 17, 1 << 20]
        for n, align, unit, least in itertools.product(range(65), (1, 8), units, minimums):
            mid = align * (n // (2 * align))
            need = -(-least // unit) if unit > 0 else 1 << 62
            want = [(0, mid), (mid, n)] if mid >= max(need, 1) else [(0, n)]
            ran = []
            inference._in_parts(lambda a, b: ran.append((a, b)), n, align, unit, least)
            assert sorted(ran) == want, (n, align, unit, least)

    @pytest.mark.parametrize("net,size,cut", [
        ("mobilenet", "full", [*range(11), *range(12, 27, 2)]),
        ("alexnet", "full", [0, 2, 4, 5, 6, 8, 9]),
        ("mobilenet", "tiny", []),
        ("alexnet", "tiny", []),
    ])
    def test_benchmark_layers_cut(self, rng, monkeypatch, net, size, cut):
        """Which weighted layers of the benchmark's nets are cut on two CPUs
        with the real minimums, unmarked and with a fifth of each input's
        channels marked. MobileNet-224 runs its depth-wise layers at 14² and
        7² and its 1000×1024 classifier whole. AlexNet-227 runs its
        1000×4096 layer whole, the closest call: 496 rows of 4096, 2.03M
        multiply-adds a part, against 2²¹. Their test nets run every layer
        whole. An unmarked layer is cut in halves of its outputs. AlexNet's
        two large connected layers (150 and 67 MB of weights) are checked
        through _in_parts with their shapes' numbers."""
        monkeypatch.setattr(inference, "_PARTS", 2)
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        workloads = importlib.import_module("workloads")
        side, layers = getattr(workloads, f"{net}_layers")(size)
        model = parse_config(workloads.config_text(side, layers))
        handed = []
        jobs = inference._worker_jobs

        class Handoffs:
            def put(self, job):  # job: (part, mid, n, done)
                handed.append(job[1:3])
                jobs().put(job)

        monkeypatch.setattr(inference, "_worker_jobs", Handoffs)
        for share in (0.0, 0.2):
            found = []
            for layer in model.layers:
                out = layer.out_shape[0]
                handed.clear()
                if layer.kind == "connected" and out * math.prod(layer.in_shape) > 1 << 24:
                    inference._in_parts(lambda a, b: None, out, inference._ROW_ALIGN,
                                        math.prod(layer.in_shape),
                                        inference._MIN_PART_MACS["connected"])
                elif layer.kind == "connected":
                    block = WeightBlock(np.ones((out, *layer.in_shape), np.float32),
                                        np.zeros(out, np.float32))
                    connected_forward(random_input(rng, layer.in_shape), block)
                elif layer.kind == "convolutional":
                    marked = rng.random(layer.in_shape[0]) < share if layer.index else None
                    conv_forward_fast(random_input(rng, layer.in_shape), layer,
                                      conv_block(rng, layer), marked=marked)
                if handed:
                    found.append(layer.index)
                    assert share or handed == [(out // 2, out)], (layer.index, handed)
            assert found == cut, share

    def test_caller_error_waits_for_the_worker_part(self, monkeypatch):
        set_parts(monkeypatch, 2)
        ran = []

        def part(start, stop):
            if not start:
                raise ValueError("caller part failed")
            time.sleep(0.05)
            ran.append("worker part done")

        with pytest.raises(ValueError, match="caller part failed"):
            inference._in_parts(part, 20, 8, 1, 1)
        assert ran == ["worker part done"]

    def test_kernel_error_in_the_worker_part(self, rng, monkeypatch):
        set_parts(monkeypatch, 2)
        layer = make_conv(6, 9, 9, 20, 3, pad=1)  # one group of 20 filters: 8 + 12
        block, t = conv_block(rng, layer), random_input(rng, layer.in_shape)
        want = conv_forward_fast(t, layer, block).data
        in_parts, caller, done = inference._in_parts, threading.get_ident(), []

        def failing_in_the_worker(part, n, align, unit_macs, least_macs):
            def wrapped(start, stop):
                if threading.get_ident() != caller:
                    raise MemoryError("worker part")
                time.sleep(0.05)
                part(start, stop)
                done.append((start, stop))
            in_parts(wrapped, n, align, unit_macs, least_macs)

        monkeypatch.setattr(inference, "_in_parts", failing_in_the_worker)
        with pytest.raises(MemoryError, match="worker part"):
            conv_forward_fast(t, layer, block)
        assert done == [(0, 8)]  # the caller's filters
        # the worker thread survives its part's error
        monkeypatch.setattr(inference, "_in_parts", in_parts)
        assert np.array_equal(bits(conv_forward_fast(t, layer, block).data), bits(want))

    def test_two_callers_match_sequential_runs(self, rng, monkeypatch):
        set_parts(monkeypatch, 2)
        model = build_model(PARTS_NET, rng=rng)
        for i, (layer, block) in enumerate(zip(model.layers, model.weights)):
            if layer.kind == "convolutional":  # dead channels, so marks reach every layer
                weights, biases = block.weights.copy(), block.biases.copy()
                dead = rng.random(layer.filters) < 0.35
                weights[dead], biases[dead] = 0.0, -1.0
                model.weights[i] = WeightBlock(weights, biases)
        cases = [(random_input(rng, model.input_shape), cfg)
                 for cfg in (literal(0.1), PruneConfig(), literal(0.0),
                             PruneConfig(epsilon=0.05, mode=MODE_MAGNITUDE))]

        def run(x, cfg):
            recorder = LoadRecorder()
            scores = forward(model, x, cfg, recorder=recorder).data
            return bits(scores), [(r.layer_index, r.channels_skipped, r.elements_loaded,
                                   r.kernel_coeffs_skipped) for r in recorder.rows]

        expected = [run(*case) for case in cases]
        assert sum(row[1] for _, rows in expected for row in rows) > 0
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(lambda order=order: [(i, run(*cases[i])) for _ in range(10)
                                                            for i in order])
                           for order in ([0, 1, 2, 3], [3, 2, 1, 0])]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for runs in results:
            for i, (scores, rows) in runs:
                assert np.array_equal(scores, expected[i][0]) and rows == expected[i][1]

    def test_worker_starts_on_first_cut_and_again_after_fork(self):
        if not hasattr(os, "fork"):
            pytest.skip("needs os.fork")
        script = """
import os, threading, warnings
import numpy as np
import fmprune
from fmprune import inference
assert threading.active_count() == 1, "importing started a thread"
inference._PARTS = 2
inference._MIN_PART_MACS = dict.fromkeys(inference._MIN_PART_MACS, 0)
inference._GROUP_CALL_MACS = 0
out = inference.connected_forward(inference.Tensor(np.ones((8, 1, 1), np.float32)),
                                  inference.WeightBlock(np.ones((32, 8, 1, 1)), np.zeros(32)))
assert threading.active_count() == 2, "no worker thread after a cut"
warnings.simplefilter("ignore", DeprecationWarning)  # fork with a thread running
pid = os.fork()
if pid == 0:
    again = inference.connected_forward(inference.Tensor(np.ones((8, 1, 1), np.float32)),
                                        inference.WeightBlock(np.ones((32, 8, 1, 1)),
                                                              np.zeros(32)))
    os._exit(0 if np.array_equal(again.data, out.data) else 1)
assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0, "forked child failed"
"""
        src = str(Path(inference.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
