import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fmprune import (
    MODE_LITERAL, MODE_MAGNITUDE, MODE_OFF, LayerSpec, LoadRecorder, PruneConfig,
    ShapeError, Tensor, WeightBlock, apply_activation, avgpool_forward,
    connected_forward, conv_forward_fast, forward, mark_zero_channels, maxpool_forward,
    softmax_forward,
)
from conftest import build_model, conv_block, random_input, random_relu_net
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
        for bad in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                PruneConfig(epsilon=bad, mode=MODE_LITERAL)
        with pytest.raises(ValueError):
            PruneConfig(leak=0.0)
        with pytest.raises(ValueError):
            PruneConfig(leak=1.0)
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
