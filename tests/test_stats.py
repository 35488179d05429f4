import json

import numpy as np
import pytest

from fmprune import (
    PruneConfig, MODE_LITERAL, Tensor, activation_sparsity, classify_drop,
    compute_cost, conv_forward_fast, forward, parse_config, static_prune,
    weight_sparsity,
)
from conftest import build_model, random_input, weights_blob
from fmprune import load_weights

TINY = """
[net]
height=2
width=2
channels=1

[convolutional]
filters=1
size=1
stride=1
activation=linear

[connected]
outputs=2
activation=linear
"""


def tiny_model(conv_w, connected_w, conv_b=0.0, connected_b=(0.0, 0.0)):
    model = parse_config(TINY)
    values = np.concatenate([
        np.array([conv_b]), np.asarray(conv_w, dtype=np.float64).ravel(),
        np.asarray(connected_b, dtype=np.float64), np.asarray(connected_w, dtype=np.float64).ravel(),
    ])
    return load_weights(weights_blob(model, values=values), model)


class TestWeightSparsity:
    def test_direct_count(self):
        model = tiny_model([0.0], np.array([[0.004, 0.5, 0.7, 0.9], [1, 1, 1, 1]]))
        report = weight_sparsity(model, [0.0, 0.005])
        assert report.all_parameters == pytest.approx([1 / 9, 2 / 9])

    def test_all_zero_model(self):
        model = tiny_model([0.0], np.zeros((2, 4)))
        report = weight_sparsity(model, [0.0, 0.01])
        assert report.all_parameters == [1.0, 1.0]
        assert report.conv_kernels_only == [1.0, 1.0]

    def test_biases_excluded(self):
        model = tiny_model([0.5], np.full((2, 4), 0.5), conv_b=0.0, connected_b=(0.0, 0.0))
        report = weight_sparsity(model, [0.0])
        # every coefficient is 0.5; the zero biases must not count
        assert report.all_parameters == [0.0]

    def test_conv_scope_excludes_connected(self):
        model = tiny_model([0.0], np.full((2, 4), 0.5))
        report = weight_sparsity(model, [0.0])
        assert report.conv_kernels_only == [1.0]
        assert report.all_parameters == pytest.approx([1 / 9])

    def test_matches_sort_oracle(self, rng):
        cfg = """
[net]
height=6
width=6
channels=4

[convolutional]
filters=8
size=3
stride=1
pad=1
activation=relu

[connected]
outputs=3
activation=linear
"""
        model = build_model(cfg, rng=rng)
        thresholds = [0.0, 0.01, 0.05, 0.1, 0.5, 1.0]
        report = weight_sparsity(model, thresholds)
        coeffs = np.sort(np.abs(np.concatenate(
            [model.weights[0].weights.ravel(), model.weights[1].weights.ravel()])))
        for t, frac in zip(thresholds, report.all_parameters):
            oracle = float(np.searchsorted(coeffs, np.float32(t), side="right") / coeffs.size)
            assert frac == oracle

    def test_fractions_monotone(self, rng):
        model = build_model(TINY, rng=rng)
        report = weight_sparsity(model, [0.0, 0.01, 0.1, 1.0])
        assert report.all_parameters == sorted(report.all_parameters)
        assert report.conv_kernels_only == sorted(report.conv_kernels_only)

    def test_unsorted_thresholds_rejected(self, rng):
        model = build_model(TINY, rng=rng)
        with pytest.raises(ValueError):
            weight_sparsity(model, [0.1, 0.0])

    def test_csv_and_json(self, tmp_path, rng):
        model = build_model(TINY, rng=rng)
        report = weight_sparsity(model, [0.0, 0.1])
        csv_path = tmp_path / "r.csv"
        report.to_csv(csv_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("scope,0,0.1")
        assert len(lines) == 3
        payload = json.loads(report.to_json(tmp_path / "r.json"))
        assert payload["thresholds"] == [0.0, 0.1]


class TestStaticPrune:
    def test_threshold_application(self):
        model = tiny_model([0.004], np.array([[-0.02, 0.5, 0.004, 0.0], [1, 1, 1, 1]]))
        pruned = static_prune(model, 0.005)
        assert pruned.weights[0].weights.ravel().tolist() == [0.0]
        expected = np.array([-0.02, 0.5, 0.0, 0.0], dtype=np.float32)
        assert np.array_equal(pruned.weights[1].weights.ravel()[:4], expected)

    def test_negative_or_non_finite_epsilon_rejected(self, rng):
        model = build_model(TINY, rng=rng)
        for bad in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                static_prune(model, bad)

    def test_epsilon_zero_is_a_no_op(self, rng):
        model = build_model(TINY, rng=rng)
        pruned = static_prune(model, 0.0)
        for a, b in zip(model.weights, pruned.weights):
            assert np.array_equal(a.weights, b.weights)

    def test_input_model_unchanged_and_biases_kept(self, rng):
        model = tiny_model([0.004], np.full((2, 4), 0.001), conv_b=0.002, connected_b=(0.003, 0.0))
        before = model.weights[0].weights.copy()
        pruned = static_prune(model, 0.01)
        assert np.array_equal(model.weights[0].weights, before)
        assert pruned.weights[0].biases[0] == np.float32(0.002)
        assert pruned.weights[0].weights.ravel().tolist() == [0.0]

    def test_idempotent(self, rng):
        model = build_model(TINY, rng=rng)
        once = static_prune(model, 0.05)
        twice = static_prune(once, 0.05)
        for a, b in zip(once.weights, twice.weights):
            assert np.array_equal(a.weights, b.weights)

    def test_sparsity_identity(self, rng):
        cfg = TINY.replace("filters=1", "filters=4").replace("size=1", "size=2")
        model = build_model(cfg, rng=rng)
        eps = 0.2
        pruned = static_prune(model, eps)
        original = weight_sparsity(model, [eps]).all_parameters[0]
        after = weight_sparsity(pruned, [0.0]).all_parameters[0]
        assert after == original

    def test_forward_unchanged_when_no_weight_in_band(self, rng):
        # weights are exactly 0 or clearly above the threshold
        weights = np.array([[0.0, 0.8, -0.9, 0.7], [0.5, 0.0, 0.6, -0.5]])
        model = tiny_model([0.9], weights, conv_b=0.1, connected_b=(0.2, -0.3))
        pruned = static_prune(model, 0.3)
        image = random_input(rng, (1, 2, 2))
        assert np.array_equal(forward(model, image).data, forward(pruned, image).data)


CONV_ONLY = """
[net]
height=4
width=4
channels=2

[convolutional]
filters=3
size=3
stride=1
pad=1
activation=relu
"""


class TestActivationSparsity:
    def test_relu_zero_fraction_matches_preactivation_oracle(self, rng):
        model = build_model(CONV_ONLY, rng=rng)
        image = random_input(rng, (2, 4, 4))
        fractions = activation_sparsity(model, [image], [0.0])
        linear = build_model(CONV_ONLY.replace("activation=relu", "activation=linear"),
                             values=None, rng=None)
        linear.weights = model.weights
        pre = conv_forward_fast(image, linear.layers[0], linear.weights[0])
        oracle = float(np.count_nonzero(pre.data <= 0) / pre.data.size)
        assert fractions[0] == oracle

    def test_identity_net_all_ones(self):
        cfg = """
[net]
height=2
width=2
channels=1

[convolutional]
filters=1
size=1
stride=1
activation=linear
"""
        model = parse_config(cfg)
        model = load_weights(weights_blob(model, values=np.array([0.0, 1.0])), model)
        image = Tensor(np.ones((1, 2, 2), np.float32))
        assert activation_sparsity(model, [image], [0.5]) == [0.0]

    def test_monotone_in_threshold(self, rng):
        model = build_model(CONV_ONLY, rng=rng)
        images = [random_input(rng, (2, 4, 4)) for _ in range(3)]
        fractions = activation_sparsity(model, images, [0.0, 0.05, 0.1, 1.0])
        assert fractions == sorted(fractions)

    def test_empty_image_set_rejected(self, rng):
        model = build_model(CONV_ONLY, rng=rng)
        with pytest.raises(ValueError):
            activation_sparsity(model, [], [0.0])

    def test_pruning_config_shifts_fractions(self, rng):
        model = build_model(CONV_ONLY, rng=rng)
        image = random_input(rng, (2, 4, 4))
        plain = activation_sparsity(model, [image], [0.0])
        pruned = activation_sparsity(model, [image], [0.0],
                                     cfg=PruneConfig(0.2, 0.01, MODE_LITERAL))
        assert pruned[0] >= plain[0]


class TestComputeCost:
    def test_standard_formula(self):
        cfg = """
[net]
height=4
width=4
channels=3

[convolutional]
filters=8
size=3
stride=1
pad=1
activation=relu
"""
        model = parse_config(cfg)
        cost = compute_cost(model)
        assert cost.layers[0].macs == 3 * 9 * 8 * 16
        assert cost.total_macs == 3456

    def test_depthwise_formula(self):
        cfg = """
[net]
height=4
width=4
channels=3

[convolutional]
filters=3
size=3
stride=1
pad=1
groups=3
activation=relu
"""
        cost = compute_cost(parse_config(cfg))
        assert cost.layers[0].macs == 3 * 9 * 16

    def test_depthwise_is_one_over_o_of_standard(self):
        base = """
[net]
height=8
width=8
channels=4

[convolutional]
filters=4
size=3
stride=1
pad=1
{groups}activation=relu
"""
        dense = compute_cost(parse_config(base.format(groups="")))
        depthwise = compute_cost(parse_config(base.format(groups="groups=4\n")))
        assert dense.total_macs == 4 * depthwise.total_macs
        # feature-map to kernel-load ratio improves by the same factor
        assert depthwise.layers[0].fmap_to_kernel_ratio == \
            pytest.approx(4 * dense.layers[0].fmap_to_kernel_ratio)

    def test_stack_totals_match_hand_sum(self):
        cfg = """
[net]
height=8
width=8
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
"""
        model = parse_config(cfg)
        cost = compute_cost(model)
        # hand computation: layer shapes 3x8x8 -> 8x4x4 -> 8x4x4 -> 16x4x4
        layer0 = 3 * 9 * 8 * 16
        layer1 = 8 * 9 * 8 * 16 // 8
        layer2 = 8 * 1 * 16 * 16
        assert [l.macs for l in cost.layers] == [layer0, layer1, layer2]
        assert cost.total_macs == layer0 + layer1 + layer2


def test_classify_drop_colors():
    assert classify_drop(0.001, 0.0) == "green"
    assert classify_drop(0.02, 0.001) == "yellow"
    assert classify_drop(0.005, 0.012) == "yellow"
    assert classify_drop(0.02, 0.05) == "red"


def test_drop_classes_column_round_trips(tmp_path, rng):
    model = build_model(TINY, rng=rng)
    report = weight_sparsity(model, [0.0, 0.1, 0.5])
    drops = [(0.0, 0.0), (0.02, 0.005), (0.03, 0.04)]
    report.drop_classes = [classify_drop(t1, t5) for t1, t5 in drops]
    path = tmp_path / "classified.csv"
    report.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[-1] == "drop_class,green,yellow,red"
    payload = json.loads(report.to_json())
    assert payload["drop_classes"] == ["green", "yellow", "red"]


def test_cost_model_csv(tmp_path):
    cfg = """
[net]
height=4
width=4
channels=3

[convolutional]
filters=8
size=3
stride=1
pad=1
activation=relu
"""
    cost = compute_cost(parse_config(cfg))
    path = tmp_path / "cost.csv"
    cost.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("layer_index,in_channels")
    assert lines[-1].split(",")[6] == str(cost.total_macs)
