import re
import sys

import numpy as np
import pytest

import fmprune.model
from fmprune import (
    ConfigError, ConfigWarning, PruneConfig, Tensor, WeightBlock, WeightsError,
    apply_activation, conv_forward_fast, fold_batch_norm, forward, load_weights, parse_config,
    save_weights,
)
from conftest import count_layer_floats_oracle, header_blob, weights_blob
from oracles import conv_forward_reference

BASIC_CONV = """
[net]
height=4
width=4
channels=1

[convolutional]
filters=2
size=3
stride=1
pad=1
activation=relu
"""


def test_parse_basic_conv_shape():
    model = parse_config(BASIC_CONV)
    assert model.input_shape == (1, 4, 4)
    layer = model.layers[0]
    assert layer.kind == "convolutional"
    assert layer.padding == 1
    assert layer.out_shape == (2, 4, 4)


def test_parse_maxpool_shape():
    model = parse_config(BASIC_CONV + "\n[maxpool]\nsize=2\nstride=2\n")
    assert model.layers[1].out_shape == (2, 2, 2)


def test_parse_avgpool_connected_softmax_chain():
    text = BASIC_CONV + """
[avgpool]

[connected]
outputs=3
activation=linear

[softmax]
"""
    model = parse_config(text)
    shapes = [l.out_shape for l in model.layers]
    assert shapes == [(2, 4, 4), (2, 1, 1), (3, 1, 1), (3, 1, 1)]


def test_depthwise_weight_count_matches_enumeration():
    text = """
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
    model = parse_config(text)
    layer = model.layers[0]
    # count filter slots one by one: each filter reads a single channel
    slots = 0
    for _f in range(3):
        for _c in range(1):
            for _ky in range(3):
                for _kx in range(3):
                    slots += 1
    assert layer.filters * (layer.in_shape[0] // layer.groups) * layer.size ** 2 == slots
    # the loader consumes exactly the enumerated slots plus one bias per filter
    stream = header_blob() + np.zeros(slots + 3, dtype=np.float32).tobytes()
    assert load_weights(stream, model).weights[0].weights.shape == (3, 1, 3, 3)
    with pytest.raises(WeightsError):
        load_weights(stream[:-4], parse_config(text))


def test_parse_errors():
    with pytest.raises(ConfigError):
        parse_config("[net]\nheight=4\nwidth=4\n")  # channels missing
    with pytest.raises(ConfigError):
        parse_config("[convolutional]\nfilters=1\n")  # no [net] first
    with pytest.raises(ConfigError):
        parse_config(BASIC_CONV + "\n[shortcut]\nfrom=-3\n")
    with pytest.raises(ConfigError):
        parse_config(BASIC_CONV.replace("pad=1", "pad"))
    with pytest.raises(ConfigError):
        parse_config(BASIC_CONV.replace("activation=relu", "activation=mish"))
    with pytest.raises(ConfigError):
        parse_config(BASIC_CONV.replace("filters=2", "filters=2\ngroups=4"))
    with pytest.raises(ConfigError):
        parse_config(BASIC_CONV.replace("filters=2", "filters=3\ngroups=3"))
    with pytest.raises(ConfigError):
        parse_config("[net]\nheight=4\nwidth=4\nchannels=1\n\n[convolutional]\nsize=9\n")


@pytest.mark.parametrize("text,message", [
    (BASIC_CONV.replace("activation=relu", "activation=mish"),
     r"^\[convolutional\] line 7: unsupported activation 'mish'$"),
    (BASIC_CONV + "\n[connected]\noutputs=3\nactivation=tanh\n",
     r"^\[connected\] line 14: unsupported activation 'tanh'$"),
])
def test_unsupported_activation_names_section_and_line(text, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(text)


def test_second_net_section_rejected():
    with pytest.raises(ConfigError, match=r"line 14: duplicate \[net\] section"):
        parse_config(BASIC_CONV + "\n[net]\nheight=4\nwidth=4\nchannels=1\n")


def test_unknown_keys_warn_and_are_ignored():
    with pytest.warns(ConfigWarning):
        model = parse_config(BASIC_CONV.replace("[net]", "[net]\nmomentum=0.9\nbatch=64"))
    assert model.input_shape == (1, 4, 4)
    with pytest.warns(ConfigWarning):
        parse_config(BASIC_CONV.replace("pad=1", "pad=1\nflipped=0"))


def test_comments_are_stripped():
    text = "# top comment\n" + BASIC_CONV.replace("filters=2", "filters=2 # two filters")
    assert parse_config(text).layers[0].filters == 2


def test_load_weights_count_no_bn():
    model = parse_config(BASIC_CONV)
    # closed form: O + O*(C/g)*K*K = 2 + 18 = 20 floats
    blob = header_blob() + np.arange(20, dtype=np.float32).tobytes()
    model = load_weights(blob, model)
    block = model.weights[0]
    assert block.biases.tolist() == [0.0, 1.0]
    assert block.weights.shape == (2, 1, 3, 3)
    assert block.weights[0, 0, 0, 0] == 2.0


def test_load_weights_count_with_bn():
    text = BASIC_CONV.replace("pad=1", "pad=1\nbatch_normalize=1")
    model = parse_config(text)
    blob = header_blob() + np.arange(26, dtype=np.float32).tobytes()
    model = load_weights(blob, model)
    block = model.weights[0]
    assert block.has_batch_norm
    assert block.bn_scales.tolist() == [2.0, 3.0]
    assert block.bn_rolling_mean.tolist() == [4.0, 5.0]
    assert block.bn_rolling_var.tolist() == [6.0, 7.0]


def test_load_weights_empty_stream():
    model = parse_config(BASIC_CONV)
    with pytest.raises(WeightsError):
        load_weights(b"", model)


def test_load_weights_truncated_and_trailing():
    model = parse_config(BASIC_CONV)
    blob = weights_blob(model, values=np.zeros(20))
    with pytest.raises(WeightsError):
        load_weights(blob[:-4], parse_config(BASIC_CONV))
    with pytest.raises(WeightsError):
        load_weights(blob + b"\x00" * 4, parse_config(BASIC_CONV))


def test_failed_load_leaves_skeleton_unchanged():
    text = BASIC_CONV + "\n[convolutional]\nfilters=3\nsize=1\nstride=1\nactivation=linear\n"
    skeleton = parse_config(text)
    blob = weights_blob(skeleton)
    for bad in (blob[:-4], blob + b"\x00" * 4, blob[:40]):
        with pytest.raises(WeightsError):
            load_weights(bad, skeleton)
        assert skeleton.weights == [None, None]
        assert skeleton.header is None
    loaded = load_weights(blob, skeleton)
    assert loaded is skeleton
    assert all(b is not None for b in skeleton.weights) and skeleton.header is not None


# BN conv, then a connected layer of 2100 x 32 = 67200 weights, more than one
# 64 Ki-value slice of the finiteness check; the stream index of a value in
# each array: biases 0-1, bn scales 2-3, bn rolling mean 4-5, bn rolling
# variance 6-7, coefficients 8-25, connected biases 26-2125, weights 2126-69325
BN_CONV_CONNECTED = (BASIC_CONV.replace("pad=1", "pad=1\nbatch_normalize=1")
                     + "\n[connected]\noutputs=2100\nactivation=linear\n")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("index, array", [
    (1, "layer 0 biases"), (2, "layer 0 bn scales"), (5, "layer 0 bn rolling mean"),
    (7, "layer 0 bn rolling variance"), (20, "layer 0 coefficients"),
    (26, "layer 1 biases"), (2126, "layer 1 weights"), (69325, "layer 1 weights"),
])
def test_non_finite_weight_is_rejected_naming_its_array(rng, bad, index, array):
    skeleton = parse_config(BN_CONV_CONNECTED)
    values = rng.normal(size=69326)
    values[index] = bad
    with pytest.raises(WeightsError, match=f"^{re.escape(array)}: non-finite value$"):
        load_weights(weights_blob(skeleton, values=values), skeleton)
    assert skeleton.weights == [None, None]
    assert skeleton.header is None


@pytest.mark.skipif(sys.byteorder != "little",
                    reason="WeightBlock converts little-endian arrays on a big-endian host")
def test_loaded_arrays_are_read_only_views_of_the_stream(rng):
    model = parse_config(BN_CONV_CONNECTED)
    blob = weights_blob(model, rng=rng)
    stream = np.frombuffer(blob, np.uint8)
    load_weights(blob, model)
    arrays = [arr for block in model.weights for arr in vars(block).values() if arr is not None]
    assert len(arrays) == 7
    for arr in arrays:
        assert np.shares_memory(arr, stream)
        assert not arr.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        model.weights[1].biases[0] = 0.0


def test_seen_counter_width_depends_on_version():
    model = parse_config(BASIC_CONV)
    blob64 = weights_blob(model, values=np.zeros(20), header=header_blob(0, 2, 0, seen=77))
    loaded = load_weights(blob64, parse_config(BASIC_CONV))
    assert loaded.header.seen == 77 and loaded.header.seen_is_64bit
    blob32 = weights_blob(model, values=np.zeros(20), header=header_blob(0, 1, 0, seen=5))
    loaded = load_weights(blob32, parse_config(BASIC_CONV))
    assert loaded.header.seen == 5 and not loaded.header.seen_is_64bit


RANDOM_CFG_POOL = [
    ("convolutional", {"filters": 4, "size": 3, "stride": 1, "pad": 1, "activation": "relu"}),
    ("convolutional", {"filters": 6, "size": 1, "stride": 1, "activation": "leaky"}),
    ("convolutional", {"filters": 4, "size": 3, "stride": 2, "pad": 1,
                       "batch_normalize": 1, "activation": "relu"}),
    ("convolutional", {"filters": 4, "size": 3, "stride": 1, "pad": 1, "groups": 2,
                       "activation": "leaky"}),
    ("maxpool", {"size": 2, "stride": 2}),
    ("maxpool", {"size": 3, "stride": 2}),
]


def test_consumed_floats_match_enumeration_oracle(rng, tmp_path):
    covered = set()
    for _ in range(30):
        lines = ["[net]", "height=8", "width=8", "channels=2"]
        depth = int(rng.integers(1, 5))
        for _ in range(depth):
            kind, params = RANDOM_CFG_POOL[int(rng.integers(len(RANDOM_CFG_POOL)))]
            lines.append(f"[{kind}]")
            lines += [f"{k}={v}" for k, v in params.items()]
        if rng.random() < 0.5:
            lines += ["[connected]", "outputs=3", "activation=linear", "[softmax]"]
        model = parse_config("\n".join(lines))
        # weights_blob packs the enumerated count; the loader must consume it
        # exactly, and the saver must write the same stream back. The values
        # are non-negative so every batch-norm variance folds for the forward
        total = sum(count_layer_floats_oracle(layer) for layer in model.layers)
        blob = weights_blob(model, values=np.abs(rng.normal(scale=0.4, size=total)))
        loaded = load_weights(blob, model)
        assert saved_bytes(loaded, tmp_path) == blob
        assert all(
            (b is not None) == (l.kind in ("convolutional", "connected"))
            for l, b in zip(loaded.layers, loaded.weights)
        )
        # shape chain is consistent end to end, and the kernels produce the
        # shapes the parser resolved
        shape = loaded.input_shape
        for layer in loaded.layers:
            assert layer.in_shape == shape
            shape = layer.out_shape
            covered |= {layer.kind, "bn" * layer.batch_normalize, "groups" * (layer.groups > 1)}
            # a ceil-mode pool whose last window runs past the input
            if layer.kind == "maxpool":
                covered.add("overhang" * (layer.stride * (layer.out_shape[1] - 1) + layer.size
                                          > layer.in_shape[1]))
        out_shapes = {}
        forward(fold_batch_norm(loaded), Tensor(rng.normal(size=(2, 8, 8)).astype(np.float32)),
                layer_tap=lambda layer, x: out_shapes.setdefault(layer.index, x.shape))
        assert out_shapes == {layer.index: layer.out_shape for layer in loaded.layers}
    assert covered - {""} == {"convolutional", "bn", "groups", "maxpool", "overhang",
                              "connected", "softmax"}


def test_fold_near_identity():
    text = BASIC_CONV.replace("pad=1", "pad=1\nbatch_normalize=1")
    model = parse_config(text)
    values = np.concatenate([
        np.array([0.5, -0.25]),      # biases
        np.ones(2),                  # scales
        np.zeros(2),                 # rolling mean
        np.ones(2),                  # rolling variance
        np.full(18, 2.0),            # weights
    ])
    model = load_weights(weights_blob(model, values=values), model)
    folded = fold_batch_norm(model)
    block = folded.weights[0]
    assert not block.has_batch_norm
    assert not folded.layers[0].batch_normalize
    mult = 1.0 / np.sqrt(1.0 + 1e-6)
    assert block.weights[0, 0, 0, 0] == pytest.approx(2.0 * mult, rel=1e-6)
    assert block.biases.tolist() == pytest.approx([0.5, -0.25])


def test_fold_matches_explicit_bn_formula(rng):
    text = BASIC_CONV.replace("pad=1", "pad=1\nbatch_normalize=1")
    model = parse_config(text)
    weights = rng.normal(size=18)
    values = np.concatenate([
        np.array([0.3, -0.1]),            # biases (bn shift)
        np.array([2.0, 1.5]),             # scales
        np.array([0.5, -0.2]),            # rolling mean
        np.array([0.25, 0.9]),            # rolling variance
        weights,
    ])
    model = load_weights(weights_blob(model, values=values), model)
    folded = fold_batch_norm(model)
    mult0 = 2.0 / np.sqrt(0.25 + 1e-6)
    assert mult0 == pytest.approx(4.0, rel=1e-5)
    assert folded.weights[0].weights[0, 0, 0, 0] == pytest.approx(weights[0] * mult0, rel=1e-5)
    assert folded.weights[0].biases[0] == pytest.approx(0.3 - 0.5 * mult0, rel=1e-5)

    image = Tensor(rng.normal(size=(1, 4, 4)).astype(np.float32))
    unfolded_out = conv_forward_reference(image, model.layers[0], model.weights[0])
    folded_out = conv_forward_fast(image, folded.layers[0], folded.weights[0])
    folded_out = Tensor(apply_activation(folded_out.data, folded.layers[0].activation,
                                         PruneConfig()))
    assert np.abs(unfolded_out.data - folded_out.data).max() < 1e-4


def test_kernel_rejects_unfolded_batch_norm(rng):
    text = BASIC_CONV.replace("pad=1", "pad=1\nbatch_normalize=1")
    model = parse_config(text)
    values = np.concatenate([np.zeros(2), np.ones(2), np.zeros(2), np.ones(2), rng.normal(size=18)])
    model = load_weights(weights_blob(model, values=values), model)
    image = Tensor(rng.normal(size=(1, 4, 4)).astype(np.float32))
    with pytest.raises(ValueError, match="fold_batch_norm"):
        conv_forward_fast(image, model.layers[0], model.weights[0])


def test_fold_rejects_negative_variance():
    text = BASIC_CONV.replace("pad=1", "pad=1\nbatch_normalize=1")
    model = parse_config(text)
    values = np.concatenate([np.zeros(2), np.ones(2), np.zeros(2),
                             np.array([-1.0, 1.0]), np.zeros(18)])
    model = load_weights(weights_blob(model, values=values), model)
    with pytest.raises(WeightsError):
        fold_batch_norm(model)


def test_fold_leaves_input_model_unchanged(rng):
    text = BASIC_CONV.replace("pad=1", "pad=1\nbatch_normalize=1")
    model = parse_config(text)
    values = np.concatenate([rng.normal(size=2), np.ones(2), rng.normal(size=2),
                             np.array([0.7, 1.3]), rng.normal(size=18)])
    model = load_weights(weights_blob(model, values=values), model)
    before = model.weights[0].weights.copy()
    fold_batch_norm(model)
    assert np.array_equal(model.weights[0].weights, before)
    assert model.weights[0].has_batch_norm


def test_fold_shares_blocks_without_batch_norm(rng):
    text = (BASIC_CONV.replace("pad=1", "pad=1\nbatch_normalize=1")
            + "\n[convolutional]\nfilters=2\nsize=1\nstride=1\nactivation=relu\n")
    model = parse_config(text)
    values = np.concatenate([rng.normal(size=2), np.ones(2), rng.normal(size=2),
                             np.array([0.7, 1.3]), rng.normal(size=18), rng.normal(size=6)])
    model = load_weights(weights_blob(model, values=values), model)
    folded = fold_batch_norm(model)
    assert folded.weights[0] is not model.weights[0]
    assert folded.weights[1] is model.weights[1]


def saved_bytes(model, tmp_path) -> bytes:
    path = tmp_path / "saved.weights"
    save_weights(model, path)
    return path.read_bytes()


def test_save_weights_round_trip_bytes(rng, tmp_path):
    text = BASIC_CONV + "\n[connected]\noutputs=3\nactivation=linear\n"
    model = parse_config(text)
    blob = weights_blob(model, rng=rng, header=header_blob(0, 2, 1, seen=123))
    model = load_weights(blob, model)
    assert saved_bytes(model, tmp_path) == blob
    reloaded = load_weights(saved_bytes(model, tmp_path), parse_config(text))
    assert reloaded.header.revision == 1
    for a, b in zip(model.weights, reloaded.weights):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.biases, b.biases)


def test_save_weights_to_a_path_writes_the_same_bytes(rng, tmp_path):
    model = parse_config(BASIC_CONV)
    blob = weights_blob(model, rng=rng)
    model = load_weights(blob, model)
    target = tmp_path / "net.weights"
    assert save_weights(model, target) is None
    assert target.read_bytes() == blob
    assert [p.name for p in tmp_path.iterdir()] == ["net.weights"]


def test_save_through_a_symlink_writes_its_target(rng, tmp_path):
    model = parse_config(BASIC_CONV)
    blob = weights_blob(model, rng=rng)
    model = load_weights(blob, model)
    target, link = tmp_path / "net.weights", tmp_path / "link.weights"
    target.write_bytes(b"old contents")
    link.symlink_to(target)
    save_weights(model, link)
    assert link.is_symlink() and target.read_bytes() == blob


def test_failed_save_keeps_the_old_file_and_leaves_no_temporary(rng, tmp_path, monkeypatch):
    model = parse_config(BASIC_CONV)
    model = load_weights(weights_blob(model, rng=rng), model)
    target = tmp_path / "net.weights"
    target.write_bytes(b"old contents")

    def failing_replace(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(fmprune.model.os, "replace", failing_replace)
    with pytest.raises(OSError, match="replace failed"):
        save_weights(model, target)
    assert target.read_bytes() == b"old contents"
    assert [p.name for p in tmp_path.iterdir()] == ["net.weights"]


def test_save_error_midway_leaves_no_file(tmp_path):
    model = parse_config(BASIC_CONV + "\n[connected]\noutputs=3\nactivation=linear\n")
    model.weights[0] = WeightBlock(np.zeros((2, 1, 3, 3), np.float32), np.zeros(2, np.float32))
    with pytest.raises(WeightsError, match="layer 1 has no weights"):
        save_weights(model, tmp_path / "net.weights")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("weights, biases, message", [
    ((2, 2, 1, 1), 2, r"layer 0 coefficients: shape \(2, 2, 1, 1\) does not fit the layer's "
                      r"\(2, 1, 3, 3\)"),
    ((3, 1, 3, 3), 3, r"layer 0 biases: shape \(3,\) does not fit the layer's \(2,\)"),
])
def test_save_rejects_an_array_that_does_not_fit_its_layer(weights, biases, message, tmp_path):
    model = parse_config(BASIC_CONV)
    model.weights[0] = WeightBlock(np.zeros(weights, np.float32), np.zeros(biases, np.float32))
    with pytest.raises(WeightsError, match=message):
        save_weights(model, tmp_path / "net.weights")
    assert list(tmp_path.iterdir()) == []


def test_save_rejects_batch_norm_the_layer_does_not_declare(rng, tmp_path):
    text = BASIC_CONV + "\n[connected]\noutputs=3\nactivation=linear\n"
    model = parse_config(text)
    model = load_weights(weights_blob(model, rng=rng), model)
    fc = model.weights[1]
    model.weights[1] = WeightBlock(fc.weights, fc.biases, np.ones(3), np.zeros(3), np.ones(3))
    with pytest.raises(WeightsError, match="layer 1: batch_normalize"):
        save_weights(model, tmp_path / "net.weights")
    assert list(tmp_path.iterdir()) == []
