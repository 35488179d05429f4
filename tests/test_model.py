import numpy as np
import pytest

from fmprune import (
    ConfigError, ConfigWarning, Tensor, WeightsError, conv_forward_fast,
    count_weight_floats, fold_batch_norm, load_weights, parse_config, save_weights,
)
from conftest import count_layer_floats_oracle, header_blob, weights_blob

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
    assert count_weight_floats(layer) == slots + 3  # plus one bias per filter


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
    assert count_weight_floats(model.layers[0]) == 20
    blob = header_blob() + np.arange(20, dtype=np.float32).tobytes()
    model = load_weights(blob, model)
    block = model.weights[0]
    assert block.biases.tolist() == [0.0, 1.0]
    assert block.weights.shape == (2, 1, 3, 3)
    assert block.weights[0, 0, 0, 0] == 2.0


def test_load_weights_count_with_bn():
    text = BASIC_CONV.replace("pad=1", "pad=1\nbatch_normalize=1")
    model = parse_config(text)
    assert count_weight_floats(model.layers[0]) == 26
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
    ("maxpool", {"size": 2, "stride": 2}),
]


def test_consumed_floats_match_enumeration_oracle(rng):
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
        oracle = sum(count_layer_floats_oracle(l) for l in model.layers)
        assert sum(count_weight_floats(l) for l in model.layers) == oracle
        loaded = load_weights(weights_blob(model, rng=rng), model)
        assert all(
            (b is not None) == (l.kind in ("convolutional", "connected"))
            for l, b in zip(loaded.layers, loaded.weights)
        )
        # shape chain is consistent end to end
        shape = loaded.input_shape
        for layer in loaded.layers:
            assert layer.in_shape == shape
            shape = layer.out_shape


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
    unfolded_out = conv_forward_fast(image, model.layers[0], model.weights[0])
    folded_out = conv_forward_fast(image, folded.layers[0], folded.weights[0])
    assert np.abs(unfolded_out.data - folded_out.data).max() < 1e-4


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


def test_save_weights_round_trip_bytes(rng):
    text = BASIC_CONV + "\n[connected]\noutputs=3\nactivation=linear\n"
    model = parse_config(text)
    blob = weights_blob(model, rng=rng, header=header_blob(0, 2, 1, seen=123))
    model = load_weights(blob, model)
    assert save_weights(model) == blob
    reloaded = load_weights(save_weights(model), parse_config(text))
    assert reloaded.header.revision == 1
    for a, b in zip(model.weights, reloaded.weights):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.biases, b.biases)
