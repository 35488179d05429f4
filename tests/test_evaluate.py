import json
import math

import numpy as np
import pytest

import fmprune.imageio
from fmprune import (
    MODE_LITERAL, MODE_OFF, DatasetManifest, ManifestEntry, PruneConfig, Tensor,
    classify, epsilon_sweep, evaluate, load_class_names,
    load_manifest, parse_config,
)
from fmprune import load_weights
from conftest import (
    build_model, random_input, softmax_only_model, weights_blob, write_raw_tensor,
)

TWO_CLASS = """
[net]
height=1
width=1
channels=2

[connected]
outputs=2
activation=linear

[softmax]
"""


def two_class_model():
    model = parse_config(TWO_CLASS)
    # W = [[1, 0], [0, 2]], biases 0
    values = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 2.0])
    return load_weights(weights_blob(model, values=values), model)


def write_score_tensor(path, scores):
    data = np.asarray(scores, dtype=np.float32).reshape(len(scores), 1, 1)
    write_raw_tensor(Tensor(data), path)


class TestClassify:
    def test_hand_computed_ranking(self):
        model = two_class_model()
        ranked = classify(model, Tensor(np.array([3.0, 1.0], np.float32).reshape(2, 1, 1)))
        # logits are [3, 2]; softmax by hand
        z = math.exp(3.0) + math.exp(2.0)
        assert [idx for idx, _ in ranked] == [0, 1]
        assert ranked[0][1] == pytest.approx(math.exp(3.0) / z, rel=1e-5)
        assert ranked[1][1] == pytest.approx(math.exp(2.0) / z, rel=1e-5)

    def test_uniform_scores_tie_break_ascending(self):
        model = softmax_only_model(5)
        ranked = classify(model, Tensor(np.zeros((5, 1, 1), np.float32)))
        assert [idx for idx, _ in ranked] == [0, 1, 2, 3, 4]
        assert all(score == pytest.approx(0.2) for _, score in ranked)

    def test_epsilon_zero_matches_off(self, rng):
        cfg_text = """
[net]
height=4
width=4
channels=1

[convolutional]
filters=3
size=3
stride=1
pad=1
activation=relu

[avgpool]

[connected]
outputs=4
activation=linear

[softmax]
"""
        model = build_model(cfg_text, rng=rng)
        image = random_input(rng, (1, 4, 4))
        plain = classify(model, image)
        pruned = classify(model, image, PruneConfig(0.0, 0.01, MODE_LITERAL))
        assert plain == pruned

    def test_missing_softmax_layer_gets_probabilities(self):
        model = two_class_model()
        model.layers = model.layers[:-1]
        model.weights = model.weights[:-1]
        ranked = classify(model, Tensor(np.array([3.0, 1.0], np.float32).reshape(2, 1, 1)))
        assert sum(score for _, score in ranked) == pytest.approx(1.0)


class TestManifest:
    def test_load_and_validate(self, tmp_path):
        names = tmp_path / "names.txt"
        names.write_text("cat\ndog\neagle\n")
        manifest_path = tmp_path / "manifest.tsv"
        elsewhere = tmp_path.parent / "b.bin"
        manifest_path.write_text(f"a.bin\t0\n{elsewhere}\t2\nsub/c.bin\t1\n\n")
        manifest = load_manifest(manifest_path, class_names=load_class_names(names))
        assert [e.label for e in manifest.entries] == [0, 2, 1]
        # relative paths resolve against the manifest's directory, absolute ones stay
        assert [e.path for e in manifest.entries] == [
            str(tmp_path / "a.bin"), str(elsewhere), str(tmp_path / "sub" / "c.bin")]

    def test_duplicate_paths_rejected(self):
        with pytest.raises(ValueError):
            DatasetManifest([ManifestEntry("x.bin", 0), ManifestEntry("x.bin", 1)])

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            DatasetManifest([ManifestEntry("x.bin", 3)], class_names=["a", "b"])

    def test_malformed_lines_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("no_tab_here 0\n")
        with pytest.raises(ValueError):
            load_manifest(path)
        path.write_text("a.bin\tnot_an_int\n")
        with pytest.raises(ValueError):
            load_manifest(path)


class TestEvaluate:
    def make_dataset(self, tmp_path, spec):
        """spec: list of (scores, label) pairs written as raw tensors."""
        entries = []
        for i, (scores, label) in enumerate(spec):
            path = tmp_path / f"img{i}.bin"
            write_score_tensor(path, scores)
            entries.append(ManifestEntry(str(path), label))
        return DatasetManifest(entries)

    def test_single_correct_image(self, tmp_path):
        model = softmax_only_model(5)
        manifest = self.make_dataset(tmp_path, [([9, 1, 1, 1, 1], 0)])
        result = evaluate(model, manifest)
        assert result.accuracies == {1: 1.0, 5: 1.0}

    def test_rank_three_counts_for_top5_only(self, tmp_path):
        model = softmax_only_model(5)
        manifest = self.make_dataset(tmp_path, [
            ([9, 1, 1, 1, 1], 0),        # correct at rank 1
            ([5, 4, 3, 1, 0], 2),        # correct at rank 3
        ])
        result = evaluate(model, manifest)
        assert result.accuracies[1] == 0.5
        assert result.accuracies[5] == 1.0

    def test_unreadable_image_skipped_and_reported(self, tmp_path):
        model = softmax_only_model(3)
        manifest = self.make_dataset(tmp_path, [([3, 2, 1], 0)])
        manifest.entries.append(ManifestEntry(str(tmp_path / "missing.bin"), 1))
        result = evaluate(model, manifest)
        assert result.images_evaluated == 1
        assert len(result.skipped) == 1
        assert result.skipped[0][0].endswith("missing.bin")
        assert result.accuracies[1] == 1.0

    def test_order_invariance(self, tmp_path):
        model = softmax_only_model(4)
        manifest = self.make_dataset(tmp_path, [
            ([4, 3, 2, 1], 0), ([1, 4, 2, 3], 2), ([0, 1, 2, 9], 3),
        ])
        result = evaluate(model, manifest)
        reversed_manifest = DatasetManifest(list(reversed(manifest.entries)))
        assert evaluate(model, reversed_manifest).accuracies == result.accuracies

    def test_topk_non_decreasing_in_k(self, tmp_path):
        model = softmax_only_model(6)
        manifest = self.make_dataset(tmp_path, [
            ([6, 5, 4, 3, 2, 1], 5), ([6, 5, 4, 3, 2, 1], 1), ([6, 5, 4, 3, 2, 1], 0),
        ])
        result = evaluate(model, manifest)
        assert set(result.accuracies) == {1, 5}
        assert result.accuracies[1] <= result.accuracies[5]

    def test_empty_manifest_rejected(self):
        with pytest.raises(ValueError):
            evaluate(softmax_only_model(2), DatasetManifest([]))

    def test_json_report(self, tmp_path):
        model = softmax_only_model(3)
        manifest = self.make_dataset(tmp_path, [([3, 2, 1], 0)])
        result = evaluate(model, manifest)
        payload = json.loads(result.to_json(tmp_path / "result.json"))
        assert payload["accuracies"]["1"] == 1.0
        assert payload["images_evaluated"] == 1


SWEEP_NET = """
[net]
height=4
width=4
channels=1

[convolutional]
filters=5
size=3
stride=1
pad=1
activation=relu

[convolutional]
filters=4
size=1
stride=1
activation=relu

[avgpool]

[connected]
outputs=3
activation=linear

[softmax]
"""


LEAKY_NET = """
[net]
height=1
width=1
channels=2

[convolutional]
filters=2
size=1
stride=1
activation=leaky

[connected]
outputs=2
activation=linear

[softmax]
"""


def leak_sensitive_case(tmp_path):
    """A leaky conv whose one image is class 1 at leak 0.5 but class 0 at 0.01.

    The conv is the identity and the scores are (h0, -h1), so the input
    (0.1, -1) scores (0.1, leak): class 1 wins only when leak > 0.1.
    """
    model = build_model(LEAKY_NET, values=[0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, -1])
    path = tmp_path / "img.bin"
    write_raw_tensor(Tensor(np.array([0.1, -1.0], np.float32).reshape(2, 1, 1)), path)
    return model, DatasetManifest([ManifestEntry(str(path), 1)])


def constant_channel_model(constant=0.05):
    """First conv has one channel pinned to a small constant, rest way above."""
    model = parse_config(SWEEP_NET)
    values = []
    biases = np.full(5, 2.0)
    biases[1] = constant
    values.append(biases)
    values.append(np.zeros(5 * 1 * 9))          # conv0 weights: output equals bias
    values.append(np.full(4, 1.0))              # conv1 biases
    values.append(np.full(4 * 5 * 1, 0.05))     # conv1 weights, all positive
    values.append(np.zeros(3))                  # connected biases
    values.append(np.linspace(0.1, 0.9, 3 * 4))  # connected weights
    return load_weights(weights_blob(model, values=np.concatenate(values)), model)


class TestSweep:
    def make_dataset(self, tmp_path, model, count=2, rng=None):
        rng = rng or np.random.default_rng(11)
        entries = []
        for i in range(count):
            path = tmp_path / f"img{i}.bin"
            write_raw_tensor(Tensor(rng.normal(size=model.input_shape).astype(np.float32)), path)
            entries.append(ManifestEntry(str(path), i % 3))
        return DatasetManifest(entries)

    @pytest.mark.parametrize("leak", [0.01, 0.5], ids=["relu", "leaky"])
    def test_epsilon_zero_has_exactly_zero_delta(self, tmp_path, rng, leak):
        # the baseline runs at the sweep's leak, so a leaky net that changes
        # its answer with the leak still loses nothing at epsilon 0
        if leak == 0.01:
            model = build_model(SWEEP_NET, rng=rng)
            manifest = self.make_dataset(tmp_path, model)
        else:
            model, manifest = leak_sensitive_case(tmp_path)
        result = epsilon_sweep(model, manifest, [0.0], leak=leak)
        assert result.rows[0].top1_loss == 0.0
        assert result.rows[0].top5_loss == 0.0

    def test_epsilon_zero_reduction_equals_zero_channel_fraction(self, tmp_path):
        model = constant_channel_model(0.0)  # conv0 channel 1 is exactly zero
        manifest = self.make_dataset(tmp_path, model, count=1)
        result = epsilon_sweep(model, manifest, [0.0])
        # channel loads: 1 at conv0 + 5 at conv1, one exact-zero channel skipped
        assert result.rows[0].load_reduction == pytest.approx(1 / 6)
        assert result.rows[0].top1_loss == 0.0

    def test_constant_channel_skipped_above_its_value(self, tmp_path):
        model = constant_channel_model(0.05)
        manifest = self.make_dataset(tmp_path, model, count=1)
        result = epsilon_sweep(model, manifest, [0.0, 0.05])
        at0, at005 = result.rows
        layer1 = {d["layer_index"]: d for d in at005.per_layer_megabits}[1]
        # the pinned channel (1 of 5 at the second conv) is skipped from eps=0.05 on
        assert 1 - layer1["megabits_loaded"] / layer1["megabits_total"] == pytest.approx(1 / 5)
        layer1_at0 = {d["layer_index"]: d for d in at0.per_layer_megabits}[1]
        assert layer1_at0["megabits_loaded"] == layer1_at0["megabits_total"]
        assert at005.load_reduction > at0.load_reduction

    def test_unsorted_epsilons_rejected(self, tmp_path, rng, monkeypatch):
        model = build_model(SWEEP_NET, rng=rng)
        manifest = self.make_dataset(tmp_path, model)
        reads = []
        monkeypatch.setattr(fmprune.imageio, "load_input", lambda *args: reads.append(args))
        for bad in ([0.1, 0.0], [], [-0.1, 0.1]):
            with pytest.raises(ValueError):
                epsilon_sweep(model, manifest, bad)
        with pytest.raises(ValueError, match="pruning mode"):
            epsilon_sweep(model, manifest, [0.0], mode=MODE_OFF)
        # every list is rejected before the first image is read
        assert reads == []

    def test_serialization(self, tmp_path, rng):
        model = build_model(SWEEP_NET, rng=rng)
        manifest = self.make_dataset(tmp_path, model)
        result = epsilon_sweep(model, manifest, [0.0, 0.1])
        csv_path = tmp_path / "sweep.csv"
        result.to_csv(csv_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "epsilon,top1,top5,top1_loss,top5_loss,load_reduction"
        assert len(lines) == 3
        payload = json.loads(result.to_json())
        assert len(payload["rows"]) == 2
        assert payload["rows"][0]["per_layer_megabits"]
