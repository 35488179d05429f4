import csv

import numpy as np
import pytest

from fmprune import (
    LayerSpec, LoadRecorder, ProcessorCapability, Tensor, WeightBlock,
    conv_forward_fast, mark_zero_channels, pruned_conv_forward, savings_ratio,
)
from conftest import random_input
from oracles import max_abs_in_plane


def make_conv(c, h, w, filters, k, stride=1, pad=0, groups=1, activation="linear", index=0):
    return LayerSpec(kind="convolutional", index=index, filters=filters, size=k,
                     stride=stride, padding=pad, groups=groups, activation=activation,
                     in_shape=(c, h, w),
                     out_shape=(filters, (h + 2 * pad - k) // stride + 1,
                                (w + 2 * pad - k) // stride + 1))


class TestMarkZeroChannels:
    def test_all_zero_tensor(self):
        marks = mark_zero_channels(Tensor(np.zeros((2, 4, 4), np.float32)), 0.0,
                                   ProcessorCapability(2, 2))
        assert marks.channel_part == 4
        assert marks.part_flags.tolist() == [[1, 1, 1, 1], [1, 1, 1, 1]]
        assert marks.aggregate.tolist() == [True, True]

    def test_single_element_above_epsilon(self):
        t = Tensor(np.array([0, 0, 0, 0.5], np.float32).reshape(1, 1, 4))
        marks = mark_zero_channels(t, 0.1, ProcessorCapability(1, 4))
        assert marks.channel_part == 1
        assert marks.part_flags.tolist() == [[0]]
        assert marks.aggregate.tolist() == [False]

    def test_aggregate_equals_whole_channel_oracle(self, rng):
        t = random_input(rng, (4, 8, 8))
        t.data[1] *= 0.01  # force one channel into the epsilon band
        marks = mark_zero_channels(t, 0.05, ProcessorCapability(4, 4))
        for c in range(4):
            assert bool(marks.aggregate[c]) == (max_abs_in_plane(t, c) <= np.float32(0.05))

    def test_short_last_part(self):
        # 3x3 plane, 2x2 parts: ceil(9/4) = 3 parts, the last holding one element
        t = Tensor(np.zeros((1, 3, 3), np.float32))
        marks = mark_zero_channels(t, 0.0, ProcessorCapability(2, 2))
        assert marks.channel_part == 3
        assert marks.aggregate.tolist() == [True]
        t.data[0, 2, 2] = 1.0  # only the short tail part goes dirty
        marks = mark_zero_channels(t, 0.0, ProcessorCapability(2, 2))
        assert marks.part_flags.tolist() == [[1, 1, 0]]
        assert marks.aggregate.tolist() == [False]

    def test_capability_larger_than_plane(self):
        t = Tensor(np.zeros((2, 3, 3), np.float32))
        marks = mark_zero_channels(t, 0.0, ProcessorCapability(16, 16))
        assert marks.channel_part == 1
        assert marks.aggregate.all()

    def test_capability_invariance(self, rng):
        t = random_input(rng, (3, 5, 7))
        t.data[2] *= 0.001
        caps = [ProcessorCapability(1, 1), ProcessorCapability(2, 2),
                ProcessorCapability(4, 4), ProcessorCapability(16, 16),
                ProcessorCapability(5, 7), ProcessorCapability(3, 2)]
        tables = [mark_zero_channels(t, 0.01, cap) for cap in caps]
        for table in tables[1:]:
            assert np.array_equal(table.aggregate, tables[0].aggregate)
        for table in tables:
            assert np.array_equal(table.aggregate, table.part_flags.all(axis=1))

    def test_non_finite_never_marked_and_negative_zero_marked(self):
        caps = [ProcessorCapability(1, 1), ProcessorCapability(2, 2), ProcessorCapability(16, 16)]
        for bad in (np.nan, np.inf, -np.inf):
            t = Tensor(np.zeros((2, 3, 3), np.float32))
            t.data[1, 2, 1] = bad
            for eps in (0.0, 0.1, 1e30, float(np.finfo(np.float32).max)):
                for cap in caps:
                    marks = mark_zero_channels(t, eps, cap)
                    assert marks.aggregate.tolist() == [True, False]
                    assert not marks.part_flags[1].all()
        t = Tensor(np.full((1, 3, 3), -0.0, np.float32))
        for cap in caps:
            marks = mark_zero_channels(t, 0.0, cap)
            assert marks.aggregate.tolist() == [True]
            assert marks.part_flags.all()

    def test_inclusive_comparison(self):
        t = Tensor(np.full((1, 2, 2), 0.05, np.float32))
        assert mark_zero_channels(t, 0.05).aggregate.all()
        assert not mark_zero_channels(t, 0.04).aggregate.any()

    def test_monotone_in_epsilon(self, rng):
        t = random_input(rng, (6, 4, 4))
        t.data[0] *= 0.001
        t.data[3] *= 0.05
        previous = None
        for eps in (0.0, 0.01, 0.05, 0.1, 0.5, 2.0):
            marked = set(mark_zero_channels(t, eps).marked_channels().tolist())
            if previous is not None:
                assert previous <= marked
            previous = marked

    def test_negative_epsilon_rejected(self):
        for bad in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                mark_zero_channels(Tensor(np.zeros((1, 1, 1), np.float32)), bad)


class TestPrunedConvForward:
    def test_no_marks_is_a_no_op(self, rng):
        layer = make_conv(3, 6, 6, 4, 3, pad=1, activation="relu")
        block = WeightBlock(rng.normal(size=(4, 3, 3, 3)).astype(np.float32),
                            rng.normal(size=4).astype(np.float32))
        t = random_input(rng, (3, 6, 6))
        marks = mark_zero_channels(t, 0.0)
        assert not marks.aggregate.any()
        recorder = LoadRecorder()
        out = pruned_conv_forward(t, marks, layer, block, recorder=recorder)
        assert np.array_equal(out.data, conv_forward_fast(t, layer, block).data)
        assert recorder.rows[0].channels_skipped == 0

    def test_none_marks_run_the_plain_kernel(self, rng):
        layer = make_conv(3, 6, 6, 4, 3, pad=1, index=2)
        block = WeightBlock(rng.normal(size=(4, 3, 3, 3)).astype(np.float32),
                            rng.normal(size=4).astype(np.float32))
        t = random_input(rng, (3, 6, 6))
        recorder = LoadRecorder()
        out = pruned_conv_forward(t, None, layer, block, recorder=recorder)
        plain = conv_forward_fast(t, layer, block)
        assert np.array_equal(out.data.view(np.uint32), plain.data.view(np.uint32))
        assert [(r.layer_index, r.channels_total, r.channels_skipped, r.elements_loaded,
                 r.kernel_coeffs_skipped) for r in recorder.rows] == [(2, 3, 0, 3 * 36, 0)]

    def test_exact_zero_channel_skip_is_lossless(self, rng):
        layer = make_conv(3, 6, 6, 4, 3, pad=1)
        block = WeightBlock(rng.normal(size=(4, 3, 3, 3)).astype(np.float32),
                            rng.normal(size=4).astype(np.float32))
        t = random_input(rng, (3, 6, 6))
        t.data[1] = 0.0
        marks = mark_zero_channels(t, 0.0)
        assert marks.marked_channels().tolist() == [1]
        recorder = LoadRecorder()
        out = pruned_conv_forward(t, marks, layer, block, recorder=recorder)
        assert np.array_equal(out.data, conv_forward_fast(t, layer, block).data)
        row = recorder.rows[0]
        assert row.channels_skipped == 1
        assert row.elements_skipped == 36
        assert row.kernel_coeffs_skipped == 4 * 9

    @pytest.mark.parametrize("groups", [1, 2, 4])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3])
    def test_small_value_channel_equals_conv_over_zeroed_input(self, rng, groups, stride, k):
        eps = 0.1
        c = o = 4
        cpg = c // groups
        layer = make_conv(c, 6, 6, o, k, stride=stride, pad=k // 2, groups=groups)
        block = WeightBlock(rng.normal(size=(o, cpg, k, k)).astype(np.float32),
                            rng.normal(size=o).astype(np.float32))
        t = random_input(rng, (c, 6, 6))
        t.data[2] = rng.uniform(0.001, eps, size=(6, 6))
        before = t.data.copy()
        marks = mark_zero_channels(t, eps)
        assert marks.marked_channels().tolist() == [2]
        pruned = pruned_conv_forward(t, marks, layer, block)
        assert np.array_equal(t.data, before)

        zeroed = Tensor(before.copy())
        zeroed.data[2] = 0.0
        assert np.array_equal(pruned.data, conv_forward_fast(zeroed, layer, block).data)

        unpruned = conv_forward_fast(t, layer, block)
        assert not np.array_equal(pruned.data, unpruned.data)
        # only the filters of channel 2's group read it, through slice 2 % cpg
        readers = np.arange(o) // (o // groups) == 2 // cpg
        bound = eps * np.abs(block.weights[:, 2 % cpg]).sum(axis=(1, 2)) * readers
        diff = np.abs(pruned.data - unpruned.data)
        assert (diff <= bound[:, None, None] + 1e-6).all()

    def test_grouped_skip_suppresses_only_readers(self, rng):
        # depth-wise: each skipped channel kills exactly one K*K kernel slice
        layer = make_conv(4, 5, 5, 4, 3, pad=1, groups=4)
        block = WeightBlock(rng.normal(size=(4, 1, 3, 3)).astype(np.float32),
                            rng.normal(size=4).astype(np.float32))
        t = random_input(rng, (4, 5, 5))
        t.data[0] = 0.0
        t.data[3] = 0.0
        marks = mark_zero_channels(t, 0.0)
        recorder = LoadRecorder()
        out = pruned_conv_forward(t, marks, layer, block, recorder=recorder)
        assert np.array_equal(out.data, conv_forward_fast(t, layer, block).data)
        assert recorder.rows[0].kernel_coeffs_skipped == 2 * 9

    def test_channel_count_mismatch_rejected(self, rng):
        layer = make_conv(3, 6, 6, 4, 3, pad=1)
        block = WeightBlock(rng.normal(size=(4, 3, 3, 3)).astype(np.float32),
                            np.zeros(4, np.float32))
        marks = mark_zero_channels(random_input(rng, (2, 6, 6)), 0.0)
        from fmprune import ShapeError
        with pytest.raises(ShapeError):
            pruned_conv_forward(random_input(rng, (3, 6, 6)), marks, layer, block)

    def test_error_bound_over_random_instances(self, rng):
        for trial in range(30):
            eps = float(rng.choice([0.05, 0.1, 0.2]))
            c = int(rng.integers(2, 6))
            k = int(rng.choice([1, 3]))
            o = int(rng.integers(1, 6))
            layer = make_conv(c, 6, 6, o, k, pad=k // 2)
            block = WeightBlock(rng.normal(size=(o, c, k, k)).astype(np.float32),
                                rng.normal(size=o).astype(np.float32))
            t = random_input(rng, (c, 6, 6))
            n_small = int(rng.integers(1, c))
            for ch in rng.choice(c, size=n_small, replace=False):
                t.data[ch] = rng.uniform(-eps, eps, size=(6, 6)).astype(np.float32)
            marks = mark_zero_channels(t, eps)
            pruned = pruned_conv_forward(t, marks, layer, block)
            unpruned = conv_forward_fast(t, layer, block)
            skipped = marks.marked_channels()
            bound = eps * np.abs(block.weights[:, skipped]).sum(axis=(1, 2, 3))
            diff = np.abs(pruned.data - unpruned.data)
            assert (diff <= bound[:, None, None] + 1e-6).all()


class TestGatherExactness:
    """The kernel computes only over unmarked channels; its output must equal,
    bit for bit, the plain convolution over the input with the marked channels
    replaced by zeros."""

    @staticmethod
    def zeroed_reference(t, marks, layer, block):
        zeroed = t.data.copy()
        zeroed[marks.aggregate] = 0.0
        return conv_forward_fast(Tensor(zeroed), layer, block)

    @staticmethod
    def assert_bitwise_equal(got, expected, case):
        assert got.shape == expected.shape, case
        assert np.array_equal(got.view(np.uint32), expected.view(np.uint32)), case

    def test_seeded_random_cases(self):
        rng = np.random.default_rng(20161018)
        seen = set()
        for case in range(200):
            k = int(rng.choice([1, 3]))
            stride = int(rng.choice([1, 2]))
            pad = int(rng.choice([0, k // 2]))
            if k == 1 and rng.random() < 0.5:
                c, side = int(rng.choice([256, 512, 1024])), int(rng.integers(1, 8))
            else:
                c, side = 2 * int(rng.integers(1, 33)), int(rng.integers(3, 13))
            groups = int(rng.choice([1, 2, c]))
            o = groups * int(rng.integers(1, 3)) if groups == c else 2 * int(rng.integers(1, 33))
            share = {0: 0.0, 1: 1.0}.get(case % 10, float(rng.random()))
            eps = float(rng.choice([0.0, 0.1]))
            layer = make_conv(c, side, side, o, k, stride=stride, pad=pad, groups=groups)
            block = WeightBlock(rng.normal(size=(o, c // groups, k, k)).astype(np.float32),
                                rng.normal(size=o).astype(np.float32))
            t = random_input(rng, (c, side, side))
            t.data[np.abs(t.data) <= 0.1] = 0.5  # no channel is within eps unless chosen
            chosen = rng.random(c) < share
            t.data[chosen] = rng.choice([0.0, -0.0, eps / 2, -eps], size=(int(chosen.sum()), 1, 1))
            before = t.data.copy()
            marks = mark_zero_channels(t, eps)
            assert np.array_equal(marks.aggregate, chosen)
            label = f"case {case}: c={c} o={o} groups={groups} k={k} stride={stride} " \
                    f"pad={pad} side={side} marked={int(chosen.sum())}"
            got = pruned_conv_forward(t, marks, layer, block).data
            assert np.array_equal(t.data.view(np.uint32), before.view(np.uint32)), label
            self.assert_bitwise_equal(got, self.zeroed_reference(t, marks, layer, block).data,
                                      label)
            if chosen.all():
                bias = np.broadcast_to(block.biases[:, None, None], got.shape)
                self.assert_bitwise_equal(got, bias, label)
            marked = t.data[chosen]
            if ((marked == 0) & np.signbit(marked)).any():
                seen.add("marked -0.0")
            seen.add(("1" if groups == 1 else "C" if groups == c else "2",
                      "none" if not chosen.any() else "all" if chosen.all() else "some"))
        wanted = {(g, m) for g in ("1", "2", "C") for m in ("none", "some", "all")}
        assert seen == wanted | {"marked -0.0"}, seen

    def test_marked_channel_inside_the_gathered_grid(self, rng):
        # groups=2, 3 channels each: position 0 is marked only in group 0 and
        # position 2 only in group 1, so both positions are gathered and each
        # group carries one marked channel that the kernel must zero
        layer = make_conv(6, 5, 5, 4, 3, pad=1, groups=2)
        block = WeightBlock(rng.normal(size=(4, 3, 3, 3)).astype(np.float32),
                            rng.normal(size=4).astype(np.float32))
        t = random_input(rng, (6, 5, 5))
        t.data[0] = 0.05
        t.data[5] = -0.05
        marks = mark_zero_channels(t, 0.1)
        assert marks.marked_channels().tolist() == [0, 5]
        got = pruned_conv_forward(t, marks, layer, block).data
        self.assert_bitwise_equal(got, self.zeroed_reference(t, marks, layer, block).data,
                                  "grid")
        assert not np.array_equal(got, conv_forward_fast(t, layer, block).data)


class TestRecorderAndSavings:
    def test_conservation(self, rng):
        layer = make_conv(5, 4, 4, 2, 1)
        block = WeightBlock(rng.normal(size=(2, 5, 1, 1)).astype(np.float32),
                            np.zeros(2, np.float32))
        t = random_input(rng, (5, 4, 4))
        t.data[4] = 0.0
        recorder = LoadRecorder()
        pruned_conv_forward(t, mark_zero_channels(t, 0.0), layer, block, recorder=recorder)
        row = recorder.rows[0]
        assert row.elements_loaded + row.elements_skipped == 5 * 4 * 4
        assert row.bits_loaded == row.elements_loaded * 32

    def test_zero_skip_ratio(self):
        recorder = LoadRecorder()
        recorder.begin_image()
        recorder.record(0, "convolutional", 8, 0, 16, 0)
        report = savings_ratio(recorder)
        assert report.saved_fraction == 0.0

    def test_ten_percent_layer(self):
        recorder = LoadRecorder()
        recorder.begin_image()
        recorder.record(0, "convolutional", 3, 0, 16, 0)
        recorder.record(1, "convolutional", 10, 1, 16, 9)
        report = savings_ratio(recorder)
        layer1 = [l for l in report.per_layer if l.layer_index == 1][0]
        assert layer1.saved_fraction == pytest.approx(0.1)
        assert report.saved_fraction == pytest.approx(1 / 13)
        assert layer1.megabits_total == pytest.approx(10 * 16 * 32 / 1e6)

    def test_empty_recorder_rejected(self):
        with pytest.raises(ValueError):
            savings_ratio(LoadRecorder())

    def test_skipped_cannot_exceed_total(self):
        recorder = LoadRecorder()
        recorder.begin_image()
        with pytest.raises(ValueError):
            recorder.record(0, "convolutional", 2, 3, 4, 0)

    def test_csv_columns(self, tmp_path):
        recorder = LoadRecorder()
        recorder.begin_image()
        recorder.record(0, "convolutional", 4, 1, 9, 9)
        path = tmp_path / "trace.csv"
        recorder.to_csv(path)
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["image", "layer_index", "layer_kind", "channels_total",
                           "channels_skipped", "elements_loaded", "bits_loaded",
                           "kernel_coeffs_skipped"]
        assert rows[1] == ["0", "0", "convolutional", "4", "1", "27", "864", "9"]

    def test_report_counts_only_images_with_rows(self):
        recorder = LoadRecorder()
        recorder.begin_image()  # an image that was skipped records nothing
        recorder.begin_image()
        recorder.record(0, "convolutional", 4, 1, 9, 0)
        assert [r.image for r in recorder.rows] == [1]

    def test_savings_sum_over_images(self):
        recorder = LoadRecorder()
        for skipped in (2, 1):
            recorder.begin_image()
            recorder.record(0, "convolutional", 4, skipped, 9, 0)
        assert [r.image for r in recorder.rows] == [0, 1]
        assert savings_ratio(recorder).saved_fraction == 3 / 8
