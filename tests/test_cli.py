import csv
import json

import numpy as np
import pytest

from fmprune import (
    RawImage, fold_batch_norm, forward, load_ppm, load_weights, parse_config,
    save_weights, static_prune, to_input_tensor, write_ppm,
)
from fmprune.cli import main
from conftest import weights_blob

CLI_NET = """
[net]
height=6
width=6
channels=3

[convolutional]
filters=8
size=3
stride=1
pad=1
batch_normalize=1
activation=relu

[maxpool]
size=2
stride=2

[convolutional]
filters=6
size=1
stride=1
activation=relu

[avgpool]

[connected]
outputs=6
activation=linear

[softmax]
"""


def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture
def toy(tmp_path):
    rng = np.random.default_rng(99)
    model = parse_config(CLI_NET)
    values = []
    # conv0 with BN; filter 2 is dead (zero weights, shift pushed far negative)
    conv0_bias = rng.normal(scale=0.3, size=8)
    conv0_bias[2] = -9.0
    conv0_w = rng.normal(scale=0.3, size=8 * 3 * 9)
    conv0_w[2 * 27:3 * 27] = 0.0
    values += [conv0_bias, np.ones(8), np.zeros(8), np.ones(8), conv0_w]
    values += [rng.normal(scale=0.3, size=6), rng.normal(scale=0.3, size=6 * 8)]
    values += [rng.normal(scale=0.3, size=6), rng.normal(scale=0.3, size=6 * 6)]
    model = load_weights(weights_blob(model, values=np.concatenate(values)), model)

    cfg_path = tmp_path / "net.cfg"
    cfg_path.write_text(CLI_NET)
    weights_path = tmp_path / "net.weights"
    save_weights(model, weights_path)

    image_paths = []
    for i in range(2):
        pixels = rng.integers(0, 256, size=(6, 6, 3), dtype=np.uint8)
        path = tmp_path / f"img{i}.ppm"
        write_ppm(RawImage(6, 6, pixels), path)
        image_paths.append(path)

    names_path = tmp_path / "names.txt"
    names_path.write_text("\n".join(f"thing{i}" for i in range(6)) + "\n")
    manifest_path = tmp_path / "manifest.tsv"
    manifest_path.write_text("\n".join(f"{p}\t{i % 6}" for i, p in enumerate(image_paths)) + "\n")

    return {
        "dir": tmp_path, "cfg": cfg_path, "weights": weights_path,
        "images": image_paths, "names": names_path, "manifest": manifest_path,
        "model": model,
    }


def base_args(toy, command):
    return [command, "--model", str(toy["cfg"]), "--weights", str(toy["weights"])]


class TestAnalyzeWeights:
    def test_default_thresholds_csv(self, toy):
        out = toy["dir"] / "report.csv"
        assert run(base_args(toy, "analyze-weights") + ["--out", str(out)]) == 0
        with open(out, newline="") as f:
            rows = list(csv.reader(f))
        assert len(rows[0]) - 1 == 9  # the default nine-threshold column set
        assert [r[0] for r in rows[1:]] == ["all_parameters", "conv_kernels_only"]

    def test_custom_thresholds(self, toy):
        out = toy["dir"] / "report.csv"
        code = run(base_args(toy, "analyze-weights") + ["--thresholds", "0,0.1", "--out", str(out)])
        assert code == 0
        with open(out, newline="") as f:
            rows = list(csv.reader(f))
        assert len(rows[0]) - 1 == 2

    def test_missing_weights_file_exits_2(self, toy, capsys):
        code = run(["analyze-weights", "--model", str(toy["cfg"]),
                    "--weights", str(toy["dir"] / "nope.weights")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_corrupt_weights_exits_1(self, toy, capsys):
        bad = toy["dir"] / "bad.weights"
        bad.write_bytes(toy["weights"].read_bytes()[:-8])
        code = run(["analyze-weights", "--model", str(toy["cfg"]), "--weights", str(bad)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_mode_usage_exits_2(self, toy):
        assert run(base_args(toy, "infer") + ["--mode", "never", str(toy["images"][0])]) == 2


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("command,extra", [
        ("infer", ["--mode", "literal", "--epsilon", "nan"]),
        ("infer", ["--epsilon", "inf"]),
        ("static-prune", ["--epsilon", "nan", "--out", "never.weights"]),
        ("analyze-weights", ["--thresholds", "0,nan"]),
        ("sweep", ["--manifest", "m.tsv", "--thresholds", "0,-inf"]),
    ])
    def test_usage_error_without_traceback(self, toy, capsys, command, extra):
        args = base_args(toy, command) + extra
        if command == "infer":
            args.append(str(toy["images"][0]))
        assert run(args) == 2
        err = capsys.readouterr().err
        assert "finite" in err
        assert "Traceback" not in err


class TestInfer:
    def test_prints_five_deterministic_lines(self, toy, capsys):
        args = base_args(toy, "infer") + ["--names", str(toy["names"]), str(toy["images"][0])]
        assert run(args) == 0
        first = capsys.readouterr().out
        assert len(first.strip().splitlines()) == 5
        assert first.startswith("thing")
        assert run(args) == 0
        assert capsys.readouterr().out == first

    def test_epsilon_zero_matches_off_text(self, toy, capsys):
        image = str(toy["images"][0])
        assert run(base_args(toy, "infer") + [image]) == 0
        plain = capsys.readouterr().out
        assert run(base_args(toy, "infer") + ["--mode", "literal", "--epsilon", "0", image]) == 0
        assert capsys.readouterr().out == plain

    def test_trace_has_spec_columns_and_skips(self, toy, capsys):
        trace = toy["dir"] / "trace.csv"
        args = base_args(toy, "infer") + ["--mode", "literal", "--epsilon", "0",
                                          "--trace", str(trace), str(toy["images"][0])]
        assert run(args) == 0
        capsys.readouterr()
        with open(trace, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["layer_index", "layer_kind", "channels_total", "channels_skipped",
                           "elements_loaded", "bits_loaded", "kernel_coeffs_skipped"]
        skipped = {int(r[0]): int(r[3]) for r in rows[1:]}
        assert skipped[2] >= 1  # the dead channel from conv0 is skipped at conv1

    def test_capability_does_not_change_skip_totals(self, toy, capsys):
        totals = []
        for cap in ("4x4", "1x1"):
            trace = toy["dir"] / f"trace_{cap}.csv"
            args = base_args(toy, "infer") + ["--mode", "literal", "--epsilon", "0.05",
                                              "--capability", cap, "--trace", str(trace),
                                              str(toy["images"][0])]
            assert run(args) == 0
            capsys.readouterr()
            with open(trace, newline="") as f:
                rows = list(csv.reader(f))[1:]
            totals.append(sum(int(r[3]) for r in rows))
        assert totals[0] == totals[1]


class TestEvalAndSweep:
    def test_eval_json(self, toy, capsys):
        out = toy["dir"] / "eval.json"
        args = base_args(toy, "eval") + ["--manifest", str(toy["manifest"]),
                                         "--names", str(toy["names"]),
                                         "--out", str(out), "--format", "json"]
        assert run(args) == 0
        assert "top-1" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["images_evaluated"] == 2
        assert set(payload["accuracies"]) == {"1", "5"}

    def test_sweep_default_has_six_rows(self, toy, capsys):
        out = toy["dir"] / "sweep.csv"
        args = base_args(toy, "sweep") + ["--manifest", str(toy["manifest"]), "--out", str(out)]
        assert run(args) == 0
        capsys.readouterr()
        with open(out, newline="") as f:
            rows = list(csv.reader(f))
        assert len(rows) == 7  # header + epsilon 0,0.1,...,0.5
        assert [r[0] for r in rows[1:]] == ["0", "0.1", "0.2", "0.3", "0.4", "0.5"]


class TestStaticPruneCommand:
    def test_epsilon_zero_writes_identical_bytes(self, toy, capsys):
        out = toy["dir"] / "pruned0.weights"
        assert run(base_args(toy, "static-prune") + ["--epsilon", "0", "--out", str(out)]) == 0
        capsys.readouterr()
        assert out.read_bytes() == toy["weights"].read_bytes()

    def test_round_trip_matches_in_memory_prune(self, toy, capsys):
        out = toy["dir"] / "pruned.weights"
        assert run(base_args(toy, "static-prune") + ["--epsilon", "0.1", "--out", str(out)]) == 0
        capsys.readouterr()
        reloaded = load_weights(out.read_bytes(), parse_config(CLI_NET))
        in_memory = static_prune(toy["model"], 0.1)
        image = to_input_tensor(load_ppm(toy["images"][0]), toy["model"].input_shape)
        a = forward(fold_batch_norm(reloaded), image)
        b = forward(fold_batch_norm(in_memory), image)
        assert np.array_equal(a.data, b.data)

    def test_prune_then_analyze_identity(self, toy, capsys):
        pruned_path = toy["dir"] / "pruned.weights"
        assert run(base_args(toy, "static-prune") + ["--epsilon", "0.08",
                                                     "--out", str(pruned_path)]) == 0
        report_a = toy["dir"] / "a.csv"
        report_b = toy["dir"] / "b.csv"
        assert run(base_args(toy, "analyze-weights") + ["--thresholds", "0.08",
                                                        "--out", str(report_a)]) == 0
        assert run(["analyze-weights", "--model", str(toy["cfg"]), "--weights", str(pruned_path),
                    "--thresholds", "0", "--out", str(report_b)]) == 0
        capsys.readouterr()
        with open(report_a, newline="") as f:
            original_at_eps = list(csv.reader(f))[1][1]
        with open(report_b, newline="") as f:
            pruned_at_zero = list(csv.reader(f))[1][1]
        assert original_at_eps == pruned_at_zero
