"""The benchmark's own tests: tiny-size runs of every workload, and the
output checks that decide `correct` and `failed`.

    python3 -m pytest -q perfbench/tests
"""

import json
from pathlib import Path

import numpy as np
import pytest

import check
import reference
import run
import worker
import workloads

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_reports_every_metric_with_its_unit(name, trace):
    result = run.run(name, seed=7, seconds=0.3, trace=bool(trace), size="tiny")
    line = result["line"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, result["detail"]
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert np.isfinite(got["value"])
    env = result["detail"]["environment"]
    assert {"numpy", "blas", "blas_version", "blas_threads", "nproc", "python",
            "git_sha", "source_sha256"} <= set(env)


def test_workloads_named_in_benchmark_json_exist():
    assert {w["name"] for w in BENCH["workloads"]} == set(workloads.WORKLOADS)


def test_same_seed_same_inputs(tmp_path):
    a = workloads.generate("mobilenet-sweep", 3, tmp_path / "a", "tiny")
    b = workloads.generate("mobilenet-sweep", 3, tmp_path / "b", "tiny")
    for x, y in zip(a["images"], b["images"]):
        assert Path(x["path"]).read_bytes() == Path(y["path"]).read_bytes()
    assert (tmp_path / "a/mobilenet.weights").read_bytes() == \
        (tmp_path / "b/mobilenet.weights").read_bytes()


def test_score_check_flags_a_perturbed_score_vector():
    expected = np.full(10, 0.1)
    assert check.score_errors(expected + 5e-6, expected, "ok") == []
    perturbed = expected.copy()
    perturbed[3] += 2e-5
    assert check.score_errors(perturbed, expected, "bad")
    assert check.score_errors(np.full(10, np.nan), expected, "nan")


def test_score_vector_rejects_a_bad_ranking():
    assert list(check.score_vector([(1, 0.6), (0, 0.4)], 2)) == [0.4, 0.6]
    with pytest.raises(ValueError):
        check.score_vector([(0, 0.4), (1, 0.6)], 2)
    with pytest.raises(ValueError):
        check.score_vector([(1, 0.6)], 2)


@pytest.fixture(scope="module")
def tiny_eval(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("tiny")
    desc = workloads.generate("mobilenet-eps0.1", 5, workdir, "tiny")
    model, _ = worker.setup(desc)
    weights = reference.read_weights(desc["weights"], desc["layers"])
    scores = np.load(workdir / "reference.npy")
    return desc, model, weights, scores


def test_layer_check_flags_a_perturbed_layer(tiny_eval):
    desc, model, weights, scores = tiny_eval
    assert check.validate(worker.fmprune, model, desc, weights, scores, 0, 0).ok
    x = worker.fmprune.imageio.load_input(desc["images"][0]["path"], model.input_shape)
    outputs = []
    recorder = worker.fmprune.LoadRecorder()
    worker.fmprune.inference.forward(model, x, worker.prune_config(desc, 0), recorder=recorder,
                                     layer_tap=lambda layer, out: outputs.append(out.data))
    outputs[5] = outputs[5].copy()
    outputs[5].flat[0] += 1e-3
    errors = check.layer_errors(desc["layers"], weights, x.data, outputs, 0.1, recorder.rows)
    assert any(e.startswith("layer 5 ") for e in errors)


def test_failed_share_counts_a_raised_call(tiny_eval, monkeypatch):
    desc, model, weights, scores = tiny_eval
    loop = worker.Loop(desc, model)
    real = worker.EV.evaluate

    def flaky(model, manifest, *args, **kwargs):
        if manifest.entries[0].path == desc["images"][1]["path"]:
            raise OSError("disk went away")
        return real(model, manifest, *args, **kwargs)

    monkeypatch.setattr(worker.EV, "evaluate", flaky)
    for i in range(6):
        loop.call(i)
    validated = {i: [check.validate(worker.fmprune, model, desc, weights, scores, i, 0)]
                 for i in range(len(desc["images"]))}
    failed, messages = worker.judge(loop.calls, validated, desc["call"])
    assert failed == 1 and "disk went away" in messages[0]
    assert len(loop.calls) == 6


def test_judge_flags_an_outcome_that_differs_from_the_validated_one(tiny_eval):
    desc, model, weights, scores = tiny_eval
    loop = worker.Loop(desc, model)
    loop.call(0)
    validated = {0: [check.validate(worker.fmprune, model, desc, weights, scores, 0, 0)]}
    assert worker.judge(loop.calls, validated, "evaluate")[0] == 0
    validated[0][0].channels_skipped += 1
    assert worker.judge(loop.calls, validated, "evaluate")[0] == 1


def test_tracer_restores_the_engine(tiny_eval):
    import fmprune.inference
    original = fmprune.inference.conv_forward_fast
    tracer = worker.tracing.Tracer()
    tracer.install()
    assert fmprune.inference.conv_forward_fast is not original
    tracer.uninstall()
    assert fmprune.inference.conv_forward_fast is original


def test_upper_percentile_keeps_ten_samples_beyond_it():
    assert worker.tracing.upper_percentile(200) == 90
    assert worker.tracing.upper_percentile(40) == 75
    assert worker.tracing.upper_percentile(5) == 0


def test_timed_path_check_flags_scores_that_differ_from_the_validated_ones(tiny_eval, monkeypatch):
    desc, model, weights, scores = tiny_eval
    loop = worker.Loop(desc, model)
    passes = [check.validate(worker.fmprune, model, desc, weights, scores, 0, 0)]
    worker.check_timed_path(loop, 0, passes)
    assert passes[0].ok, passes[0].errors
    real = worker.EV.classify

    def shifted(*args, **kwargs):
        return [(i, s + 2e-5 * (i == 0)) for i, s in real(*args, **kwargs)]

    monkeypatch.setattr(worker.EV, "classify", shifted)
    worker.check_timed_path(loop, 0, passes)
    assert any("through the main call" in e for e in passes[0].errors)
    loop.call(0)
    assert worker.judge(loop.calls, {0: passes}, desc["call"])[0] == 1
