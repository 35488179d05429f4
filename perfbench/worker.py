"""One benchmark process: set up the engine, then run one workload.

    python3 perfbench/worker.py cold WORKDIR
    python3 perfbench/worker.py main WORKDIR SECONDS TRACE SPANS_PATH

`cold` times set-up and the first image in a fresh process and exits. `main`
does the same, warms up, runs the workload's main call in a closed loop, one
image at a time, for SECONDS, then validates every output (check.py). With
TRACE=1 it runs half the time traced (tracing.py) and half untraced. Either
mode prints one JSON line. WORKDIR holds what workloads.generate wrote; the
engine reads only its .cfg, .weights, PPM and manifest files.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import subprocess
import resource
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import fmprune  # noqa: E402
import fmprune.evaluate  # noqa: E402,F401  (the module, shadowed by the function on the package)

import check  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402

EV = sys.modules["fmprune.evaluate"]
WARMUP_PASSES = 3


def setup(desc: dict):
    """Read the files, parse, load weights and fold batch norm; (model, seconds)."""
    start = time.perf_counter()
    text = Path(desc["cfg"]).read_text()
    blob = Path(desc["weights"]).read_bytes()
    model = fmprune.model.parse_config(text)
    model = fmprune.model.load_weights(blob, model)
    model = fmprune.model.fold_batch_norm(model)
    return model, time.perf_counter() - start


def prune_config(desc: dict, config: int):
    mode, eps = desc["configs"][config]
    return fmprune.PruneConfig(epsilon=eps, leak=desc["leak"], mode=mode)


def first_image(desc: dict, model):
    """The first load_input + classify after set-up: (ranked list, seconds)."""
    start = time.perf_counter()
    x = fmprune.imageio.load_input(desc["images"][0]["path"], model.input_shape)
    ranked = EV.classify(model, x, prune_config(desc, 0))
    return ranked, time.perf_counter() - start


class Loop:
    """The workload's main call, one image per call, with per-call outcomes.

    Each outcome is a list with one (top-1 hit, channels total, channels
    skipped) or load-reduction tuple per pass, compared after the run with
    the validated passes of the same image.
    """

    def __init__(self, desc: dict, model):
        self.desc = desc
        self.model = model
        manifest = fmprune.load_manifest(desc["manifest"])
        self.entries = manifest.entries
        self.passes = len(desc["configs"])
        self.calls = []      # (image index, seconds, outcome or None, error or None)

    def call(self, i: int):
        index = i % len(self.entries)
        start = time.perf_counter()
        outcome, error = self.outcome(index)
        self.calls.append((index, time.perf_counter() - start, outcome, error))

    def outcome(self, index: int):
        """One main call on one image: (outcome, None) or (None, error message)."""
        manifest = fmprune.DatasetManifest([self.entries[index]])
        try:
            if self.desc["call"] == "sweep":
                eps = [e for _, e in self.desc["configs"][1:]]
                result = EV.epsilon_sweep(self.model, manifest, eps, leak=self.desc["leak"],
                                          mode=self.desc["configs"][1][0])
                outcome = [("hit", result.baseline_top1)] + [
                    ("sweep_row", row.top1, row.load_reduction) for row in result.rows]
            else:
                recorder = fmprune.LoadRecorder()
                result = EV.evaluate(self.model, manifest, prune_config(self.desc, 0),
                                     recorder=recorder)
                rows = recorder.rows
                if result.images_evaluated != 1 or result.skipped:
                    raise RuntimeError(f"image not evaluated: {result.skipped}")
                outcome = [("eval", result.accuracies[1], sum(r.channels_total for r in rows),
                            sum(r.channels_skipped for r in rows))]
            return outcome, None
        except Exception as exc:  # a failed call is counted, never fatal to the run
            return None, f"{type(exc).__name__}: {exc}"

    def run_for(self, seconds: float, first_call: int = 0) -> list[float]:
        """Call in a closed loop for `seconds`; returns the calls' durations."""
        n0 = len(self.calls)
        i = first_call
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            self.call(i)
            i += 1
        return [c[1] for c in self.calls[n0:]]


def expected_outcome(validated: list[check.ValidatedPass], call: str):
    if call == "sweep":
        return [("hit", float(validated[0].hit))] + [
            ("sweep_row", float(v.hit), v.channels_skipped / v.channels_total)
            for v in validated[1:]]
    v = validated[0]
    return [("eval", float(v.hit), v.channels_total, v.channels_skipped)]


def check_timed_path(loop: Loop, index: int, passes: list[check.ValidatedPass]) -> None:
    """Run one untimed main call on an image and check the class scores of
    each of its passes, as the classify calls inside evaluate/epsilon_sweep
    return them, against the validated pass; errors go to that pass."""
    captured = []
    classify = EV.classify

    def capture(*args, **kwargs):
        ranked = classify(*args, **kwargs)
        captured.append(ranked)
        return ranked

    EV.classify = capture
    try:
        _, error = loop.outcome(index)
    finally:
        EV.classify = classify
    if error is None and len(captured) != len(passes):
        error = f"{len(captured)} classify calls for {len(passes)} passes"
    if error is not None:
        passes[0].errors.append(f"image {index} through the main call: {error}")
        return
    for config, (ranked, v) in enumerate(zip(captured, passes)):
        what = f"image {index} pass {config} through the main call"
        try:
            scores = check.score_vector(ranked, v.scores.size)
            v.errors += check.score_errors(scores, v.scores, what)
        except ValueError as exc:
            v.errors.append(f"{what}: {exc}")


def judge(calls, validated: dict, call: str) -> tuple[int, list[str]]:
    """Failed calls: raised, or an outcome other than the validated one, or an
    image whose validation failed. Returns (failed count, first messages)."""
    failed, messages = 0, []
    for index, _, outcome, error in calls:
        passes = validated[index]
        bad = error or next((e for v in passes for e in v.errors), None)
        if bad is None and outcome != expected_outcome(passes, call):
            bad = f"image {index}: outcome {outcome} != validated {expected_outcome(passes, call)}"
        if bad is not None:
            failed += 1
            if len(messages) < 5:
                messages.append(bad)
    return failed, messages


def environment() -> dict:
    """What two runs must share to be compared: numpy, BLAS, threads, cores, code."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    return {
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": sha,
        "source_sha256": source.hexdigest(),
    }


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, read through its C API."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_main(desc: dict, seconds: float, trace: bool, spans_path: str | None) -> dict:
    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install()
    model, setup_s = setup(desc)
    cost = fmprune.compute_cost(model)
    if tracer:
        tracer.set_cost(cost, model)
        tracer.phase = "first"
    ranked, first_s = first_image(desc, model)
    loop = Loop(desc, model)
    if tracer:
        tracer.phase = "warmup"
    calls = 0
    while calls * loop.passes < WARMUP_PASSES:
        loop.call(calls)
        calls += 1
    loop.calls.clear()

    traced = []
    if tracer:
        tracer.phase = "timed"
        for i in range(10**9):
            tracer.image = i
            start = time.perf_counter()
            loop.call(i)
            traced.append(time.perf_counter() - start)
            if sum(traced) >= seconds / 2:
                break
        tracer.uninstall()
        seconds /= 2
    durations = loop.run_for(seconds, first_call=len(traced))
    rss = peak_rss_mb()  # before validation allocates the reference's arrays

    ref_weights = reference.read_weights(desc["weights"], desc["layers"])
    ref_scores = np.load(Path(desc["cfg"]).parent / "reference.npy")
    validated = {i: [check.validate(fmprune, model, desc, ref_weights, ref_scores, i, c)
                     for c in range(loop.passes)]
                 for i in range(len(desc["images"]))}
    for i, passes in validated.items():
        check_timed_path(loop, i, passes)
    failed, messages = judge(loop.calls, validated, desc["call"])
    try:
        first_errors = check.score_errors(check.score_vector(ranked, ref_scores.shape[2]),
                                          validated[0][0].scores, "first image")
    except ValueError as exc:
        first_errors = [f"first image: {exc}"]

    # One entry per image and pass of the main call (the sweep's ε rows), which
    # every timed call must have reproduced, so the shares do not depend on
    # how often the loop reached each image.
    rows = [v for passes in validated.values()
            for v in (passes[1:] if desc["call"] == "sweep" else passes)]
    channels = sum(v.channels_total for v in rows)

    result = {
        "setup_s": setup_s,
        "first_image_ms": first_s * 1e3,
        "images_per_s": loop.passes / median(durations) if durations else 0.0,
        "top1_agreement": float(np.mean([v.hit for v in rows])),
        "load_kept": 1.0 - sum(v.channels_skipped for v in rows) / channels if channels else 1.0,
        "peak_rss_mb": rss,
        "attempted": len(loop.calls),
        "failed": failed,
        "errors": messages + first_errors,
        "first_image_ok": not first_errors,
        "untraced_calls": len(durations),
        "environment": environment(),
        "call_ms": {f"p{q}": float(np.percentile(durations, q)) * 1e3 for q in (10, 50, 90)}
        if durations else {},
    }
    if tracer:
        metrics, detail = tracing.layer_metrics(tracer, model, cost, len(traced))
        traced_ips = loop.passes / median(traced)
        metrics["trace.overhead_share"] = (result["images_per_s"] / traced_ips - 1.0, "share")
        result["layer_metrics"] = metrics
        result["trace_detail"] = detail
        tracer.write(spans_path)
    return result


def main(argv: list[str]) -> int:
    mode, workdir = argv[0], Path(argv[1])
    desc = json.loads((workdir / "workload.json").read_text())
    if Path(fmprune.__file__).resolve().parent != ROOT / "src" / "fmprune":
        print(f"worker: imported fmprune from {fmprune.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    if mode == "cold":
        model, setup_s = setup(desc)
        _, first_s = first_image(desc, model)
        out = {"setup_s": setup_s, "first_image_ms": first_s * 1e3}
    else:
        out = run_main(desc, float(argv[2]), argv[3] == "1", argv[4])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
