"""fmprune benchmark: one workload, one seed, end-to-end or traced metrics.

    python3 perfbench/run.py --workload mobilenet-eps0.1 --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout. It generates the workload's inputs from
the seed under .bench_work/, measures set-up and the first image in fresh
processes, runs the workload's main call in a closed loop for --seconds in
one more process, checks every output against an independent reference, and
prints the metrics as the last line of standard output. With --trace 1 it
prints the per-layer metrics of a traced run instead and writes the spans to
.bench_out/. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median

import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
COLD_STARTS = 11         # fresh processes that time set-up and the first image
# One BLAS thread: on a 2-vCPU VM, two BLAS threads made the throughput of
# identical runs spread about twice as wide as one thread.
BLAS_THREADS = "1"
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "first_image_ms": "ms",
    "images_per_s": "1/s",
    "top1_agreement": "share",
    "load_kept": "share",
    "peak_rss_mb": "MiB",
    "ok_share": "share",
}


def child(args: list, timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run worker.py to completion and return the JSON of its last output line."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=BLAS_THREADS)
    proc = subprocess.run([sys.executable, str(WORKER), *map(str, args)], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {args[0]} exited with {proc.returncode}")
    return json.loads(lines[-1])


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Generate, measure and check one run; returns the result line and a detail dict."""
    work = ROOT / ".bench_work" / f"{workload}-s{seed}-p{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{workload}-s{seed}.jsonl"
    try:
        workloads.generate(workload, seed, work, size)
        cold = [] if trace else [child(["cold", work]) for _ in range(COLD_STARTS)]
        main = child(["main", work, seconds, int(trace), spans],
                     timeout=CHILD_TIMEOUT_S + seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = main["attempted"], main["failed"]
    starts = cold + [main]
    e2e = {
        "setup_s": median(s["setup_s"] for s in starts),
        "first_image_ms": median(s["first_image_ms"] for s in starts),
        "images_per_s": main["images_per_s"],
        "top1_agreement": main["top1_agreement"],
        "load_kept": main["load_kept"],
        "peak_rss_mb": main["peak_rss_mb"],
        "ok_share": 1.0 - failed / attempted,
    }
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in main["layer_metrics"].items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    line = {"correct": failed == 0 and main["first_image_ok"],
            "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": main["environment"],
        "closed_loop": "one process, one image per call, next call after the previous returns",
        "failed_share": failed / attempted,
        "load_reduction": 1.0 - e2e["load_kept"],
        "end_to_end": e2e,
        "samples": {"setup_s": [s["setup_s"] for s in starts],
                    "first_image_ms": [s["first_image_ms"] for s in starts],
                    "timed_calls": main["untraced_calls"], "call_ms": main["call_ms"]},
        "errors": main["errors"],
    }
    if trace:
        detail["trace"] = main["trace_detail"]
        detail["spans_file"] = str(spans.relative_to(ROOT))
    name = f"result-{workload}-s{seed}-trace{int(trace)}.json"
    (out_dir / name).write_text(json.dumps({"detail": detail, "result": line}, indent=1))
    return {"line": line, "detail": detail}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fmprune" / "__init__.py").is_file():
        print(f"perfbench: no engine sources at {ROOT / 'src' / 'fmprune'}; "
              "run it from a checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result["detail"]))
    print(json.dumps(result["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
