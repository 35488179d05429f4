"""Command-line front end.

Commands: analyze-weights, infer, eval, sweep, static-prune. Exit codes:
0 success, 1 runtime failure, 2 usage or I/O error, 3 out of memory.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .evaluate import classify, epsilon_sweep, evaluate, load_class_names, load_manifest
from .imageio import load_input
from .inference import MODE_LITERAL, MODE_MAGNITUDE, MODE_OFF, PruneConfig, require_leak
from .model import fold_batch_norm, load_weights, parse_config, save_weights
from .pruning import LoadRecorder, require_epsilon
from .stats import DEFAULT_THRESHOLDS, require_sorted, static_prune, weight_sparsity

SWEEP_DEFAULT_EPSILONS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)


def _finite_float(text: str) -> float:
    try:
        value = float(text)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")


def _checked(require, many: bool = False):
    """An argparse type: the text as a finite number (or, with many, a
    comma-separated list of them) passed through the engine's require
    check, whose ValueError becomes a usage error."""
    def convert(text: str):
        value = ([_finite_float(part) for part in text.split(",") if part.strip() != ""]
                 if many else _finite_float(text))
        try:
            return require(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


_leak = _checked(require_leak)
_epsilon = _checked(require_epsilon)
_float_list = _checked(require_sorted, many=True)


def _load_model(args, fold: bool = True):
    config_text = Path(args.model).read_text()
    model = parse_config(config_text)
    weights = Path(args.weights).read_bytes()
    model = load_weights(weights, model)
    return fold_batch_norm(model) if fold else model


def _prune_config(args) -> PruneConfig:
    return PruneConfig(epsilon=args.epsilon, leak=args.leak, mode=args.mode)


def _write_report(report, args) -> None:
    """Write report to --out, if given, in the --format chosen (CSV by default)."""
    if args.out:
        (report.to_json if args.format == "json" else report.to_csv)(args.out)


def _cmd_analyze_weights(args) -> int:
    model = _load_model(args, fold=False)
    report = weight_sparsity(model, args.thresholds)
    _write_report(report, args)
    if not args.out:
        print(report.to_json())
    return 0


def _cmd_infer(args) -> int:
    model = _load_model(args)
    cfg = _prune_config(args)
    names = load_class_names(args.names) if args.names else None
    image = load_input(args.image, model.input_shape)
    recorder = LoadRecorder() if args.trace else None
    ranked = classify(model, image, cfg=cfg, recorder=recorder)
    for idx, score in ranked[:5]:
        name = names[idx] if names and idx < len(names) else f"class_{idx}"
        print(f"{name}\t{score:.6f}")
    if args.trace:
        recorder.to_csv(args.trace)
    return 0


def _cmd_eval(args) -> int:
    model = _load_model(args)
    names = load_class_names(args.names) if args.names else None
    manifest = load_manifest(args.manifest, class_names=names)
    cfg = _prune_config(args)
    recorder = LoadRecorder() if args.trace else None
    result = evaluate(model, manifest, cfg=cfg, recorder=recorder)
    for k in sorted(result.accuracies):
        print(f"top-{k}\t{result.accuracies[k]:.6f}")
    for path, reason in result.skipped:
        print(f"skipped\t{path}\t{reason}", file=sys.stderr)
    _write_report(result, args)
    if args.trace:
        recorder.to_csv(args.trace)
    return 0


def _cmd_sweep(args) -> int:
    model = _load_model(args)
    names = load_class_names(args.names) if args.names else None
    manifest = load_manifest(args.manifest, class_names=names)
    result = epsilon_sweep(model, manifest, args.thresholds, leak=args.leak, mode=args.mode)
    for row in result.rows:
        print(f"epsilon={row.epsilon:g}\ttop1={row.top1:.6f}\ttop1_loss={row.top1_loss:.6f}"
              f"\treduction={row.load_reduction:.6f}")
    _write_report(result, args)
    return 0


def _cmd_static_prune(args) -> int:
    model = _load_model(args, fold=False)
    pruned = static_prune(model, args.epsilon)
    save_weights(pruned, args.out)
    print(f"wrote pruned weights to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fmprune",
        description="CNN inference with dynamic feature-map channel pruning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", required=True, help="network description file")
    common.add_argument("--weights", required=True, help="binary weights file")

    prune_opts = argparse.ArgumentParser(add_help=False)
    prune_opts.add_argument("--mode", choices=(MODE_LITERAL, MODE_MAGNITUDE, MODE_OFF),
                            default=MODE_OFF)
    prune_opts.add_argument("--epsilon", type=_epsilon, default=0.0)
    prune_opts.add_argument("--leak", type=_leak, default=0.01)

    out_opts = argparse.ArgumentParser(add_help=False)
    out_opts.add_argument("--out", help="write a machine-readable report here")
    out_opts.add_argument("--format", choices=("csv", "json"),
                          help="report format for --out (default csv)")

    p = sub.add_parser("analyze-weights", parents=[common, out_opts],
                       help="coefficient sparsity per threshold")
    p.add_argument("--thresholds", type=_float_list, default=DEFAULT_THRESHOLDS,
                   help="comma-separated threshold list")
    p.set_defaults(func=_cmd_analyze_weights)

    p = sub.add_parser("infer", parents=[common, prune_opts],
                       help="classify one image, printing the top five classes")
    p.add_argument("image", help="input image (.ppm) or raw tensor file")
    p.add_argument("--names", help="class-names file, one per line")
    p.add_argument("--trace", help="write the per-layer load trace CSV here")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("eval", parents=[common, prune_opts, out_opts],
                       help="top-1/top-5 accuracy over a manifest")
    p.add_argument("--manifest", required=True, help="path<TAB>class_index lines")
    p.add_argument("--names", help="class-names file, one per line")
    p.add_argument("--trace", help="write the per-layer load trace CSV here")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", parents=[common, out_opts],
                       help="accuracy and load reduction across epsilon values")
    p.add_argument("--mode", choices=(MODE_LITERAL, MODE_MAGNITUDE), default=MODE_LITERAL)
    p.add_argument("--leak", type=_leak, default=0.01)
    p.add_argument("--manifest", required=True)
    p.add_argument("--names")
    p.add_argument("--thresholds", type=_float_list, default=SWEEP_DEFAULT_EPSILONS,
                   help="epsilon list, default 0,0.1,...,0.5")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("static-prune", parents=[common],
                       help="zero small coefficients and write a new weights file")
    p.add_argument("--epsilon", type=_epsilon, required=True)
    p.add_argument("--out", required=True, help="output weights file")
    p.set_defaults(func=_cmd_static_prune)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "format", None) and not args.out:
        parser.error("--format needs --out")
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
