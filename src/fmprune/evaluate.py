"""Top-k accuracy over a labeled manifest and epsilon-sweep studies with
load accounting."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import imageio
from .inference import MODE_LITERAL, MODE_OFF, PruneConfig, forward, softmax_forward
from .model import NetworkModel
from .pruning import LoadRecorder, savings_ratio
from .report import dump_json, write_csv
from .stats import require_sorted
from .tensor import Tensor


@dataclass
class ManifestEntry:
    path: str
    label: int


@dataclass
class DatasetManifest:
    """Labeled image list: entries of (path, ground-truth class index)."""

    entries: list[ManifestEntry]
    class_names: list[str] | None = None

    def __post_init__(self):
        seen = set()
        for entry in self.entries:
            if entry.path in seen:
                raise ValueError(f"duplicate image path in manifest: {entry.path}")
            seen.add(entry.path)
            if entry.label < 0:
                raise ValueError(f"negative class index for {entry.path}")
            if self.class_names is not None and entry.label >= len(self.class_names):
                raise ValueError(
                    f"class index {entry.label} for {entry.path} exceeds "
                    f"{len(self.class_names)} known classes"
                )


def load_class_names(path) -> list[str]:
    names = [line.strip() for line in Path(path).read_text().splitlines()]
    return [n for n in names if n]


def load_manifest(path, class_names: list[str] | None = None) -> DatasetManifest:
    """Parse the manifest format: one `path<TAB>class_index` per line.

    A relative image path is taken relative to the manifest's directory,
    not the working directory; an absolute path is used as it is.
    """
    base = Path(path).parent
    entries = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if "\t" not in line:
            raise ValueError(f"{path} line {lineno}: expected path<TAB>class_index")
        img_path, label = line.split("\t", 1)
        try:
            entries.append(ManifestEntry(str(base / img_path.strip()), int(label)))
        except ValueError:
            raise ValueError(f"{path} line {lineno}: class index is not an integer") from None
    return DatasetManifest(entries=entries, class_names=class_names)


def classify(model: NetworkModel, image: Tensor, cfg: PruneConfig | None = None,
             recorder: LoadRecorder | None = None) -> list[tuple[int, float]]:
    """Ranked (class index, softmax score) list, highest score first.

    Ties break deterministically toward the lower class index. A trailing
    softmax is applied when the model does not end in one.
    """
    out = forward(model, image, cfg=cfg, recorder=recorder)
    if not model.layers or model.layers[-1].kind != "softmax":
        out = softmax_forward(out)
    scores = out.data.ravel()
    order = np.argsort(-scores, kind="stable").tolist()
    return [(i, float(scores[i])) for i in order]


@dataclass
class EvalResult:
    accuracies: dict[int, float]
    images_evaluated: int
    skipped: list[tuple[str, str]] = field(default_factory=list)

    def to_json(self, path=None) -> str:
        payload = {
            "accuracies": {str(k): v for k, v in self.accuracies.items()},
            "images_evaluated": self.images_evaluated,
            "skipped": [{"path": p, "reason": r} for p, r in self.skipped],
        }
        return dump_json(payload, path)

    def to_csv(self, path) -> None:
        write_csv(path, ["k", "accuracy"],
                  [[k, f"{self.accuracies[k]:.6f}"] for k in sorted(self.accuracies)])


def evaluate(model: NetworkModel, manifest: DatasetManifest, cfg: PruneConfig | None = None,
             recorder: LoadRecorder | None = None) -> EvalResult:
    """Top-1 and top-5 accuracy (keys 1 and 5): the fraction of evaluated
    images whose ground truth is the first ranked class, or among the first five.

    Unreadable images are skipped and reported, never silently dropped; a
    skipped entry still takes its image number in the recorder.
    """
    if not manifest.entries:
        raise ValueError("manifest is empty")
    correct = {1: 0, 5: 0}
    evaluated = 0
    skipped: list[tuple[str, str]] = []
    for entry in manifest.entries:
        try:
            image = imageio.load_input(entry.path, model.input_shape)
        except (OSError, ValueError) as exc:
            skipped.append((entry.path, str(exc)))
            if recorder is not None:
                recorder.begin_image()
            continue
        ranked = [idx for idx, _ in classify(model, image, cfg=cfg, recorder=recorder)]
        for k in correct:
            if entry.label in ranked[:k]:
                correct[k] += 1
        evaluated += 1
    if evaluated == 0:
        raise ValueError("no image in the manifest could be evaluated")
    return EvalResult(
        accuracies={k: n / evaluated for k, n in correct.items()},
        images_evaluated=evaluated,
        skipped=skipped,
    )


@dataclass
class SweepRow:
    epsilon: float
    top1: float
    top5: float
    top1_loss: float
    top5_loss: float
    load_reduction: float
    per_layer_megabits: list[dict]


@dataclass
class SweepResult:
    """Accuracy and load reduction per epsilon, against an unpruned baseline.

    Losses follow the positive-means-worse sign convention
    (baseline accuracy minus pruned accuracy).
    """

    baseline_top1: float
    baseline_top5: float
    rows: list[SweepRow]

    def to_csv(self, path) -> None:
        write_csv(path, ["epsilon", "top1", "top5", "top1_loss", "top5_loss", "load_reduction"],
                  [[f"{r.epsilon:g}", f"{r.top1:.6f}", f"{r.top5:.6f}", f"{r.top1_loss:.6f}",
                    f"{r.top5_loss:.6f}", f"{r.load_reduction:.6f}"] for r in self.rows])

    def to_json(self, path=None) -> str:
        return dump_json(asdict(self), path)


def epsilon_sweep(model: NetworkModel, manifest: DatasetManifest, epsilons,
                  leak: float = 0.01, mode: str = MODE_LITERAL) -> SweepResult:
    """Evaluate at each epsilon with load recording; report deltas versus
    the unpruned baseline at the same leak and the per-layer bandwidth
    series. The epsilon list is checked (require_sorted) before any image
    is read."""
    if mode == MODE_OFF:
        raise ValueError("epsilon_sweep needs a pruning mode, not 'off'")
    eps_list = require_sorted(epsilons)
    baseline = evaluate(model, manifest, PruneConfig(leak=leak))
    base1, base5 = baseline.accuracies[1], baseline.accuracies[5]
    rows = []
    for eps in eps_list:
        recorder = LoadRecorder()
        cfg = PruneConfig(epsilon=eps, leak=leak, mode=mode)
        top = evaluate(model, manifest, cfg, recorder=recorder).accuracies
        savings = savings_ratio(recorder)
        rows.append(SweepRow(
            epsilon=eps,
            top1=top[1],
            top5=top[5],
            top1_loss=base1 - top[1],
            top5_loss=base5 - top[5],
            load_reduction=savings.saved_fraction,
            per_layer_megabits=[{
                "layer_index": l.layer_index,
                "megabits_loaded": l.megabits_loaded,
                "megabits_total": l.megabits_total,
            } for l in savings.per_layer],
        ))
    return SweepResult(baseline_top1=base1, baseline_top5=base5, rows=rows)
