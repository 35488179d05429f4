"""Seeded workload generator: network config text, weights, PPM images, manifest.

Everything the engine reads in a benchmark run is written here from the
workload name, a seed and a size ("full" for the benchmark, "tiny" for the
benchmark's own tests). Nothing is downloaded. The generator also runs the
independent reference forward (reference.py) to label each image with its
unpruned top-1 class and to record the scores of its well-conditioned passes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference

SWEEP_EPSILONS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)  # the CLI's default sweep list
LEAK = 0.01
CALIBRATION_IMAGES = 4
NETWORK_SEED = 20181224
# Channel shares from the seed engine's random-weight MobileNet-224 (ROADMAP.md,
# item 1), which skipped 10.8% of channel loads at eps=0 and 21.6% at eps=0.1.
DEAD_SHARE = 0.108
QUIET_PEAK = (0.01, 0.3)    # range of a quiet channel's peak output, log-uniform
# so many quiet channels that those peaking at most 0.1 add the other 10.8% at eps=0.1
QUIET_SHARE = float((0.216 - DEAD_SHARE) * np.log(QUIET_PEAK[1] / QUIET_PEAK[0])
                    / np.log(0.1 / QUIET_PEAK[0]))


@dataclass(frozen=True)
class Workload:
    name: str
    net: str                 # "mobilenet" or "alexnet"
    call: str                # "evaluate" or "sweep"
    mode: str                # prune mode of the main call ("off" or "literal")
    epsilons: tuple          # epsilon of each pruned pass of the main call
    image_sizes: tuple       # (width, height) per image, cycled
    images: int
    why: str


WORKLOADS = {
    w.name: w for w in (
        Workload("mobilenet-eps0.1", "mobilenet", "evaluate", "literal", (0.1,),
                 ((224, 224),), 16,
                 "grouped conv, epsilon activation and channel marking at the paper's eps=0.1"),
        Workload("alexnet-off", "alexnet", "evaluate", "off", (),
                 ((256, 256),), 8,
                 "dense conv, maxpool, big connected layers and weight loading; bypasses pruning"),
        Workload("mobilenet-sweep", "mobilenet", "sweep", "literal", SWEEP_EPSILONS,
                 ((1440, 1080), (1080, 1440), (1632, 918), (1224, 1224)), 4,
                 "camera-sized images decoded and resized once per sweep pass, 7 passes each"),
    )
}

# Per-size shape knobs: input side, channel divisor, classes, hidden connected width,
# and the image side used in place of each stated image size.
SIZES = {
    "full": {"mobilenet": 224, "alexnet": 227, "div": 1, "classes": 1000, "hidden": 4096,
             "image_div": 1},
    "tiny": {"mobilenet": 32, "alexnet": 67, "div": 8, "classes": 10, "hidden": 64,
             "image_div": 24},
}


def _conv(filters, size, stride, groups=1, bn=False):
    return {"kind": "convolutional", "filters": filters, "size": size, "stride": stride,
            "pad": size // 2, "groups": groups, "bn": bn, "activation": "relu"}


def mobilenet_layers(size: str) -> tuple[int, list[dict]]:
    """MobileNet-v1: one full conv, 13 depth-wise/point-wise pairs, avgpool, fc, softmax."""
    s = SIZES[size]
    d = s["div"]
    layers = [_conv(32 // d, 3, 2, bn=True)]
    channels = 32 // d
    plan = [(64, 1), (128, 2), (128, 1), (256, 2), (256, 1), (512, 2),
            (512, 1), (512, 1), (512, 1), (512, 1), (512, 1), (1024, 2), (1024, 1)]
    for out, stride in plan:
        layers.append(_conv(channels, 3, stride, groups=channels, bn=True))
        layers.append(_conv(out // d, 1, 1, bn=True))
        channels = out // d
    layers += [{"kind": "avgpool"},
               {"kind": "connected", "outputs": s["classes"], "activation": "linear"},
               {"kind": "softmax"}]
    return s["mobilenet"], layers


def alexnet_layers(size: str) -> tuple[int, list[dict]]:
    """AlexNet: five dense convs, three maxpools, three connected layers, softmax."""
    s = SIZES[size]
    d = s["div"]
    conv1 = _conv(96 // d, 11, 4)
    conv1["pad"] = 0
    pool = {"kind": "maxpool", "size": 3, "stride": 2}
    layers = [conv1, pool, _conv(256 // d, 5, 1), pool,
              _conv(384 // d, 3, 1), _conv(384 // d, 3, 1), _conv(256 // d, 3, 1), pool,
              {"kind": "connected", "outputs": s["hidden"], "activation": "relu"},
              {"kind": "connected", "outputs": s["hidden"], "activation": "relu"},
              {"kind": "connected", "outputs": s["classes"], "activation": "linear"},
              {"kind": "softmax"}]
    return s["alexnet"], layers


def config_text(side: int, layers: list[dict]) -> str:
    out = [f"[net]\nheight={side}\nwidth={side}\nchannels=3\n"]
    for spec in layers:
        lines = [f"[{spec['kind']}]"]
        if spec["kind"] == "convolutional":
            if spec["bn"]:
                lines.append("batch_normalize=1")
            lines += [f"filters={spec['filters']}", f"size={spec['size']}",
                      f"stride={spec['stride']}", f"padding={spec['pad']}"]
            if spec["groups"] > 1:
                lines.append(f"groups={spec['groups']}")
            lines.append(f"activation={spec['activation']}")
        elif spec["kind"] == "maxpool":
            lines += [f"size={spec['size']}", f"stride={spec['stride']}"]
        elif spec["kind"] == "connected":
            lines += [f"outputs={spec['outputs']}", f"activation={spec['activation']}"]
        out.append("\n".join(lines) + "\n")
    return "\n".join(out)


def _bn_channels(rng, n: int, peaks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batch-norm scale and shift per channel, given each channel's largest
    normalised output on the calibration images.

    A trained net has dead channels (ReLU output always 0) and quiet ones
    (small outputs); they are what epsilon marking finds. DEAD_SHARE of the
    channels are dead. QUIET_SHARE are quiet: each peaks on the calibration
    images at a value drawn log-uniform over QUIET_PEAK, so whether it is
    marked depends on epsilon across the sweep's range and, near its peak,
    on how strongly the image drives it. The rest carry signal, mostly on
    the active side of the ReLU (shift about 0.8, scale 0.3-0.8), which
    keeps the 27-layer random net from amplifying small input changes as a
    chaotic one would.
    """
    kind = rng.random(n)
    gamma = rng.uniform(0.3, 0.8, n)
    beta = rng.normal(0.8, 0.3, n)
    dead = kind < DEAD_SHARE
    beta[dead] = -8.0 * gamma[dead]
    quiet = (kind >= DEAD_SHARE) & (kind < DEAD_SHARE + QUIET_SHARE) & (peaks > 0)
    peak = np.exp(rng.uniform(*np.log(QUIET_PEAK), n))
    gamma[quiet] = peak[quiet] / peaks[quiet]
    beta[quiet] = 0.0
    return gamma, beta


def make_weights(rng, layers: list[dict], calibration: list[np.ndarray]) -> list[dict | None]:
    """He-scaled weights; batch-norm statistics measured on calibration images.

    The rolling mean and variance are those of the conv output over a few
    calibration images, as training would leave them, so every layer sees
    activations of the scale the next layer's He init expects, on any image.
    """
    weights: list[dict | None] = []
    xs = calibration
    c = 3
    for spec in layers:
        kind = spec["kind"]
        if kind == "convolutional":
            cpg = c // spec["groups"]
            k = spec["size"]
            w = (rng.standard_normal((spec["filters"], cpg, k, k), dtype=np.float32)
                 * np.float32(np.sqrt(2.0 / (cpg * k * k))))
            block = {"weights": w}
            raws = [reference.conv2d(x, w, spec["stride"], spec["pad"], spec["groups"]) for x in xs]
            if spec["bn"]:
                stacked = np.concatenate([r.reshape(r.shape[0], -1) for r in raws], axis=1)
                mean = stacked.mean(axis=1)
                var = stacked.var(axis=1)
                # a channel fed only by quiet inputs stays quiet instead of being
                # scaled up to unit variance, which would make the net chaotic
                var += 0.1 * var.mean()
                peaks = (stacked.max(axis=1) - mean) / np.sqrt(var + reference.BN_EPSILON)
                gamma, beta = _bn_channels(rng, spec["filters"], peaks.astype(np.float32))
                block["bn"] = {"scale": gamma.astype(np.float32),
                               "mean": mean.astype(np.float32),
                               "var": var.astype(np.float32)}
                block["biases"] = beta.astype(np.float32)
                raws = [reference.batch_norm(r, block["bn"]) for r in raws]
            else:
                block["biases"] = rng.normal(0.0, 0.02, spec["filters"]).astype(np.float32)
            xs = [reference.activate(r + block["biases"][:, None, None], "relu", None)[0]
                  for r in raws]
            c = spec["filters"]
            weights.append(block)
        elif kind == "connected":
            n_in = spec["inputs"] = xs[0].size
            w = rng.standard_normal((spec["outputs"], n_in), dtype=np.float32)
            w *= np.float32(np.sqrt(2.0 / n_in))
            weights.append({"weights": w,
                            "biases": rng.normal(0.0, 0.02, spec["outputs"]).astype(np.float32)})
            xs = [np.zeros((spec["outputs"], 1, 1))]  # later layers only need the size
            c = spec["outputs"]
        else:
            if kind == "maxpool":
                xs = [reference.maxpool(x, spec["size"], spec["stride"]) for x in xs]
            elif kind == "avgpool":
                xs = [x.mean(axis=(1, 2), keepdims=True) for x in xs]
            weights.append(None)
    return weights


def write_weights(path: Path, layers: list[dict], weights: list[dict | None]) -> None:
    """Darknet weights stream: version 0.2.0, 64-bit seen counter, then per layer
    biases, optional batch-norm scale/mean/variance, and coefficients."""
    with open(path, "wb") as f:
        np.array([0, 2, 0], dtype="<i4").tofile(f)
        np.array([0], dtype="<i8").tofile(f)
        for spec, block in zip(layers, weights):
            if block is None:
                continue
            block["biases"].astype("<f4").tofile(f)
            if "bn" in block:
                for key in ("scale", "mean", "var"):
                    block["bn"][key].astype("<f4").tofile(f)
            block["weights"].astype("<f4", copy=False).tofile(f)


def smooth_image(rng, width: int, height: int) -> np.ndarray:
    """H×W×3 uint8 picture: a coarse random colour field, smoothly upsampled, plus noise."""
    grid = rng.uniform(0.0, 255.0, (3, 7, 9))
    ry = _interp_matrix(7, height)
    rx = _interp_matrix(9, width)
    field = np.stack([ry @ plane @ rx.T for plane in grid], axis=2)
    field += rng.normal(0.0, 12.0, field.shape)
    return np.clip(np.rint(field), 0, 255).astype(np.uint8)


def _interp_matrix(n: int, target: int) -> np.ndarray:
    pos = np.linspace(0.0, n - 1.0, target)
    lo = np.minimum(np.floor(pos).astype(int), n - 2)
    frac = pos - lo
    m = np.zeros((target, n))
    m[np.arange(target), lo] = 1.0 - frac
    m[np.arange(target), lo + 1] = frac
    return m


def write_ppm(path: Path, pixels: np.ndarray) -> None:
    h, w, _ = pixels.shape
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (w, h))
        f.write(pixels.tobytes())


def resize_input(pixels: np.ndarray, side: int) -> np.ndarray:
    """Bilinear resize with half-pixel centres, clamped at the border, to 3×side×side in [0, 1].

    This is the input contract of the engine's loader; the result is stored
    as float32 because that is the engine's tensor format.
    """
    h, w, _ = pixels.shape
    src = pixels.astype(np.float64)

    def axis(length):
        pos = np.clip((np.arange(side) + 0.5) * (length / side) - 0.5, 0.0, length - 1)
        lo = np.floor(pos).astype(int)
        return lo, np.minimum(lo + 1, length - 1), pos - lo

    y0, y1, fy = axis(h)
    x0, x1, fx = axis(w)
    rows = src[y0] * (1 - fy)[:, None, None] + src[y1] * fy[:, None, None]
    out = rows[:, x0] * (1 - fx)[None, :, None] + rows[:, x1] * fx[None, :, None]
    return (out.transpose(2, 0, 1) / 255.0).astype(np.float32)


def pass_configs(w: Workload) -> list[tuple[str, float]]:
    """Every (mode, epsilon) the main call runs, in call order."""
    if w.call == "sweep":
        return [("off", 0.0)] + [(w.mode, e) for e in w.epsilons]
    return [(w.mode, w.epsilons[0] if w.epsilons else 0.0)]


def well_conditioned(mode: str, epsilon: float) -> bool:
    """Whether a whole-network reference pass pins the engine's scores to 1e-5.

    Unpruned and eps=0 passes are continuous in every value. A pass with
    eps > 0 jumps by eps wherever a value crosses the threshold, so rounding
    differences between float32 and float64 flip a few values per image and
    the flips grow through the layers; those passes are checked layer by
    layer instead (see check.py).
    """
    return mode == "off" or epsilon == 0.0


def generate(name: str, seed: int, workdir: Path, size: str = "full") -> dict:
    """Write the workload's files into workdir and return its description.

    The description (also saved as workload.json) names the files, the
    layer list, the pass configurations and each image's label: the top-1
    class of the unpruned reference pass. Reference scores of every
    well-conditioned pass go to reference.npy (NaN for the others).
    """
    w = WORKLOADS[name]
    # The network is part of the workload's definition and the same for every
    # seed, as a deployed model is; the seed draws the images.
    net_rng = np.random.default_rng([NETWORK_SEED, sum(w.net.encode())])
    rng = np.random.default_rng([seed % 2**63, sum(name.encode())])
    side, layers = (mobilenet_layers if w.net == "mobilenet" else alexnet_layers)(size)
    workdir.mkdir(parents=True, exist_ok=True)
    cfg_path = workdir / f"{w.net}.cfg"
    cfg_path.write_text(config_text(side, layers))

    calib = [resize_input(smooth_image(net_rng, side, side), side).astype(np.float64)
             for _ in range(CALIBRATION_IMAGES)]
    weights = make_weights(net_rng, layers, calib)
    weights_path = workdir / f"{w.net}.weights"
    write_weights(weights_path, layers, weights)

    div = SIZES[size]["image_div"]
    configs = pass_configs(w)
    images, scores = [], []
    for i in range(w.images):
        iw, ih = w.image_sizes[i % len(w.image_sizes)]
        pixels = smooth_image(rng, max(iw // div, 8), max(ih // div, 8))
        path = workdir / f"img{i:03d}.ppm"
        write_ppm(path, pixels)
        x = resize_input(pixels, side)
        base = reference.forward(layers, weights, x)
        for mode, eps in configs:
            if mode == "off":
                scores.append(base)
            elif well_conditioned(mode, eps):
                scores.append(reference.forward(layers, weights, x, eps))
            else:
                scores.append(np.full_like(base, np.nan))
        images.append({"path": str(path.resolve()), "label": int(np.argmax(base))})

    manifest_path = workdir / "manifest.txt"
    manifest_path.write_text("".join(f"{im['path']}\t{im['label']}\n" for im in images))
    np.save(workdir / "reference.npy",
            np.array(scores).reshape(len(images), len(configs), -1))
    desc = {"workload": name, "seed": seed, "size": size, "call": w.call, "side": side,
            "configs": configs, "leak": LEAK, "layers": layers,
            "cfg": str(cfg_path.resolve()), "weights": str(weights_path.resolve()),
            "manifest": str(manifest_path.resolve()), "images": images}
    (workdir / "workload.json").write_text(json.dumps(desc))
    return desc
