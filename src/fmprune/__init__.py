"""CNN inference engine with dynamic runtime feature-map channel pruning.

Runs Darknet-style models one image at a time, optionally skipping input
channels whose activations sit within an epsilon of zero, and accounts for
every feature-map load the convolutional layers perform.
"""

from .tensor import ShapeError, Tensor, WeightBlock, read_raw_tensor, write_raw_tensor
from .model import (
    ConfigError, ConfigWarning, LayerSpec, NetworkModel, WeightsError, WeightsHeader,
    count_weight_floats, fold_batch_norm, load_weights, parse_config, save_weights,
)
from .inference import (
    MODE_LITERAL, MODE_MAGNITUDE, MODE_OFF, PruneConfig, apply_activation,
    avgpool_forward, connected_forward, conv_forward_fast, conv_forward_reference,
    epsilon_activate, forward, maxpool_forward, pruned_conv_forward, softmax_forward,
)
from .pruning import (
    ChannelMarkTable, LayerSavings, LoadRecorder, LoadRow, ProcessorCapability,
    SavingsReport, mark_zero_channels, savings_ratio,
)
from .stats import (
    DEFAULT_THRESHOLDS, CostModel, LayerCost, SparsityReport, activation_sparsity,
    classify_drop, compute_cost, static_prune, weight_sparsity,
)
from .evaluate import (
    CompareRow, DatasetManifest, EvalResult, ManifestEntry, SweepResult, SweepRow,
    classify, compare_per_image, epsilon_sweep, evaluate, load_class_names,
    load_manifest, write_compare_csv,
)
from .imageio import PPMError, RawImage, load_input, load_ppm, to_input_tensor, write_ppm

__version__ = "0.1.0"
