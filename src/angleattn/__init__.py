"""Angular-attention transformers for hyperspectral image classification."""

from . import attention, data, model, tensor, train
from .attention import (AdditiveParams, AttentionConfig, AttentionParams,
                        NormMode, ScoreVariant, attention_node,
                        multi_head_attention)
from .data import (HyperCube, LabelMap, SplitSpec, SynthSpec, export_map,
                   extract_patch, extract_patches, inject_noise, load_cube,
                   load_labels, normalize_bands, stratified_split, synth_scene)
from .model import (ModelConfig, ModelParams, Positional, batched_forward,
                    forward, init_params, param_count)
from .tensor import Tape, Tensor, grad_check
from .train import (AdamW, EvalReport, TrainConfig, evaluate,
                    label_smoothed_ce, metrics_from_confusion)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
