"""Spatial-spectral transformer: tokenization, encoder stack, classifier.

A P x P x C patch becomes N = P^2 tokens via a learnable spectral
embedding, positional information is added, L pre-LN residual encoder
blocks apply the configured attention variant, and a global-average-pooled
feature is mapped to class probabilities.
"""

from __future__ import annotations

import enum
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import (VARIANTS, AdditiveParams, AttentionConfig, AttentionParams,
                        _lookup_tag, multi_head_attention)
from .errors import (ConfigError, DimensionError, FormatError, check_indexable, check_int,
                     check_real)
from .tensor import Tensor


class Positional(enum.Enum):
    NONE = "none"
    SINUSOIDAL = "sinusoidal"
    LEARNABLE = "learnable"

    @classmethod
    def from_tag(cls, tag):
        return _lookup_tag(cls, tag, "positional mode")


@dataclass
class ModelConfig:
    bands: int
    num_classes: int
    patch_size: int = 16
    model_dim: int = 64
    depth: int = 4
    heads: int = 4
    mlp_dim: int = 128
    dropout_rate: float = 0.1
    attention: AttentionConfig = None
    positional: Positional = Positional.LEARNABLE

    def __post_init__(self):
        self.positional = Positional.from_tag(self.positional)
        for name in ("bands", "num_classes", "patch_size", "model_dim", "depth", "heads", "mlp_dim"):
            check_int(name, getattr(self, name), 1)
        width, field = max((self.bands, "bands"), (self.model_dim, "model_dim"),
                           (self.mlp_dim, "mlp_dim"))
        check_indexable(f"patch_size {self.patch_size} and {field} {width}", "one sample",
                        (self.tokens, width))
        check_indexable(f"num_classes {self.num_classes}", "evaluate's confusion matrix",
                        (self.num_classes, self.num_classes))
        check_real("dropout_rate", self.dropout_rate, lambda v: 0 <= v < 1, "in [0, 1)")
        if self.attention is None:
            self.attention = AttentionConfig(model_dim=self.model_dim, heads=self.heads)
        if self.attention.model_dim != self.model_dim or self.attention.heads != self.heads:
            raise ConfigError("attention config disagrees with model dims")

    @property
    def tokens(self):
        return self.patch_size ** 2


@dataclass
class LayerParams:
    attn: AttentionParams
    ln1_scale: Tensor
    ln1_shift: Tensor
    ln2_scale: Tensor
    ln2_shift: Tensor
    mlp_w1: Tensor
    mlp_b1: Tensor
    mlp_w2: Tensor
    mlp_b2: Tensor


@dataclass
class ModelParams:
    w_s: Tensor                 # (C, D) spectral embedding
    pos: Tensor | None          # (N, D), learnable positional mode only
    layers: list
    final_scale: Tensor
    final_shift: Tensor
    w_c: Tensor                 # (D, K)
    b_c: Tensor                 # (K,)

    def named_parameters(self):
        out = [("w_s", self.w_s)]
        if self.pos is not None:
            out.append(("pos", self.pos))
        for i, lp in enumerate(self.layers):
            pre = f"layers.{i}."
            out += [(pre + "attn.w_q", lp.attn.w_q), (pre + "attn.w_k", lp.attn.w_k),
                    (pre + "attn.w_v", lp.attn.w_v), (pre + "attn.w_o", lp.attn.w_o)]
            if lp.attn.additive is not None:
                ap = lp.attn.additive
                out += [(pre + "attn.add.w_q", ap.w_q), (pre + "attn.add.w_k", ap.w_k),
                        (pre + "attn.add.w_a", ap.w_a), (pre + "attn.add.b_a", ap.b_a)]
            out += [(pre + "ln1_scale", lp.ln1_scale), (pre + "ln1_shift", lp.ln1_shift),
                    (pre + "ln2_scale", lp.ln2_scale), (pre + "ln2_shift", lp.ln2_shift),
                    (pre + "mlp_w1", lp.mlp_w1), (pre + "mlp_b1", lp.mlp_b1),
                    (pre + "mlp_w2", lp.mlp_w2), (pre + "mlp_b2", lp.mlp_b2)]
        out += [("final_scale", self.final_scale), ("final_shift", self.final_shift),
                ("w_c", self.w_c), ("b_c", self.b_c)]
        return out

    def zero_grads(self):
        for _, t in self.named_parameters():
            t.zero_grad()

    def copy_values(self):
        return {name: t.data.copy() for name, t in self.named_parameters()}

    def load_values(self, values):
        for name, t in self.named_parameters():
            t.data = np.array(values[name], dtype=np.float64)


def is_no_decay(name):
    """Weight decay skips layer-norm scales/shifts and all bias vectors."""
    leaf = name.rsplit(".", 1)[-1]
    return ("scale" in leaf or "shift" in leaf
            or leaf in ("b_c", "b_a", "mlp_b1", "mlp_b2", "pos"))


def _glorot(rng, fan_in, fan_out, shape=None):
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape or (fan_in, fan_out))


def _trunc_normal(rng, shape, std=0.02):
    x = rng.normal(0.0, std, size=shape)
    while True:
        bad = np.abs(x) > 2 * std
        if not bad.any():
            return x
        x[bad] = rng.normal(0.0, std, size=int(bad.sum()))


def _check_fits_in_memory(cfg):
    """ConfigError, before any allocation, when the parameters, their gradients
    and AdamW's two moments (4 float64 values per parameter) exceed physical
    memory; on a platform that does not report it nothing is checked."""
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    count = param_count(cfg)
    if 4 * 8 * count > memory:  # whole GiB by shifts below: a count may be past float range
        raise ConfigError(
            f"depth {cfg.depth}, model_dim {cfg.model_dim}, mlp_dim {cfg.mlp_dim}, "
            f"bands {cfg.bands}, patch_size {cfg.patch_size} and num_classes "
            f"{cfg.num_classes} make {count} parameters; with their gradients and two AdamW "
            f"moments they need {4 * 8 * count >> 30} GiB, above the {memory >> 30} GiB "
            "of physical memory")


def init_params(cfg, seed):
    """Glorot-uniform projections, truncated-normal positions, unit LN.

    A model whose training state cannot fit in physical memory is refused
    first (``_check_fits_in_memory``)."""
    _check_fits_in_memory(cfg)
    rng = np.random.default_rng(seed)
    d, n, c, k = cfg.model_dim, cfg.tokens, cfg.bands, cfg.num_classes
    d_h = cfg.attention.head_dim

    def leaf(data):
        return Tensor(data, requires_grad=True)

    w_s = leaf(_glorot(rng, c, d))
    pos = leaf(_trunc_normal(rng, (n, d))) if cfg.positional is Positional.LEARNABLE else None
    layers = []
    for _ in range(cfg.depth):
        additive = None
        if VARIANTS[cfg.attention.variant].kernel is None:  # additive
            d_a = d_h  # hidden width matches the head width
            additive = AdditiveParams(
                w_q=leaf(np.stack([_glorot(rng, d_h, d_a).T for _ in range(cfg.heads)])),
                w_k=leaf(np.stack([_glorot(rng, d_h, d_a).T for _ in range(cfg.heads)])),
                w_a=leaf(_glorot(rng, d_a, 1, shape=(cfg.heads, d_a))),
                b_a=leaf(np.zeros((cfg.heads, d_a))),
            )
        attn = AttentionParams(
            w_q=leaf(_glorot(rng, d, d)), w_k=leaf(_glorot(rng, d, d)),
            w_v=leaf(_glorot(rng, d, d)), w_o=leaf(_glorot(rng, d, d)),
            additive=additive)
        layers.append(LayerParams(
            attn=attn,
            ln1_scale=leaf(np.ones(d)), ln1_shift=leaf(np.zeros(d)),
            ln2_scale=leaf(np.ones(d)), ln2_shift=leaf(np.zeros(d)),
            mlp_w1=leaf(_glorot(rng, d, cfg.mlp_dim)), mlp_b1=leaf(np.zeros(cfg.mlp_dim)),
            mlp_w2=leaf(_glorot(rng, cfg.mlp_dim, d)), mlp_b2=leaf(np.zeros(d))))
    return ModelParams(
        w_s=w_s, pos=pos, layers=layers,
        final_scale=leaf(np.ones(d)), final_shift=leaf(np.zeros(d)),
        w_c=leaf(_glorot(rng, d, k)), b_c=leaf(np.zeros(k)))


def param_count(cfg):
    """Closed-form parameter total; must equal the actual allocation."""
    d, n, c, k = cfg.model_dim, cfg.tokens, cfg.bands, cfg.num_classes
    d_h = cfg.attention.head_dim
    total = c * d
    if cfg.positional is Positional.LEARNABLE:
        total += n * d
    per_layer = 4 * d * d + 4 * d + (d * cfg.mlp_dim + cfg.mlp_dim + cfg.mlp_dim * d + d)
    if VARIANTS[cfg.attention.variant].kernel is None:  # additive
        per_layer += cfg.heads * (2 * d_h * d_h + 2 * d_h)
    total += cfg.depth * per_layer
    total += 2 * d + d * k + k
    return total


def sinusoidal_table(n, d):
    """PE[t, 2m] = sin(t / 10000^(2m/d)), PE[t, 2m+1] = cos(same)."""
    table = np.zeros((n, d))
    pos = np.arange(n)[:, None]
    m = np.arange(0, d, 2)[None, :]
    angle = pos / np.power(10000.0, m / d)
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle[:, : table[:, 1::2].shape[1]])
    return table


def tokenize_patch(x, w_s):
    """(..., P, P, C) -> (..., P^2, D) by per-pixel spectral embedding."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    if x.shape[-1] != w_s.shape[0]:
        raise DimensionError(f"patch has {x.shape[-1]} bands, embedding expects {w_s.shape[0]}")
    p = x.shape[-2]
    flat = T.reshape(x, x.shape[:-3] + (x.shape[-3] * p, x.shape[-1]))
    return T.matmul(flat, w_s)


def add_positions(tokens, mode, table=None):
    if mode is Positional.NONE:
        return tokens
    n, d = tokens.shape[-2:]
    if mode is Positional.SINUSOIDAL:
        return T.add(tokens, Tensor(sinusoidal_table(n, d)))
    if table is None or table.shape != (n, d):
        got = None if table is None else table.shape
        raise DimensionError(f"learnable positions need a {(n, d)} table, got {got}")
    return T.add(tokens, table)


def encoder_block(tokens, lp, cfg, training=False, rng=None, kv_tokens=None):
    """Pre-LN residual attention followed by a pre-LN residual MLP."""
    rng = rng or np.random.default_rng(0)
    normed = T.layer_norm(tokens, lp.ln1_scale, lp.ln1_shift)
    if kv_tokens is None:
        kv = normed
    else:
        kv = T.layer_norm(kv_tokens, lp.ln1_scale, lp.ln1_shift)
    # no name holds a value that no backward reads (the attention and MLP
    # outputs, before and after dropout), so each dies as the next op takes it
    u = T.add(tokens, T.dropout(multi_head_attention(normed, kv, cfg.attention, lp.attn),
                                cfg.dropout_rate, training, rng))
    normed2 = T.layer_norm(u, lp.ln2_scale, lp.ln2_shift)
    hidden = T.gelu(T.add(T.matmul(normed2, lp.mlp_w1), lp.mlp_b1))
    return T.add(u, T.dropout(T.add(T.matmul(hidden, lp.mlp_w2), lp.mlp_b2),
                              cfg.dropout_rate, training, rng))


def _forward_tokens(x, params, cfg, training, rng):
    t = add_positions(tokenize_patch(x, params.w_s), cfg.positional, params.pos)
    t0 = t if VARIANTS[cfg.attention.variant].cross else None  # the cross variants' keys
    for lp in params.layers:
        t = encoder_block(t, lp, cfg, training, rng, kv_tokens=t0)
    pooled = T.reduce_mean(T.layer_norm(t, params.final_scale, params.final_shift), axis=-2)
    logits = T.add(T.matmul(T.reshape(pooled, pooled.shape[:-1] + (1, pooled.shape[-1])),
                            params.w_c), params.b_c)
    logits = T.reshape(logits, logits.shape[:-2] + (logits.shape[-1],))
    return logits, T.softmax_rows(logits)


def forward(x, params, cfg, training=False, rng=None):
    """Single patch (P, P, C) -> (logits (K,), probabilities (K,))."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    if x.ndim != 3:
        raise DimensionError(f"forward expects a (P, P, C) patch, got {x.shape}")
    return _forward_tokens(x, params, cfg, training, rng or np.random.default_rng(0))


def batched_forward(batch, params, cfg, training=False, rng=None):
    """(B, P, P, C) -> probabilities (B, K); row b equals forward of patch b."""
    batch = batch if isinstance(batch, Tensor) else Tensor(batch)
    if batch.ndim != 4:
        raise DimensionError(f"batched_forward expects (B, P, P, C), got {batch.shape}")
    _, probs = _forward_tokens(batch, params, cfg, training, rng or np.random.default_rng(0))
    return probs


def save_checkpoint(path, params, config_dict, seed, epoch):
    """One NPY raster per parameter plus a manifest.json, written last.

    Any old manifest is removed first and the new one lands by rename, so a
    save that stops part-way leaves a directory load_checkpoint refuses.
    """
    os.makedirs(path, exist_ok=True)
    manifest_path = os.path.join(path, "manifest.json")
    if os.path.exists(manifest_path):
        os.remove(manifest_path)
    entries = []
    for name, t in params.named_parameters():
        fname = name.replace(".", "_") + ".npy"
        np.save(os.path.join(path, fname), t.data)
        entries.append({"name": name, "shape": list(t.shape), "file": fname})
    manifest = {"params": entries, "config": config_dict, "seed": seed, "epoch": epoch}
    with open(manifest_path + ".tmp", "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
    os.replace(manifest_path + ".tmp", manifest_path)


def load_checkpoint(path):
    """Returns (values-by-name, manifest); validates shapes per the manifest."""
    manifest_path = os.path.join(path, "manifest.json")
    if not os.path.exists(manifest_path):
        raise FormatError(f"no manifest.json in {path}")
    with open(manifest_path) as f:
        try:
            manifest = json.load(f)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise FormatError(f"{manifest_path} is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise FormatError(f"{manifest_path} must hold a JSON object")
    missing = [key for key in ("params", "config", "seed", "epoch") if key not in manifest]
    if missing:
        raise FormatError(f"{manifest_path} lacks {', '.join(missing)}")
    if not isinstance(manifest["params"], list) or not isinstance(manifest["config"], dict):
        raise FormatError(f"{manifest_path}: params must be a list and config an object")
    for entry in manifest["params"]:
        if (not isinstance(entry, dict) or not {"name", "shape", "file"} <= set(entry)
                or not isinstance(entry["name"], str) or not isinstance(entry["file"], str)):
            raise FormatError(
                f"{manifest_path}: a params entry lacks a string name or file, or a shape")
    values = {}
    for entry in manifest["params"]:
        fpath = os.path.join(path, entry["file"])
        try:
            arr = np.load(fpath)
        except Exception as exc:
            raise FormatError(f"parameter {entry['name']!r} unreadable: {exc}") from None
        if list(arr.shape) != entry["shape"]:
            raise FormatError(
                f"parameter {entry['name']!r} has shape {list(arr.shape)}, "
                f"manifest says {entry['shape']}")
        if arr.dtype.kind not in "biuf":  # not strings, nor complex values cast to their real part
            raise FormatError(f"parameter {entry['name']!r} has dtype {arr.dtype}, not a real one")
        values[entry["name"]] = arr.astype(np.float64)
    return values, manifest
