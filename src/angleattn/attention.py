"""Multi-head attention with pluggable score functions.

The principal score projects queries and keys onto the unit hypersphere
and squares the resulting cosine similarity, so attention depends only on
angular alignment. Ten further variants (plain cosine, |cosine|,
temperature-scaled cosine^2, dot-product, scaled dot-product, additive,
a per-head cosine^2 / scaled-dot mix, and four cross-stream forms) share
the same pipeline.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, DimensionError
from .tensor import Tensor


class ScoreVariant(enum.Enum):
    COS_SQ = "cs2"
    COS = "cs"
    ABS_COS = "abscs"
    TEMP_COS_SQ = "tempcs2"
    DOT = "dp"
    SCALED_DOT = "sdp"
    ADDITIVE = "add"
    MIXED_COS_SQ_SDP = "msa-cs2"
    CROSS_SCALED_DOT = "c-sdp"
    CROSS_COS_SQ = "c-cs2"
    CROSS_COS = "c-cs"
    CROSS_ADDITIVE = "c-add"

    @classmethod
    def from_tag(cls, tag):
        try:
            return cls(tag)
        except ValueError:
            valid = ", ".join(v.value for v in cls)
            raise ConfigError(f"unknown score variant {tag!r}; valid tags: {valid}") from None


class NormMode(enum.Enum):
    NONE = "none"
    QUERY_ONLY = "query"
    KEY_ONLY = "key"
    BOTH = "both"

    @classmethod
    def from_tag(cls, tag):
        try:
            return cls(tag)
        except ValueError:
            valid = ", ".join(m.value for m in cls)
            raise ConfigError(f"unknown norm mode {tag!r}; valid tags: {valid}") from None


class VariantSpec(NamedTuple):
    """How one score variant turns s = q k^T (per head) into raw scores."""

    kernel: Callable | None  # (s, d_h, cfg) -> scores; None: additive, own parameters
    cosine: bool             # unit-norm rows: default norm_mode both, checked under both
    mixed: bool = False      # kernel on the first ceil(H/2) heads, sdp on the rest
    cross: bool = False      # keys and values come from the embedding stream


def _plain(s, d_h, cfg):
    return s


def _squared(s, d_h, cfg):
    return T.square(s)


def _absolute(s, d_h, cfg):
    return T.absolute(s)


def _tempered(s, d_h, cfg):
    return T.scale(T.square(s), 1.0 / cfg.temperature)


def _scaled(s, d_h, cfg):
    return T.scale(s, 1.0 / math.sqrt(d_h))


VARIANTS = {
    ScoreVariant.COS_SQ: VariantSpec(_squared, cosine=True),
    ScoreVariant.COS: VariantSpec(_plain, cosine=True),
    ScoreVariant.ABS_COS: VariantSpec(_absolute, cosine=True),
    ScoreVariant.TEMP_COS_SQ: VariantSpec(_tempered, cosine=True),
    ScoreVariant.DOT: VariantSpec(_plain, cosine=False),
    ScoreVariant.SCALED_DOT: VariantSpec(_scaled, cosine=False),
    ScoreVariant.ADDITIVE: VariantSpec(None, cosine=False),
    ScoreVariant.MIXED_COS_SQ_SDP: VariantSpec(_squared, cosine=True, mixed=True),
    ScoreVariant.CROSS_SCALED_DOT: VariantSpec(_scaled, cosine=False, cross=True),
    ScoreVariant.CROSS_COS_SQ: VariantSpec(_squared, cosine=True, cross=True),
    ScoreVariant.CROSS_COS: VariantSpec(_plain, cosine=True, cross=True),
    ScoreVariant.CROSS_ADDITIVE: VariantSpec(None, cosine=False, cross=True),
}


@dataclass
class AttentionConfig:
    model_dim: int
    heads: int
    variant: ScoreVariant = ScoreVariant.COS_SQ
    norm_mode: NormMode | None = None  # None: both for cosine variants, else none
    temperature: float = 0.5
    eps: float = 1e-12

    def __post_init__(self):
        if isinstance(self.variant, str):
            self.variant = ScoreVariant.from_tag(self.variant)
        if isinstance(self.norm_mode, str):
            self.norm_mode = NormMode.from_tag(self.norm_mode)
        if self.model_dim <= 0 or self.heads <= 0:
            raise ConfigError(f"model_dim and heads must be positive, got {self.model_dim}, {self.heads}")
        if self.model_dim % self.heads != 0:
            raise ConfigError(f"model_dim {self.model_dim} not divisible by heads {self.heads}")
        if self.temperature <= 0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")

    @property
    def head_dim(self):
        return self.model_dim // self.heads

    @property
    def resolved_norm_mode(self):
        if self.norm_mode is not None:
            return self.norm_mode
        return NormMode.BOTH if VARIANTS[self.variant].cosine else NormMode.NONE


@dataclass
class AdditiveParams:
    """Per-head additive-attention parameters, stacked along a head axis."""

    w_q: Tensor  # (H, d_a, d_h)
    w_k: Tensor  # (H, d_a, d_h)
    w_a: Tensor  # (H, d_a)
    b_a: Tensor  # (H, d_a)

    def __post_init__(self):
        h, d_a, d_h = self.w_q.shape
        if self.w_k.shape != (h, d_a, d_h) or self.w_a.shape != (h, d_a) or self.b_a.shape != (h, d_a):
            raise DimensionError(
                f"additive params inconsistent: {self.w_q.shape}, {self.w_k.shape}, "
                f"{self.w_a.shape}, {self.b_a.shape}")


@dataclass
class AttentionParams:
    w_q: Tensor  # (D, D)
    w_k: Tensor
    w_v: Tensor
    w_o: Tensor
    additive: AdditiveParams | None = None


def project_qkv(tokens_q, tokens_kv, params):
    """Q from the query stream; K and V from the key/value stream."""
    if tokens_q.shape != tokens_kv.shape:
        raise DimensionError(
            f"token streams differ: {tokens_q.shape} vs {tokens_kv.shape}")
    q = T.matmul(tokens_q, params.w_q)
    k = T.matmul(tokens_kv, params.w_k)
    v = T.matmul(tokens_kv, params.w_v)
    return q, k, v


def split_heads(m, heads):
    """(..., N, D) -> (..., H, N, D/H); head h owns columns [h*d_h, (h+1)*d_h)."""
    d = m.shape[-1]
    if d % heads != 0:
        raise ConfigError(f"model dim {d} not divisible by {heads} heads")
    n = m.shape[-2]
    d_h = d // heads
    stacked = T.reshape(m, m.shape[:-2] + (n, heads, d_h))
    axes = list(range(stacked.ndim))
    axes[-3], axes[-2] = axes[-2], axes[-3]
    return T.transpose(stacked, axes)


def merge_heads(m):
    """Inverse of split_heads: (..., H, N, d_h) -> (..., N, H*d_h)."""
    h, n, d_h = m.shape[-3:]
    axes = list(range(m.ndim))
    axes[-3], axes[-2] = axes[-2], axes[-3]
    return T.reshape(T.transpose(m, axes), m.shape[:-3] + (n, h * d_h))


# the tolerance of np.allclose(norms, 1.0, atol=1e-6): atol + rtol * |1.0|
_UNIT_NORM_TOL = 1e-6 + 1e-5


def _check_unit_rows(t, what):
    """Rows must be unit-norm, or exactly zero: l2_normalize_rows maps a zero
    row (e.g. a no-data pixel) to zero by its eps rule."""
    norms = np.linalg.norm(t.data, axis=-1)
    deviation = np.where(norms == 0.0, 0.0, np.abs(norms - 1.0)).max(initial=0.0)
    if not deviation <= _UNIT_NORM_TOL:  # also catches NaN
        raise ContractError(
            f"{what} rows must be unit-norm (or zero) before cosine scoring with "
            f"norm_mode=both (max deviation {deviation:.3e})")


def additive_score(q_i, k_j, params, head=0):
    """w^T tanh(W_q q_i + W_k k_j + b) for one query/key pair of one head."""
    w_q = params.w_q.data[head]
    w_k = params.w_k.data[head]
    hidden = np.tanh(w_q @ np.asarray(q_i, dtype=np.float64)
                     + w_k @ np.asarray(k_j, dtype=np.float64)
                     + params.b_a.data[head])
    return float(params.w_a.data[head] @ hidden)


def _additive_scores(q, k, params):
    """Vectorized additive scores over (..., H, N, d_h) inputs -> (..., H, N, N)."""
    h, d_a, _ = params.w_q.shape
    n = q.shape[-2]
    qp = T.matmul(q, T.transpose(params.w_q))  # (..., H, N, d_a)
    kp = T.matmul(k, T.transpose(params.w_k))
    qp = T.reshape(qp, qp.shape[:-2] + (n, 1, d_a))
    kp = T.reshape(kp, kp.shape[:-2] + (1, n, d_a))
    bias = T.reshape(params.b_a, (h, 1, 1, d_a))
    hidden = T.tanh(T.add(T.add(qp, kp), bias))  # (..., H, N, N, d_a)
    w = T.reshape(params.w_a, (h, 1, d_a, 1))
    out = T.matmul(hidden, w)  # (..., H, N, N, 1)
    return T.reshape(out, out.shape[:-1])


def _mixed_split(t, cfg):
    """The mixed variant's head groups along axis -3: (first ceil(H/2), rest)."""
    if t.ndim < 3 or t.shape[-3] != cfg.heads:
        raise DimensionError(
            f"mixed variant needs a head axis of size {cfg.heads}, got shape {t.shape}")
    n_cos, axis = (cfg.heads + 1) // 2, t.ndim - 3
    return T.slice_axis(t, axis, 0, n_cos), T.slice_axis(t, axis, n_cos, cfg.heads)


def _kernel_scores(kernel, cosine, q, k, cfg):
    if cosine and cfg.resolved_norm_mode is NormMode.BOTH:
        _check_unit_rows(q, "query")
        _check_unit_rows(k, "key")
    return kernel(T.matmul(q, T.transpose(k)), q.shape[-1], cfg)


def score(variant, q, k, cfg, additive_params=None):
    """Raw (pre-softmax) score matrix for already-normalized inputs.

    ``q`` and ``k`` carry trailing (N, d_h) axes; any leading batch/head
    axes broadcast. The mixed variant expects a head axis at position -3.
    """
    if isinstance(variant, str):
        variant = ScoreVariant.from_tag(variant)
    spec = VARIANTS[variant]
    if spec.kernel is None:
        if additive_params is None:
            raise ConfigError(f"variant {variant.value} requires additive parameters")
        return _additive_scores(q, k, additive_params)
    if not spec.mixed:
        return _kernel_scores(spec.kernel, spec.cosine, q, k, cfg)
    (q_cos, q_sdp), (k_cos, k_sdp) = _mixed_split(q, cfg), _mixed_split(k, cfg)
    return T.concat([_kernel_scores(spec.kernel, spec.cosine, q_cos, k_cos, cfg),
                     _kernel_scores(_scaled, False, q_sdp, k_sdp, cfg)], axis=q.ndim - 3)


def attend(scores, v):
    """softmax over keys, then weighted sum of values."""
    return T.matmul(T.softmax_rows(scores), v)


def _apply_norm(q, k, cfg):
    mode = cfg.resolved_norm_mode
    if mode in (NormMode.BOTH, NormMode.QUERY_ONLY):
        q = T.l2_normalize_rows(q, cfg.eps)
    if mode in (NormMode.BOTH, NormMode.KEY_ONLY):
        k = T.l2_normalize_rows(k, cfg.eps)
    return q, k


def multi_head_attention(tokens_q, tokens_kv, cfg, params):
    """Full pipeline: project, split heads, normalize, score, attend, merge.

    ``tokens_q``/``tokens_kv`` are (..., N, D); non-cross variants pass the
    same tensor for both. Output has the input shape.
    """
    q, k, v = project_qkv(tokens_q, tokens_kv, params)
    qh = split_heads(q, cfg.heads)
    kh = split_heads(k, cfg.heads)
    vh = split_heads(v, cfg.heads)
    if VARIANTS[cfg.variant].mixed:  # only the cosine heads are normalized
        (q_cos, q_sdp), (k_cos, k_sdp) = _mixed_split(qh, cfg), _mixed_split(kh, cfg)
        q_cos, k_cos = _apply_norm(q_cos, k_cos, cfg)
        qh, kh = T.concat([q_cos, q_sdp], qh.ndim - 3), T.concat([k_cos, k_sdp], kh.ndim - 3)
    else:
        qh, kh = _apply_norm(qh, kh, cfg)
    scores = score(cfg.variant, qh, kh, cfg, params.additive)
    out = merge_heads(attend(scores, vh))
    return T.matmul(out, params.w_o)
