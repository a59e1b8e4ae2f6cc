"""Multi-head attention with pluggable score functions.

The principal score projects queries and keys onto the unit hypersphere
and squares the resulting cosine similarity, so attention depends only on
angular alignment. Ten further variants (plain cosine, |cosine|,
temperature-scaled cosine^2, dot-product, scaled dot-product, additive,
a per-head cosine^2 / scaled-dot mix, and four cross-stream forms) all
run through ``attention_node``, one tape node that owns the head split.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, DimensionError, check_int, check_real
from .tensor import Tensor


def _lookup_tag(cls, tag, what):
    """The member of enum ``cls`` tagged ``tag``; ConfigError listing the valid tags if none."""
    try:
        return cls(tag)
    except ValueError:
        valid = ", ".join(m.value for m in cls)
        raise ConfigError(f"unknown {what} {tag!r}; valid tags: {valid}") from None


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
        return _lookup_tag(cls, tag, "score variant")


class NormMode(enum.Enum):
    NONE = "none"
    QUERY_ONLY = "query"
    KEY_ONLY = "key"
    BOTH = "both"

    @classmethod
    def from_tag(cls, tag):
        return _lookup_tag(cls, tag, "norm mode")


class Kernel(NamedTuple):
    """Elementwise map from s = q k^T (per head) to raw scores, in numpy.

    Without ``out`` each map allocates its result, as the composed reference
    in ``tests/oracle.py`` calls it. With ``out`` (which may be ``s``) the
    node's in-place form writes the result there; the identity kernel hands
    back its input instead.
    """

    forward: Callable   # (s, d_h, cfg, out=None) -> scores
    backward: Callable  # (s, g, d_h, cfg, out=None) -> dL/ds, given g = dL/dscores
    bound: Callable     # cfg -> largest |score| when every q and k row is unit-norm


class VariantSpec(NamedTuple):
    """How one score variant turns s = q k^T (per head) into raw scores."""

    kernel: Kernel | None    # None: additive, with its own parameters
    cosine: bool             # unit-norm rows: default norm_mode both, checked under both
    mixed: bool = False      # kernel on the first ceil(H/2) heads, sdp on the rest
    cross: bool = False      # keys and values come from the embedding stream


# each map keeps the rounding of its plain numpy expression: s * s, 2.0 * s * g,
# np.sign(s) * g, s * s * (1 / tau), 2.0 * s * (g * (1 / tau)), s * (1 / sqrt d_h)
_PLAIN = Kernel(lambda s, d_h, cfg, out=None: s, lambda s, g, d_h, cfg, out=None: g,
                lambda cfg: 1.0)
_SQUARED = Kernel(
    lambda s, d_h, cfg, out=None: np.multiply(s, s, out=out),
    lambda s, g, d_h, cfg, out=None: np.multiply(np.multiply(2.0, s, out=out), g, out=out),
    lambda cfg: 1.0)
_ABSOLUTE = Kernel(
    lambda s, d_h, cfg, out=None: np.abs(s, out=out),
    lambda s, g, d_h, cfg, out=None: np.multiply(np.sign(s, out=out), g, out=out),
    lambda cfg: 1.0)
_TEMPERED = Kernel(
    lambda s, d_h, cfg, out=None: np.multiply(np.multiply(s, s, out=out),
                                              1.0 / cfg.temperature, out=out),
    lambda s, g, d_h, cfg, out=None: np.multiply(np.multiply(2.0, s, out=out),
                                                 g * (1.0 / cfg.temperature), out=out),
    lambda cfg: 1.0 / cfg.temperature)
_SCALED = Kernel(
    lambda s, d_h, cfg, out=None: np.multiply(s, 1.0 / math.sqrt(d_h), out=out),
    lambda s, g, d_h, cfg, out=None: np.multiply(g, 1.0 / math.sqrt(d_h), out=out),
    lambda cfg: 1.0)  # 1/sqrt(d_h) <= 1

VARIANTS = {
    ScoreVariant.COS_SQ: VariantSpec(_SQUARED, cosine=True),
    ScoreVariant.COS: VariantSpec(_PLAIN, cosine=True),
    ScoreVariant.ABS_COS: VariantSpec(_ABSOLUTE, cosine=True),
    ScoreVariant.TEMP_COS_SQ: VariantSpec(_TEMPERED, cosine=True),
    ScoreVariant.DOT: VariantSpec(_PLAIN, cosine=False),
    ScoreVariant.SCALED_DOT: VariantSpec(_SCALED, cosine=False),
    ScoreVariant.ADDITIVE: VariantSpec(None, cosine=False),
    ScoreVariant.MIXED_COS_SQ_SDP: VariantSpec(_SQUARED, cosine=True, mixed=True),
    ScoreVariant.CROSS_SCALED_DOT: VariantSpec(_SCALED, cosine=False, cross=True),
    ScoreVariant.CROSS_COS_SQ: VariantSpec(_SQUARED, cosine=True, cross=True),
    ScoreVariant.CROSS_COS: VariantSpec(_PLAIN, cosine=True, cross=True),
    ScoreVariant.CROSS_ADDITIVE: VariantSpec(None, cosine=False, cross=True),
}


@dataclass
class AttentionConfig:
    model_dim: int
    heads: int
    variant: ScoreVariant = ScoreVariant.COS_SQ
    norm_mode: NormMode | None = None  # None: both for cosine variants, else none
    temperature: float = 0.5

    def __post_init__(self):
        self.variant = ScoreVariant.from_tag(self.variant)
        if self.norm_mode is not None:
            self.norm_mode = NormMode.from_tag(self.norm_mode)
        check_int("model_dim", self.model_dim, 1)
        check_int("heads", self.heads, 1)
        if self.model_dim % self.heads != 0:
            raise ConfigError(f"model_dim {self.model_dim} not divisible by heads {self.heads}")
        check_real("temperature", self.temperature, lambda v: 0 < v < math.inf, "finite and > 0")

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


_NORM_EPS = 1e-12  # a shorter row is divided by this instead of by its norm


def _check_unit_rows(norms, what):
    """The row normalisation must give unit rows, or exactly zero ones: from
    the rows' norms before it, each must be exactly 0 (the ``_NORM_EPS``
    rule keeps a zero row zero), or finite and at least ``_NORM_EPS``. A
    shorter row would come out shorter than unit, and an infinite norm
    (a square that overflowed, or an inf entry) would turn the row into
    zeros or NaNs; a NaN norm fails both tests."""
    bad = ~((norms == 0.0) | ((norms >= _NORM_EPS) & (norms < np.inf)))
    if bad.any():
        raise ContractError(
            f"{what} rows must have a finite norm of at least {_NORM_EPS:g}, or be zero, "
            f"for cosine scoring with norm_mode=both (found norm {norms[bad].flat[0]:.3e})")


# exp of a score up to this size cannot overflow a softmax row: N e^64 (about
# N * 6e27) stays far below float64's 1.8e308 for any N that fits in memory,
# and e^-64 (about 1.6e-28) is far above underflow
_EXP_LIMIT = 64.0


def _skips_max_shift(cfg):
    """Whether the softmax may take exp of the raw scores, with no row-max shift.

    That holds when every q and k row has passed ``_check_unit_rows`` (a
    cosine variant, not the per-head mix, at resolved norm mode both), so no
    score exceeds its kernel's bound in size, and that bound is at most
    ``_EXP_LIMIT``. A NaN or inf row fails the unit-row check before any
    softmax runs, so the unshifted softmax needs no NaN check of its own.
    """
    spec = VARIANTS[cfg.variant]
    return (spec.cosine and not spec.mixed and cfg.resolved_norm_mode is NormMode.BOTH
            and spec.kernel.bound(cfg) <= _EXP_LIMIT)


# -- the fused node: normalise, score, softmax and attend as one tape op -----

# bytes of the largest per-chunk array (scores, or the additive hidden tensor);
# the sweep that chose it is in CHANGES.md
CHUNK_BUDGET = 2 << 20


def _chunks(q, bytes_per_sample):
    """Slices of the leading sample axis; a 2-D (one-sample) input is one chunk."""
    if q.ndim < 3:
        return [slice(None)]
    step = max(1, CHUNK_BUDGET // bytes_per_sample)
    return [slice(lo, lo + step) for lo in range(0, q.shape[0], step)]


def _heads(x, heads):
    """(..., N, D) -> a (..., H, N, D/H) view; head h owns columns [h*d_h, (h+1)*d_h)."""
    n, d = x.shape[-2:]
    return np.swapaxes(x.reshape(x.shape[:-2] + (n, heads, d // heads)), -2, -3)


class _Scratch(dict):
    """One node call's per-chunk arrays, by name. Each is allocated at the
    first chunk's shape and sliced for the later chunks, which are never
    larger, so a call allocates each temporary once, a partial last chunk
    included, and keeps the working set the same few buffers from chunk to
    chunk. Inside a ``tensor._StepPool`` they go back to the pool when the
    last view of them dies, mostly when the call returns."""

    def __call__(self, name, shape):
        if name not in self:
            self[name] = T._empty(shape)
        return self[name][:shape[0]]

    def copy(self, name, a):
        """``a``, copied into the scratch array ``name``."""
        out = self(name, a.shape)
        np.copyto(out, a)
        return out


class _Chunk:
    """One chunk's forward state, recomputed in backward: normalised rows and
    raw scores (and the additive hidden tensor).

    Each step repeats the composed reference's numpy expression on the same
    operand layout, so the q k^T variants stay bit-identical to it. The
    (..., H, N, N[, d_a]) arrays live in ``scratch`` buffers, which a later
    chunk of the same call overwrites. The forward checks the cosine rows
    (``check``); backward recomputes the same rows bit for bit and skips it.
    """

    def __init__(self, q, k, cfg, additive, scratch=None, check=True):
        self.cfg, self.spec, self.additive = cfg, VARIANTS[cfg.variant], additive
        self.scratch = _Scratch() if scratch is None else scratch
        self.n_cos = (cfg.heads + 1) // 2 if self.spec.mixed else None
        mode = cfg.resolved_norm_mode
        check = check and self.spec.cosine and mode is NormMode.BOTH
        self.q, self.q_norm = self._normalize(q, "q", mode in (NormMode.BOTH, NormMode.QUERY_ONLY),
                                              "query" if check else None)
        self.k, self.k_norm = self._normalize(k, "k", mode in (NormMode.BOTH, NormMode.KEY_ONLY),
                                              "key" if check else None)
        self.score_shape = self.q.shape[:-1] + self.k.shape[-2:-1]
        if additive is None:
            self.k_t = self.scratch.copy("k_t", np.swapaxes(self.k, -1, -2))
            self.s = np.matmul(self.q, self.k_t, out=self.scratch("s", self.score_shape))
            return
        w_q, w_k, w_a, b_a = additive
        h, d_a, _ = w_q.shape
        self.w_q_t = np.ascontiguousarray(np.swapaxes(w_q, -1, -2))
        self.w_k_t = np.ascontiguousarray(np.swapaxes(w_k, -1, -2))
        hidden = np.add(np.matmul(self.q, self.w_q_t)[..., :, None, :],
                        np.matmul(self.k, self.w_k_t)[..., None, :, :],
                        out=self.scratch("hidden", self.score_shape + (d_a,)))
        hidden += b_a.reshape(h, 1, 1, d_a)
        self.hidden = np.tanh(hidden, out=hidden)  # (..., H, N, N, d_a)
        self.w = w_a.reshape(h, 1, d_a, 1)

    def _normalize(self, x, name, on, check):
        """Each row over max(||row||_2, _NORM_EPS); the mixed variant's cosine
        heads only. With ``check`` (what the rows are) their norms must pass
        ``_check_unit_rows``."""
        if not on:
            return x, None
        part = x if self.n_cos is None else self.scratch.copy(name + "_cos",
                                                              x[..., :self.n_cos, :, :])
        y, active, denom, norms = T._l2_rows_fwd(part, _NORM_EPS,
                                                 out=self.scratch(name + "_unit", part.shape))
        if check:
            _check_unit_rows(norms, check)
        if self.n_cos is not None:
            y = np.concatenate([y, x[..., self.n_cos:, :, :]], axis=-3,
                               out=self.scratch(name, x.shape))
        return y, (part, active, denom)

    def _normalize_bwd(self, g, saved, name):
        if saved is None:
            return g
        part, active, denom = saved
        if self.n_cos is None:
            return T._l2_rows_bwd(g, part, active, denom,
                                  out=self.scratch("g_" + name, part.shape))
        g_cos = self.scratch.copy("g_" + name + "_cos", g[..., :self.n_cos, :, :])
        return np.concatenate([T._l2_rows_bwd(g_cos, part, active, denom,
                                              out=self.scratch("g_" + name + "_unit",
                                                               part.shape)),
                               g[..., self.n_cos:, :, :]], axis=-3,
                              out=self.scratch("g_" + name, g.shape))

    def _kernel(self, direction, *arrays, out):
        """The row's kernel forward or backward, written into ``out``; the mixed
        variant runs sdp on its last floor(H/2) heads, each group into its
        own head slice of ``out`` (both of its kernels write there)."""
        d_h = self.q.shape[-1]
        if self.n_cos is None:
            return getattr(self.spec.kernel, direction)(*arrays, d_h, self.cfg, out=out)
        for kernel, heads in ((self.spec.kernel, np.s_[..., :self.n_cos, :, :]),
                              (_SCALED, np.s_[..., self.n_cos:, :, :])):
            getattr(kernel, direction)(*(a[heads] for a in arrays), d_h, self.cfg,
                                       out=out[heads])
        return out

    def scores(self):
        """The raw scores, written over the chunk's score buffer."""
        if self.additive is not None:  # backward needs only the hidden tensor
            s = self.scratch("s", self.score_shape)
            np.matmul(self.hidden, self.w, out=s.reshape(s.shape + (1,)))
            return s
        return self._kernel("forward", self.s, out=self.s)

    def backward(self, g_scores):
        """(dL/dq, dL/dk, additive parameter gradients or ()) from dL/dscores."""
        if self.additive is not None:
            g_q, g_k, g_params = self._additive_bwd(g_scores)
        else:
            g_s = self._kernel("backward", self.s, g_scores, out=self.s)
            g_q = np.matmul(g_s, np.swapaxes(self.k_t, -1, -2),
                            out=self.scratch("g_q_rows", self.q.shape))
            g_k = np.swapaxes(np.matmul(np.swapaxes(self.q, -1, -2), g_s,
                                        out=self.scratch("g_k_t", self.k_t.shape)), -1, -2)
            if self.n_cos is not None:  # the reference's head slicing leaves it C-ordered
                g_k = self.scratch.copy("g_k_rows", g_k)
            g_params = ()
        return (self._normalize_bwd(g_q, self.q_norm, "q"),
                self._normalize_bwd(g_k, self.k_norm, "k"), g_params)

    def _additive_bwd(self, g_scores):
        _, _, w_a, b_a = self.additive
        g4 = g_scores[..., None]
        g_hidden = np.matmul(g4, np.swapaxes(self.w, -1, -2),
                             out=self.scratch("g_hidden", self.hidden.shape))
        g_w_a = T._unbroadcast(np.matmul(np.swapaxes(self.hidden, -1, -2), g4), self.w.shape)
        g_pre = self.hidden  # tanh backward, in place: (1 - y*y) * g
        g_pre *= g_pre
        np.subtract(1.0, g_pre, out=g_pre)
        g_pre *= g_hidden
        g_b_a = T._unbroadcast(g_pre, (b_a.shape[0], 1, 1, b_a.shape[1]))
        g_q, g_w_q = _projection_bwd(self.q, self.w_q_t, g_pre.sum(axis=-2),
                                     self.scratch("g_q_rows", self.q.shape))
        g_k, g_w_k = _projection_bwd(self.k, self.w_k_t, g_pre.sum(axis=-3),
                                     self.scratch("g_k_rows", self.k.shape))
        return g_q, g_k, (g_w_q, g_w_k, g_w_a.reshape(w_a.shape), g_b_a.reshape(b_a.shape))


def _projection_bwd(rows, w_t, g, out):
    """Backward of rows @ w_t: (d rows into ``out``, d w in w's (H, d_a, d_h) layout)."""
    g_w_t = T._unbroadcast(np.matmul(np.swapaxes(rows, -1, -2), g), w_t.shape)
    return np.matmul(g, np.swapaxes(w_t, -1, -2), out=out), np.swapaxes(g_w_t, -1, -2)


def _place(full, sl, part, shape):
    """Merge one chunk's (..., H, N, d_h) gradient into the batch's (..., N, D),
    keeping its memory layout: the composed reference hands the key gradient
    on transposed, and the layout decides how the projection matmuls round."""
    part = np.swapaxes(part, -2, -3).reshape(part.shape[:-3] + shape[-2:])
    if sl == slice(None):
        return part
    if full is None:
        full = T._empty_like(part, shape)
    full[sl] = part
    return full


def attention_node(q, k, v, cfg, additive=None):
    """softmax(scores(normalised q, normalised k)) v per head, as one tape node.

    ``q``, ``k``, ``v`` are (..., N, D); head h owns columns [h*d_h, (h+1)*d_h)
    of each, and the (..., N, D_v) output merges the heads back the same way.
    For the q k^T variants it is bit for bit the composed reference in
    ``tests/oracle.py``, down to the layout of the gradients it hands on.
    The softmax subtracts each row's max before ``exp`` unless
    ``_skips_max_shift(cfg)``: on checked unit rows a cosine-family score is
    bounded (cs2, abscs in [0, 1], cs in [-1, 1], tempcs2 in [0, 1/tau]), so
    ``exp`` cannot overflow while the bound stays at most ``_EXP_LIMIT``, and
    the shift's max and subtract passes buy nothing.
    The node walks the leading sample axis in chunks whose largest array
    (the scores, or the additive hidden tensor) fits CHUNK_BUDGET. When
    recorded on the tape it keeps its inputs and each chunk's softmax
    probabilities; backward recomputes the rest, head copies too, one chunk
    at a time, so no (N, N, d_a) tensor outlives its chunk. Forward and
    backward each allocate their (chunk, H, N, N[, d_a]) temporaries once
    per call and reuse them across chunks (``_Scratch``); under ``no_grad``
    the softmax too runs in the score buffer.
    """
    h = cfg.heads
    if any(t.shape[-1] % h for t in (q, k, v)):
        raise DimensionError(f"{h} heads do not divide inputs {q.shape}, {k.shape}, {v.shape}")
    spec = VARIANTS[cfg.variant]
    parents, arrays = (q, k, v), None
    per_sample = 8 * q.shape[-2] * k.shape[-2] * math.prod(q.shape[1:-2]) * h
    if spec.kernel is None:
        if additive is None:
            raise ConfigError(f"variant {cfg.variant.value} requires additive parameters")
        parents += (additive.w_q, additive.w_k, additive.w_a, additive.b_a)
        arrays = tuple(t.data for t in parents[3:])
        per_sample *= arrays[0].shape[1]  # d_a
    chunks = _chunks(q.data, per_sample)

    def split(sl, scratch):
        """The chunk's C-ordered (..., H, N, d_h) copies of q, k and v."""
        return (scratch.copy(name, _heads(t.data[sl], h))
                for name, t in zip(("q_h", "k_h", "v_h"), (q, k, v)))

    out = T._empty(q.shape[:-1] + v.shape[-1:])
    kept = [] if T._tracks(parents) else None
    shift = not _skips_max_shift(cfg)
    scratch = _Scratch()
    for sl in chunks:
        q_h, k_h, v_h = split(sl, scratch)
        s = _Chunk(q_h, k_h, cfg, arrays, scratch).scores()
        p = T._softmax_fwd(s, out=s if kept is None else T._empty(s.shape), shift=shift)
        _heads(out, h)[sl] = np.matmul(p, v_h, out=scratch("p_v", v_h.shape))
        if kept is not None:
            kept.append(p)

    def backward_fn(g):
        g_out, g_qkv, g_params = _heads(g, h), [None, None, None], ()
        scratch = _Scratch()  # the forward's is gone: only kept probabilities outlive it
        for sl, p in zip(chunks, kept):
            q_h, k_h, v_h = split(sl, scratch)
            g_v = np.matmul(np.swapaxes(p, -1, -2), g_out[sl], out=scratch("g_v", v_h.shape))
            g_p = np.matmul(g_out[sl], np.swapaxes(v_h, -1, -2), out=scratch("g_p", p.shape))
            g_scores = T._softmax_bwd(p, g_p, out=scratch("g_scores", p.shape))
            g_q, g_k, chunk_params = _Chunk(q_h, k_h, cfg, arrays, scratch,
                                            check=False).backward(g_scores)
            g_qkv = [_place(full, sl, part, t.shape)
                     for full, part, t in zip(g_qkv, (g_q, g_k, g_v), (q, k, v))]
            g_params = chunk_params if not g_params else tuple(
                a + b for a, b in zip(g_params, chunk_params))
        return (*g_qkv, *g_params)

    return T._make(out, parents, backward_fn, "attention")


def multi_head_attention(tokens_q, tokens_kv, cfg, params):
    """Project, run the fused attention node (it splits the heads), project.

    ``tokens_q``/``tokens_kv`` are (..., N, D); non-cross variants pass the
    same tensor for both. Output has the input shape.
    """
    q, k, v = project_qkv(tokens_q, tokens_kv, params)
    out = attention_node(q, k, v, cfg, params.additive)
    return T.matmul(out, params.w_o)
