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

from . import parallel
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


def _copy(a):
    """``a``, copied into a C-ordered array from ``tensor._empty``."""
    out = T._empty(a.shape)
    np.copyto(out, a)
    return out


class _Chunk:
    """One head group of one chunk (``group`` is its (kernel, norm mode,
    cosine); a None kernel is additive): its forward state, recomputed in
    backward: normalised rows and raw scores (and the additive hidden tensor).

    Each step repeats the composed reference's numpy expression on the same
    operand layout, so the q k^T variants stay bit-identical to it. Every
    array it makes comes from ``tensor._empty``. The forward checks the
    cosine rows (``check``); backward recomputes them bit for bit and skips it.
    """

    def __init__(self, q, k, group, cfg, additive, check=True):
        (self.kernel, mode, cosine), self.cfg, self.additive = group, cfg, additive
        check = check and cosine and mode is NormMode.BOTH
        self.q, self.q_norm = self._normalize(q, mode in (NormMode.BOTH, NormMode.QUERY_ONLY),
                                              "query" if check else None)
        self.k, self.k_norm = self._normalize(k, mode in (NormMode.BOTH, NormMode.KEY_ONLY),
                                              "key" if check else None)
        self.score_shape = self.q.shape[:-1] + self.k.shape[-2:-1]
        if additive is None:
            self.k_t = _copy(np.swapaxes(self.k, -1, -2))
            self.s = np.matmul(self.q, self.k_t, out=T._empty(self.score_shape))
            return
        w_q, w_k, w_a, b_a = additive
        h, d_a, _ = w_q.shape
        self.w_q_t = np.ascontiguousarray(np.swapaxes(w_q, -1, -2))
        self.w_k_t = np.ascontiguousarray(np.swapaxes(w_k, -1, -2))
        hidden = np.add(np.matmul(self.q, self.w_q_t)[..., :, None, :],
                        np.matmul(self.k, self.w_k_t)[..., None, :, :],
                        out=T._empty(self.score_shape + (d_a,)))
        hidden += b_a.reshape(h, 1, 1, d_a)
        self.hidden = np.tanh(hidden, out=hidden)  # (..., H, N, N, d_a)
        self.w = w_a.reshape(h, 1, d_a, 1)

    def _normalize(self, x, on, check):
        """Each row over max(||row||_2, _NORM_EPS). With ``check`` (what the
        rows are) their norms must pass ``_check_unit_rows``."""
        if not on:
            return x, None
        y, active, denom, norms = T._l2_rows_fwd(x, _NORM_EPS, out=T._empty(x.shape))
        if check:
            _check_unit_rows(norms, check)
        return y, (x, active, denom)

    def _normalize_bwd(self, g, saved):
        if saved is None:
            return g
        x, active, denom = saved
        return T._l2_rows_bwd(g, x, active, denom, out=T._empty(x.shape))

    def scores(self, out=None):
        """The raw scores, written into ``out``, or else over the chunk's score
        buffer (for the additive, whose backward reads only the hidden tensor,
        a new one). With ``out`` the raw s that ``backward`` reads stays as it
        is; the identity kernel hands s itself back."""
        if self.additive is not None:
            s = T._empty(self.score_shape) if out is None else out
            np.matmul(self.hidden, self.w, out=s.reshape(s.shape + (1,)))
            return s
        return self.kernel.forward(self.s, self.q.shape[-1], self.cfg,
                                   out=self.s if out is None else out)

    def backward(self, g_scores):
        """(dL/dq, dL/dk, additive parameter gradients or ()) from dL/dscores."""
        if self.additive is not None:
            g_q, g_k, g_params = self._additive_bwd(g_scores)
        else:
            g_s = self.kernel.backward(self.s, g_scores, self.q.shape[-1], self.cfg, out=self.s)
            g_q = np.matmul(g_s, np.swapaxes(self.k_t, -1, -2), out=T._empty(self.q.shape))
            g_k = np.swapaxes(np.matmul(np.swapaxes(self.q, -1, -2), g_s,
                                        out=T._empty(self.k_t.shape)), -1, -2)
            g_params = ()
        return (self._normalize_bwd(g_q, self.q_norm), self._normalize_bwd(g_k, self.k_norm),
                g_params)

    def _additive_bwd(self, g_scores):
        _, _, w_a, b_a = self.additive
        g4 = g_scores[..., None]
        g_hidden = np.matmul(g4, np.swapaxes(self.w, -1, -2), out=T._empty(self.hidden.shape))
        g_w_a = T._unbroadcast(np.matmul(np.swapaxes(self.hidden, -1, -2), g4), self.w.shape)
        g_pre = self.hidden  # tanh backward, in place: (1 - y*y) * g
        g_pre *= g_pre
        np.subtract(1.0, g_pre, out=g_pre)
        g_pre *= g_hidden
        g_b_a = T._unbroadcast(g_pre, (b_a.shape[0], 1, 1, b_a.shape[1]))
        g_q, g_w_q = _projection_bwd(self.q, self.w_q_t, g_pre.sum(axis=-2),
                                     T._empty(self.q.shape))
        g_k, g_w_k = _projection_bwd(self.k, self.w_k_t, g_pre.sum(axis=-3),
                                     T._empty(self.k.shape))
        return g_q, g_k, (g_w_q, g_w_k, g_w_a.reshape(w_a.shape), g_b_a.reshape(b_a.shape))


def _projection_bwd(rows, w_t, g, out):
    """Backward of rows @ w_t: (d rows into ``out``, d w in w's (H, d_a, d_h) layout)."""
    g_w_t = T._unbroadcast(np.matmul(np.swapaxes(rows, -1, -2), g), w_t.shape)
    return np.matmul(g, np.swapaxes(w_t, -1, -2), out=out), np.swapaxes(g_w_t, -1, -2)


def attention_node(q, k, v, cfg, additive=None):
    """softmax(scores(normalised q, normalised k)) v per head, as one tape node.

    ``q``, ``k``, ``v`` are (..., N, D); head h owns columns [h*d_h, (h+1)*d_h)
    of each, and the (..., N, D_v) output merges the heads back the same way.
    For the q k^T variants it is bit for bit the composed reference in
    ``tests/oracle.py``, down to the layout of the gradients it hands on. A
    head's rows depend on that head alone, so the variant runs as head groups,
    each a ``_Chunk`` on its slice of the heads: one group of all of them, or
    for the mix cs^2 on the first ceil(H/2) and sdp on the rest. The softmax
    subtracts each row's max before ``exp`` unless ``_skips_max_shift(cfg)``,
    where no score can make ``exp`` overflow. The node walks the leading sample
    axis in chunks whose largest array (the scores, or the additive hidden
    tensor) fits CHUNK_BUDGET, and takes each softmax in its chunk's score
    buffer, recorded on the tape or not. It keeps only its q, k and v arrays:
    backward recomputes everything else (head copies, normalised rows, scores
    and probabilities) one chunk at a time with the forward's own numpy calls,
    so every bit is the forward's and no (N, N) or (N, N, d_a) array outlives
    its chunk. Forward and backward each deal the chunks to
    ``parallel.threads()`` threads (``parallel.deal``; one inside a threaded
    ``predict`` block). A chunk's temporaries come from ``tensor._empty`` and
    die with it. The caller lends the output, and in backward the batch's q, k
    and v gradients in the reference's layouts; each chunk writes only its own
    rows of them, and each group only its heads of those and of the chunk's
    probabilities (a matmul only where each destination matrix has a unit last
    stride, which keeps it on BLAS), so no chunk waits for another. The
    additive parameter gradients are summed in chunk order, so every bit is
    that of a serial loop.
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
    qkv = tuple(t.data for t in (q, k, v))  # backward's own references: no tensor

    def split(sl):
        """The chunk's C-ordered (..., H, N, d_h) copies of q, k and v."""
        return (_copy(_heads(a[sl], h)) for a in qkv)

    out = T._empty(q.shape[:-1] + v.shape[-1:])
    shift = not _skips_max_shift(cfg)
    # the head groups, as (heads, (kernel, norm mode, cosine))
    groups = [(np.s_[...], (spec.kernel, cfg.resolved_norm_mode, spec.cosine))]
    if spec.mixed:
        n_cos = (h + 1) // 2
        groups = [(np.s_[..., :n_cos, :, :], (spec.kernel, cfg.resolved_norm_mode, True)),
                  (np.s_[..., n_cos:, :, :], (_SCALED, NormMode.NONE, False))]

    def forward(i):
        """Chunk i's output rows."""
        sl = chunks[i]
        q_h, k_h, v_h = split(sl)
        for heads, group in groups:
            s = _Chunk(q_h[heads], k_h[heads], group, cfg, arrays).scores()
            np.matmul(T._softmax_fwd(s, out=s, shift=shift), v_h[heads],
                      out=_heads(out, h)[sl][heads])

    parallel.deal(forward, len(chunks))

    # the reference hands on a q k^T key gradient as the transpose of its (..., D, N)
    # q^T dL/ds, unless k's normalisation or the mix's concatenated heads copy it C-ordered
    key_transposed = (spec.kernel is not None and not spec.mixed
                      and cfg.resolved_norm_mode in (NormMode.NONE, NormMode.QUERY_ONLY))

    def backward_fn(g):
        g_out, (a_q, a_k, a_v) = _heads(g, h), qkv
        g_k = (np.swapaxes(T._empty(a_k.shape[:-2] + a_k.shape[:-3:-1]), -1, -2)
               if key_transposed else T._empty(a_k.shape))
        g_qkv = T._empty(a_q.shape), g_k, T._empty(a_v.shape)  # lent before the deal
        g_q_h, g_k_h, g_v_h = (_heads(a, h) for a in g_qkv)

        def backward(i):
            """Chunk i's additive parameter gradients, or (); it writes its rows of g_qkv."""
            sl = chunks[i]
            q_h, k_h, v_h = split(sl)
            p, groups_of_chunk = T._empty(q_h.shape[:-1] + k_h.shape[-2:-1]), []
            for heads, group in groups:  # the forward's probabilities, beside the raw s
                chunk = _Chunk(q_h[heads], k_h[heads], group, cfg, arrays, check=False)
                T._softmax_fwd(chunk.scores(out=p[heads]), out=p[heads], shift=shift)
                groups_of_chunk.append((heads, chunk))
            np.matmul(np.swapaxes(p, -1, -2), g_out[sl], out=g_v_h[sl])
            g_p = np.matmul(g_out[sl], np.swapaxes(v_h, -1, -2), out=T._empty(p.shape))
            g_scores = T._softmax_bwd(p, g_p, out=T._empty(p.shape))
            p = g_p = None  # the groups' backward reads only g_scores
            for heads, chunk in groups_of_chunk:
                g_q_h[sl][heads], g_k_h[sl][heads], g_params = chunk.backward(g_scores[heads])
            return g_params

        per_chunk = parallel.deal(backward, len(chunks))
        g_params = per_chunk[0]
        for chunk_params in per_chunk[1:]:  # summed in chunk order, as a serial loop would
            g_params = tuple(a + b for a, b in zip(g_params, chunk_params))
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
