"""The composed reference for ``attention.attention_node``: split heads ->
normalise -> score -> attend -> merge heads as separate tape ops. The node
repeats each numpy expression on the same operand layout, so for the ten
q k^T variants its outputs and gradients equal these bit for bit.

The reference's own tape ops (``transpose``, ``slice_axis``, ``concat``,
``tanh`` and ``l2_normalize_rows``) live here, built on ``tensor._make``:
no model records them. ``l2_normalize_rows`` runs the row-normalisation
bodies the node runs."""

import numpy as np

from angleattn import tensor as T
from angleattn.attention import (_NORM_EPS, VARIANTS, NormMode, ScoreVariant, _skips_max_shift,
                                 project_qkv)
from angleattn.errors import ConfigError, ContractError, DimensionError

# the tolerance of np.allclose(norms, 1.0, atol=1e-6): atol + rtol * |1.0|
_UNIT_NORM_TOL = 1e-6 + 1e-5


def check_unit_rows(x, what):
    """The rows ``score`` is given must be unit-norm, or exactly zero. The
    node checks the norms before it normalises instead
    (``attention._check_unit_rows``). On rows normalised by the same body
    the two agree, except on a row whose norm overflows (normalising turns
    it to zero), on a nonzero row whose squares all underflow (its norm reads
    0), and on one whose norm lies less than a relative 1.1e-5 below
    ``_NORM_EPS``: only the node refuses those."""
    norms = np.linalg.norm(x, axis=-1)
    deviation = np.where(norms == 0.0, 0.0, np.abs(norms - 1.0)).max(initial=0.0)
    if not deviation <= _UNIT_NORM_TOL:  # also catches NaN
        raise ContractError(
            f"{what} rows must be unit-norm (or zero) before cosine scoring with "
            f"norm_mode=both (max deviation {deviation:.3e})")


def tanh(a):
    y = np.tanh(a.data)

    def backward_fn(g):
        return ((1.0 - y * y) * g,)

    return T._make(y, (a,), backward_fn, "tanh")


def transpose(a, axes=None):
    if axes is None:
        axes = list(range(a.ndim))
        axes[-1], axes[-2] = axes[-2], axes[-1]
    axes = tuple(axes)
    inverse = np.argsort(axes)

    def backward_fn(g):
        return (np.transpose(g, inverse),)

    return T._make(np.transpose(a.data, axes), (a,), backward_fn, "transpose")


def slice_axis(a, axis, start, stop):
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, stop)
    index = tuple(index)

    def backward_fn(g):
        full = np.zeros_like(a.data)
        full[index] = g
        return (full,)

    return T._make(a.data[index], (a,), backward_fn, "slice")


def concat(tensors, axis):
    tensors = tuple(tensors)
    cuts = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def backward_fn(g):
        return np.split(g, cuts, axis=axis)

    data = np.concatenate([t.data for t in tensors], axis=axis)
    return T._make(data, tensors, backward_fn, "concat")


def l2_normalize_rows(x):
    """Divide each last-axis row by max(||row||_2, _NORM_EPS)."""
    y, active, denom, _ = T._l2_rows_fwd(x.data, _NORM_EPS)

    def backward_fn(g):
        return (T._l2_rows_bwd(g, x.data, active, denom),)

    return T._make(y, (x,), backward_fn, "l2_normalize_rows")


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
    return transpose(stacked, axes)


def merge_heads(m):
    """Inverse of split_heads: (..., H, N, d_h) -> (..., N, H*d_h)."""
    h, n, d_h = m.shape[-3:]
    axes = list(range(m.ndim))
    axes[-3], axes[-2] = axes[-2], axes[-3]
    return T.reshape(transpose(m, axes), m.shape[:-3] + (n, h * d_h))


def _check_head_axis(shape, cfg):
    if len(shape) < 3 or shape[-3] != cfg.heads:
        raise DimensionError(
            f"mixed variant needs a head axis of size {cfg.heads}, got shape {shape}")


def additive_score(q_i, k_j, params, head=0):
    """w^T tanh(W_q q_i + W_k k_j + b) for one query/key pair of one head."""
    hidden = np.tanh(params.w_q.data[head] @ np.asarray(q_i, dtype=np.float64)
                     + params.w_k.data[head] @ np.asarray(k_j, dtype=np.float64)
                     + params.b_a.data[head])
    return float(params.w_a.data[head] @ hidden)


def _additive_scores(q, k, params):
    """Vectorized additive scores over (..., H, N, d_h) inputs -> (..., H, N, N)."""
    h, d_a, _ = params.w_q.shape
    n = q.shape[-2]
    qp = T.matmul(q, transpose(params.w_q))  # (..., H, N, d_a)
    kp = T.matmul(k, transpose(params.w_k))
    qp = T.reshape(qp, qp.shape[:-2] + (n, 1, d_a))
    kp = T.reshape(kp, kp.shape[:-2] + (1, n, d_a))
    bias = T.reshape(params.b_a, (h, 1, 1, d_a))
    hidden = tanh(T.add(T.add(qp, kp), bias))  # (..., H, N, N, d_a)
    w = T.reshape(params.w_a, (h, 1, d_a, 1))
    out = T.matmul(hidden, w)  # (..., H, N, N, 1)
    return T.reshape(out, out.shape[:-1])


def _mixed_split(t, cfg):
    """The mixed variant's head groups along axis -3: (first ceil(H/2), rest)."""
    _check_head_axis(t.shape, cfg)
    n_cos, axis = (cfg.heads + 1) // 2, t.ndim - 3
    return slice_axis(t, axis, 0, n_cos), slice_axis(t, axis, n_cos, cfg.heads)


def _kernel_scores(kernel, cosine, q, k, cfg):
    if cosine and cfg.resolved_norm_mode is NormMode.BOTH:
        check_unit_rows(q.data, "query")
        check_unit_rows(k.data, "key")
    s, d_h = T.matmul(q, transpose(k)), q.shape[-1]
    return T._make(kernel.forward(s.data, d_h, cfg), (s,),
                    lambda g: (kernel.backward(s.data, g, d_h, cfg),), "score_kernel")


def normalise(q, k, cfg):
    """(q, k) with unit rows on the sides the resolved norm mode names; the
    mixed variant normalises only its first ceil(H/2) heads."""
    mode = cfg.resolved_norm_mode

    def unit(x):
        if not VARIANTS[cfg.variant].mixed:
            return l2_normalize_rows(x)
        cos, rest = _mixed_split(x, cfg)
        return concat([l2_normalize_rows(cos), rest], x.ndim - 3)

    if mode in (NormMode.BOTH, NormMode.QUERY_ONLY):
        q = unit(q)
    if mode in (NormMode.BOTH, NormMode.KEY_ONLY):
        k = unit(k)
    return q, k


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
    sdp = VARIANTS[ScoreVariant.SCALED_DOT].kernel
    return concat([_kernel_scores(spec.kernel, spec.cosine, q_cos, k_cos, cfg),
                     _kernel_scores(sdp, False, q_sdp, k_sdp, cfg)], axis=q.ndim - 3)


def attend(scores, v, shift=True):
    """softmax over keys, then weighted sum of values. Without ``shift`` the
    softmax takes exp of the raw scores, as the node does where
    ``_skips_max_shift`` holds."""
    if shift:
        return T.matmul(T.softmax_rows(scores), v)
    p = T._softmax_fwd(scores.data, shift=False)
    probs = T._make(p, (scores,), lambda g: (T._softmax_bwd(p, g),), "softmax_rows")
    return T.matmul(probs, v)


def composed_attention(tokens_q, tokens_kv, cfg, params):
    """``multi_head_attention`` with normalise, score and attend in place of the node."""
    q, k, v = project_qkv(tokens_q, tokens_kv, params)
    qh, kh, vh = (split_heads(m, cfg.heads) for m in (q, k, v))
    out = attend(score(cfg.variant, *normalise(qh, kh, cfg), cfg, params.additive), vh,
                 shift=not _skips_max_shift(cfg))
    return T.matmul(merge_heads(out), params.w_o)
