"""Dense float64 tensors with tape-based reverse-mode differentiation.

A ``Tensor`` is a value, a numpy array, and the graph node it is the
value of. An operation with an input that ``requires_grad`` records its
inputs' nodes and a backward closure on its output's node, which then
requires a gradient too. A closure keeps the arrays that its backward
reads (matmul its operands, gelu its input, layer_norm its normalised
rows, dropout a one-byte mask) and no tensor, and a node keeps no value.
So a forward value lives only while model code or a closure holds it:
w_o's output, the dropout outputs, the residual sums and the pre-bias
matmul outputs die as soon as the next op has consumed them, also while
the graph lives. Calling ``backward()`` on a scalar builds a
topologically ordered tape over the nodes it reaches and walks it in
reverse. Each closure returns one gradient, or None, per parent, possibly
in the output's broadcast shape; the tape alone stores them, reduced to
each parent's shape, and only on parents that require a gradient. Leaves
keep their gradient; an interior node's ``grad`` is released once its
closure has passed it on, so a step holds about one frontier of gradients
at a time. The nodes and closures stay intact, so the graph can be
traced and run backward again. A gradient array may be shared between
nodes, so nothing writes into one in place. Inside a ``no_grad()`` block
no graph is recorded at all.

The ops that work row by row over a stack of samples (matmul, gelu,
layer_norm, add, dropout) deal contiguous slices of its leading axis to
``parallel.threads()`` threads, forward and backward (``_by_sample``).
Each allocates its output buffers in the calling thread first, and each
share writes only its slice of them. Sums across samples, the dropout
draw, 2-D inputs and small arrays stay serial, and inside a share
everything is; a serial op calls numpy on the whole arrays. Every bit is
that of a serial run. ``no_grad`` is a context variable, so the shares of
a ``parallel.deal``, which run in copies of the caller's context, record
as the caller does.
"""

from __future__ import annotations

import contextlib
import contextvars
import math

import numpy as np
from scipy.special import erf

from . import parallel
from .errors import ConfigError, ContractError, DimensionError, NumericError

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


class _Node:
    """One vertex of the graph, the part of a tensor that ``Tape`` walks: its
    parents' nodes, its backward closure and, once backward reaches it, its
    gradient. It holds no forward value; a closure keeps the arrays it
    reads itself, so a value that no closure reads dies with its tensor."""

    __slots__ = ("requires_grad", "grad", "parents", "backward_fn", "op", "shape")

    def __init__(self, shape, requires_grad=False, parents=(), backward_fn=None, op="leaf"):
        self.shape = shape
        self.requires_grad = requires_grad
        self.grad = None
        self.parents = parents
        self.backward_fn = backward_fn
        self.op = op


class Tensor:
    """An n-dimensional float64 value, optionally tracked for gradients:
    ``data`` and the graph ``node`` it is the value of."""

    __slots__ = ("data", "node")

    def __init__(self, data, requires_grad=False, op="leaf"):
        # contiguity lets grad_check perturb coordinates through a flat view
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.node = _Node(self.data.shape, bool(requires_grad), op=op)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def requires_grad(self):
        return self.node.requires_grad

    @property
    def op(self):
        return self.node.op

    @property
    def grad(self):
        return self.node.grad

    @grad.setter
    def grad(self, g):
        self.node.grad = g

    @property
    def backward_fn(self):
        return self.node.backward_fn

    @backward_fn.setter
    def backward_fn(self, fn):
        self.node.backward_fn = fn

    def item(self):
        return float(self.data.reshape(()))

    def zero_grad(self):
        self.node.grad = None

    def backward(self):
        """Populate ``grad`` on every leaf reachable from this scalar."""
        if self.size != 1:
            raise ContractError(f"backward() requires a scalar loss, got shape {self.shape}")
        Tape.trace(self).backward(self)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}, op={self.op!r})"


class Tape:
    """Topologically ordered record of the graph below one root tensor."""

    def __init__(self, nodes):
        self.nodes = nodes  # inputs precede consumers

    @classmethod
    def trace(cls, root):
        order = []
        seen = set()
        stack = [(root.node, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if id(p) not in seen:
                    stack.append((p, False))
        return cls(order)

    def backward(self, root):
        for node in self.nodes:
            node.grad = None
        root.node.grad = np.ones_like(root.data)
        for node in reversed(self.nodes):
            if node.backward_fn is not None and node.grad is not None:
                for parent, g in zip(node.parents, node.backward_fn(node.grad)):
                    if g is not None and parent.requires_grad:
                        _accumulate(parent, _unbroadcast(g, parent.shape))
                g = None  # else the last gradient lives on through the next closure
            if node.parents:  # passed on: only leaves keep their gradient
                node.grad = None


def _accumulate(node, g):
    # a gradient may be shared between nodes (add hands one array to both
    # operands), so it is never modified in place and can be kept as given;
    # any other layout is copied dense, keeping its axis order, because the
    # layout decides how later matmuls round
    if node.grad is None:
        node.grad = g if g.flags.c_contiguous or g.flags.f_contiguous else np.array(g)
    else:
        node.grad = np.add(node.grad, g)


def _unbroadcast(g, shape):
    """Reduce a broadcast gradient back to the original operand shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


_recording = contextvars.ContextVar("angleattn_recording", default=True)


@contextlib.contextmanager
def no_grad():
    """Record no graph inside the block: every op returns an untracked leaf.

    Intermediates are then freed as soon as the next op has consumed them.
    Nests, and restores the previous mode on exit, also after an exception.
    """
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


def _tracks(parents):
    """Whether a node over the tensors ``parents`` is recorded: outside
    ``no_grad()``, when some parent requires a gradient."""
    return _recording.get() and any(p.node.requires_grad for p in parents)


def _make(data, parents, backward_fn, op):
    """The tensor of value ``data`` that op ``op`` made from the tensors
    ``parents``: recorded, with ``backward_fn``, when ``_tracks(parents)``."""
    out = Tensor(data, op=op)
    if _tracks(parents):
        node = out.node
        node.requires_grad, node.backward_fn = True, backward_fn
        node.parents = tuple(p.node for p in parents)
    return out


# an op's output smaller than this is not dealt to threads (``_by_sample``)
_DEAL_MIN_BYTES = 64 << 10


def _empty(shape):
    """``np.empty(shape)``: the buffers that ops, backward closures and the
    attention node fill through ``out=`` come from here, so a test can fill
    each with NaN to show one read before it is written."""
    return np.empty(shape)


def _by_sample(fn, out, *operands, **consts):
    """``fn(*operands, out=out, **consts)``, which fills ``out``; returns ``out``.

    Where ``out`` stacks samples (3 or more axes), is not small and a deal
    would get more than one thread, its samples are split into
    ``parallel.threads()`` contiguous slices, one per share of a
    ``parallel.deal``. A share calls ``fn`` on its slice of ``out`` and of
    each operand that has ``out``'s sample axis (so ``fn`` may fill such an
    operand too), and on every other operand whole, which broadcasts; else
    one call covers all of them. Every numpy call in ``fn`` works row by
    row or sample by sample, so each sample's values are the same bits
    however the samples are split.
    """
    n = out.shape[0] if out.ndim >= 3 and out.nbytes >= _DEAL_MIN_BYTES else 1
    k = min(parallel.threads(), n) if n > 1 else 1  # a small stack skips the threads() lookup
    if k <= 1:
        fn(*operands, out=out, **consts)
        return out

    def share(i):
        sl = slice(n * i // k, n * (i + 1) // k)
        fn(*(a[sl] if a.ndim == out.ndim and a.shape[0] == n else a for a in operands),
           out=out[sl], **consts)

    parallel.deal(share, k)
    return out


def _check_broadcast(a, b, op):
    """The shape ``a`` and ``b`` broadcast to; DimensionError if none."""
    try:
        return np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} are incompatible") from None


def add(a, b):
    out_data = _by_sample(np.add, _empty(_check_broadcast(a, b, "add")), a.data, b.data)

    def backward_fn(g):
        return g, g

    return _make(out_data, (a, b), backward_fn, "add")


def mul(a, b):
    _check_broadcast(a, b, "mul")
    a_data, b_data = a.data, b.data
    out_data = a_data * b_data

    def backward_fn(g):
        return g * b_data, g * a_data

    return _make(out_data, (a, b), backward_fn, "mul")


def scale(a, c):
    c = float(c)

    def backward_fn(g):
        return (g * c,)

    return _make(a.data * c, (a,), backward_fn, "scale")


def _gelu_fwd(x, cdf, out):
    """0.5 * x * (1 + erf(x / sqrt(2))) into ``out``, the cdf factor into ``cdf``."""
    c = np.multiply(x, _INV_SQRT2, out=cdf)
    erf(c, out=c)
    np.add(1.0, c, out=c)
    np.multiply(0.5, c, out=c)
    np.multiply(x, c, out=out)


def _gelu_bwd(x, cdf, g, out):
    """(cdf + x * pdf) * g, pdf = exp(-0.5 * x * x) / sqrt(2 pi), in ``out`` alone."""
    p = np.multiply(-0.5, x, out=out)
    p *= x
    np.exp(p, out=p)
    np.multiply(_INV_SQRT2PI, p, out=p)
    np.multiply(x, p, out=p)
    np.add(cdf, p, out=p)
    np.multiply(p, g, out=p)


def gelu(a):
    """Exact GELU: 0.5 * x * (1 + erf(x / sqrt(2)))."""
    x = a.data
    cdf = _empty(x.shape)
    y = _by_sample(_gelu_fwd, _empty(x.shape), x, cdf)

    def backward_fn(g):
        return (_by_sample(_gelu_bwd, _empty(x.shape), x, cdf, g),)

    return _make(y, (a,), backward_fn, "gelu")


def log(a):
    x = a.data

    def backward_fn(g):
        return (g / x,)

    return _make(np.log(x), (a,), backward_fn, "log")


def clamp_min(a, floor):
    floor = float(floor)
    mask = a.data >= floor

    def backward_fn(g):
        return (g * mask,)

    return _make(np.maximum(a.data, floor), (a,), backward_fn, "clamp_min")


def matmul(a, b):
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul: operands must be at least 2-D, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul: inner extents differ, {a.shape} x {b.shape}")
    try:
        batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    except ValueError:
        raise DimensionError(f"matmul: batch extents differ, {a.shape} x {b.shape}") from None
    # numpy calls gemm on each stacked matrix of a batched product on its
    # own anyway, so the products go sample by sample
    out_data = _by_sample(np.matmul, _empty(batch + (a.shape[-2], b.shape[-1])), a.data, b.data)
    # backward reads only what the gradients of the operands that need one read
    a_t = np.swapaxes(a.data, -1, -2) if b.requires_grad else None
    b_t = np.swapaxes(b.data, -1, -2) if a.requires_grad else None

    def backward_fn(g):
        # g has the output's shape, whose batch axes already broadcast a's and b's
        return (None if b_t is None else
                _by_sample(np.matmul, _empty(g.shape[:-1] + b_t.shape[-1:]), g, b_t),
                None if a_t is None else
                _by_sample(np.matmul, _empty(g.shape[:-2] + a_t.shape[-2:-1] + g.shape[-1:]),
                           a_t, g))

    return _make(out_data, (a, b), backward_fn, "matmul")


def reshape(a, shape):
    a_shape = a.shape

    def backward_fn(g):
        return (g.reshape(a_shape),)

    return _make(a.data.reshape(shape), (a,), backward_fn, "reshape")


def sum_all(a):
    a_shape = a.shape

    def backward_fn(g):
        return (np.broadcast_to(g, a_shape).copy(),)

    return _make(a.data.sum(), (a,), backward_fn, "sum")


def sum_axis(a, axis):
    a_shape = a.shape

    def backward_fn(g):
        out = _empty(a_shape)
        np.copyto(out, np.expand_dims(g, axis))
        return (out,)

    return _make(a.data.sum(axis=axis), (a,), backward_fn, "sum_axis")


def reduce_mean(a, axis=None):
    """Arithmetic mean along one axis, or over all elements when axis is None."""
    if axis is None:
        return scale(sum_all(a), 1.0 / a.size)
    axis = axis if axis >= 0 else a.ndim + axis
    if not 0 <= axis < a.ndim:
        raise DimensionError(f"reduce_mean: axis {axis} invalid for shape {a.shape}")
    return scale(sum_axis(a, axis), 1.0 / a.shape[axis])


# numpy bodies of softmax_rows and of the attention node's row normalisation;
# the composed reference in tests/oracle.py builds its nodes on the same
# bodies, so that both compute the same expressions

def _softmax_fwd(x, out=None, shift=True):
    """Softmax along the last axis. With ``shift`` each row's max is subtracted
    before ``exp``, so no row can overflow, and a row whose max is NaN or
    infinite (a NaN or +inf entry, or every entry -inf) is a NumericError.
    Without it ``exp`` runs on ``x`` directly and nothing is checked: only for
    a caller that knows every value is finite and far below exp's overflow,
    as the attention node knows its cosine scores on checked unit rows are."""
    if shift:
        row_max = x.max(axis=-1, keepdims=True)
        if not np.isfinite(row_max).all():  # max propagates NaN from anywhere in its row
            kind = "NaN" if np.isnan(row_max).any() else "infinite"
            raise NumericError(f"softmax_rows: {kind} input")
        x = out = np.subtract(x, row_max, out=out)
    y = np.exp(x, out=out)
    y /= y.sum(axis=-1, keepdims=True)
    return y


def _softmax_bwd(y, g, out=None):
    """y * (g - sum(g * y)) along the last axis; with ``out`` (not ``g``) its
    two temporaries and the result share that one array."""
    inner = np.multiply(g, y, out=out).sum(axis=-1, keepdims=True)
    return np.multiply(y, np.subtract(g, inner, out=out), out=out)


def _l2_rows_fwd(x, eps, out=None):
    """(rows, active, denom, norms): below eps the denominator is constant.
    ``norms`` are the rows' L2 norms, with a trailing axis of 1. With
    ``out`` the squares, then the rows, are written there."""
    # np.linalg.norm(x, axis=-1, keepdims=True), spelled out so its squares can go to out
    norms = np.sqrt(np.add.reduce(np.multiply(x, x, out=out), axis=-1, keepdims=True))
    denom = np.maximum(norms, eps)
    return np.divide(x, denom, out=out), norms >= eps, denom, norms


def _l2_rows_bwd(g, x, active, denom, out=None):
    """g / denom - active * x * inner / denom**3, inner = sum(g * x) along
    rows. With a C-ordered ``out`` the same steps run in ``out`` and one
    ``_empty`` buffer; for a C-ordered ``x`` numpy's own result is C-ordered
    too."""
    if out is None:
        inner = (g * x).sum(axis=-1, keepdims=True)
        return g / denom - active * x * inner / denom**3
    t = np.multiply(g, x, out=_empty(x.shape))
    inner = t.sum(axis=-1, keepdims=True)
    np.multiply(active, x, out=t)
    t *= inner
    t /= denom**3
    return np.subtract(np.divide(g, denom, out=out), t, out=out)


def softmax_rows(x):
    """Row-wise softmax along the last axis, max-shifted for stability."""
    y = _softmax_fwd(x.data)

    def backward_fn(g):
        return (_softmax_bwd(y, g),)

    return _make(y, (x,), backward_fn, "softmax_rows")


def _layer_norm_fwd(x, xhat, inv, scale, shift, out, eps):
    """xhat = (x - mean) * inv, inv = 1 / sqrt(var + eps) per row, then
    ``out`` = scale * xhat + shift."""
    np.subtract(x, x.mean(axis=-1, keepdims=True), out=xhat)
    np.multiply(xhat, xhat, out=out)
    np.divide(1.0, np.sqrt(out.mean(axis=-1, keepdims=True) + eps), out=inv)
    np.multiply(xhat, inv, out=xhat)
    np.multiply(scale, xhat, out=out)
    out += shift


def _layer_norm_bwd(g, xhat, inv, scale, t, out):
    """gx = inv * (gh - mean(gh) - xhat * mean(gh * xhat)), gh = g * scale,
    in ``out`` and ``t``; ``t`` then holds g * xhat."""
    np.multiply(g, scale, out=out)
    np.multiply(out, xhat, out=t)
    np.multiply(xhat, t.mean(axis=-1, keepdims=True), out=t)
    np.subtract(out, out.mean(axis=-1, keepdims=True), out=out)
    out -= t
    np.multiply(inv, out, out=out)
    np.multiply(g, xhat, out=t)


def layer_norm(x, scale_t, shift_t, eps=1e-5):
    """Per-vector standardization over the last axis, then affine."""
    d = x.shape[-1]
    if scale_t.shape != (d,) or shift_t.shape != (d,):
        raise DimensionError(
            f"layer_norm: scale/shift shapes {scale_t.shape}/{shift_t.shape} do not match d={d}")
    shape, scale = x.shape, scale_t.data
    xhat = _empty(shape)
    inv = np.empty(shape[:-1] + (1,))  # 1 / sqrt(var + eps) per row
    y = _by_sample(_layer_norm_fwd, _empty(shape), x.data, xhat, inv, scale, shift_t.data,
                   eps=eps)

    def backward_fn(g):
        gx, t = _empty(shape), _empty(shape)
        _by_sample(_layer_norm_bwd, gx, g, xhat, inv, scale, t)
        return gx, t.reshape(-1, d).sum(axis=0), g.reshape(-1, d).sum(axis=0)

    return _make(y, (x, scale_t, shift_t), backward_fn, "layer_norm")


def _masked(x, mask, out, rate):
    """(x * mask) * (1 / (1 - rate)): the rounding of x times the kept
    values' scale, and x's signed zero where the mask drops it."""
    np.multiply(x, mask, out=out)
    out *= 1.0 / (1.0 - rate)


def _dropout_fwd(draw, mask, x, out, rate):
    """The mask keeps the values whose uniform ``draw`` is at least ``rate``."""
    np.greater_equal(draw, rate, out=mask)
    _masked(x, mask, out, rate)


def dropout(x, rate, training, rng):
    """Inverted dropout; at rate 0 or in inference mode it returns ``x`` itself."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    draw = rng.random(out=_empty(x.shape))
    mask = np.empty(x.shape, dtype=bool)  # backward keeps this byte per value only
    out = _by_sample(_dropout_fwd, _empty(x.shape), draw, mask, x.data, rate=rate)

    def backward_fn(g):
        return (_by_sample(_masked, _empty(g.shape), g, mask, rate=rate),)

    return _make(out, (x,), backward_fn, "dropout")


def grad_check(f, params, h=1e-5, max_coords=24, rng=None):
    """Max relative error between analytic and central-difference gradients.

    ``f`` must be a deterministic scalar-valued function of the parameter
    tensors. Up to ``max_coords`` coordinates per tensor are probed.
    """
    rng = rng or np.random.default_rng(0)
    tensors = list(params)
    loss = f()
    loss.backward()
    analytic = [np.array(t.grad, copy=True) if t.grad is not None else np.zeros_like(t.data)
                for t in tensors]
    worst = 0.0
    for t, a in zip(tensors, analytic):
        n = t.size
        coords = np.arange(n) if n <= max_coords else rng.choice(n, size=max_coords, replace=False)
        for flat_idx in coords:
            idx = np.unravel_index(flat_idx, t.shape)
            orig = t.data[idx]
            t.data[idx] = orig + h
            fp = f().item()
            t.data[idx] = orig - h
            fm = f().item()
            t.data[idx] = orig
            numeric = (fp - fm) / (2.0 * h)
            ana = a[idx]
            err = abs(ana - numeric) / max(1.0, abs(ana), abs(numeric))
            worst = max(worst, err)
    return worst
