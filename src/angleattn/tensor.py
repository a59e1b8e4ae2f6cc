"""Dense float64 tensors with tape-based reverse-mode differentiation.

Values are numpy arrays. An operation with an input that ``requires_grad``
records its inputs and a backward closure on its output, which then
requires a gradient too. Calling ``backward()`` on a scalar builds a
topologically ordered tape over the reachable graph and walks it in
reverse. Each closure returns one gradient, or None, per parent, possibly
in the output's broadcast shape; the tape alone stores them, reduced to
each parent's shape, and only on parents that require a gradient. Leaves
keep their gradient; an interior node's ``grad`` is released once its
closure has passed it on, so a step holds about one frontier of gradients
at a time. The graph itself stays intact. A gradient array may be shared
between nodes, so nothing writes into one in place. Inside a
``no_grad()`` block no graph is recorded at all.

The ops that work row by row over a stack of samples (matmul, gelu,
layer_norm, add, dropout) deal contiguous slices of its leading axis to
``parallel.threads()`` threads, forward and backward (``_by_sample``).
Each lends its output buffers in the calling thread first, and each share
writes only its slice of them. Sums across samples, the dropout draw,
2-D inputs and small arrays stay serial, and inside a share everything
is; every bit is that of a serial run.

Inside a ``_StepPool`` (``train.train`` opens one per run, and
``train.predict`` one per calling thread for its calls of several blocks
outside it) every array of at least 64 KiB that an op or a backward
closure allocates is lent by the pool: activations, gradients and the
temporaries of both passes. Each buffer goes back to the pool the moment
the last view of its lend dies, so a step reuses the memory of its own
earlier arrays at its live peak. The pool and ``no_grad`` are context
variables, so the shares of a ``parallel.deal`` (``predict``'s blocks, the
attention node's chunks), which run in copies of the caller's context,
lend from the caller's pool; a lock keeps its lends apart, and each share
has a free list of its own. A pool keeps every buffer until it is dropped.
"""

from __future__ import annotations

import bisect
import contextlib
import contextvars
import math
import mmap
import threading
import weakref

import numpy as np
from scipy.special import erf

from . import parallel
from .errors import ConfigError, ContractError, DimensionError, NumericError

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


class Tensor:
    """An n-dimensional float64 value, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "grad", "parents", "backward_fn", "op")

    def __init__(self, data, requires_grad=False, parents=(), backward_fn=None, op="leaf"):
        # contiguity lets grad_check perturb coordinates through a flat view
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.parents = tuple(parents)
        self.backward_fn = backward_fn
        self.op = op

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data.reshape(()))

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Populate ``grad`` on every leaf reachable from this scalar."""
        if self.size != 1:
            raise ContractError(f"backward() requires a scalar loss, got shape {self.shape}")
        Tape.trace(self).backward(self)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}, op={self.op!r})"


class Tape:
    """Topologically ordered record of the graph below one root node."""

    def __init__(self, nodes):
        self.nodes = nodes  # inputs precede consumers

    @classmethod
    def trace(cls, root):
        order = []
        seen = set()
        stack = [(root, False)]
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
        root.grad = np.ones_like(root.data)
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
    else:  # with one layout the sum takes it, as numpy's allocation would
        node.grad = np.add(node.grad, g, out=_empty_like(g) if g.strides == node.grad.strides
                           else None)


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
    """Whether a node over ``parents`` is recorded: outside ``no_grad()``,
    when some parent requires a gradient."""
    return _recording.get() and any(p.requires_grad for p in parents)


def _make(data, parents, backward_fn, op):
    if _tracks(parents):
        return Tensor(data, requires_grad=True, parents=parents, backward_fn=backward_fn, op=op)
    return Tensor(data, op=op)


# arrays smaller than this come from np.empty even inside a pool: the heap
# reuses blocks that small without giving their pages back
_POOL_MIN_BYTES = 64 << 10

_active_pool = contextvars.ContextVar("angleattn_pool", default=None)


class _StepPool:
    """Anonymous ``mmap`` buffers, each lent again as soon as no array views
    its last lend.

    Freed arrays of a few MiB go back to glibc, which trims or unmaps them,
    so the next step (or block) faults the same memory in again page by
    page. A pool keeps its buffers mapped instead. Each lend is its own
    ``np.frombuffer`` array over a free buffer; every view of it keeps it
    alive, since numpy makes the lend each view's base. A weak reference to
    the lend appends itself to ``_returned`` when the lend dies, and
    ``empty`` drains that list before it picks a buffer. So no callback
    edits a free list, and no buffer is lent while a view of its last lend
    lives.

    A request takes only a free buffer at most four times its size.
    Otherwise a small array could take a large buffer that the node's
    chunk temporaries just gave back, keep it for the rest of the step, and
    make the next node map another: at paper size the additive node's 32 MiB
    hidden-tensor buffers did so. With twice the size as the limit, a
    partial batch's smaller arrays found no buffer and mapped their own,
    and a ``train-cs2`` run peaked about 7 MiB higher.

    As a context manager the pool is the one ``_empty`` lends from until
    the block exits: in the current context, and so in the shares of a
    ``parallel.deal`` made in it, which run in copies of it on other
    threads. It keeps every buffer it maps, across blocks, until it is
    dropped. ``empty`` drains, picks and maps under one lock, so those
    threads may lend at once; a dead lend's callback only appends to
    ``_returned``, from whichever thread drops the last view. Each share
    lends from a free list of its own (the caller's own lends and share 0
    from list 0), and a buffer goes back to the list it was lent from. A
    share runs its items in a fixed order, so each list sees the same lends
    on every run, and which buffers a run maps does not depend on how the
    threads interleave. A dropped pool unmaps its free buffers at once, and
    a lent buffer when the last view of its lend dies. Buffers are private
    mappings, so a process forked while it holds some writes only its own
    copies.
    """

    def __init__(self):
        self._free = {}      # share -> the buffers no lend views, by size
        self._lent = {}      # id(weak reference to a lend) -> (that reference, buffer, share)
        self._returned = []  # weak references to dead lends, appended by their callback
        self._lock = threading.Lock()

    def __enter__(self):
        self._token = _active_pool.set(self)
        return self

    def __exit__(self, *exc):
        _active_pool.reset(self._token)

    def _drain(self):
        """Put the buffers of dead lends back on the free list."""
        while self._returned:
            _, buf, share = self._lent.pop(id(self._returned.pop()))
            bisect.insort(self._free.setdefault(share, []), buf, key=len)

    def empty(self, shape):
        """A C-ordered float64 array over the smallest buffer on the current
        share's free list that holds ``shape`` and is at most four times its
        size, or over a new buffer; its values are arbitrary."""
        nbytes = 8 * math.prod(shape)
        share = parallel._share.get() or 0
        with self._lock:
            self._drain()
            free = self._free.setdefault(share, [])
            i = bisect.bisect_left(free, nbytes, key=len)
            if i < len(free) and len(free[i]) <= 4 * nbytes:
                buf = free.pop(i)
            else:
                buf = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE)
            lend = np.frombuffer(buf, np.float64, nbytes // 8)
            ref = weakref.ref(lend, self._returned.append)
            self._lent[id(ref)] = ref, buf, share
        return lend.reshape(shape)


def _empty(shape):
    """np.empty(shape), or an array lent by the active ``_StepPool`` when one
    is active and the array is not small."""
    pool = _active_pool.get()
    if pool is None or 8 * math.prod(shape) < _POOL_MIN_BYTES:
        return np.empty(shape)
    return pool.empty(shape)


def _empty_like(a, shape=None):
    """``np.empty_like(a, shape=shape)`` through ``_empty``: C or Fortran
    order where ``a`` is contiguous that way, else ``a``'s axes ordered by
    stride, as numpy's order 'K' does. Layouts decide how later matmuls and
    sums round, so they are kept."""
    shape = a.shape if shape is None else shape
    if a.flags.c_contiguous:
        return _empty(shape)
    axes = (list(range(a.ndim))[::-1] if a.flags.f_contiguous
            else sorted(range(a.ndim), key=lambda i: -abs(a.strides[i])))
    return _empty(tuple(shape[i] for i in axes)).transpose(np.argsort(axes))


def _by_sample(fn, out):
    """Call ``fn(sl)`` over the leading (sample) axis of ``out``, which
    ``fn(sl)`` fills at ``out[sl]``; returns ``out``.

    Where ``out`` stacks samples (3 or more axes), is not small and a deal
    would get more than one thread, its samples are split into
    ``parallel.threads()`` contiguous slices, one per share of a
    ``parallel.deal``; else one call covers all of them. Every numpy call
    in ``fn`` works row by row or sample by sample, so each sample's values
    are the same bits however the samples are split, and every buffer is
    lent before the deal, so the pool sees the same lends in either case.
    """
    n = out.shape[0] if out.ndim >= 3 and out.nbytes >= _POOL_MIN_BYTES else 1
    k = min(parallel.threads(), n)
    if k <= 1:
        fn(slice(None))
    else:
        parallel.deal(lambda i: fn(slice(n * i // k, n * (i + 1) // k)), k)
    return out


def _rows(a, out, sl):
    """The part of operand ``a`` that ``out[sl]`` needs: ``a[sl]`` where
    ``a`` has ``out``'s sample axis, else all of ``a``, which broadcasts."""
    return a[sl] if a.ndim == out.ndim and a.shape[0] == out.shape[0] else a


def _product(a, b, out):
    """``np.matmul(a, b, out=out)``, sample by sample; numpy calls gemm on
    each stacked matrix of a batched product on its own anyway."""
    return _by_sample(lambda sl: np.matmul(_rows(a, out, sl), _rows(b, out, sl), out=out[sl]),
                      out)


def _check_broadcast(a, b, op):
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} are incompatible") from None


def add(a, b):
    _check_broadcast(a, b, "add")
    out_data = _empty(np.broadcast_shapes(a.shape, b.shape))
    _by_sample(lambda sl: np.add(_rows(a.data, out_data, sl), _rows(b.data, out_data, sl),
                                 out=out_data[sl]), out_data)

    def backward_fn(g):
        return g, g

    return _make(out_data, (a, b), backward_fn, "add")


def mul(a, b):
    _check_broadcast(a, b, "mul")
    out_data = a.data * b.data

    def backward_fn(g):
        return g * b.data, g * a.data

    return _make(out_data, (a, b), backward_fn, "mul")


def scale(a, c):
    c = float(c)

    def backward_fn(g):
        return (g * c,)

    return _make(a.data * c, (a,), backward_fn, "scale")


def gelu(a):
    """Exact GELU: 0.5 * x * (1 + erf(x / sqrt(2)))."""
    x = a.data
    cdf, y = _empty(x.shape), _empty(x.shape)

    def forward(sl):
        c = np.multiply(x[sl], _INV_SQRT2, out=cdf[sl])
        erf(c, out=c)
        np.add(1.0, c, out=c)
        np.multiply(0.5, c, out=c)
        np.multiply(x[sl], c, out=y[sl])

    _by_sample(forward, y)

    def backward_fn(g):
        # (cdf + x * pdf) * g, pdf = exp(-0.5 * x * x) / sqrt(2 pi), in one buffer
        pdf = _empty(x.shape)

        def backward(sl):
            p = np.multiply(-0.5, x[sl], out=pdf[sl])
            p *= x[sl]
            np.exp(p, out=p)
            np.multiply(_INV_SQRT2PI, p, out=p)
            np.multiply(x[sl], p, out=p)
            np.add(cdf[sl], p, out=p)
            np.multiply(p, g[sl], out=p)

        return (_by_sample(backward, pdf),)

    return _make(y, (a,), backward_fn, "gelu")


def log(a):
    def backward_fn(g):
        return (g / a.data,)

    return _make(np.log(a.data), (a,), backward_fn, "log")


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
    out_data = _product(a.data, b.data, _empty(batch + (a.shape[-2], b.shape[-1])))

    def backward_fn(g):
        # g has the output's shape, whose batch axes already broadcast a's and b's
        return (_product(g, np.swapaxes(b.data, -1, -2), _empty(g.shape[:-1] + b.shape[-2:-1]))
                if a.requires_grad else None,
                _product(np.swapaxes(a.data, -1, -2), g,
                         _empty(g.shape[:-2] + a.shape[-1:] + g.shape[-1:]))
                if b.requires_grad else None)

    return _make(out_data, (a, b), backward_fn, "matmul")


def reshape(a, shape):
    def backward_fn(g):
        return (g.reshape(a.shape),)

    return _make(a.data.reshape(shape), (a,), backward_fn, "reshape")


def sum_all(a):
    def backward_fn(g):
        return (np.broadcast_to(g, a.shape).copy(),)

    return _make(a.data.sum(), (a,), backward_fn, "sum")


def sum_axis(a, axis):
    def backward_fn(g):
        out = _empty(a.shape)
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
    before ``exp``, so no row can overflow, and a NaN input is a NumericError.
    Without it ``exp`` runs on ``x`` directly and nothing is checked: only for
    a caller that knows every value is finite and far below exp's overflow,
    as the attention node knows its cosine scores on checked unit rows are."""
    if shift:
        row_max = x.max(axis=-1, keepdims=True)
        if np.isnan(row_max).any():  # max propagates NaN from anywhere in its row
            raise NumericError("softmax_rows: NaN input")
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


def layer_norm(x, scale_t, shift_t, eps=1e-5):
    """Per-vector standardization over the last axis, then affine."""
    d = x.shape[-1]
    if scale_t.shape != (d,) or shift_t.shape != (d,):
        raise DimensionError(
            f"layer_norm: scale/shift shapes {scale_t.shape}/{shift_t.shape} do not match d={d}")
    # xhat = (x - mean) * inv, then y = scale * xhat + shift, in two buffers
    xhat, y = _empty(x.shape), _empty(x.shape)
    inv = np.empty(x.shape[:-1] + (1,))  # 1 / sqrt(var + eps) per row

    def forward(sl):
        xs, c, s = x.data[sl], xhat[sl], y[sl]
        np.subtract(xs, xs.mean(axis=-1, keepdims=True), out=c)
        np.multiply(c, c, out=s)
        np.divide(1.0, np.sqrt(s.mean(axis=-1, keepdims=True) + eps), out=inv[sl])
        np.multiply(c, inv[sl], out=c)
        np.multiply(scale_t.data, c, out=s)
        s += shift_t.data

    _by_sample(forward, y)

    def backward_fn(g):
        # gx = inv * (gh - mean(gh) - xhat * mean(gh * xhat)), gh = g * scale,
        # in two buffers; the second then holds g * xhat
        gx, t = _empty(x.shape), _empty(x.shape)

        def backward(sl):
            gh, ts, xh = gx[sl], t[sl], xhat[sl]
            np.multiply(g[sl], scale_t.data, out=gh)
            np.multiply(gh, xh, out=ts)
            np.multiply(xh, ts.mean(axis=-1, keepdims=True), out=ts)
            np.subtract(gh, gh.mean(axis=-1, keepdims=True), out=gh)
            gh -= ts
            np.multiply(inv[sl], gh, out=gh)
            np.multiply(g[sl], xh, out=ts)

        _by_sample(backward, gx)
        return gx, t.reshape(-1, d).sum(axis=0), g.reshape(-1, d).sum(axis=0)

    return _make(y, (x, scale_t, shift_t), backward_fn, "layer_norm")


def dropout(x, rate, training, rng):
    """Inverted dropout; at rate 0 or in inference mode it returns ``x`` itself."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    keep = rng.random(out=_empty(x.shape))
    out = _empty(x.shape)

    def forward(sl):
        k = keep[sl]
        np.greater_equal(k, rate, out=k)  # 1.0 or 0.0
        k /= 1.0 - rate
        np.multiply(x.data[sl], k, out=out[sl])

    _by_sample(forward, out)

    def backward_fn(g):
        g_x = _empty(keep.shape)
        return (_by_sample(lambda sl: np.multiply(g[sl], keep[sl], out=g_x[sl]), g_x),)

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
