"""Out-of-tree tracer for angleattn.

``Tracer.install`` rebinds, in every loaded ``angleattn`` module, each
public function of the measured modules to a wrapper that records a span,
wraps a few methods the same way, and wraps ``tensor._make`` so that every
backward closure it stores is timed too. Nothing in the package is edited;
``uninstall`` puts every original object back. Spans stay in memory as
``(id, parent_id, name, start, end)`` tuples until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import sys
import time
from collections import Counter, defaultdict

MODULES = ("tensor", "attention", "model", "train", "data")
METHODS = (("tensor", "Tensor", "backward"), ("tensor", "Tape", "trace"),
           ("tensor", "Tape", "backward"), ("model", "ModelParams", "zero_grads"),
           ("model", "ModelParams", "copy_values"), ("model", "ModelParams", "load_values"),
           ("train", "AdamW", "step"))
# spans that open a counting scope for the nodes created beneath them
SCOPES = {"train.predict": "infer", "train.evaluate": "infer",
          "attention.multi_head_attention": "attn", "attention.score": "score"}
MARK = "__perfbench_traced__"


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._ids = itertools.count(1)
        self._stack = [0]
        self._scope = Counter()
        self._saved = []  # (owner, attribute, original), in patch order

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, ids, counts = self.spans, self._stack, self._ids, self.counts
        scope = SCOPES.get(name)
        batch_arg = name == "model.batched_forward"
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            if scope:
                self._scope[scope] += 1
            if batch_arg:
                counts["samples"] += args[0].shape[0]
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if scope:
                    self._scope[scope] -= 1
                spans.append((sid, parent, name, start, end))

        setattr(traced, MARK, True)
        return traced

    def _wrap_closure(self, op, fn, in_attention):
        """Lighter than ``_wrap``: one is made for every node of every graph."""
        spans, stack, ids, counts = self.spans, self._stack, self._ids, self.counts
        name = "tensor.bwd." + op
        clock = time.perf_counter

        def traced_backward(g):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(g)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
                if in_attention:
                    counts["attn_bwd_s"] += end - start

        return traced_backward

    def _wrap_make(self, make):
        counts, scope = self.counts, self._scope

        @functools.wraps(make)
        def traced_make(data, parents, backward_fn, op):
            out = make(data, parents, backward_fn, op)
            nbytes = out.data.nbytes
            counts["nodes"] += 1
            counts["out_bytes"] += nbytes
            if scope["infer"]:
                counts["infer_nodes"] += 1
                counts["infer_tracked"] += out.backward_fn is not None
            if scope["score"]:
                counts["score_bytes"] += nbytes
            if out.backward_fn is not None:
                out.backward_fn = self._wrap_closure(op, out.backward_fn, scope["attn"] > 0)
            return out

        setattr(traced_make, MARK, True)
        return traced_make

    @contextlib.contextmanager
    def region(self, name):
        """Record one span around benchmark code."""
        sid, parent = next(self._ids), self._stack[-1]
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end))

    # -- patching ------------------------------------------------------------

    @staticmethod
    def _package_modules():
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "angleattn" or n.startswith("angleattn."))]

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        tensor = sys.modules["angleattn.tensor"]
        wrappers = {id(tensor._make): (tensor._make, self._wrap_make(tensor._make))}
        for short in MODULES:
            mod = sys.modules["angleattn." + short]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        # rebind every alias too: model.py holds its own name for
        # multi_head_attention, train.py for batched_forward, and so on
        for mod in self._package_modules():
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for short, cls_name, meth in METHODS:
            cls = getattr(sys.modules["angleattn." + short], cls_name)
            raw = cls.__dict__[meth]
            name = f"{short}.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            self._saved.append((cls, meth, raw))
            setattr(cls, meth, wrapped)

    def uninstall(self):
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        self._saved.clear()

    @classmethod
    def leftovers(cls):
        """Names of package attributes that still hold a traced wrapper."""
        found = []
        for mod in cls._package_modules():
            for attr, obj in vars(mod).items():
                if getattr(obj, MARK, False):
                    found.append(f"{mod.__name__}.{attr}")
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, raw in vars(obj).items():
                        raw = raw.__func__ if isinstance(raw, classmethod) else raw
                        if getattr(raw, MARK, False):
                            found.append(f"{mod.__name__}.{attr}.{meth}")
        return found


# -- analysis ----------------------------------------------------------------

def span_table(spans):
    """Per span name: (count, inclusive seconds, self seconds)."""
    covered = defaultdict(float)
    for _, parent, _, start, end in spans:
        covered[parent] += end - start
    count, incl, self_s = Counter(), defaultdict(float), defaultdict(float)
    for sid, _, name, start, end in spans:
        count[name] += 1
        incl[name] += end - start
        self_s[name] += end - start - covered.get(sid, 0.0)
    return {n: (count[n], incl[n], self_s[n]) for n in count}


def train_step_seconds(spans):
    """Wall time of each training step, from the spans directly under ``train.train``.

    A step runs from the first call after the previous boundary (an optimizer
    step, a validation pass or a parameter snapshot) to the end of its
    ``AdamW.step``: patch gather, forward, loss, backward, clipping, update.
    """
    roots = {sid for sid, _, name, _, _ in spans if name == "train.train"}
    children = sorted((s for s in spans if s[1] in roots), key=lambda s: s[3])
    steps, start = [], None
    for _, _, name, t0, t1 in children:
        if name == "train.AdamW.step":
            steps.append(t1 - (t0 if start is None else start))
            start = None
        elif name in ("train.evaluate", "model.ModelParams.copy_values", "model.init_params"):
            start = None
        elif start is None:
            start = t0
    return steps
