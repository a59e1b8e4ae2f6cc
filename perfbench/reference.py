"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the same job can take 10-30 % longer for minutes at a
time while a neighbour is busy; a job's wall time then says as much about
the neighbour as about angleattn. The benchmark therefore runs this kernel
between the timed parts of every job, in the same thread, and reports job
time in *ref*: the part's wall time divided by the kernel's wall time
measured around it. A slowdown of the host stretches both and cancels; a
change to angleattn moves only the numerator.

The kernel is plain numpy on fixed inputs and never touches angleattn, so
no change to the package can change it. It is shaped like the package's
work, which spends its time in two ways: computing on small arrays
(batched matmuls, a cosine-squared softmax attention, layer norm,
tanh-GELU, reductions, and interpreter-bound bookkeeping), and creating
big arrays that the operating system must map and zero page by page.
The second slows down with the host's memory system, the first with its
cores, and the two need not move together; timed apart, neither tracked
the package's inference, while their sum did. One call takes about 30 ms
on a 2-core Xeon VM, a bit over a third of it in the allocation.
"""

import statistics
import time

import numpy as np

_RNG = np.random.default_rng(12345)
_X = _RNG.standard_normal((8, 64, 32))
_WQ, _WK, _WV, _WO = (_RNG.standard_normal((32, 32)) / 6.0 for _ in range(4))
_W1 = _RNG.standard_normal((32, 64)) / 6.0
_W2 = _RNG.standard_normal((64, 32)) / 8.0
# 36 MiB: above glibc's largest mmap threshold (32 MiB), so every result of
# this size is fresh memory that the operating system maps and zeroes page
# by page, as it is for the package's biggest tensors
_BIG = _RNG.standard_normal(36 << 17)


def _layer_norm(x):
    d = x - x.mean(-1, keepdims=True)
    return d / np.sqrt((d * d).mean(-1, keepdims=True) + 1e-5)


def _heads(x):
    return x.reshape(8, 64, 2, 16).transpose(0, 2, 1, 3)


def _block(x):
    h = _layer_norm(x)
    q, k, v = _heads(h @ _WQ), _heads(h @ _WK), _heads(h @ _WV)
    q = q / np.linalg.norm(q, axis=-1, keepdims=True)
    k = k / np.linalg.norm(k, axis=-1, keepdims=True)
    s = 4.0 * (q @ k.swapaxes(-1, -2)) ** 2
    e = np.exp(s - s.max(-1, keepdims=True))
    p = e / e.sum(-1, keepdims=True)
    x = x + (p @ v).transpose(0, 2, 1, 3).reshape(8, 64, 32) @ _WO
    g = _layer_norm(x) @ _W1
    g = 0.5 * g * (1.0 + np.tanh(0.7978845608 * (g + 0.044715 * g ** 3)))
    x = x + g @ _W2
    # backward-shaped tail: elementwise products and reductions
    dg = (1.0 - np.tanh(g) ** 2) @ _W1.T
    return x + 1e-3 * dg * (p * (1.0 - p)).sum(1).mean()


def kernel():
    x = _X
    for _ in range(3):
        x = _block(x)
    acc = 0.0
    for i in range(3000):  # interpreter-bound, like the autodiff tape's bookkeeping
        acc += (i % 7) * 0.5
    fresh = _BIG * 0.5  # page faults, zeroing and a memory-bound pass
    return float(x.sum()) + acc + float(fresh[::4096].sum())


def sample(calls):
    """Median wall time of ``calls`` kernel calls, in seconds."""
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Stopwatch:
    """Times the parts of one job, with a reference sample before and after each.

    ``lap(label)`` closes the part that began at the previous lap (or at
    construction) and samples the reference kernel, with ``calls`` calls
    unless the lap asks for another number; the sampling time is not part
    of any lap. ``seconds`` sums the parts' wall time; ``refs`` sums each
    part's wall time over the mean of the two reference samples around it.
    With ``calls=0`` nothing is sampled and ``refs`` is not available (the
    traced run, where the job's wall time is what counts).
    """

    def __init__(self, calls):
        self.calls = calls
        self.samples = [sample(calls)] if calls else []
        self.parts = []  # (label, seconds)
        self.t = time.perf_counter()

    def lap(self, label, calls=None):
        self.parts.append((label, time.perf_counter() - self.t))
        if self.calls:
            self.samples.append(sample(calls or self.calls))
        self.t = time.perf_counter()

    def _select(self, label):
        return [(i, s) for i, (lab, s) in enumerate(self.parts) if label in (None, lab)]

    def seconds(self, label=None):
        return sum(s for _, s in self._select(label))

    def part_seconds(self, label):
        return [s for _, s in self._select(label)]

    def part_refs(self, label=None):
        return [2.0 * s / (self.samples[i] + self.samples[i + 1])
                for i, s in self._select(label)]

    def refs(self, label=None):
        return sum(self.part_refs(label))
