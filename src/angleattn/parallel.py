"""One executor for the package's threaded loops, and the rule that deals them.

``deal`` runs a loop's items round-robin on ``threads()`` threads: the
calling thread and the workers of one module-level ``ThreadPoolExecutor``.
``train.predict`` deals its blocks through it and ``attention.attention_node``
its sample chunks. Each share runs in a copy of the caller's context, so
under its ``no_grad`` and step pool, and is marked as a share: a deal made
inside one runs serially. So no work on the executor ever submits work to
it, and the threads of any loop never exceed the budget.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

# the share of a threaded deal that the current context runs (0: the
# caller's own), or None outside one; the step pool keeps a free list per share
_share = contextvars.ContextVar("angleattn_share", default=None)

# the thread budget when set (by sweep's worker processes); else one per usable core
_thread_share = None

# the workers of threaded deals, as many as the budget allows besides the caller
_executor = None
_executor_lock = threading.Lock()


def _forget_executor():
    """A forked child has none of its parent's threads: it makes its own."""
    global _executor, _executor_lock
    _executor, _executor_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_executor)


def _usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity: not Linux
        return os.cpu_count() or 1


def _budget():
    """Threads a deal may use, the caller included: one per usable core, or
    the share of them that ``sweep`` gave its worker process."""
    return _thread_share or _usable_cores()


def _share_cores(workers):
    """Initializer of ``sweep``'s worker processes: ``workers`` of them split
    the usable cores between their deals, so that together they run no more
    threads than there are cores."""
    global _thread_share
    _thread_share = max(1, _usable_cores() // workers)


def threads():
    """Threads a deal started here would use: the budget, or 1 inside a share."""
    return 1 if _share.get() is not None else _budget()


def _workers():
    """The module's executor, made with one worker per thread of the budget
    besides the caller. A deal that needs more (the budget grew since) queues
    its extra shares, which run as workers free."""
    global _executor
    with _executor_lock:
        if _executor is None:
            _executor = ThreadPoolExecutor(max(1, _budget() - 1),
                                           thread_name_prefix="angleattn")
        return _executor


def deal(fn, n):
    """``[fn(i) for i in range(n)]``, its items dealt to threads.

    Item i goes to share ``i % k`` of ``k = min(threads(), n)`` shares; the
    caller runs share 0, the executor's workers the others, each share its
    items in order and in a copy of the caller's context, under its numpy
    error handling. The caller waits for every share, then raises the error
    of the lowest-index item that failed, the one a serial loop would raise;
    a share stops at its first failure. With one share no thread starts.
    """
    k = min(threads(), n)
    if k <= 1:
        return [fn(i) for i in range(n)]
    results = [None] * n
    errors = np.geterr()  # numpy 1.x keeps it per thread, outside the context

    def run(share):
        """Run ``share``'s items in turn; (index, error) of the first that fails, else None."""
        _share.set(share)
        with np.errstate(**errors):
            for i in range(share, n, k):
                try:
                    results[i] = fn(i)
                except Exception as exc:
                    return i, exc
        return None

    futures = [_workers().submit(contextvars.copy_context().run, run, share)
               for share in range(1, k)]
    try:
        failures = [contextvars.copy_context().run(run, 0)]
    finally:
        wait(futures)  # no share may outlive the caller's pool block
    failures += [future.result() for future in futures]
    failures = [failure for failure in failures if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return results
