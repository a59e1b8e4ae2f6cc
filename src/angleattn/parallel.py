"""Worker threads for the package's threaded loops, and the rule that deals them.

``deal`` runs a loop's items round-robin on ``threads()`` threads: the
calling thread and the module's worker threads, each of which waits on a
task queue of its own. ``train.predict`` deals its blocks through it,
``attention.attention_node`` its sample chunks, and the row-by-row ops of
``tensor`` (matmul, gelu, layer_norm, add, dropout) slices of their
leading sample axis, and ``train.sweep`` its cells. Each share runs in a
copy of the caller's context, so under its ``no_grad``, and is marked as
a share: a deal made inside one runs serially. So no worker ever hands
work to a worker, and the threads of any loop never exceed one per usable
core.
"""

from __future__ import annotations

import contextvars
import os
import queue
import threading

import numpy as np

# the share of a threaded deal that the current context runs (0: the
# caller's own), or None outside one
_share = contextvars.ContextVar("angleattn_share", default=None)

# the task queues of the worker threads, one per usable core besides the caller
_workers = []
_workers_lock = threading.Lock()


def _forget_workers():
    """A forked child has none of its parent's threads: it starts its own."""
    global _workers, _workers_lock
    _workers, _workers_lock = [], threading.Lock()


os.register_at_fork(after_in_child=_forget_workers)


def _usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity: not Linux
        return os.cpu_count() or 1


def threads():
    """Threads a deal started here would use: one per usable core, or 1 inside a share."""
    return 1 if _share.get() is not None else _usable_cores()


def _work(tasks):
    """A worker thread: run each (context, run, share, done) task from
    ``tasks`` until it reads None, releasing ``done`` after each."""
    for context, run, share, done in iter(tasks.get, None):
        try:
            context.run(run, share)
        finally:
            # ``run`` holds the deal's arrays: none of them may outlive the
            # deal that allocated them
            del context, run
            done.release()


def _queues(n):
    """The task queues of ``n`` workers. The first deal starts one worker
    per usable core besides the caller; a deal that needs more (the cores
    grew since) starts the rest."""
    with _workers_lock:
        while len(_workers) < max(n, _usable_cores() - 1):
            tasks = queue.SimpleQueue()
            threading.Thread(target=_work, args=(tasks,), daemon=True,
                             name=f"angleattn-{len(_workers)}").start()
            _workers.append(tasks)
        return _workers[:n]


def deal(fn, n):
    """``[fn(i) for i in range(n)]``, its items dealt to threads.

    Item i goes to share ``i % k`` of ``k = min(threads(), n)`` shares; the
    caller runs share 0, worker j share j + 1, each share its items in
    order and in a copy of the caller's context, under its numpy error
    handling. The caller waits for every share, then raises the error of
    the lowest-index item that failed, the one a serial loop would raise;
    a share stops at its first failure, and skips an item once a
    lower-index item has failed. With one share no thread starts.
    """
    k = min(threads(), n)
    if k <= 1:
        return [fn(i) for i in range(n)]
    results, failures = [None] * n, []
    errors = np.geterr()  # numpy 1.x keeps it per thread, outside the context

    def run(share):
        """Run ``share``'s items in turn, up to the first that fails or that
        follows a failed item; record (index, error) of the one that fails."""
        _share.set(share)
        with np.errstate(**errors):
            for i in range(share, n, k):
                if any(j < i for j, _ in failures):
                    return
                try:
                    results[i] = fn(i)
                except BaseException as exc:
                    failures.append((i, exc))
                    return

    done = [threading.Lock() for _ in range(1, k)]
    for share, (tasks, lock) in enumerate(zip(_queues(k - 1), done), 1):
        lock.acquire()
        tasks.put((contextvars.copy_context(), run, share, lock))
    try:
        contextvars.copy_context().run(run, 0)
    finally:
        for lock in done:  # no share may outlive the deal
            lock.acquire()
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return results
