"""Independent jobs computed by two processes, with the results of one.

The snapshot writer and the hyperbolicity map's boundary bisection both
split a list of independent jobs between this process and one forked
child; this module holds the fork, the pipe, the wait and the fallback.
"""

from __future__ import annotations

import os
import pickle


def two_process_map(fn, items, split: bool) -> list:
    """[fn(item) for item in items], computed by two processes if split.

    Where split is true and os.fork exists, this process computes the
    even-indexed items while a forked child computes the odd-indexed ones
    and sends their results back, pickled, through a pipe; this process
    returns only after the child has exited.  If the fork raises OSError,
    the child fails or this process's own share raises, this process
    computes every item again, in order, so it returns or raises as one
    process would: fn must be safe to redo.
    """
    items = list(items)
    fork = getattr(os, "fork", None)
    results = _forked(fn, items, fork) if split and fork is not None else None
    return [fn(item) for item in items] if results is None else results


def _forked(fn, items: list, fork):
    """The results of two processes, or None where the fork, the child or
    this process's share failed."""
    read_fd, write_fd = os.pipe()
    try:
        pid = fork()
    except OSError:  # such as EAGAIN under a process limit
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:  # the child: compute, send, then exit at once
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pickle.dump([fn(item) for item in items[1::2]], pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        ours = [fn(item) for item in items[::2]]
    except Exception:  # redone by the caller, with every other item
        ours = None
    finally:
        with open(read_fd, "rb") as pipe:  # drained before the wait
            sent = pipe.read()
        _, status = os.waitpid(pid, 0)
    if ours is None or status != 0:
        return None
    results = [None] * len(items)
    results[::2], results[1::2] = ours, pickle.loads(sent)
    return results
