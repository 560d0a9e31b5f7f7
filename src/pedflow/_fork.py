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
    returns only after the child has exited.  If the fork raises OSError
    or the child fails, this process computes the child's items itself,
    so an error surfaces here as it does when one process computes the
    items in order.
    """
    items = list(items)
    fork = getattr(os, "fork", None)
    if not split or fork is None:
        return [fn(item) for item in items]
    read_fd, write_fd = os.pipe()
    try:
        pid = fork()
    except OSError:  # such as EAGAIN under a process limit
        os.close(read_fd)
        os.close(write_fd)
        return [fn(item) for item in items]
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
    ours, error = [], None
    try:
        for item in items[::2]:
            ours.append(fn(item))
    except Exception as exc:  # raised below, after the child's earlier items
        error = exc
    finally:
        with open(read_fd, "rb") as pipe:  # drained before the wait
            sent = pipe.read()
        _, status = os.waitpid(pid, 0)
    if status == 0:
        theirs = pickle.loads(sent)
    else:  # the child's items, up to the item this process failed on
        stop = None if error is None else len(ours)
        theirs = [fn(item) for item in items[1::2][:stop]]
    if error is not None:
        raise error
    results = [None] * len(items)
    results[::2], results[1::2] = ours, theirs
    return results
