"""Every thread pool of the package: its worker count and the one helper that
runs it, for the rows of `equidist.scan` and the blocks of the phase sums
(`expsums._pairwise_blocks`).  The count is the WITNESS_THREADS environment
variable when it is a positive integer, else the CPU count."""

from __future__ import annotations

import os
import threading


def thread_count() -> int:
    """WITNESS_THREADS when a positive integer, else the CPU count; at
    least 1."""
    env = os.environ.get("WITNESS_THREADS", "")
    if env.isdigit() and int(env) > 0:
        return int(env)
    return os.cpu_count() or 1


def ordered_map(fn, items) -> list:
    """[fn(x) for x in items], on a pool of up to `thread_count()` threads
    that ends with the call.

    A call from any thread but the main one runs inline, so pools never
    nest; so does a call with fewer than two items or one worker.  Results
    come in item order, and an error is the first in item order: the
    inline path stops at it, while the pool runs every item before it is
    raised.
    """
    items = list(items)
    if len(items) < 2 or threading.current_thread() is not threading.main_thread():
        return [fn(x) for x in items]
    workers = thread_count()
    if workers == 1:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor  # here, not at import: it costs about 3 ms

    with ThreadPoolExecutor(min(workers, len(items))) as pool:
        futures = [pool.submit(fn, x) for x in items]
    return [f.result() for f in futures]
