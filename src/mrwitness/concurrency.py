"""Worker count for every thread pool: the rows of `equidist.scan` and the
blocks of the phase sums (`expsums._pairwise_blocks`).  It is the CLI's
--threads flag for the length of one `cli.main` call, else the
WITNESS_THREADS environment variable, else the CPU count."""

from __future__ import annotations

import os
from contextvars import ContextVar

# --threads of the running `cli.main` call; set and reset by it alone
_flag: ContextVar[int | None] = ContextVar("mrwitness_threads", default=None)


def thread_count(override: int | None = None) -> int:
    """override when set (nonzero), else the --threads flag when set, else
    WITNESS_THREADS when a positive integer, else the CPU count; at least 1."""
    override = override or _flag.get()
    if override:
        return max(1, override)
    env = os.environ.get("WITNESS_THREADS", "")
    if env.isdigit() and int(env) > 0:
        return int(env)
    return os.cpu_count() or 1
