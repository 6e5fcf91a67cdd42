"""Worker count for `equidist.scan`: the CLI's --threads flag, else the
WITNESS_THREADS environment variable, else the CPU count."""

from __future__ import annotations

import os


def thread_count(override: int | None = None) -> int:
    """override when set (nonzero), else WITNESS_THREADS when a positive
    integer, else the CPU count; at least 1."""
    if override:
        return max(1, override)
    env = os.environ.get("WITNESS_THREADS", "")
    if env.isdigit() and int(env) > 0:
        return int(env)
    return os.cpu_count() or 1
