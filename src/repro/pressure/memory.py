"""Per-worker memory watermark: shrink batches before the OOM killer.

:func:`rss_bytes` reads the process's resident set from
``/proc/self/statm`` (falling back to ``resource.getrusage`` peak-RSS
on platforms without procfs).  A :class:`MemoryGovernor` samples it on
the worker's heartbeat tick and halves the sketch spill batch size
whenever RSS sits above the soft watermark — trading flush frequency
for footprint.  Batch size is not part of the record math, so the
dataset CSV is unchanged by any shrink sequence.
"""

from __future__ import annotations

import os
from typing import Callable

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def rss_bytes() -> int:
    """Current resident-set size in bytes (0 if unmeasurable)."""
    try:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * _PAGE_SIZE
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        # ru_maxrss is KiB on Linux, bytes on macOS; both are close
        # enough for a *peak* fallback watermark.
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return peak * 1024 if os.uname().sysname != "Darwin" else peak
    except (ImportError, AttributeError, OSError):
        # No `resource`/`os.uname` (non-POSIX) or the probe itself
        # failed: report "unmeasurable" — a failed RSS probe must not
        # kill the shard it was only watching.
        return 0


class MemoryGovernor:
    """Degrade sketch batch size when worker RSS crosses the soft mark.

    ``soft_bytes`` of None disables the governor (every call reports
    no shrink).  The governor only ever shrinks — growth would change
    flush boundaries mid-run for no benefit — and never goes below
    ``min_batch_size``.
    """

    def __init__(
        self,
        soft_bytes: int | None,
        *,
        min_batch_size: int = 256,
        probe: Callable[[], int] = rss_bytes,
    ) -> None:
        self.soft_bytes = soft_bytes
        self.min_batch_size = max(1, min_batch_size)
        self._probe = probe
        self.peak_bytes = 0
        self.shrinks = 0

    def sample(self) -> int:
        """Probe RSS, tracking the peak; returns the current reading."""
        rss = self._probe()
        if rss > self.peak_bytes:
            self.peak_bytes = rss
        return rss

    def advise(self, batch_size: int) -> int:
        """The batch size to use from here on: halved (down to
        ``min_batch_size``) while RSS sits above the soft watermark."""
        rss = self.sample()
        if self.soft_bytes is None or rss <= self.soft_bytes:
            return batch_size
        shrunk = max(self.min_batch_size, batch_size // 2)
        if shrunk < batch_size:
            self.shrinks += 1
        return shrunk

    def stats(self) -> dict:
        """Per-worker memory facts for the finished-shard payload."""
        return {
            "peak_rss_bytes": self.peak_bytes,
            "batch_shrinks": self.shrinks,
        }
