"""The per-ACK window scan BBR's model shipped with, kept as a test oracle.

Before the windowed filters became monotonic deques,
``BbrConnection._update_model`` kept every ``(time, value)`` sample of
the last ``FILTER_WINDOW_S`` seconds and rescanned all of them with
``max``/``min`` on every ACK.  That is slow (a connection's cost per
segment grows with its history) and obviously right, which is the
point: ``test_bbr_filters.py`` drives :class:`ScannedWindow` beside
``repro.transport.bbr._WindowedExtremum`` over the same sample streams,
and :class:`ScanningBbrConnection` beside ``BbrConnection`` over the
same paths, and demands the same floats.
"""

from __future__ import annotations

from collections import deque

from repro.transport.bbr import FILTER_WINDOW_S, BbrConnection


class ScannedWindow:
    """Max (or min) of the last ``FILTER_WINDOW_S``, by brute force."""

    def __init__(self, keep_max: bool) -> None:
        self._pick = max if keep_max else min
        self._samples: deque[tuple[float, float]] = deque()

    def add(self, now: float, value: float) -> None:
        self._samples.append((now, value))

    def read(self, now: float, held: float) -> float:
        samples = self._samples
        horizon = now - FILTER_WINDOW_S
        while samples and samples[0][0] < horizon:
            samples.popleft()
        if samples:
            return self._pick(value for _, value in samples)
        return held


class ScanningBbrConnection(BbrConnection):
    """``BbrConnection`` with both model filters scanned, not deduced."""

    def __init__(self, loop, path) -> None:
        super().__init__(loop, path)
        self._bw_filter = ScannedWindow(keep_max=True)
        self._rtt_filter = ScannedWindow(keep_max=False)
