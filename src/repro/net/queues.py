"""Router queues: drop-tail (the 2001 default) and RED (ablation).

A queue decides, per arriving packet, whether to accept or drop it, and
hands packets back to the link in FIFO order.  Queue depth is measured
in packets, which is what most 2001-era drop-tail routers did.

What a queue holds is anything with a ``wire_size`` (a packet, or a
background source standing in for one).  ``offer`` and ``pop`` take the
instant they happen as an argument: a link replays a ``pop`` after the
fact, at the service start it had already computed.

Both queues keep full arrival/departure counters (``offers``,
``enqueued``, ``drops``, ``popped``, ``queued_bytes``) so that
``repro.validate`` can assert conservation at every hop:
``offers == enqueued + drops`` and ``enqueued == popped + len``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Protocol

import numpy as np


class WireSized(Protocol):
    """Anything a queue can hold: it occupies ``wire_size`` bytes."""

    wire_size: int


class DropTailQueue:
    """Classic FIFO queue with a hard packet-count limit."""

    def __init__(self, capacity_packets: int) -> None:
        if capacity_packets < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity_packets}")
        self.capacity = capacity_packets
        self._queue: deque[WireSized] = deque()
        self.drops = 0
        self.enqueued = 0
        self.offers = 0
        self.popped = 0
        self.queued_bytes = 0

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def is_empty(self) -> bool:
        return not self._queue

    def offer(self, packet: WireSized, now: float | None = None) -> bool:
        """Try to enqueue; returns False (and counts a drop) when full."""
        self.offers += 1
        if len(self._queue) >= self.capacity:
            self.drops += 1
            return False
        self._queue.append(packet)
        self.enqueued += 1
        self.queued_bytes += packet.wire_size
        return True

    def pop(self, now: float | None = None) -> WireSized:
        """Dequeue the head-of-line packet."""
        packet = self._queue.popleft()
        self.popped += 1
        self.queued_bytes -= packet.wire_size
        return packet


class REDQueue:
    """Random Early Detection queue (Floyd & Jacobson 1993).

    Included as the queueing ablation the paper's congestion discussion
    ([FF98]) motivates: RED keeps average queues short, trading early
    random drops for lower queueing jitter.

    When given a ``clock`` (the simulated one), the EWMA is aged across
    idle periods per Floyd & Jacobson section 11: on the first arrival
    after the queue drained, ``avg <- (1-w)^m * avg`` with ``m`` the
    idle time expressed in typical packet-transmission times (an
    explicit ``now``, what a link passes, stands in for reading the
    clock).  Without a clock the average is only updated on arrivals —
    the original behavior, kept for direct unit-testing of the drop
    curve.
    """

    def __init__(
        self,
        capacity_packets: int,
        min_threshold: int | None = None,
        max_threshold: int | None = None,
        max_drop_probability: float = 0.1,
        weight: float = 0.002,
        rng: np.random.Generator | None = None,
        clock: Callable[[], float] | None = None,
        mean_tx_time_s: float = 0.001,
    ) -> None:
        if capacity_packets < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity_packets}")
        self.capacity = capacity_packets
        self.min_threshold = (
            min_threshold if min_threshold is not None else max(1, capacity_packets // 4)
        )
        self.max_threshold = (
            max_threshold
            if max_threshold is not None
            else max(self.min_threshold + 1, (3 * capacity_packets) // 4)
        )
        if not 0 < max_drop_probability <= 1:
            raise ValueError(
                f"max_drop_probability must be in (0, 1], got {max_drop_probability}"
            )
        if self.min_threshold >= self.max_threshold:
            raise ValueError(
                f"min_threshold ({self.min_threshold}) must be below "
                f"max_threshold ({self.max_threshold})"
            )
        if mean_tx_time_s <= 0:
            raise ValueError(f"mean_tx_time_s must be > 0, got {mean_tx_time_s}")
        self.max_drop_probability = max_drop_probability
        self.weight = weight
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._clock = clock
        self._mean_tx_time_s = mean_tx_time_s
        self._idle_since: float | None = None
        self._queue: deque[WireSized] = deque()
        self._avg = 0.0
        self.drops = 0
        self.early_drops = 0
        self.enqueued = 0
        self.offers = 0
        self.popped = 0
        self.queued_bytes = 0

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def is_empty(self) -> bool:
        return not self._queue

    @property
    def average_depth(self) -> float:
        """Exponentially weighted average queue depth."""
        return self._avg

    def offer(self, packet: WireSized, now: float | None = None) -> bool:
        """Enqueue with RED's early-drop behavior."""
        self.offers += 1
        if not self._queue and self._idle_since is not None:
            # First arrival after an idle period: age the average as if
            # ``m`` small packets had passed through an empty queue
            # (Floyd & Jacobson 1993, section 11).  Without this, the
            # stale high average from the last burst spuriously
            # early-drops the head of the next one.
            if self._clock is not None:
                if now is None:
                    now = self._clock()
                idle = now - self._idle_since
                if idle > 0:
                    m = idle / self._mean_tx_time_s
                    self._avg *= (1 - self.weight) ** m
            self._idle_since = None
        self._avg = (1 - self.weight) * self._avg + self.weight * len(self._queue)
        if len(self._queue) >= self.capacity:
            self.drops += 1
            return False
        if self._avg >= self.max_threshold:
            self.drops += 1
            self.early_drops += 1
            return False
        if self._avg > self.min_threshold:
            span = self.max_threshold - self.min_threshold
            p_drop = (
                self.max_drop_probability * (self._avg - self.min_threshold) / span
            )
            if self._rng.random() < p_drop:
                self.drops += 1
                self.early_drops += 1
                return False
        self._queue.append(packet)
        self.enqueued += 1
        self.queued_bytes += packet.wire_size
        return True

    def pop(self, now: float | None = None) -> WireSized:
        """Dequeue the head-of-line packet."""
        packet = self._queue.popleft()
        self.popped += 1
        self.queued_bytes -= packet.wire_size
        if not self._queue and self._clock is not None:
            self._idle_since = self._clock() if now is None else now
        return packet
