"""The event-per-packet cross-traffic source, kept as a test oracle.

This is the source the simulator shipped with before background traffic
became a timeline: every burst start, every packet and every idle gap
is a heaped event, and every packet is a real CROSS ``Packet`` sent
through ``Link.send`` — queued, serialized, loss-drawn, propagated and
handed to the link's receiver like any other.  It is slow and obviously
right, which is the point: ``test_net_background.py`` drives it and
``repro.net.crosstraffic.CrossTrafficSource`` over the same links and
the same generator and demands the same foreground deliveries, the same
counters and the same generator state.
"""

from __future__ import annotations

import numpy as np

from repro.net.crosstraffic import CrossTrafficConfig
from repro.net.link import Link
from repro.net.packet import Packet, PacketKind
from repro.sim.engine import EventLoop
from repro.units import BITS_PER_BYTE

#: Flow id of every reference cross packet (real flows are positive).
CROSS_FLOW_ID = -1


class EventPerPacketSource:
    """Injects on/off background packets into a link, one event each."""

    def __init__(
        self,
        loop: EventLoop,
        link: Link,
        config: CrossTrafficConfig,
        rng: np.random.Generator,
    ) -> None:
        self._loop = loop
        self._link = link
        self.config = config
        self._rng = rng
        self._running = False
        self._in_burst = False
        self._burst_ends_at = 0.0
        self.packets_sent = 0
        self._mean_gap_s = (
            config.packet_bytes * BITS_PER_BYTE / config.burst_rate_bps
            if config.mean_rate_bps > 0
            else 0.0
        )

    def start(self) -> None:
        if self.config.mean_rate_bps == 0:
            return
        self._running = True
        if self._rng.random() < self.config.duty_cycle:
            self._begin_burst()
        else:
            self._schedule_next_burst()

    def stop(self) -> None:
        self._running = False

    def _begin_burst(self) -> None:
        if not self._running:
            return
        self._in_burst = True
        burst_len = self._rng.exponential(self.config.mean_burst_s)
        self._burst_ends_at = self._loop.now + burst_len
        self._emit()

    def _schedule_next_burst(self) -> None:
        if not self._running:
            return
        self._in_burst = False
        idle = self._rng.exponential(self.config.mean_idle_s)
        self._loop.call_later(idle, self._begin_burst)

    def _emit(self) -> None:
        if not self._running or not self._in_burst:
            return
        now = self._loop.now
        if now >= self._burst_ends_at:
            self._schedule_next_burst()
            return
        self._link.send(
            Packet(
                PacketKind.CROSS,
                self.config.packet_bytes,
                CROSS_FLOW_ID,
                created_at=now,
            )
        )
        self.packets_sent += 1
        self._loop.call_later(
            self._rng.exponential(self._mean_gap_s), self._emit
        )
