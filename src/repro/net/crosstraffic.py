"""Competing background traffic.

The 2001 Internet paths the paper measured were shared: the video flow
competed with web transfers and other traffic at the bottleneck.  We
model this with an on/off (burst/idle) source loading the same
bottleneck link.  During a burst packets arrive at the burst rate with
exponential spacing; bursts and idle gaps have exponentially
distributed lengths.  The resulting arrival process is bursty at
multiple time scales — enough to produce realistic queueing jitter and
drop-tail loss episodes without simulating a full self-similar
aggregate.

Nothing waits on a background packet — it takes its place in the queue,
occupies the wire, and leaves the path one hop later — so it is never
an object or an event.  The source is a :class:`~repro.sim.engine.Timeline`:
the loop catches it up, ahead of every foreground event, through the
arrivals due before that event, and each arrival is one
:meth:`Link.admit <repro.net.link.Link.admit>` — the arithmetic a
foreground packet gets, with the source itself standing in the queue.

The random stream is the play's shared generator, so draw order is the
output: every draw is made at the simulated instant it belongs to (a
gap per packet, a length per burst and idle, and on a lossy hop the
loss draw when that packet's last bit leaves), never batched or moved
to a private stream.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.net.link import Link
from repro.net.packet import HEADER_BYTES
from repro.sim.engine import EventLoop
from repro.units import BITS_PER_BYTE


@dataclass
class CrossTrafficConfig:
    """Parameters of an on/off cross-traffic source."""

    #: Long-run average offered load in bits per second.
    mean_rate_bps: float
    #: Peak (burst) rate in bits per second; must exceed the mean.
    burst_rate_bps: float
    #: Mean burst duration in seconds.
    mean_burst_s: float = 0.5
    #: Packet payload size in bytes.
    packet_bytes: int = 1000

    def __post_init__(self) -> None:
        if self.mean_rate_bps < 0:
            raise ValueError(f"mean rate must be >= 0, got {self.mean_rate_bps}")
        if self.mean_rate_bps > 0 and self.burst_rate_bps <= self.mean_rate_bps:
            raise ValueError(
                "burst rate must exceed mean rate "
                f"({self.burst_rate_bps} <= {self.mean_rate_bps})"
            )
        if self.mean_burst_s <= 0:
            raise ValueError(f"mean burst must be positive, got {self.mean_burst_s}")
        if self.packet_bytes <= 0:
            raise ValueError(f"packet size must be positive, got {self.packet_bytes}")

    @property
    def duty_cycle(self) -> float:
        """Fraction of time the source is bursting."""
        if self.mean_rate_bps == 0:
            return 0.0
        return self.mean_rate_bps / self.burst_rate_bps

    @property
    def mean_idle_s(self) -> float:
        """Mean idle-gap duration implied by the duty cycle."""
        duty = self.duty_cycle
        if duty == 0:
            return float("inf")
        return self.mean_burst_s * (1.0 - duty) / duty


class CrossTrafficSource:
    """Loads a link with on/off background packets."""

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
        #: Packets offered to the link so far.
        self.packets_sent = 0
        #: What each packet occupies in the queue and on the wire.
        self.wire_size = config.packet_bytes + HEADER_BYTES
        self._mean_gap_s = (
            config.packet_bytes * BITS_PER_BYTE / config.burst_rate_bps
            if config.mean_rate_bps > 0
            else 0.0
        )
        #: Timeline: the instant of the next step (arrival or loss draw).
        self.next_time = math.inf
        #: The next step of the on/off process: a packet while in a
        #: burst, else the start of the next burst.
        self._arrival_at = math.inf
        #: Admitted packets on a lossy hop awaiting their loss draw, by
        #: the instant their last bit leaves (FIFO, so ascending).
        self._serializing: deque[float] = deque()
        #: Packets past the loss draw, by delivery instant (ascending).
        self._propagating: deque[float] = deque()
        link.add_background(self.settle)

    def start(self) -> None:
        """Begin the on/off process (starts in a random phase)."""
        if self._running:
            raise SimulationError("cross-traffic source is already running")
        if self.config.mean_rate_bps == 0:
            return
        # (A restart may find the last run's packets still draining.)
        self._loop.detach(self)
        self._running = True
        self._in_burst = False
        now = self._loop.now
        # Random initial phase so paths built at t=0 don't all burst
        # in lock step.
        if self._rng.random() < self.config.duty_cycle:
            # A burst begins this instant and its first packet goes
            # now: those draws belong here, ahead of the caller's next.
            self._arrival_at = now
            self.advance(math.nextafter(now, math.inf))
        else:
            self._arrival_at = now + self._rng.exponential(
                self.config.mean_idle_s
            )
            self.advance(now)
        self._loop.attach(self)

    def stop(self) -> None:
        """Stop injecting packets.  Those already on the link run their
        course (a lossy hop still draws for each)."""
        self._running = False
        self._arrival_at = math.inf
        self.advance(-math.inf)

    def advance(self, until: float) -> None:
        """Timeline: every arrival and loss draw due before ``until``."""
        # Locals throughout: this loop is the cost of a background packet.
        link = self._link
        admit = link.admit
        random_loss = link.config.random_loss
        propagation_s = link.config.propagation_s
        exponential = self._rng.exponential
        mean_gap_s = self._mean_gap_s
        serializing = self._serializing
        propagating = self._propagating
        at = self._arrival_at
        in_burst = self._in_burst
        burst_ends_at = self._burst_ends_at
        sent = 0
        while True:
            if serializing and serializing[0] < at:
                tx_done = serializing[0]
                if tx_done >= until:
                    break
                serializing.popleft()
                if self._rng.random() < random_loss:
                    link.count_random_drop(self.wire_size)
                else:
                    propagating.append(tx_done + propagation_s)
                continue
            if at >= until:
                break
            if not in_burst:
                in_burst = True
                burst_ends_at = at + exponential(self.config.mean_burst_s)
            if at >= burst_ends_at:
                # The burst is over.  (Once per burst is also often
                # enough to forget the deliveries already made.)
                self.settle(at)
                in_burst = False
                at += exponential(self.config.mean_idle_s)
                continue
            tx_done = admit(at, self)
            sent += 1
            if tx_done is not None:
                if random_loss:
                    serializing.append(tx_done)
                else:
                    propagating.append(tx_done + propagation_s)
            at += exponential(mean_gap_s)
        self._arrival_at = at
        self._in_burst = in_burst
        self._burst_ends_at = burst_ends_at
        self.packets_sent += sent
        if serializing and serializing[0] < at:
            at = serializing[0]
        self.next_time = at
        if at == math.inf:
            self._loop.detach(self)

    def settle(self, now: float) -> None:
        """Fold the deliveries up to ``now`` into the link's counters."""
        propagating = self._propagating
        count = 0
        while propagating and propagating[0] <= now:
            propagating.popleft()
            count += 1
        if count:
            self._link.background_delivered(count, self.wire_size)
