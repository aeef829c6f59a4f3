"""A simulated point-to-point link.

A link serializes packets at a finite rate, holds excess arrivals in a
queue, applies random (non-congestive) loss, then delivers each packet
to the downstream receiver after a propagation delay.  Congestive loss
emerges from the queue filling up, not from a configured probability —
that is what makes TCP's AIMD and RealServer's adaptation behave
realistically on top.

Service model: arrival-time FIFO.  The wire serves in arrival order, so
a packet's whole passage is known the moment it is admitted: it starts
at ``max(arrival, wire_free_at)``, its last bit leaves
``wire_size * 8 / rate`` later, and the queue depth an arrival meets is
the number of admitted packets whose start is still ahead.
:meth:`Link.admit` is that arithmetic, for every packet and every queue
discipline; nothing is scheduled to *start* a service.  The queue still
sees each ``offer`` and ``pop`` with the instant it happened (RED ages
its average by them): the ``pop`` is replayed, at the start instant the
packet was given, by whatever touches the link next.

Only a packet's effects are events.  :meth:`Link.send` heaps one on a
loss-free hop (``_deliver`` at ``tx_done + propagation``) and two on a
lossy one (the loss draw at ``tx_done`` — the generator is shared, so a
draw must happen at its simulated instant — then ``_deliver``).
Background traffic (:mod:`repro.net.crosstraffic`) has no receiver, so
its source calls :meth:`Link.admit` directly and heaps nothing.

Counters are therefore settled rather than live: :attr:`Link.stats`,
:attr:`Link.queue` and :attr:`Link.queue_depth` bring themselves up to
``loop.now`` when read, so ``repro.validate`` sees
``offers == enqueued + drops``, ``enqueued == popped + len`` and
``popped == delivered + random_drops + in_transit`` hold exactly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from repro.errors import SimulationError
from repro.net.packet import Packet, PacketKind
from repro.net.queues import DropTailQueue, WireSized
from repro.sim.engine import PRIORITY_HIGH, EventLoop
from repro.units import BITS_PER_BYTE


class PacketQueue(Protocol):
    """Anything a link can use as its buffer (drop-tail, RED...).

    The counter attributes let ``repro.validate`` assert conservation
    (``offers == enqueued + drops``, ``enqueued == popped + len``)
    without knowing the queueing discipline.  ``now`` is the instant
    the operation happens (a ``pop`` is replayed after the fact).
    """

    offers: int
    enqueued: int
    drops: int
    popped: int
    queued_bytes: int

    def offer(self, packet: WireSized, now: float | None = None) -> bool: ...

    def pop(self, now: float | None = None) -> WireSized: ...

    def __len__(self) -> int: ...


@dataclass
class LinkConfig:
    """Static parameters of a link."""

    #: Serialization rate in bits per second.
    rate_bps: float
    #: One-way propagation delay in seconds.
    propagation_s: float
    #: Queue capacity in packets.
    queue_packets: int = 50
    #: Probability a packet is corrupted/lost independent of congestion.
    random_loss: float = 0.0
    #: Human-readable name for diagnostics.
    name: str = "link"

    def __post_init__(self) -> None:
        if self.rate_bps <= 0:
            raise ValueError(f"link rate must be positive, got {self.rate_bps}")
        if self.propagation_s < 0:
            raise ValueError(
                f"propagation delay must be non-negative, got {self.propagation_s}"
            )
        if not 0.0 <= self.random_loss < 1.0:
            raise ValueError(f"random_loss must be in [0, 1), got {self.random_loss}")


@dataclass(slots=True)
class LinkStats:
    """Counters a link keeps while forwarding."""

    delivered: int = 0
    delivered_bytes: int = 0
    queue_drops: int = 0
    random_drops: int = 0
    busy_time: float = 0.0
    #: Packets/bytes offered to the link (accepted or not).
    offered: int = 0
    offered_bytes: int = 0
    #: Bytes lost to queue overflow / random (non-congestive) loss.
    queue_dropped_bytes: int = 0
    random_dropped_bytes: int = 0
    #: Packets/bytes popped from the queue but not yet delivered or
    #: dropped — serializing or propagating when the loop stopped.
    in_transit: int = 0
    in_transit_bytes: int = 0
    #: Per-kind delivered counts, for cross-traffic accounting.
    delivered_by_kind: dict = field(default_factory=dict)


class Link:
    """A finite-rate, finite-buffer, lossy link feeding a receiver."""

    __slots__ = (
        "_loop",
        "config",
        "_rng",
        "_queue",
        "_receiver",
        "_stats",
        "_rate_bps",
        "_propagation_s",
        "_random_loss",
        "_wire_free_at",
        "_waiting",
        "_serializing",
        "_in_flight",
        "_background",
    )

    def __init__(
        self,
        loop: EventLoop,
        config: LinkConfig,
        rng: np.random.Generator,
        queue: PacketQueue | None = None,
    ) -> None:
        self._loop = loop
        self.config = config
        self._rng = rng
        self._queue: PacketQueue = (
            queue if queue is not None else DropTailQueue(config.queue_packets)
        )
        self._receiver: Callable[[Packet], None] | None = None
        self._stats = LinkStats()
        # Per-hop constants, cached off the config dataclass: the data
        # plane reads them once per packet.
        self._rate_bps = config.rate_bps
        self._propagation_s = config.propagation_s
        self._random_loss = config.random_loss
        #: The instant the last admitted packet's last bit leaves.
        self._wire_free_at = 0.0
        #: Service-start instants of the packets the queue still holds.
        self._waiting: deque[float] = deque()
        # Foreground packets between admission and the loss draw (lossy
        # hops only), and between there and delivery.  Both complete in
        # admission order, so the event callbacks are permanent bound
        # methods draining FIFOs instead of a closure per packet.
        self._serializing: deque[Packet] = deque()
        self._in_flight: deque[Packet] = deque()
        #: ``settle(now)`` of each background source this link carries.
        self._background: list[Callable[[float], None]] = []

    def connect(self, receiver: Callable[[Packet], None]) -> None:
        """Attach the downstream receiver (next link or endpoint)."""
        self._receiver = receiver

    def add_background(self, settle: Callable[[float], None]) -> None:
        """Register a source of packets this link carries unseen:
        ``settle(now)`` has it report its deliveries up to ``now``."""
        self._background.append(settle)

    # -- settled views ----------------------------------------------------

    def settle(self) -> None:
        """Bring every counter up to ``loop.now``."""
        now = self._loop.now
        self._begin_due(now)
        for settle in self._background:
            settle(now)

    @property
    def stats(self) -> LinkStats:
        """The link's counters, settled to ``loop.now``."""
        self.settle()
        return self._stats

    @property
    def queue(self) -> PacketQueue:
        """The link's buffer (settled), for inspection in tests/ablations."""
        self.settle()
        return self._queue

    @property
    def queue_depth(self) -> int:
        """Packets currently waiting (not counting the one in service)."""
        return len(self.queue)

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` seconds the link spent serializing."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.stats.busy_time / elapsed)

    # -- data plane -------------------------------------------------------

    def admit(self, now: float, item: WireSized) -> float | None:
        """Offer ``item`` to the link at ``now`` (never earlier than the
        previous offer).  Returns the instant its last bit will leave
        the wire, or None when the queue refused it."""
        stats = self._stats
        wire_size = item.wire_size
        stats.offered += 1
        stats.offered_bytes += wire_size
        waiting = self._waiting
        queue = self._queue
        while waiting and waiting[0] <= now:
            # (_begin_due, inlined: this runs once per packet per hop.)
            size = queue.pop(waiting.popleft()).wire_size
            stats.in_transit += 1
            stats.in_transit_bytes += size
            stats.busy_time += size * BITS_PER_BYTE / self._rate_bps
        if not queue.offer(item, now):
            stats.queue_drops += 1
            stats.queue_dropped_bytes += wire_size
            return None
        start = self._wire_free_at
        if start < now:
            start = now  # idle wire: service starts on arrival
        waiting.append(start)
        tx_done = start + wire_size * BITS_PER_BYTE / self._rate_bps
        self._wire_free_at = tx_done
        return tx_done

    def count_random_drop(self, wire_size: int) -> None:
        """A packet that had left the wire failed its loss draw."""
        stats = self._stats
        stats.random_drops += 1
        stats.random_dropped_bytes += wire_size
        stats.in_transit -= 1
        stats.in_transit_bytes -= wire_size

    def background_delivered(self, count: int, wire_size: int) -> None:
        """``count`` background packets reached the far end and left."""
        stats = self._stats
        stats.delivered += count
        stats.delivered_bytes += count * wire_size
        stats.in_transit -= count
        stats.in_transit_bytes -= count * wire_size
        kind_counts = stats.delivered_by_kind
        kind_counts[PacketKind.CROSS] = (
            kind_counts.get(PacketKind.CROSS, 0) + count
        )

    def _begin_due(self, now: float) -> None:
        """Replay the start of every service that began by ``now``."""
        waiting = self._waiting
        queue = self._queue
        stats = self._stats
        rate_bps = self._rate_bps
        while waiting and waiting[0] <= now:
            wire_size = queue.pop(waiting.popleft()).wire_size
            stats.in_transit += 1
            stats.in_transit_bytes += wire_size
            # Per packet, in FIFO order: float addition does not regroup.
            stats.busy_time += wire_size * BITS_PER_BYTE / rate_bps

    def send(self, packet: Packet) -> None:
        """Offer a packet to the link."""
        if self._receiver is None:
            raise SimulationError(f"link {self.config.name!r} has no receiver")
        loop = self._loop
        tx_done = self.admit(loop.now, packet)
        if tx_done is None:
            return
        if self._random_loss > 0:
            self._serializing.append(packet)
            loop.call_at(tx_done, self._draw_loss)
        else:
            self._in_flight.append(packet)
            loop.call_at(
                tx_done + self._propagation_s, self._deliver, PRIORITY_HIGH
            )

    def _draw_loss(self) -> None:
        """The last bit left a lossy wire: did the packet survive it?"""
        packet = self._serializing.popleft()
        if self._rng.random() < self._random_loss:
            self.count_random_drop(packet.wire_size)
            return
        self._in_flight.append(packet)
        self._loop.call_later(
            self._propagation_s, self._deliver, PRIORITY_HIGH
        )

    def _deliver(self) -> None:
        packet = self._in_flight.popleft()
        packet.hops += 1
        stats = self._stats
        stats.delivered += 1
        stats.delivered_bytes += packet.wire_size
        stats.in_transit -= 1
        stats.in_transit_bytes -= packet.wire_size
        kind_counts = stats.delivered_by_kind
        kind = packet.kind
        kind_counts[kind] = kind_counts.get(kind, 0) + 1
        receiver = self._receiver
        assert receiver is not None
        receiver(packet)
