"""The reliable in-order stream under every TCP-like sender.

One :class:`ReliableStream` moves application messages reliably and in
order from the *server* side of a :class:`~repro.net.path.NetworkPath`
to the *client* side (the direction media data flows).  It is all of a
TCP model that is **not** congestion control:

* the send queue and per-segment bookkeeping (messages are at most one
  MSS and map 1:1 to segments; the media packetizer guarantees this),
* the RFC 6298 RTT/RTO estimator with Karn's algorithm, and the
  retransmission timeout with exponential backoff,
* cumulative-ACK processing and duplicate-ACK counting,
* the receiver: out-of-order buffering, in-order delivery, ACKs.

*When* a segment may leave and *how* the sender reacts to ACKs and loss
is the congestion controller's business.  A controller is a subclass
that owns the window ``_cwnd`` (segments) and overrides the hooks at
the bottom of the class — :class:`~repro.transport.tcp.TcpConnection`
(Reno) and :class:`~repro.transport.bbr.BbrConnection` (BBR) are the
two in the tree.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ConnectionClosedError, TransportError
from repro.net.packet import Packet, PacketKind
from repro.net.path import NetworkPath
from repro.sim.engine import EventLoop, Timer
from repro.transport.base import MSS_BYTES, allocate_flow_id

#: Initial retransmission timeout, seconds.
INITIAL_RTO = 1.0

#: RTO bounds, seconds.  The backoff ceiling is kept low: RealPlayer's
#: streaming TCP sessions are long-lived interactive flows, and a
#: 16-second silent backoff would dwarf the playout buffer.
MIN_RTO = 0.2
MAX_RTO = 4.0

#: Duplicate ACKs at which the controllers repair the first hole.
DUPACK_THRESHOLD = 3


@dataclass
class _Segment:
    """Sender-side bookkeeping for one in-flight segment."""

    seq: int
    size: int
    payload: Any
    sent_at: float
    retransmitted: bool = False
    #: Controller scratch, stamped in ``_on_segment_sent``: bytes
    #: delivered when this segment left (rate-based controllers take a
    #: delivery-rate sample from it on the ACK).
    delivered_at_send: int = 0


@dataclass
class TcpStats:
    """Counters for the analysis layer."""

    segments_sent: int = 0
    segments_retransmitted: int = 0
    bytes_delivered: int = 0
    messages_delivered: int = 0
    fast_retransmits: int = 0
    timeouts: int = 0
    acks_received: int = 0

    @property
    def retransmission_rate(self) -> float:
        """Fraction of segment transmissions that were retransmissions."""
        if self.segments_sent == 0:
            return 0.0
        return self.segments_retransmitted / self.segments_sent


class ReliableStream:
    """Reliable server-to-client message stream; subclass to add
    congestion control."""

    def __init__(
        self, loop: EventLoop, path: NetworkPath, initial_cwnd: float
    ) -> None:
        self._loop = loop
        self._path = path
        self.flow_id = allocate_flow_id()
        self.stats = TcpStats()
        self._closed = False

        # Sender state.
        self._send_queue: deque[tuple[Any, int]] = deque()
        self._next_seq = 0
        self._highest_acked = -1  # cumulative: all seq <= this are acked
        self._in_flight: dict[int, _Segment] = {}
        self._cwnd = initial_cwnd  # the controller's to move
        self._dupacks = 0
        self._srtt: float | None = None
        self._rttvar = 0.0
        self._rto = INITIAL_RTO
        self._rto_timer = Timer(loop, self._on_timeout)
        self._backlog_bytes = 0

        # Receiver state.
        self._expected_seq = 0
        self._reorder_buffer: dict[int, tuple[Any, int]] = {}
        self.on_deliver: Callable[[Any, int], None] | None = None

        path.server_endpoint.register(self.flow_id, self._on_ack_packet)
        path.client_endpoint.register(self.flow_id, self._on_data_packet)

    # -- public API -------------------------------------------------------

    def send(self, payload: Any, size: int) -> None:
        """Queue one application message (at most one MSS) for delivery."""
        if self._closed:
            raise ConnectionClosedError("send on closed connection")
        if size > MSS_BYTES:
            raise TransportError(
                f"application message of {size} bytes exceeds MSS {MSS_BYTES}"
            )
        if size <= 0:
            raise TransportError(f"message size must be positive, got {size}")
        self._send_queue.append((payload, size))
        self._backlog_bytes += size
        self._try_send()

    def close(self) -> None:
        """Tear the connection down; pending data is abandoned."""
        if self._closed:
            return
        self._closed = True
        self._rto_timer.cancel()
        self._on_close()
        self._path.server_endpoint.unregister(self.flow_id)
        self._path.client_endpoint.unregister(self.flow_id)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def backlog_bytes(self) -> int:
        """Bytes queued or in flight but not yet acknowledged.

        The streaming session reads this as its congestion signal: a
        growing backlog means the achieved rate is below the media
        rate.
        """
        return self._backlog_bytes

    @property
    def cwnd_segments(self) -> float:
        """Current congestion window, in segments."""
        return self._cwnd

    @property
    def smoothed_rtt(self) -> float | None:
        """Smoothed RTT estimate in seconds, or None before a sample."""
        return self._srtt

    @property
    def rto(self) -> float:
        """Current retransmission timeout, seconds."""
        return self._rto

    # -- sender -----------------------------------------------------------

    def _try_send(self) -> None:
        while (
            not self._closed
            and self._send_queue
            and len(self._in_flight) < int(self._cwnd)
            and self._may_send_now()
        ):
            payload, size = self._send_queue.popleft()
            segment = _Segment(
                seq=self._next_seq,
                size=size,
                payload=payload,
                sent_at=self._loop.now,
            )
            self._next_seq += 1
            self._in_flight[segment.seq] = segment
            self._transmit(segment)
            self._on_segment_sent(segment)

    def _transmit(self, segment: _Segment) -> None:
        packet = Packet(
            kind=PacketKind.DATA,
            size=segment.size,
            flow_id=self.flow_id,
            seq=segment.seq,
            payload=segment.payload,
        )
        self.stats.segments_sent += 1
        if segment.retransmitted:
            self.stats.segments_retransmitted += 1
        self._path.send_to_client(packet)
        if not self._rto_timer.armed:
            self._rto_timer.start(self._rto)

    def _retransmit(self, seq: int) -> None:
        """Resend in-flight segment ``seq`` (a no-op once it is ACKed)."""
        segment = self._in_flight.get(seq)
        if segment is not None:
            segment.retransmitted = True
            segment.sent_at = self._loop.now
            self._transmit(segment)

    def _on_ack_packet(self, packet: Packet) -> None:
        if packet.kind is not PacketKind.ACK or self._closed:
            return
        self.stats.acks_received += 1
        ack_seq = packet.seq  # cumulative: next expected segment
        newly_acked = ack_seq - 1  # highest segment the receiver has
        if newly_acked > self._highest_acked:
            self._handle_new_ack(newly_acked)
        elif ack_seq == self._highest_acked + 1 and self._in_flight:
            self._dupacks += 1
            if self._on_dupack():
                self.stats.fast_retransmits += 1
                self._retransmit(self._highest_acked + 1)
        self._try_send()

    def _handle_new_ack(self, newly_acked: int) -> None:
        now = self._loop.now
        acked = []
        for seq in range(self._highest_acked + 1, newly_acked + 1):
            segment = self._in_flight.pop(seq, None)
            if segment is None:
                continue
            acked.append(segment)
            self._backlog_bytes -= segment.size
            if not segment.retransmitted:
                # Karn's algorithm: a retransmitted segment's ACK is
                # ambiguous, so it yields no RTT sample.
                self._sample_rtt(now - segment.sent_at)
        self._highest_acked = newly_acked
        self._dupacks = 0
        self._on_new_ack(acked, now)

        if self._in_flight:
            self._rto_timer.start(self._rto)
        else:
            self._rto_timer.cancel()

    def _on_timeout(self) -> None:
        if self._closed or not self._in_flight:
            return
        self.stats.timeouts += 1
        self._on_rto()
        self._dupacks = 0
        self._rto = min(self._rto * 2.0, MAX_RTO)
        self._retransmit(min(self._in_flight))
        self._rto_timer.start(self._rto)

    def _sample_rtt(self, rtt: float) -> None:
        # RFC 6298 estimators.
        if self._srtt is None:
            self._srtt = rtt
            self._rttvar = rtt / 2.0
        else:
            self._rttvar = 0.75 * self._rttvar + 0.25 * abs(self._srtt - rtt)
            self._srtt = 0.875 * self._srtt + 0.125 * rtt
        self._rto = min(max(self._srtt + 4.0 * self._rttvar, MIN_RTO), MAX_RTO)

    # -- receiver ---------------------------------------------------------

    def _on_data_packet(self, packet: Packet) -> None:
        if packet.kind is not PacketKind.DATA or self._closed:
            return
        seq = packet.seq
        if seq >= self._expected_seq and seq not in self._reorder_buffer:
            self._reorder_buffer[seq] = (packet.payload, packet.size)
        # Deliver any now-contiguous prefix.
        while self._expected_seq in self._reorder_buffer:
            payload, size = self._reorder_buffer.pop(self._expected_seq)
            self._expected_seq += 1
            self.stats.bytes_delivered += size
            self.stats.messages_delivered += 1
            if self.on_deliver is not None:
                self.on_deliver(payload, size)
        ack = Packet(
            kind=PacketKind.ACK,
            size=0,
            flow_id=self.flow_id,
            seq=self._expected_seq,
        )
        self._path.send_to_server(ack)

    # -- congestion-controller hooks --------------------------------------
    #
    # The whole controller interface.  Each runs at a fixed point of
    # the sender above; between them a controller moves ``_cwnd`` and
    # whatever model state it keeps, and may call ``_retransmit`` and
    # ``_try_send``.  The defaults are a fixed window of
    # ``initial_cwnd`` segments whose only loss repair is the RTO.

    def _may_send_now(self) -> bool:
        """Asked once the window has room for a segment.  A paced
        controller returns False and arranges to call ``_try_send``
        when its next send slot arrives."""
        return True

    def _on_segment_sent(self, segment: _Segment) -> None:
        """A new (never a retransmitted) segment has just left."""

    def _on_new_ack(self, acked: list[_Segment], now: float) -> None:
        """A cumulative ACK advanced; ``acked`` left the flight, in
        sequence order, and ``_highest_acked`` is already updated."""

    def _on_dupack(self) -> bool:
        """A duplicate ACK arrived and ``_dupacks`` counts it; return
        True to fast-retransmit the first hole now."""
        return False

    def _on_rto(self) -> None:
        """The retransmission timer fired; the core backs the RTO off
        and resends the oldest in-flight segment after this returns."""

    def _on_close(self) -> None:
        """The stream is closing: cancel any controller timers."""
