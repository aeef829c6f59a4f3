"""UDP datagram flow with receiver reports and NAK retransmission.

RealVideo's UDP data channel rode RealNetworks' RDT protocol:
best-effort datagrams, periodic receiver reports, and **NAK-based
retransmission** — the receiver detects sequence gaps and asks the
server to resend, which almost always succeeds within the multi-second
playout buffer.  This is why the paper found TCP and UDP frame-rate
distributions nearly identical: UDP did not simply shed frames.

Loss reporting stays honest about congestion: the loss rate carried in
reports counts *first-transmission* holes (gaps as first observed),
not post-repair delivery, so the server's TFRC-guided adaptation sees
the network's real drop rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ConnectionClosedError, TransportError
from repro.net.packet import Packet, PacketKind
from repro.net.path import NetworkPath
from repro.sim.engine import EventLoop
from repro.transport.base import MSS_BYTES, allocate_flow_id

#: How often the receiver emits a report, seconds.
REPORT_INTERVAL_S = 1.0

#: EWMA weight for the loss-rate estimate carried in reports.
LOSS_EWMA_WEIGHT = 0.3

#: Sender-side retransmission cache size, datagrams.
RETRANSMIT_CACHE = 800

#: Maximum missing sequences requested in one NAK.
MAX_NAK_BATCH = 60

#: A missing datagram is re-requested at most this many times.
MAX_NAKS_PER_SEQ = 4


@dataclass
class ReceiverReport:
    """Feedback the client returns to the server once per interval."""

    #: Smoothed loss-event fraction observed by the receiver
    #: (first-transmission holes; repairs do not hide congestion).
    loss_rate: float
    #: Packets received since the previous report.
    received: int
    #: Highest sequence number seen so far.
    highest_seq: int
    #: Receiver's estimate of the one-way delay trend (s); the server
    #: combines this with its own RTT estimate.
    mean_transit_s: float


@dataclass
class NakRequest:
    """Receiver-to-sender request to resend missing datagrams."""

    seqs: list[int] = field(default_factory=list)


@dataclass
class UdpStats:
    """Counters for the analysis layer."""

    datagrams_sent: int = 0
    datagrams_retransmitted: int = 0
    datagrams_delivered: int = 0
    duplicates_received: int = 0
    bytes_delivered: int = 0
    naks_sent: int = 0
    reports_sent: int = 0
    reports_received: int = 0
    holes_detected: int = 0
    holes_repaired: int = 0

    @property
    def loss_rate(self) -> float:
        """First-transmission loss fraction over the whole flow."""
        first_transmissions = self.datagrams_sent - self.datagrams_retransmitted
        if first_transmissions <= 0:
            return 0.0
        return min(1.0, self.holes_detected / first_transmissions)


class UdpFlow:
    """Server-to-client datagram flow with reports and NAK repair."""

    def __init__(self, loop: EventLoop, path: NetworkPath) -> None:
        self._loop = loop
        self._path = path
        self.flow_id = allocate_flow_id()
        self.stats = UdpStats()
        self._closed = False

        # Sender state.
        self._next_seq = 0
        # Insertion-ordered retransmission cache; eviction drops the
        # oldest sequence (a plain dict is FIFO-iterable and cheaper
        # than OrderedDict on the per-datagram path).
        self._cache: dict[int, tuple[Any, int, PacketKind]] = {}
        self.on_report: Callable[[ReceiverReport], None] | None = None
        #: Retransmission rate cap, bits/second (None = unlimited).
        #: The streaming session sets this from the served level so NAK
        #: storms cannot amplify congestion on overloaded paths.
        self.retransmit_rate_bps: float | None = None
        self._rt_tokens = 0.0
        self._rt_refilled_at = 0.0

        # Receiver state.
        self._seen: set[int] = set()
        self._missing: dict[int, int] = {}  # seq -> NAKs sent so far
        self._highest_seq = -1
        self._received_since_report = 0
        self._expected_since_report_base = 0
        self._holes_since_report = 0
        self._loss_estimate = 0.0
        self._transit_sum = 0.0
        self._transit_count = 0
        self.on_deliver: Callable[[Any, int], None] | None = None

        path.client_endpoint.register(self.flow_id, self._on_datagram)
        path.server_endpoint.register(self.flow_id, self._on_feedback_packet)
        self._report_event = loop.schedule(REPORT_INTERVAL_S, self._emit_report)

    # -- sender -----------------------------------------------------------

    def send(
        self, payload: Any, size: int, kind: PacketKind = PacketKind.DATA
    ) -> None:
        """Transmit one datagram immediately (no queueing, no pacing)."""
        if self._closed:
            raise ConnectionClosedError("send on closed UDP flow")
        if size > MSS_BYTES:
            raise TransportError(
                f"datagram of {size} bytes exceeds MSS {MSS_BYTES}"
            )
        if size <= 0:
            raise TransportError(f"datagram size must be positive, got {size}")
        seq = self._next_seq
        self._next_seq += 1
        cache = self._cache
        cache[seq] = (payload, size, kind)
        if len(cache) > RETRANSMIT_CACHE:
            del cache[next(iter(cache))]
        self._send_datagram(seq, payload, size, kind, retransmission=False)

    def _send_datagram(
        self,
        seq: int,
        payload: Any,
        size: int,
        kind: PacketKind,
        retransmission: bool,
    ) -> None:
        packet = Packet(
            kind=kind, size=size, flow_id=self.flow_id, seq=seq, payload=payload
        )
        self.stats.datagrams_sent += 1
        if retransmission:
            self.stats.datagrams_retransmitted += 1
        self._path.send_to_client(packet)

    def _retransmit_allowed(self, size: int) -> bool:
        """Token bucket gating retransmissions to the configured rate."""
        if self.retransmit_rate_bps is None:
            return True
        now = self._loop.now
        rate_bytes = self.retransmit_rate_bps / 8.0
        self._rt_tokens = min(
            rate_bytes,  # bucket depth: one second's allowance
            self._rt_tokens + (now - self._rt_refilled_at) * rate_bytes,
        )
        self._rt_refilled_at = now
        if self._rt_tokens >= size:
            self._rt_tokens -= size
            return True
        return False

    def close(self) -> None:
        """Stop the flow and the report schedule."""
        if self._closed:
            return
        self._closed = True
        self._report_event.cancel()
        self._path.client_endpoint.unregister(self.flow_id)
        self._path.server_endpoint.unregister(self.flow_id)

    @property
    def closed(self) -> bool:
        return self._closed

    def _on_feedback_packet(self, packet: Packet) -> None:
        if self._closed or packet.kind is not PacketKind.ACK:
            return
        if isinstance(packet.payload, NakRequest):
            for seq in packet.payload.seqs:
                cached = self._cache.get(seq)
                if cached is not None:
                    payload, size, kind = cached
                    if not self._retransmit_allowed(size):
                        break
                    self._send_datagram(seq, payload, size, kind, retransmission=True)
            return
        self.stats.reports_received += 1
        if self.on_report is not None:
            self.on_report(packet.payload)

    # -- receiver ---------------------------------------------------------

    def _on_datagram(self, packet: Packet) -> None:
        if self._closed:
            return
        stats = self.stats
        seq = packet.seq
        seen = self._seen
        if seq in seen:
            stats.duplicates_received += 1
            return
        seen.add(seq)
        if seq in self._missing:
            del self._missing[seq]
            stats.holes_repaired += 1
        highest = self._highest_seq
        if seq > highest + 1:
            # Gap: everything between went missing on first
            # transmission.  Ask for it and count it as loss.
            new_holes = [
                s for s in range(highest + 1, seq) if s not in seen
            ]
            for s in new_holes:
                self._missing[s] = 1
            self._holes_since_report += len(new_holes)
            stats.holes_detected += len(new_holes)
            if new_holes:
                self._send_nak(new_holes[:MAX_NAK_BATCH])
        if seq > highest:
            self._highest_seq = seq
        self._received_since_report += 1
        self._transit_sum += self._loop.now - packet.created_at
        self._transit_count += 1
        stats.datagrams_delivered += 1
        stats.bytes_delivered += packet.size
        if self.on_deliver is not None:
            self.on_deliver(packet.payload, packet.size)

    def _send_nak(self, seqs: list[int]) -> None:
        self.stats.naks_sent += 1
        packet = Packet(
            kind=PacketKind.ACK,
            size=24,
            flow_id=self.flow_id,
            payload=NakRequest(seqs=list(seqs)),
        )
        self._path.send_to_server(packet)

    def _renak_stale(self) -> None:
        """Re-request holes whose earlier NAK apparently failed."""
        stale = [
            seq
            for seq, tries in self._missing.items()
            if tries < MAX_NAKS_PER_SEQ
        ]
        if not stale:
            return
        stale = sorted(stale)[:MAX_NAK_BATCH]
        for seq in stale:
            self._missing[seq] += 1
        self._send_nak(stale)

    def _emit_report(self) -> None:
        if self._closed:
            return
        expected = (self._highest_seq + 1) - self._expected_since_report_base
        if expected > 0:
            interval_loss = min(1.0, self._holes_since_report / expected)
            self._loss_estimate = (
                (1 - LOSS_EWMA_WEIGHT) * self._loss_estimate
                + LOSS_EWMA_WEIGHT * interval_loss
            )
        mean_transit = (
            self._transit_sum / self._transit_count if self._transit_count else 0.0
        )
        report = ReceiverReport(
            loss_rate=self._loss_estimate,
            received=self._received_since_report,
            highest_seq=self._highest_seq,
            mean_transit_s=mean_transit,
        )
        self._expected_since_report_base = self._highest_seq + 1
        self._received_since_report = 0
        self._holes_since_report = 0
        self._transit_sum = 0.0
        self._transit_count = 0
        packet = Packet(
            kind=PacketKind.ACK,
            size=16,
            flow_id=self.flow_id,
            payload=report,
        )
        self.stats.reports_sent += 1
        self._path.send_to_server(packet)
        self._renak_stale()
        self._report_event = self._loop.schedule(
            REPORT_INTERVAL_S, self._emit_report
        )
