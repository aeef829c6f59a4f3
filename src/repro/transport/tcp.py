"""A Reno-style TCP model.

:class:`TcpConnection` is the :class:`~repro.transport.stream.ReliableStream`
(segments, RTO with Karn's algorithm and exponential backoff,
cumulative ACKs, in-order receiver) under Reno congestion control — the
behavior that matters for the paper's analysis:

* slow start and congestion avoidance (AIMD),
* fast retransmit on three duplicate ACKs, with fast recovery and
  NewReno partial-ACK repair,
* window collapse to one segment on a retransmission timeout.

The server's streaming session watches
:attr:`TcpConnection.backlog_bytes` to detect when TCP cannot keep up
with the encoded rate (the signal RealServer uses to switch SureStream
levels when streaming over TCP).
"""

from __future__ import annotations

from repro.net.path import NetworkPath
from repro.sim.engine import EventLoop
from repro.transport.stream import DUPACK_THRESHOLD, ReliableStream, _Segment

#: Initial congestion window, segments (RFC 2581 era).
INITIAL_CWND = 2.0

#: Initial slow-start threshold, segments ("infinite" start).
INITIAL_SSTHRESH = 64.0


class TcpConnection(ReliableStream):
    """Reliable, Reno congestion-controlled server-to-client stream."""

    def __init__(self, loop: EventLoop, path: NetworkPath) -> None:
        super().__init__(loop, path, INITIAL_CWND)
        self._ssthresh = INITIAL_SSTHRESH
        self._in_recovery = False
        self._recovery_point = -1

    def _on_new_ack(self, acked: list[_Segment], now: float) -> None:
        if self._in_recovery:
            if self._highest_acked >= self._recovery_point:
                # Full ACK: leave recovery, deflate the window.
                self._in_recovery = False
                self._cwnd = self._ssthresh
            else:
                # Partial ACK (NewReno): retransmit the next hole.
                self._retransmit(self._highest_acked + 1)
        else:
            for _ in acked:
                if self._cwnd < self._ssthresh:
                    self._cwnd += 1.0  # slow start
                else:
                    self._cwnd += 1.0 / self._cwnd  # congestion avoidance

    def _on_dupack(self) -> bool:
        if self._in_recovery:
            # Window inflation keeps data flowing during recovery.
            self._cwnd += 1.0
            return False
        if self._dupacks != DUPACK_THRESHOLD:
            return False
        self._ssthresh = max(len(self._in_flight) / 2.0, 2.0)
        self._cwnd = self._ssthresh + DUPACK_THRESHOLD
        self._in_recovery = True
        self._recovery_point = self._next_seq - 1
        return True

    def _on_rto(self) -> None:
        self._ssthresh = max(len(self._in_flight) / 2.0, 2.0)
        self._cwnd = 1.0
        self._in_recovery = False
