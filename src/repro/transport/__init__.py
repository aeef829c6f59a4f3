"""Transport protocols (S3-S5).

* :class:`ReliableStream` -- the reliable in-order stream core
  (segments, RTO, cumulative ACKs, receiver) that congestion
  controllers subclass.
* :class:`TcpConnection` -- the stream under Reno: slow start,
  congestion avoidance, fast retransmit/recovery and window collapse
  on timeout.
* :class:`BbrConnection` -- the same stream under a BBR-style model:
  paced at the estimated bottleneck rate, no rate collapse on loss.
* :class:`UdpFlow` -- best-effort datagrams plus a receiver-report
  feedback channel the application layer uses for congestion control.
* :func:`tfrc_rate` -- the TCP-friendly equation of [FHPW00], used by
  the RealServer's UDP adaptation and by the TCP-friendliness analysis.
"""

from repro.transport.base import MSS_BYTES, Protocol, allocate_flow_id
from repro.transport.stream import ReliableStream, TcpStats
from repro.transport.tcp import TcpConnection
from repro.transport.bbr import BbrConnection
from repro.transport.udp import ReceiverReport, UdpFlow
from repro.transport.tfrc import tfrc_rate

__all__ = [
    "MSS_BYTES",
    "Protocol",
    "allocate_flow_id",
    "ReliableStream",
    "TcpStats",
    "TcpConnection",
    "BbrConnection",
    "UdpFlow",
    "ReceiverReport",
    "tfrc_rate",
]
