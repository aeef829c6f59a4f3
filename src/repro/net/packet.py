"""Packets: the unit the network substrate moves around."""

from __future__ import annotations

import enum
import itertools
from typing import Any


class PacketKind(enum.Enum):
    """What a packet carries; used by transports and statistics."""

    DATA = "data"  # media payload (TCP segment or UDP datagram)
    ACK = "ack"  # TCP acknowledgement / receiver feedback
    CONTROL = "control"  # RTSP control exchange
    FEC = "fec"  # RealVideo error-correction packet
    CROSS = "cross"  # competing background traffic

    # Members are singletons, so identity hashing is correct — and it
    # replaces enum's Python-level ``__hash__`` with the C slot on the
    # per-delivery counter dictionaries.  Dicts keyed by kind stay
    # insertion-ordered, so nothing downstream observes the hash.
    __hash__ = object.__hash__


_packet_ids = itertools.count()

#: Size of packet headers in bytes (IP + transport), charged on the wire
#: on top of the payload.  40 bytes matches IPv4 + TCP without options.
HEADER_BYTES = 40


class Packet:
    """A simulated packet.

    ``size`` is the payload size in bytes; :attr:`wire_size` adds
    headers and is what links charge for serialization.  ``wire_size``
    is precomputed at construction: links read it several times per hop
    and packets never change size once built.

    A hand-written ``__slots__`` class rather than a dataclass: packets
    are the simulation's hottest allocation (tens of thousands per
    playback) and the dataclass ``__init__``/``__post_init__``/
    ``default_factory`` machinery was measurable.
    """

    __slots__ = (
        "kind",
        "size",
        "flow_id",
        "seq",
        "payload",
        "created_at",
        "uid",
        "accumulated_delay",
        "hops",
        "wire_size",
    )

    def __init__(
        self,
        kind: PacketKind,
        size: int,
        flow_id: int,
        seq: int = 0,
        payload: Any = None,
        created_at: float = 0.0,
    ) -> None:
        if size < 0:
            raise ValueError(f"packet size must be non-negative, got {size}")
        self.kind = kind
        self.size = size
        self.flow_id = flow_id
        self.seq = seq
        self.payload = payload
        self.created_at = created_at
        self.uid = next(_packet_ids)
        #: Set by links: cumulative one-way delay experienced so far.
        self.accumulated_delay = 0.0
        #: Number of link hops traversed, for diagnostics.
        self.hops = 0
        #: Bytes on the wire: payload plus protocol headers.
        self.wire_size = size + HEADER_BYTES

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Packet):
            return NotImplemented
        return (
            self.kind is other.kind
            and self.size == other.size
            and self.flow_id == other.flow_id
            and self.seq == other.seq
            and self.payload == other.payload
            and self.created_at == other.created_at
            and self.uid == other.uid
            and self.accumulated_delay == other.accumulated_delay
            and self.hops == other.hops
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet({self.kind.value}, flow={self.flow_id}, seq={self.seq}, "
            f"size={self.size})"
        )
