"""End-to-end paths between a RealPlayer client and a RealServer.

A :class:`NetworkPath` composes, in the server-to-client direction:

    server uplink  ->  internet cloud (bottleneck + cross traffic)  ->
    client access downlink

Cross traffic shares only the hop it loads and exits toward other
destinations one hop later: it is a background timeline on that link
(:mod:`repro.net.crosstraffic`), never a packet the path routes.

and in the client-to-server direction a single access-uplink link plus
the wide-area propagation delay (control messages and ACKs are small;
they contend for the narrow modem upstream but rarely for the core).

Endpoints demultiplex arriving packets to transports by flow id.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.net.crosstraffic import CrossTrafficConfig, CrossTrafficSource
from repro.net.link import Link, LinkConfig
from repro.net.packet import HEADER_BYTES, Packet, PacketKind
from repro.net.queues import REDQueue
from repro.sim.engine import EventLoop
from repro.transport.base import MSS_BYTES
from repro.units import transmission_time


@dataclass
class PathProfile:
    """Everything needed to instantiate a concrete path."""

    #: Client access link, downstream/upstream, bits per second.
    access_down_bps: float
    access_up_bps: float
    #: Access-link one-way propagation (modem latency is dominated by
    #: this; broadband access adds ~5-15 ms).
    access_prop_s: float
    #: Wide-area bottleneck capacity, bits per second.
    bottleneck_bps: float
    #: Wide-area one-way propagation delay, seconds.
    wan_prop_s: float
    #: Server uplink capacity, bits per second.
    server_up_bps: float
    #: Long-run cross-traffic load at the bottleneck (fraction of it).
    cross_load: float = 0.0
    #: Competing load on the downstream access link itself (corporate
    #: T1/LAN users share the pipe with coworkers; modems and DSL are
    #: dedicated).  Fraction of the access rate.
    access_cross_load: float = 0.0
    #: Random loss probability applied at the wide-area hop, each way.
    random_loss: float = 0.0
    #: Random loss on the downstream access link (noisy phone lines).
    access_random_loss: float = 0.0
    #: Bottleneck queue size, packets.
    bottleneck_queue: int = 50
    #: Access-link queue size, packets (modems had deep buffers).
    access_queue: int = 30
    #: Mean cross-traffic burst length, seconds.
    cross_burst_s: float = 0.5
    #: Use RED instead of drop-tail at the bottleneck (ablation).
    red_bottleneck: bool = False

    def __post_init__(self) -> None:
        for name in ("access_down_bps", "access_up_bps", "bottleneck_bps",
                     "server_up_bps"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.wan_prop_s < 0 or self.access_prop_s < 0:
            raise ValueError("propagation delays must be non-negative")

    @property
    def base_rtt_s(self) -> float:
        """Unloaded round-trip time (no queueing, no serialization)."""
        return 2.0 * (self.access_prop_s + self.wan_prop_s)

    @property
    def end_to_end_capacity_bps(self) -> float:
        """Narrowest hop in the server-to-client direction."""
        return min(self.access_down_bps, self.bottleneck_bps, self.server_up_bps)


@dataclass
class PathStats:
    """Counters the path keeps for the analysis layer."""

    to_client_packets: int = 0
    to_client_bytes: int = 0
    to_server_packets: int = 0
    #: Background packets that crossed their hop and left the path.
    dropped_cross_packets: int = 0


class PathEndpoint:
    """Demultiplexes delivered packets to per-flow receive callbacks."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._handlers: dict[int, Callable[[Packet], None]] = {}
        self.unclaimed = 0

    def register(self, flow_id: int, handler: Callable[[Packet], None]) -> None:
        """Route packets with ``flow_id`` to ``handler``."""
        self._handlers[flow_id] = handler

    def unregister(self, flow_id: int) -> None:
        """Stop routing ``flow_id`` (late packets are counted, dropped)."""
        self._handlers.pop(flow_id, None)

    def deliver(self, packet: Packet) -> None:
        """Called by the last link in the direction."""
        handler = self._handlers.get(packet.flow_id)
        if handler is None:
            self.unclaimed += 1
            return
        handler(packet)


class NetworkPath:
    """A concrete, running path between one client and one server."""

    def __init__(
        self,
        loop: EventLoop,
        profile: PathProfile,
        rng: np.random.Generator,
    ) -> None:
        self._loop = loop
        self.profile = profile
        self._stats = PathStats()
        self.client_endpoint = PathEndpoint("client")
        self.server_endpoint = PathEndpoint("server")

        # --- server -> client direction -------------------------------
        self._server_uplink = Link(
            loop,
            LinkConfig(
                rate_bps=profile.server_up_bps,
                propagation_s=0.001,
                queue_packets=100,
                name="server-uplink",
            ),
            rng,
        )
        bottleneck_queue = None
        if profile.red_bottleneck:
            bottleneck_queue = REDQueue(
                profile.bottleneck_queue,
                rng=rng,
                # Give RED the simulated clock so its EWMA ages across
                # idle periods (Floyd & Jacobson idle decay), scaled by
                # the time a full-size packet takes at this bottleneck.
                clock=lambda: loop.now,
                mean_tx_time_s=transmission_time(
                    MSS_BYTES + HEADER_BYTES, profile.bottleneck_bps
                ),
            )
        self._bottleneck = Link(
            loop,
            LinkConfig(
                rate_bps=profile.bottleneck_bps,
                propagation_s=profile.wan_prop_s,
                queue_packets=profile.bottleneck_queue,
                random_loss=profile.random_loss,
                name="wan-bottleneck",
            ),
            rng,
            queue=bottleneck_queue,
        )
        self._access_down = Link(
            loop,
            LinkConfig(
                rate_bps=profile.access_down_bps,
                propagation_s=profile.access_prop_s,
                queue_packets=profile.access_queue,
                random_loss=profile.access_random_loss,
                name="access-down",
            ),
            rng,
        )
        self._server_uplink.connect(self._bottleneck.send)
        self._bottleneck.connect(self._access_down.send)
        self._access_down.connect(self._arrive_at_client)

        # --- client -> server direction -------------------------------
        self._access_up = Link(
            loop,
            LinkConfig(
                rate_bps=profile.access_up_bps,
                propagation_s=profile.access_prop_s,
                queue_packets=profile.access_queue,
                name="access-up",
            ),
            rng,
        )
        self._wan_up = Link(
            loop,
            LinkConfig(
                # The reverse wide-area direction is rarely the
                # constraint for small control/ACK packets; model it at
                # the bottleneck rate with the same loss.
                rate_bps=profile.bottleneck_bps,
                propagation_s=profile.wan_prop_s,
                queue_packets=profile.bottleneck_queue,
                random_loss=profile.random_loss,
                name="wan-up",
            ),
            rng,
        )
        self._access_up.connect(self._wan_up.send)
        # Dispatch dynamically (not a bound-method snapshot) so trace
        # taps that wrap endpoint.deliver see reverse traffic too.
        self._wan_up.connect(lambda packet: self.server_endpoint.deliver(packet))

        # --- competing traffic ------------------------------------------
        self._background: list[CrossTrafficSource] = []
        if profile.cross_load > 0:
            # At the bottleneck.
            mean_rate = profile.cross_load * profile.bottleneck_bps
            self._background.append(CrossTrafficSource(
                loop,
                self._bottleneck,
                CrossTrafficConfig(
                    mean_rate_bps=mean_rate,
                    # Bursts peak above the mean so queues build, but
                    # real cross traffic (mostly TCP) backs off under
                    # loss — cap the open-loop burst below capacity so
                    # congestion usually needs the media flow's
                    # contribution.  Heavily loaded paths (mean near
                    # capacity) keep a 25% burst-over-mean ratio.
                    burst_rate_bps=max(
                        min(2.2 * mean_rate, 0.72 * profile.bottleneck_bps),
                        1.25 * mean_rate,
                    ),
                    mean_burst_s=profile.cross_burst_s,
                ),
                rng,
            ))
        if profile.access_cross_load > 0:
            # On a shared access link (T1/LAN).
            mean_rate = profile.access_cross_load * profile.access_down_bps
            self._background.append(CrossTrafficSource(
                loop,
                self._access_down,
                CrossTrafficConfig(
                    mean_rate_bps=mean_rate,
                    burst_rate_bps=min(
                        3.0 * mean_rate, 0.80 * profile.access_down_bps
                    ),
                    mean_burst_s=profile.cross_burst_s,
                ),
                rng,
            ))

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        """Start background processes (cross traffic)."""
        for source in self._background:
            source.start()

    def stop(self) -> None:
        """Stop background processes."""
        for source in self._background:
            source.stop()

    @property
    def stats(self) -> PathStats:
        """The path's counters, settled to ``loop.now``."""
        self._stats.dropped_cross_packets = sum(
            link.stats.delivered_by_kind.get(PacketKind.CROSS, 0)
            for link in (self._bottleneck, self._access_down)
        )
        return self._stats

    # -- data plane -----------------------------------------------------

    def send_to_client(self, packet: Packet) -> None:
        """Inject a packet at the server, destined for the client."""
        packet.created_at = self._loop.now
        self._server_uplink.send(packet)

    def send_to_server(self, packet: Packet) -> None:
        """Inject a packet at the client, destined for the server."""
        packet.created_at = self._loop.now
        self._stats.to_server_packets += 1
        self._access_up.send(packet)

    def _arrive_at_client(self, packet: Packet) -> None:
        self._stats.to_client_packets += 1
        self._stats.to_client_bytes += packet.wire_size
        self.client_endpoint.deliver(packet)

    # -- introspection ----------------------------------------------------

    @property
    def links(self) -> tuple[Link, ...]:
        """Every hop of the path, both directions (for auditing)."""
        return (
            self._server_uplink,
            self._bottleneck,
            self._access_down,
            self._access_up,
            self._wan_up,
        )

    @property
    def bottleneck_link(self) -> Link:
        """The shared wide-area bottleneck (for tests and ablations)."""
        return self._bottleneck

    @property
    def access_down_link(self) -> Link:
        """The client's downstream access link."""
        return self._access_down

    @property
    def base_rtt_s(self) -> float:
        """Unloaded round-trip time of this path."""
        return self.profile.base_rtt_s
