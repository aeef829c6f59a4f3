"""Differential oracle: background traffic as a timeline vs. as events.

``tests/reference_crosstraffic.py`` keeps the event-per-packet source
(real CROSS packets through ``Link.send``).  Both it and the timeline
source are driven over the same links, the same foreground and the same
generator; everything observable must agree exactly — foreground
delivery instants and order, every settled counter at every sampled
instant, ``packets_sent``, and the generator's final state (any draw
made at a different point of the stream would move it).
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np
import pytest

from repro.net.crosstraffic import CrossTrafficConfig, CrossTrafficSource
from repro.net.link import Link, LinkConfig
from repro.net.packet import Packet, PacketKind
from repro.net.queues import REDQueue
from repro.sim.engine import PRIORITY_LOW, EventLoop
from repro.units import kbps
from tests.reference_crosstraffic import EventPerPacketSource

HORIZON_S = 12.0
RATE_BPS = kbps(1000)


def _queue_view(link: Link) -> dict:
    queue = link.queue
    view = {
        name: getattr(queue, name)
        for name in ("offers", "enqueued", "drops", "popped", "queued_bytes")
    }
    view["len"] = len(queue)
    if isinstance(queue, REDQueue):
        view["early_drops"] = queue.early_drops
        view["average_depth"] = queue.average_depth
    return view


def _observe(
    source_cls,
    *,
    loss: float,
    red: bool,
    cross_load: float,
    foreground: str,
    second_hop: bool,
    stop_at: float | None = None,
    seed: int = 11,
) -> dict:
    """One run; returns everything a caller could see."""
    loop = EventLoop(strict=True)
    rng = np.random.default_rng(seed)
    first = Link(
        loop,
        LinkConfig(rate_bps=RATE_BPS, propagation_s=0.01, queue_packets=20,
                   random_loss=loss, name="first"),
        rng,
        queue=REDQueue(20, rng=rng, clock=lambda: loop.now,
                       mean_tx_time_s=0.008) if red else None,
    )
    links = [first]
    deliveries: list[tuple[float, int]] = []

    def arrive(packet: Packet) -> None:
        if packet.kind is not PacketKind.CROSS:
            deliveries.append((loop.now, packet.seq))

    sources = [
        source_cls(
            loop, first,
            CrossTrafficConfig(
                mean_rate_bps=cross_load * RATE_BPS,
                burst_rate_bps=min(2.2, 1.25 / cross_load) * cross_load
                * RATE_BPS,
                mean_burst_s=0.4,
            ),
            rng,
        )
    ]
    if second_hop:
        second = Link(
            loop,
            LinkConfig(rate_bps=kbps(1500), propagation_s=0.003,
                       queue_packets=30, random_loss=loss / 2,
                       name="second"),
            rng,
        )
        links.append(second)
        sources.append(
            source_cls(
                loop, second,
                CrossTrafficConfig(mean_rate_bps=kbps(600),
                                   burst_rate_bps=kbps(1200),
                                   mean_burst_s=0.3),
                rng,
            )
        )

        def route(packet: Packet) -> None:
            if packet.kind is not PacketKind.CROSS:
                second.send(packet)

        first.connect(route)
        second.connect(arrive)
    else:
        first.connect(arrive)

    sent = [0]

    def burst() -> None:
        # Sizes come off the shared generator at the burst's instant,
        # so a background draw on the wrong side of this event shows.
        count = {"bursts": 6, "saturating": 14}[foreground]
        for _ in range(count):
            size = int(rng.integers(200, 1200))
            first.send(Packet(PacketKind.DATA, size, flow_id=1, seq=sent[0]))
            sent[0] += 1
        loop.call_later(0.125, burst)

    samples: list[tuple] = []

    def sample() -> None:
        samples.append(
            tuple(
                (link.queue_depth, link.stats.in_transit,
                 link.stats.delivered, link.stats.busy_time)
                for link in links
            )
        )
        loop.schedule(0.05, sample, PRIORITY_LOW)

    for source in sources:
        source.start()
    if foreground != "none":
        loop.call_later(0.0301, burst)
    loop.schedule(0.0137, sample, PRIORITY_LOW)
    if stop_at is not None:
        loop.schedule_at(stop_at, sources[0].stop)
    loop.run(until=HORIZON_S)
    for source in sources:
        source.stop()
    return {
        "deliveries": deliveries,
        "samples": samples,
        "stats": [asdict(link.stats) for link in links],
        "queues": [_queue_view(link) for link in links],
        "packets_sent": [source.packets_sent for source in sources],
        "rng": rng.bit_generator.state,
        "scheduled": loop.scheduled,
    }


HOPS = {
    "loss-free": dict(loss=0.0, red=False),
    "lossy": dict(loss=0.05, red=False),
    "red": dict(loss=0.0, red=True),
    "red-lossy": dict(loss=0.02, red=True),
}
LOADS = {
    "idle-link": dict(cross_load=0.4, foreground="none", second_hop=False),
    "saturated-link": dict(cross_load=0.9, foreground="saturating",
                           second_hop=False),
    "mid-burst-foreground": dict(cross_load=0.5, foreground="bursts",
                                 second_hop=False),
    "two-sources-one-rng": dict(cross_load=0.5, foreground="bursts",
                                second_hop=True),
    "stopped-mid-run": dict(cross_load=0.6, foreground="bursts",
                            second_hop=True, stop_at=5.0),
}


@pytest.mark.parametrize("load", LOADS)
@pytest.mark.parametrize("hop", HOPS)
def test_timeline_matches_event_per_packet_reference(hop, load):
    kwargs = {**HOPS[hop], **LOADS[load]}
    reference = _observe(EventPerPacketSource, **kwargs)
    timeline = _observe(CrossTrafficSource, **kwargs)
    # The scenario must actually exercise what it is named for.
    assert sum(reference["packets_sent"]) > 500
    cross = reference["stats"][0]["delivered_by_kind"][PacketKind.CROSS]
    assert cross > 100
    if kwargs["foreground"] != "none":
        assert len(reference["deliveries"]) > 200
    if load == "saturated-link":
        assert reference["stats"][0]["queue_drops"] > 100
        if kwargs["red"]:
            assert reference["queues"][0]["early_drops"] > 100
    if kwargs["loss"]:
        assert reference["stats"][0]["random_drops"] > 5

    assert timeline["deliveries"] == reference["deliveries"]
    assert timeline["samples"] == reference["samples"]
    assert timeline["stats"] == reference["stats"]
    assert timeline["queues"] == reference["queues"]
    assert timeline["packets_sent"] == reference["packets_sent"]
    assert timeline["rng"] == reference["rng"]
    # ... and it got there without an event per background packet.
    assert timeline["scheduled"] < reference["scheduled"] - cross


def test_reference_delivers_real_cross_packets():
    """The oracle is the old behaviour: CROSS ``Packet``s at a receiver."""
    loop = EventLoop()
    rng = np.random.default_rng(2)
    link = Link(loop, LinkConfig(rate_bps=kbps(1000), propagation_s=0.0), rng)
    kinds = []
    link.connect(lambda packet: kinds.append(packet.kind))
    source = EventPerPacketSource(
        loop, link,
        CrossTrafficConfig(mean_rate_bps=kbps(300), burst_rate_bps=kbps(600)),
        rng,
    )
    source.start()
    loop.run(until=5.0)
    assert kinds and set(kinds) == {PacketKind.CROSS}
    assert len(kinds) == link.stats.delivered_by_kind[PacketKind.CROSS]
