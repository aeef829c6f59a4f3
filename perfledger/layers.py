"""Isolated layer drivers (the ``D`` rows of the ledger).

Each driver times one layer's public API on a small fixed job, away
from the rest of the stack, so a change to that layer has a row that
moves even when the end-to-end share is small.  They run in the traced
run only; ``size`` scales the job (``--quick`` shrinks it).
"""

from __future__ import annotations

import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.analysis.cdf import Cdf
from repro.analysis.sketch import DEFAULT_EXACT_LIMIT, QuantileSketch
from repro.core.realtracer import TracerConfig
from repro.core.records import StudyDataset
from repro.core.study import Study, StudyConfig
from repro.media.clip import ContentKind, make_clip
from repro.media.frame_source import FrameSource
from repro.media.frames import Frame, FrameKind
from repro.media.packetizer import Packetizer
from repro.net.crosstraffic import CrossTrafficConfig, CrossTrafficSource
from repro.net.link import Link, LinkConfig
from repro.net.packet import Packet, PacketKind
from repro.net.path import NetworkPath, PathProfile
from repro.net.queues import REDQueue
from repro.player.buffer import Reassembler
from repro.player.decoder import UNCONSTRAINED_PROFILE, Decoder
from repro.player.playout import PlayoutConfig, PlayoutEngine
from repro.player.stats import ClipStats
from repro.rng import RngFactory
from repro.sim.engine import EventLoop, Timer
from repro.sweep import StudyCache, SweepCell, run_cell
from repro.transport.bbr import BbrConnection
from repro.transport.tcp import TcpConnection
from repro.transport.udp import UdpFlow
from repro.units import kbps
from repro.validate import COUNTING
from repro.world.population import build_population

from harness import derive
from synth import synthetic_population, synthetic_records

#: Bulk transfer for the transport drivers, bytes.
BULK_BYTES = 2_000_000
#: Simulated seconds a bulk transfer may take.  The slowest of 120 seeds
#: needed 2,200 (see BULK_PROFILE); idle simulated time costs nothing.
BULK_LIMIT_S = 1_000_000.0
MESSAGE_BYTES = 1000


def _timed(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


# -- sim -------------------------------------------------------------------


def sim_events(events: int) -> dict:
    """``call_later``/``call_at``/``Timer`` events, one in ten cancelled."""
    loop = EventLoop()
    fired = [0]

    def tick() -> None:
        fired[0] += 1

    def schedule() -> None:
        third = events // 3
        for i in range(third):
            loop.call_later(0.001 * (i % 997), tick)
        for i in range(third):
            loop.call_at(1.0 + 0.001 * (i % 991), tick)
        for i in range(third):
            timer = Timer(loop, tick)
            timer.start(2.0 + 0.001 * (i % 983))
            if i % 10 < 3:  # 3 in 10 timers = 1 in 10 events
                timer.cancel()
        loop.run()

    elapsed = _timed(schedule)
    return {"sim.events_per_s": 3 * (events // 3) / elapsed}


# -- net -------------------------------------------------------------------


def _link_ns_per_packet(
    packets: int, random_loss: float, red: bool, seed: int
) -> float:
    loop = EventLoop()
    rng = np.random.default_rng(seed)
    config = LinkConfig(
        rate_bps=kbps(2000), propagation_s=0.01, queue_packets=50,
        random_loss=random_loss,
    )
    queue = (
        REDQueue(50, rng=np.random.default_rng(seed + 1), clock=lambda: loop.now)
        if red else None
    )
    link = Link(loop, config, rng, queue=queue)
    link.connect(lambda _packet: None)
    # Offered at ~90 % of the link rate in bursts of four, so the queue
    # is exercised without overflowing.
    wire_s = (MESSAGE_BYTES + 40) * 8 / config.rate_bps
    sent = [0]

    def burst() -> None:
        for _ in range(4):
            link.send(Packet(PacketKind.DATA, MESSAGE_BYTES, flow_id=1))
        sent[0] += 4
        if sent[0] < packets:
            loop.call_later(4 * wire_s / 0.9, burst)

    def run() -> None:
        burst()
        loop.run()

    return 1e9 * _timed(run) / packets


def _crosstraffic_ns_per_packet(packets: int, seed: int) -> float:
    loop = EventLoop()
    rng = np.random.default_rng(seed)
    link = Link(
        loop, LinkConfig(rate_bps=kbps(2000), propagation_s=0.01), rng
    )
    link.connect(lambda _packet: None)
    source = CrossTrafficSource(
        loop, link,
        CrossTrafficConfig(mean_rate_bps=kbps(600), burst_rate_bps=kbps(1500)),
        rng,
    )
    # ~75 packets of 1000 B per simulated second at the mean rate.
    horizon = packets / 75.0

    def run() -> None:
        source.start()
        loop.run(until=horizon)
        source.stop()

    elapsed = _timed(run)
    return 1e9 * elapsed / max(1, source.packets_sent)


def net_drivers(packets: int, seed: int) -> dict:
    return {
        "net.link_ns_per_packet": _link_ns_per_packet(
            packets, 0.0, False, seed
        ),
        "net.link_lossy_ns_per_packet": _link_ns_per_packet(
            packets, 0.01, False, seed
        ),
        "net.red_ns_per_packet": _link_ns_per_packet(
            packets, 0.0, True, seed
        ),
        "net.crosstraffic_ns_per_packet": _crosstraffic_ns_per_packet(
            packets, seed
        ),
    }


# -- transport -------------------------------------------------------------

#: A fixed three-hop path (server uplink, wide-area bottleneck, access
#: link) with 1 % random loss.  No cross traffic: after a burst of drops
#: the Reno model recovers one hole per RTO, which on some seeds idles
#: the flow for hundreds of simulated seconds, and cross traffic would
#: charge those seconds' events to the segment cost.
BULK_PROFILE = PathProfile(
    access_down_bps=kbps(1500),
    access_up_bps=kbps(256),
    access_prop_s=0.010,
    bottleneck_bps=kbps(1000),
    wan_prop_s=0.040,
    server_up_bps=kbps(10_000),
    random_loss=0.01,
)


def _bulk(connection_class, nbytes: int, seed: int) -> tuple[float, object]:
    loop = EventLoop()
    path = NetworkPath(loop, BULK_PROFILE, np.random.default_rng(seed))
    path.start()
    connection = connection_class(loop, path)
    messages = nbytes // MESSAGE_BYTES
    delivered = [0]

    def on_deliver(_payload, _size) -> None:
        delivered[0] += 1
        if delivered[0] == messages:
            loop.stop()

    connection.on_deliver = on_deliver

    def run() -> None:
        for i in range(messages):
            connection.send(i, MESSAGE_BYTES)
        loop.run(until=BULK_LIMIT_S)

    elapsed = _timed(run)
    path.stop()
    if delivered[0] != messages:
        raise RuntimeError(
            f"{connection_class.__name__} delivered {delivered[0]} "
            f"of {messages} messages"
        )
    return elapsed, connection.stats


def _udp(nbytes: int, seed: int) -> float:
    loop = EventLoop()
    path = NetworkPath(loop, BULK_PROFILE, np.random.default_rng(seed))
    path.start()
    flow = UdpFlow(loop, path)
    flow.on_deliver = lambda _payload, _size: None
    datagrams = nbytes // MESSAGE_BYTES
    # Paced at 800 kb/s: under the bottleneck, so loss is the path's.
    gap_s = MESSAGE_BYTES * 8 / kbps(800)
    sent = [0]

    def send() -> None:
        flow.send(sent[0], MESSAGE_BYTES)
        sent[0] += 1
        if sent[0] < datagrams:
            loop.call_later(gap_s, send)

    def run() -> None:
        send()
        loop.run(until=datagrams * gap_s + 5.0)

    elapsed = _timed(run)
    path.stop()
    return 1e6 * elapsed / datagrams


def transport_drivers(nbytes: int, seed: int) -> dict:
    tcp_s, tcp = _bulk(TcpConnection, nbytes, seed)
    bbr_s, bbr = _bulk(BbrConnection, nbytes, seed)
    return {
        "transport.tcp_us_per_segment": 1e6 * tcp_s / tcp.segments_sent,
        "transport.bbr_us_per_segment": 1e6 * bbr_s / bbr.segments_sent,
        "transport.udp_us_per_datagram": _udp(nbytes, seed),
        "transport.tcp_retransmits": tcp.segments_retransmitted,
        "transport.bbr_retransmits": bbr.segments_retransmitted,
    }


# -- media / player / world ------------------------------------------------


def media_packetize(frames: int) -> dict:
    """Frame source -> packetizer -> reassembler, no network between."""
    clip = make_clip(
        "rtsp://bench/clip.rm", ContentKind.SPORTS, max_kbps=450,
        duration_s=3600.0,
    )
    source = FrameSource(clip)
    packetizer = Packetizer()
    completed = [0]

    def on_frame(_frame) -> None:
        completed[0] += 1

    reassembler = Reassembler(on_frame)
    level = clip.ladder.highest

    def run() -> None:
        for _ in range(frames):
            for packet in packetizer.packetize(source.next_frame(level)):
                reassembler.on_payload(packet, packet.size)

    elapsed = _timed(run)
    if completed[0] != frames:
        raise RuntimeError(
            f"reassembled {completed[0]} of {frames} frames"
        )
    return {"media.packetize_us_per_frame": 1e6 * elapsed / frames}


def player_playout(frames: int) -> dict:
    """Complete frames through the playout engine at 15 fps."""
    loop = EventLoop()
    stats = ClipStats()
    engine = PlayoutEngine(
        loop, Decoder(UNCONSTRAINED_PROFILE), stats,
        config=PlayoutConfig(prebuffer_media_s=2.0, rebuffer_media_s=2.0),
    )

    def feed(start: int) -> None:
        # One second of media per simulated second, a second ahead.
        for i in range(start, min(frames, start + 15)):
            engine.on_frame_complete(Frame(
                index=i, kind=FrameKind.DELTA, media_time=i / 15.0,
                size=1500, level=0,
            ))
        if start + 15 < frames:
            loop.call_later(1.0, lambda: feed(start + 15))

    def run() -> None:
        engine.begin_buffering()
        feed(0)
        loop.run(until=frames / 15.0 + 30.0)

    elapsed = _timed(run)
    if stats.frames_displayed < 0.9 * frames:
        raise RuntimeError(
            f"playout displayed {stats.frames_displayed} of {frames} frames"
        )
    return {"player.playout_us_per_frame": 1e6 * elapsed / frames}


def world_population(users: int, seed: int) -> dict:
    elapsed = _timed(
        lambda: build_population(RngFactory(seed), max_users=users)
    )
    return {"world.population_build_ms": 1000.0 * elapsed}


# -- analysis --------------------------------------------------------------


def analysis_drivers(values: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    sample = rng.lognormal(3.0, 1.0, DEFAULT_EXACT_LIMIT + values).tolist()
    sketch = QuantileSketch()
    for value in sample[:DEFAULT_EXACT_LIMIT + 1]:
        sketch.add(value)  # past the exact limit: the log-bin regime
    tail = sample[DEFAULT_EXACT_LIMIT + 1:]

    def add() -> None:
        for value in tail:
            sketch.add(value)

    add_s = _timed(add)
    grid = [float(x) for x in range(0, 200, 5)]
    cdf_s = _timed(lambda: Cdf(sample).series(grid))
    return {
        "analysis.sketch_add_ns": 1e9 * add_s / len(tail),
        "analysis.cdf_ms": 1000.0 * cdf_s,
    }


# -- sweep -----------------------------------------------------------------


def sweep_drivers(work: Path, seed: int) -> dict:
    """`StudyCache` store/load/probe and a `run_cell` hit over a
    160-record dataset (sha-verified on every read)."""
    dataset = StudyDataset(
        synthetic_records(synthetic_population(seed, 32), seed, 5)
    )
    cache = StudyCache(work / "sweep-cache")
    cell = SweepCell(seed=seed, scale=0.01)
    config_hash = cell.study_config().canonical_hash()
    store_s = _timed(lambda: cache.store(config_hash, dataset))
    load_s = _timed(lambda: cache.load(config_hash))
    probe_s = _timed(lambda: cache.probe(config_hash))
    holder = {}

    def hit() -> None:
        holder["run"] = run_cell(cell, cache)

    hit_s = _timed(hit)
    if not holder["run"].cached or holder["run"].records != len(dataset):
        raise RuntimeError("run_cell did not answer from the cache")
    counters = cache.counters()
    return {
        "sweep.cache_store_ms": 1000.0 * store_s,
        "sweep.cache_load_ms": 1000.0 * load_s,
        "sweep.cache_probe_ms": 1000.0 * probe_s,
        "sweep.cell_hit_ms": 1000.0 * hit_s,
        "sweep.cache_hits": counters["hits"],
        "sweep.cache_stores": counters["stores"],
    }


# -- validate --------------------------------------------------------------


def validate_overhead(users: int, seed: int) -> dict:
    """The same ~20 plays with `COUNTING` validation and with it off."""
    config = StudyConfig(
        seed=seed, scale=0.03, max_users=users,
        tracer=TracerConfig(play_limit_s=10.0),
    )
    off_s = _timed(lambda: Study(config).run())
    on_s = _timed(lambda: Study(replace(config, validation=COUNTING)).run())
    return {"validate.overhead_share": (on_s - off_s) / off_s}


def run_all(seed: int, work: Path, quick: bool) -> dict:
    """Every ``D`` row.  Sizes are fixed (a tenth under ``--quick``)."""
    shrink = 10 if quick else 1
    metrics: dict = {}
    metrics.update(sim_events(300_000 // shrink))
    metrics.update(net_drivers(40_000 // shrink, derive(seed, 21)))
    metrics.update(transport_drivers(BULK_BYTES // shrink, derive(seed, 22)))
    metrics.update(media_packetize(20_000 // shrink))
    metrics.update(player_playout(20_000 // shrink))
    metrics.update(world_population(24_000 // shrink, derive(seed, 23)))
    metrics.update(analysis_drivers(200_000 // shrink, derive(seed, 24)))
    metrics.update(validate_overhead(3 if quick else 16, derive(seed, 25)))
    metrics.update(sweep_drivers(work, derive(seed, 26)))
    return metrics
