"""Link serialization, queueing, loss and delivery."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.net.link import Link, LinkConfig
from repro.net.packet import HEADER_BYTES, Packet, PacketKind
from repro.sim.engine import EventLoop
from repro.units import kbps


def make_packet(size: int = 1000, seq: int = 0) -> Packet:
    return Packet(kind=PacketKind.DATA, size=size, flow_id=1, seq=seq)


def make_link(loop, rate=kbps(80), prop=0.01, queue=10, loss=0.0, rng=None):
    link = Link(
        loop,
        LinkConfig(
            rate_bps=rate,
            propagation_s=prop,
            queue_packets=queue,
            random_loss=loss,
        ),
        rng if rng is not None else np.random.default_rng(0),
    )
    return link


class TestDelivery:
    def test_delivers_after_serialization_plus_propagation(self):
        loop = EventLoop()
        link = make_link(loop, rate=kbps(80), prop=0.01)
        arrivals = []
        link.connect(lambda p: arrivals.append(loop.now))
        link.send(make_packet(size=1000))
        loop.run()
        expected = (1000 + HEADER_BYTES) * 8 / kbps(80) + 0.01
        assert arrivals == [pytest.approx(expected)]

    def test_requires_receiver(self):
        loop = EventLoop()
        link = make_link(loop)
        with pytest.raises(SimulationError):
            link.send(make_packet())

    def test_back_to_back_packets_serialize_sequentially(self):
        loop = EventLoop()
        link = make_link(loop, rate=kbps(80), prop=0.0)
        arrivals = []
        link.connect(lambda p: arrivals.append(loop.now))
        link.send(make_packet(seq=0))
        link.send(make_packet(seq=1))
        loop.run()
        serialization = (1000 + HEADER_BYTES) * 8 / kbps(80)
        assert arrivals[0] == pytest.approx(serialization)
        assert arrivals[1] == pytest.approx(2 * serialization)

    def test_delivery_preserves_fifo(self):
        loop = EventLoop()
        link = make_link(loop)
        seqs = []
        link.connect(lambda p: seqs.append(p.seq))
        for seq in range(6):
            link.send(make_packet(seq=seq))
        loop.run()
        assert seqs == list(range(6))

    def test_hop_count_incremented(self):
        loop = EventLoop()
        link = make_link(loop)
        got = []
        link.connect(got.append)
        link.send(make_packet())
        loop.run()
        assert got[0].hops == 1


class TestQueueing:
    def test_overflow_drops(self):
        loop = EventLoop()
        link = make_link(loop, rate=kbps(8), queue=3)
        delivered = []
        link.connect(delivered.append)
        # Queue capacity 3 + 1 in service; the rest must drop.
        for seq in range(10):
            link.send(make_packet(seq=seq))
        loop.run()
        assert len(delivered) == 4
        assert link.stats.queue_drops == 6

    def test_queue_depth_reflects_waiting_packets(self):
        loop = EventLoop()
        link = make_link(loop, rate=kbps(8), queue=10)
        link.connect(lambda p: None)
        for seq in range(5):
            link.send(make_packet(seq=seq))
        # One is in service; four wait.
        assert link.queue_depth == 4


class TestRandomLoss:
    def test_lossless_by_default(self):
        loop = EventLoop()
        link = make_link(loop, queue=64)
        delivered = []
        link.connect(delivered.append)
        for seq in range(50):
            link.send(make_packet(seq=seq))
        loop.run()
        assert len(delivered) == 50

    def test_full_loss_keeps_counting(self):
        loop = EventLoop()
        link = make_link(loop, loss=0.999999, queue=32)
        delivered = []
        link.connect(delivered.append)
        for seq in range(20):
            link.send(make_packet(seq=seq))
        loop.run()
        assert delivered == []
        assert link.stats.random_drops == 20

    def test_partial_loss_roughly_proportional(self):
        loop = EventLoop()
        link = make_link(loop, rate=kbps(8000), loss=0.3, queue=1200)
        delivered = []
        link.connect(delivered.append)
        for seq in range(1000):
            link.send(make_packet(seq=seq))
        loop.run()
        assert 600 <= len(delivered) <= 800


class TestStats:
    def test_busy_time_and_utilization(self):
        loop = EventLoop()
        link = make_link(loop, rate=kbps(80), prop=0.0)
        link.connect(lambda p: None)
        link.send(make_packet())
        loop.run()
        serialization = (1000 + HEADER_BYTES) * 8 / kbps(80)
        assert link.stats.busy_time == pytest.approx(serialization)
        assert link.utilization(2 * serialization) == pytest.approx(0.5)

    def test_utilization_of_zero_elapsed(self):
        loop = EventLoop()
        link = make_link(loop)
        assert link.utilization(0.0) == 0.0

    def test_delivered_by_kind(self):
        loop = EventLoop()
        link = make_link(loop)
        link.connect(lambda p: None)
        link.send(make_packet())
        link.send(Packet(kind=PacketKind.ACK, size=0, flow_id=1))
        loop.run()
        assert link.stats.delivered_by_kind[PacketKind.DATA] == 1
        assert link.stats.delivered_by_kind[PacketKind.ACK] == 1


class TestConfigValidation:
    def test_rejects_zero_rate(self):
        with pytest.raises(ValueError):
            LinkConfig(rate_bps=0, propagation_s=0.01)

    def test_rejects_negative_propagation(self):
        with pytest.raises(ValueError):
            LinkConfig(rate_bps=1000, propagation_s=-1)

    def test_rejects_loss_of_one(self):
        with pytest.raises(ValueError):
            LinkConfig(rate_bps=1000, propagation_s=0, random_loss=1.0)


class TestArrivalTimeService:
    """One service scheme: a packet's passage is fixed at admission, and
    only its effects (loss draw, delivery) are events."""

    def test_loss_free_hop_heaps_one_event_per_packet(self):
        loop = EventLoop()
        link = make_link(loop, rate=kbps(8), queue=10)
        link.connect(lambda p: None)
        for seq in range(5):  # four of them wait for the wire
            link.send(make_packet(seq=seq))
        assert loop.scheduled == 5
        loop.run()
        assert loop.scheduled == 5
        assert link.stats.delivered == 5

    def test_lossy_hop_heaps_the_draw_then_the_delivery(self):
        loop = EventLoop()
        link = make_link(loop, rate=kbps(8), queue=10, loss=0.5)
        link.connect(lambda p: None)
        for seq in range(8):
            link.send(make_packet(seq=seq))
        loop.run()
        stats = link.stats
        assert stats.random_drops > 0 and stats.delivered > 0
        assert loop.scheduled == 8 + stats.delivered

    def test_admit_returns_the_instant_the_last_bit_leaves(self):
        loop = EventLoop()
        link = make_link(loop, rate=kbps(80), queue=1)
        link.connect(lambda p: None)
        serialization = (1000 + HEADER_BYTES) * 8 / kbps(80)
        assert link.admit(0.0, make_packet()) == serialization
        assert link.admit(0.0, make_packet()) == 2 * serialization
        assert link.admit(0.0, make_packet()) is None  # queue of one is full
        # Served at once on an idle wire, however long it sat idle.
        assert link.admit(10.0, make_packet()) == 10.0 + serialization

    def test_counters_are_exact_whenever_read(self):
        loop = EventLoop()
        link = make_link(loop, rate=kbps(8), prop=0.0, queue=10)
        link.connect(lambda p: None)
        serialization = (1000 + HEADER_BYTES) * 8 / kbps(8)
        for seq in range(4):
            link.send(make_packet(seq=seq))
        seen = []

        def read() -> None:
            queue, stats = link.queue, link.stats
            seen.append(
                (link.queue_depth, queue.popped, len(queue),
                 stats.in_transit, stats.delivered)
            )
            assert queue.enqueued == queue.popped + len(queue)
            assert queue.popped == stats.delivered + stats.in_transit
            assert stats.busy_time == pytest.approx(
                queue.popped * serialization
            )

        read()
        for k in (0.5, 1.5, 2.5, 3.5, 4.5):
            loop.schedule_at(k * serialization, read)
        loop.run()
        assert seen == [
            (3, 1, 3, 1, 0), (3, 1, 3, 1, 0), (2, 2, 2, 1, 1),
            (1, 3, 1, 1, 2), (0, 4, 0, 1, 3), (0, 4, 0, 0, 4),
        ]

    def test_red_sees_each_pop_at_the_instant_it_happened(self):
        from repro.net.queues import REDQueue

        def idle_since_after(read_at):
            loop = EventLoop()
            queue = REDQueue(10, rng=np.random.default_rng(0),
                             clock=lambda: loop.now)
            link = Link(
                loop, LinkConfig(rate_bps=kbps(8), propagation_s=0.0),
                np.random.default_rng(0), queue=queue,
            )
            link.connect(lambda p: None)
            link.send(make_packet(seq=0))
            link.send(make_packet(seq=1))  # starts one serialization in
            loop.run(until=read_at)
            assert link.queue_depth == 0
            return queue._idle_since

        serialization = (1000 + HEADER_BYTES) * 8 / kbps(8)
        # The queue emptied when the second packet's service began, not
        # when somebody next looked at the link.
        assert idle_since_after(5.0) == serialization
        assert idle_since_after(50.0) == serialization
