"""The reliable stream under both senders (reliability, ordering, API
contract, cost per segment — one suite, parametrized over Reno and
BBR), plus Reno's congestion control."""

import cProfile
import pstats

import pytest

from repro.errors import ConnectionClosedError, TransportError
from repro.net.packet import Packet, PacketKind
from repro.net.path import NetworkPath, PathProfile
from repro.sim.engine import EventLoop
from repro.transport.base import MSS_BYTES
from repro.transport.bbr import BbrConnection
from repro.transport.tcp import INITIAL_CWND, TcpConnection
from repro.units import kbps


@pytest.fixture(params=[TcpConnection, BbrConnection], ids=["reno", "bbr"])
def sender(request):
    """The sender class under test: everything that takes this fixture
    is the stream core's contract, whatever the congestion controller."""
    return request.param


def run_transfer(loop, path, count, size=1000, until=None,
                 sender=TcpConnection):
    """Send `count` messages; return the delivered payload list."""
    conn = sender(loop, path)
    delivered = []
    conn.on_deliver = lambda payload, sz: delivered.append(payload)
    for i in range(count):
        conn.send(i, size)
    if until is None:
        loop.run()
    else:
        loop.run(until=until)
    return conn, delivered


def feed_app_limited(loop, conn, segments, start=0.0):
    """Schedule `segments` x 1000 B from `start`, 20 every 0.4 s: an
    application offering 400 kbit/s, whatever the path could carry."""
    def burst(first):
        for i in range(first, min(first + 20, segments)):
            conn.send(i, 1000)

    for first in range(0, segments, 20):
        loop.schedule(
            start + 0.4 * first / 20, lambda first=first: burst(first)
        )


#: `TcpStats` (segments_sent, segments_retransmitted, fast_retransmits,
#: timeouts, acks_received) of 800 x 1000 B over `lossy_path` (rng seed
#: 42), generated at the commit before the senders were split into
#: stream core + controller.  A drift here is a transport-layer drift.
BULK_STATS_PINS = {
    TcpConnection: (826, 26, 15, 6, 794),
    BbrConnection: (905, 105, 98, 7, 849),
}

#: BBR's model at the end of the same transfer: (`delivery_rate_bps`,
#: `_min_rtt`, `mode`), generated at the commit before the model's
#: windowed filters stopped rescanning their sample history per ACK.
BBR_BULK_MODEL_PIN = (331812.87967762264, 0.17725999999998265, "probe_bw")


class TestReliableDelivery:
    def test_delivers_all_in_order_on_clean_path(self, loop, clean_path,
                                                 sender):
        conn, delivered = run_transfer(loop, clean_path, 100, sender=sender)
        assert delivered == list(range(100))
        assert conn.stats.messages_delivered == 100

    def test_delivers_all_in_order_on_lossy_path(self, loop, lossy_path,
                                                 sender):
        conn, delivered = run_transfer(loop, lossy_path, 200, until=120.0,
                                       sender=sender)
        assert delivered == list(range(200))

    def test_retransmissions_happen_under_loss(self, loop, lossy_path,
                                               sender):
        conn, delivered = run_transfer(loop, lossy_path, 200, until=120.0,
                                       sender=sender)
        assert conn.stats.segments_retransmitted > 0
        assert (
            conn.stats.fast_retransmits > 0 or conn.stats.timeouts > 0
        )

    def test_bytes_delivered_counted(self, loop, clean_path, sender):
        conn, _ = run_transfer(loop, clean_path, 10, size=500, sender=sender)
        assert conn.stats.bytes_delivered == 5000

    def test_rtt_estimated(self, loop, clean_path, sender):
        conn, _ = run_transfer(loop, clean_path, 20, sender=sender)
        assert conn.smoothed_rtt is not None
        # Must at least cover the propagation RTT.
        assert conn.smoothed_rtt >= clean_path.base_rtt_s * 0.9

    def test_seeded_bulk_transfer_stats_pinned(self, loop, lossy_path,
                                               sender):
        conn, delivered = run_transfer(loop, lossy_path, 800, until=600.0,
                                       sender=sender)
        assert delivered == list(range(800))
        stats = conn.stats
        assert (
            stats.segments_sent,
            stats.segments_retransmitted,
            stats.fast_retransmits,
            stats.timeouts,
            stats.acks_received,
        ) == BULK_STATS_PINS[sender]
        if sender is BbrConnection:
            assert (
                conn.delivery_rate_bps, conn._min_rtt, conn.mode
            ) == BBR_BULK_MODEL_PIN


class TestCongestionControl:
    def test_cwnd_grows_from_initial(self, loop, clean_path):
        conn, _ = run_transfer(loop, clean_path, 50)
        assert conn.cwnd_segments > INITIAL_CWND

    def test_loss_reduces_cwnd(self, loop, rng):
        # A tiny bottleneck queue forces congestive drops.
        profile = PathProfile(
            access_down_bps=kbps(200),
            access_up_bps=kbps(100),
            access_prop_s=0.01,
            bottleneck_bps=kbps(200),
            wan_prop_s=0.03,
            server_up_bps=kbps(2000),
            bottleneck_queue=4,
            access_queue=4,
        )
        path = NetworkPath(loop, profile, rng)
        conn = TcpConnection(loop, path)
        conn.on_deliver = lambda p, s: None
        peak = [0.0]

        def watch():
            peak[0] = max(peak[0], conn.cwnd_segments)
            if not conn.closed:
                loop.schedule(0.05, watch)

        loop.schedule(0.05, watch)
        for i in range(300):
            conn.send(i, 1000)
        loop.run(until=60.0)
        # The window must have been cut below its peak at least once.
        assert conn.stats.fast_retransmits + conn.stats.timeouts > 0
        assert conn.cwnd_segments < peak[0]

    def test_throughput_bounded_by_bottleneck(self, loop, rng):
        profile = PathProfile(
            access_down_bps=kbps(2000),
            access_up_bps=kbps(500),
            access_prop_s=0.005,
            bottleneck_bps=kbps(100),
            wan_prop_s=0.02,
            server_up_bps=kbps(5000),
        )
        path = NetworkPath(loop, profile, rng)
        conn = TcpConnection(loop, path)
        received = []
        conn.on_deliver = lambda p, s: received.append(s)
        for i in range(500):
            conn.send(i, 1000)
        loop.run(until=30.0)
        goodput = sum(received) * 8 / 30.0
        assert goodput <= kbps(100)
        assert goodput > kbps(50)  # but uses a decent share


class TestCostPerSegment:
    """A sender's work per segment does not grow with the connection's
    age.  Counted in Python calls inside ``repro/transport/``, so the
    guard carries no wall-clock noise: a controller that rescans its
    history on every ACK (BBR's model did: 270 calls/segment at 250
    segments, 957 at 4,000) fails both assertions."""

    @staticmethod
    def _calls_per_segment(sender, profile, rng, segments):
        loop = EventLoop()
        conn = sender(loop, NetworkPath(loop, profile, rng))
        conn.on_deliver = lambda p, s: None
        feed_app_limited(loop, conn, segments)  # a 512 kbit/s path: fits
        profiler = cProfile.Profile()
        profiler.runcall(loop.run)
        assert conn.stats.messages_delivered == segments
        assert conn.stats.segments_retransmitted == 0
        calls = sum(
            ncalls
            for (filename, _line, _name), (_prim, ncalls, *_rest)
            in pstats.Stats(profiler).stats.items()
            if "/repro/transport/" in filename
        )
        return calls / segments

    def test_transport_calls_per_segment_flat_in_history(
        self, clean_profile, rng, sender
    ):
        short = self._calls_per_segment(sender, clean_profile, rng, 250)
        long = self._calls_per_segment(sender, clean_profile, rng, 4000)
        assert short <= 25 and long <= 25
        assert abs(long - short) <= 0.10 * short


class TestBacklog:
    def test_backlog_tracks_unacked_data(self, loop, clean_path, sender):
        conn = sender(loop, clean_path)
        conn.on_deliver = lambda p, s: None
        for i in range(10):
            conn.send(i, 1000)
        assert conn.backlog_bytes == 10_000
        loop.run()
        assert conn.backlog_bytes == 0

    def test_backlog_conserved_mid_transfer(self, loop, lossy_path, sender):
        """`backlog_bytes` is exactly queued + in flight at any moment,
        holes and retransmissions included (what `audit_tcp` checks at
        the end of a playback, here checked while data is moving)."""
        conn = sender(loop, lossy_path)
        conn.on_deliver = lambda p, s: None
        for i in range(200):
            conn.send(i, 700 + i)
        for until in (0.5, 2.0, 8.0, 30.0):
            loop.run(until=until)
            assert conn.backlog_bytes == sum(
                size for _payload, size in conn._send_queue
            ) + sum(segment.size for segment in conn._in_flight.values())

    def test_backlog_grows_when_path_is_slow(self, loop, rng):
        profile = PathProfile(
            access_down_bps=kbps(30),
            access_up_bps=kbps(30),
            access_prop_s=0.08,
            bottleneck_bps=kbps(1000),
            wan_prop_s=0.02,
            server_up_bps=kbps(1000),
        )
        path = NetworkPath(loop, profile, rng)
        conn = TcpConnection(loop, path)
        conn.on_deliver = lambda p, s: None
        for i in range(100):
            conn.send(i, 1000)
        loop.run(until=5.0)
        assert conn.backlog_bytes > 50_000


class TestApiContract:
    def test_oversize_message_rejected(self, loop, clean_path, sender):
        conn = sender(loop, clean_path)
        with pytest.raises(TransportError):
            conn.send("x", MSS_BYTES + 1)

    def test_zero_size_rejected(self, loop, clean_path, sender):
        conn = sender(loop, clean_path)
        with pytest.raises(TransportError):
            conn.send("x", 0)

    def test_send_after_close_rejected(self, loop, clean_path, sender):
        conn = sender(loop, clean_path)
        conn.close()
        with pytest.raises(ConnectionClosedError):
            conn.send("x", 100)

    def test_close_is_idempotent(self, loop, clean_path, sender):
        conn = sender(loop, clean_path)
        conn.close()
        conn.close()
        assert conn.closed

    def test_close_unregisters_and_cancels_timers(self, loop, clean_path,
                                                  sender):
        """A closed stream leaves nothing behind: both endpoints
        forget the flow and no timer of the core or the controller
        (RTO, BBR pacing) is left on the loop."""
        conn = sender(loop, clean_path)
        delivered = []
        conn.on_deliver = lambda p, s: delivered.append(p)
        for i in range(50):  # more than either initial window
            conn.send(i, 1000)
        assert loop.pending_count() > 0
        conn.close()
        for endpoint in (clean_path.server_endpoint,
                         clean_path.client_endpoint):
            assert conn.flow_id not in endpoint._handlers
        sent = conn.stats.segments_sent
        loop.run()  # packets already on the wire drain into the void
        assert delivered == []
        assert conn.stats.segments_sent == sent
        assert loop.pending_count() == 0

    def test_flow_ids_unique(self, loop, clean_path, sender):
        a = sender(loop, clean_path)
        b = sender(loop, clean_path)
        assert a.flow_id != b.flow_id

    def test_ignores_foreign_packet_kinds(self, loop, clean_path, sender):
        conn = sender(loop, clean_path)
        # Deliver a CONTROL packet to the TCP handlers: must not crash.
        conn._on_ack_packet(
            Packet(kind=PacketKind.CONTROL, size=10, flow_id=conn.flow_id)
        )
        conn._on_data_packet(
            Packet(kind=PacketKind.CONTROL, size=10, flow_id=conn.flow_id)
        )
