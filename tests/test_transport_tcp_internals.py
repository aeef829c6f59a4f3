"""TCP internals: fast retransmit, NewReno partial ACKs, RTO backoff.

These tests drive the sender's ACK handler directly with crafted
packets, isolating the congestion-control state machine from the
network.
"""

import pytest

from repro.net.packet import Packet, PacketKind
from repro.transport.stream import DUPACK_THRESHOLD, MAX_RTO
from repro.transport.tcp import TcpConnection


def ack(conn, next_expected_seq):
    """Deliver a cumulative ACK for `next_expected_seq` to the sender."""
    conn._on_ack_packet(
        Packet(kind=PacketKind.ACK, size=0, flow_id=conn.flow_id,
               seq=next_expected_seq)
    )


@pytest.fixture
def conn(loop, clean_path):
    connection = TcpConnection(loop, clean_path)
    connection.on_deliver = lambda p, s: None
    return connection


class TestFastRetransmit:
    def test_three_dupacks_trigger_fast_retransmit(self, conn, loop):
        for i in range(10):
            conn.send(i, 1000)
        sent_before = conn.stats.segments_sent
        ack(conn, 1)  # segment 0 acked; 1 is missing
        for _ in range(DUPACK_THRESHOLD):
            ack(conn, 1)
        assert conn.stats.fast_retransmits == 1
        assert conn.stats.segments_retransmitted >= 1
        assert conn.stats.segments_sent > sent_before

    def test_two_dupacks_do_not(self, conn):
        for i in range(10):
            conn.send(i, 1000)
        ack(conn, 1)
        ack(conn, 1)
        ack(conn, 1)  # only 2 *duplicate* acks after the first
        assert conn.stats.fast_retransmits == 0

    def test_window_halved_on_fast_retransmit(self, conn, loop):
        for i in range(30):
            conn.send(i, 1000)
        # Grow the window a bit first.
        for seq in range(1, 6):
            ack(conn, seq)
        window_before = conn.cwnd_segments
        ack(conn, 6)
        for _ in range(DUPACK_THRESHOLD):
            ack(conn, 6)
        # ssthresh = flight/2; cwnd = ssthresh + 3 during recovery.
        assert conn._ssthresh <= window_before


class TestNewRenoPartialAck:
    def test_partial_ack_retransmits_next_hole(self, conn):
        for i in range(10):
            conn.send(i, 1000)
        ack(conn, 1)
        for _ in range(DUPACK_THRESHOLD):
            ack(conn, 1)  # enter recovery, retransmit seg 1
        retransmits_before = conn.stats.segments_retransmitted
        # Partial ACK: 1 arrives but 3 is also missing.
        ack(conn, 3)
        assert conn.stats.segments_retransmitted == retransmits_before + 1
        assert conn._in_recovery

    def test_full_ack_exits_recovery(self, conn):
        for i in range(6):
            conn.send(i, 1000)
        ack(conn, 1)
        for _ in range(DUPACK_THRESHOLD):
            ack(conn, 1)
        assert conn._in_recovery
        ack(conn, 6)  # everything acked
        assert not conn._in_recovery
        assert conn.cwnd_segments == pytest.approx(conn._ssthresh)


class TestTimeouts:
    def test_timeout_collapses_window(self, conn, loop):
        for i in range(10):
            conn.send(i, 1000)
        for seq in range(1, 5):
            ack(conn, seq)
        assert conn.cwnd_segments > 1.0
        conn._on_timeout()
        assert conn.cwnd_segments == 1.0
        assert conn.stats.timeouts == 1

    def test_rto_backs_off_exponentially_to_cap(self, conn):
        for i in range(5):
            conn.send(i, 1000)
        rtos = []
        for _ in range(6):
            conn._on_timeout()
            rtos.append(conn.rto)
        assert rtos == sorted(rtos)
        assert rtos[-1] == MAX_RTO

    def test_timeout_without_flight_is_noop(self, conn, loop):
        loop.run()  # drain: nothing in flight
        conn._on_timeout()
        assert conn.stats.timeouts == 0


class TestRttEstimation:
    def test_karns_algorithm_skips_retransmitted(self, conn, loop):
        conn.send(0, 1000)
        conn._on_timeout()  # mark segment 0 retransmitted
        ack(conn, 1)
        # No RTT sample may come from a retransmitted segment.
        assert conn.smoothed_rtt is None

    def test_rto_tracks_srtt(self, conn, loop, clean_path):
        for i in range(20):
            conn.send(i, 1000)
        loop.run()
        assert conn.smoothed_rtt is not None
        assert conn.rto >= conn.smoothed_rtt
