"""BBR's windowed max/min filters against the scan they replaced.

The filters are monotonic deques (amortised O(1) per ACK); the model
used to rescan a full 10-second sample window per ACK.  Output must be
the same float at every read — the `dash-abr-bbr` sha pins depend on
it — so the scan lives on in `reference_bbr_filters.py` and is driven
beside the filters here: sample stream by sample stream (hypothesis),
then connection by connection over real paths, ACK by ACK.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.path import NetworkPath
from repro.sim.engine import EventLoop
from repro.transport.bbr import (
    FILTER_WINDOW_S,
    BbrConnection,
    _WindowedExtremum,
)
from tests.reference_bbr_filters import ScannedWindow, ScanningBbrConnection
from tests.test_transport_tcp import feed_app_limited

#: Time steps between ACKs: none at all (one cumulative ACK stamps all
#: its samples with the same `now`), ordinary spacing, exactly the
#: window (the horizon test is strict), and gaps that empty the window.
_GAPS = st.one_of(
    st.just(0.0),
    st.floats(0.0, 4.0),
    st.just(FILTER_WINDOW_S),
    st.floats(FILTER_WINDOW_S, 3 * FILTER_WINDOW_S),
)
#: Few distinct values, so streams are full of ties; an ACK may carry
#: no sample at all (only retransmitted segments) and still reads.
_SAMPLES = st.lists(
    st.one_of(st.integers(1, 6).map(float), st.floats(0.0, 1e7)), max_size=4
)


class TestFilterAgainstScan:
    @settings(max_examples=300, deadline=None)
    @given(keep_max=st.booleans(), acks=st.lists(st.tuples(_GAPS, _SAMPLES)))
    def test_every_read_is_the_scans_read(self, keep_max, acks):
        fast, scan = _WindowedExtremum(keep_max), ScannedWindow(keep_max)
        now, estimate = 0.0, -1.0
        for gap, samples in acks:
            now += gap
            for value in samples:
                fast.add(now, value)
                scan.add(now, value)
            expected = scan.read(now, estimate)
            assert fast.read(now, estimate) == expected
            assert len(fast._samples) <= len(scan._samples)
            estimate = expected

    @pytest.mark.parametrize("keep_max", [True, False])
    def test_estimate_held_across_an_empty_window(self, keep_max):
        window = _WindowedExtremum(keep_max)
        window.add(1.0, 5.0)
        assert window.read(1.0, 9.0) == 5.0
        assert window.read(1.0 + FILTER_WINDOW_S, 9.0) == 5.0  # the edge
        assert window.read(2.0 + FILTER_WINDOW_S, 9.0) == 9.0  # held

    def test_monotone_streams_keep_one_sample(self):
        rising, falling = _WindowedExtremum(True), _WindowedExtremum(False)
        for i in range(1000):
            rising.add(0.001 * i, float(i))
            falling.add(0.001 * i, float(-i))
            assert rising.read(0.001 * i, 0.0) == i
            assert falling.read(0.001 * i, 0.0) == -i
        assert len(rising._samples) == len(falling._samples) == 1


# -- connection level -------------------------------------------------------


def _bulk(count):
    def feed(loop, conn):
        for i in range(count):
            conn.send(i, 1000)
    return feed


def _app_limited_with_pause(loop, conn):
    """20 x 1000 B every 0.4 s for 8 s, 12 s of silence (longer than
    the filter window), then the same again."""
    for start in (0.0, 20.0):
        feed_app_limited(loop, conn, 400, start)


def _model_trace(sender, profile, feed, until):
    """The model after every ACK, and the final `TcpStats`."""
    loop = EventLoop()
    path = NetworkPath(loop, profile, np.random.default_rng(42))
    path.start()
    trace = []

    class Traced(sender):
        def _on_ack_packet(self, packet):
            super()._on_ack_packet(packet)
            trace.append((
                loop.now, self._btl_bw, self._min_rtt, self.mode,
                self._pacing_rate_bps, self.cwnd_segments,
            ))

    conn = Traced(loop, path)
    conn.on_deliver = lambda payload, size: None
    feed(loop, conn)
    loop.run(until=until)
    return trace, conn.stats


@pytest.mark.parametrize("profile_name, feed, until", [
    ("clean_profile", _bulk(400), None),
    ("lossy_profile", _bulk(800), 600.0),
    ("clean_profile", _app_limited_with_pause, None),
    ("lossy_profile", _app_limited_with_pause, 600.0),
], ids=["clean-bulk", "lossy-bulk", "clean-paused", "lossy-paused"])
def test_connection_model_matches_scanning_connection(
    request, profile_name, feed, until
):
    profile = request.getfixturevalue(profile_name)
    trace, stats = _model_trace(BbrConnection, profile, feed, until)
    ref_trace, ref_stats = _model_trace(
        ScanningBbrConnection, profile, feed, until
    )
    assert len(trace) > 300
    assert trace == ref_trace
    assert stats == ref_stats
