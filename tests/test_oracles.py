"""The transport against numbers the simulator did not generate.

Goldens, sha pins and differential references check the code against
its own past; nothing here does.  Every expectation is arithmetic on
the `PathProfile` — link rates, header overhead, propagation delay —
over loss-free, uncontended paths where that arithmetic is the whole
truth.  O1 runs over the `sender` fixture of `test_transport_tcp.py`,
so a third controller inherits it by joining that list.

* **O1** a feed below capacity is delivered as fast as it is offered,
  with nothing retransmitted;
* **O2** no estimate of the bottleneck exceeds the bottleneck;
* **O3** a bulk transfer fills the pipe.

O2 and O3 do not hold today.  The violated cells are strict xfails with
the measured ratio and the cause in the reason: fixing them changes
behaviour (and re-pins the `dash-abr-bbr` goldens), which is a PR of
its own — see ROADMAP "External oracles".  A strict xfail fails the
suite the day the model is fixed, so the marks cannot outlive the bug.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.net.packet import HEADER_BYTES
from repro.net.path import NetworkPath, PathProfile
from repro.sim.engine import EventLoop
from repro.transport.bbr import BbrConnection
from repro.transport.tcp import TcpConnection
from repro.units import kbps
from tests.test_transport_tcp import sender  # noqa: F401  (the fixture)

SIZE = 1000  # payload bytes per message (one segment)
#: (access kbit/s, WAN one-way seconds): modem, DSL and T1 behind a
#: near and a far server.
CELLS = [(56, 0.010), (56, 0.100), (256, 0.010), (256, 0.100),
         (1500, 0.010), (1500, 0.100)]


def _profile(access_kbps: float, wan_s: float) -> PathProfile:
    """The access link is the narrowest hop; nothing competes or drops."""
    return PathProfile(
        access_down_bps=kbps(access_kbps), access_up_bps=kbps(access_kbps),
        access_prop_s=0.005, bottleneck_bps=kbps(2000), wan_prop_s=wan_s,
        server_up_bps=kbps(2000),
    )


def _payload_capacity_bps(profile: PathProfile) -> float:
    """What the narrowest hop carries of `SIZE`-byte payloads."""
    return profile.end_to_end_capacity_bps * SIZE / (SIZE + HEADER_BYTES)


def _transfer(sender, profile, count, gap_s):
    """`count` messages, one every `gap_s`; (conn, last delivery time)."""
    loop = EventLoop()
    conn = sender(loop, NetworkPath(loop, profile, np.random.default_rng(1)))
    delivered_at = []
    conn.on_deliver = lambda payload, size: delivered_at.append(loop.now)
    for i in range(count):
        loop.schedule(i * gap_s, lambda i=i: conn.send(i, SIZE))
    loop.run()
    assert len(delivered_at) == count
    return conn, delivered_at[-1]


@functools.lru_cache(maxsize=None)
def _feed_at_80_percent(sender, access_kbps, wan_s):
    """20 s of messages at 0.8 of payload capacity (O1 and O2 share it):
    (conn, finish time over the time the feed took to offer)."""
    profile = _profile(access_kbps, wan_s)
    gap_s = SIZE * 8 / (0.8 * _payload_capacity_bps(profile))
    count = int(20.0 / gap_s)
    conn, finished_at = _transfer(sender, profile, count, gap_s)
    return conn, finished_at / (count * gap_s)


@pytest.mark.parametrize("access_kbps, wan_s", CELLS)
def test_o1_feed_below_capacity_finishes_on_time(sender, access_kbps, wan_s):
    conn, finish_over_ideal = _feed_at_80_percent(sender, access_kbps, wan_s)
    assert finish_over_ideal <= 1.03
    assert conn.stats.segments_retransmitted == 0
    assert conn.stats.timeouts == 0


def _o2_violated(ratio):
    return pytest.mark.xfail(strict=True, reason=(
        f"btl_bw reads {ratio}x the narrowest hop, a fencepost: a rate "
        "sample divides the bytes ACKed since the segment left (k in "
        "flight ahead of it + itself) by that segment's own RTT, but k + 1 "
        "ACKs span k + 1 inter-ACK gaps only from the last delivery "
        "*before* the send (BBR's delivered_time); a paced or app-limited "
        "send comes later than that, so up to (k + 1)/k too fast — worst "
        "on narrow paths, where k is 1 or 2"
    ))


@pytest.mark.parametrize("access_kbps, wan_s", [
    pytest.param(56, 0.010, marks=_o2_violated(1.53)),
    pytest.param(56, 0.100, marks=_o2_violated(1.19)),
    pytest.param(256, 0.010, marks=_o2_violated(1.33)),
    (256, 0.100), (1500, 0.010), (1500, 0.100),
])
def test_o2_bbr_rate_estimate_within_the_bottleneck(access_kbps, wan_s):
    conn, _ = _feed_at_80_percent(BbrConnection, access_kbps, wan_s)
    capacity = _payload_capacity_bps(_profile(access_kbps, wan_s))
    assert conn.delivery_rate_bps <= 1.10 * capacity


@pytest.mark.parametrize("sender", [
    pytest.param(TcpConnection, id="reno", marks=pytest.mark.xfail(
        strict=True, reason=(
            "goodput 0.06 of capacity: no receive window caps cwnd, it "
            "reaches 768 segments against a 30-packet access queue, and "
            "the burst of holes is then repaired one per RTO (192 timeouts)"
        ))),
    pytest.param(BbrConnection, id="bbr", marks=pytest.mark.xfail(
        strict=True, reason=(
            "goodput 0.16 of capacity: with no PROBE_RTT the 10 s min_rtt "
            "window forgets the empty-pipe RTT, the standing queue inflates "
            "the BDP until the access queue overflows, and a cumulative ACK "
            "over a repaired hole credits 93 segments to one RTT (btl_bw "
            "3.3 Mbit/s = 13x capacity at t = 101 s); 35 timeouts"
        ))),
])
def test_o3_bulk_transfer_fills_the_pipe(sender):
    profile = _profile(256, 0.030)
    conn, finished_at = _transfer(sender, profile, 1500, 0.0)
    goodput_bps = 1500 * SIZE * 8 / finished_at
    assert goodput_bps >= 0.8 * _payload_capacity_bps(profile)
