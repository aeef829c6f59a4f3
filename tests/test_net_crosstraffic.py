"""On/off cross-traffic source."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.net.crosstraffic import CrossTrafficConfig, CrossTrafficSource
from repro.net.link import Link, LinkConfig
from repro.net.packet import PacketKind
from repro.sim.engine import EventLoop
from repro.units import kbps


class TestConfig:
    def test_duty_cycle(self):
        config = CrossTrafficConfig(mean_rate_bps=kbps(100), burst_rate_bps=kbps(400))
        assert config.duty_cycle == pytest.approx(0.25)

    def test_mean_idle_follows_duty(self):
        config = CrossTrafficConfig(
            mean_rate_bps=kbps(100), burst_rate_bps=kbps(200), mean_burst_s=1.0
        )
        assert config.mean_idle_s == pytest.approx(1.0)

    def test_zero_rate_allowed(self):
        config = CrossTrafficConfig(mean_rate_bps=0.0, burst_rate_bps=0.0)
        assert config.duty_cycle == 0.0
        assert config.mean_idle_s == float("inf")

    def test_burst_must_exceed_mean(self):
        with pytest.raises(ValueError):
            CrossTrafficConfig(mean_rate_bps=kbps(100), burst_rate_bps=kbps(100))

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            CrossTrafficConfig(mean_rate_bps=-1, burst_rate_bps=10)


class TestSource:
    """The source is a timeline: nothing it sends is a ``Packet`` or an
    event, so these read the link's settled counters (the event-per-
    packet twin lives in ``tests/reference_crosstraffic.py``)."""

    def _link(self, loop, rng, rate_kbps=10_000, **config):
        link = Link(
            loop,
            LinkConfig(rate_bps=kbps(rate_kbps), propagation_s=0.0, **config),
            rng,
        )
        link.connect(lambda p: pytest.fail("background never reaches a receiver"))
        return link

    def _run(self, mean_kbps, seconds=30.0, seed=1):
        loop = EventLoop()
        rng = np.random.default_rng(seed)
        link = self._link(loop, rng, queue_packets=1000)
        source = CrossTrafficSource(
            loop,
            link,
            CrossTrafficConfig(
                mean_rate_bps=kbps(mean_kbps),
                burst_rate_bps=kbps(mean_kbps * 3),
                mean_burst_s=0.5,
            ),
            rng,
        )
        source.start()
        loop.run(until=seconds)
        source.stop()
        payload = link.stats.delivered * source.config.packet_bytes
        return payload * 8 / seconds, source, loop

    def test_long_run_rate_near_mean(self):
        achieved, _, _ = self._run(mean_kbps=200, seconds=120.0)
        assert kbps(120) < achieved < kbps(300)

    def test_runs_without_events(self):
        _, source, loop = self._run(mean_kbps=200)
        assert source.packets_sent > 100
        assert loop.scheduled == 0

    def test_packets_counted_as_cross(self):
        loop = EventLoop()
        rng = np.random.default_rng(2)
        link = self._link(loop, rng, rate_kbps=1000)
        source = CrossTrafficSource(
            loop,
            link,
            CrossTrafficConfig(mean_rate_bps=kbps(300), burst_rate_bps=kbps(600)),
            rng,
        )
        source.start()
        loop.run(until=5.0)
        source.stop()
        stats = link.stats
        assert stats.delivered > 0
        assert stats.delivered_by_kind == {PacketKind.CROSS: stats.delivered}
        assert stats.delivered_bytes == stats.delivered * source.wire_size
        assert (
            source.packets_sent
            == stats.delivered + stats.queue_drops + stats.in_transit
            + link.queue_depth
        )

    def test_zero_rate_emits_nothing(self):
        loop = EventLoop()
        rng = np.random.default_rng(3)
        link = self._link(loop, rng, rate_kbps=1000)
        source = CrossTrafficSource(
            loop,
            link,
            CrossTrafficConfig(mean_rate_bps=0.0, burst_rate_bps=0.0),
            rng,
        )
        source.start()
        loop.run(until=5.0)
        assert source.packets_sent == 0
        assert link.stats.offered == 0

    def test_stop_halts_emission(self):
        loop = EventLoop()
        rng = np.random.default_rng(4)
        link = self._link(loop, rng)
        source = CrossTrafficSource(
            loop,
            link,
            CrossTrafficConfig(mean_rate_bps=kbps(500), burst_rate_bps=kbps(1000)),
            rng,
        )
        source.start()
        loop.run(until=5.0)
        source.stop()
        seen = source.packets_sent
        assert seen > 0
        loop.run(until=10.0)
        assert source.packets_sent == seen
        assert link.stats.offered == seen

    def test_start_twice_is_an_error(self):
        loop = EventLoop()
        rng = np.random.default_rng(5)
        source = CrossTrafficSource(
            loop,
            self._link(loop, rng),
            CrossTrafficConfig(mean_rate_bps=kbps(500), burst_rate_bps=kbps(1000)),
            rng,
        )
        source.start()
        with pytest.raises(SimulationError):
            source.start()

    def test_restart_after_stop_resumes(self):
        loop = EventLoop(strict=True)
        rng = np.random.default_rng(6)
        link = self._link(loop, rng, random_loss=0.05)
        source = CrossTrafficSource(
            loop,
            link,
            CrossTrafficConfig(mean_rate_bps=kbps(500), burst_rate_bps=kbps(1000)),
            rng,
        )
        source.start()
        loop.run(until=5.0)
        source.stop()
        first = source.packets_sent
        source.start()
        loop.run(until=10.0)
        source.stop()
        assert source.packets_sent > first > 0

    def test_counters_settle_when_no_event_ever_fires(self):
        # An idle path: nothing on the heap, the clock moved by
        # run(until=...) alone.  Every read is still exact.
        loop = EventLoop(strict=True)
        rng = np.random.default_rng(7)
        link = self._link(loop, rng, rate_kbps=400, queue_packets=5,
                          random_loss=0.02)
        source = CrossTrafficSource(
            loop,
            link,
            CrossTrafficConfig(mean_rate_bps=kbps(300), burst_rate_bps=kbps(700)),
            rng,
        )
        source.start()
        loop.run(until=30.0)
        source.stop()
        assert loop.scheduled == 0
        stats, queue = link.stats, link.queue
        assert stats.offered == source.packets_sent > 500
        assert stats.queue_drops > 0 and stats.random_drops > 0
        assert queue.offers == queue.enqueued + queue.drops
        assert queue.enqueued == queue.popped + len(queue)
        assert queue.popped == (
            stats.delivered + stats.random_drops + stats.in_transit
        )
        assert stats.in_transit >= 0
        assert stats.busy_time == pytest.approx(
            queue.popped * source.wire_size * 8 / kbps(400)
        )
        assert 0.3 < link.utilization(30.0) <= 1.0
