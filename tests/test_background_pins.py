"""Background traffic stays off the event heap — and moves no number.

Two kinds of pin, both free of wall-clock time:

* sha256 of whole study CSVs, generated at the commit *before* cross
  traffic became a timeline (event-per-packet source, two-scheme link)
  and passing unmodified on both sides of it.  One runs RED at the
  bottleneck, where the queue must see every ``offer``/``pop`` at the
  instant it happened; the other is the default stack over the whole
  roster, whose ``56k Modem`` and ``T1/LAN`` users carry two timelines
  on one generator.
* scheduled-event counts: a path with only background load heaps
  nothing at all, and a fixed-seed broadband play stays under a bound
  the event-per-packet scheme exceeded by half — so cross traffic
  cannot drift back onto the heap unnoticed.  The same user and clip
  over the `dash-abr-bbr` stack has its own ceiling: a transport-layer
  speed-up must come out of work per event, not out of more events.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.core.realtracer import RealTracer, TracerConfig
from repro.core.study import StudyConfig
from repro.net.path import NetworkPath, PathProfile
from repro.player.realplayer import RealPlayer
from repro.rng import RngFactory
from repro.runtime import RuntimeConfig, run_study
from repro.sim.engine import EventLoop
from repro.transport.bbr import BbrConnection
from repro.units import kbps
from repro.validate import ValidationLedger
from repro.validate.invariants import audit_path
from repro.world.population import build_population
from repro.world.scenarios import get_scenario

RED_STUDY_CSV_SHA256 = (
    "8db7b7d1d30bc4905e72a3886aeca981d84904c62a7af692716f6ab28953e102"
)  # seed 3, scale 0.03, 40 users, red_bottleneck, play_limit_s=10
DEFAULT_STUDY_CSV_SHA256 = (
    "707ff4fd70c1a325a397fbdbeeec7e013e090f3a87f320ac2c7efe7fbfb456a0"
)  # seed 7, scale 0.03, 65 users, default stack

#: One DSL/Cable UDP play (below) heaped 18,829 events when every
#: background packet was three of them; 12,472 now.
BROADBAND_PLAY_EVENT_BOUND = 14_000
#: The same user and clip as a `dash-abr-bbr` play (AbrPlayer over
#: BbrConnection) heaped 18,907 events at the commit before the BBR
#: filters stopped rescanning their history; the bound is 10 % above.
DASH_BBR_PLAY_EVENT_BOUND = 20_800


def _study_digest(config: StudyConfig) -> str:
    dataset = run_study(config, RuntimeConfig(workers=1)).dataset
    return hashlib.sha256(dataset.to_csv_string().encode()).hexdigest()


class TestStudyPins:
    def test_red_bottleneck_study_csv_unchanged(self):
        config = StudyConfig(
            seed=3, scale=0.03, max_users=40,
            tracer=TracerConfig(red_bottleneck=True, play_limit_s=10.0),
        )
        assert _study_digest(config) == RED_STUDY_CSV_SHA256

    def test_default_study_csv_unchanged(self):
        config = StudyConfig(seed=7, scale=0.03, max_users=65)
        assert _study_digest(config) == DEFAULT_STUDY_CSV_SHA256


class TestBackgroundStaysOffTheHeap:
    def test_background_only_path_schedules_no_events(self):
        loop = EventLoop(strict=True)
        profile = PathProfile(
            access_down_bps=kbps(1500), access_up_bps=kbps(1500),
            access_prop_s=0.003, bottleneck_bps=kbps(2000), wan_prop_s=0.02,
            server_up_bps=kbps(5000), cross_load=0.5, access_cross_load=0.4,
            random_loss=0.002, access_random_loss=0.001,
        )
        path = NetworkPath(loop, profile, np.random.default_rng(42))
        path.start()
        loop.run(until=30.0)
        path.stop()
        assert loop.scheduled == 0
        assert path.stats.dropped_cross_packets > 1000
        # Both hops carried it, and every counter it touched is whole.
        assert path.bottleneck_link.stats.delivered > 0
        assert path.access_down_link.stats.delivered > 0
        ledger = ValidationLedger()
        audit_path(ledger, path)
        assert ledger.summary() == {}

    @staticmethod
    def _broadband_play():
        """(rngs, user, site, clip) of the seed-1234 US DSL/Cable play."""
        rngs = RngFactory(1234)
        population = build_population(rngs, playlist_length=8)
        user = next(
            u for u in population.users
            if u.connection.name == "DSL/Cable" and u.country.code == "US"
            and not u.rtsp_blocked
        )
        site, clip = next(
            (s, c) for s, c in population.playlist
            if c.ladder.highest.total_bps >= 225_000
        )
        return rngs, user, site, clip

    def test_broadband_udp_play_event_count_is_bounded(self):
        rngs, user, site, clip = self._broadband_play()
        loops = []

        def player_factory(loop, *args):
            loops.append(loop)
            return RealPlayer(loop, *args)

        record = RealTracer(player_factory=player_factory).play_clip(
            user, site, clip, rngs.child("bench", "1")
        )
        assert (record.outcome, record.protocol) == ("played", "UDP")
        assert 5_000 < loops[0].scheduled < BROADBAND_PLAY_EVENT_BOUND

    def test_dash_bbr_play_event_count_is_bounded(self):
        rngs, user, site, clip = self._broadband_play()
        tracer = RealTracer(
            get_scenario("dash-abr-bbr").configure(StudyConfig()).tracer
        )
        record = tracer.play_clip(user, site, clip, rngs.child("bench", "1"))
        assert (record.outcome, record.protocol) == ("played", "TCP")
        assert isinstance(tracer.last_player.session.tcp, BbrConnection)
        scheduled = tracer.last_player._loop.scheduled
        assert 10_000 < scheduled < DASH_BBR_PLAY_EVENT_BOUND
