"""The modern DASH-style ABR stack: controller policy, ladder
subsampling, BBR-paced transport, end-to-end sessions, degenerate
paths, and the determinism contract for `dash-abr` studies."""

import hashlib

import pytest

from repro.abr import (
    AbrConfig,
    AbrController,
    AbrPlayer,
    SegmentServer,
    ThroughputEstimator,
    abr_ladder,
)
from repro.core.study import Study, StudyConfig
from repro.media.clip import ContentKind, make_clip
from repro.player.playout import PlayoutConfig
from repro.player.realplayer import PlaybackOutcome, PlayerConfig
from repro.runtime import RuntimeConfig, run_study
from repro.server.availability import AvailabilityModel
from repro.transport.base import Protocol
from repro.transport.bbr import BbrConnection
from repro.units import kbps
from repro.world.scenarios import configured, get_scenario
from tests.test_transport_tcp import run_transfer


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------


class TestAbrConfig:
    def test_defaults_follow_the_buffer_based_exemplar(self):
        config = AbrConfig()
        assert config.enabled is False
        assert config.pacing == "reno"
        assert config.initial_buffer_s == 5.0
        assert config.target_buffer_s == 15.0

    @pytest.mark.parametrize("bad", [
        dict(pacing="cubic"),
        dict(segment_duration_s=0.0),
        dict(max_levels=0),
        dict(initial_buffer_s=10.0, target_buffer_s=5.0),
        dict(throughput_safety=0.0),
        dict(throughput_safety=1.5),
        dict(throughput_window=0),
    ])
    def test_invalid_knobs_rejected(self, bad):
        with pytest.raises(ValueError):
            AbrConfig(**bad)


# ---------------------------------------------------------------------------
# Throughput estimator + controller policy
# ---------------------------------------------------------------------------


class TestThroughputEstimator:
    def test_harmonic_mean_punishes_dips(self):
        estimator = ThroughputEstimator(window=3)
        for sample in (100e3, 100e3, 25e3):
            estimator.add(sample)
        harmonic = 3.0 / (1 / 100e3 + 1 / 100e3 + 1 / 25e3)
        assert estimator.estimate() == pytest.approx(harmonic)
        assert estimator.estimate() < (100e3 + 100e3 + 25e3) / 3.0

    def test_window_slides(self):
        estimator = ThroughputEstimator(window=2)
        estimator.add(10e3)
        estimator.add(100e3)
        estimator.add(100e3)
        assert estimator.estimate() == pytest.approx(100e3)

    def test_nonpositive_samples_ignored(self):
        estimator = ThroughputEstimator(window=3)
        estimator.add(0.0)
        estimator.add(-5.0)
        assert estimator.estimate() == 0.0


class TestControllerPolicy:
    LADDER = [20e3, 45e3, 80e3, 150e3, 350e3]

    def controller(self, **overrides):
        config = AbrConfig(enabled=True, **overrides)
        return AbrController(config, self.LADDER)

    def test_startup_buffer_pins_lowest_rung(self):
        controller = self.controller()
        assert controller.choose(0.0, 500e3) == 0
        assert controller.choose(4.9, 500e3) == 0

    def test_no_throughput_sample_pins_lowest_rung(self):
        controller = self.controller()
        assert controller.choose(10.0, 0.0) == 0

    def test_highest_safe_rung_selected(self):
        controller = self.controller()
        # 0.9 * 100 kbps = 90 kbps -> rung 2 (80k) fits, rung 3 doesn't.
        assert controller.choose(10.0, 100e3) == 2
        assert controller.choose(10.0, 400e3) == 4

    def test_full_buffer_probes_one_rung_up(self):
        controller = self.controller()
        assert controller.choose(15.0, 100e3) == 3
        # Never past the top of the ladder.
        assert controller.choose(20.0, 1e6) == 4

    def test_single_rung_ladder_always_zero(self):
        controller = AbrController(AbrConfig(enabled=True), [20e3])
        assert controller.choose(0.0, 0.0) == 0
        assert controller.choose(30.0, 1e6) == 0


class TestLadderSubsampling:
    def test_wide_ladder_subsampled_to_max_levels(self):
        clip = make_clip("rtsp://t/wide.rm", ContentKind.NEWS,
                         max_kbps=350, duration_s=60.0)
        rungs = abr_ladder(clip.ladder, 5)
        assert len(rungs) == 5
        assert rungs[0].index == clip.ladder.lowest.index
        assert rungs[-1].index == clip.ladder.highest.index
        rates = [level.total_bps for level in rungs]
        assert rates == sorted(rates)
        assert len({level.index for level in rungs}) == len(rungs)

    def test_narrow_ladder_kept_whole(self):
        clip = make_clip("rtsp://t/narrow.rm", ContentKind.NEWS,
                         max_kbps=45, duration_s=60.0)
        assert len(abr_ladder(clip.ladder, 5)) == len(clip.ladder)

    def test_max_levels_one_keeps_lowest(self):
        clip = make_clip("rtsp://t/wide.rm", ContentKind.NEWS,
                         max_kbps=350, duration_s=60.0)
        rungs = abr_ladder(clip.ladder, 1)
        assert len(rungs) == 1
        assert rungs[0].index == clip.ladder.lowest.index


# ---------------------------------------------------------------------------
# BBR-paced transport
# ---------------------------------------------------------------------------


def bbr_transfer(loop, path, count, until=None):
    conn, _delivered = run_transfer(
        loop, path, count, until=until, sender=BbrConnection
    )
    return conn


class TestBbrConnection:
    """The BBR model only: reliability, ordering and the API contract
    are the stream core's, covered for both senders in
    `test_transport_tcp.py`."""

    def test_loss_repaired_without_rate_collapse(self, loop, lossy_path):
        conn = bbr_transfer(loop, lossy_path, 200, until=120.0)
        assert conn.stats.segments_retransmitted > 0
        # BBR's model is rate-based: losses are repaired but the
        # delivery-rate estimate stays pinned to the bottleneck.
        assert conn.delivery_rate_bps > 0

    def test_reaches_probe_bw_on_a_long_transfer(self, loop, clean_path):
        conn = bbr_transfer(loop, clean_path, 400)
        assert conn.mode == "probe_bw"

    def test_delivery_rate_estimated(self, loop, clean_path):
        conn = bbr_transfer(loop, clean_path, 50)
        assert conn.delivery_rate_bps > 0


# ---------------------------------------------------------------------------
# End-to-end sessions (incl. the degenerate paths)
# ---------------------------------------------------------------------------


def abr_clip(url="rtsp://t/abr.rm", max_kbps=350, duration_s=120.0):
    return make_clip(url, ContentKind.NEWS, max_kbps=max_kbps,
                     duration_s=duration_s)


def build_abr(loop, path, clip, rng, availability=0.0, abr=None,
              **player_kwargs):
    config = abr if abr is not None else AbrConfig(enabled=True)
    server = SegmentServer(
        loop, "T/SRV", {clip.url: clip},
        AvailabilityModel(availability), rng, config=config,
    )
    player_config = PlayerConfig(
        client_max_bps=kbps(450),
        playout=PlayoutConfig(prebuffer_media_s=5.0, rebuffer_media_s=5.0),
        **player_kwargs,
    )
    player = AbrPlayer(loop, path, server, clip.url, player_config)
    return server, player


def drive_abr(loop, path, player, stop_after=40.0):
    path.start()
    player.start()
    stop_event = loop.schedule(stop_after, player.stop)
    while not player.finished:
        if not loop.run_step():
            break
    stop_event.cancel()
    path.stop()


class TestEndToEnd:
    def test_clean_broadband_session_plays(self, loop, clean_path, rng):
        server, player = build_abr(loop, clean_path, abr_clip(), rng)
        drive_abr(loop, clean_path, player)
        assert player.outcome is PlaybackOutcome.PLAYED
        assert player.protocol is Protocol.TCP
        stats = player.stats
        assert stats.frames_displayed > 0
        assert stats.abr_mean_level >= 0.0
        assert stats.mean_bandwidth_bps() > 0
        assert server.sessions_started == 1
        assert player.session.tcp.stats.bytes_delivered > 0

    def test_bbr_session_plays(self, loop, clean_path, rng):
        server, player = build_abr(
            loop, clean_path, abr_clip(), rng,
            abr=AbrConfig(enabled=True, pacing="bbr"),
        )
        drive_abr(loop, clean_path, player)
        assert player.outcome is PlaybackOutcome.PLAYED
        assert isinstance(player.session.tcp, BbrConnection)
        assert player.stats.frames_displayed > 0

    def test_broadband_session_climbs_the_ladder(self, loop, clean_path,
                                                 rng):
        _, player = build_abr(loop, clean_path, abr_clip(), rng)
        drive_abr(loop, clean_path, player, stop_after=60.0)
        # A 2 Mbps bottleneck fits the top rung with margin; the
        # session must not stay pinned at the lowest one.
        assert player.stats.abr_mean_level > 0.0

    def test_unavailable_clip_reported(self, loop, clean_path, rng):
        server, player = build_abr(
            loop, clean_path, abr_clip(), rng, availability=0.999
        )
        drive_abr(loop, clean_path, player)
        assert player.outcome is PlaybackOutcome.UNAVAILABLE
        assert server.describe_failures == 1
        assert player.stats.abr_mean_level == -1.0


class TestDegenerateSessions:
    def test_zero_throughput_all_stall(self, loop, rng):
        """A path too slow for even the lowest rung: the manifest
        exchange succeeds but playout never starts — the all-stall
        session still records as ABR (mean level 0.0, zero frames)."""
        from repro.net.path import NetworkPath, PathProfile

        starved = NetworkPath(loop, PathProfile(
            access_down_bps=kbps(4),
            access_up_bps=kbps(4),
            access_prop_s=0.010,
            bottleneck_bps=kbps(4),
            wan_prop_s=0.030,
            server_up_bps=kbps(2000),
        ), rng)
        _, player = build_abr(loop, starved, abr_clip(), rng)
        drive_abr(loop, starved, player, stop_after=15.0)
        assert player.outcome is PlaybackOutcome.PLAYED
        stats = player.stats
        assert stats.frames_displayed == 0
        assert stats.abr_mean_level == 0.0
        assert stats.playout_started_at is None

    def test_single_segment_clip(self, loop, clean_path, rng):
        """A clip shorter than one segment: exactly one segment, EOS
        on the first response, playout runs to the end."""
        clip = abr_clip(url="rtsp://t/short.rm", duration_s=1.5)
        server, player = build_abr(loop, clean_path, clip, rng)
        drive_abr(loop, clean_path, player, stop_after=30.0)
        assert player.session.segment_count == 1
        assert player.outcome is PlaybackOutcome.PLAYED
        assert player.stats.frames_displayed > 0
        assert player.stats.abr_switch_count == 0

    def test_one_level_ladder(self, loop, clean_path, rng):
        """A single-rung manifest: no switches possible, session still
        plays end to end."""
        clip = abr_clip(url="rtsp://t/onelevel.rm", max_kbps=20)
        server, player = build_abr(
            loop, clean_path, clip, rng,
            abr=AbrConfig(enabled=True, max_levels=1),
        )
        drive_abr(loop, clean_path, player)
        assert len(player.session.ladder) == 1
        assert player.outcome is PlaybackOutcome.PLAYED
        assert player.stats.frames_displayed > 0
        assert player.stats.abr_switch_count == 0
        assert player.stats.abr_mean_level == 0.0


# ---------------------------------------------------------------------------
# Study integration + determinism
# ---------------------------------------------------------------------------


def _dash_config(scenario="dash-abr", seed=2001, scale=0.05, max_users=10):
    return configured(
        get_scenario(scenario),
        StudyConfig(seed=seed, scale=scale, max_users=max_users),
    )


def _csv_digest(csv_text: str) -> str:
    return hashlib.sha256(csv_text.encode()).hexdigest()


#: sha256 of the serial study CSVs below (seed 2001, scale 0.05),
#: generated at the commit before the transport/player cores were
#: split out.  With the RDT/Reno goldens and the `TcpStats` pins in
#: `test_transport_tcp.py` these localise a drift: goldens move ->
#: player core or Reno; only these move -> the ABR front end; only the
#: BBR one moves -> the BBR controller.
DASH_ABR_CSV_SHA256 = (
    "5f179d88ff8ea524a6128287a89443caa10872343cd4a680d0bc94ef7db6ea64"
)  # dash-abr, max_users=10
DASH_ABR_BBR_CSV_SHA256 = (
    "58004e52ae9a0934ee233f7036af7cfa344eda117aacb6b3aac7bb5e9367e178"
)  # dash-abr-bbr, max_users=6


@pytest.fixture(scope="module")
def dash_serial_csv() -> str:
    return Study(_dash_config()).run().to_csv_string()


class TestStudyIntegration:
    def test_dash_study_produces_abr_records(self, dash_serial_csv):
        from repro.core.records import StudyDataset

        dataset = StudyDataset.from_csv_string(dash_serial_csv)
        abr = [r for r in dataset if r.is_abr]
        assert abr, "dash-abr study produced no ABR records"
        assert all(r.protocol == "TCP" for r in abr)
        assert all(r.mean_level >= 0.0 for r in abr)
        assert all(r.stall_count >= 0 and r.stall_seconds >= 0.0
                   for r in abr)

    def test_rtsp_blocked_users_play_over_http(self):
        """The paper's firewalled users (RTSP dropped outright) stream
        fine over the DASH stack: HTTP passes their firewalls."""
        config = _dash_config(scale=0.02, max_users=None)
        study = Study(config)
        blocked = {
            u.user_id for u in study.population.users if u.rtsp_blocked
        }
        assert blocked, "population should contain rtsp-blocked users"
        dataset = study.run()
        outcomes = {
            r.outcome for r in dataset if r.user_id in blocked
        }
        assert "control_failed" not in outcomes
        assert "played" in outcomes

    def test_config_round_trips_through_canonical_dict(self):
        config = _dash_config(scenario="dash-abr-bbr")
        revived = StudyConfig.from_dict(config.to_canonical_dict())
        assert revived.tracer.abr == config.tracer.abr
        assert revived.canonical_hash() == config.canonical_hash()

    def test_reno_and_bbr_cells_hash_differently(self):
        assert _dash_config().canonical_hash() != \
            _dash_config(scenario="dash-abr-bbr").canonical_hash()


class _KillRun(Exception):
    pass


class TestDashAbrDeterminism:
    """The determinism matrix for the modern stack: same seed, any
    worker count, fresh or kill+resumed — one sha256."""

    def test_serial_csv_matches_pin(self, dash_serial_csv):
        assert _csv_digest(dash_serial_csv) == DASH_ABR_CSV_SHA256

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_worker_counts_hash_identical(self, workers, dash_serial_csv):
        result = run_study(
            _dash_config(), RuntimeConfig(workers=workers, shard_count=4)
        )
        assert _csv_digest(result.dataset.to_csv_string()) == \
            _csv_digest(dash_serial_csv)

    def test_killed_run_resumes_to_same_hash(self, dash_serial_csv,
                                             tmp_path):
        expected = _csv_digest(dash_serial_csv)
        ckpt = tmp_path / "ckpt"

        def kill_after_one_shard(telemetry) -> None:
            if any(
                s.status == "done" for s in telemetry.shards.values()
            ):
                raise _KillRun

        with pytest.raises(_KillRun):
            run_study(
                _dash_config(),
                RuntimeConfig(
                    workers=1, shard_count=4, checkpoint_dir=ckpt,
                    progress=kill_after_one_shard,
                ),
            )
        resumed = run_study(
            _dash_config(),
            RuntimeConfig(
                workers=2, shard_count=4, checkpoint_dir=ckpt,
                resume=True,
            ),
        )
        assert _csv_digest(resumed.dataset.to_csv_string()) == expected
        assert any(
            s.status == "resumed"
            for s in resumed.telemetry.shards.values()
        )

    def test_bbr_variant_parallel_matches_serial(self):
        config = _dash_config(scenario="dash-abr-bbr", max_users=6)
        serial = Study(config).run().to_csv_string()
        assert _csv_digest(serial) == DASH_ABR_BBR_CSV_SHA256
        parallel = run_study(
            config, RuntimeConfig(workers=2, shard_count=3)
        ).dataset.to_csv_string()
        assert parallel == serial

    def test_baseline_rng_stream_untouched_by_abr_wiring(self):
        """The tentpole's guard rail: with ABR disabled, the tracer
        must draw the exact same RNG stream as before the refactor —
        pinned by the byte-identical golden suite, restated here on a
        fresh config pair."""
        base = StudyConfig(seed=11, scale=0.05, max_users=6)
        assert not base.tracer.abr.enabled
        first = Study(base).run().to_csv_string()
        second = Study(base).run().to_csv_string()
        assert first == second
