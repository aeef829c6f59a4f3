"""RealTracer: the instrumented player (the paper's measurement tool).

One :class:`RealTracer` call plays one clip end to end on a fresh
event loop — path, server, RTSP exchange, streaming, playout — and
returns the :class:`~repro.core.records.ClipRecord` that the real tool
emailed/FTPed to WPI.

The tracer is player-agnostic (the "MediaTracer" extension of the
paper's future work): it drives any
:class:`~repro.player.core.PlayerCore` front end, which it builds
through an injectable factory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.abr.client import AbrPlayer
from repro.abr.config import AbrConfig
from repro.abr.server import SegmentServer
from repro.core.records import ClipRecord
from repro.media.clip import VideoClip
from repro.player.playout import PlayoutConfig
from repro.player.core import PlaybackOutcome, PlayerConfig, PlayerCore
from repro.player.realplayer import RealPlayer
from repro.quality.rating import RatingBehavior
from repro.server.availability import AvailabilityModel
from repro.server.realserver import RealServer
from repro.server.session import SessionConfig
from repro.sim.engine import EventLoop
from repro.units import DEFAULT_CLIP_PLAY_SECONDS
from repro.validate import ValidationConfig, ValidationLedger, audit_playback
from repro.world.paths import PathFactory
from repro.world.servers import ServerSite
from repro.world.users import UserProfile


@dataclass
class TracerConfig:
    """RealTracer's options window (paper Figure 2b, "Options")."""

    #: How long each clip is played (the 1-minute default).
    play_limit_s: float = DEFAULT_CLIP_PLAY_SECONDS
    #: Hard wall-clock cap on one playback attempt, buffering included.
    session_cap_s: float = 150.0
    #: Record one-second timeline samples (Figure 1).
    sample_timeline: bool = False
    #: Use RED at the wide-area bottleneck (queueing ablation).
    red_bottleneck: bool = False
    #: Playout buffering policy handed to the player.
    playout: PlayoutConfig = field(default_factory=PlayoutConfig)
    #: Server-side streaming policy.
    session: SessionConfig = field(default_factory=SessionConfig)
    #: The modern DASH-style stack (off: the 2001 RealVideo stack).
    abr: AbrConfig = field(default_factory=AbrConfig)


#: Signature of the player factory (MediaTracer extension point).
PlayerFactory = Callable[
    [EventLoop, object, RealServer, str, PlayerConfig, object], PlayerCore
]


class RealTracer:
    """Plays clips and records performance statistics."""

    def __init__(
        self,
        config: TracerConfig | None = None,
        path_factory: PathFactory | None = None,
        rating_behavior: RatingBehavior | None = None,
        player_factory: PlayerFactory | None = None,
        validation: ValidationConfig | None = None,
        ledger: ValidationLedger | None = None,
    ) -> None:
        self.config = config if config is not None else TracerConfig()
        self._paths = path_factory if path_factory is not None else PathFactory()
        self._rating = (
            rating_behavior if rating_behavior is not None else RatingBehavior()
        )
        # RealPlayer's own constructor has the factory's signature.
        self._player_factory = (
            player_factory if player_factory is not None else RealPlayer
        )
        self.validation = validation if validation is not None else ValidationConfig()
        if ledger is not None:
            self.ledger: ValidationLedger | None = ledger
        elif self.validation.enabled:
            self.ledger = ValidationLedger(
                strict=self.validation.strict,
                max_recorded=self.validation.max_recorded,
            )
        else:
            self.ledger = None
        #: The last player driven (exposed for timeline figures/tests).
        self.last_player: PlayerCore | None = None

    def play_clip(
        self,
        user: UserProfile,
        site: ServerSite,
        clip: VideoClip,
        rng: np.random.Generator,
        rate_it: bool = False,
    ) -> ClipRecord:
        """Play one clip for one user and return its record."""
        abr_enabled = self.config.abr.enabled
        if user.rtsp_blocked and not abr_enabled:
            # The user's firewall drops RTSP outright (paper Section
            # IV); nothing to simulate — the attempt dies at setup.
            # The DASH stack is plain HTTP and passes these firewalls.
            return self._blocked_record(user, site, clip)
        loop = EventLoop(
            strict=self.validation.enabled and self.validation.engine_strict
        )
        path = self._paths.build(
            loop, user, site, rng, red_bottleneck=self.config.red_bottleneck
        )
        player_config = PlayerConfig(
            client_max_bps=user.client_max_bps,
            force_tcp=user.force_tcp,
            playout=self.config.playout,
            sample_timeline=self.config.sample_timeline,
        )
        if abr_enabled:
            segment_server = SegmentServer(
                loop=loop,
                name=site.name,
                clips={clip.url: clip},
                availability=AvailabilityModel(site.unavailable_fraction),
                rng=rng,
                config=self.config.abr,
            )
            player = AbrPlayer(
                loop=loop,
                path=path,
                server=segment_server,
                clip_url=clip.url,
                config=player_config,
                decoder_profile=user.pc.profile,
            )
        else:
            server = RealServer(
                loop=loop,
                name=site.name,
                clips={clip.url: clip},
                availability=AvailabilityModel(site.unavailable_fraction),
                rng=rng,
                session_config=self.config.session,
            )
            player = self._player_factory(
                loop, path, server, clip.url, player_config, user.pc.profile
            )
        self.last_player = player

        path.start()
        player.start()
        self._drive(loop, player)
        path.stop()

        rating = -1
        if rate_it and player.outcome is PlaybackOutcome.PLAYED:
            # Users rated whatever they sat through — including clips
            # that buffered for the whole minute and never rendered.
            rating = self._rating.rate(user, player.stats, rng)
        record = self._record(user, site, clip, player, rating)
        if self.validation.enabled and self.ledger is not None:
            audit_playback(self.ledger, self.validation, player, path, record)
        return record

    # -- internals ----------------------------------------------------------

    def _drive(self, loop: EventLoop, player: PlayerCore) -> None:
        """Run the loop until the playback ends.

        The tracer stops the clip ``play_limit_s`` after playout starts
        (the 1-minute default), with a hard cap on the whole attempt.
        """
        config = self.config
        hard_stop = loop.schedule(config.session_cap_s, player.stop)

        def watch() -> None:
            if player.finished:
                return
            stats = player.stats
            if (
                stats.playout_started_at is not None
                and loop.now >= stats.playout_started_at + config.play_limit_s
            ):
                player.stop()
                return
            loop.schedule(0.5, watch)

        loop.schedule(0.5, watch)
        # The player tells the loop to stop the moment it finishes, so
        # the run itself is the tight predicate-free dispatch loop (the
        # hard-stop event bounds it even if the player never signals).
        player.add_done_callback(lambda _outcome: loop.stop())
        loop.run()
        hard_stop.cancel()

    def _blocked_record(
        self, user: UserProfile, site: ServerSite, clip: VideoClip
    ) -> ClipRecord:
        return ClipRecord(
            user_id=user.user_id,
            user_country=user.country.code,
            user_state=user.state if user.state is not None else "",
            user_region=user.region.value,
            connection=user.connection.name,
            pc_class=user.pc.name,
            server_name=site.name,
            server_country=site.country.code,
            server_region=site.region.value,
            clip_url=clip.url,
            outcome=PlaybackOutcome.CONTROL_FAILED.value,
            protocol="",
            encoded_bandwidth_bps=0.0,
            encoded_frame_rate=0.0,
            measured_bandwidth_bps=0.0,
            measured_frame_rate=0.0,
            jitter_s=0.0,
            frames_displayed=0,
            frames_late=0,
            frames_lost=0,
            frames_thinned=0,
            rebuffer_count=0,
            rebuffer_total_s=0.0,
            initial_buffering_s=-1.0,
            play_span_s=0.0,
            cpu_utilization=0.0,
            rating=-1,
        )

    def _record(
        self,
        user: UserProfile,
        site: ServerSite,
        clip: VideoClip,
        player: PlayerCore,
        rating: int,
    ) -> ClipRecord:
        stats = player.stats
        outcome = (
            player.outcome.value
            if player.outcome is not None
            else PlaybackOutcome.CONTROL_FAILED.value
        )
        # ABR QoE: only a session the segment server accepted reports a
        # ladder position (stalls are the engine's rebuffer counters).
        is_abr = (
            stats.abr_mean_level >= 0.0
            and outcome == PlaybackOutcome.PLAYED.value
        )
        return ClipRecord(
            user_id=user.user_id,
            user_country=user.country.code,
            user_state=user.state if user.state is not None else "",
            user_region=user.region.value,
            connection=user.connection.name,
            pc_class=user.pc.name,
            server_name=site.name,
            server_country=site.country.code,
            server_region=site.region.value,
            clip_url=clip.url,
            outcome=outcome,
            protocol=str(player.protocol) if player.protocol is not None else "",
            encoded_bandwidth_bps=stats.coded_bandwidth_bps(),
            encoded_frame_rate=stats.coded_frame_rate(),
            measured_bandwidth_bps=stats.mean_bandwidth_bps(),
            measured_frame_rate=stats.mean_frame_rate(),
            jitter_s=stats.jitter_s(),
            frames_displayed=stats.frames_displayed,
            frames_late=stats.frames_late,
            frames_lost=stats.frames_lost,
            frames_thinned=stats.frames_thinned,
            rebuffer_count=stats.rebuffer_count,
            rebuffer_total_s=stats.rebuffer_total_s,
            initial_buffering_s=(
                stats.initial_buffering_s
                if stats.initial_buffering_s is not None
                else -1.0
            ),
            play_span_s=stats.play_span_s,
            cpu_utilization=stats.cpu_utilization,
            stall_count=stats.rebuffer_count if is_abr else 0,
            stall_seconds=stats.rebuffer_total_s if is_abr else 0.0,
            switch_count=stats.abr_switch_count if is_abr else 0,
            mean_level=stats.abr_mean_level if is_abr else -1.0,
            rating=rating,
        )
