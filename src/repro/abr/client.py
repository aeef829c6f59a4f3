"""The DASH-style ABR client: the HTTP front end of the player core.

:class:`AbrPlayer` is a :class:`~repro.player.core.PlayerCore` — the
same lifecycle, control channel, playout and audit surface as
:class:`~repro.player.realplayer.RealPlayer`, so `repro.core.realtracer`
and `repro.validate` drive it as the same type.  Instead of RTSP
negotiation it runs the HTTP-shaped loop:

1. GET the manifest (it may be unavailable — the ABR analog of the
   paper's Figure 10 failures);
2. pull segments one at a time, each at the rung the buffer-based
   :class:`~repro.abr.controller.AbrController` picks, pausing when
   the buffer reaches its target;
3. play out through the unchanged :class:`~repro.player.playout.PlayoutEngine`
   (stalls land in ``rebuffer_count``/``rebuffer_total_s`` exactly as
   for the 2001 stack).

Per-segment throughput is sampled from the in-band
:class:`~repro.abr.messages.SegmentEnd` marker: the segment's payload
bytes over the request-to-marker wall time.
"""

from __future__ import annotations

from typing import Callable

from repro.abr.config import AbrConfig
from repro.abr.controller import AbrController, ThroughputEstimator
from repro.abr.messages import (
    AbrManifest,
    ManifestRequest,
    ManifestResponse,
    SegmentEnd,
    SegmentRequest,
)
from repro.abr.server import SegmentServer
from repro.net.path import NetworkPath
from repro.player.core import PlaybackOutcome, PlayerConfig, PlayerCore
from repro.player.decoder import DecoderProfile
from repro.sim.engine import EventLoop
from repro.transport.base import Protocol

#: Re-check period once the buffer target pauses segment requests.
IDLE_RECHECK_MIN_S = 0.2


class AbrPlayer(PlayerCore):
    """One client pulling one clip's segments from a segment server."""

    def __init__(
        self,
        loop: EventLoop,
        path: NetworkPath,
        server: SegmentServer,
        clip_url: str,
        config: PlayerConfig,
        abr: AbrConfig | None = None,
        decoder_profile: DecoderProfile | None = None,
        on_done: Callable[[PlaybackOutcome], None] | None = None,
    ) -> None:
        super().__init__(
            loop, path, server, clip_url, config, decoder_profile, on_done
        )
        self.abr = abr if abr is not None else server.config
        self._manifest: AbrManifest | None = None
        self._controller: AbrController | None = None
        self._estimator = ThroughputEstimator(self.abr.throughput_window)
        self._next_segment = 0
        self._pending: tuple[int, int, float] | None = None
        self._last_position: int | None = None
        self._level_time = 0.0
        self._level_weight = 0.0
        self._idle_event = None

    def _on_finish(self) -> None:
        if self._idle_event is not None:
            self._idle_event.cancel()

    # -- control plane ------------------------------------------------------

    def _opening_request(self) -> ManifestRequest:
        return ManifestRequest(self.clip_url, self.config.client_max_bps)

    def _on_control_message(self, message: object) -> None:
        if self._done or not isinstance(message, ManifestResponse):
            return
        self._request_answered()
        if not message.ok or message.manifest is None:
            self._finish(PlaybackOutcome.UNAVAILABLE)
            return
        self._manifest = message.manifest
        self._session = message.session
        self.protocol = Protocol.TCP
        self._session.tcp.on_deliver = self._on_payload
        self._controller = AbrController(
            self.abr, [level.total_bps for level in self._manifest.levels]
        )
        # From here the record classifies as ABR even if zero segments
        # ever arrive (the all-stall degenerate case).
        self.stats.abr_mean_level = 0.0
        first = self._manifest.levels[0]
        self._set_coded(first.total_bps, first.frame_rate)
        self._accept_play()
        self._request_next()

    # -- the segment request loop --------------------------------------------

    def buffer_level_s(self) -> float:
        """Media seconds buffered ahead of the playhead."""
        return max(
            0.0,
            self.engine.buffer.newest_media_time
            - self.engine.current_media_time(),
        )

    def _request_next(self) -> None:
        if self._done or self._manifest is None or self._pending is not None:
            return
        if self._next_segment >= self._manifest.segment_count:
            return
        assert self._channel is not None
        if self._channel.failed:
            return  # the tracer's session cap will reap this playback
        buffered = self.buffer_level_s()
        if buffered >= self.abr.target_buffer_s:
            # Buffer full: hold off until it drains back to the target.
            delay = max(
                IDLE_RECHECK_MIN_S, buffered - self.abr.target_buffer_s
            )
            self._idle_event = self._loop.schedule(delay, self._on_idle)
            return
        assert self._controller is not None
        position = self._controller.choose(buffered, self._estimator.estimate())
        if self._last_position is not None and position != self._last_position:
            self.stats.abr_switch_count += 1
        self._last_position = position
        index = self._next_segment
        self._next_segment += 1
        self._pending = (index, position, self._loop.now)
        self._channel.send_from_client(
            SegmentRequest(self.clip_url, index, position)
        )

    def _on_idle(self) -> None:
        self._idle_event = None
        self._request_next()

    # -- data plane -----------------------------------------------------------

    def _on_payload(self, payload: object, size: int) -> None:
        self._reassembler.on_payload(payload, size)
        if isinstance(payload, SegmentEnd):
            self._on_segment_end(payload)

    def _on_segment_end(self, end: SegmentEnd) -> None:
        if self._done:
            return
        now = self._loop.now
        if self._pending is not None and end.segment_index == self._pending[0]:
            requested_at = self._pending[2]
            elapsed = now - requested_at
            if elapsed > 0.0 and end.payload_bytes > 0:
                self._estimator.add(end.payload_bytes * 8.0 / elapsed)
        self._pending = None
        span = max(0.0, end.media_end - end.media_start)
        self._level_time += span
        self._level_weight += end.level_position * span
        if self._level_time > 0.0:
            self.stats.abr_mean_level = self._level_weight / self._level_time
        if (end.total_bps, end.frame_rate) != (
            self._coded_bps,
            self._coded_fps,
        ):
            self._set_coded(end.total_bps, end.frame_rate)
        if end.eos:
            self.engine.mark_eos(end.final_media_time)
        else:
            self._request_next()
