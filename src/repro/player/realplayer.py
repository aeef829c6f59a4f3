"""The RealPlayer analog: the RTSP front end of the player core.

Drives the client side of one playback's negotiation:

1. DESCRIBE the clip (it may be unavailable, Figure 10);
2. SETUP the data channel — UDP by default, TCP when the environment
   forces it, with an automatic TCP fallback when a UDP setup produces
   no data (the "auto-configuration of protocols" of Section II.A);
3. PLAY — buffering and playout are the
   :class:`~repro.player.core.PlayerCore`'s;
4. TEARDOWN on stop.

The tracer reads the resulting :class:`~repro.player.stats.ClipStats`.
"""

from __future__ import annotations

from typing import Callable

from repro.net.path import NetworkPath
from repro.player.core import PlaybackOutcome, PlayerConfig, PlayerCore
from repro.player.decoder import DecoderProfile
from repro.server.realserver import RealServer
from repro.server.rtsp import (
    RtspMethod,
    RtspRequest,
    RtspResponse,
    RtspStatus,
)
from repro.server.session import EndOfStream, LevelSwitch, StreamingSession
from repro.sim.engine import EventLoop, Timer
from repro.transport.base import Protocol

__all__ = ["PlaybackOutcome", "PlayerConfig", "RealPlayer"]


class RealPlayer(PlayerCore):
    """One client playing one clip from one RealServer."""

    def __init__(
        self,
        loop: EventLoop,
        path: NetworkPath,
        server: RealServer,
        clip_url: str,
        config: PlayerConfig,
        decoder_profile: DecoderProfile | None = None,
        on_done: Callable[[PlaybackOutcome], None] | None = None,
    ) -> None:
        super().__init__(
            loop, path, server, clip_url, config, decoder_profile, on_done
        )
        self._udp_fallback_done = False
        self._probe_timer = Timer(loop, self._on_probe_timeout)

    def stop(self) -> None:
        """Stop playback and tear the session down."""
        if (
            not self._done
            and self._channel is not None
            and not self._channel.failed
        ):
            self._channel.send_from_client(
                RtspRequest(RtspMethod.TEARDOWN, self.clip_url)
            )
        super().stop()

    def _on_finish(self) -> None:
        self._probe_timer.cancel()

    @property
    def renegotiated(self) -> bool:
        """True when the data channel was renegotiated (UDP→TCP
        fallback), which resets server-side frame numbering."""
        return self._udp_fallback_done

    # -- control plane --------------------------------------------------------

    def _opening_request(self) -> RtspRequest:
        return RtspRequest(RtspMethod.DESCRIBE, self.clip_url)

    def _setup_request(self, transport: Protocol) -> RtspRequest:
        return RtspRequest(
            RtspMethod.SETUP,
            self.clip_url,
            transport=transport,
            client_max_bps=self.config.client_max_bps,
        )

    def _on_control_message(self, message: object) -> None:
        if self._done:
            return
        if isinstance(message, RtspResponse):
            self._request_answered()
            self._on_response(message)
        elif isinstance(message, LevelSwitch):
            self._set_coded(message.total_bps, message.frame_rate)
        elif isinstance(message, EndOfStream):
            self.engine.mark_eos(message.final_media_time)

    def _on_response(self, response: RtspResponse) -> None:
        if response.method is RtspMethod.DESCRIBE:
            if response.status is not RtspStatus.OK:
                self._finish(PlaybackOutcome.UNAVAILABLE)
                return
            self._send_request(
                self._setup_request(
                    Protocol.TCP if self.config.force_tcp else Protocol.UDP
                )
            )
        elif response.method is RtspMethod.SETUP:
            if response.status is not RtspStatus.OK:
                self._finish(PlaybackOutcome.CONTROL_FAILED)
                return
            self._attach_session(response.body, response.transport)
            self._send_request(RtspRequest(RtspMethod.PLAY, self.clip_url))
        elif response.method is RtspMethod.PLAY:
            if response.status is not RtspStatus.OK:
                self._finish(PlaybackOutcome.CONTROL_FAILED)
                return
            self._accept_play()
            if self.protocol is Protocol.UDP and not self._udp_fallback_done:
                self._probe_timer.start(self.config.probe_timeout_s)
        # TEARDOWN responses need no action.

    def _attach_session(
        self, session: StreamingSession, transport: Protocol | None
    ) -> None:
        self._session = session
        self.protocol = transport
        if session.tcp is not None:
            session.tcp.on_deliver = self._reassembler.on_payload
        if session.udp is not None:
            session.udp.on_deliver = self._reassembler.on_payload

    def _on_probe_timeout(self) -> None:
        """UDP delivered (almost) nothing after PLAY: fall back to TCP.

        This is the auto-configuration behavior of Section II.A — the
        player transparently renegotiates the data channel when the
        UDP stream is blocked or effectively dead.
        """
        if self._done or (
            self._reassembler.bytes_received >= self.config.probe_min_bytes
        ):
            return
        self._udp_fallback_done = True
        self._send_request(self._setup_request(Protocol.TCP))
