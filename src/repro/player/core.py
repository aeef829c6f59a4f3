"""The player core every protocol front end shares.

The paper's RealPlayer is one client — one control exchange, one
reassembler/decoder/playout buffer — that merely *negotiates* which
data transport runs underneath it.  :class:`PlayerCore` is that client
minus the negotiation: stats/reassembler/decoder/:class:`PlayoutEngine`
wiring, the control channel with its one-retry timeout, the
start/stop/finish lifecycle and outcome rule, done-callback chaining,
the read-only audit surface, and one-second timeline sampling.

A protocol front end subclasses it and supplies the conversation:
:class:`~repro.player.realplayer.RealPlayer` (RTSP DESCRIBE/SETUP/PLAY
with the UDP-probe fallback) and :class:`~repro.abr.client.AbrPlayer`
(manifest + segment pulls) are the two in the tree.  `RealTracer` and
`repro.validate` drive and audit the core type only.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.net.path import NetworkPath
from repro.player.buffer import Reassembler
from repro.player.decoder import Decoder, DecoderProfile, UNCONSTRAINED_PROFILE
from repro.player.playout import PlaybackState, PlayoutConfig, PlayoutEngine
from repro.player.stats import BandwidthSample, ClipStats
from repro.server.rtsp import ControlChannel
from repro.sim.engine import EventLoop, Timer
from repro.transport.base import Protocol


class PlaybackOutcome(enum.Enum):
    """How a playback attempt ended."""

    PLAYED = "played"
    UNAVAILABLE = "unavailable"
    CONTROL_FAILED = "control_failed"


@dataclass
class PlayerConfig:
    """Client-side configuration for one playback."""

    #: The RealPlayer "maximum bandwidth" setting, bits/second.  Users
    #: configure this from their connection type.
    client_max_bps: float
    #: The environment forces TCP (RTSP-unfriendly NAT/firewall, or a
    #: user-configured TCP-only player).
    force_tcp: bool = False
    #: Wait this long after PLAY before judging the UDP data channel.
    probe_timeout_s: float = 4.0
    #: If fewer bytes than this arrived by then, fall back to TCP
    #: (even the lowest SureStream level delivers ~10 KB in 4 s).
    probe_min_bytes: int = 2500
    #: Give up on an unanswered control request after this long.
    control_timeout_s: float = 10.0
    #: Playout buffering policy.
    playout: PlayoutConfig = field(default_factory=PlayoutConfig)
    #: Record one-second timeline samples (Figure 1).
    sample_timeline: bool = False


class PlayerCore:
    """One client playing one clip from one server.

    A front end implements :meth:`_opening_request` and
    :meth:`_on_control_message`, stores the server-side session it
    negotiates in ``_session`` (anything with ``tcp``/``udp``/``stats``
    and ``stop()``) with ``protocol`` set to match, points the
    session's ``on_deliver`` at ``_reassembler.on_payload``, and calls
    :meth:`_accept_play`, :meth:`_set_coded` and ``engine.mark_eos`` as
    the conversation unfolds.
    """

    def __init__(
        self,
        loop: EventLoop,
        path: NetworkPath,
        server: Any,
        clip_url: str,
        config: PlayerConfig,
        decoder_profile: DecoderProfile | None = None,
        on_done: Callable[[PlaybackOutcome], None] | None = None,
    ) -> None:
        self._loop = loop
        self._path = path
        self._server = server
        self.clip_url = clip_url
        self.config = config
        self._on_done = on_done

        self.stats = ClipStats()
        self._reassembler = Reassembler(self._on_frame_complete)
        self._decoder = Decoder(
            decoder_profile if decoder_profile is not None else UNCONSTRAINED_PROFILE
        )
        self.engine = PlayoutEngine(
            loop,
            self._decoder,
            self.stats,
            config=config.playout,
            coded_info=self._coded_info,
            on_media_advance=self._reassembler.expire_before,
        )

        self.protocol: Protocol | None = None
        self.outcome: PlaybackOutcome | None = None
        self._channel: ControlChannel | None = None
        self._connection: Any = None
        self._session: Any = None
        self._coded_bps = 0.0
        self._coded_fps = 15.0
        self._started = False
        self._done = False
        self._play_accepted = False
        self._control_timer = Timer(loop, self._on_control_timeout)
        self._control_retried = False
        self._pending_request: object | None = None
        self._sample_event = None
        self._last_sample_bytes = 0
        self._last_sample_frames = 0

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Kick off the control exchange."""
        if self._started:
            return
        self._started = True
        self.stats.started_at = self._loop.now
        self._channel = ControlChannel(self._loop, self._path)
        self._channel.on_client_receive = self._on_control_message
        self._connection = self._server.attach(self._channel, self._path)
        self._send_request(self._opening_request())
        if self.config.sample_timeline:
            self._sample_event = self._loop.schedule(1.0, self._sample)

    def stop(self) -> None:
        """Stop playback and tear the session down."""
        if self._done:
            return
        # A playback counts as "played" once the server accepted the
        # session: RealTracer recorded statistics for clips that
        # buffered without ever rendering a frame (they are the 0-fps
        # points of the paper's frame-rate CDFs), not as failures.
        self._finish(
            self.outcome
            if self.outcome is not None
            else (
                PlaybackOutcome.PLAYED
                if self._play_accepted
                else PlaybackOutcome.CONTROL_FAILED
            )
        )

    def add_done_callback(
        self, callback: Callable[[PlaybackOutcome], None]
    ) -> None:
        """Invoke ``callback(outcome)`` when playback finishes.

        Runs after any constructor-supplied ``on_done``; if playback
        already finished, the callback fires immediately (future-style
        semantics, so drivers can attach it without racing the control
        exchange).
        """
        if self._done:
            assert self.outcome is not None
            callback(self.outcome)
            return
        prev = self._on_done
        if prev is None:
            self._on_done = callback
        else:

            def chained(outcome: PlaybackOutcome) -> None:
                prev(outcome)
                callback(outcome)

            self._on_done = chained

    def _finish(self, outcome: PlaybackOutcome) -> None:
        if self._done:
            return
        self._done = True
        self.outcome = outcome
        self.engine.stop()
        self.stats.frames_lost = self._reassembler.frames_expired_incomplete
        self.stats.bytes_received = self._reassembler.bytes_received
        self._control_timer.cancel()
        if self._sample_event is not None:
            self._sample_event.cancel()
        self._on_finish()
        if self._session is not None:
            self._session.stop()
        if self._channel is not None:
            self._channel.close()
        if self._on_done is not None:
            self._on_done(outcome)

    @property
    def finished(self) -> bool:
        return self._done

    # -- introspection (read-only, used by repro.validate) ------------------

    @property
    def reassembler(self) -> Reassembler:
        """The frame reassembler (read-only audits)."""
        return self._reassembler

    @property
    def decoder(self) -> Decoder:
        """The decoder model (read-only audits)."""
        return self._decoder

    @property
    def session(self) -> Any:
        """The server-side session, once the front end negotiated one."""
        return self._session

    @property
    def renegotiated(self) -> bool:
        """True when the data channel was renegotiated mid-playback,
        which resets server-side frame numbering."""
        return False

    # -- control plane ------------------------------------------------------

    def _send_request(self, request: object) -> None:
        """Send a control request that expects an answer."""
        assert self._channel is not None
        self._pending_request = request
        self._control_timer.start(self.config.control_timeout_s)
        self._channel.send_from_client(request)

    def _request_answered(self) -> None:
        self._control_timer.cancel()
        self._pending_request = None

    def _on_control_timeout(self) -> None:
        if self._done:
            return
        if not self._control_retried and self._pending_request is not None:
            self._control_retried = True
            assert self._channel is not None
            self._control_timer.start(self.config.control_timeout_s)
            self._channel.send_from_client(self._pending_request)
            return
        self._finish(PlaybackOutcome.CONTROL_FAILED)

    def _accept_play(self) -> None:
        """The server accepted the session: start buffering."""
        self._play_accepted = True
        if self.engine.state is PlaybackState.IDLE:
            self.engine.begin_buffering()

    def _set_coded(self, total_bps: float, frame_rate: float) -> None:
        """The server announced the encoding it is sending now."""
        self._coded_bps = total_bps
        self._coded_fps = frame_rate
        self.stats.coded_history.append((self._loop.now, total_bps, frame_rate))

    # -- front-end hooks ------------------------------------------------------

    def _opening_request(self) -> object:
        """The first control request of the conversation."""
        raise NotImplementedError

    def _on_control_message(self, message: object) -> None:
        """A control message arrived from the server."""
        raise NotImplementedError

    def _on_finish(self) -> None:
        """Playback is ending: cancel any front-end timers."""

    # -- data plane -------------------------------------------------------------

    def _on_frame_complete(self, frame) -> None:
        self.engine.on_frame_complete(frame)

    def _coded_info(self) -> tuple[float, float]:
        if self._coded_bps <= 0:
            return (300_000.0, self._coded_fps)
        return (self._coded_bps, self._coded_fps)

    # -- timeline sampling --------------------------------------------------------

    def _sample(self) -> None:
        if self._done:
            return
        bytes_now = self._reassembler.bytes_received
        frames_now = len(self.stats.frame_times)
        self.stats.samples.append(
            BandwidthSample(
                at_s=self._loop.now - self.stats.started_at,
                bandwidth_bps=(bytes_now - self._last_sample_bytes) * 8.0,
                frame_rate_fps=float(frames_now - self._last_sample_frames),
                coded_bandwidth_bps=self._coded_bps,
                coded_frame_rate_fps=self._coded_fps,
            )
        )
        self._last_sample_bytes = bytes_now
        self._last_sample_frames = frames_now
        self._sample_event = self._loop.schedule(1.0, self._sample)
