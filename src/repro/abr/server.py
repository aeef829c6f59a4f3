"""The DASH-style segment server.

One :class:`SegmentServer` stands where :class:`~repro.server.realserver.RealServer`
stands in the 2001 stack: it hosts clips and answers a client's
control channel — but the protocol is HTTP-shaped (manifest GET, then
client-pulled segment GETs) instead of RTSP-negotiated server push.
The segment bytes flow through a Reno :class:`~repro.transport.tcp.TcpConnection`
or a BBR-paced :class:`~repro.transport.bbr.BbrConnection`, chosen by
``AbrConfig.pacing``; HTTP always traverses the firewalls that blocked
RTSP, so there is no transport negotiation and no UDP fallback.

Each served frame is re-indexed with a session-global counter before
packetizing: the per-rung :class:`~repro.media.frame_source.FrameSource`
instances number their own frames from zero, and the client's
reassembler dedups by frame index.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from repro.abr.config import PACING_BBR, AbrConfig
from repro.abr.messages import (
    SEGMENT_END_BYTES,
    AbrManifest,
    LevelInfo,
    ManifestRequest,
    ManifestResponse,
    SegmentEnd,
    SegmentRequest,
)
from repro.errors import RtspError
from repro.media.clip import VideoClip
from repro.media.codec import EncodingLadder, EncodingLevel
from repro.media.frame_source import FrameSource
from repro.media.packetizer import Packetizer
from repro.net.path import NetworkPath
from repro.server.availability import AvailabilityModel
from repro.server.realserver import MAX_PROCESSING_S, MIN_PROCESSING_S
from repro.server.rtsp import ControlChannel
from repro.server.session import AudioChunk, SessionStats
from repro.sim.engine import EventLoop
from repro.transport.bbr import BbrConnection
from repro.transport.stream import ReliableStream
from repro.transport.tcp import TcpConnection

#: Audio packet payload size (matches the RealVideo session default).
AUDIO_CHUNK_BYTES = 250


def abr_ladder(ladder: EncodingLadder, max_levels: int) -> list[EncodingLevel]:
    """Subsample a SureStream ladder down to at most ``max_levels``.

    Rungs are picked evenly across the ladder (always including the
    lowest and highest), preserving the paper's 20–350 kbps span while
    keeping the manifest DASH-sized.
    """
    count = len(ladder)
    if count <= max_levels:
        return list(ladder)
    if max_levels == 1:
        return [ladder.lowest]
    picked: list[EncodingLevel] = []
    for i in range(max_levels):
        index = round(i * (count - 1) / (max_levels - 1))
        level = ladder[index]
        if not picked or picked[-1].index != level.index:
            picked.append(level)
    return picked


class SegmentServer:
    """A clip-hosting HTTP segment server."""

    def __init__(
        self,
        loop: EventLoop,
        name: str,
        clips: dict[str, VideoClip],
        availability: AvailabilityModel,
        rng: np.random.Generator,
        config: AbrConfig | None = None,
    ) -> None:
        if not clips:
            raise ValueError(f"server {name!r} must host at least one clip")
        self._loop = loop
        self.name = name
        self.clips = dict(clips)
        self.availability = availability
        self._rng = rng
        self.config = config if config is not None else AbrConfig(enabled=True)
        self.sessions_started = 0
        self.describe_failures = 0

    def attach(
        self, channel: ControlChannel, path: NetworkPath
    ) -> "AbrServerConnection":
        """Bind a client's control channel to this server."""
        return AbrServerConnection(self._loop, self, channel, path, self._rng)

    def lookup(self, clip_url: str) -> VideoClip | None:
        """Find a hosted clip by URL."""
        return self.clips.get(clip_url)


class AbrServerConnection:
    """Server-side state for one connected client."""

    def __init__(
        self,
        loop: EventLoop,
        server: SegmentServer,
        channel: ControlChannel,
        path: NetworkPath,
        rng: np.random.Generator,
    ) -> None:
        self._loop = loop
        self._server = server
        self._channel = channel
        self._path = path
        self._rng = rng
        self.session: AbrSession | None = None
        channel.on_server_receive = self._on_request

    def _on_request(self, message: object) -> None:
        if not isinstance(message, (ManifestRequest, SegmentRequest)):
            raise RtspError(f"unexpected control message: {message!r}")
        processing = float(
            self._rng.uniform(MIN_PROCESSING_S, MAX_PROCESSING_S)
        )
        self._loop.schedule(processing, lambda m=message: self._handle(m))

    def _handle(self, request: object) -> None:
        if isinstance(request, ManifestRequest):
            self._handle_manifest(request)
        elif isinstance(request, SegmentRequest):
            if self.session is not None:
                self.session.serve(request)

    def _handle_manifest(self, request: ManifestRequest) -> None:
        clip = self._server.lookup(request.clip_url)
        if clip is None or not self._server.availability.is_available(
            self._rng
        ):
            self._server.describe_failures += 1
            self._channel.send_from_server(ManifestResponse(ok=False))
            return
        self.session = AbrSession(
            loop=self._loop,
            path=self._path,
            clip=clip,
            config=self._server.config,
        )
        self._server.sessions_started += 1
        self._channel.send_from_server(
            ManifestResponse(
                ok=True,
                manifest=self.session.manifest(),
                session=self.session,
            )
        )


class AbrSession:
    """Serves one clip's segments to one client over one transport."""

    def __init__(
        self,
        loop: EventLoop,
        path: NetworkPath,
        clip: VideoClip,
        config: AbrConfig,
    ) -> None:
        self._loop = loop
        self.clip = clip
        self.config = config
        self.ladder = abr_ladder(clip.ladder, config.max_levels)
        self.segment_count = max(
            1, math.ceil(clip.duration_s / config.segment_duration_s)
        )
        self.stats = SessionStats()
        self._packetizer = Packetizer()
        #: One frame source per ladder rung, created lazily on first use.
        self._sources: dict[int, FrameSource] = {}
        self._next_frame_index = 0
        self._audio_backlog_bytes = 0.0
        self._last_audio_media_time = 0.0
        self._stopped = False

        # The data transport (always TCP-family; pacing is the knob).
        self.udp = None
        sender = BbrConnection if config.pacing == PACING_BBR else TcpConnection
        self.tcp: ReliableStream = sender(loop, path)

    def manifest(self) -> AbrManifest:
        return AbrManifest(
            clip_url=self.clip.url,
            duration_s=self.clip.duration_s,
            segment_duration_s=self.config.segment_duration_s,
            segment_count=self.segment_count,
            levels=tuple(
                LevelInfo(
                    position=position,
                    level_index=level.index,
                    total_bps=level.total_bps,
                    frame_rate=level.frame_rate,
                )
                for position, level in enumerate(self.ladder)
            ),
        )

    @property
    def finished(self) -> bool:
        return self._stopped

    def stop(self) -> None:
        """Tear the session down (client done or tracer timeout)."""
        if self._stopped:
            return
        self._stopped = True
        self.tcp.close()

    def serve(self, request: SegmentRequest) -> None:
        """Enqueue one segment's media onto the data channel.

        The transport's congestion control governs the wire rate; the
        whole segment is handed over at once (an HTTP response write).
        A :class:`SegmentEnd` marker rides the same in-order channel so
        the client can timestamp the segment's completion.
        """
        if self._stopped:
            return
        position = max(0, min(request.level_position, len(self.ladder) - 1))
        index = max(0, min(request.segment_index, self.segment_count - 1))
        level = self.ladder[position]
        source = self._sources.get(position)
        if source is None:
            source = FrameSource(self.clip)
            self._sources[position] = source

        seg_start = index * self.config.segment_duration_s
        seg_end = min(
            seg_start + self.config.segment_duration_s, self.clip.duration_s
        )
        # After a rung switch the new rung's source is behind: fast-
        # forward (discard) to the segment boundary so media times
        # stay monotone across rungs.
        while not source.exhausted() and source.media_time < seg_start - 1e-9:
            source.next_frame(level)

        payload_bytes = 0
        stats = self.stats
        while not source.exhausted() and source.media_time < seg_end - 1e-9:
            frame = source.next_frame(level)
            frame = replace(frame, index=self._next_frame_index)
            self._next_frame_index += 1
            stats.frames_sent += 1
            for packet in self._packetizer.packetize(frame):
                self._send(packet, packet.size)
                payload_bytes += packet.size
                stats.media_packets_sent += 1
        payload_bytes += self._send_audio_up_to(seg_end, level)
        stats.time_at_level[level.index] = stats.time_at_level.get(
            level.index, 0.0
        ) + (seg_end - seg_start)

        eos = index >= self.segment_count - 1
        marker = SegmentEnd(
            segment_index=index,
            level_position=position,
            level_index=level.index,
            total_bps=level.total_bps,
            frame_rate=level.frame_rate,
            media_start=seg_start,
            media_end=seg_end,
            payload_bytes=payload_bytes,
            eos=eos,
            final_media_time=self.clip.duration_s,
        )
        self._send(marker, SEGMENT_END_BYTES)

    def _send_audio_up_to(
        self, media_time: float, level: EncodingLevel
    ) -> int:
        gap = media_time - self._last_audio_media_time
        if gap <= 0:
            return 0
        self._audio_backlog_bytes += level.audio.rate_bps / 8.0 * gap
        self._last_audio_media_time = media_time
        sent = 0
        while self._audio_backlog_bytes >= AUDIO_CHUNK_BYTES:
            chunk = AudioChunk(media_time=media_time, size=AUDIO_CHUNK_BYTES)
            self._send(chunk, chunk.size)
            self.stats.audio_packets_sent += 1
            self._audio_backlog_bytes -= AUDIO_CHUNK_BYTES
            sent += chunk.size
        return sent

    def _send(self, payload: object, size: int) -> None:
        self.stats.bytes_sent += size
        self.tcp.send(payload, size)
