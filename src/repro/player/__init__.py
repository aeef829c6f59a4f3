"""RealPlayer analog (S8).

Reassembles frames from transport packets, buffers them, and plays
them out with RealPlayer's documented behavior: an initial buffering
phase, rebuffering halts of up to 20 seconds when the buffer empties,
loss repair via FEC, and Scalable Video frame-rate thinning on
underpowered PCs.  :class:`PlayerCore` is the client every protocol
front end shares; :class:`RealPlayer` is its RTSP front end.
"""

from repro.player.buffer import PlayoutBuffer, Reassembler
from repro.player.decoder import Decoder, DecoderProfile
from repro.player.playout import PlaybackState, PlayoutConfig, PlayoutEngine
from repro.player.stats import ClipStats
from repro.player.core import PlaybackOutcome, PlayerConfig, PlayerCore
from repro.player.realplayer import RealPlayer

__all__ = [
    "PlayoutBuffer",
    "Reassembler",
    "Decoder",
    "DecoderProfile",
    "PlaybackState",
    "PlayoutConfig",
    "PlayoutEngine",
    "ClipStats",
    "PlaybackOutcome",
    "PlayerConfig",
    "PlayerCore",
    "RealPlayer",
]
