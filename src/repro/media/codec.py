"""Encoding levels, audio codecs and SureStream ladders.

RealProducer's documented behavior (paper Section II.C): a clip is
encoded for multiple target bandwidths; within each target, a fixed
audio codec takes its share first and the video gets the remainder.
A 20 Kbps clip with a 5 Kbps voice codec leaves 15 Kbps for video; an
11 Kbps music codec leaves only 9 Kbps.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import kbps


@dataclass(frozen=True)
class AudioCodec:
    """A RealAudio codec taking a fixed slice of the clip bandwidth."""

    name: str
    rate_bps: float

    def __post_init__(self) -> None:
        if self.rate_bps <= 0:
            raise ValueError(f"audio rate must be positive, got {self.rate_bps}")


#: The codecs the paper names (Section II.C) plus the common 8.5 Kbps one.
AUDIO_VOICE = AudioCodec("5 Kbps Voice", kbps(5))
AUDIO_LOW_MUSIC = AudioCodec("8.5 Kbps Music", kbps(8.5))
AUDIO_MUSIC = AudioCodec("11 Kbps Music", kbps(11))
AUDIO_STEREO_MUSIC = AudioCodec("32 Kbps Stereo Music", kbps(32))


@dataclass(frozen=True)
class EncodingLevel:
    """One SureStream target bandwidth."""

    #: Index within the ladder (0 = lowest rate).
    index: int
    #: Total clip bandwidth (audio + video), bits per second.
    total_bps: float
    #: Audio codec used at this level.
    audio: AudioCodec
    #: Encoded video frame rate at this level, frames per second.
    frame_rate: float
    #: Seconds between key frames.
    keyframe_interval_s: float = 5.0

    def __post_init__(self) -> None:
        if self.total_bps <= self.audio.rate_bps:
            raise ValueError(
                f"total bandwidth {self.total_bps} must exceed the audio "
                f"codec's {self.audio.rate_bps}"
            )
        if self.frame_rate <= 0:
            raise ValueError(
                f"frame rate must be positive, got {self.frame_rate}"
            )
        if self.keyframe_interval_s <= 0:
            raise ValueError("keyframe interval must be positive")

    @property
    def video_bps(self) -> float:
        """Bandwidth left for video after the audio takes its share."""
        return self.total_bps - self.audio.rate_bps

    @property
    def mean_frame_bytes(self) -> float:
        """Average encoded video frame size at this level."""
        return self.video_bps / 8.0 / self.frame_rate


class EncodingLadder:
    """An ordered set of encoding levels for one SureStream clip.

    Immutable once built: the playlist's clips (and so their ladders)
    are shared by every study and thread in the process.
    """

    def __init__(self, levels: list[EncodingLevel]) -> None:
        if not levels:
            raise ValueError("a ladder needs at least one level")
        ordered = tuple(sorted(levels, key=lambda lvl: lvl.total_bps))
        for expected_index, level in enumerate(ordered):
            if level.index != expected_index:
                raise ValueError(
                    "level indices must be 0..n-1 in rate order; "
                    f"got index {level.index} at position {expected_index}"
                )
        self._levels = ordered

    def __len__(self) -> int:
        return len(self._levels)

    def __iter__(self):
        return iter(self._levels)

    def __getitem__(self, index: int) -> EncodingLevel:
        return self._levels[index]

    @property
    def lowest(self) -> EncodingLevel:
        return self._levels[0]

    @property
    def highest(self) -> EncodingLevel:
        return self._levels[-1]

    def level_for_bandwidth(self, available_bps: float) -> EncodingLevel:
        """Highest level whose total rate fits in ``available_bps``.

        Falls back to the lowest level when even that does not fit —
        RealServer always serves *something* and lets the client buffer
        struggle, which is exactly what modem users experienced.
        """
        best = self._levels[0]
        for level in self._levels:
            if level.total_bps <= available_bps:
                best = level
        return best


#: RealProducer's standard SureStream target audiences (Kbps) of the
#: era: 28.8 modem, 56 modem, dual ISDN, DSL/cable tiers.
STANDARD_TARGETS_KBPS = (20.0, 34.0, 45.0, 80.0, 150.0, 225.0, 350.0, 450.0)


def _audio_for_target(target_kbps: float, music: bool) -> AudioCodec:
    if target_kbps <= 20.0:
        return AUDIO_MUSIC if music else AUDIO_VOICE
    if target_kbps <= 45.0:
        return AUDIO_MUSIC if music else AUDIO_LOW_MUSIC
    return AUDIO_STEREO_MUSIC if music else AUDIO_MUSIC


def _frame_rate_for_target(target_kbps: float) -> float:
    """Encoded frame rate RealProducer would pick for a target rate.

    Low-rate targets are encoded at slideshow-to-choppy rates; only the
    broadband targets get 15+ fps.  These follow the RealProducer
    guidelines the paper cites ([Rea00a]).
    """
    if target_kbps <= 20.0:
        return 7.5
    if target_kbps <= 34.0:
        return 10.0
    if target_kbps <= 45.0:
        return 12.0
    if target_kbps <= 80.0:
        return 15.0
    if target_kbps <= 150.0:
        return 20.0
    if target_kbps <= 225.0:
        return 24.0
    if target_kbps <= 350.0:
        return 26.0
    return 30.0


def surestream_ladder(
    max_kbps: float,
    music: bool = False,
    targets_kbps: tuple[float, ...] = STANDARD_TARGETS_KBPS,
    min_kbps: float | None = None,
) -> EncodingLadder:
    """Build a SureStream ladder covering ``[min_kbps, max_kbps]``.

    Not every 2001 clip was a full SureStream file: plenty of sites
    encoded a single rate (or a narrow band) only.  ``min_kbps`` trims
    the ladder's bottom; a clip whose lowest level exceeds the viewer's
    connection simply could not stream well — a major source of the
    paper's sub-3-fps playbacks.
    """
    if max_kbps < targets_kbps[0]:
        raise ValueError(
            f"max rate {max_kbps} Kbps is below the lowest target "
            f"{targets_kbps[0]} Kbps"
        )
    floor = targets_kbps[0] if min_kbps is None else min_kbps
    if floor > max_kbps:
        raise ValueError(
            f"min rate {floor} Kbps exceeds max rate {max_kbps} Kbps"
        )
    chosen = [t for t in targets_kbps if floor <= t <= max_kbps]
    if not chosen:
        # A single odd-rate encoding: snap to the nearest target at or
        # below max (there is always one, per the check above).
        chosen = [max(t for t in targets_kbps if t <= max_kbps)]
    levels = [
        EncodingLevel(
            index=i,
            total_bps=kbps(target),
            audio=_audio_for_target(target, music),
            frame_rate=_frame_rate_for_target(target),
        )
        for i, target in enumerate(chosen)
    ]
    return EncodingLadder(levels)
