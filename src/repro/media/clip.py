"""Video clips: metadata plus scene structure.

The paper notes (Section V) that RealVideo intentionally varies the
encoded frame rate with scene content — high-action scenes keep the
frame rate up, low-action scenes reduce it.  A clip therefore carries a
list of scenes, each with an action level that scales both the frame
rate and the frame sizes the encoder produces in that interval.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.media.codec import EncodingLadder, surestream_ladder


class ContentKind(enum.Enum):
    """Coarse content classes found on the study's news/media sites."""

    NEWS = "news"  # talking heads: low action, voice audio
    SPORTS = "sports"  # high action
    MUSIC = "music"  # music video: medium-high action, music audio
    DOCUMENTARY = "documentary"  # mixed


#: Mean scene action per content kind (0 = static, 1 = frantic).
_ACTION_BY_KIND = {
    ContentKind.NEWS: 0.25,
    ContentKind.SPORTS: 0.8,
    ContentKind.MUSIC: 0.65,
    ContentKind.DOCUMENTARY: 0.45,
}


@dataclass(frozen=True)
class Scene:
    """A contiguous stretch of a clip with homogeneous action."""

    start_s: float
    duration_s: float
    #: Action level in [0, 1].
    action: float

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError(f"scene duration must be positive, got {self.duration_s}")
        if not 0.0 <= self.action <= 1.0:
            raise ValueError(f"action must be in [0, 1], got {self.action}")

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


@dataclass(frozen=True)
class VideoClip:
    """A streamable clip as hosted by a RealServer."""

    #: URL path unique within the hosting server.
    url: str
    title: str
    duration_s: float
    content: ContentKind
    ladder: EncodingLadder
    scenes: tuple[Scene, ...] = field(default_factory=tuple)
    #: Live content cannot be prebuffered ahead of real time
    #: (paper Section VIII future work; see DESIGN.md extensions).
    live: bool = False

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError(f"duration must be positive, got {self.duration_s}")
        if self.scenes:
            cursor = 0.0
            for scene in self.scenes:
                if abs(scene.start_s - cursor) > 1e-9:
                    raise ValueError(
                        f"scene at {scene.start_s} does not start where the "
                        f"previous ended ({cursor})"
                    )
                cursor = scene.end_s
            if cursor < self.duration_s - 1e-9:
                raise ValueError(
                    f"scenes cover {cursor}s of a {self.duration_s}s clip"
                )

    def action_at(self, media_time: float) -> float:
        """Scene action level at a media time (default 0.5 if unscened)."""
        for scene in self.scenes:
            if scene.start_s <= media_time < scene.end_s:
                return scene.action
        if self.scenes and media_time >= self.scenes[-1].end_s:
            return self.scenes[-1].action
        return 0.5


def _make_scenes(
    duration_s: float,
    mean_action: float,
    rng: np.random.Generator,
    mean_scene_s: float = 8.0,
) -> tuple[Scene, ...]:
    """Cut a clip into scenes with action jittered around the mean."""
    scenes: list[Scene] = []
    cursor = 0.0
    while cursor < duration_s - 1e-9:
        length = min(
            float(rng.uniform(0.5 * mean_scene_s, 1.5 * mean_scene_s)),
            duration_s - cursor,
        )
        action = min(max(rng.normal(mean_action, 0.15), 0.0), 1.0)
        scenes.append(Scene(start_s=cursor, duration_s=length, action=action))
        cursor += length
    return tuple(scenes)


def make_clip(
    url: str,
    content: ContentKind,
    max_kbps: float,
    duration_s: float = 180.0,
    rng: np.random.Generator | None = None,
    title: str | None = None,
    live: bool = False,
    min_kbps: float | None = None,
) -> VideoClip:
    """Create a clip with a SureStream ladder and random scenes.

    ``min_kbps`` trims the ladder bottom (single-rate / broadband-only
    clips).  The RNG defaults to one seeded from the URL so that every
    playback of the same clip — by any user, in any study run — sees
    identical content, just as the paper's pre-recorded playlist
    guaranteed.
    """
    if rng is None:
        digest = hashlib.sha256(url.encode("utf-8")).digest()
        rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
    music = content is ContentKind.MUSIC
    ladder = surestream_ladder(max_kbps, music=music, min_kbps=min_kbps)
    scenes = _make_scenes(duration_s, _ACTION_BY_KIND[content], rng)
    return VideoClip(
        url=url,
        title=title if title is not None else url,
        duration_s=duration_s,
        content=content,
        ladder=ladder,
        scenes=scenes,
        live=live,
    )
