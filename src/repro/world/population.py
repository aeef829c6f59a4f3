"""Assembling the full study population."""

from __future__ import annotations

from dataclasses import dataclass

from repro.media.clip import VideoClip
from repro.rng import RngFactory
from repro.world.servers import ServerSite, build_playlist_clips
from repro.world.users import UserProfile, build_user_population


@dataclass(frozen=True)
class StudyPopulation:
    """Everything the study orchestrator iterates over."""

    users: tuple[UserProfile, ...]
    #: The shared playlist: ordered (site, clip) pairs — one object per
    #: process, whatever the seed (see ``build_playlist_clips``).
    playlist: tuple[tuple[ServerSite, VideoClip], ...]

    @property
    def user_count(self) -> int:
        return len(self.users)

    @property
    def playlist_length(self) -> int:
        return len(self.playlist)

    def sites(self) -> list[ServerSite]:
        """Distinct sites appearing in the playlist, in order."""
        seen: list[ServerSite] = []
        for site, _clip in self.playlist:
            if site not in seen:
                seen.append(site)
        return seen


def build_population(
    rngs: RngFactory,
    playlist_length: int | None = None,
    max_users: int | None = None,
) -> StudyPopulation:
    """Build the calibrated population.

    ``playlist_length`` and ``max_users`` resize the world; the
    defaults reproduce the paper's scale (98 clips, ~63 users).
    ``max_users`` below the calibrated count shrinks it for tests and
    quick runs; above it, the population *expands* by cycling the
    calibrated country/state mix (see
    :func:`~repro.world.users.build_user_population`), which is how
    million-user studies are populated.
    """
    if max_users is not None and max_users < 1:
        raise ValueError(f"max_users must be >= 1, got {max_users}")
    users = build_user_population(
        rngs.child("population", "users"), target_users=max_users
    )
    if max_users is not None and max_users < len(users):
        # Spread the cut across countries rather than truncating the
        # (country-sorted) list: take every k-th user.
        stride = len(users) / max_users
        users = [users[int(i * stride)] for i in range(max_users)]
    playlist = build_playlist_clips(
        playlist_length if playlist_length is not None else 98
    )
    return StudyPopulation(users=tuple(users), playlist=playlist)
