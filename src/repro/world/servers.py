"""The RealServer sites of the study and their clips.

Figure 10 names the sites; Figure 8 gives the per-country share of
clips served, which (users walked the same playlist) fixes the
playlist's per-site composition.  The paper says 11 servers in 8
countries but names only 10 sites — we add a second US news site
(``US/NBC``) to reach 11, as documented in DESIGN.md.
"""

from __future__ import annotations

import functools
import hashlib
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.media.clip import ContentKind, VideoClip, make_clip
from repro.world.calibration import (
    CLIP_DURATION_MAX_S,
    CLIP_DURATION_MIN_S,
    CLIP_LADDER_MIX,
    PLAYLIST_LENGTH,
    PLAYS_BY_SERVER_COUNTRY,
    UNAVAILABILITY_BY_SITE,
)
from repro.world.geography import Country, ServerRegion, country


@dataclass(frozen=True)
class ServerSite:
    """One of the study's RealServer sites."""

    name: str
    country: Country
    #: Fraction of requests that found the clip unavailable (Fig 10).
    unavailable_fraction: float
    #: Content mix offered by this site.
    content_kinds: tuple[ContentKind, ...]

    @property
    def region(self) -> ServerRegion:
        region = self.country.server_region
        assert region is not None, f"{self.country.code} hosts no servers"
        return region


_NEWS = (ContentKind.NEWS, ContentKind.DOCUMENTARY)
_NEWS_SPORTS = (ContentKind.NEWS, ContentKind.SPORTS, ContentKind.DOCUMENTARY)
_ENTERTAINMENT = (ContentKind.MUSIC, ContentKind.NEWS, ContentKind.SPORTS)

#: The 11 sites.  Names follow Figure 10's x-axis labels.
SERVER_SITES: list[ServerSite] = [
    ServerSite("AUS/ABC", country("AU"),
               UNAVAILABILITY_BY_SITE["AUS/ABC"], _NEWS_SPORTS),
    ServerSite("BRZ/UOL", country("BR"),
               UNAVAILABILITY_BY_SITE["BRZ/UOL"], _ENTERTAINMENT),
    ServerSite("CAN/CBC", country("CA"),
               UNAVAILABILITY_BY_SITE["CAN/CBC"], _NEWS),
    ServerSite("CHI/CCTV", country("CN"),
               UNAVAILABILITY_BY_SITE["CHI/CCTV"], _NEWS),
    ServerSite("ITA/Kwvideo", country("IT"),
               UNAVAILABILITY_BY_SITE["ITA/Kwvideo"], _ENTERTAINMENT),
    ServerSite("JAP/FUJITV", country("JP"),
               UNAVAILABILITY_BY_SITE["JAP/FUJITV"], _ENTERTAINMENT),
    ServerSite("UK/BBC", country("UK"),
               UNAVAILABILITY_BY_SITE["UK/BBC"], _NEWS_SPORTS),
    ServerSite("UK/ITN", country("UK"),
               UNAVAILABILITY_BY_SITE["UK/ITN"], _NEWS),
    ServerSite("US/ABC", country("US"),
               UNAVAILABILITY_BY_SITE["US/ABC"], _NEWS),
    ServerSite("US/CNN", country("US"),
               UNAVAILABILITY_BY_SITE["US/CNN"], _NEWS_SPORTS),
    ServerSite("US/NBC", country("US"),
               UNAVAILABILITY_BY_SITE["US/NBC"], _ENTERTAINMENT),
]

SITES_BY_NAME: dict[str, ServerSite] = {site.name: site for site in SERVER_SITES}


def playlist_site_counts(playlist_length: int = PLAYLIST_LENGTH) -> dict[str, int]:
    """How many playlist clips each site contributes.

    Apportioned from Figure 8's per-country clip shares (largest
    remainder method), split evenly among a country's sites.
    """
    total_plays = sum(PLAYS_BY_SERVER_COUNTRY.values())
    # Country -> ideal clip share.
    ideal = {
        code: playlist_length * plays / total_plays
        for code, plays in PLAYS_BY_SERVER_COUNTRY.items()
    }
    counts = {code: int(ideal[code]) for code in ideal}
    remainders = sorted(
        ideal, key=lambda code: ideal[code] - counts[code], reverse=True
    )
    shortfall = playlist_length - sum(counts.values())
    for code in remainders[:shortfall]:
        counts[code] += 1

    # Split each country's quota across its sites (earlier sites get
    # the remainder).
    sites_by_country: dict[str, list[ServerSite]] = {}
    for site in SERVER_SITES:
        sites_by_country.setdefault(site.country.code, []).append(site)
    per_site: dict[str, int] = {}
    for code, clip_count in counts.items():
        sites = sites_by_country[code]
        base, extra = divmod(clip_count, len(sites))
        for i, site in enumerate(sites):
            per_site[site.name] = base + (1 if i < extra else 0)
    return per_site


def _clip_rng(site: ServerSite, index: int) -> np.random.Generator:
    digest = hashlib.sha256(f"clip:{site.name}:{index}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


def build_site_clips(site: ServerSite, count: int) -> list[VideoClip]:
    """Create a site's clips with the era's ladder/duration mix."""
    clips = []
    # Stratified assignment: walk the encoding mix proportionally so
    # every site gets (about) the era's encoding profile instead of an
    # iid draw — small sites would otherwise swing the per-server
    # figures on clip-mix luck alone, which the paper does not show.
    weights = np.asarray([w for _, _, w in CLIP_LADDER_MIX], dtype=float)
    weights = weights / weights.sum()
    credit = np.zeros(len(CLIP_LADDER_MIX))
    for index in range(count):
        rng = _clip_rng(site, index)
        credit += weights
        pick = int(np.argmax(credit))
        credit[pick] -= 1.0
        min_kbps, max_kbps, _ = CLIP_LADDER_MIX[pick]
        content = site.content_kinds[int(rng.integers(len(site.content_kinds)))]
        duration = float(rng.uniform(CLIP_DURATION_MIN_S, CLIP_DURATION_MAX_S))
        url = f"rtsp://{site.name.lower().replace('/', '.')}/clip{index:02d}.rm"
        clips.append(
            make_clip(
                url=url,
                content=content,
                max_kbps=float(max_kbps),
                min_kbps=float(min_kbps),
                duration_s=duration,
                rng=rng,
                title=f"{site.name} clip {index}",
            )
        )
    return clips


@functools.lru_cache(maxsize=8)
def build_playlist_clips(
    playlist_length: int = PLAYLIST_LENGTH,
) -> tuple[tuple[ServerSite, VideoClip], ...]:
    """The study playlist: (site, clip) pairs, interleaved.

    Clips from different sites are interleaved so that any playlist
    *prefix* (users quit partway through) keeps roughly the overall
    per-site proportions — this is what makes Figure 8's per-country
    served counts come out right even though users play different
    prefix lengths.

    The volunteers all played one pre-recorded playlist, and every clip
    here is seeded from its own site and index, so the catalogue is a
    function of ``playlist_length`` alone: it is built once per process
    and the same immutable tuple is handed to every study, thread and
    forked shard worker.  The memo key is the function's whole input —
    when ``CLIP_LADDER_MIX`` and the duration constants become a frozen
    ``WorldCalibration`` argument (ROADMAP item 4(b)), that argument
    joins the key.  Two threads that both miss may each build a
    catalogue; they are equal, and later callers share one of them.
    """
    per_site = playlist_site_counts(playlist_length)
    pools = {}
    for site in SERVER_SITES:
        if per_site[site.name] <= 0:
            continue
        clips = build_site_clips(site, per_site[site.name])
        # Shuffle each site's pool (deterministically) so playlist
        # prefixes — all that short-session users play — carry the
        # era's full encoding mix, not the stratification order.
        _clip_rng(site, -1).shuffle(clips)
        pools[site] = clips
    # Weighted interleave by largest remaining fraction.
    playlist: list[tuple[ServerSite, VideoClip]] = []
    credit = {site: 0.0 for site in pools}
    totals = {site: len(clips) for site, clips in pools.items()}
    remaining = {site: deque(clips) for site, clips in pools.items()}
    total_clips = sum(totals.values())
    for _ in range(total_clips):
        for site in pools:
            if remaining[site]:
                credit[site] += totals[site] / total_clips
        site = max(
            (s for s in pools if remaining[s]), key=lambda s: credit[s]
        )
        credit[site] -= 1.0
        playlist.append((site, remaining[site].popleft()))
    return tuple(playlist)
