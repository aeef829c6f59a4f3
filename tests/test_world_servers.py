"""Server sites and the study playlist."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.world.calibration import PLAYS_BY_SERVER_COUNTRY
from repro.world.servers import (
    SERVER_SITES,
    SITES_BY_NAME,
    build_playlist_clips,
    build_site_clips,
    playlist_site_counts,
)


def catalogue_dump(playlist) -> list[dict]:
    """Every field of every (site, clip) pair, floats as ``float.hex``."""
    return [
        {
            "site": site.name,
            "url": clip.url,
            "title": clip.title,
            "duration": clip.duration_s.hex(),
            "content": clip.content.value,
            "live": clip.live,
            "ladder": [
                [level.index, level.total_bps.hex(), level.audio.name,
                 level.audio.rate_bps.hex(), level.frame_rate.hex(),
                 level.keyframe_interval_s.hex()]
                for level in clip.ladder
            ],
            "scenes": [
                [scene.start_s.hex(), scene.duration_s.hex(),
                 scene.action.hex()]
                for scene in clip.scenes
            ],
        }
        for site, clip in playlist
    ]


def catalogue_digest(playlist) -> str:
    payload = json.dumps(
        catalogue_dump(playlist), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def fresh_interpreter(code: str, hashseed: str = "0") -> str:
    """Run ``code`` in a new interpreter from the repo root (so both
    ``repro`` and ``tests`` import) and return its stripped stdout."""
    root = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), root]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = hashseed
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=env,
        capture_output=True, text=True, check=True, timeout=120,
    )
    return out.stdout.strip()


#: sha256 of ``catalogue_dump`` taken at the commit before the memo
#: (np.clip clamp, list.pop(0) interleave): the cheaper cold build and
#: the memo must both reproduce it.
CATALOGUE_PINS = {
    12: "e1167ea8689fdac1f9cce8ac84070904a66e9e4c53cbeaaee968484b2c9612e1",
    98: "5329a0283eb06ae3eef2df593fd27edd2d95b7a2db0d6a881833bef864e5c012",
}


class TestSites:
    def test_eleven_servers(self):
        # Paper: 11 servers in 8 countries.
        assert len(SERVER_SITES) == 11
        assert len({site.country.code for site in SERVER_SITES}) == 8

    def test_names_match_figure_10(self):
        for name in ("BRZ/UOL", "CAN/CBC", "CHI/CCTV", "ITA/Kwvideo",
                     "JAP/FUJITV", "UK/BBC", "UK/ITN", "US/ABC", "US/CNN"):
            assert name in SITES_BY_NAME

    def test_unavailability_average_near_ten_percent(self):
        # "on average about 10% of the time a video clip was unavailable"
        mean = np.mean([site.unavailable_fraction for site in SERVER_SITES])
        assert 0.08 < mean < 0.12

    def test_every_site_has_region(self):
        for site in SERVER_SITES:
            assert site.region is not None


class TestPlaylistCounts:
    def test_total_is_playlist_length(self):
        counts = playlist_site_counts(98)
        assert sum(counts.values()) == 98

    def test_country_shares_match_figure_8(self):
        counts = playlist_site_counts(98)
        by_country = {}
        for site in SERVER_SITES:
            by_country.setdefault(site.country.code, 0)
            by_country[site.country.code] += counts[site.name]
        total_target = sum(PLAYS_BY_SERVER_COUNTRY.values())
        for code, target in PLAYS_BY_SERVER_COUNTRY.items():
            expected_share = target / total_target
            actual_share = by_country[code] / 98
            assert actual_share == pytest.approx(expected_share, abs=0.02)

    def test_us_has_most_clips(self):
        counts = playlist_site_counts(98)
        by_country = {}
        for site in SERVER_SITES:
            by_country.setdefault(site.country.code, 0)
            by_country[site.country.code] += counts[site.name]
        assert by_country["US"] == max(by_country.values())

    def test_small_playlists_work(self):
        counts = playlist_site_counts(12)
        assert sum(counts.values()) == 12


class TestSiteClips:
    def test_deterministic(self):
        site = SERVER_SITES[0]
        a = build_site_clips(site, 8)
        b = build_site_clips(site, 8)
        assert [c.url for c in a] == [c.url for c in b]
        assert [c.duration_s for c in a] == [c.duration_s for c in b]

    def test_urls_unique_within_site(self):
        site = SERVER_SITES[0]
        clips = build_site_clips(site, 10)
        assert len({c.url for c in clips}) == 10

    def test_content_kinds_from_site_offering(self):
        site = SITES_BY_NAME["US/CNN"]
        clips = build_site_clips(site, 10)
        assert all(c.content in site.content_kinds for c in clips)

    def test_encoding_mix_stratified(self):
        # A larger site must include both modem-reachable and
        # broadband-only clips (the era's mix).
        site = SITES_BY_NAME["US/ABC"]
        clips = build_site_clips(site, 12)
        lows = [c.ladder.lowest.total_bps for c in clips]
        assert min(lows) <= 34_000
        assert max(lows) >= 150_000


class TestPlaylist:
    def test_full_playlist_is_98(self):
        playlist = build_playlist_clips(98)
        assert len(playlist) == 98

    def test_prefix_keeps_site_mix(self):
        # Users who quit early must still have sampled many sites.
        playlist = build_playlist_clips(98)
        first20_sites = {site.name for site, _ in playlist[:20]}
        assert len(first20_sites) >= 8

    def test_prefix_keeps_encoding_mix(self):
        playlist = build_playlist_clips(98)
        lows = [clip.ladder.lowest.total_bps for _, clip in playlist[:15]]
        assert min(lows) <= 34_000
        assert max(lows) >= 150_000

    def test_deterministic(self):
        a = build_playlist_clips(50)
        b = build_playlist_clips(50)
        assert [(s.name, c.url) for s, c in a] == [(s.name, c.url) for s, c in b]

    def test_clip_site_consistency(self):
        playlist = build_playlist_clips(98)
        for site, clip in playlist:
            assert site.name.lower().replace("/", ".") in clip.url


class TestCatalogueMemo:
    @pytest.mark.parametrize("length", sorted(CATALOGUE_PINS))
    def test_catalogue_pinned(self, length):
        assert (
            catalogue_digest(build_playlist_clips(length))
            == CATALOGUE_PINS[length]
        )

    @pytest.mark.parametrize("length", [1, 12, 50, 98, 150])
    def test_memo_equals_uncached_build(self, length):
        memoised = build_playlist_clips(length)
        rebuilt = build_playlist_clips.__wrapped__(length)
        assert memoised is not rebuilt
        assert len(memoised) == len(rebuilt) == length
        assert catalogue_dump(memoised) == catalogue_dump(rebuilt)

    def test_digest_independent_of_hash_seed(self):
        code = (
            "from repro.world.servers import build_playlist_clips;"
            "from tests.test_world_servers import catalogue_digest;"
            "print(catalogue_digest(build_playlist_clips(98)))"
        )
        assert (
            fresh_interpreter(code, hashseed="1")
            == fresh_interpreter(code, hashseed="987654")
            == CATALOGUE_PINS[98]
        )

    def test_concurrent_cold_calls_agree(self):
        # lru_cache lets racing misses each build; what they build must
        # be equal, and the memo must end up holding one of them.
        workers = 2 * (os.cpu_count() or 1) + 2
        barrier = threading.Barrier(workers)
        results = [None] * workers

        def cold_call(slot):
            barrier.wait(timeout=30)
            results[slot] = build_playlist_clips(12)

        threads = [
            threading.Thread(target=cold_call, args=(i,))
            for i in range(workers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            build_playlist_clips.cache_clear()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert {catalogue_digest(r) for r in results} == {CATALOGUE_PINS[12]}
        assert any(build_playlist_clips(12) is r for r in results)


class TestCatalogueImmutable:
    def test_shared_objects_are_frozen(self):
        site, clip = build_playlist_clips(12)[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            clip.duration_s = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            clip.scenes[0].action = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            clip.ladder[0].total_bps = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            clip.ladder[0].audio.rate_bps = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            site.unavailable_fraction = 0.0

    def test_containers_have_no_mutators(self):
        playlist = build_playlist_clips(12)
        site, clip = playlist[0]
        for container in (
            playlist, playlist[0], clip.scenes, clip.ladder._levels,
            site.content_kinds,
        ):
            assert type(container) is tuple
