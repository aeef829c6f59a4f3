"""Study orchestration."""

import hashlib
import multiprocessing as mp
import os

import pytest

import repro.world.servers as servers
from repro.core.study import Study, StudyConfig
from repro.core.submission import SubmissionSink
from repro.errors import StudyError
from repro.runtime import RuntimeConfig, run_study
from repro.world.scenarios import configured, get_scenario
from tests.test_world_servers import fresh_interpreter


@pytest.fixture(scope="module")
def small_dataset():
    study = Study(StudyConfig(seed=5, playlist_length=10, max_users=8,
                              scale=0.2))
    return study, study.run()


class TestStudyRun:
    def test_produces_records(self, small_dataset):
        study, ds = small_dataset
        assert len(ds) > 0

    def test_every_user_contributes(self, small_dataset):
        study, ds = small_dataset
        users_seen = {r.user_id for r in ds}
        expected = {u.user_id for u in study.population.users}
        assert users_seen == expected

    def test_records_follow_playlist(self, small_dataset):
        study, ds = small_dataset
        playlist_urls = {c.url for _, c in study.population.playlist}
        assert all(r.clip_url in playlist_urls for r in ds)

    def test_ratings_capped_by_targets(self, small_dataset):
        study, ds = small_dataset
        by_user = {}
        for r in ds:
            if r.rated:
                by_user[r.user_id] = by_user.get(r.user_id, 0) + 1
        targets = {u.user_id: u.ratings_target for u in study.population.users}
        for user_id, rated in by_user.items():
            assert rated <= targets[user_id]

    def test_reproducible(self):
        config = StudyConfig(seed=9, playlist_length=6, max_users=4, scale=0.15)
        a = Study(config).run()
        b = Study(config).run()
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            assert ra == rb

    def test_different_seed_differs(self):
        a = Study(StudyConfig(seed=1, playlist_length=6, max_users=4,
                              scale=0.15)).run()
        b = Study(StudyConfig(seed=2, playlist_length=6, max_users=4,
                              scale=0.15)).run()
        assert any(ra != rb for ra, rb in zip(a, b))

    def test_progress_callback(self):
        calls = []
        study = Study(StudyConfig(seed=4, playlist_length=4, max_users=3,
                                  scale=0.1))
        study.run(progress=lambda done, total: calls.append((done, total)))
        assert calls
        assert calls[-1][0] == len(calls)

    def test_sink_receives_all_records(self, tmp_path):
        sink = SubmissionSink(tmp_path / "submissions.csv")
        study = Study(StudyConfig(seed=4, playlist_length=4, max_users=3,
                                  scale=0.1))
        ds = study.run(sink=sink)
        assert len(sink.records) == len(ds)
        from repro.core.records import StudyDataset

        loaded = StudyDataset.from_csv(tmp_path / "submissions.csv")
        assert len(loaded) == len(ds)


class TestRunUsers:
    def test_subset_matches_full_run_slice(self, small_dataset):
        study, full = small_dataset
        chosen = {study.population.users[1].user_id,
                  study.population.users[3].user_id}
        # A fresh study avoids any state carried by the fixture's run.
        config = StudyConfig(seed=5, playlist_length=10, max_users=8,
                             scale=0.2)
        subset = Study(config).run_users(chosen)
        expected = [r for r in full if r.user_id in chosen]
        assert list(subset) == expected

    def test_unknown_user_rejected(self):
        study = Study(StudyConfig(seed=5, playlist_length=10, max_users=8,
                                  scale=0.2))
        with pytest.raises(StudyError, match="unknown user"):
            study.run_users(["nobody999"])

    def test_run_is_run_users_of_everyone(self):
        config = StudyConfig(seed=5, playlist_length=6, max_users=4,
                             scale=0.15)
        everyone = [u.user_id for u in Study(config).population.users]
        assert list(Study(config).run()) == list(
            Study(config).run_users(everyone)
        )

    def test_schedule_covers_population(self, small_dataset):
        study, _full = small_dataset
        schedule = study.schedule()
        assert [uid for uid, _plays in schedule] == [
            u.user_id for u in study.population.users
        ]
        assert all(plays >= 1 for _uid, plays in schedule)


class TestStudyConfig:
    def test_scale_validation(self):
        with pytest.raises(ValueError):
            StudyConfig(scale=0.0)
        with pytest.raises(ValueError):
            StudyConfig(scale=1.5)

    def test_bad_population_rejected(self):
        from repro.world.population import StudyPopulation

        with pytest.raises(StudyError):
            Study(population=StudyPopulation(users=(), playlist=()))

    def test_scaled_plays_bounded_by_playlist(self):
        study = Study(StudyConfig(seed=3, playlist_length=5, max_users=2))
        assert study._scaled_plays(98) == 5


def _csv_sha(config: StudyConfig) -> str:
    csv = Study(config).run().to_csv_string()
    return hashlib.sha256(csv.encode("utf-8")).hexdigest()


class TestSharedCatalogue:
    """The playlist is seed-independent: one object per process."""

    def test_studies_share_one_playlist_object(self):
        a = Study(StudyConfig(seed=1, max_users=3))
        b = Study(StudyConfig(seed=2, max_users=5))
        swapped = Study(
            StudyConfig(seed=3, max_users=4, scenario="all-broadband")
        )
        trimmed = Study(
            StudyConfig(seed=4, max_users=70, scenario="no-massachusetts")
        )
        assert a.population.users != b.population.users
        for study in (b, swapped, trimmed):
            assert study.population.playlist is a.population.playlist

    @pytest.mark.parametrize("scenario", ["baseline", "dash-abr-bbr"])
    def test_output_independent_of_earlier_studies(self, scenario):
        # Study B run after study A (which built the catalogue B
        # reuses) must write what B writes alone in a fresh process.
        def config(seed):
            return configured(
                get_scenario(scenario),
                StudyConfig(seed=seed, playlist_length=6, max_users=3,
                            scale=0.1),
            )

        Study(config(11)).run()
        after_a = _csv_sha(config(12))
        alone = fresh_interpreter(
            "from repro.core.study import StudyConfig;"
            "from repro.world.scenarios import configured, get_scenario;"
            "from tests.test_core_study import _csv_sha;"
            f"print(_csv_sha(configured(get_scenario({scenario!r}),"
            " StudyConfig(seed=12, playlist_length=6, max_users=3,"
            " scale=0.1))))"
        )
        assert after_a == alone


class TestCatalogueBuildCost:
    """Wall-clock-free guards: count ``make_clip`` calls."""

    def test_five_studies_build_the_catalogue_once(self, monkeypatch):
        calls = []
        make_clip = servers.make_clip

        def counting(*args, **kwargs):
            calls.append(kwargs["url"])
            return make_clip(*args, **kwargs)

        monkeypatch.setattr(servers, "make_clip", counting)
        servers.build_playlist_clips.cache_clear()
        for seed in range(5):
            run_study(
                StudyConfig(seed=seed, max_users=2, scale=0.01),
                RuntimeConfig(workers=1),
            )
        assert len(calls) == len(set(calls)) == 98

    @pytest.mark.skipif(
        "fork" not in mp.get_all_start_methods(),
        reason="shard workers inherit the catalogue only under fork",
    )
    def test_forked_shard_workers_build_nothing(self, monkeypatch):
        parent = os.getpid()
        in_workers = mp.get_context("fork").Value("i", 0)
        make_clip = servers.make_clip

        def counting(*args, **kwargs):
            if os.getpid() != parent:
                with in_workers.get_lock():
                    in_workers.value += 1
            return make_clip(*args, **kwargs)

        monkeypatch.setattr(servers, "make_clip", counting)
        servers.build_playlist_clips.cache_clear()
        result = run_study(
            StudyConfig(seed=5, max_users=4, scale=0.01),
            RuntimeConfig(workers=2),
        )
        assert len(result.dataset) == 4
        assert in_workers.value == 0
