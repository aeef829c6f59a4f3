"""Sweep execution: caching, reruns, force, corruption recovery.

Uses the session-scoped ``tiny_sweep`` fixture (one executed 2-cell
sweep and its cache directory) so the expensive simulation happens
once.
"""

from __future__ import annotations

import shutil
from types import SimpleNamespace

import pytest

from repro.errors import SweepError
from repro.sweep import (
    StudyCache,
    compare_sweep,
    report_json,
    run_cell,
    run_sweep,
)
from repro.sweep.cache import CSV_NAME


class TestFirstRun:
    def test_everything_simulated(self, tiny_sweep):
        result, _ = tiny_sweep
        assert len(result.runs) == 2
        assert result.misses == 2
        assert result.hits == 0
        assert result.evicted == ()
        for run in result.runs:
            assert run.cached is False
            assert run.records > 0
            assert run.plays_per_second > 0
            assert run.elapsed_s > 0

    def test_baseline_is_first_cell(self, tiny_sweep_spec, tiny_sweep):
        result, _ = tiny_sweep
        assert result.baseline is result.runs[0]
        assert result.baseline.cell_id == \
            tiny_sweep_spec.baseline_cell().cell_id

    def test_cells_have_distinct_content_addresses(self, tiny_sweep):
        result, cache_dir = tiny_sweep
        hashes = [run.config_hash for run in result.runs]
        assert len(set(hashes)) == len(hashes)
        assert StudyCache(cache_dir).entries() == sorted(hashes)

    def test_lookup_by_cell_id(self, tiny_sweep):
        result, _ = tiny_sweep
        run = result.runs[1]
        assert result[run.cell_id] is run
        with pytest.raises(KeyError):
            result["nope@s0x0"]

    def test_manifest_accounts_for_the_run(self, tiny_sweep):
        result, _ = tiny_sweep
        manifest = result.manifest()
        assert manifest["sweep"] == "tiny"
        assert manifest["cells"] == 2
        assert manifest["cache_misses"] == 2
        assert manifest["cache_hits"] == 0
        assert manifest["baseline"] == result.baseline.cell_id
        assert len(manifest["cell_runs"]) == 2
        for entry in manifest["cell_runs"]:
            assert entry["cached"] is False
            assert entry["plays_per_second"] > 0

    def test_manifest_reports_cache_traffic(self, tiny_sweep):
        result, _ = tiny_sweep
        manifest = result.manifest()
        assert manifest["cache"] == {
            "hits": 0, "misses": 2, "stores": 2, "evicted": 0,
            "gc_evicted": 0,
        }
        assert manifest["cache_gc_evicted"] == []

    def test_cache_manifest_echoes_cell_and_config(self, tiny_sweep):
        result, cache_dir = tiny_sweep
        cache = StudyCache(cache_dir)
        for run in result.runs:
            entry = cache.load(run.config_hash)
            assert entry.manifest["cell_id"] == run.cell_id
            assert entry.manifest["config"] == \
                run.cell.study_config().to_canonical_dict()


class TestRerun:
    def test_rerun_is_all_hits_with_identical_results(
        self, tiny_sweep_spec, tiny_sweep
    ):
        first, cache_dir = tiny_sweep
        lines = []
        again = run_sweep(
            tiny_sweep_spec, cache_dir=cache_dir, workers=1,
            progress=lines.append,
        )
        assert again.hits == 2
        assert again.misses == 0
        assert again.evicted == ()
        for before, after in zip(first.runs, again.runs):
            assert after.cached is True
            assert after.plays_per_second is None
            assert after.config_hash == before.config_hash
            assert list(after.dataset) == list(before.dataset)
        assert all("cached" in line for line in lines)
        assert again.manifest()["cache"] == {
            "hits": 2, "misses": 0, "stores": 0, "evicted": 0,
            "gc_evicted": 0,
        }

    def test_rerun_report_is_byte_identical(
        self, tiny_sweep_spec, tiny_sweep
    ):
        first, cache_dir = tiny_sweep
        again = run_sweep(tiny_sweep_spec, cache_dir=cache_dir, workers=1)
        assert report_json(compare_sweep(again)) == \
            report_json(compare_sweep(first))

    def test_force_resimulates(self, tiny_sweep_spec, tiny_sweep, tmp_path):
        first, cache_dir = tiny_sweep
        # Work on a copy so the shared fixture cache stays pristine.
        copy = tmp_path / "cache"
        shutil.copytree(cache_dir, copy)
        forced = run_sweep(
            tiny_sweep_spec, cache_dir=copy, workers=1, force=True
        )
        assert forced.misses == 2
        assert forced.hits == 0
        # Determinism: the re-simulation reproduces the cached bytes.
        for before, after in zip(first.runs, forced.runs):
            assert list(after.dataset) == list(before.dataset)

    def test_corrupt_entry_resimulates_and_recovers(
        self, tiny_sweep_spec, tiny_sweep, tmp_path
    ):
        first, cache_dir = tiny_sweep
        copy = tmp_path / "cache"
        shutil.copytree(cache_dir, copy)
        cache = StudyCache(copy)
        victim = first.runs[1]
        csv_path = cache.entry_dir(victim.config_hash) / CSV_NAME
        csv_path.write_bytes(csv_path.read_bytes()[:-100])

        again = run_sweep(tiny_sweep_spec, cache_dir=copy, workers=1)
        assert again.hits == 1
        assert again.misses == 1
        assert len(again.evicted) == 1
        assert victim.config_hash[:12] in again.evicted[0]
        healed = again[victim.cell_id]
        assert healed.cached is False
        assert list(healed.dataset) == list(victim.dataset)
        # The healed entry is committed again.
        assert cache.load(victim.config_hash) is not None


class TestRunCell:
    def test_hit_from_existing_cache(self, tiny_sweep_spec, tiny_sweep):
        first, cache_dir = tiny_sweep
        cell = tiny_sweep_spec.cells()[0]
        run = run_cell(cell, cache=StudyCache(cache_dir))
        assert run.cached is True
        assert run.plays_per_second is None
        assert list(run.dataset) == list(first.runs[0].dataset)

    def test_failed_shards_refuse_to_cache(
        self, tiny_sweep_spec, tmp_path, monkeypatch
    ):
        import repro.sweep.runner as runner_module

        def broken_run_study(config, runtime):
            return SimpleNamespace(
                failed_shards=(0, 2), quarantined_fraction=0.5
            )

        monkeypatch.setattr(runner_module, "run_study", broken_run_study)
        cache = StudyCache(tmp_path / "cache")
        cell = tiny_sweep_spec.cells()[0]
        with pytest.raises(SweepError, match="refusing to cache"):
            run_cell(cell, cache=cache)
        assert cache.entries() == []

    def test_workers_validated(self, tiny_sweep_spec, tmp_path):
        with pytest.raises(SweepError, match="workers"):
            run_sweep(tiny_sweep_spec, cache_dir=tmp_path, workers=0)

    def test_over_threshold_quarantine_message_names_the_fraction(
        self, tiny_sweep_spec, tmp_path, monkeypatch
    ):
        import repro.sweep.runner as runner_module

        def degraded_run_study(config, runtime):
            return SimpleNamespace(
                failed_shards=(1,), quarantined_fraction=0.25
            )

        monkeypatch.setattr(runner_module, "run_study", degraded_run_study)
        with pytest.raises(SweepError, match=r"25\.0% of plays"):
            run_cell(tiny_sweep_spec.cells()[0], quarantine_threshold=0.05)

    def test_sub_threshold_quarantine_runs_uncached(
        self, tiny_sweep_spec, tiny_sweep, tmp_path, monkeypatch
    ):
        """A cell that lost a tolerable sliver of plays completes, but
        its partial dataset must never be committed to the cache."""
        import repro.sweep.runner as runner_module

        first, _cache_dir = tiny_sweep
        partial = first.runs[0].dataset

        def degraded_run_study(config, runtime):
            return SimpleNamespace(
                failed_shards=(1,),
                quarantined_fraction=0.02,
                dataset=partial,
                telemetry=SimpleNamespace(plays_per_second=lambda: 9.0),
            )

        monkeypatch.setattr(runner_module, "run_study", degraded_run_study)
        cache = StudyCache(tmp_path / "cache")
        run = run_cell(
            tiny_sweep_spec.cells()[0], cache=cache,
            quarantine_threshold=0.05,
        )
        assert run.quarantined_fraction == pytest.approx(0.02)
        assert run.cached is False
        assert cache.entries() == []
