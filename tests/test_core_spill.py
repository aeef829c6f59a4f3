"""Columnar spill files: round-trips, merging, damage detection."""

from __future__ import annotations

import cProfile
import pstats
import tracemalloc

import numpy as np
import pytest

from repro.core.records import ClipRecord, StudyDataset
from repro.core.spill import (
    DEFAULT_BATCH_SIZE,
    RECORD_DTYPE,
    ShardSpill,
    SpilledDataset,
    SpillError,
    SpillWriter,
    batch_file_name,
    iter_merged_records,
    row_to_record,
)


def make_record(user_id: str, position: int, **overrides) -> ClipRecord:
    base = dict(
        user_id=user_id,
        user_country="US",
        user_state="MA",
        user_region="US",
        connection="DSL/Cable",
        pc_class="High-end",
        server_name="siteA",
        server_country="US",
        server_region="US East",
        clip_url=f"rtsp://siteA.example.com/clip{position:03d}.rm",
        outcome="played",
        protocol="UDP",
        encoded_bandwidth_bps=225_000.0,
        encoded_frame_rate=15.0,
        measured_bandwidth_bps=180_123.456789,
        measured_frame_rate=14.25,
        jitter_s=0.01 * position + 1e-7,
        frames_displayed=400 + position,
        frames_late=3,
        frames_lost=1,
        frames_thinned=0,
        rebuffer_count=1,
        rebuffer_total_s=0.5,
        initial_buffering_s=2.125,
        play_span_s=60.0,
        cpu_utilization=0.2,
        rating=position % 11,
    )
    base.update(overrides)
    return ClipRecord(**base)


def profiled_calls(fn):
    """``fn()``'s result and every call (Python and builtin) ``cProfile``
    saw it make: a cost with no wall clock in it."""
    profiler = cProfile.Profile()
    result = profiler.runcall(fn)
    return result, sum(
        ncalls for _prim, ncalls, *_rest
        in pstats.Stats(profiler).stats.values()
    )


def spill_users(tmp_path, shard_id, users, plays=3, batch_size=4):
    writer = SpillWriter(tmp_path, shard_id, batch_size=batch_size)
    records = []
    for user_id in users:
        for position in range(plays):
            record = make_record(user_id, position)
            writer.add(record)
            records.append(record)
    index = writer.finish()
    return ShardSpill(tmp_path, index), records


class TestRoundTrip:
    def test_records_survive_exactly(self, tmp_path):
        spill, records = spill_users(
            tmp_path, 0, ["user001", "user002"], plays=5, batch_size=3
        )
        assert list(spill.iter_records()) == records

    def test_float_fields_are_bit_identical(self, tmp_path):
        record = make_record(
            "user001", 0,
            measured_bandwidth_bps=1.0 / 3.0,
            jitter_s=0.1 + 0.2,  # classic non-representable sum
        )
        writer = SpillWriter(tmp_path, 0)
        writer.add(record)
        spill = ShardSpill(tmp_path, writer.finish())
        (loaded,) = spill.iter_records()
        assert repr(loaded.measured_bandwidth_bps) == repr(
            record.measured_bandwidth_bps
        )
        assert loaded == record

    def test_batching_splits_files(self, tmp_path):
        spill, _records = spill_users(
            tmp_path, 3, ["user001"], plays=7, batch_size=3
        )
        assert [b["count"] for b in spill.index["batches"]] == [3, 3, 1]
        assert (tmp_path / batch_file_name(3, 2)).exists()

    def test_open_reads_the_committed_index(self, tmp_path):
        _spill, records = spill_users(tmp_path, 1, ["user001", "user002"])
        reopened = ShardSpill.open(tmp_path, 1)
        assert list(reopened.iter_records()) == records
        assert reopened.user_runs == [("user001", 3), ("user002", 3)]

    def test_oversized_string_is_refused_not_truncated(self, tmp_path):
        writer = SpillWriter(tmp_path, 0)
        with pytest.raises(SpillError, match="exceeds the spill dtype"):
            writer.add(make_record("u" * 200, 0))

    def test_finish_is_single_shot(self, tmp_path):
        writer = SpillWriter(tmp_path, 0)
        writer.add(make_record("user001", 0))
        writer.finish()
        with pytest.raises(SpillError):
            writer.add(make_record("user001", 1))
        with pytest.raises(SpillError):
            writer.finish()


class TestDamageDetection:
    def test_truncated_batch_file(self, tmp_path):
        spill, _records = spill_users(tmp_path, 0, ["user001"], plays=6)
        path = tmp_path / spill.index["batches"][0]["file"]
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(SpillError):
            spill.verify()

    def test_missing_batch_file(self, tmp_path):
        spill, _records = spill_users(tmp_path, 0, ["user001"])
        (tmp_path / spill.index["batches"][0]["file"]).unlink()
        with pytest.raises(SpillError, match="unreadable spill batch"):
            spill.verify()

    def test_wrong_row_count_in_batch(self, tmp_path):
        spill, _records = spill_users(
            tmp_path, 0, ["user001"], plays=4, batch_size=2
        )
        path = tmp_path / spill.index["batches"][0]["file"]
        with path.open("wb") as handle:
            np.save(handle, np.zeros(1, dtype=RECORD_DTYPE))
        with pytest.raises(SpillError, match="dtype/count mismatch"):
            spill.verify()

    def test_inconsistent_index_counts(self, tmp_path):
        writer = SpillWriter(tmp_path, 0)
        writer.add(make_record("user001", 0))
        index = writer.finish()
        index["count"] = 5
        with pytest.raises(SpillError, match="inconsistent spill index"):
            ShardSpill(tmp_path, index)

    def test_unsupported_format(self, tmp_path):
        writer = SpillWriter(tmp_path, 0)
        writer.add(make_record("user001", 0))
        index = writer.finish()
        index["format"] = 99
        with pytest.raises(SpillError, match="unsupported spill format"):
            ShardSpill(tmp_path, index)


class TestMerge:
    def test_population_order_across_shards(self, tmp_path):
        # Shard 1 owns users 2 and 4; shard 0 owns 1 and 3 — interleaved.
        spill_a, recs_a = spill_users(tmp_path, 0, ["user001", "user003"])
        spill_b, recs_b = spill_users(tmp_path, 1, ["user002", "user004"])
        order = ("user001", "user002", "user003", "user004")
        merged = list(iter_merged_records([spill_a, spill_b], order))
        expected = recs_a[:3] + recs_b[:3] + recs_a[3:] + recs_b[3:]
        assert merged == expected

    def test_user_atomicity_is_enforced(self, tmp_path):
        spill_a, _ = spill_users(tmp_path, 0, ["user001"])
        spill_b, _ = spill_users(tmp_path, 1, ["user001"])
        with pytest.raises(SpillError, match="user-atomic"):
            list(iter_merged_records([spill_a, spill_b], ("user001",)))

    def test_spilled_user_missing_from_order(self, tmp_path):
        spill, _ = spill_users(tmp_path, 0, ["user001", "user009"])
        with pytest.raises(SpillError, match="not in user_order"):
            list(iter_merged_records([spill], ("user001",)))

    def test_users_without_records_are_skipped(self, tmp_path):
        spill, records = spill_users(tmp_path, 0, ["user002"])
        order = ("user001", "user002", "user003")
        assert list(iter_merged_records([spill], order)) == records


class TestSpilledDataset:
    def build(self, tmp_path):
        spill_a, recs_a = spill_users(
            tmp_path, 0, ["user001", "user003"], batch_size=2
        )
        spill_b, recs_b = spill_users(
            tmp_path, 1, ["user002"], batch_size=2
        )
        order = ("user001", "user002", "user003")
        serial = recs_a[:3] + recs_b + recs_a[3:]
        return SpilledDataset([spill_b, spill_a], order), serial

    def test_len_and_iteration(self, tmp_path):
        dataset, serial = self.build(tmp_path)
        assert len(dataset) == len(serial)
        assert list(dataset) == serial

    def test_csv_byte_identical_to_study_dataset(self, tmp_path):
        dataset, serial = self.build(tmp_path)
        assert dataset.to_csv_string() == StudyDataset(serial).to_csv_string()

    def test_csv_chunks_concatenate_to_the_csv(self, tmp_path):
        dataset, serial = self.build(tmp_path)
        chunks = list(dataset.iter_csv_chunks(rows_per_chunk=2))
        assert len(chunks) > 1
        assert "".join(chunks) == StudyDataset(serial).to_csv_string()

    def test_to_csv_writes_identical_file(self, tmp_path):
        dataset, serial = self.build(tmp_path)
        streamed, exact = tmp_path / "s.csv", tmp_path / "e.csv"
        dataset.to_csv(streamed)
        StudyDataset(serial).to_csv(exact)
        assert streamed.read_bytes() == exact.read_bytes()

    def test_materialize(self, tmp_path):
        dataset, serial = self.build(tmp_path)
        materialized = dataset.materialize()
        assert isinstance(materialized, StudyDataset)
        assert list(materialized) == serial

    def test_remove_deletes_all_files(self, tmp_path):
        dataset, _serial = self.build(tmp_path)
        for spill in dataset.spills:
            spill.remove()
        assert list(tmp_path.glob("shard_*")) == []


class TestRowConversion:
    def test_row_to_record_types(self, tmp_path):
        writer = SpillWriter(tmp_path, 0)
        writer.add(make_record("user001", 2))
        spill = ShardSpill(tmp_path, writer.finish())
        (row,) = spill.iter_rows()
        record = row_to_record(row)
        assert isinstance(record.user_id, str)
        assert isinstance(record.frames_displayed, int)
        assert isinstance(record.jitter_s, float)


class TestCostPerRecord:
    """The record path's work per record, counted in Python calls under
    ``cProfile`` (no wall clock, same style as the transport's
    ``TestCostPerSegment``).  Moving one numpy scalar at a time cost
    101.5 calls per record for write -> verify -> chunked CSV; moving
    slices costs about 10."""

    def test_write_verify_export_calls_per_record(self, tmp_path):
        users = [f"user{i:04d}" for i in range(400)]
        records = [make_record(u, k) for u in users for k in range(5)]

        def path() -> str:
            writer = SpillWriter(tmp_path, 0)
            for record in records:
                writer.add(record)
            spill = ShardSpill(tmp_path, writer.finish())
            spill.verify()
            return "".join(SpilledDataset([spill], users).iter_csv_chunks())

        text, calls = profiled_calls(path)
        assert text == StudyDataset(records).to_csv_string()
        assert calls / len(records) <= 40


class TestResidency:
    """The streaming path's peak allocation at the production batch
    size, against the row-at-a-time build's on the same workload
    (`benchmarks/test_bench_memory._run_streaming` under
    ``tracemalloc``).  51,200 records in 4 shards fill whole batches, so
    the merge holds four 8,192-row arrays: tuples are only ever held a
    conversion slice at a time, and holding a batch as tuples beside its
    array would read about +40 %."""

    #: Measured at the commit before the columnar rewrite.
    PARENT_PEAK = 72_575_671

    def test_default_batch_peak_within_ten_percent(self, tmp_path, monkeypatch):
        bench = pytest.importorskip("benchmarks.test_bench_memory")
        monkeypatch.setattr(bench, "BATCH", DEFAULT_BATCH_SIZE)
        tracemalloc.start()
        try:
            bench._run_streaming(6400, tmp_path)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.10 * self.PARENT_PEAK
