"""Clip records and the study dataset."""

import pytest

from repro.core.records import ClipRecord, StudyDataset, _FIELD_NAMES
from repro.errors import CheckpointError
from tests.test_core_spill import profiled_calls


def record(**overrides) -> ClipRecord:
    base = dict(
        user_id="user001",
        user_country="US",
        user_state="MA",
        user_region="US/Canada",
        connection="DSL/Cable",
        pc_class="Pentium III / 256-512MB",
        server_name="US/CNN",
        server_country="US",
        server_region="US/Canada",
        clip_url="rtsp://us.cnn/clip00.rm",
        outcome="played",
        protocol="UDP",
        encoded_bandwidth_bps=225_000.0,
        encoded_frame_rate=24.0,
        measured_bandwidth_bps=210_000.0,
        measured_frame_rate=14.5,
        jitter_s=0.032,
        frames_displayed=870,
        frames_late=3,
        frames_lost=5,
        frames_thinned=0,
        rebuffer_count=0,
        rebuffer_total_s=0.0,
        initial_buffering_s=8.2,
        play_span_s=60.0,
        cpu_utilization=0.4,
        rating=7,
    )
    base.update(overrides)
    return ClipRecord(**base)


class TestClipRecord:
    def test_played_predicate(self):
        assert record().played
        assert not record(outcome="unavailable").played

    def test_rated_predicate(self):
        assert record(rating=0).rated
        assert not record(rating=-1).rated

    def test_jitter_ms(self):
        assert record(jitter_s=0.25).jitter_ms == pytest.approx(250.0)

    def test_has_jitter_sample(self):
        assert record(frames_displayed=3).has_jitter_sample
        assert not record(frames_displayed=2).has_jitter_sample


class TestStudyDataset:
    def test_len_iter_index(self):
        ds = StudyDataset([record(), record(rating=-1)])
        assert len(ds) == 2
        assert ds[0].rating == 7
        assert len(list(ds)) == 2

    def test_append_extend(self):
        ds = StudyDataset()
        ds.append(record())
        ds.extend([record(), record()])
        assert len(ds) == 3

    def test_merged_in_user_order(self):
        # Shards finish out of order; the merge restores serial order.
        shard_b = StudyDataset([
            record(user_id="user002", rating=0),
            record(user_id="user002", rating=1),
        ])
        shard_a = StudyDataset([
            record(user_id="user001", rating=2),
            record(user_id="user003", rating=3),
        ])
        merged = StudyDataset.merged_in_user_order(
            [shard_b, shard_a], ["user001", "user002", "user003"]
        )
        assert [(r.user_id, r.rating) for r in merged] == [
            ("user001", 2),
            ("user002", 0),
            ("user002", 1),
            ("user003", 3),
        ]

    def test_merged_rejects_unknown_user(self):
        with pytest.raises(ValueError, match="unknown user"):
            StudyDataset.merged_in_user_order(
                [StudyDataset([record(user_id="user009")])], ["user001"]
            )

    def test_played_filter(self):
        ds = StudyDataset([
            record(),
            record(outcome="unavailable"),
            record(outcome="control_failed"),
        ])
        assert len(ds.played()) == 1

    def test_rated_filter(self):
        ds = StudyDataset([record(rating=5), record(rating=-1)])
        assert len(ds.rated()) == 1

    def test_with_jitter_filter(self):
        ds = StudyDataset([
            record(frames_displayed=100),
            record(frames_displayed=0, measured_frame_rate=0.0),
            record(outcome="unavailable"),
        ])
        assert len(ds.with_jitter()) == 1

    def test_exclude_state(self):
        ds = StudyDataset([record(user_state="MA"), record(user_state="CA")])
        assert len(ds.exclude_state("MA")) == 1

    def test_values_column(self):
        ds = StudyDataset([record(measured_frame_rate=5.0),
                           record(measured_frame_rate=10.0)])
        assert ds.values("measured_frame_rate") == [5.0, 10.0]


class TestCsvRoundTrip:
    def test_round_trip_preserves_everything(self, tmp_path):
        ds = StudyDataset([
            record(),
            record(outcome="unavailable", rating=-1, protocol=""),
            record(user_country="AU", user_state="", rating=0),
        ])
        path = tmp_path / "study.csv"
        ds.to_csv(path)
        loaded = StudyDataset.from_csv(path)
        assert len(loaded) == 3
        for original, restored in zip(ds, loaded):
            assert original == restored

    def test_string_round_trip(self):
        ds = StudyDataset([record()])
        text = ds.to_csv_string()
        loaded = StudyDataset.from_csv_string(text)
        assert loaded[0] == ds[0]

    def test_types_restored(self, tmp_path):
        ds = StudyDataset([record()])
        path = tmp_path / "study.csv"
        ds.to_csv(path)
        restored = StudyDataset.from_csv(path)[0]
        assert isinstance(restored.frames_displayed, int)
        assert isinstance(restored.measured_frame_rate, float)
        assert isinstance(restored.rating, int)


ABR_COLUMNS = ("stall_count", "stall_seconds", "switch_count", "mean_level")


def csv_lines(*records: ClipRecord) -> list[str]:
    """The CSV of ``records`` as lines (header first), newline-free."""
    return StudyDataset(records).to_csv_string().splitlines()


def load(lines: list[str]) -> StudyDataset:
    return StudyDataset.from_csv_string("\r\n".join(lines) + "\r\n")


def edit_cell(line: str, column: str, value: str) -> str:
    cells = line.split(",")
    cells[_FIELD_NAMES.index(column)] = value
    return ",".join(cells)


class TestCsvHeaders:
    """The header decides where each field is read from; files from
    before the ABR fields, and files with reordered columns, load."""

    def test_pre_abr_csv_loads_with_defaults(self):
        rows = [record(stall_count=4, mean_level=2.5, rating=3), record()]
        keep = [i for i, n in enumerate(_FIELD_NAMES) if n not in ABR_COLUMNS]
        old = [
            ",".join(line.split(",")[i] for i in keep)
            for line in csv_lines(*rows)
        ]
        assert "mean_level" not in old[0] and old[0].endswith(",rating")
        loaded = load(old)
        assert list(loaded) == [record(rating=3), record()]
        assert loaded[0].mean_level == -1.0 and loaded[0].stall_count == 0

    def test_reordered_columns_load(self):
        rows = [record(rating=9), record(user_id="user002", frames_lost=77)]
        order = list(reversed(range(len(_FIELD_NAMES))))
        shuffled = [
            ",".join(line.split(",")[i] for i in order)
            for line in csv_lines(*rows)
        ]
        assert list(load(shuffled)) == rows

    def test_blank_rows_are_skipped(self):
        header, first, second = csv_lines(record(), record(rating=1))
        loaded = load([header, "", first, "", "", second, ""])
        assert list(loaded) == [record(), record(rating=1)]

    def test_empty_file_is_an_empty_dataset(self):
        assert len(StudyDataset.from_csv_string("")) == 0
        assert len(load(csv_lines())) == 0


class TestCsvErrors:
    """Garbage is refused with one ``ValueError`` that names the
    1-based line and the column (never a ``TypeError`` from deep inside
    a ``DictReader``)."""

    def lines(self):
        return csv_lines(record(), record(rating=1), record(rating=2))

    def test_short_row(self):
        lines = self.lines()
        lines[2] = ",".join(lines[2].split(",")[:-2])
        with pytest.raises(ValueError, match=r"line 3: .*'mean_level'"):
            load(lines)

    def test_long_row(self):
        lines = self.lines()
        lines[3] += ",extra"
        with pytest.raises(ValueError, match=r"line 4: 32 fields.*31"):
            load(lines)

    def test_blank_rows_count_as_lines(self):
        lines = self.lines()
        lines[3] += ",extra"
        lines.insert(1, "")
        with pytest.raises(ValueError, match=r"line 5: 32 fields"):
            load(lines)

    def test_unknown_header_column(self):
        lines = self.lines()
        lines[0] = lines[0].replace("jitter_s", "jitter_ms")
        with pytest.raises(ValueError, match=r"line 1: unknown column 'jitter_ms'"):
            load(lines)

    def test_duplicated_header_column(self):
        lines = self.lines()
        lines[0] = lines[0].replace("jitter_s", "play_span_s")
        with pytest.raises(
            ValueError, match=r"line 1: duplicated column 'play_span_s'"
        ):
            load(lines)

    def test_missing_required_column(self):
        drop = _FIELD_NAMES.index("outcome")
        lines = [
            ",".join(c for i, c in enumerate(line.split(",")) if i != drop)
            for line in self.lines()
        ]
        with pytest.raises(
            ValueError, match=r"line 1: missing required column 'outcome'"
        ):
            load(lines)

    @pytest.mark.parametrize("column, value, kind", [
        ("frames_lost", "5.0", "int"),
        ("frames_lost", "", "int"),
        ("jitter_s", "fast", "float"),
        ("rating", "None", "int"),
    ])
    def test_unparsable_number(self, column, value, kind):
        lines = self.lines()
        lines[2] = edit_cell(lines[2], column, value)
        with pytest.raises(ValueError) as caught:
            load(lines)
        assert str(caught.value) == (
            f"line 3: column {column!r}: cannot parse {value!r} as {kind}"
        )

    def test_line_numbers_follow_quoted_newlines(self):
        lines = csv_lines(record(pc_class="two\nlines"), record())
        assert len(lines) == 4  # the first record spans lines 2-3
        lines[3] = edit_cell(lines[3], "rating", "x")
        with pytest.raises(ValueError, match=r"line 4: column 'rating'"):
            load(lines)

    def test_error_past_the_first_chunk(self, monkeypatch):
        monkeypatch.setattr("repro.core.records._CSV_READ_ROWS", 2)
        lines = csv_lines(*[record(rating=k % 11) for k in range(7)])
        assert len(load(lines)) == 7
        lines[6] = edit_cell(lines[6], "play_span_s", "sixty")
        with pytest.raises(ValueError, match=r"line 7: column 'play_span_s'"):
            load(lines)

    def test_checkpoint_and_cache_still_translate_it(self, tmp_path):
        """`load_shard` reports damage as CheckpointError and
        `StudyCache.load` evicts, exactly as before the rewrite."""
        import hashlib
        import json

        from repro.runtime.checkpoint import CheckpointStore
        from repro.sweep.cache import StudyCache

        lines = self.lines()
        lines[2] = ",".join(lines[2].split(",")[:5])
        damaged = "\r\n".join(lines) + "\r\n"

        store = CheckpointStore(tmp_path / "ckpt")
        store.open("fp1", resume=False)
        store.record_shard(0, StudyDataset([record()]), 1.0, attempts=1)
        store._shard_path(0).write_text(damaged, newline="")
        with pytest.raises(CheckpointError, match="line 3: row ends before"):
            store.load_shard(0)

        cache = StudyCache(tmp_path / "cache")
        cache.store("f" * 64, StudyDataset([record()]))
        directory = cache.entry_dir("f" * 64)
        manifest = json.loads((directory / "manifest.json").read_text())
        (directory / "study.csv").write_text(damaged, newline="")
        manifest["csv_sha256"] = hashlib.sha256(damaged.encode()).hexdigest()
        (directory / "manifest.json").write_text(json.dumps(manifest))
        assert cache.load("f" * 64) is None
        assert "unparsable CSV: line 3: row ends before" in cache.evicted[0]


class TestCsvCostPerRecord:
    """CSV in and out costs a bounded number of Python calls per record
    (counted under ``cProfile``, so no wall clock): the reader converts
    a column per call rather than a cell, the writer takes each record
    as one ``attrgetter`` row.  The ``DictReader`` reader measured 9.0,
    the ``getattr``-per-cell writer 33.0."""

    def test_to_and_from_csv_string(self):
        n = 2000
        dataset = StudyDataset(
            record(user_id=f"user{k // 5:04d}", rating=k % 11) for k in range(n)
        )
        text, calls = profiled_calls(dataset.to_csv_string)
        assert calls / n <= 5
        reread, calls = profiled_calls(lambda: StudyDataset.from_csv_string(text))
        assert calls / n <= 5
        assert list(reread) == list(dataset)


class TestMergePeakMemory:
    """S2 regression: the shard merge must cost one extra reference
    per record, not the ~2x the old dict-of-lists regrouping paid
    (per-user side lists held alive alongside the merged output)."""

    def test_merge_allocates_about_one_reference_per_record(self):
        import tracemalloc

        n_users, plays, shard_count = 200, 50, 8
        users = [f"user{i:06d}" for i in range(n_users)]
        shards = []
        for shard in range(shard_count):
            dataset = StudyDataset()
            for i in range(shard, n_users, shard_count):
                for _ in range(plays):
                    dataset.append(record(user_id=users[i]))
            shards.append(dataset)
        n_records = n_users * plays

        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            merged = StudyDataset.merged_in_user_order(shards, tuple(users))
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

        assert len(merged) == n_records
        assert [r.user_id for r in merged] == sorted(
            r.user_id for r in merged
        )
        # One 8-byte reference per record, plus bounded bookkeeping
        # (the user-order index and per-user cursors).
        ref_bytes = 8 * n_records
        assert peak < 1.5 * ref_bytes + 65536, (
            f"merge peak {peak} is {peak / ref_bytes:.2f} references "
            f"per record; the constant-residency merge is leaking"
        )
