"""The columnar record path against the row-at-a-time one it replaced.

`repro.core.spill` moves whole slices between tuples and numpy and
`repro.core.records` parses CSV a column at a time; the bytes on disk,
the index, every CSV chunk and every record read back must be what the
scalar-at-a-time implementation (`reference_spill.py`) produces for the
same record stream, batch size and shrink sequence — checkpoints and
spills written before the rewrite resume on this build.  A spill written
by the parent commit itself (`tests/data/parent_spill`) pins the format
independently of both implementations.
"""

from __future__ import annotations

import dataclasses
import hashlib
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.records import (
    ClipRecord,
    StudyDataset,
    _FIELD_NAMES,
    _FLOAT_FIELDS,
    _INT_FIELDS,
)
from repro.core.spill import (
    _SLICE_ROWS,
    _STRING_WIDTHS,
    DEFAULT_BATCH_SIZE,
    RECORD_DTYPE,
    RECORD_SCHEMA_VERSION,
    SPILL_FORMAT,
    ShardSpill,
    SpilledDataset,
    SpillWriter,
)
from tests import reference_spill as reference
from tests.test_core_spill import make_record

FIXTURE = Path(__file__).parent / "data" / "parent_spill"

#: Everything a CSV cell or a ``U`` field can trip over: the CSV
#: metacharacters, non-ASCII in and out of the BMP, blanks.  No NUL —
#: numpy strips trailing NULs from ``U`` fields (both implementations).
_ALPHABET = "aZ9 ,\"'\n\r;éß中\U0001f3ac-_/:."


def _strings(width: int):
    return st.one_of(
        st.just(""),
        st.just("x" * width),
        st.just("é" * width),
        st.text(_ALPHABET, max_size=width),
    )


_INTS = st.one_of(
    st.sampled_from([-1, 0, 1, 2**62, -(2**63), 2**63 - 1]),
    st.integers(-(2**63), 2**63 - 1),
)
_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, 0.1 + 0.2, 1.0 / 3.0, 5e-324, 1.7e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _field(name: str):
    if name in _INT_FIELDS:
        return _INTS
    if name in _FLOAT_FIELDS:
        return _FLOATS
    return _strings(_STRING_WIDTHS[name])


_TEMPLATES = st.lists(
    st.builds(ClipRecord, **{name: _field(name) for name in _FIELD_NAMES}),
    min_size=1, max_size=4,
)
#: Run lengths that straddle the conversion slice (0: played nothing).
_RUNS = st.sampled_from(
    [0, 1, 2, 5, _SLICE_ROWS - 1, _SLICE_ROWS, _SLICE_ROWS + 1]
)
_BATCH_SIZES = st.sampled_from(
    [1, 3, _SLICE_ROWS, 1023, 1024, 1025, DEFAULT_BATCH_SIZE]
)


def _shards(templates, users, owners, runs, batch_sizes, shrinks):
    """Per shard: its records in population order (``users[i]`` plays
    ``runs[i]`` clips in shard ``owners[i]``; 0 = in the population,
    played nothing), a batch size, and a shrink plan ``{records added
    so far: new batch size}``."""
    shards = [
        {"records": [], "batch_size": size, "shrinks": plan}
        for size, plan in zip(batch_sizes, shrinks)
    ]
    for position, (user_id, owner, run) in enumerate(zip(users, owners, runs)):
        shards[owner]["records"].extend(
            dataclasses.replace(
                templates[(position + k) % len(templates)], user_id=user_id
            )
            for k in range(run)
        )
    return shards


@st.composite
def _studies(draw):
    templates = draw(_TEMPLATES)
    users = draw(st.lists(
        _strings(_STRING_WIDTHS["user_id"]).filter(bool),
        min_size=1, max_size=6, unique=True,
    ))
    n_shards = draw(st.integers(1, 3))
    per_user = st.lists(
        st.tuples(st.integers(0, n_shards - 1), _RUNS),
        min_size=len(users), max_size=len(users),
    )
    owners, runs = zip(*draw(per_user))
    batch_sizes = [draw(_BATCH_SIZES) for _ in range(n_shards)]
    if sum(runs) > 600:  # thousands of one-row files buy no coverage
        batch_sizes = [max(size, 3) for size in batch_sizes]
    shrinks = [
        draw(st.dictionaries(
            st.integers(0, sum(runs)),
            st.sampled_from([1, 2, 3, 100, _SLICE_ROWS, 1000, 5000]),
            max_size=3,
        ))
        for _ in range(n_shards)
    ]
    shards = _shards(templates, users, owners, runs, batch_sizes, shrinks)
    return shards, tuple(users)


def _write(writer, shard) -> dict:
    for added, record in enumerate(shard["records"]):
        if added in shard["shrinks"]:
            writer.shrink(shard["shrinks"][added])
        writer.add(record)
    if len(shard["records"]) in shard["shrinks"]:
        writer.shrink(shard["shrinks"][len(shard["records"])])
    return writer.finish()


CHUNK_SIZES = (1, 2, 4096)


def check_against_reference(tmp, shards, user_order, chunk_sizes=CHUNK_SIZES):
    spills, oracle_spills, serial = [], [], []
    for shard_id, shard in enumerate(shards):
        writer = SpillWriter(tmp / "new", shard_id, shard["batch_size"])
        oracle = reference.RowAtATimeWriter(
            tmp / "old", shard_id, shard["batch_size"]
        )
        index, oracle_index = _write(writer, shard), _write(oracle, shard)
        assert index == oracle_index
        assert writer.bytes_written == oracle.bytes_written
        assert writer.batch_size == oracle.batch_size
        names = sorted(p.name for p in (tmp / "old").glob("shard_*"))
        assert sorted(p.name for p in (tmp / "new").glob("shard_*")) == names
        for name in names:
            assert (tmp / "new" / name).read_bytes() == (
                tmp / "old" / name
            ).read_bytes(), name
        spill = ShardSpill.open(tmp / "new", shard_id)
        spill.verify()
        assert list(spill.iter_records()) == shard["records"]
        assert [
            reference.row_to_record(row) for row in reference.iter_rows(spill)
        ] == shard["records"]
        spills.append(spill)
        oracle_spills.append(ShardSpill.open(tmp / "old", shard_id))
    for user_id in user_order:
        for shard in shards:
            serial += [r for r in shard["records"] if r.user_id == user_id]

    dataset = SpilledDataset(spills, user_order)
    text = reference.merged_csv(oracle_spills, user_order)
    assert list(dataset) == serial
    assert dataset.to_csv_string() == text
    assert StudyDataset(serial).to_csv_string() == text
    assert reference.dataset_csv(serial) == text
    for rows_per_chunk in chunk_sizes:
        assert list(dataset.iter_csv_chunks(rows_per_chunk)) == list(
            reference.iter_csv_chunks(oracle_spills, user_order, rows_per_chunk)
        )
    reread = StudyDataset.from_csv_string(text)
    assert list(reread) == list(reference.read_csv(text)) == serial


class TestAgainstRowAtATime:
    @settings(max_examples=50, deadline=None)
    @given(study=_studies(), rows_per_chunk=st.sampled_from(CHUNK_SIZES))
    def test_same_files_index_csv_and_records(self, study, rows_per_chunk):
        shards, user_order = study
        with tempfile.TemporaryDirectory() as tmp:
            check_against_reference(
                Path(tmp), shards, user_order, (rows_per_chunk,)
            )

    #: Three shards' worth of users (``k % 3`` owns user ``k``) whose
    #: runs end before, on and after the slice and batch boundaries of
    #: the grid below; ``None`` tops its shard up to one whole batch.
    RUNS = (1, 255, 256, 257, 0, 5, 700, 2, 1030, 3, None, 1)

    @pytest.mark.parametrize("shrinks", [
        {}, {300: 100}, {10: 500, 40: 200}, {0: 5000, 513: 256, 514: 255},
        {300: 300, 400: 100},  # shrinks to exactly what is buffered
    ], ids=["no-shrink", "mid", "twice", "at-slice", "to-fill"])
    @pytest.mark.parametrize(
        "batch_size", [1, 3, 1023, 1024, 1025, DEFAULT_BATCH_SIZE]
    )
    def test_boundary_grid(self, tmp_path, batch_size, shrinks):
        """The property's corners, every time: streams long enough to
        fill whole slices and, in one shard, exactly a batch."""
        if batch_size > 3:
            runs = [batch_size - 257 if r is None else r for r in self.RUNS]
        else:  # a file per row or three: keep the streams short
            runs = [7 if r is None else r % 50 for r in self.RUNS]
        users = tuple(f"usér{k:02d}" for k in range(len(runs)))
        templates = [
            make_record("", k, pc_class=text, jitter_s=0.1 * k + 0.2, rating=k - 1)
            for k, text in enumerate(["High-end", "", 'a "quoted", one', "中" * 48])
        ]
        shards = _shards(
            templates, users, [k % 3 for k in range(len(runs))], runs,
            [batch_size] * 3, [shrinks, {}, shrinks],
        )
        assert len(shards[1]["records"]) == batch_size or batch_size <= 3
        check_against_reference(tmp_path, shards, users)


class TestParentWrittenSpill:
    """`tests/data/parent_spill`: 3 users, 6 records, batches of 4 + 2,
    written by the commit before the columnar rewrite (its
    `SpillWriter(batch_size=4)`, shard 7).  A spill journaled by a
    checkpoint of that build must resume on this one."""

    USERS = ("user001", "usér002", "user003")
    CSV_SHA256 = (
        "3bc2b138d60ddecf9b7fb5b30ba190944b2666501154eb43a5fcd8bd7bcb9a84"
    )

    def records(self):
        return [
            make_record(
                user, position,
                user_state="" if u == 1 else "MA",
                jitter_s=0.1 + 0.2 if position else 1e-7,
                frames_displayed=2**62 if u == 2 else 400 + position,
                rating=-1 if position else 7,
                mean_level=1.0 / 3.0 if u == 1 else -1.0,
            )
            for u, user in enumerate(self.USERS)
            for position in range(2)
        ]

    def test_format_versions_did_not_move(self):
        assert (SPILL_FORMAT, RECORD_SCHEMA_VERSION) == (2, 2)
        assert DEFAULT_BATCH_SIZE == 8192
        # Packed: every byte of a row is a field's, so batch files hold
        # nothing a writer did not assign.
        assert RECORD_DTYPE.itemsize == sum(
            RECORD_DTYPE[name].itemsize for name in _FIELD_NAMES
        )

    def test_opens_verifies_and_exports_the_pinned_csv(self):
        spill = ShardSpill.open(FIXTURE, 7)
        spill.verify()
        assert [b["count"] for b in spill.index["batches"]] == [4, 2]
        assert list(spill.iter_records()) == self.records()
        text = SpilledDataset([spill], self.USERS).to_csv_string()
        assert hashlib.sha256(text.encode()).hexdigest() == self.CSV_SHA256
        assert "".join(
            SpilledDataset([spill], self.USERS).iter_csv_chunks(4)
        ) == text

    def test_this_build_writes_the_same_bytes(self, tmp_path):
        writer = SpillWriter(tmp_path, 7, batch_size=4)
        for record in self.records():
            writer.add(record)
        writer.finish()
        for path in sorted(FIXTURE.iterdir()):
            assert (tmp_path / path.name).read_bytes() == path.read_bytes()

    def test_a_copy_merges_with_a_fresh_shard(self, tmp_path):
        shutil.copytree(FIXTURE, tmp_path / "spill")
        writer = SpillWriter(tmp_path / "spill", 8, batch_size=4)
        fresh = [make_record("user000", position) for position in range(3)]
        for record in fresh:
            writer.add(record)
        spills = [
            ShardSpill(tmp_path / "spill", writer.finish()),
            ShardSpill.open(tmp_path / "spill", 7),
        ]
        merged = SpilledDataset(spills, ("user000",) + self.USERS)
        assert list(merged) == fresh + self.records()
