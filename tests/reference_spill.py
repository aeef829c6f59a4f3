"""The row-at-a-time record path the spill shipped with, kept as a test oracle.

Before the record path went columnar, every record crossed
``repro.core.spill`` one numpy scalar at a time: ``row[name] = value``
into a preallocated ``batch_size`` buffer on the way in, ``np.save`` of
that buffer per batch, ``row[name].item()`` on the way out, ``next(rows)``
per row in the user-order merge, ``writer.writerow`` per row in the
chunked CSV export, and a ``csv.DictReader`` dict per row on the way back
from CSV.  That is slow (101 profiled calls per record) and obviously
right, which is the point: ``test_spill_reference.py`` drives these
beside the shipped :class:`SpillWriter` / :class:`ShardSpill` /
:class:`SpilledDataset` / :class:`StudyDataset` over the same record
streams, batch sizes and shrink sequences, and demands the same bytes.

Only the mechanism lives here; names, the dtype and the index layout are
imported from the shipped module, because they are the on-disk format
both sides must agree on (``tests/data/parent_spill`` pins the format
itself, written by the commit before the rewrite).
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.core.records import (
    ClipRecord,
    StudyDataset,
    _FIELD_NAMES,
    _FLOAT_FIELDS,
    _INT_FIELDS,
)
from repro.core.spill import (
    RECORD_DTYPE,
    RECORD_SCHEMA_VERSION,
    SPILL_FORMAT,
    ShardSpill,
    SpillError,
    _STRING_FIELDS,
    _STRING_WIDTHS,
    batch_file_name,
    index_file_name,
)


class RowAtATimeWriter:
    """``SpillWriter`` as it was: one field assignment per scalar."""

    def __init__(self, directory: Path, shard_id: int, batch_size: int) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.shard_id = shard_id
        self.batch_size = batch_size
        self.bytes_written = 0
        self._buffer = np.zeros(batch_size, dtype=RECORD_DTYPE)
        self._fill = 0
        self._batches: list[dict] = []
        self._users: list[list] = []
        self._count = 0

    def add(self, record: ClipRecord) -> None:
        for name in _STRING_FIELDS:
            value = getattr(record, name)
            if len(value) > _STRING_WIDTHS[name]:
                raise SpillError(f"record field {name}={value!r} too wide")
        row = self._buffer[self._fill]
        for name in _FIELD_NAMES:
            row[name] = getattr(record, name)
        self._fill += 1
        self._count += 1
        if self._users and self._users[-1][0] == record.user_id:
            self._users[-1][1] += 1
        else:
            self._users.append([record.user_id, 1])
        if self._fill == self.batch_size:
            self._flush_batch()

    def _flush_batch(self) -> None:
        name = batch_file_name(self.shard_id, len(self._batches))
        path = self.directory / name
        with path.open("wb") as handle:
            np.save(handle, self._buffer[: self._fill])
        self._batches.append({"file": name, "count": self._fill})
        self.bytes_written += path.stat().st_size
        self._fill = 0

    def shrink(self, new_batch_size: int) -> int:
        new_batch_size = max(1, int(new_batch_size))
        if new_batch_size >= self.batch_size:
            return self.batch_size
        if self._fill >= new_batch_size:
            self._flush_batch()
        buffer = np.zeros(new_batch_size, dtype=RECORD_DTYPE)
        if self._fill:
            buffer[: self._fill] = self._buffer[: self._fill]
        self._buffer = buffer
        self.batch_size = new_batch_size
        return new_batch_size

    def finish(self) -> dict:
        if self._fill:
            self._flush_batch()
        index = {
            "format": SPILL_FORMAT,
            "schema_version": RECORD_SCHEMA_VERSION,
            "fields": list(_FIELD_NAMES),
            "shard_id": self.shard_id,
            "count": self._count,
            "batches": self._batches,
            "users": self._users,
        }
        path = self.directory / index_file_name(self.shard_id)
        path.write_text(json.dumps(index))
        self.bytes_written += path.stat().st_size
        return index


def iter_rows(spill: ShardSpill) -> Iterator[np.void]:
    """A shard's rows as numpy structured scalars, batch by batch."""
    for entry in spill.index["batches"]:
        array = np.load(spill.directory / entry["file"], allow_pickle=False)
        assert array.dtype == RECORD_DTYPE and len(array) == entry["count"]
        yield from array


def row_values(row: np.void) -> list:
    return [row[name].item() for name in _FIELD_NAMES]


def row_to_record(row: np.void) -> ClipRecord:
    return ClipRecord(**{name: row[name].item() for name in _FIELD_NAMES})


def iter_merged_rows(
    spills: Iterable[ShardSpill], user_order: Iterable[str]
) -> Iterator[np.void]:
    """The user-order merge, one ``next(rows)`` per row."""
    owner: dict[str, int] = {}
    runs: dict[int, dict[str, int]] = {}
    iters: dict[int, Iterator[np.void]] = {}
    for spill in spills:
        iters[spill.shard_id] = iter_rows(spill)
        runs[spill.shard_id] = {}
        for user_id, run in spill.user_runs:
            assert user_id not in owner
            owner[user_id] = spill.shard_id
            runs[spill.shard_id][user_id] = run
    for user_id in user_order:
        shard_id = owner.pop(user_id, None)
        if shard_id is None:
            continue
        for _ in range(runs[shard_id][user_id]):
            yield next(iters[shard_id])
    assert not owner


def merged_csv(spills: Iterable[ShardSpill], user_order: Iterable[str]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(list(_FIELD_NAMES))
    writer.writerows(
        row_values(row) for row in iter_merged_rows(spills, user_order)
    )
    return buffer.getvalue()


def iter_csv_chunks(
    spills: Iterable[ShardSpill],
    user_order: Iterable[str],
    rows_per_chunk: int,
) -> Iterator[str]:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(list(_FIELD_NAMES))
    pending = 0
    for row in iter_merged_rows(spills, user_order):
        writer.writerow(row_values(row))
        pending += 1
        if pending >= rows_per_chunk:
            yield buffer.getvalue()
            buffer.seek(0)
            buffer.truncate(0)
            pending = 0
    if pending or buffer.tell():
        yield buffer.getvalue()


def dataset_csv(records: Iterable[ClipRecord]) -> str:
    """``StudyDataset.to_csv_string`` as it was: a getattr per cell."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(list(_FIELD_NAMES))
    writer.writerows(
        [getattr(record, name) for name in _FIELD_NAMES] for record in records
    )
    return buffer.getvalue()


def read_csv(text: str) -> StudyDataset:
    """``StudyDataset.from_csv_string`` as it was: a dict per row."""
    records = []
    for row in csv.DictReader(io.StringIO(text)):
        converted: dict = {}
        for key, value in row.items():
            if key in _INT_FIELDS:
                converted[key] = int(value)
            elif key in _FLOAT_FIELDS:
                converted[key] = float(value)
            else:
                converted[key] = value
        records.append(ClipRecord(**converted))
    return StudyDataset(records)
