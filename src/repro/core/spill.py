"""Columnar spill files: the constant-memory record path.

At million-user scale a study cannot hold its :class:`ClipRecord`\\ s in
memory, so streaming runs write each shard's records to disk as
fixed-size **batches** of a numpy structured array and merge them back
into serial user order out-of-core:

- :class:`SpillWriter` buffers at most ``batch_size`` records before
  flushing a ``shard_SSSS.bNNNNNN.npy`` batch file, then commits the
  shard with a JSON **index** recording the batch files, the total
  count, and the per-user run lengths (in shard order).
- :class:`ShardSpill` is the streaming reader: it holds one batch in
  memory at a time and hands it back as lists of row tuples.
- :func:`iter_merged_records` replays several shards' records in
  population order.  Shards are user-atomic and internally ordered by
  the population (the `repro.runtime` contract), so the merge is a
  sequential walk of ``user_order`` that drains each user's run from
  whichever shard owns it — peak memory is O(shards × batch_size)
  rows, independent of study size.
- :class:`SpilledDataset` wraps the merged stream in the small corner
  of the `StudyDataset` surface the callers of a streaming run need:
  ``__len__``, ``__iter__`` and byte-identical CSV output.

A **row** is one record as a tuple in field order
(`repro.core.records.record_to_row`).  Rows cross into and out of numpy
a bounded slice at a time — ``np.array(rows, dtype=RECORD_DTYPE)`` on
the way in, ``array[a:b].tolist()`` on the way out, both one C call per
slice — so at most :data:`_SLICE_ROWS` tuples ever sit beside a batch's
arrays and the residency contract stays a function of ``batch_size``.
The writer keeps an open batch as its converted slices and streams them
into the ``.npy`` file behind one header: it holds what it was given,
never a ``batch_size`` buffer that is mostly untouched pages.

The batch files round-trip every field exactly (strings are validated
against the dtype widths at write time — silent numpy truncation would
corrupt records), so a spilled study's CSV is byte-identical to the
in-memory path's.
"""

from __future__ import annotations

import io
import json
import operator
import os
import re
import shutil
import tempfile
import weakref
from itertools import starmap
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.core.records import (
    ClipRecord,
    _FIELD_NAMES,
    _FLOAT_FIELDS,
    _INT_FIELDS,
    open_csv_rows,
    record_to_row,
)

#: Records buffered in memory per shard before a batch is flushed.
DEFAULT_BATCH_SIZE = 8192

#: Spill index layout version (bump on index-structure changes).
SPILL_FORMAT = 2

#: Record schema version: bumped whenever :class:`ClipRecord` gains,
#: loses, or reorders fields.  v1 was the pre-ABR record; v2 added the
#: ABR QoE fields (stall_count, stall_seconds, switch_count,
#: mean_level).  Spills written under a different schema are rejected
#: at open time with a clear error instead of a numpy dtype mismatch
#: deep in batch loading.
RECORD_SCHEMA_VERSION = 2

#: Unicode widths for the string fields.  Generous versus today's data
#: (longest observed value is 24 chars) but enforced — see
#: :func:`_check_widths`.
_STRING_WIDTHS = {
    "user_id": 32,
    "user_country": 8,
    "user_state": 8,
    "user_region": 32,
    "connection": 24,
    "pc_class": 48,
    "server_name": 32,
    "server_country": 8,
    "server_region": 24,
    "clip_url": 96,
    "outcome": 24,
    "protocol": 8,
}

#: Rows converted between tuples and numpy per C call (see the module
#: docstring): large enough to amortize the call, small enough that the
#: tuples in flight are noise beside one batch array.
_SLICE_ROWS = 256


def _dtype() -> np.dtype:
    parts = []
    for name in _FIELD_NAMES:
        if name in _INT_FIELDS:
            parts.append((name, np.int64))
        elif name in _FLOAT_FIELDS:
            parts.append((name, np.float64))
        else:
            parts.append((name, f"U{_STRING_WIDTHS[name]}"))
    return np.dtype(parts)


#: The structured dtype of one spilled record (one row per playback).
RECORD_DTYPE = _dtype()

#: The ``.npy`` header fields of a batch file, bar its shape.
_NPY_HEADER = np.lib.format.header_data_from_array_1_0(
    np.empty(0, dtype=RECORD_DTYPE)
)

_STRING_FIELDS = tuple(
    name for name in _FIELD_NAMES
    if name not in _INT_FIELDS and name not in _FLOAT_FIELDS
)
_strings_of = operator.attrgetter(*_STRING_FIELDS)
_WIDTH_LIMITS = tuple(_STRING_WIDTHS[name] for name in _STRING_FIELDS)


class SpillError(RuntimeError):
    """A spill file is missing, damaged, or inconsistent with its index."""


def _check_widths(record: ClipRecord) -> None:
    if not any(map(operator.gt, map(len, _strings_of(record)), _WIDTH_LIMITS)):
        return
    for name in _STRING_FIELDS:
        value = getattr(record, name)
        if len(value) > _STRING_WIDTHS[name]:
            raise SpillError(
                f"record field {name}={value!r} exceeds the spill dtype "
                f"width U{_STRING_WIDTHS[name]}; widen _STRING_WIDTHS"
            )


def row_to_record(row: tuple) -> ClipRecord:
    """Rebuild the exact :class:`ClipRecord` a spilled row came from."""
    return ClipRecord(*row)


def batch_file_name(shard_id: int, batch: int) -> str:
    return f"shard_{shard_id:04d}.b{batch:06d}.npy"


def index_file_name(shard_id: int) -> str:
    return f"shard_{shard_id:04d}.spill.json"


#: Every file a spill writer may leave in the spill directory.
_SPILL_FILE_RE = re.compile(r"^shard_\d{4}\.(b\d{6}\.npy|spill\.json)$")


def sweep_orphans(
    directory: str | Path, referenced: Iterable[str] = ()
) -> tuple[int, int]:
    """Reclaim spill files a killed process left behind.

    Deletes every ``*.tmp.*`` scratch file and every batch/index file
    not named in ``referenced`` (the committed spills a resume still
    trusts).  A crashed attempt commits nothing — its index was never
    renamed into place — so unreferenced files are garbage by
    construction: the retry attempt rewrites its batches from zero and
    a shorter retry would otherwise leave the longer dead attempt's
    tail batches on disk forever.  Returns ``(files, bytes)`` removed.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return 0, 0
    keep = {str(name) for name in referenced}
    removed = 0
    freed = 0
    for path in sorted(directory.iterdir()):
        if not path.is_file() or path.name in keep:
            continue
        if ".tmp." not in path.name and not _SPILL_FILE_RE.match(path.name):
            continue
        try:
            size = path.stat().st_size
            path.unlink()
        except OSError:
            continue
        removed += 1
        freed += size
    return removed, freed


class SpillWriter:
    """Streams one shard's records into batch files plus an index.

    Not thread-safe; one writer per shard attempt.  Call
    :meth:`finish` to flush the tail batch and write the index —
    without it the spill is invisible to readers (a crashed attempt
    leaves only ignorable orphan batch files that the next attempt
    overwrites).
    """

    def __init__(
        self,
        directory: str | Path,
        shard_id: int,
        batch_size: int = DEFAULT_BATCH_SIZE,
        *,
        budget=None,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.shard_id = shard_id
        self.batch_size = batch_size
        #: Optional :class:`repro.pressure.DiskBudget`.  Spill charges
        #: are ledger-only (never refused here): hard-watermark policy
        #: for spills lives at the runtime layer, which drains in-flight
        #: shards instead of tearing them mid-batch.
        self.budget = budget
        self.shrinks = 0
        #: Bytes committed to disk so far (batch files + index).
        self.bytes_written = 0
        #: The open batch: converted slices of at most `_SLICE_ROWS`
        #: rows (``_fill`` rows in all), then the rows not yet converted.
        self._slices: list[np.ndarray] = []
        self._fill = 0
        self._pending: list[tuple] = []
        self._batches: list[dict] = []
        self._users: list[list] = []  # [user_id, run_length] in order
        self._count = 0
        self._finished = False

    def add(self, record: ClipRecord) -> None:
        if self._finished:
            raise SpillError("spill writer already finished")
        _check_widths(record)
        self._pending.append(record_to_row(record))
        self._count += 1
        if self._users and self._users[-1][0] == record.user_id:
            self._users[-1][1] += 1
        else:
            self._users.append([record.user_id, 1])
        if len(self._pending) >= min(_SLICE_ROWS, self.batch_size - self._fill):
            self._drain()

    def _drain(self) -> None:
        """Convert the pending rows (one C call), and write the batch
        out once it is full."""
        pending = self._pending
        if pending:
            self._slices.append(np.array(pending, dtype=RECORD_DTYPE))
            self._fill += len(pending)
            pending.clear()
        if self._fill >= self.batch_size:
            self._flush_batch()

    def _commit_file(self, name: str, mode: str, write: Callable) -> None:
        """Write ``name`` in the spill directory and charge its bytes.

        Write-then-rename, so readers never observe a half-written
        file: ``write(handle)`` fills a sibling temp file that is
        fsynced and renamed into place.  The ``except BaseException``
        is safe because it swallows nothing — it only unlinks the temp
        file on the way out (KeyboardInterrupt and SystemExit included)
        and always re-raises.
        """
        path = self.directory / name
        fd, tmp = tempfile.mkstemp(prefix=f"{name}.tmp.", dir=self.directory)
        try:
            with os.fdopen(fd, mode) as handle:
                write(handle)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        try:
            size = path.stat().st_size
        except OSError:
            size = 0
        self.bytes_written += size
        if self.budget is not None:
            self.budget.charge("spills", size, enforce=False)

    def _flush_batch(self) -> None:
        # The index names only fully flushed files.
        name = batch_file_name(self.shard_id, len(self._batches))
        slices, count = self._slices, self._fill

        def write(handle) -> None:
            # What ``np.save`` writes for the concatenated slices,
            # without ever holding them concatenated.
            np.lib.format.write_array_header_1_0(
                handle, {**_NPY_HEADER, "shape": (count,)}
            )
            for rows in slices:
                rows.tofile(handle)

        self._commit_file(name, "wb", write)
        self._batches.append({"file": name, "count": count})
        self._slices, self._fill = [], 0

    def shrink(self, new_batch_size: int) -> int:
        """Degrade to a smaller batch size (memory or disk pressure).

        Flushes the buffered rows first if they no longer fit.  Batch
        boundaries are not part of the record math — the merged CSV is
        byte-identical under any shrink sequence.  Never grows; returns
        the batch size now in effect.
        """
        new_batch_size = max(1, int(new_batch_size))
        if self._finished or new_batch_size >= self.batch_size:
            return self.batch_size
        self.batch_size = new_batch_size
        self._drain()  # flushes what no longer fits
        self.shrinks += 1
        return new_batch_size

    def finish(self) -> dict:
        """Flush the tail and return the shard's index (also written to
        ``shard_SSSS.spill.json`` in the spill directory)."""
        if self._finished:
            raise SpillError("spill writer already finished")
        self._drain()
        if self._fill:
            self._flush_batch()
        self._finished = True
        index = {
            "format": SPILL_FORMAT,
            "schema_version": RECORD_SCHEMA_VERSION,
            "fields": list(_FIELD_NAMES),
            "shard_id": self.shard_id,
            "count": self._count,
            "batches": self._batches,
            "users": self._users,
        }
        self._commit_file(
            index_file_name(self.shard_id), "w",
            lambda handle: json.dump(index, handle),
        )
        return index

    @property
    def count(self) -> int:
        return self._count


class ShardSpill:
    """Streaming reader over one shard's committed spill."""

    def __init__(self, directory: str | Path, index: dict) -> None:
        self.directory = Path(directory)
        if index.get("format") != SPILL_FORMAT:
            raise SpillError(
                f"unsupported spill format {index.get('format')!r} "
                f"(expected {SPILL_FORMAT}); the spill was written by "
                "an older repro version and cannot be resumed — "
                "re-simulate the shard"
            )
        if index.get("schema_version") != RECORD_SCHEMA_VERSION:
            raise SpillError(
                "spill record schema "
                f"v{index.get('schema_version')!r} does not match this "
                f"build's v{RECORD_SCHEMA_VERSION}; the ClipRecord "
                "field set changed since the spill was written — "
                "re-simulate the shard"
            )
        written = index.get("fields")
        if written is not None and tuple(written) != _FIELD_NAMES:
            raise SpillError(
                "spill field list does not match ClipRecord: spill has "
                f"{list(written)!r}, this build expects "
                f"{list(_FIELD_NAMES)!r} — re-simulate the shard"
            )
        self.index = index
        self.shard_id = int(index["shard_id"])
        self.count = int(index["count"])
        batched = sum(int(b["count"]) for b in index["batches"])
        run_total = sum(int(run) for _uid, run in index["users"])
        if batched != self.count or run_total != self.count:
            raise SpillError(
                f"inconsistent spill index for shard {self.shard_id}: "
                f"count={self.count}, batches sum to {batched}, "
                f"user runs sum to {run_total}"
            )

    @classmethod
    def open(cls, directory: str | Path, shard_id: int) -> "ShardSpill":
        path = Path(directory) / index_file_name(shard_id)
        try:
            index = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise SpillError(f"unreadable spill index {path}: {exc}") from exc
        return cls(directory, index)

    @property
    def user_runs(self) -> list[tuple[str, int]]:
        """``(user_id, run_length)`` in shard (= population) order."""
        return [(str(uid), int(run)) for uid, run in self.index["users"]]

    def __len__(self) -> int:
        return self.count

    def _iter_arrays(self) -> Iterator[np.ndarray]:
        """Every batch file in shard order, each checked against the
        index as it loads; the total is checked after the last."""
        seen = 0
        for entry in self.index["batches"]:
            path = self.directory / entry["file"]
            try:
                array = np.load(path, allow_pickle=False)
            except (OSError, ValueError) as exc:
                raise SpillError(
                    f"unreadable spill batch {path}: {exc}"
                ) from exc
            if array.dtype != RECORD_DTYPE or len(array) != entry["count"]:
                raise SpillError(
                    f"corrupt spill batch {path}: dtype/count mismatch "
                    f"({len(array)} rows, index says {entry['count']})"
                )
            yield array
            seen += len(array)
        if seen != self.count:
            raise SpillError(
                f"spill for shard {self.shard_id} yielded {seen} rows, "
                f"index says {self.count}"
            )

    def iter_batches(self) -> Iterator[list[tuple]]:
        """All rows in shard order as lists of at most
        :data:`_SLICE_ROWS` tuples, one batch array in memory at a
        time.  ``tolist`` converts to the Python str/int/float the
        record was built from — bit-identical for float64."""
        for array in self._iter_arrays():
            for start in range(0, len(array), _SLICE_ROWS):
                yield array[start:start + _SLICE_ROWS].tolist()

    def iter_rows(self) -> Iterator[tuple]:
        for rows in self.iter_batches():
            yield from rows

    def iter_records(self) -> Iterator[ClipRecord]:
        for rows in self.iter_batches():
            yield from starmap(ClipRecord, rows)

    def verify(self) -> None:
        """Check every batch file loads and matches the index (used by
        checkpoint resume before trusting a journaled spill)."""
        for _array in self._iter_arrays():
            pass

    def remove(self) -> None:
        """Delete the spill's files (index last)."""
        for entry in self.index["batches"]:
            path = self.directory / entry["file"]
            if path.exists():
                path.unlink()
        index_path = self.directory / index_file_name(self.shard_id)
        if index_path.exists():
            index_path.unlink()


def iter_merged_batches(
    spills: Iterable[ShardSpill], user_order: Iterable[str]
) -> Iterator[list[tuple]]:
    """All shards' rows, merged into population (= serial) order and
    yielded a user run (or the part of one a batch slice holds) at a
    time.

    Exploits the runtime contract: shards are user-atomic and each
    shard's rows are already in population order, so the merge walks
    ``user_order`` once and slices each user's run off the single
    shard that owns it.  Only one in-flight batch per shard is ever
    resident.
    """
    owner: dict[str, tuple[int, int]] = {}  # user -> (shard, run length)
    cursors: dict[int, list] = {}  # shard -> [batches, current rows, offset]
    for spill in spills:
        cursors[spill.shard_id] = [spill.iter_batches(), [], 0]
        for user_id, run in spill.user_runs:
            if user_id in owner:
                raise SpillError(
                    f"user {user_id!r} appears in shards "
                    f"{owner[user_id][0]} and {spill.shard_id}; shards "
                    "must be user-atomic"
                )
            owner[user_id] = (spill.shard_id, run)
    for user_id in user_order:
        shard_id, run = owner.pop(user_id, (None, 0))
        if shard_id is None:
            continue  # user simulated by no completed shard
        cursor = cursors[shard_id]
        batches, rows, offset = cursor
        while run:
            if offset == len(rows):
                rows = next(batches, None)
                if rows is None:  # pragma: no cover - verify() catches
                    raise SpillError(
                        f"spill for shard {shard_id} exhausted mid-run "
                        f"for user {user_id!r}"
                    )
                cursor[1], offset = rows, 0
            piece = rows[offset:offset + run]
            offset += len(piece)
            run -= len(piece)
            yield piece
        cursor[2] = offset
    if owner:
        raise SpillError(
            f"spilled users not in user_order: {sorted(owner)[:5]!r}"
        )


def iter_merged_records(
    spills: Iterable[ShardSpill], user_order: Iterable[str]
) -> Iterator[ClipRecord]:
    for rows in iter_merged_batches(spills, user_order):
        yield from starmap(ClipRecord, rows)


def write_rows_csv(handle, batches: Iterable[Iterable[tuple]]) -> None:
    """Stream batches of spilled rows as CSV, byte-identical to
    :meth:`StudyDataset.to_csv` on the same records."""
    write_rows = open_csv_rows(handle)
    for rows in batches:
        write_rows(rows)


class SpilledDataset:
    """A completed streaming run's records, served out-of-core.

    Quacks like the corner of :class:`StudyDataset` the engine's
    callers rely on — ``len``, iteration in serial user order, and CSV
    output — without ever materializing the records.  ``materialize()``
    loads everything into a real `StudyDataset` for callers that need
    column analytics and know the study is small enough.
    """

    def __init__(
        self,
        spills: Iterable[ShardSpill],
        user_order: tuple[str, ...],
        cleanup_dir: str | Path | None = None,
    ) -> None:
        self._spills = sorted(spills, key=lambda s: s.shard_id)
        self._user_order = tuple(user_order)
        self._count = sum(s.count for s in self._spills)
        # When the engine spilled to an unmanaged temp dir, the dataset
        # owns it: the files live as long as the dataset does, and are
        # removed at cleanup()/garbage collection.
        self._finalizer = (
            weakref.finalize(self, shutil.rmtree, str(cleanup_dir), True)
            if cleanup_dir is not None
            else None
        )

    def cleanup(self) -> None:
        """Delete the owned spill directory now (no-op for datasets
        reading a caller-managed directory, e.g. a checkpoint)."""
        if self._finalizer is not None:
            self._finalizer()

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[ClipRecord]:
        return iter_merged_records(self._spills, self._user_order)

    @property
    def spills(self) -> tuple[ShardSpill, ...]:
        return tuple(self._spills)

    def iter_batches(self) -> Iterator[list[tuple]]:
        """The rows in serial user order, a list per user run."""
        return iter_merged_batches(self._spills, self._user_order)

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as handle:
            write_rows_csv(handle, self.iter_batches())

    def to_csv_string(self) -> str:
        buffer = io.StringIO()
        write_rows_csv(buffer, self.iter_batches())
        return buffer.getvalue()

    def iter_csv_chunks(self, rows_per_chunk: int = 4096) -> Iterator[str]:
        """The CSV text in bounded-size string chunks (for streaming
        cache stores and HTTP responses)."""
        rows_per_chunk = max(1, rows_per_chunk)
        buffer = io.StringIO()
        write_rows = open_csv_rows(buffer)
        room = rows_per_chunk  # rows the current chunk still takes
        for rows in self.iter_batches():
            while len(rows) >= room:
                write_rows(rows[:room])
                rows = rows[room:]
                yield buffer.getvalue()
                buffer.seek(0)
                buffer.truncate(0)
                room = rows_per_chunk
            write_rows(rows)
            room -= len(rows)
        if buffer.tell():
            yield buffer.getvalue()

    def materialize(self):
        """The records as an in-memory :class:`StudyDataset` (only for
        studies known to fit — figures at paper scale, tests)."""
        from repro.core.records import StudyDataset

        return StudyDataset(iter(self))
