"""Data records: what RealTracer submitted to WPI for each playback.

One :class:`ClipRecord` per playback attempt.  A :class:`StudyDataset`
holds the study's records with filtering helpers and CSV round-trips,
standing in for the paper's email/FTP submission archive.
"""

from __future__ import annotations

import csv
import io
import operator
from dataclasses import MISSING, dataclass, fields
from itertools import islice, repeat, starmap
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np


@dataclass(frozen=True)
class UserInfo:
    """What RealTracer's startup dialog captured (Figure 2a)."""

    user_id: str
    country: str
    state: str
    connection: str
    pc_class: str
    user_region: str


@dataclass(frozen=True)
class ClipRecord:
    """One playback attempt's full measurement record."""

    # Who played it.
    user_id: str
    user_country: str
    user_state: str  # "" outside the U.S.
    user_region: str
    connection: str
    pc_class: str

    # What was played, from where.
    server_name: str
    server_country: str
    server_region: str
    clip_url: str

    # How the attempt ended: "played", "unavailable", "control_failed".
    outcome: str
    #: Data-channel transport ("TCP"/"UDP"/"" when never negotiated).
    protocol: str

    # Encoded (coded) properties of the stream served.
    encoded_bandwidth_bps: float
    encoded_frame_rate: float

    # Measured performance.
    measured_bandwidth_bps: float
    measured_frame_rate: float
    jitter_s: float
    frames_displayed: int
    frames_late: int
    frames_lost: int
    frames_thinned: int
    rebuffer_count: int
    rebuffer_total_s: float
    initial_buffering_s: float
    play_span_s: float
    cpu_utilization: float

    # ABR QoE (DASH-style sessions only; defaults mark "not an ABR
    # playback" so 2001-stack records and old CSVs load unchanged).
    #: Playback stalls after playout started (== rebuffer_count for ABR).
    stall_count: int = 0
    #: Total stalled wall-clock seconds after playout started.
    stall_seconds: float = 0.0
    #: Ladder level switches during playback.
    switch_count: int = 0
    #: Time-weighted mean ladder level index, or -1.0 for non-ABR.
    mean_level: float = -1.0

    #: User rating 0-10, or -1 when the clip was not rated.
    rating: int = -1

    @property
    def played(self) -> bool:
        """The clip actually reached playout."""
        return self.outcome == "played"

    @property
    def rated(self) -> bool:
        return self.rating >= 0

    @property
    def is_abr(self) -> bool:
        """The playback ran the DASH-style ABR stack (and played)."""
        return self.played and self.mean_level >= 0.0

    @property
    def jitter_ms(self) -> float:
        return self.jitter_s * 1000.0

    @property
    def has_jitter_sample(self) -> bool:
        """Jitter needs at least a few displayed frames to be defined;
        0-fps playbacks appear in the frame-rate CDFs but cannot
        contribute a jitter measurement."""
        return self.frames_displayed >= 3


_FIELD_NAMES = tuple(f.name for f in fields(ClipRecord))
_INT_FIELDS = {
    f.name
    for f in fields(ClipRecord)
    if f.type in ("int", int)
}
_FLOAT_FIELDS = {
    f.name
    for f in fields(ClipRecord)
    if f.type in ("float", float)
}
#: What a CSV cell of each numeric field is parsed with (string fields
#: are taken as they are).
_PARSERS = {
    **{name: int for name in _INT_FIELDS},
    **{name: float for name in _FLOAT_FIELDS},
}
#: Fields a CSV may omit (pre-ABR files do), and the value they get.
_DEFAULTS = {
    f.name: f.default for f in fields(ClipRecord) if f.default is not MISSING
}

#: One record as one tuple in field order: the row of a CSV file and of
#: a spill batch (`repro.core.spill`).  ``ClipRecord(*row)`` inverts it.
record_to_row = operator.attrgetter(*_FIELD_NAMES)

#: CSV rows converted per column-wise pass in ``StudyDataset._read_csv``.
_CSV_READ_ROWS = 4096
_LINE_NUM = operator.attrgetter("line_num")
_ROW_OF = operator.itemgetter(0)


def open_csv_rows(handle) -> Callable[[Iterable[tuple]], None]:
    """Start a records CSV on ``handle``: writes the header row and
    returns the function that appends a batch of rows (tuples in field
    order).  Every CSV this package writes goes through here."""
    writer = csv.writer(handle)
    writer.writerow(_FIELD_NAMES)
    return writer.writerows


def _plan_columns(header: list[str]) -> list[int | None]:
    """Where in a CSV row each :class:`ClipRecord` field sits (``None``:
    the file omits a defaulted field).  Refuses a header this build
    cannot map onto the record."""
    position: dict[str, int] = {}
    for index, name in enumerate(header):
        if name not in _FIELD_NAMES:
            raise ValueError(f"line 1: unknown column {name!r}")
        if name in position:
            raise ValueError(f"line 1: duplicated column {name!r}")
        position[name] = index
    for name in _FIELD_NAMES:
        if name not in position and name not in _DEFAULTS:
            raise ValueError(f"line 1: missing required column {name!r}")
    return [position.get(name) for name in _FIELD_NAMES]


def _parse_rows(
    rows: tuple[list[str], ...],
    lines: tuple[int, ...],
    header: list[str],
    plan: list[int | None],
) -> Iterator[ClipRecord]:
    """The records of a chunk of CSV rows, converted a column at a time
    (``lines[i]`` is the line ``rows[i]`` ended on, for error messages)."""
    if set(map(len, rows)) != {len(header)}:
        for row, line in zip(rows, lines):
            if len(row) > len(header):
                raise ValueError(
                    f"line {line}: {len(row)} fields, but the header "
                    f"names {len(header)}"
                )
            if len(row) < len(header):
                raise ValueError(
                    f"line {line}: row ends before column "
                    f"{header[len(row)]!r}"
                )
    columns = list(zip(*rows))
    ordered: list = []
    for name, source in zip(_FIELD_NAMES, plan):
        if source is None:
            ordered.append(repeat(_DEFAULTS[name]))
            continue
        column = columns[source]
        parse = _PARSERS.get(name)
        if parse is not None:
            try:
                column = list(map(parse, column))
            except ValueError:
                for value, line in zip(column, lines):
                    try:
                        parse(value)
                    except ValueError:
                        raise ValueError(
                            f"line {line}: column {name!r}: cannot parse "
                            f"{value!r} as {parse.__name__}"
                        ) from None
                raise  # pragma: no cover - some cell failed above
        ordered.append(column)
    return starmap(ClipRecord, zip(*ordered))


class StudyDataset:
    """The study's collected records."""

    def __init__(self, records: Iterable[ClipRecord] = ()) -> None:
        self._records: list[ClipRecord] = list(records)
        # Lazily-built numeric column cache (see :meth:`column`).
        self._columns: dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[ClipRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> ClipRecord:
        return self._records[index]

    def append(self, record: ClipRecord) -> None:
        self._records.append(record)
        self._columns.clear()

    def extend(self, records: Iterable[ClipRecord]) -> None:
        self._records.extend(records)
        self._columns.clear()

    @classmethod
    def merged_in_user_order(
        cls,
        datasets: Iterable["StudyDataset"],
        user_order: Iterable[str],
    ) -> "StudyDataset":
        """Deterministically merge shard datasets back into serial order.

        Records are reordered to follow ``user_order`` (the population
        order), preserving each dataset's internal per-user ordering.
        As long as every user's records live in a single input dataset
        — `repro.runtime` shards are user-atomic — the merge is
        byte-identical to a serial :meth:`~repro.core.study.Study.run`
        no matter how many shards there were or in what order they
        finished.

        The merge is a two-pass counting placement: pass one sizes each
        user's run, pass two writes every record reference straight
        into its final slot of one exactly-sized list.  Peak memory is
        one extra reference per record — nothing is regrouped into
        per-user side lists (the old dict-of-lists paid ~2×), and no
        sort ever materializes a keys array or merge buffer.
        """
        order_index = {
            user_id: index for index, user_id in enumerate(user_order)
        }
        datasets = list(datasets)
        cursors = [0] * len(order_index)
        total = 0
        for dataset in datasets:
            for record in dataset._records:
                index = order_index.get(record.user_id)
                if index is None:
                    raise ValueError(
                        f"record for unknown user {record.user_id!r} "
                        "(not in user_order)"
                    )
                cursors[index] += 1
                total += 1
        # Prefix-sum the run lengths into per-user write cursors.
        offset = 0
        for index, count in enumerate(cursors):
            cursors[index] = offset
            offset += count
        slots: list = [None] * total
        for dataset in datasets:
            for record in dataset._records:
                index = order_index[record.user_id]
                slots[cursors[index]] = record
                cursors[index] += 1
        merged = cls()
        merged._records = slots
        return merged

    # -- filters ------------------------------------------------------------

    def filter(self, predicate: Callable[[ClipRecord], bool]) -> "StudyDataset":
        """A new dataset with records matching ``predicate``."""
        return StudyDataset(r for r in self._records if predicate(r))

    def played(self) -> "StudyDataset":
        """Only playbacks that reached playout (performance analysis)."""
        return self.filter(lambda r: r.played)

    def rated(self) -> "StudyDataset":
        """Only playbacks the user rated (perceptual analysis)."""
        return self.filter(lambda r: r.rated)

    def with_jitter(self) -> "StudyDataset":
        """Played records with a defined jitter sample (>= 3 frames)."""
        return self.filter(lambda r: r.played and r.has_jitter_sample)

    def exclude_state(self, state: str) -> "StudyDataset":
        """Robustness check: the paper re-ran its frame-rate analysis
        without the Massachusetts users (Section IV)."""
        return self.filter(lambda r: r.user_state != state)

    def column(self, attribute: str) -> np.ndarray:
        """One numeric field as a cached ``numpy`` array.

        The figures aggregate the same handful of columns over
        and over (one CDF per grouping); materializing each column once
        per dataset makes those aggregations array operations.  The
        cache is invalidated by :meth:`append`/:meth:`extend`; filtered
        views are separate datasets with their own caches.
        """
        cached = self._columns.get(attribute)
        if cached is not None:
            return cached
        if attribute in _INT_FIELDS:
            dtype: type = np.int64
        elif attribute in _FLOAT_FIELDS:
            dtype = np.float64
        else:
            raise KeyError(f"{attribute!r} is not a numeric ClipRecord field")
        array = np.fromiter(
            (getattr(r, attribute) for r in self._records),
            dtype=dtype,
            count=len(self._records),
        )
        self._columns[attribute] = array
        return array

    def values(self, attribute: str) -> list:
        """Extract one column."""
        if attribute in _INT_FIELDS or attribute in _FLOAT_FIELDS:
            # ``tolist`` round-trips int64/float64 back to the exact
            # Python ints/floats the per-record path would yield.
            return self.column(attribute).tolist()
        return [getattr(r, attribute) for r in self._records]

    # -- persistence ----------------------------------------------------------

    def to_csv(self, path: str | Path) -> None:
        """Write the dataset as CSV."""
        with open(path, "w", newline="") as handle:
            self._write_csv(handle)

    def to_csv_string(self) -> str:
        """The dataset as a CSV string."""
        buffer = io.StringIO()
        self._write_csv(buffer)
        return buffer.getvalue()

    def _write_csv(self, handle) -> None:
        # ``asdict`` would deep-copy every field; the attrgetter builds
        # each row in one C call and ``writerows`` drains the map.
        open_csv_rows(handle)(map(record_to_row, self._records))

    @classmethod
    def from_csv(cls, path: str | Path) -> "StudyDataset":
        """Load a dataset written by :meth:`to_csv`."""
        with open(path, newline="") as handle:
            return cls._read_csv(handle)

    @classmethod
    def from_csv_string(cls, text: str) -> "StudyDataset":
        """Load a dataset from a CSV string."""
        return cls._read_csv(io.StringIO(text))

    @classmethod
    def _read_csv(cls, handle) -> "StudyDataset":
        """Parse a records CSV, a bounded chunk of rows at a time.

        The header may reorder columns or omit defaulted ones (pre-ABR
        files); blank rows are skipped.  Anything else malformed — a
        short or long row, an unknown, duplicated or missing column, an
        unparsable number — raises one ``ValueError`` naming the
        1-based line and the column.
        """
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                return cls()
            plan = _plan_columns(header)
            # Each non-blank row paired with the line it ended on
            # (``line_num`` is read after the row is), all in C.
            numbered = filter(_ROW_OF, zip(
                reader, map(_LINE_NUM, repeat(reader))
            ))
            records: list[ClipRecord] = []
            while chunk := list(islice(numbered, _CSV_READ_ROWS)):
                rows, lines = zip(*chunk)
                records.extend(_parse_rows(rows, lines, header, plan))
        except csv.Error as exc:
            raise ValueError(f"line {reader.line_num}: {exc}") from exc
        return cls(records)
