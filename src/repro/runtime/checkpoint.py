"""Checkpoint/resume journal for sharded study runs.

Layout of a checkpoint directory::

    manifest.json           # fingerprint + per-shard status
    shard_0003.csv          # one StudyDataset CSV per completed shard
    shard_0003.spill.json   # spill journal entry (streaming runs)
    spill/                  # columnar batch files (streaming runs)
    run_manifest.json       # final telemetry record (on completion)

Exact-mode shards journal as CSVs; streaming (sketch-mode) shards
journal as a **spill entry** — the `repro.core.spill` index plus the
shard's serialized aggregates — whose batch files live under
``spill/``.  Every journal write is durable-atomic (temp file, fsync,
``os.replace``, directory fsync — through the `repro.chaos.seam` IO
seam), and the manifest is updated only *after* a shard's payload is
safely on disk, so a run killed at any instant — even a power cut —
leaves a consistent journal: a resumed run re-simulates at most the
shards that were in flight.  Compatibility between the journal and a
requested run is decided by the shard plan's fingerprint (config +
shard assignment); the aggregation mode is deliberately *not* in the
fingerprint (it never changes results), so a sketch-mode resume of an
exact checkpoint simply re-simulates shards whose journal format does
not match.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.streaming import AGGREGATES_FORMAT
from repro.chaos.seam import IoSeam, default_seam
from repro.core.records import StudyDataset
from repro.core.spill import ShardSpill, SpillError
from repro.errors import CheckpointError

MANIFEST_NAME = "manifest.json"
RUN_MANIFEST_NAME = "run_manifest.json"
SPILL_DIR_NAME = "spill"
#: The seam's in-flight temp files (``<name>.tmp.<pid>``).
_TEMP_GLOB = "*.tmp.*"


class CheckpointStore:
    """Journals completed shard results under one directory.

    ``seam`` is the injectable IO layer every write goes through —
    production uses the shared durable fault-free seam; chaos tests
    pass one wired to a :class:`~repro.chaos.plan.FaultPlan`.
    """

    def __init__(
        self,
        directory: str | Path,
        seam: IoSeam | None = None,
        *,
        thin_every: int = 1,
    ) -> None:
        self.directory = Path(directory)
        self._seam = seam if seam is not None else default_seam()
        self._manifest: dict = {}
        #: Under soft disk pressure (the seam's budget reports non-ok),
        #: flush the manifest only every Nth journal update — shard
        #: payloads still land immediately, so the worst case is a
        #: resume re-simulating the few shards whose manifest rows were
        #: pending.  ``flush()`` forces the pending state out (called
        #: before the run manifest, so a finished run is never thinned).
        self._thin_every = max(1, int(thin_every))
        self._thin_pending = 0
        self._dirty = False
        #: Manifest flushes skipped under pressure (telemetry/tests).
        self.thinned_flushes = 0

    def _shard_path(self, shard_id: int) -> Path:
        return self.directory / f"shard_{shard_id:04d}.csv"

    def _spill_entry_path(self, shard_id: int) -> Path:
        return self.directory / f"shard_{shard_id:04d}.spill.json"

    @property
    def spill_dir(self) -> Path:
        """Where streaming shards write their columnar batch files."""
        return self.directory / SPILL_DIR_NAME

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    # -- lifecycle ----------------------------------------------------------

    def open(self, fingerprint: str, resume: bool) -> set[int]:
        """Prepare the store; return the completed shard ids.

        ``resume=False`` starts a fresh journal, discarding whatever the
        directory held.  ``resume=True`` requires an existing manifest
        whose fingerprint matches the requested run's plan.
        """
        if resume:
            if not self.manifest_path.exists():
                raise CheckpointError(
                    f"cannot resume: no checkpoint manifest in "
                    f"{self.directory}"
                )
            try:
                self._manifest = json.loads(self.manifest_path.read_text())
            except (OSError, ValueError) as exc:
                raise CheckpointError(
                    f"cannot resume: unreadable manifest in "
                    f"{self.directory}: {exc}"
                ) from exc
            found = self._manifest.get("fingerprint")
            if found != fingerprint:
                raise CheckpointError(
                    f"cannot resume: checkpoint fingerprint {found!r} does "
                    f"not match this run's plan {fingerprint!r} (different "
                    "seed, scale, population, or shard count)"
                )
            return {
                int(shard_id)
                for shard_id, entry in self._manifest["shards"].items()
                if entry.get("status") == "done"
            }
        self.directory.mkdir(parents=True, exist_ok=True)
        for stale in self.directory.glob("shard_*.csv"):
            stale.unlink()
        for stale in self.directory.glob("shard_*.spill.json"):
            stale.unlink()
        for orphan in self.directory.glob(_TEMP_GLOB):
            orphan.unlink()  # temp files from a killed writer
        if self.spill_dir.is_dir():
            for stale in self.spill_dir.iterdir():
                if stale.is_file():
                    stale.unlink()
        self._manifest = {"fingerprint": fingerprint, "shards": {}}
        self._flush()
        return set()

    def _flush(self, force: bool = False) -> None:
        self._dirty = True
        if not force and self._should_thin():
            self.thinned_flushes += 1
            return
        self._seam.write_text(
            self.manifest_path,
            json.dumps(self._manifest, indent=2),
            site="checkpoint.manifest",
        )
        self._dirty = False

    def _should_thin(self) -> bool:
        if self._thin_every <= 1:
            return False
        budget = getattr(self._seam, "budget", None)
        if budget is None or budget.level() == "ok":
            return False
        self._thin_pending += 1
        return self._thin_pending % self._thin_every != 0

    def flush(self) -> None:
        """Force any thinned manifest state to disk."""
        if self._dirty:
            self._flush(force=True)

    # -- shard journal ------------------------------------------------------

    def record_shard(
        self,
        shard_id: int,
        dataset: StudyDataset,
        elapsed_s: float,
        attempts: int,
    ) -> None:
        """Journal a completed shard (CSV first, then the manifest)."""
        self._seam.write_text(
            self._shard_path(shard_id),
            dataset.to_csv_string(),
            site="checkpoint.shard",
        )
        self._manifest["shards"][str(shard_id)] = {
            "status": "done",
            "records": len(dataset),
            "elapsed_s": round(elapsed_s, 3),
            "attempts": attempts,
        }
        self._flush()

    def record_shard_spill(
        self,
        shard_id: int,
        index: dict,
        elapsed_s: float,
        attempts: int,
        aggregates: dict,
    ) -> None:
        """Journal a streaming shard: its batch files are already under
        :attr:`spill_dir` (written by the worker), so the commit point
        is this durable-atomic write of the spill entry — the index the
        reader trusts plus the shard's serialized aggregates — followed
        by the manifest."""
        entry = {"index": index, "aggregates": aggregates}
        self._seam.write_text(
            self._spill_entry_path(shard_id),
            json.dumps(entry),
            site="checkpoint.shard",
        )
        self._manifest["shards"][str(shard_id)] = {
            "status": "done",
            "format": "spill",
            "records": int(index["count"]),
            "elapsed_s": round(elapsed_s, 3),
            "attempts": attempts,
        }
        self._flush()

    def shard_format(self, shard_id: int) -> str:
        """``"csv"`` or ``"spill"`` for a journaled shard."""
        entry = self._manifest.get("shards", {}).get(str(shard_id), {})
        return entry.get("format", "csv")

    def load_shard_spill(self, shard_id: int) -> tuple[ShardSpill, dict]:
        """Load a streaming shard's spill reader and aggregates.

        Verifies every batch file against the journaled index before
        trusting it; any damage raises
        :class:`~repro.errors.CheckpointError` so the engine
        invalidates and re-simulates the shard.
        """
        entry_path = self._spill_entry_path(shard_id)
        manifest_entry = self._manifest.get("shards", {}).get(str(shard_id))
        if manifest_entry is not None and \
                manifest_entry.get("format") != "spill":
            raise CheckpointError(
                f"shard {shard_id} journaled as "
                f"{manifest_entry.get('format', 'csv')!r}, not spill"
            )
        try:
            entry = json.loads(entry_path.read_text())
            spill = ShardSpill(self.spill_dir, entry["index"])
            spill.verify()
        except (OSError, ValueError, KeyError, SpillError) as exc:
            raise CheckpointError(
                f"corrupt checkpoint spill for shard {shard_id}: {exc}"
            ) from exc
        expected = (
            manifest_entry.get("records") if manifest_entry else None
        )
        if expected is not None and spill.count != expected:
            raise CheckpointError(
                f"corrupt checkpoint spill for shard {shard_id}: has "
                f"{spill.count} records, manifest journaled {expected}"
            )
        aggregates = entry["aggregates"]
        found_format = aggregates.get("format") if isinstance(
            aggregates, dict
        ) else None
        if found_format != AGGREGATES_FORMAT:
            raise CheckpointError(
                f"shard {shard_id} aggregates journaled as format "
                f"{found_format!r}, need {AGGREGATES_FORMAT}; "
                "re-simulating"
            )
        return spill, aggregates

    def record_failure(
        self, shard_id: int, attempts: int, error: str
    ) -> None:
        """Journal a shard that exhausted its retries (re-run on resume)."""
        self._manifest["shards"][str(shard_id)] = {
            "status": "failed",
            "attempts": attempts,
            "error": error,
        }
        self._flush(force=True)

    def load_shard(self, shard_id: int) -> StudyDataset:
        """Load a journaled shard's records.

        Raises :class:`~repro.errors.CheckpointError` when the CSV is
        unreadable, unparsable, or holds fewer/more records than the
        manifest journaled for it (a cleanly truncated file parses fine
        but is still damage — e.g. a kill mid-write on a filesystem
        without atomic rename).
        """
        path = self._shard_path(shard_id)
        try:
            dataset = StudyDataset.from_csv(path)
        except (OSError, ValueError, TypeError) as exc:
            raise CheckpointError(
                f"corrupt checkpoint shard {path}: {exc}"
            ) from exc
        entry = self._manifest.get("shards", {}).get(str(shard_id))
        expected = entry.get("records") if entry else None
        if expected is not None and len(dataset) != expected:
            raise CheckpointError(
                f"corrupt checkpoint shard {path}: has {len(dataset)} "
                f"records, manifest journaled {expected}"
            )
        return dataset

    def verify(self) -> list[str]:
        """Integrity problems of the journal on disk (empty = clean).

        The post-recovery contract: the manifest parses, every shard
        journaled ``done`` loads with its journaled record count, and
        no writer left a temp file in the journal or its spill
        directory.  Reloads the manifest from disk.
        """
        problems = [
            f"orphaned temp file {orphan.relative_to(self.directory)}"
            for directory in (self.directory, self.spill_dir)
            for orphan in sorted(directory.glob(_TEMP_GLOB))
        ]
        try:
            self._manifest = json.loads(self.manifest_path.read_text())
        except (OSError, ValueError) as exc:
            return problems + [f"unreadable manifest: {exc}"]
        shards = self._manifest.get("shards", {})
        for shard_id in sorted(shards, key=int):
            if shards[shard_id].get("status") != "done":
                continue
            try:
                if self.shard_format(int(shard_id)) == "spill":
                    self.load_shard_spill(int(shard_id))
                else:
                    self.load_shard(int(shard_id))
            except CheckpointError as exc:
                problems.append(f"shard {shard_id}: {exc}")
        return problems

    def invalidate_shard(self, shard_id: int) -> None:
        """Drop a shard from the journal so resume re-simulates it."""
        self._manifest.get("shards", {}).pop(str(shard_id), None)
        path = self._shard_path(shard_id)
        if path.exists():
            path.unlink()
        entry_path = self._spill_entry_path(shard_id)
        if entry_path.exists():
            try:
                entry = json.loads(entry_path.read_text())
                ShardSpill(self.spill_dir, entry["index"]).remove()
            except (OSError, ValueError, KeyError, SpillError):
                pass  # damaged entry: the batches it named are orphans
            if entry_path.exists():
                entry_path.unlink()
        self._flush(force=True)

    def write_run_manifest(self, manifest: dict) -> Path:
        """Persist the final telemetry record next to the journal."""
        try:
            self.flush()  # any thinned shard rows commit before the record
        except OSError:
            # an exhausted budget may refuse the journal flush; the run
            # manifest below is charged without enforcement so the honest
            # record of the refusal still lands
            pass
        path = self.directory / RUN_MANIFEST_NAME
        self._seam.write_text(
            path, json.dumps(manifest, indent=2),
            site="checkpoint.run_manifest",
        )
        return path
