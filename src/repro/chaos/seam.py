"""The injectable IO seam: durable writes with named fault hooks.

Production code performs its checkpoint/cache writes through an
:class:`IoSeam` instead of bare ``Path.write_text`` + ``os.replace``.
The seam gives every write three things:

1. **Durability** — payload is fsync'd before the rename and the
   directory is fsync'd after it, so a journaled shard, manifest, or
   cache entry survives a power cut, not just a process kill.
2. **Crash atomicity** — the temp file is process-unique and unlinked
   on any failure, so a failed write (ENOSPC, kill) leaves either the
   old file or nothing, never a torn artifact.
3. **Named fault sites** — a :class:`~repro.chaos.plan.FaultPlan`'s
   write faults fire at deterministic points (``pre`` before anything
   is written, ``mid`` after the payload but before the rename,
   ``post`` after the rename), with per-site fire counts, so chaos
   tests inject ENOSPC/EIO/truncation/pauses without monkeypatching.

The default seam (:func:`default_seam`) has no faults and is shared by
all production callers; tests build their own with a plan.
"""

from __future__ import annotations

import contextlib
import errno
import os
import time
from pathlib import Path
from typing import Callable, Iterable, Sequence, TextIO

from repro.chaos.plan import WRITE_SITES, Fault, FaultPlan
from repro.pressure.budget import DiskBudget, category_for_site

_ERRNO = {"enospc": errno.ENOSPC, "eio": errno.EIO}

#: Sites whose commits are charged but never refused: the run manifest
#: is the honest record of *why* a budgeted run stopped — refusing to
#: write the refusal would lose the story the budget exists to tell.
_UNENFORCED_SITES = frozenset({"checkpoint.run_manifest"})


class IoSeam:
    """Durable atomic writes with deterministic fault injection.

    With a :class:`~repro.pressure.DiskBudget`, every commit charges
    its net on-disk delta (new size minus the size of the file it
    replaces) to the site's category *before* the rename; a charge
    past the hard watermark unlinks the temp and raises
    :class:`~repro.pressure.DiskBudgetExceeded`, leaving the old file
    untouched — budget refusals are as atomic as any other failure.
    """

    def __init__(
        self,
        faults: Sequence[Fault] = (),
        *,
        fsync: bool = True,
        sleep: Callable[[float], None] = time.sleep,
        budget: DiskBudget | None = None,
    ) -> None:
        self._faults = tuple(faults)
        self._fsync = fsync
        self._sleep = sleep
        self.budget = budget
        #: (site, point) -> writes seen so far; fault ``times`` budgets
        #: are spent against these counts.
        self.fired: dict[str, int] = {}
        self._counts: dict[tuple[str, str], int] = {}

    @classmethod
    def from_plan(cls, plan: FaultPlan | None, **kwargs) -> "IoSeam":
        """A seam carrying the plan's write faults (all of them: each
        instance only ever sees its own sites' writes)."""
        faults = plan.for_site(*WRITE_SITES) if plan is not None else ()
        return cls(faults, **kwargs)

    # -- fault firing --------------------------------------------------------

    def _fire(self, site: str, point: str, path: Path) -> None:
        key = (site, point)
        self._counts[key] = self._counts.get(key, 0) + 1
        count = self._counts[key]
        for fault in self._faults:
            if fault.site != site or fault.point != point:
                continue
            if count > fault.times:
                continue
            self.fired[f"{site}:{point}:{fault.action}"] = (
                self.fired.get(f"{site}:{point}:{fault.action}", 0) + 1
            )
            if fault.action in _ERRNO:
                code = _ERRNO[fault.action]
                raise OSError(
                    code, f"injected {fault.action.upper()} at {site}:{point}",
                    str(path),
                )
            if fault.action == "pause":
                self._sleep(fault.pause_s)
            elif fault.action == "truncate":
                # Models rename durability failing underneath us (e.g.
                # power cut on a non-journaling filesystem): the file
                # exists but its tail is gone.  Readers must detect it.
                size = min(fault.keep_bytes, path.stat().st_size)
                with open(path, "r+b") as fh:
                    fh.truncate(size)

    # -- the write -----------------------------------------------------------

    def write_text(self, path: Path, text: str, site: str) -> None:
        """Durably replace ``path`` with ``text`` (fsync-before-rename).

        The temp name is process-unique, so concurrent writers of the
        same path race only at the atomic rename: last writer wins and
        every intermediate state is a complete file.
        """
        self._commit(Path(path), site, lambda fh: fh.write(text))

    def write_chunks(
        self, path: Path, chunks: "Iterable[str]", site: str
    ) -> int:
        """Durably replace ``path`` with the concatenated ``chunks``.

        Same commit semantics as :meth:`write_text` (process-unique
        temp, fsync-before-rename, directory fsync), but the payload
        arrives as an iterator so callers can stream arbitrarily large
        artifacts — e.g. a million-record study CSV — without ever
        holding the whole text in memory.  The ``mid`` fault point
        fires after the last chunk, before the fsync, mirroring
        ``write_text``.  Returns the number of bytes written.
        """
        return self._commit(
            Path(path), site, lambda fh: sum(fh.write(c) for c in chunks)
        )

    def _commit(
        self, path: Path, site: str, write: Callable[[TextIO], int]
    ) -> int:
        """The one durable write: ``write`` fills a temp file, which is
        fsync'd, charged to the budget and renamed over ``path``."""
        self._fire(site, "pre", path)
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                written = write(fh)
                self._fire(site, "mid", path)
                if self._fsync:
                    fh.flush()
                    os.fsync(fh.fileno())
            self._charge(site, tmp, path)
            os.replace(tmp, path)
        except BaseException:
            # ENOSPC/EIO mid-write, a budget refusal, a failed rename or
            # a signal: never leave a torn temp file.  BaseException is
            # safe to catch here because nothing is swallowed — the
            # handler only unlinks and always re-raises.
            with contextlib.suppress(OSError):
                tmp.unlink()
            raise
        if self._fsync:
            self._fsync_dir(path.parent)
        self._fire(site, "post", path)
        return written

    def _charge(self, site: str, tmp: Path, path: Path) -> None:
        """Charge this commit's net disk delta; refuse before the rename
        if it would cross the hard watermark."""
        if self.budget is None:
            return
        try:
            new_size = tmp.stat().st_size
        except OSError:
            new_size = 0
        try:
            old_size = path.stat().st_size
        except OSError:
            old_size = 0
        self.budget.charge(
            category_for_site(site), new_size - old_size,
            enforce=site not in _UNENFORCED_SITES,
        )

    @staticmethod
    def _fsync_dir(directory: Path) -> None:
        """Persist the rename itself (directory entry) to disk."""
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:
            return  # e.g. platforms without O_RDONLY dirs; best effort
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)


_DEFAULT = IoSeam()


def default_seam() -> IoSeam:
    """The shared fault-free seam production writes go through."""
    return _DEFAULT


class WorkerFaults:
    """Worker-side trigger for ``worker.play`` faults.

    Built inside each pool worker from the (picklable) plan; the
    worker calls :meth:`on_play_done` after every finished play.
    """

    def __init__(
        self,
        plan: FaultPlan | None,
        shard_id: int,
        attempt: int,
        *,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self._sleep = sleep
        self._faults = tuple(
            fault
            for fault in (plan.for_site("worker.play") if plan else ())
            if (fault.shard is None or fault.shard == shard_id)
            and attempt <= fault.attempts
        )

    def on_play_done(self, done: int) -> None:
        for fault in self._faults:
            if done != fault.after_plays:
                continue
            if fault.action == "hang":
                # Stops heartbeating without dying: watchdog territory.
                self._sleep(fault.hang_s)
            elif fault.action == "crash":
                os._exit(13)
            elif fault.action == "raise":
                raise RuntimeError(
                    f"injected fault {fault.label} (play {done})"
                )
