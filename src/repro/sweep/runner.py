"""Execute a sweep: cached cells load, the rest simulate in parallel.

Each cell resolves to a :class:`~repro.core.study.StudyConfig`, is
content-addressed by its canonical hash, and — on a cache miss — runs
through :func:`repro.runtime.run_study`, inheriting the engine's
sharded parallelism, retries, and telemetry.  Because the runtime's
determinism contract makes the dataset a pure function of the config,
a verified cache hit *is* the simulation, and a sweep's results are
identical whether every cell simulated or every cell loaded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.chaos.seam import IoSeam
from repro.core.records import StudyDataset
from repro.errors import SweepError
from repro.experiments.claims import DEFAULT_QUARANTINE_THRESHOLD
from repro.pressure import DiskBudget, DiskBudgetExceeded
from repro.runtime import RuntimeConfig, run_study
from repro.sweep.cache import StudyCache
from repro.sweep.spec import SweepCell, SweepSpec


@dataclass(frozen=True)
class CellRun:
    """One executed (or cache-loaded) cell."""

    cell: SweepCell
    config_hash: str
    dataset: StudyDataset
    #: Loaded from the cache instead of simulating.
    cached: bool
    #: Wall-clock seconds this run spent on the cell (load or simulate).
    elapsed_s: float
    #: Simulation throughput; None for cache hits (nothing simulated).
    plays_per_second: float | None
    #: Share of scheduled plays lost to quarantined shards (0.0 for a
    #: complete run; always 0.0 for cache hits — partials are never
    #: cached).  Claims refuse to judge above the sweep's threshold.
    quarantined_fraction: float = 0.0
    #: The cell simulated fine but its cache store was skipped (disk
    #: budget under pressure, or the store itself was refused at the
    #: hard watermark).  The result is still returned and correct.
    store_skipped: bool = False

    @property
    def cell_id(self) -> str:
        return self.cell.cell_id

    @property
    def records(self) -> int:
        return len(self.dataset)


@dataclass(frozen=True)
class SweepResult:
    """Everything one sweep run produced."""

    spec: SweepSpec
    runs: tuple[CellRun, ...]
    baseline: CellRun
    hits: int
    misses: int
    #: Cache entries evicted for failing integrity checks (re-simulated).
    evicted: tuple[str, ...]
    workers: int
    elapsed_s: float
    #: Cache entries evicted by LRU garbage collection (size cap) —
    #: routine housekeeping, accounted separately from corruption.
    gc_evicted: tuple[str, ...] = ()
    #: Cells whose cache store was skipped under disk pressure.
    store_skips: int = 0
    #: :meth:`StudyCache.counters` at the end of the run — the store's
    #: own load/store traffic (None when the sweep ran uncached).
    cache_counters: dict | None = None

    def __getitem__(self, cell_id: str) -> CellRun:
        for run in self.runs:
            if run.cell_id == cell_id:
                return run
        raise KeyError(cell_id)

    def manifest(self) -> dict:
        """The run-specific record (cache traffic, throughput).

        Timing and hit/miss counters live here — NOT in the
        sensitivity report — so a fully-cached rerun can emit a
        byte-identical report while still accounting for its traffic.
        """
        return {
            "sweep": self.spec.name,
            "cells": len(self.runs),
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            # Corruption evictions (integrity failures — worth
            # alarming on) and GC evictions (size-cap housekeeping)
            # are different events; never conflate them.
            "cache_evicted": list(self.evicted),
            "cache_gc_evicted": list(self.gc_evicted),
            **(
                {"cache_store_skips": self.store_skips}
                if self.store_skips
                else {}
            ),
            **(
                {"cache": dict(self.cache_counters)}
                if self.cache_counters is not None
                else {}
            ),
            "workers": self.workers,
            "elapsed_s": round(self.elapsed_s, 3),
            "baseline": self.baseline.cell_id,
            "cell_runs": [
                {
                    "cell_id": run.cell_id,
                    "config_hash": run.config_hash,
                    "records": run.records,
                    "cached": run.cached,
                    "elapsed_s": round(run.elapsed_s, 3),
                    "plays_per_second": (
                        None
                        if run.plays_per_second is None
                        else round(run.plays_per_second, 2)
                    ),
                    **(
                        {
                            "quarantined_fraction": round(
                                run.quarantined_fraction, 4
                            )
                        }
                        if run.quarantined_fraction > 0
                        else {}
                    ),
                }
                for run in self.runs
            ],
        }


def run_cell(
    cell: SweepCell,
    cache: StudyCache | None = None,
    workers: int = 1,
    force: bool = False,
    quarantine_threshold: float = DEFAULT_QUARANTINE_THRESHOLD,
    budget: DiskBudget | None = None,
) -> CellRun:
    """Execute one cell: verified cache hit, else simulate and store.

    A cell whose run quarantined shards is never cached; above
    ``quarantine_threshold`` (fraction of scheduled plays lost) it is
    refused outright, because its claims could not be judged anyway.

    With a ``budget``, soft pressure skips the cache store (the result
    is still computed and returned) and the hard watermark refuses to
    simulate at all — a cached cell still answers, but new disk-bound
    work is declined honestly with :class:`~repro.errors.SweepError`.
    """
    config = cell.study_config()
    config_hash = config.canonical_hash()
    started = time.monotonic()
    if cache is not None and not force:
        entry = cache.load(config_hash)
        if entry is not None:
            return CellRun(
                cell=cell,
                config_hash=config_hash,
                dataset=entry.dataset,
                cached=True,
                elapsed_s=time.monotonic() - started,
                plays_per_second=None,
            )
    if budget is not None and budget.level() == "hard":
        snapshot = budget.snapshot()
        raise SweepError(
            f"cell {cell.cell_id!r} refused: disk budget exhausted "
            f"({snapshot['used_bytes']} of {snapshot['max_bytes']} bytes "
            f"used, hard watermark {snapshot['hard_bytes']}); run "
            "`repro cache gc` or raise the budget"
        )
    result = run_study(config, RuntimeConfig(workers=workers))
    quarantined_fraction = result.quarantined_fraction
    if quarantined_fraction > quarantine_threshold:
        raise SweepError(
            f"cell {cell.cell_id!r}: shards "
            f"{list(result.failed_shards)} failed after retries "
            f"({quarantined_fraction:.1%} of plays quarantined, "
            f"threshold {quarantine_threshold:.1%}); refusing to "
            "cache a partial study"
        )
    plays_per_second = result.telemetry.plays_per_second()
    store_skipped = False
    if cache is not None and not result.failed_shards:
        if budget is not None and budget.level() != "ok":
            # Soft pressure: stop growing the cache.  Correctness is
            # unaffected — the dataset is a pure function of the
            # config, so a future uncached run recomputes it exactly.
            store_skipped = True
            budget.note(
                f"skipped cache store of cell {cell.cell_id!r} "
                f"(budget level {budget.level()})"
            )
        else:
            try:
                cache.store(
                    config_hash,
                    result.dataset,
                    extra={
                        "cell_id": cell.cell_id,
                        "config": config.to_canonical_dict(),
                        "engine": {
                            "workers": workers,
                            "plays_per_second": round(
                                plays_per_second, 2
                            ),
                            "shard_count": result.plan.shard_count,
                        },
                    },
                )
            except DiskBudgetExceeded:
                # The store itself crossed the hard watermark: the
                # seam refused before committing, so the cache holds
                # no torn entry; keep the computed result.
                store_skipped = True
    return CellRun(
        cell=cell,
        config_hash=config_hash,
        dataset=result.dataset,
        cached=False,
        elapsed_s=time.monotonic() - started,
        plays_per_second=plays_per_second,
        quarantined_fraction=quarantined_fraction,
        store_skipped=store_skipped,
    )


def run_sweep(
    spec: SweepSpec,
    cache_dir: str | Path | None = None,
    workers: int = 1,
    force: bool = False,
    progress: Callable[[str], None] | None = None,
    quarantine_threshold: float = DEFAULT_QUARANTINE_THRESHOLD,
    max_cache_bytes: int | None = None,
    budget: DiskBudget | None = None,
) -> SweepResult:
    """Run every cell of the sweep and return the collected results.

    ``cache_dir`` enables the content-addressed store (``force=True``
    re-simulates and overwrites even on a hit); ``workers`` is passed
    through to `repro.runtime` per cell; ``progress`` receives one
    status line per cell; ``quarantine_threshold`` bounds the fraction
    of quarantined plays a cell may lose before the sweep refuses it.

    ``max_cache_bytes`` caps the store (LRU GC after every store);
    ``budget`` is a `repro.pressure` disk ledger — cache writes charge
    it, soft pressure skips new stores, and the hard watermark refuses
    uncached cells.
    """
    if workers < 1:
        raise SweepError(f"workers must be >= 1, got {workers}")
    cells = spec.cells()
    baseline_cell = spec.baseline_cell()
    cache = (
        StudyCache(
            cache_dir,
            seam=IoSeam(budget=budget),
            max_bytes=max_cache_bytes,
        )
        if cache_dir is not None
        else None
    )
    started = time.monotonic()
    runs: list[CellRun] = []
    for index, cell in enumerate(cells):
        run = run_cell(
            cell,
            cache=cache,
            workers=workers,
            force=force,
            quarantine_threshold=quarantine_threshold,
            budget=budget,
        )
        runs.append(run)
        if progress is not None:
            if run.cached:
                status = "cached"
            else:
                status = f"simulated at {run.plays_per_second:.1f} plays/s"
                if run.store_skipped:
                    status += ", store skipped (disk pressure)"
            progress(
                f"[{index + 1}/{len(cells)}] {run.cell_id}: "
                f"{run.records} records, {status} "
                f"({run.elapsed_s:.1f}s, {run.config_hash[:12]})"
            )
    baseline_run = next(
        run for run in runs if run.cell_id == baseline_cell.cell_id
    )
    return SweepResult(
        spec=spec,
        runs=tuple(runs),
        baseline=baseline_run,
        hits=sum(1 for run in runs if run.cached),
        misses=sum(1 for run in runs if not run.cached),
        evicted=tuple(cache.evicted) if cache is not None else (),
        workers=workers,
        elapsed_s=time.monotonic() - started,
        gc_evicted=tuple(cache.gc_evicted) if cache is not None else (),
        store_skips=sum(1 for run in runs if run.store_skipped),
        cache_counters=cache.counters() if cache is not None else None,
    )
