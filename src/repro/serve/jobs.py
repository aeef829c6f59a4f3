"""Job lifecycle: dedup, fair queueing, execution, fan-out.

The registry's key insight is the split between a **job** (one
client-visible submission, with its own id, status document, and SSE
stream) and a **simulation** (one distinct
:meth:`StudyConfig.canonical_hash` actually running).  Submissions
dedupe at both layers:

- an identical *submission* (same derived job id) attaches the caller
  to the existing job — same SSE broker, same artifacts;
- an identical *cell* inside a different job (a sweep sharing a study
  another client already posted) attaches the job as a watcher of the
  existing in-flight simulation;
- a *completed* identical submission is answered from the
  content-addressed :class:`~repro.sweep.cache.StudyCache` — the
  worker probes the cache before simulating, so a restarted server
  with a warm cache or checkpoint directory resumes instead of
  redoing work.

Execution: worker slots (asyncio tasks) pull simulations off the
:class:`~repro.serve.scheduler.FairScheduler`; each slot owns one
long-lived simulation process (`repro.serve.worker`) that runs
:func:`repro.runtime.run_study` — checkpointed, resumable, and wired
to the service's drain request through ``RuntimeConfig.should_stop``,
so SIGTERM drains in-flight runs into honest, resumable manifests
while queued ones cancel with a clean state event.  This process
keeps the event loop, the cache probe/store, the disk ledger and the
sweep report (IO-bound work on a small thread pool) and never
executes a play: a reply does not wait for a simulation to yield the
interpreter.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import shutil
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.chaos.seam import IoSeam
from repro.core.spill import ShardSpill, SpillError, SpilledDataset
from repro.core.study import StudyConfig
from repro.errors import ReproError, ServeError, StudyError
from repro.pressure import DiskBudget, DiskBudgetExceeded, du_bytes
from repro.serve.broker import SseBroker
from repro.serve.scheduler import FairScheduler, QueueFull
from repro.serve.worker import (
    SimulationFailed,
    SimWorker,
    WorkerDied,
    start_workers,
)
from repro.sweep.cache import CSV_NAME, StudyCache
from repro.sweep.compare import compare_sweep
from repro.sweep.report import format_sweep_report, report_payload
from repro.sweep.runner import CellRun, SweepResult
from repro.sweep.spec import SweepCell, SweepSpec

#: The paper's campaign, used to estimate a config's scheduling cost.
PAPER_PLAYS = 2855
PAPER_USERS = 63
PAPER_PLAYLIST = 98


def estimate_plays(config: StudyConfig) -> int:
    """Cheap scheduling-cost estimate (no population build): the
    paper's play count scaled by the config's scale/user/playlist
    knobs, and never below one play per user (the floor
    ``Study._scaled_plays`` applies).  The user ratio is not capped:
    populations expand past the paper's roster.  DRR only needs
    relative weights, not exact counts."""
    users = PAPER_USERS if config.max_users is None else config.max_users
    plays = PAPER_PLAYS * float(config.scale) * users / PAPER_USERS
    if config.playlist_length is not None:
        plays *= min(1.0, config.playlist_length / PAPER_PLAYLIST)
    return max(users, int(round(plays)))


@dataclass
class Simulation:
    """One distinct canonical hash moving through the worker pool."""

    config_hash: str
    config: StudyConfig
    client_id: str
    cost: int
    #: queued | running | done | failed | interrupted | cancelled
    state: str = "queued"
    #: "simulated" | "cache" once done.
    source: str | None = None
    error: str = ""
    records: int = 0
    elapsed_s: float = 0.0
    plays_per_second: float | None = None
    quarantined: tuple[int, ...] = ()
    quarantined_fraction: float = 0.0
    #: Latest `RunTelemetry.snapshot()`.
    telemetry: dict | None = None
    #: The run manifest (simulated runs) or cache-entry manifest.
    manifest: dict | None = None
    #: Streaming runs: figure headlines rendered from the aggregates.
    figures: dict | None = None
    #: Jobs to notify on state changes/telemetry.
    watchers: list["Job"] = field(default_factory=list)

    def status(self) -> dict:
        """JSON-ready point-in-time view."""
        payload = {
            "config_hash": self.config_hash,
            "state": self.state,
            "cost": self.cost,
            "source": self.source,
            "records": self.records,
            "elapsed_s": round(self.elapsed_s, 3),
        }
        if self.error:
            payload["error"] = self.error
        if self.quarantined:
            payload["quarantined"] = {
                "shards": list(self.quarantined),
                "fraction": round(self.quarantined_fraction, 4),
            }
        if self.telemetry is not None:
            payload["telemetry"] = self.telemetry
        return payload


@dataclass
class Job:
    """One client-visible submission (study or sweep)."""

    job_id: str
    kind: str  # "study" | "sweep"
    client_id: str
    created_s: float
    broker: SseBroker = field(default_factory=SseBroker)
    #: Every client id that submitted (the first one owns the queue
    #: slot; the rest attached via dedup).
    clients: list[str] = field(default_factory=list)
    state: str = "queued"
    error: str = ""
    #: Study jobs: the one simulation.
    simulation: Simulation | None = None
    #: Sweep jobs: the spec and its (cell, simulation) pairs.
    spec: SweepSpec | None = None
    cells: tuple[tuple[SweepCell, Simulation], ...] = ()
    #: Sweep jobs, once assembled.
    report: dict | None = None
    report_text: str | None = None
    sweep_manifest: dict | None = None

    def status(self) -> dict:
        """The ``GET /v1/jobs/{id}`` document."""
        payload: dict = {
            "job_id": self.job_id,
            "kind": self.kind,
            "state": self.state,
            "clients": sorted(set(self.clients)),
            "created_s": round(self.created_s, 3),
            "links": self.links(),
        }
        if self.error:
            payload["error"] = self.error
        if self.kind == "study" and self.simulation is not None:
            payload["study"] = self.simulation.status()
        if self.kind == "sweep":
            payload["cells"] = [
                {"cell_id": cell.cell_id, **sim.status()}
                for cell, sim in self.cells
            ]
            payload["report_ready"] = self.report is not None
        return payload

    def links(self) -> dict:
        base = f"/v1/jobs/{self.job_id}"
        links = {"status": base, "events": f"{base}/events"}
        if self.kind == "study":
            links["csv"] = f"{base}/study.csv"
            links["manifest"] = f"{base}/manifest"
            if (
                self.simulation is not None
                and self.simulation.config.aggregation == "sketch"
            ):
                links["figures"] = f"{base}/figures"
        else:
            links["report"] = f"{base}/report"
            links["manifest"] = f"{base}/manifest"
        return links


def _job_id(kind: str, digest: str) -> str:
    prefix = "st" if kind == "study" else "sw"
    return f"{prefix}-{digest[:12]}"


def _parsed(from_dict, data: dict):
    """A client's config/spec through its parser.  A `StudyError`
    answers 400 as it is; a field of the wrong type surfaces from the
    parsers as a bare TypeError/ValueError, and it is the client's
    mistake just the same."""
    try:
        return from_dict(data)
    except (TypeError, ValueError) as exc:
        raise StudyError(f"malformed submission: {exc}") from exc


def sweep_digest(spec: SweepSpec) -> str:
    """Content address of a sweep submission: its name, baseline, and
    every cell's id + canonical config hash."""
    cells = [
        [cell.cell_id, cell.study_config().canonical_hash()]
        for cell in spec.cells()
    ]
    payload = json.dumps(
        {
            "name": spec.name,
            "baseline": spec.baseline_cell().cell_id,
            "cells": cells,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class JobManager:
    """Registry + worker pool behind the HTTP front end.

    All public methods must run on the owning event loop's thread;
    simulations run in the slots' worker processes, each relayed by a
    thread of the executor that reports back through
    ``call_soon_threadsafe``.
    """

    def __init__(
        self,
        cache_dir: str | Path,
        workers: int = 2,
        shard_workers: int = 1,
        queue_capacity: int = 64,
        quantum: int = 200,
        max_disk_bytes: int | None = None,
        max_cache_bytes: int | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.cache_dir = Path(cache_dir)
        self.ckpt_root = self.cache_dir / "checkpoints"
        self.workers = workers
        self.shard_workers = shard_workers
        #: One ledger for the whole service: cache entries, checkpoint
        #: journals, and spill files all charge against it, so the
        #: watermarks see the service's real footprint.
        self.budget = (
            DiskBudget(max_disk_bytes) if max_disk_bytes else None
        )
        self.max_cache_bytes = max_cache_bytes
        #: Completed studies whose cache store was skipped because the
        #: budget was under pressure (the checkpoint stays on disk, so
        #: no work is lost — a resubmission resumes instantly).
        self.store_skips = 0
        self.scheduler = FairScheduler(
            capacity=queue_capacity, quantum=quantum
        )
        self.jobs: dict[str, Job] = {}
        self.sims: dict[str, Simulation] = {}
        self.cache_counters = {
            "hits": 0, "misses": 0, "stores": 0, "evicted": 0,
            "gc_evicted": 0,
        }
        self.simulated = 0  # simulations actually run (not cache-served)
        #: Simulation workers that died mid-run and were replaced.
        self.worker_restarts = 0
        self.draining = False
        #: Guards `budget.refused`, the one ledger field the relaying
        #: threads update without the ledger's own lock.
        self._ledger_lock = threading.Lock()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._workers: list[SimWorker] = []
        self._slots: list[asyncio.Task] = []

    # -- lifecycle ----------------------------------------------------------

    def start_workers(self) -> None:
        """Start one simulation process per slot.  Call it before the
        process grows threads (`serve_forever` does, before it
        listens), so that they can be forked; `start` calls it
        otherwise."""
        self._workers = start_workers(self.workers, self.shard_workers)

    def close_workers(self) -> None:
        """Stop and reap every simulation process (idempotent)."""
        for worker in self._workers:
            worker.close()
        self._workers = []

    def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        if not self._workers:
            self.start_workers()
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        if self.budget is not None:
            # Seed with what's already on disk (warm cache, leftover
            # checkpoints) so watermarks measure real occupancy.
            self.budget.seed("cache", du_bytes(self.cache_dir))
        # One thread per slot relays its worker's messages and does the
        # slot's cache IO; sweep reports assemble here too.
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve"
        )
        self._slots = [
            asyncio.ensure_future(self._slot_loop(worker))
            for worker in self._workers
        ]

    def begin_shutdown(self) -> None:
        """SIGTERM path: refuse new work, cancel queued simulations,
        and ask in-flight runs to drain at the next play boundary."""
        if self.draining:
            return
        self.draining = True
        for worker in self._workers:
            worker.request_stop()
        for sim in self.scheduler.close():
            sim.state = "cancelled"
            sim.error = "server shutting down before the job started"
            self._fanout(sim)

    async def wait_closed(self) -> None:
        """After :meth:`begin_shutdown`: wait for in-flight work."""
        if self._slots:
            await asyncio.gather(*self._slots, return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        self.close_workers()
        for job in self.jobs.values():
            job.broker.close()

    # -- submission ---------------------------------------------------------

    def submit_study(
        self, config_data: dict, client_id: str
    ) -> tuple[Job, bool]:
        """Register (or attach to) a study job.  Returns the job and
        whether this call created it."""
        self._refuse_if_draining()
        self._refuse_if_pressured()
        config = _parsed(StudyConfig.from_dict, config_data)
        # `aggregation` is an execution knob excluded from the canonical
        # hash (and therefore dropped by from_dict): re-apply it so a
        # sketch-mode submission streams its records and renders
        # figures.  Dedup stays mode-agnostic — the first submission's
        # mode wins for an already-running job.
        aggregation = config_data.get("aggregation", config.aggregation)
        if aggregation != config.aggregation:
            try:
                config = replace(config, aggregation=aggregation)
            except ValueError as exc:
                raise StudyError(str(exc)) from exc
        config_hash = config.canonical_hash()
        job_id = _job_id("study", config_hash)
        existing = self.jobs.get(job_id)
        if existing is not None:
            existing.clients.append(client_id)
            return existing, False
        sim = self._intake_sim(config, config_hash, client_id)
        job = Job(
            job_id=job_id,
            kind="study",
            client_id=client_id,
            created_s=time.time(),
            clients=[client_id],
            simulation=sim,
        )
        sim.watchers.append(job)
        self.jobs[job_id] = job
        self._refresh_job(job)
        job.broker.publish("state", {
            "job_id": job.job_id, "state": job.state,
            "config_hash": config_hash,
        })
        return job, True

    def submit_sweep(
        self, spec_data: dict, client_id: str
    ) -> tuple[Job, bool]:
        """Register (or attach to) a sweep job."""
        self._refuse_if_draining()
        self._refuse_if_pressured()

        def parse(data: dict) -> tuple[SweepSpec, str]:
            spec = SweepSpec.from_dict(data)
            return spec, sweep_digest(spec)  # resolves every cell

        spec, digest = _parsed(parse, spec_data)
        job_id = _job_id("sweep", digest)
        existing = self.jobs.get(job_id)
        if existing is not None:
            existing.clients.append(client_id)
            return existing, False
        cells = spec.cells()
        resolved = [
            (cell, cell.study_config()) for cell in cells
        ]
        new = sum(
            1 for _cell, config in resolved
            if config.canonical_hash() not in self.sims
        )
        if self.scheduler.depth + new > self.scheduler.capacity:
            raise QueueFull(
                f"sweep needs {new} queue slots, "
                f"{self.scheduler.capacity - self.scheduler.depth} free"
            )
        pairs = []
        for cell, config in resolved:
            sim = self._intake_sim(
                config, config.canonical_hash(), client_id
            )
            pairs.append((cell, sim))
        job = Job(
            job_id=job_id,
            kind="sweep",
            client_id=client_id,
            created_s=time.time(),
            clients=[client_id],
            spec=spec,
            cells=tuple(pairs),
        )
        for _cell, sim in pairs:
            sim.watchers.append(job)
        self.jobs[job_id] = job
        self._refresh_job(job)
        job.broker.publish("state", {
            "job_id": job.job_id, "state": job.state,
            "cells": len(pairs),
        })
        return job, True

    def _refuse_if_draining(self) -> None:
        if self.draining:
            raise ServeError("server is draining (SIGTERM received)")

    def _refuse_if_pressured(self) -> None:
        """Hard disk watermark: refuse new submissions honestly (429 +
        ``Retry-After``) instead of accepting work that cannot land."""
        if self.budget is None or self.budget.level() != "hard":
            return
        snapshot = self.budget.snapshot()
        raise QueueFull(
            f"disk budget exhausted: {snapshot['used_bytes']} of "
            f"{snapshot['max_bytes']} bytes used (hard watermark "
            f"{snapshot['hard_bytes']}); run `repro cache gc` or raise "
            "--max-disk-bytes"
        )

    def _cache(self) -> StudyCache:
        """A worker-thread cache handle wired to the shared budget and
        the cache size cap (stores trigger LRU GC automatically)."""
        return StudyCache(
            self.cache_dir,
            seam=IoSeam(budget=self.budget),
            max_bytes=self.max_cache_bytes,
        )

    def _intake_sim(
        self, config: StudyConfig, config_hash: str, client_id: str
    ) -> Simulation:
        """The simulation for this hash: the in-flight/finished one if
        it exists, else a fresh one queued under ``client_id``."""
        sim = self.sims.get(config_hash)
        if sim is not None:
            return sim
        sim = Simulation(
            config_hash=config_hash,
            config=config,
            client_id=client_id,
            cost=estimate_plays(config),
        )
        # Claim the hash before enqueueing so a concurrent duplicate
        # attaches instead of double-queueing; roll back on QueueFull.
        self.sims[config_hash] = sim
        try:
            self.scheduler.submit(client_id, sim.cost, sim)
        except QueueFull:
            del self.sims[config_hash]
            raise
        return sim

    # -- execution ----------------------------------------------------------

    async def _slot_loop(self, worker: SimWorker) -> None:
        while True:
            sim = await self.scheduler.next()
            if sim is None:
                return
            await self._run_simulation(sim, worker)

    async def _run_simulation(
        self, sim: Simulation, worker: SimWorker
    ) -> None:
        assert self._loop is not None and self._executor is not None
        sim.state = "running"
        self._fanout(sim)
        # No handler here: `_execute` turns everything that can reach
        # it, a dead worker included, into a `failed` outcome.
        outcome = await self._loop.run_in_executor(
            self._executor, self._execute, sim, worker
        )
        sim.state = outcome["state"]
        sim.source = outcome.get("source")
        sim.error = outcome.get("error", "")
        sim.records = outcome.get("records", 0)
        sim.elapsed_s = outcome.get("elapsed_s", 0.0)
        sim.plays_per_second = outcome.get("plays_per_second")
        sim.quarantined = tuple(outcome.get("quarantined", ()))
        sim.quarantined_fraction = outcome.get("quarantined_fraction", 0.0)
        sim.manifest = outcome.get("manifest")
        sim.figures = outcome.get("figures")
        for key, value in outcome.get("cache_counters", {}).items():
            self.cache_counters[key] += value
        if outcome.get("simulated"):
            self.simulated += 1
        if outcome.get("store_skipped"):
            self.store_skips += 1
        if outcome.get("worker_restarted"):
            self.worker_restarts += 1
        self._fanout(sim)

    def _execute(self, sim: Simulation, worker: SimWorker) -> dict:
        """Slot-thread body: cache probe, else a checkpointed run in
        the slot's worker process."""
        started = time.monotonic()
        cache = self._cache()
        restarted = False
        try:
            # probe(), not load(): answering a warm submission only
            # needs "a verified study.csv is on disk" (the CSV route
            # streams the entry file directly), so don't pay a full
            # parse — at million-user scale that parse is exactly the
            # memory spike the streaming record path exists to avoid.
            manifest = cache.probe(sim.config_hash)
            if manifest is not None:
                return {
                    "state": "done",
                    "source": "cache",
                    "records": int(manifest.get("records", 0)),
                    "elapsed_s": time.monotonic() - started,
                    "manifest": manifest,
                    "figures": manifest.get("figures"),
                    "cache_counters": cache.counters(),
                }
            return self._simulate(sim, cache, started, worker)
        except WorkerDied as exc:
            # kill -9, the OOM killer, os._exit: an honest outcome for
            # this job only.  What the worker journaled stays on disk
            # and the slot gets a fresh process for the next job.
            worker.restart()
            restarted = True
            error = (
                f"{exc}; its checkpoint journal is kept "
                f"(checkpoints/{sim.config_hash}) and the same study "
                "resumes from it"
            )
        except SimulationFailed as exc:
            error = str(exc)  # the worker's "Type: message"
        except (ReproError, SpillError, OSError) as exc:
            # What the server's own half can raise: cache and spill IO,
            # a damaged spill.
            error = f"{type(exc).__name__}: {exc}"
        return {
            "state": "failed",
            "error": error,
            "elapsed_s": time.monotonic() - started,
            "cache_counters": cache.counters(),
            "worker_restarted": restarted,
        }

    def _ledger_state(self) -> dict | None:
        """What a worker seeds its ledger replica with."""
        if self.budget is None:
            return None
        snapshot = self.budget.snapshot()
        return {
            "max_bytes": snapshot["max_bytes"],
            "by_category": snapshot["by_category"],
        }

    def _charge_ledger(self, delta: dict) -> None:
        """Fold what a worker's run charged, was refused and noted
        into the service-wide ledger."""
        assert self.budget is not None
        for category, nbytes in delta["charged"].items():
            self.budget.charge(category, nbytes, enforce=False)
        for event in delta["events"]:
            self.budget.note(event)
        with self._ledger_lock:
            self.budget.refused += delta["refused"]

    def _simulate(
        self,
        sim: Simulation,
        cache: StudyCache,
        started: float,
        worker: SimWorker,
    ) -> dict:
        ckpt = self.ckpt_root / sim.config_hash

        def relay(kind: str, body: dict) -> None:
            if kind == "telemetry":
                assert self._loop is not None
                self._loop.call_soon_threadsafe(
                    self._on_telemetry, sim, body
                )
            else:
                self._charge_ledger(body)

        run = worker.run(
            (sim.config, str(ckpt), self._ledger_state()), relay
        )
        manifest = run["manifest"]
        outcome = {
            "simulated": True,
            "elapsed_s": time.monotonic() - started,
            "records": run["records"],
            "plays_per_second": run["plays_per_second"],
            # Run manifests carry the plan fingerprint; stamp the
            # content address too so the /manifest document always has
            # one regardless of cache-vs-simulated provenance.
            "manifest": {**manifest, "config_hash": sim.config_hash},
            "source": "simulated",
        }
        if manifest["interrupted"]:
            # Honest manifest + journaled shards are already on disk;
            # a restarted server resumes from them.
            outcome["state"] = "interrupted"
            if manifest.get("interrupted_by") == "disk-budget":
                outcome["error"] = (
                    "drained by the disk budget's hard watermark; free "
                    "space (repro cache gc) or raise the budget, then "
                    "resubmit to resume from the checkpoint"
                )
            else:
                outcome["error"] = (
                    "drained by server shutdown; resubmit to resume from "
                    "the checkpoint"
                )
        elif manifest["failed_shards"]:
            outcome["state"] = "failed"
            outcome["quarantined"] = manifest["failed_shards"]
            outcome["quarantined_fraction"] = run["quarantined_fraction"]
            outcome["error"] = (
                f"shards {manifest['failed_shards']} quarantined "
                f"({run['quarantined_fraction']:.1%} of plays); partial "
                "studies are never cached"
            )
        else:
            extra = {
                "config": sim.config.to_canonical_dict(),
                "engine": {
                    "workers": self.shard_workers,
                    "plays_per_second": round(run["plays_per_second"], 2),
                    "shard_count": run["shard_count"],
                },
            }
            if "figures" in run:
                # Streaming runs ship their figure headlines with the
                # cache entry so warm restarts serve them without
                # re-running the study.
                extra["figures"] = outcome["figures"] = run["figures"]
            if self.budget is not None and self.budget.level() != "ok":
                # Soft/hard pressure: don't grow the cache.  The
                # checkpoint journal stays on disk, so the finished
                # work is not lost — a resubmission resumes instantly
                # instead of re-simulating.
                outcome["store_skipped"] = True
                self.budget.note(
                    f"skipped cache store of {sim.config_hash[:12]} "
                    f"(budget level {self.budget.level()})"
                )
            else:
                if "spill" in run:
                    # Streaming (sketch) runs never materialize the
                    # CSV: chunks flow from the journal's spill files
                    # into the cache entry while the digest folds
                    # incrementally.
                    chunks = SpilledDataset(
                        [
                            ShardSpill(directory, index)
                            for directory, index in run["spill"]["shards"]
                        ],
                        run["spill"]["user_order"],
                    ).iter_csv_chunks()
                else:
                    chunks = [run["csv"]]
                try:
                    cache.store_stream(
                        sim.config_hash, chunks,
                        records=run["records"], extra=extra,
                    )
                except DiskBudgetExceeded:
                    # The store itself crossed the hard watermark (the
                    # seam refused before committing): same degradation
                    # as a pre-flight skip, checkpoint kept.
                    outcome["store_skipped"] = True
                else:
                    if self.budget is not None:
                        self.budget.release(
                            "checkpoints", du_bytes(ckpt)
                        )
                    shutil.rmtree(ckpt, ignore_errors=True)
            outcome["state"] = "done"
        outcome["cache_counters"] = cache.counters()
        return outcome

    # -- fan-out ------------------------------------------------------------

    def _on_telemetry(self, sim: Simulation, snapshot: dict) -> None:
        sim.telemetry = snapshot
        for job in sim.watchers:
            if job.kind == "study":
                job.broker.publish("telemetry", snapshot)
            else:
                job.broker.publish("telemetry", {
                    "config_hash": sim.config_hash, **snapshot,
                })

    def _fanout(self, sim: Simulation) -> None:
        """Push ``sim``'s new state into every watching job."""
        for job in sim.watchers:
            if job.kind == "sweep":
                cell_id = next(
                    cell.cell_id
                    for cell, cell_sim in job.cells
                    if cell_sim is sim
                )
                job.broker.publish("cell", {
                    "cell_id": cell_id,
                    "config_hash": sim.config_hash,
                    "state": sim.state,
                    "source": sim.source,
                    **({"error": sim.error} if sim.error else {}),
                })
            if sim.quarantined and sim.state in ("failed", "done"):
                job.broker.publish("quarantine", {
                    "config_hash": sim.config_hash,
                    "shards": list(sim.quarantined),
                    "fraction": round(sim.quarantined_fraction, 4),
                })
            self._refresh_job(job)

    def _refresh_job(self, job: Job) -> None:
        """Recompute the job's state; publish + close out on settle."""
        previous = job.state
        if job.kind == "study":
            assert job.simulation is not None
            job.state = job.simulation.state
            job.error = job.simulation.error
        else:
            job.state = self._sweep_state(job)
        if job.state == previous:
            return
        job.broker.publish("state", {
            "job_id": job.job_id, "state": job.state,
            **({"error": job.error} if job.error else {}),
        })
        if job.kind == "sweep" and job.state == "assembling":
            self._assemble_async(job)
            return
        if job.state in ("done", "failed", "interrupted", "cancelled"):
            self._settle(job)

    def _sweep_state(self, job: Job) -> str:
        states = {sim.state for _cell, sim in job.cells}
        for bad in ("failed", "cancelled", "interrupted"):
            if bad in states:
                job.error = "; ".join(sorted(
                    f"{cell.cell_id}: {sim.error or sim.state}"
                    for cell, sim in job.cells
                    if sim.state in ("failed", "cancelled", "interrupted")
                ))
                return bad
        if states == {"done"}:
            # Hold in "assembling" until the report exists.
            return "done" if job.report is not None else "assembling"
        if "running" in states or "done" in states:
            return "running"
        return "queued"

    def _settle(self, job: Job) -> None:
        """The job reached a terminal state: final events + close."""
        if job.kind == "study":
            sim = job.simulation
            assert sim is not None
            job.broker.publish("done", {
                "job_id": job.job_id,
                "state": job.state,
                "source": sim.source,
                "records": sim.records,
                "links": job.links(),
                **({"error": job.error} if job.error else {}),
            })
            job.broker.close()
            return
        job.broker.publish("done", {
            "job_id": job.job_id,
            "state": job.state,
            "cells": [
                {"cell_id": cell.cell_id, "state": sim.state}
                for cell, sim in job.cells
            ],
            "links": job.links(),
            **({"error": job.error} if job.error else {}),
        })
        job.broker.close()

    def _assemble_async(self, job: Job) -> None:
        """All sweep cells done: build the report off-loop, then
        settle the job."""
        assert self._loop is not None and self._executor is not None
        loop = self._loop

        def finish(future) -> None:
            try:
                built = future.result()
            except Exception as exc:
                # Broad on purpose, and nothing is swallowed: the
                # report is built by the whole claim-comparison stack
                # over client-chosen cells, and whatever it raised
                # must settle the job as `failed` with the reason in
                # its `error` — a narrower net would strand the job in
                # `assembling` with its SSE streams open.
                job.state = "failed"
                job.error = f"report assembly failed: {exc}"
            else:
                job.report = built["report"]
                job.report_text = built["report_text"]
                job.sweep_manifest = built["manifest"]
                for key, value in built["cache_counters"].items():
                    self.cache_counters[key] += value
                job.state = "done"
            job.broker.publish("state", {
                "job_id": job.job_id, "state": job.state,
                **({"error": job.error} if job.error else {}),
            })
            self._settle(job)

        future = self._executor.submit(self._assemble_sweep, job)
        future.add_done_callback(
            lambda f: loop.call_soon_threadsafe(finish, f)
        )

    def _assemble_sweep(self, job: Job) -> dict:
        """Worker-thread body: CellRuns from the cache, then the
        claim-sensitivity comparison."""
        assert job.spec is not None
        cache = self._cache()
        runs = []
        for cell, sim in job.cells:
            entry = cache.load(sim.config_hash)
            if entry is None:
                raise ServeError(
                    f"cell {cell.cell_id!r} vanished from the cache "
                    f"({sim.config_hash[:12]})"
                )
            runs.append(CellRun(
                cell=cell,
                config_hash=sim.config_hash,
                dataset=entry.dataset,
                cached=sim.source == "cache",
                elapsed_s=sim.elapsed_s,
                plays_per_second=sim.plays_per_second,
            ))
        baseline_id = job.spec.baseline_cell().cell_id
        result = SweepResult(
            spec=job.spec,
            runs=tuple(runs),
            baseline=next(r for r in runs if r.cell_id == baseline_id),
            hits=sum(1 for r in runs if r.cached),
            misses=sum(1 for r in runs if not r.cached),
            evicted=tuple(cache.evicted),
            workers=self.shard_workers,
            elapsed_s=sum(r.elapsed_s for r in runs),
            cache_counters=cache.counters(),
        )
        comparison = compare_sweep(result)
        return {
            "report": report_payload(comparison),
            "report_text": format_sweep_report(comparison),
            "manifest": result.manifest(),
            "cache_counters": cache.counters(),
        }

    # -- reads --------------------------------------------------------------

    def job(self, job_id: str) -> Job:
        job = self.jobs.get(job_id)
        if job is None:
            raise KeyError(job_id)
        return job

    def study_csv_path(self, job: Job) -> Path:
        """The completed study's CSV in the content-addressed store."""
        if job.kind != "study" or job.simulation is None:
            raise ServeError(f"job {job.job_id} is not a study")
        if job.state != "done":
            raise ServeError(
                f"job {job.job_id} is {job.state}, not done"
            )
        cache = StudyCache(self.cache_dir)
        path = cache.entry_dir(job.simulation.config_hash) / CSV_NAME
        if not path.exists():
            raise ServeError(
                f"study.csv for {job.job_id} is missing from the cache"
            )
        return path

    def stats(self) -> dict:
        """The ``GET /v1/stats`` document."""
        states: dict[str, int] = {}
        for job in self.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "jobs": len(self.jobs),
            "job_states": states,
            "simulations": len(self.sims),
            "simulated": self.simulated,
            "queue_depth": self.scheduler.depth,
            "queue_capacity": self.scheduler.capacity,
            "workers": self.workers,
            "shard_workers": self.shard_workers,
            "worker_restarts": self.worker_restarts,
            "cache": dict(self.cache_counters),
            "draining": self.draining,
            **(
                {
                    "pressure": {
                        **self.budget.snapshot(),
                        "store_skips": self.store_skips,
                    }
                }
                if self.budget is not None
                else {}
            ),
        }
