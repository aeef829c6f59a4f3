"""The sharded study execution engine.

:func:`run_study` is the one entry point: it plans shards, runs them —
in-process when ``workers <= 1``, on a multiprocessing pool otherwise —
journals completed shards to an optional checkpoint directory, merges
the shard datasets back into serial order, and fans the merged records
into an optional submission sink.

The engine's determinism contract: for the same
:class:`~repro.core.study.StudyConfig`, the returned dataset is
**byte-identical** (as CSV) to ``Study(config).run()`` regardless of
worker count, shard count, shard completion order, retries, or whether
shards were resumed from a checkpoint.

Degradation contract (the `repro.chaos` guarantees):

- A shard that exhausts its retries is **quarantined**: named in the
  run manifest, its plays accounted as a quarantined fraction, and the
  study completes partially instead of aborting.
- SIGINT/SIGTERM (when ``handle_signals`` is on) stop the run
  **gracefully**: in-flight results are journaled, a resumable
  manifest is flushed, and the partial :class:`RunResult` comes back
  with ``interrupted=True``.  A second signal falls through to the
  previous handler — immediate exit.
- Checkpoint-journal write failures (disk full, IO errors) **degrade**
  the journal, never the run: the error is counted in telemetry and
  the affected shard simply re-simulates on a future resume.
"""

from __future__ import annotations

import logging
import signal
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import tempfile

from repro.analysis.streaming import StudyAggregates
from repro.chaos.plan import FaultPlan
from repro.chaos.seam import IoSeam
from repro.core.records import StudyDataset
from repro.core.spill import (
    ShardSpill,
    SpilledDataset,
    index_file_name,
    sweep_orphans,
)
from repro.core.study import Study, StudyConfig
from repro.core.submission import SubmissionSink
from repro.errors import CheckpointError
from repro.pressure import DiskBudget, PressureConfig, du_bytes
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.pool import (
    DEFAULT_MAX_RETRIES,
    DEFAULT_WATCHDOG_DEADLINE_S,
    BackoffPolicy,
    EventCallback,
    run_shards,
    simulate_shard,
)
from repro.runtime.scheduler import ShardPlan, plan_shards
from repro.runtime.telemetry import RunTelemetry
from repro.validate import ValidationConfig
from repro.world.population import StudyPopulation

#: One record per shard lifecycle event (started / finished /
#: failed_attempt / failed_final / journal_error), with ``event``,
#: ``fingerprint``, ``shard``, ``attempt``, ``records`` and
#: ``elapsed_s`` in ``extra=``.  The library installs no handler.
_log = logging.getLogger("repro.runtime")


@dataclass
class RuntimeConfig:
    """How a study run is executed (the study itself is `StudyConfig`)."""

    #: Worker processes; 1 runs shards in-process (no multiprocessing).
    workers: int = 1
    #: Shard count (None: one per user, capped at
    #: `scheduler.DEFAULT_MAX_SHARDS`).  Must match to resume.
    shard_count: int | None = None
    #: Journal completed shards here; enables ``resume``.
    checkpoint_dir: str | Path | None = None
    #: Skip shards already journaled in ``checkpoint_dir``.
    resume: bool = False
    #: Retries after a shard's first failed attempt.
    max_retries: int = DEFAULT_MAX_RETRIES
    #: Called with the run's `RunTelemetry` after every event; callers
    #: throttle their own rendering.
    progress: Callable[[RunTelemetry], None] | None = None
    #: Override the study's `repro.validate` config for this run (None:
    #: use ``StudyConfig.validation`` as-is).  Validation never changes
    #: the simulated results, so it does not affect the checkpoint
    #: fingerprint and an audited run can resume an unaudited one.
    validation: ValidationConfig | None = None
    #: `repro.chaos` fault plan: worker.play faults reach the pool
    #: workers (so they need ``workers >= 2``), write faults reach the
    #: checkpoint journal's IO seam, signal faults are delivered on a
    #: timer (requires ``handle_signals``).
    fault_plan: FaultPlan | None = None
    #: Retry backoff policy (None: pool default, jitter keyed by the
    #: fault plan's seed).
    backoff: BackoffPolicy | None = None
    #: Kill and reschedule a worker with no heartbeat for this long.
    watchdog_deadline_s: float = DEFAULT_WATCHDOG_DEADLINE_S
    #: Install SIGINT/SIGTERM handlers for graceful shutdown (flush a
    #: consistent checkpoint, return ``interrupted=True``; second
    #: signal = immediate).  Off by default: libraries and test
    #: harnesses own their signal disposition; the CLI turns it on.
    handle_signals: bool = False
    #: External stop request, polled at play boundaries.  When it
    #: returns True the run drains exactly like a first SIGINT/SIGTERM
    #: — in-flight results journal, a consistent checkpoint and honest
    #: manifest flush, and the partial result comes back with
    #: ``interrupted=True`` (``interrupted_by: "external"``).  This is
    #: how `repro.serve` reuses the graceful-shutdown path from worker
    #: threads, where signal handlers cannot be installed.
    should_stop: Callable[[], bool] | None = None
    #: `repro.pressure` resource governance: a disk budget enforced at
    #: the checkpoint/cache IO seam (soft watermark degrades — smaller
    #: spill batches, thinned manifest flushes; hard refuses new work:
    #: the run drains in-flight shards like an external stop, with
    #: ``interrupted_by: "disk-budget"``) plus the per-worker memory
    #: watermark that shrinks sketch batches before the OOM killer.
    pressure: PressureConfig | None = None
    #: A pre-built, possibly *shared* disk ledger (e.g. `repro.serve`'s
    #: one-per-service budget spanning cache and checkpoints).  When
    #: set it is used as-is — ``pressure.make_budget()`` is skipped and
    #: the engine does not seed it (the owner already did).
    budget: DiskBudget | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.resume and self.checkpoint_dir is None:
            raise ValueError("resume requires a checkpoint_dir")
        if self.workers == 1 and self.fault_plan is not None:
            stranded = self.fault_plan.for_site("worker.play")
            if stranded:
                # In-process there is no worker to hang, crash or fail:
                # the fault would be dropped and the run would "pass".
                raise ValueError(
                    f"fault {stranded[0].label!r} needs workers >= 2 "
                    "(workers=1 runs shards in-process, where a "
                    "worker.play fault has no worker process to hit)"
                )


@dataclass
class RunResult:
    """Everything a sharded run produced.

    ``dataset`` is an in-memory :class:`StudyDataset` for exact-mode
    runs and an out-of-core :class:`~repro.core.spill.SpilledDataset`
    for streaming (``aggregation="sketch"``) runs — both iterate
    records in serial user order and emit byte-identical CSV.
    Streaming runs additionally carry the merged
    :class:`~repro.analysis.streaming.StudyAggregates`.
    """

    dataset: StudyDataset | SpilledDataset
    population: StudyPopulation
    plan: ShardPlan
    telemetry: RunTelemetry
    manifest: dict = field(default_factory=dict)
    #: Shards that exhausted their retries (quarantined).
    failed_shards: tuple[int, ...] = ()
    #: The run was stopped by SIGINT/SIGTERM after flushing a
    #: consistent, resumable checkpoint.
    interrupted: bool = False
    #: Merged streaming aggregates (``aggregation="sketch"`` only).
    aggregates: StudyAggregates | None = None

    @property
    def complete(self) -> bool:
        return not self.failed_shards and not self.interrupted

    @property
    def quarantined_shards(self) -> tuple[int, ...]:
        """Alias for :attr:`failed_shards`, the manifest's term."""
        return self.failed_shards

    @property
    def quarantined_fraction(self) -> float:
        """Fraction of scheduled plays lost to quarantined shards."""
        if not self.failed_shards or self.plan.total_plays <= 0:
            return 0.0
        plays = {s.shard_id: s.plays for s in self.plan.shards}
        lost = sum(plays[shard_id] for shard_id in self.failed_shards)
        return lost / self.plan.total_plays


class _Interrupted(Exception):
    """Internal: abandons the in-process shard when a stop arrived."""


class _GracefulStop:
    """First SIGINT/SIGTERM sets a flag; the second one is immediate.

    Handlers are installed only when enabled *and* on the main thread
    (CPython restricts ``signal.signal`` to it), and the previous
    disposition is restored as soon as the first signal lands — so the
    second signal falls through to the default/previous behavior —
    and unconditionally on exit.
    """

    def __init__(self, enabled: bool) -> None:
        self.requested = False
        self.signal_name = ""
        self._previous: dict = {}
        self._enabled = (
            enabled
            and threading.current_thread() is threading.main_thread()
        )

    def __enter__(self) -> "_GracefulStop":
        if self._enabled:
            for sig in (signal.SIGINT, signal.SIGTERM):
                self._previous[sig] = signal.signal(sig, self._on_signal)
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _on_signal(self, signum, frame) -> None:
        self.requested = True
        self.signal_name = signal.Signals(signum).name
        self._restore()

    def _restore(self) -> None:
        previous, self._previous = self._previous, {}
        for sig, handler in previous.items():
            signal.signal(sig, handler)


class _CombinedStop:
    """The run's stop view: a signal, the external ``should_stop``, or
    the disk budget crossing its hard watermark.

    The external predicate and the budget trip are latched on their
    first True so a flapping callable (or a budget that later frees
    bytes) cannot un-request a drain half-way through.
    """

    def __init__(
        self,
        signals: _GracefulStop,
        external: Callable[[], bool] | None,
        budget: DiskBudget | None = None,
    ) -> None:
        self._signals = signals
        self._external = external
        self._budget = budget
        self._tripped = False
        self._budget_tripped = False

    @property
    def requested(self) -> bool:
        if self._signals.requested:
            return True
        if not self._tripped and self._external is not None:
            self._tripped = bool(self._external())
        if self._tripped:
            return True
        if not self._budget_tripped and self._budget is not None:
            self._budget_tripped = self._budget.level() == "hard"
            if self._budget_tripped:
                self._budget.note(
                    "hard watermark: refusing new shards, draining "
                    "in-flight work"
                )
        return self._budget_tripped

    @property
    def signal_name(self) -> str:
        if self._signals.signal_name:
            return self._signals.signal_name
        if self._tripped:
            return "external"
        return "disk-budget" if self._budget_tripped else ""


def _signal_timers(
    plan: FaultPlan | None, enabled: bool
) -> list[threading.Timer]:
    """Armed timers delivering the plan's scheduled signal faults."""
    if plan is None or not enabled:
        return []
    timers = []
    for fault in plan.for_site("signal"):
        signum = (
            signal.SIGINT if fault.action == "sigint" else signal.SIGTERM
        )
        timer = threading.Timer(
            fault.after_s, signal.raise_signal, args=(signum,)
        )
        timer.daemon = True
        timer.start()
        timers.append(timer)
    return timers


def run_study(
    config: StudyConfig | None = None,
    runtime: RuntimeConfig | None = None,
    sink: SubmissionSink | None = None,
) -> RunResult:
    """Execute the campaign under the given runtime policy."""
    config = config if config is not None else StudyConfig()
    runtime = runtime if runtime is not None else RuntimeConfig()
    if runtime.validation is not None:
        config = replace(config, validation=runtime.validation)

    study = Study(config)
    plan = plan_shards(study, runtime.shard_count)
    telemetry = RunTelemetry(
        total_plays=plan.total_plays, workers=runtime.workers
    )
    for shard in plan.shards:
        telemetry.shard_registered(shard.shard_id, shard.plays)

    def notify() -> None:
        if runtime.progress is not None:
            runtime.progress(telemetry)

    streaming = config.aggregation == "sketch"
    pressure = runtime.pressure
    owns_budget = runtime.budget is None
    budget = runtime.budget
    if budget is None and pressure is not None:
        budget = pressure.make_budget()
    if budget is not None and runtime.fault_plan is not None:
        budget.arm(runtime.fault_plan.for_site("pressure.disk"))
    store: CheckpointStore | None = None
    completed: dict[int, StudyDataset | ShardSpill] = {}
    shard_aggregates: dict[int, dict] = {}
    if runtime.checkpoint_dir is not None:
        store = CheckpointStore(
            runtime.checkpoint_dir,
            seam=IoSeam.from_plan(runtime.fault_plan, budget=budget),
            thin_every=(
                pressure.checkpoint_thin_every if pressure is not None else 1
            ),
        )
        plays_by_id = {s.shard_id: s.plays for s in plan.shards}
        try:
            journaled = sorted(store.open(plan.fingerprint, runtime.resume))
        except OSError as exc:
            # The journal directory itself is unusable (disk full, IO
            # error): run without checkpointing rather than aborting.
            telemetry.journal_error(f"checkpoint open: {exc}")
            store, journaled = None, []
        for shard_id in journaled:
            try:
                if streaming:
                    spill, aggregates = store.load_shard_spill(shard_id)
                    completed[shard_id] = spill
                    shard_aggregates[shard_id] = aggregates
                    records = spill.count
                else:
                    dataset = store.load_shard(shard_id)
                    completed[shard_id] = dataset
                    records = len(dataset)
            except CheckpointError:
                # Damaged journal entry (truncated/corrupted payload,
                # or the other aggregation mode's format): drop it and
                # leave the shard pending so it re-simulates.
                _journal(telemetry, f"invalidate shard {shard_id}",
                         lambda: store.invalidate_shard(shard_id))
                continue
            telemetry.shard_resumed(
                shard_id, plays_by_id[shard_id], records
            )

    spill_tmp: str | None = None
    spill_dir: Path | None = None
    if streaming:
        if store is not None:
            spill_dir = store.spill_dir
        else:
            spill_tmp = tempfile.mkdtemp(prefix="repro-spill-")
            spill_dir = Path(spill_tmp)
        spill_dir.mkdir(parents=True, exist_ok=True)
        if store is not None and runtime.resume:
            # Spill hygiene: a killed predecessor's weakref finalizer
            # never ran, so uncommitted batch/temp files linger.  Sweep
            # everything the resumed shards' indexes do not reference.
            referenced: set[str] = set()
            for spill in completed.values():
                referenced.add(index_file_name(spill.shard_id))
                referenced.update(
                    entry["file"] for entry in spill.index["batches"]
                )
            files, freed = sweep_orphans(spill_dir, referenced)
            if files:
                telemetry.orphans_reclaimed(files, freed)

    if (
        owns_budget
        and budget is not None
        and runtime.checkpoint_dir is not None
    ):
        # Seed the ledger with what the directory already holds (a
        # resumed journal), so watermarks measure real occupancy.  A
        # shared budget was seeded by its owner; seeding again would
        # double-count the journal.
        budget.seed("checkpoints", du_bytes(runtime.checkpoint_dir))

    pending = [s for s in plan.shards if s.shard_id not in completed]
    quarantined: set[int] = set()
    telemetry.run_started()
    notify()

    with _GracefulStop(runtime.handle_signals) as signals:
        stop = _CombinedStop(signals, runtime.should_stop, budget)
        timers = _signal_timers(runtime.fault_plan, runtime.handle_signals)
        settle = _settler(
            plan.fingerprint, telemetry, store, completed, shard_aggregates,
            quarantined, budget, notify,
        )
        try:
            if runtime.workers == 1:
                _run_in_process(
                    study, pending, settle, stop,
                    spill_dir=spill_dir, pressure=pressure, budget=budget,
                )
            else:
                # Crashes, raises and hangs retry (with backoff) up to
                # ``max_retries``; shards beyond that are quarantined.
                run_shards(
                    config,
                    pending,
                    workers=runtime.workers,
                    max_retries=runtime.max_retries,
                    on_event=settle,
                    plan=runtime.fault_plan,
                    backoff=runtime.backoff,
                    watchdog_deadline_s=runtime.watchdog_deadline_s,
                    should_stop=lambda: stop.requested,
                    spill_dir=str(spill_dir) if streaming else None,
                    pressure=pressure,
                )
        finally:
            for timer in timers:
                timer.cancel()
                timer.join(timeout=1.0)

    interrupted = stop.requested
    failed = tuple(sorted(quarantined))
    unfinished = tuple(
        s.shard_id
        for s in plan.shards
        if s.shard_id not in completed and s.shard_id not in quarantined
    )
    aggregates: StudyAggregates | None = None
    if streaming:
        dataset = SpilledDataset(
            completed.values(), plan.user_order, cleanup_dir=spill_tmp
        )
        for shard_id in sorted(shard_aggregates):
            part = StudyAggregates.from_dict(shard_aggregates[shard_id])
            if aggregates is None:
                aggregates = part
            else:
                aggregates.merge(part)
        if aggregates is None:
            aggregates = StudyAggregates()
    else:
        dataset = StudyDataset.merged_in_user_order(
            (completed[shard_id] for shard_id in sorted(completed)),
            plan.user_order,
        )
    if sink is not None:
        if streaming:
            # Bounded batches: the sink sees every record in serial
            # order without the run ever materializing them all.
            batch: list = []
            for record in dataset:
                batch.append(record)
                if len(batch) >= 4096:
                    sink.submit_many(batch)
                    batch.clear()
            if batch:
                sink.submit_many(batch)
        else:
            sink.submit_many(dataset)

    telemetry.run_finished()
    if budget is not None:
        telemetry.set_pressure(budget.snapshot())
    notify()
    plays_by_id = {s.shard_id: s.plays for s in plan.shards}
    lost = sum(plays_by_id[shard_id] for shard_id in failed)
    manifest = {
        "seed": config.seed,
        "scale": config.scale,
        "aggregation": config.aggregation,
        "fingerprint": plan.fingerprint,
        "shard_count": plan.shard_count,
        "records": len(dataset),
        "failed_shards": list(failed),
        "quarantined": {
            "shards": list(failed),
            "plays": lost,
            "fraction": round(
                lost / plan.total_plays if plan.total_plays else 0.0, 6
            ),
        },
        "interrupted": interrupted,
        **({"interrupted_by": stop.signal_name} if interrupted else {}),
        **({"pending_shards": list(unfinished)} if interrupted else {}),
        **telemetry.manifest(),
    }
    if store is not None:
        _journal(telemetry, "run manifest",
                 lambda: store.write_run_manifest(manifest))
    return RunResult(
        dataset=dataset,
        population=study.population,
        plan=plan,
        telemetry=telemetry,
        manifest=manifest,
        failed_shards=failed,
        interrupted=interrupted,
        aggregates=aggregates,
    )


def _journal(
    telemetry: RunTelemetry, what: str, write: Callable[[], object], **extra
) -> None:
    """Checkpoint writes degrade (counted, logged, resumable) instead of
    sinking a healthy run on a full disk."""
    try:
        write()
    except OSError as exc:
        telemetry.journal_error(f"{what}: {exc}")
        _log.warning(
            "journal error: %s: %s", what, exc,
            extra={"event": "journal_error", **extra},
        )


def _settler(
    fingerprint, telemetry, store, completed, shard_aggregates,
    quarantined, budget, notify,
) -> EventCallback:
    """The run's one settle handler: every shard lifecycle event, from
    either executor, lands here — telemetry, the checkpoint journal,
    the completed/quarantined maps, the disk ledger and the log.

    Shards are journaled the moment their ``finished`` event arrives,
    so a run killed mid-way resumes from the completed prefix."""

    def journal(shard_id: int, what: str, write) -> None:
        if store is not None:
            _journal(telemetry, what, write,
                     fingerprint=fingerprint, shard=shard_id)

    def settle(kind: str, shard_id: int, info: dict) -> None:
        if kind == "tick":
            telemetry.shard_progress(shard_id, info["done"])
            notify()
            return
        attempt, result = info["attempt"], info.get("result")
        if kind == "started":
            telemetry.shard_started(shard_id, info["plays"], attempt=attempt)
        elif kind == "finished":
            telemetry.record_violations(result.violations, result.checks_run)
            telemetry.record_memory(
                result.peak_rss_bytes, result.batch_shrinks
            )
            if budget is not None and result.uncharged_spill_bytes:
                # Charged at the event that makes the spill durable.
                budget.charge(
                    "spills", result.uncharged_spill_bytes, enforce=False
                )
            if result.spill is not None:
                journal(
                    shard_id, f"shard {shard_id}",
                    lambda: store.record_shard_spill(
                        shard_id, result.spill.index, result.elapsed_s,
                        attempts=attempt, aggregates=result.aggregates,
                    ),
                )
                completed[shard_id] = result.spill
                shard_aggregates[shard_id] = result.aggregates
            else:
                journal(
                    shard_id, f"shard {shard_id}",
                    lambda: store.record_shard(
                        shard_id, result.dataset, result.elapsed_s,
                        attempts=attempt,
                    ),
                )
                completed[shard_id] = result.dataset
            telemetry.shard_finished(
                shard_id, records=result.records,
                elapsed_s=result.elapsed_s, attempt=attempt,
            )
        elif kind in ("failed_attempt", "failed_final"):
            telemetry.shard_failed(
                shard_id, attempt=attempt, error=info["error"],
                backoff_s=info.get("backoff_s", 0.0),
            )
            if kind == "failed_final":
                quarantined.add(shard_id)
                telemetry.shard_quarantined(shard_id)
                journal(
                    shard_id, f"shard {shard_id} failure",
                    lambda: store.record_failure(
                        shard_id, attempt, info["error"]
                    ),
                )
        _log.log(
            logging.WARNING if kind.startswith("failed") else logging.INFO,
            "shard %d %s (attempt %d)", shard_id, kind, attempt,
            extra={
                "event": kind,
                "fingerprint": fingerprint,
                "shard": shard_id,
                "attempt": attempt,
                "records": result.records if result is not None else None,
                "elapsed_s": result.elapsed_s if result is not None else None,
            },
        )
        notify()

    return settle


def _run_in_process(study, pending, settle, stop, **body) -> None:
    """The ``workers == 1`` executor: run each shard body on the run's
    own study and feed the same events to ``settle`` as the pool does.

    No retries — exceptions propagate, as in ``Study.run`` — but
    completed shards still journal, so a killed run resumes.  A stop
    request abandons the in-flight shard at the next play boundary
    (how `repro.serve` drains from worker threads); completed shards
    stay journaled."""
    for spec in pending:
        if stop.requested:
            return
        settle("started", spec.shard_id, {"attempt": 1, "plays": spec.plays})

        def on_tick(done: int) -> None:
            settle("tick", spec.shard_id, {"done": done})
            if stop.requested:
                raise _Interrupted

        try:
            result = simulate_shard(study, spec, on_tick, **body)
        except _Interrupted:
            return
        settle("finished", spec.shard_id, {"attempt": 1, "result": result})
