"""Multiprocessing execution of shards, with bounded retries.

One process per shard attempt, at most ``workers`` alive at once.  A
worker rebuilds the study from its (picklable) config — populations
are deterministic, so every process agrees on the world — runs
:func:`simulate_shard`, the shard body the engine's in-process driver
also runs, and ships the records back as a CSV payload on an event
queue.

Three failure modes are handled the same way, by retrying the shard in
a fresh process up to a bounded number of attempts:

- the worker *raises* (caught in-process, reported as a ``failed``
  event),
- the worker *dies* (killed, segfault, ``os._exit``) — detected by the
  parent when the process is gone without having reported a result,
- the worker *hangs* (stops emitting progress ticks) — detected by the
  per-shard watchdog, which kills the process after
  ``watchdog_deadline_s`` without a heartbeat and reschedules it.

Retries re-queue with exponential backoff and deterministic jitter
(:class:`BackoffPolicy`), so a transient crash storm cannot spin the
pool.  A shard that exhausts its attempts is recorded as failed
(*quarantined* by the engine) without sinking the run.

Deterministic fault injection is the ``worker.play`` faults of a
:class:`~repro.chaos.plan.FaultPlan` (hang / crash / raise at a named
play), threaded through :class:`~repro.chaos.seam.WorkerFaults` —
never by monkeypatching.

Shutdown correctness: every worker's last act is a ``bye`` sentinel on
the event queue (crashes skip it — that's what makes them crashes), so
the parent can distinguish "process exited, result still in the queue
buffer" from "process died without reporting" by draining until the
sentinel arrives instead of guessing with a zero-timeout poll.
"""

from __future__ import annotations

import hashlib
import multiprocessing as mp
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from queue import Empty
from typing import Callable, Sequence

from repro.chaos.plan import FaultPlan
from repro.chaos.seam import WorkerFaults
from repro.analysis.streaming import StudyAggregates, user_base_ranks
from repro.core.records import StudyDataset
from repro.core.spill import ShardSpill, SpillError, SpillWriter
from repro.core.study import Study, StudyConfig
from repro.pressure import DiskBudget, MemoryGovernor, PressureConfig
from repro.runtime.scheduler import ShardSpec

#: Retries after the first attempt before a shard is declared failed.
DEFAULT_MAX_RETRIES = 2

#: Seconds without any worker event (tick/finish) before the watchdog
#: declares a shard hung.  Generous: a healthy worker heartbeats once
#: per finished play (~0.1 s), so even two orders of magnitude of
#: machine jitter stay clear of it.
DEFAULT_WATCHDOG_DEADLINE_S = 60.0

#: How long reap/shutdown drains wait for a dead worker's sentinel
#: before declaring its events lost.
SENTINEL_GRACE_S = 1.0


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential retry backoff with deterministic jitter.

    ``delay(shard, attempt)`` is a pure function — same shard, attempt
    and key always wait the same time — so chaos runs and their
    resumes replay identically while distinct shards still de-correlate.
    """

    base_s: float = 0.1
    cap_s: float = 5.0
    #: Jitter amplitude as a fraction of the raw delay (+/-).
    jitter: float = 0.25
    #: Salt (e.g. the fault plan's seed) decorrelating schedules.
    key: int = 0

    def delay_s(self, shard_id: int, attempt: int) -> float:
        """Seconds to wait before re-queueing attempt ``attempt + 1``."""
        raw = min(self.cap_s, self.base_s * (2.0 ** max(0, attempt - 1)))
        digest = hashlib.sha256(
            f"{self.key}:{shard_id}:{attempt}".encode()
        ).digest()
        frac = int.from_bytes(digest[:8], "big") / 2.0 ** 64
        return raw * (1.0 + self.jitter * (2.0 * frac - 1.0))


@dataclass
class ShardResult:
    """One shard's outcome: what :func:`simulate_shard` returns, what a
    ``finished`` event carries, and (with ``error`` set) what
    :func:`run_shards` records for a shard that exhausted its attempts.
    """

    shard_id: int
    dataset: StudyDataset | None = None
    elapsed_s: float = 0.0
    attempts: int = 1
    error: str = ""
    #: Violation counts by invariant id (empty when validation is off).
    violations: dict = field(default_factory=dict)
    #: Invariant checks the shard ran (0 when validation is off).
    checks_run: int = 0
    #: Streaming (sketch-mode) runs: the shard's on-disk records and
    #: serialized aggregates instead of an in-memory ``dataset``.
    spill: ShardSpill | None = None
    aggregates: dict | None = None
    #: Spill bytes no disk ledger has seen yet: a worker cannot share
    #: the parent's ledger across the process boundary, so the engine
    #: charges these when the shard settles (0 when the body charged
    #: a live ``budget`` as it wrote).
    uncharged_spill_bytes: int = 0
    #: Memory-governor facts (both 0 without a `PressureConfig`).
    peak_rss_bytes: int = 0
    batch_shrinks: int = 0

    @property
    def ok(self) -> bool:
        return self.dataset is not None or self.spill is not None

    @property
    def records(self) -> int:
        if self.spill is not None:
            return self.spill.count
        return len(self.dataset) if self.dataset is not None else 0


#: ``on_event(kind, shard_id, info)`` — kinds: started, tick, finished,
#: failed_attempt, failed_final.
EventCallback = Callable[[str, int, dict], None]


def simulate_shard(
    study: Study,
    spec: ShardSpec,
    on_tick: Callable[[int], None],
    *,
    spill_dir: str | Path | None = None,
    pressure: PressureConfig | None = None,
    budget: DiskBudget | None = None,
) -> ShardResult:
    """The shard body: simulate ``spec``'s users on ``study``.

    Both executors run exactly this — the engine's in-process driver
    on the run's own ``study``, a pool worker on the one it rebuilt —
    so a feature of "running one shard" is written once.  What differs
    between them arrives as arguments: ``on_tick(done)`` is called
    after every finished play (whatever it raises abandons the shard),
    and ``budget`` is the run's live disk ledger, reachable only
    in-process.

    With ``spill_dir`` (streaming mode) records go to columnar disk
    batches and mergeable sketches as they are produced, so nobody
    ever holds the shard's records in memory; an abandoned shard
    leaves only orphan batch files the next attempt overwrites.
    """
    started = time.monotonic()
    min_batch = pressure.min_batch_size if pressure is not None else 1
    governor = (
        MemoryGovernor(pressure.memory_soft_bytes, min_batch_size=min_batch)
        if pressure is not None
        else None
    )
    writer: SpillWriter | None = None
    on_record = None

    def tick(done: int, total: int) -> None:
        on_tick(done)
        # The play boundary is also the degradation point: a shard
        # above the memory watermark, or writing under soft disk
        # pressure, shrinks its spill batches (never the records) here,
        # before the OOM killer picks a victim.
        if governor is not None:
            if writer is not None:
                writer.shrink(governor.advise(writer.batch_size))
            else:
                governor.sample()
        if (
            writer is not None
            and budget is not None
            and budget.level() != "ok"
        ):
            writer.shrink(max(min_batch, writer.batch_size // 2))

    result = ShardResult(spec.shard_id)
    if spill_dir is not None:
        writer = SpillWriter(spill_dir, spec.shard_id, budget=budget)
        aggregates = StudyAggregates(
            user_base_rank=user_base_ranks(study.schedule())
        )

        def on_record(record) -> None:
            writer.add(record)
            aggregates.add(record)

    result.dataset = study.run_users(
        spec.user_ids, progress=tick, on_record=on_record,
        collect=writer is None,
    )
    if writer is not None:
        result.spill = ShardSpill(spill_dir, writer.finish())
        result.aggregates = aggregates.to_dict()
        result.batch_shrinks = writer.shrinks
        if budget is None:
            result.uncharged_spill_bytes = writer.bytes_written
    if governor is not None:
        result.peak_rss_bytes = governor.peak_bytes
    ledger = study.last_validation
    if ledger is not None:
        result.violations = ledger.summary()
        result.checks_run = ledger.checks_run
    result.elapsed_s = time.monotonic() - started
    return result


def _shard_worker(
    config: StudyConfig,
    spec: ShardSpec,
    attempt: int,
    plan: FaultPlan | None,
    queue,
    spill_dir: str | None = None,
    pressure: PressureConfig | None = None,
) -> None:
    shard_id = spec.shard_id
    try:
        injected = WorkerFaults(plan, shard_id, attempt)
        started = time.monotonic()

        def on_tick(done: int) -> None:
            # The tick doubles as the watchdog heartbeat: a worker that
            # stops finishing plays stops beating.
            queue.put(("tick", shard_id, done))
            injected.on_play_done(done)

        result = simulate_shard(
            Study(config), spec, on_tick,
            spill_dir=spill_dir, pressure=pressure,
        )
        result.attempts = attempt
        # Unlike the in-process driver, a worker pays for rebuilding
        # the seed's users (the clip catalogue too, if spawned rather
        # than forked); its shard time says so.
        result.elapsed_s = time.monotonic() - started
        # The queue carries the records as CSV text, or only the spill
        # index: the parent re-opens (and so re-validates) the spill.
        if result.spill is not None:
            payload: object = result.spill.index
        else:
            payload = result.dataset.to_csv_string()
        result.dataset = result.spill = None
        queue.put(("finished", shard_id, payload, result))
    except Exception:
        # Broad on purpose: this is the process boundary.  Whatever the
        # simulation raised, the traceback is shipped as a ``failed``
        # event and the parent retries or quarantines the shard, so
        # nothing is swallowed; KeyboardInterrupt/SystemExit still
        # propagate.
        queue.put(("failed", shard_id, attempt, traceback.format_exc(limit=5)))
    finally:
        # Shutdown sentinel: tells the parent this attempt's events are
        # fully enqueued.  A hard crash (os._exit, kill) skips this —
        # which is exactly how the parent recognizes a crash.
        queue.put(("bye", shard_id, attempt))


def _drain(queue, timeout: float) -> list[tuple]:
    """All currently queued events, blocking up to ``timeout`` for the
    first one."""
    events: list[tuple] = []
    try:
        events.append(queue.get(timeout=timeout))
    except Empty:
        return events
    while True:
        try:
            events.append(queue.get_nowait())
        except Empty:
            return events


def run_shards(
    config: StudyConfig,
    shards: Sequence[ShardSpec],
    workers: int,
    max_retries: int = DEFAULT_MAX_RETRIES,
    on_event: EventCallback | None = None,
    poll_interval_s: float = 0.05,
    plan: FaultPlan | None = None,
    backoff: BackoffPolicy | None = None,
    watchdog_deadline_s: float = DEFAULT_WATCHDOG_DEADLINE_S,
    should_stop: Callable[[], bool] | None = None,
    spill_dir: str | None = None,
    pressure: PressureConfig | None = None,
) -> dict[int, ShardResult]:
    """Run every shard on a bounded pool; return results keyed by id.

    ``spill_dir`` switches workers to the streaming record path: shard
    records spill to columnar batches under it and results carry a
    :class:`~repro.core.spill.ShardSpill` + aggregates instead of an
    in-memory dataset.  ``plan`` carries the ``worker.play`` faults to
    inject.

    ``should_stop`` is polled between events; when it turns true the
    pool stops launching, drains already-reported results (so they are
    journaled, not lost), terminates in-flight workers, and returns the
    partial result map — the graceful-shutdown path.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if backoff is None:
        backoff = BackoffPolicy(key=plan.seed if plan is not None else 0)
    method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    ctx = mp.get_context(method)
    queue = ctx.Queue()
    clock = time.monotonic

    by_id = {spec.shard_id: spec for spec in shards}
    #: (ready_at, spec): launchable once the clock passes ready_at.
    pending: deque[tuple[float, ShardSpec]] = deque(
        (0.0, spec) for spec in shards
    )
    attempts = {spec.shard_id: 0 for spec in shards}
    running: dict[int, mp.Process] = {}
    last_seen: dict[int, float] = {}
    byes: set[tuple[int, int]] = set()
    results: dict[int, ShardResult] = {}
    stopped = False

    def emit(kind: str, shard_id: int, **info) -> None:
        if on_event is not None:
            on_event(kind, shard_id, info)

    def retry_or_fail(shard_id: int, error: str) -> None:
        if attempts[shard_id] <= max_retries:
            delay = backoff.delay_s(shard_id, attempts[shard_id])
            pending.append((clock() + delay, by_id[shard_id]))
            emit(
                "failed_attempt", shard_id,
                attempt=attempts[shard_id], error=error,
                backoff_s=delay,
            )
        else:
            results[shard_id] = ShardResult(
                shard_id, attempts=attempts[shard_id], error=error
            )
            emit(
                "failed_final", shard_id,
                attempt=attempts[shard_id], error=error,
            )

    def handle(event: tuple) -> None:
        kind, shard_id = event[0], event[1]
        if kind == "bye":
            byes.add((shard_id, event[2]))
            return
        last_seen[shard_id] = clock()
        if shard_id in results:
            return  # late event from a shard already settled
        if kind == "tick":
            if shard_id in running:
                emit("tick", shard_id, done=event[2])
        elif kind == "finished":
            _kind, _sid, payload, result = event
            proc = running.pop(shard_id, None)
            if proc is not None:
                proc.join()
            if isinstance(payload, dict):
                # Streaming result: open and validate the worker's
                # spill; damage retries the shard like any worker
                # failure instead of sinking the pool.
                try:
                    result.spill = ShardSpill(spill_dir, payload)
                except SpillError as exc:
                    retry_or_fail(shard_id, f"bad spill: {exc}")
                    return
            else:
                result.dataset = StudyDataset.from_csv_string(payload)
            results[shard_id] = result
            emit("finished", shard_id, attempt=result.attempts, result=result)
        elif kind == "failed":
            _kind, _sid, attempt, error = event
            proc = running.pop(shard_id, None)
            if proc is not None:
                proc.join()
            retry_or_fail(shard_id, error)

    def reap_dead() -> None:
        dead = [sid for sid, proc in running.items() if not proc.is_alive()]
        if not dead:
            return
        # A dead process may have flushed its result into the queue's
        # feeder buffer just before exiting: ``is_alive() == False``
        # does NOT mean its events are visible yet.  Drain until each
        # cleanly-exited shard's sentinel arrives (its events are then
        # complete) or the grace period expires — a zero-timeout poll
        # here would misread a clean finish as a crash and re-simulate
        # it.  Crashed workers (nonzero exitcode) skip the sentinel by
        # construction, so only one drain pass is owed to them.
        deadline = clock() + SENTINEL_GRACE_S
        while True:
            for event in _drain(queue, timeout=0.02):
                handle(event)
            dead = [
                sid for sid in dead
                if sid in running and not running[sid].is_alive()
            ]
            unsettled = [
                sid for sid in dead
                if running[sid].exitcode == 0
                and (sid, attempts[sid]) not in byes
            ]
            if not unsettled or clock() >= deadline:
                break
        for shard_id in dead:
            proc = running.pop(shard_id, None)
            if proc is None:
                continue  # the drain settled it
            proc.join()
            retry_or_fail(
                shard_id,
                f"worker died (exit code {proc.exitcode})",
            )

    def kill_hung() -> None:
        now = clock()
        hung = [
            sid for sid, proc in running.items()
            if proc.is_alive()
            and now - last_seen.get(sid, now) > watchdog_deadline_s
        ]
        for shard_id in hung:
            proc = running.pop(shard_id)
            proc.terminate()
            proc.join()
            stalled = now - last_seen.get(shard_id, now)
            retry_or_fail(
                shard_id,
                f"watchdog: no heartbeat for {stalled:.1f}s "
                f"(deadline {watchdog_deadline_s:.1f}s); worker killed",
            )

    try:
        while pending or running:
            if should_stop is not None and should_stop():
                stopped = True
                break
            launchable = len(running) < workers and any(
                ready_at <= clock() for ready_at, _spec in pending
            )
            while launchable:
                for index, (ready_at, spec) in enumerate(pending):
                    if ready_at <= clock():
                        del pending[index]
                        break
                else:
                    break
                attempts[spec.shard_id] += 1
                proc = ctx.Process(
                    target=_shard_worker,
                    args=(
                        config,
                        spec,
                        attempts[spec.shard_id],
                        plan,
                        queue,
                        spill_dir,
                        pressure,
                    ),
                    daemon=True,
                )
                proc.start()
                running[spec.shard_id] = proc
                last_seen[spec.shard_id] = clock()
                emit(
                    "started", spec.shard_id,
                    attempt=attempts[spec.shard_id], plays=spec.plays,
                )
                launchable = len(running) < workers and any(
                    ready_at <= clock() for ready_at, _spec in pending
                )
            for event in _drain(queue, timeout=poll_interval_s):
                handle(event)
            reap_dead()
            kill_hung()
    finally:
        if stopped:
            # Graceful stop: pick up results that were already reported
            # (they will be journaled by on_event) before terminating
            # what's still in flight.
            deadline = clock() + SENTINEL_GRACE_S
            while running and clock() < deadline:
                for event in _drain(queue, timeout=0.05):
                    handle(event)
                if all(proc.is_alive() for proc in running.values()):
                    break
        for proc in running.values():
            proc.terminate()
        for proc in running.values():
            proc.join()
        queue.close()
    return results
