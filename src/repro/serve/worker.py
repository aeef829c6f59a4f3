"""Simulation worker processes: where ``repro serve`` runs its plays.

Each service slot owns one long-lived :class:`SimWorker` — a process
and a duplex pipe — started during boot, before the listen address is
announced.  The slot's thread hands it a simulation and relays what
comes back; the server process itself never executes a play, so HTTP
replies do not queue behind simulations for the interpreter.

What crosses the pipe is small and picklable.  In: ``(config,
checkpoint_dir, ledger)`` to run, ``"stop"`` (the drain request,
latched, polled at the play boundary through
``RuntimeConfig.should_stop``), ``None`` to exit.  Out: ``("ready",
pid)`` once, then per run throttled ``("telemetry",
RunTelemetry.snapshot())`` frames, ``("ledger", delta)`` whenever the
run's disk-ledger replica moved, and one ``("done", payload)`` or
``("failed", "Type: message")``.  The checkpoint journal, written by
the worker, is the durable interface: a worker that dies leaves it
behind and the next run of the same study resumes from it.

A worker ignores SIGINT/SIGTERM (a terminal's Ctrl-C reaches the whole
process group, and the drain belongs to the server) and exits on its
own once its server is gone.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import threading
import time
from multiprocessing.connection import wait
from pathlib import Path
from typing import Callable

from repro.core.study import StudyConfig
from repro.pressure import DiskBudget, PressureConfig
from repro.runtime import RunTelemetry, RuntimeConfig, run_study
from repro.world.calibration import PLAYLIST_LENGTH
from repro.world.servers import build_playlist_clips

#: Seconds between telemetry SSE snapshots per running simulation.
TELEMETRY_INTERVAL_S = 0.25

#: How often an idle worker checks that its server is still there.
ORPHAN_POLL_S = 1.0

#: How long a worker told to exit may take before it is killed.
EXIT_GRACE_S = 10.0


class WorkerDied(Exception):
    """A simulation worker exited without finishing its run."""


class SimulationFailed(Exception):
    """The run raised inside its worker; the message is the worker's
    ``Type: message`` rendering of what it raised."""


def start_workers(count: int, shard_workers: int) -> list["SimWorker"]:
    """Boot ``count`` simulation processes and wait until each is ready.

    Forked where the platform can — call this before the server grows
    threads, and the children inherit the imported simulator and the
    default clip catalogue, built here once — spawned otherwise, in
    which case they import in parallel.
    """
    build_playlist_clips(PLAYLIST_LENGTH)
    method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    ctx = mp.get_context(method)
    workers = [SimWorker(shard_workers) for _ in range(count)]
    try:
        for worker in workers:
            worker.launch(ctx)
        for worker in workers:
            worker.wait_ready()
    except BaseException:
        for worker in workers:
            worker.close()
        raise
    return workers


def render_figure_summary(result, config: StudyConfig) -> dict:
    """Render every paper figure from a streaming run's merged
    aggregates (no record list is ever materialized) and return the
    ``{figure_id: {"title", "headline"}}`` summary served at
    ``/v1/jobs/{id}/figures`` and stored in the cache manifest."""
    from repro.experiments.base import ExperimentContext, all_figures

    ctx = ExperimentContext(
        aggregates=result.aggregates,
        population=result.population,
        seed=config.seed,
        scale=config.scale,
    )
    summary = {}
    for figure in all_figures():
        fig_result = figure.run(ctx)
        summary[fig_result.figure_id] = {
            "title": fig_result.title,
            "headline": fig_result.headline,
        }
    return summary


class _LedgerReplica:
    """The worker's copy of the service's disk ledger.

    A `DiskBudget` cannot be shared across the process boundary, so a
    run enforces against a replica seeded with the service's occupancy
    at dispatch, and what the run itself charges travels back as
    deltas — shipped from the progress callback, which the engine
    calls right after each journal write, so the service ledger learns
    of bytes no later than the event that made them durable."""

    def __init__(self, state: dict) -> None:
        self.budget = DiskBudget(state["max_bytes"])
        for category, nbytes in state["by_category"].items():
            self.budget.seed(category, nbytes)
        self._seen = self.budget.snapshot()

    def delta(self) -> dict | None:
        """Charges, refusals and events since the last call."""
        now, seen = self.budget.snapshot(), self._seen
        self._seen = now
        charged = {
            category: nbytes - seen["by_category"][category]
            for category, nbytes in now["by_category"].items()
            if nbytes != seen["by_category"][category]
        }
        refused = now["refused"] - seen["refused"]
        events = now["events"][len(seen["events"]):]
        if not (charged or refused or events):
            return None
        return {"charged": charged, "refused": refused, "events": events}


def _simulate(
    conn, drain_requested, shard_workers: int,
    config: StudyConfig, checkpoint_dir: str, ledger: dict | None,
) -> dict:
    """One checkpointed, resumable run; telemetry and ledger deltas go
    up the pipe as it progresses, the payload of ``done`` comes back."""
    replica = _LedgerReplica(ledger) if ledger is not None else None
    last = [0.0]

    def ship_ledger() -> None:
        delta = replica.delta() if replica is not None else None
        if delta is not None:
            conn.send(("ledger", delta))

    def progress(telemetry: RunTelemetry) -> None:
        ship_ledger()
        now = time.monotonic()
        if not telemetry.finished and now - last[0] < TELEMETRY_INTERVAL_S:
            return
        last[0] = now
        conn.send(("telemetry", telemetry.snapshot()))

    budget = replica.budget if replica is not None else None
    result = run_study(
        config,
        RuntimeConfig(
            workers=shard_workers,
            checkpoint_dir=checkpoint_dir,
            resume=(Path(checkpoint_dir) / "manifest.json").exists(),
            progress=progress,
            should_stop=drain_requested,
            # The replica of the service-wide ledger: this run's
            # checkpoint and spill writes charge the same budget as
            # cache stores, and a hard watermark drains the run
            # honestly.
            budget=budget,
            pressure=(
                PressureConfig(max_disk_bytes=budget.max_bytes)
                if budget is not None
                else None
            ),
        ),
    )
    payload = {
        "records": len(result.dataset),
        "plays_per_second": result.telemetry.plays_per_second(),
        "manifest": result.manifest,
        "quarantined_fraction": result.quarantined_fraction,
        "shard_count": result.plan.shard_count,
    }
    if result.complete:
        if result.aggregates is not None:
            # Streaming run: the records stay in the journal's spill
            # files; the server streams them into the cache entry.
            payload["figures"] = render_figure_summary(result, config)
            payload["spill"] = {
                "shards": [
                    (str(spill.directory), spill.index)
                    for spill in result.dataset.spills
                ],
                "user_order": result.plan.user_order,
            }
        else:
            payload["csv"] = result.dataset.to_csv_string()
    ship_ledger()  # the run manifest was written after the last event
    return payload


def worker_main(conn, server_pid: int, shard_workers: int) -> None:
    """Entry point of one simulation worker process: a module-level
    function of picklable arguments, so it runs under ``spawn`` too."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    # A forked worker inherits the catalogue the server built (a memo
    # hit); a spawned one builds its own here, during boot, not on the
    # first job.
    build_playlist_clips(PLAYLIST_LENGTH)
    draining = False

    def orphaned() -> bool:
        return os.getppid() != server_pid

    def drain_requested() -> bool:
        nonlocal draining
        if not draining and (conn.poll() or orphaned()):
            # Mid-run the server sends nothing but "stop"; EOF or a new
            # parent pid means there is no server left to run for.
            draining = True
        return draining

    try:
        conn.send(("ready", os.getpid()))
        while True:
            if not conn.poll(ORPHAN_POLL_S):
                if orphaned():
                    return
                continue
            request = conn.recv()
            if request is None:
                return
            if request == "stop":
                # Latched, not an exit: a run dispatched in the same
                # instant still arrives, and settles `interrupted`.
                draining = True
                continue
            try:
                reply = ("done", _simulate(
                    conn, drain_requested, shard_workers, *request
                ))
            except Exception as exc:
                # Broad on purpose: this is the process boundary.
                # Whatever the simulation raised is shipped as the
                # job's `failed` outcome and the worker lives on, so
                # nothing is swallowed; a vanished server (OSError on
                # the send below) and KeyboardInterrupt/SystemExit
                # still end the process.
                reply = ("failed", f"{type(exc).__name__}: {exc}")
            if orphaned():
                return
            conn.send(reply)
    except (EOFError, OSError):
        return  # the server closed the pipe or is gone


class SimWorker:
    """The server-side handle of one slot's simulation process."""

    def __init__(self, shard_workers: int) -> None:
        self.shard_workers = shard_workers
        self.process = None
        self._conn = None
        #: Serializes sends: the slot's thread dispatches runs, the
        #: event loop's thread sends the drain request.
        self._send_lock = threading.Lock()

    def launch(self, ctx) -> None:
        """Start the process (returns before it is ready)."""
        ours, theirs = ctx.Pipe()
        self.process = ctx.Process(
            target=worker_main,
            args=(theirs, os.getpid(), self.shard_workers),
            name="repro-serve-sim",
        )
        self.process.start()
        theirs.close()
        with self._send_lock:
            self._conn = ours

    def wait_ready(self) -> None:
        """Block until the worker has imported and warmed up."""
        self._recv()  # ("ready", pid), or WorkerDied

    def restart(self) -> None:
        """Replace a dead worker.  Always spawned: by now the server
        has threads, and a fork could inherit a lock one of them
        holds."""
        self._conn.close()
        self.launch(mp.get_context("spawn"))
        self.wait_ready()

    def _send(self, message) -> None:
        with self._send_lock:
            self._conn.send(message)

    def _recv(self):
        """The worker's next message; :class:`WorkerDied` if it exited
        (the sentinel, not only EOF: a shard child the dead worker
        forked may still hold the pipe's other end open)."""
        ready = wait([self._conn, self.process.sentinel])
        if self._conn in ready:
            try:
                return self._conn.recv()
            except (EOFError, OSError):
                pass
        self.process.join()
        code = self.process.exitcode
        how = (
            f"killed by {signal.Signals(-code).name}" if code < 0
            else f"exit code {code}"
        )
        raise WorkerDied(f"simulation worker died ({how})")

    def run(
        self, request: tuple, on_message: Callable[[str, dict], None]
    ) -> dict:
        """Run one simulation and return its ``done`` payload, passing
        ``telemetry``/``ledger`` messages to ``on_message`` as they
        arrive.  Raises :class:`SimulationFailed` for a ``failed``
        reply and :class:`WorkerDied` if the process goes away."""
        try:
            self._send(request)
        except OSError:
            pass  # died while idle: the receive below says how
        while True:
            kind, body = self._recv()
            if kind == "done":
                return body
            if kind == "failed":
                raise SimulationFailed(body)
            on_message(kind, body)

    def request_stop(self) -> None:
        """Forward the drain request (no-op for a dead worker: the
        slot's thread is about to find out)."""
        try:
            self._send("stop")
        except OSError:
            pass

    def close(self) -> None:
        """Tell the worker to exit and reap it."""
        if self.process is None:
            return
        try:
            self._send(None)
        except OSError:
            pass
        self.process.join(EXIT_GRACE_S)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()
        self._conn.close()
        self.process = None
