"""The asyncio HTTP front end: routing, SSE streaming, shutdown.

One :class:`ReproService` owns a :class:`~repro.serve.jobs.JobManager`
and serves the API over ``asyncio.start_server`` — no web framework,
one request per connection (see `repro.serve.protocol`).  Endpoints::

    GET  /healthz                  liveness + draining flag
    GET  /v1/stats                 queue/cache/worker counters
    GET  /v1/jobs                  all jobs (summary list)
    POST /v1/studies               submit a study config (JSON)
    POST /v1/sweeps                submit a sweep spec (JSON)
    GET  /v1/jobs/{id}             point-in-time status document
    GET  /v1/jobs/{id}/events      live SSE stream (replays history)
    GET  /v1/jobs/{id}/study.csv   completed study's dataset
    GET  /v1/jobs/{id}/manifest    run/cache manifest (study or sweep)
    GET  /v1/jobs/{id}/report      sweep sensitivity report (json|text)
    GET  /v1/jobs/{id}/figures     figure headlines (sketch-mode studies)

Status mapping: created submissions answer 201 and duplicate
submissions attach with 200 (same body either way — the job document);
malformed specs 400, unknown jobs 404, a saturated queue 429, and a
draining server 503.

Chaos hooks: a `repro.chaos` :class:`~repro.chaos.plan.FaultPlan` with
``serve.request`` faults compiles into :class:`ServeFaults` — ``drop``
closes the connection before any response bytes (the client retries;
dedup attaches the retry to the same job), ``stall`` sleeps
asynchronously before handling (a slow-loris stand-in that must not
block other clients).
"""

from __future__ import annotations

import asyncio
from pathlib import Path

from repro.chaos.plan import FaultPlan
from repro.errors import ServeError, StudyError
from repro.serve.jobs import Job, JobManager
from repro.serve.protocol import (
    ProtocolError,
    Request,
    error_response,
    json_response,
    read_request,
    response_bytes,
    sse_comment,
    sse_event,
    sse_headers,
)
from repro.serve.scheduler import QueueFull

#: Seconds of SSE silence before a keepalive comment frame.
KEEPALIVE_S = 15.0


class ServeFaults:
    """``serve.request`` faults from a chaos plan, with budgets.

    Each fault fires for its first ``times`` accepted requests, in
    plan order; one request consumes at most one fault.
    """

    def __init__(self, plan: FaultPlan | None = None) -> None:
        faults = plan.for_site("serve.request") if plan is not None else ()
        self._budgets = [[fault, fault.times] for fault in faults]
        self.fired: list[str] = []

    def next_fault(self):
        """Consume and return the next armed fault, or None."""
        for budget in self._budgets:
            if budget[1] > 0:
                budget[1] -= 1
                self.fired.append(budget[0].label)
                return budget[0]
        return None


class ReproService:
    """Routes HTTP requests onto one :class:`JobManager`."""

    def __init__(
        self,
        manager: JobManager,
        faults: ServeFaults | None = None,
    ) -> None:
        self.manager = manager
        self.faults = faults if faults is not None else ServeFaults()

    # -- connection handling ------------------------------------------------

    async def handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """``asyncio.start_server`` callback: one request, one reply."""
        try:
            fault = self.faults.next_fault()
            if fault is not None and fault.action == "drop":
                return  # finally closes the socket: connection reset
            if fault is not None and fault.action == "stall":
                await asyncio.sleep(fault.pause_s)
            try:
                request = await read_request(reader)
            except ProtocolError as exc:
                writer.write(error_response(400, str(exc)))
                await writer.drain()
                return
            if request is None:
                return
            await self.respond(request, writer)
        except (ConnectionError, asyncio.CancelledError):
            pass  # client went away / server shutting down mid-stream
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def respond(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> None:
        try:
            response = await self.route(request, writer)
        except ProtocolError as exc:
            response = error_response(400, str(exc))
        except QueueFull as exc:
            # Every 429 carries Retry-After: saturation and disk
            # pressure are both transient, and well-behaved clients
            # back off instead of hammering.
            response = error_response(
                429,
                str(exc),
                extra_headers=(
                    ("Retry-After", str(max(0, int(exc.retry_after_s)))),
                ),
            )
        except ServeError as exc:
            status = 503 if self.manager.draining else 409
            response = error_response(status, str(exc))
        except StudyError as exc:  # malformed config/spec
            response = error_response(400, str(exc))
        except KeyError as exc:
            response = error_response(404, f"no such job {exc.args[0]!r}")
        except OSError as exc:
            # A handler's own file read failed (a cache entry collected
            # between the job settling and the download).  Anything
            # else is a bug: it propagates to asyncio's connection
            # handler, which logs the traceback and drops this one
            # connection — `handle` closes the socket either way.
            response = error_response(
                500, f"{type(exc).__name__}: {exc}"
            )
        if response is not None:
            writer.write(response)
            await writer.drain()

    # -- routing ------------------------------------------------------------

    async def route(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> bytes | None:
        """The response bytes, or None if already streamed (SSE)."""
        method, path = request.method, request.path
        if path == "/healthz" and method == "GET":
            return json_response(200, {
                "ok": True, "draining": self.manager.draining,
            })
        if path == "/v1/stats" and method == "GET":
            return json_response(200, self.manager.stats())
        if path == "/v1/jobs" and method == "GET":
            return self.list_jobs()
        if path == "/v1/studies":
            if method != "POST":
                return error_response(405, "POST a study config here")
            return self.submit(request, kind="study")
        if path == "/v1/sweeps":
            if method != "POST":
                return error_response(405, "POST a sweep spec here")
            return self.submit(request, kind="sweep")
        parts = [p for p in path.split("/") if p]
        if len(parts) >= 2 and parts[0] == "v1" and parts[1] == "jobs":
            if method != "GET":
                return error_response(405, "job resources are read-only")
            job = self.manager.job(parts[2]) if len(parts) > 2 else None
            if job is None:
                return error_response(404, "job id missing from path")
            if len(parts) == 3:
                return json_response(200, job.status())
            if len(parts) == 4:
                tail = parts[3]
                if tail == "events":
                    await self.stream_events(request, job, writer)
                    return None
                if tail == "study.csv":
                    return self.study_csv(job)
                if tail == "manifest":
                    return self.job_manifest(job)
                if tail == "report":
                    return self.sweep_report(request, job)
                if tail == "figures":
                    return self.study_figures(job)
        return error_response(404, f"no route for {method} {path}")

    # -- handlers -----------------------------------------------------------

    def list_jobs(self) -> bytes:
        jobs = sorted(
            self.manager.jobs.values(), key=lambda job: job.created_s
        )
        return json_response(200, {
            "jobs": [
                {
                    "job_id": job.job_id,
                    "kind": job.kind,
                    "state": job.state,
                    "links": job.links(),
                }
                for job in jobs
            ],
        })

    def submit(self, request: Request, kind: str) -> bytes:
        payload = request.json()
        # Accept both a bare config/spec and a {"study": ...} /
        # {"sweep": ...} envelope.
        body = payload.get(kind, payload)
        if not isinstance(body, dict):
            raise ProtocolError(f"{kind!r} must be a JSON object")
        client_id = request.client_id
        if kind == "study":
            job, created = self.manager.submit_study(body, client_id)
        else:
            job, created = self.manager.submit_sweep(body, client_id)
        return json_response(
            201 if created else 200,
            {**job.status(), "created": created},
            extra_headers=(("Location", job.links()["status"]),),
        )

    async def stream_events(
        self, request: Request, job: Job, writer: asyncio.StreamWriter
    ) -> None:
        """The SSE stream: replayed history, then live until settle."""
        last_id = 0
        raw = (
            request.headers.get("last-event-id")
            or request.query.get("last_event_id")
        )
        if raw:
            try:
                last_id = int(raw)
            except ValueError:
                raise ProtocolError(
                    f"Last-Event-ID must be an integer, got {raw!r}"
                ) from None
        writer.write(sse_headers())
        await writer.drain()

        # Pump the broker subscription through a queue so keepalive
        # timeouts never cancel the generator mid-iteration.
        feed: asyncio.Queue = asyncio.Queue()

        async def pump() -> None:
            async for entry in job.broker.subscribe(last_id):
                await feed.put(entry)
            await feed.put(None)

        task = asyncio.ensure_future(pump())
        try:
            while True:
                try:
                    entry = await asyncio.wait_for(
                        feed.get(), timeout=KEEPALIVE_S
                    )
                except asyncio.TimeoutError:
                    writer.write(sse_comment())
                    await writer.drain()
                    continue
                if entry is None:
                    return
                event_id, event, data = entry
                writer.write(sse_event(event, data, event_id))
                await writer.drain()
        finally:
            task.cancel()

    def study_csv(self, job: Job) -> bytes:
        path = self.manager.study_csv_path(job)
        return response_bytes(
            200,
            path.read_bytes(),
            content_type="text/csv; charset=utf-8",
        )

    def job_manifest(self, job: Job) -> bytes:
        if job.kind == "study":
            assert job.simulation is not None
            manifest = job.simulation.manifest
        else:
            manifest = job.sweep_manifest
        if manifest is None:
            raise ServeError(
                f"job {job.job_id} has no manifest yet (state {job.state})"
            )
        return json_response(200, manifest)

    def study_figures(self, job: Job) -> bytes:
        if job.kind != "study" or job.simulation is None:
            raise ServeError(f"job {job.job_id} is not a study")
        figures = job.simulation.figures
        if figures is None:
            raise ServeError(
                f"job {job.job_id} has no figures (state {job.state}; "
                "only aggregation='sketch' studies render them)"
            )
        return json_response(200, {
            "job_id": job.job_id,
            "config_hash": job.simulation.config_hash,
            "figures": figures,
        })

    def sweep_report(self, request: Request, job: Job) -> bytes:
        if job.kind != "sweep":
            raise ServeError(f"job {job.job_id} is not a sweep")
        if job.report is None:
            raise ServeError(
                f"job {job.job_id} has no report yet (state {job.state})"
            )
        if request.query.get("format") == "text":
            assert job.report_text is not None
            return response_bytes(
                200,
                (job.report_text + "\n").encode("utf-8"),
                content_type="text/plain; charset=utf-8",
            )
        return json_response(200, job.report)


async def serve_forever(
    host: str,
    port: int,
    cache_dir: str | Path,
    workers: int = 2,
    shard_workers: int = 1,
    queue_capacity: int = 64,
    max_disk_bytes: int | None = None,
    max_cache_bytes: int | None = None,
    fault_plan: FaultPlan | None = None,
    ready: "asyncio.Event | None" = None,
    stop: "asyncio.Event | None" = None,
    on_bound=None,
    announce=print,
) -> None:
    """Run the service until SIGTERM/SIGINT, then drain gracefully.

    SIGTERM/SIGINT (or the injectable ``stop`` event — the test seam):
    stop accepting connections, cancel queued simulations, let
    in-flight runs drain to honest checkpoints (through
    ``RuntimeConfig.should_stop``), close every SSE stream, and exit 0.
    A second signal is left to the default handler.  ``on_bound``
    receives the actual ``(host, port)`` once listening — how callers
    using ``port=0`` learn the chosen port.
    """
    manager = JobManager(
        cache_dir,
        workers=workers,
        shard_workers=shard_workers,
        queue_capacity=queue_capacity,
        max_disk_bytes=max_disk_bytes,
        max_cache_bytes=max_cache_bytes,
    )
    service = ReproService(manager, ServeFaults(fault_plan))
    # The simulation processes come first: before the listener, the
    # signal handlers and the executor exist there is no thread whose
    # lock a fork could strand and no wakeup fd a child could write to.
    manager.start_workers()
    try:
        server = await asyncio.start_server(service.handle, host, port)
        manager.start()
    except BaseException:
        manager.close_workers()
        raise
    if stop is None:
        stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    import signal as _signal

    installed = []
    for signum in (_signal.SIGINT, _signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
            installed.append(signum)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # non-main thread (tests) or exotic loop: signals stay off
    try:
        bound = server.sockets[0].getsockname()
        if on_bound is not None:
            on_bound(bound[0], bound[1])
        announce(
            f"repro serve: listening on http://{bound[0]}:{bound[1]} "
            f"({workers} workers, cache {cache_dir})"
        )
        if ready is not None:
            ready.set()
        await stop.wait()
        announce("repro serve: draining (signal received)")
        # Keep answering while the drain runs: accepted jobs stay
        # observable (status/SSE) and new submissions get an honest
        # 503; only once every job settles does the listener close.
        manager.begin_shutdown()
        await manager.wait_closed()
        server.close()
        await server.wait_closed()
        announce("repro serve: drained, exiting")
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)
        server.close()
        manager.close_workers()
