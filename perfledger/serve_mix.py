"""``serve_mix``: a real ``repro serve`` subprocess under a closed loop.

Two clients each wait for their reply before sending the next request
(POST ``/v1/studies`` -> read the SSE stream to ``done`` -> GET
``study.csv``).  One request in five is *fresh* — a never-seen seed,
simulated on the server's thread pool — and the rest *repeat* one of
the configs warmed in set-up, answered by the dedup/attach path.  It is
the only workload where `repro.serve` and `repro.sweep.cache` sit on
the blocking path, and because simulations hold the GIL a repeat that
lands beside a fresh job waits for it.
"""

from __future__ import annotations

import http.client
import json
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.study import StudyConfig
from repro.runtime import RuntimeConfig, run_study

from harness import (
    Batch,
    Tracer,
    Workload,
    derive,
    percentile,
    sha256_hex,
    tree_cpu_s,
)
from studies import PLAY_LIMIT_S

CLIENTS = 2
SERVER_WORKERS = 2
WARM_CONFIGS = 6
#: One request in every block of this many is fresh, at a seeded
#: position (a Bernoulli draw per request would let the fresh count —
#: which decides the run's cost — wander by a tenth between seeds).
FRESH_EVERY = 5
#: Requests per client in the traced run.
TRACE_REQUESTS = 60
#: Requests per client whose bytes make the cross-commit digest (the
#: timed loop always gets at least this far).
DIGEST_REQUESTS = 20
HEALTHZ_PROBES = 30
TIMEOUT_S = 120


@dataclass
class Reply:
    """One finished request, as its client saw it."""

    client: int
    #: Position in the client's request sequence.
    number: int
    fresh: bool
    started: float
    ended: float
    submit_s: float
    first_event_s: float
    csv_s: float
    rows: int
    csv: bytes
    errors: list[str] = field(default_factory=list)


def _sse_frames(stream, started: float) -> tuple[list[tuple[str, dict]], float]:
    """Read an SSE response to its end: (events, seconds from
    ``started`` to the first one)."""
    first = None
    events, fields = [], {}
    for raw in stream:
        line = raw.decode("utf-8").rstrip("\r\n")
        if line:
            if not line.startswith(":"):
                key, _, value = line.partition(":")
                fields[key.strip()] = value.strip()
            continue
        if "event" in fields:
            if first is None:
                first = time.perf_counter() - started
            events.append((fields["event"], json.loads(fields["data"])))
        fields = {}
    return events, first if first is not None else 0.0


class ServeMixWorkload(Workload):
    name = "serve_mix"
    #: Each set-up boots a server and simulates the warm configs.
    setup_repeats = 3

    def __init__(self, seed: int, work: Path, tracer: Tracer) -> None:
        super().__init__(seed, work, tracer)
        self._server: subprocess.Popen | None = None
        self._address: tuple[str, int] | None = None
        self._boots = 0
        self._exit_codes: list[int] = []
        self.warm: list[dict] = []
        self.warm_csv: list[bytes] = []
        self.replies: list[Reply] = []
        self._queue_depth_max = 0
        #: The server's ``/v1/stats`` just before it was stopped.
        self._stats: dict = {}

    # -- inputs -------------------------------------------------------------

    def _config(self, seed: int, scale: float, users: int) -> dict:
        return {
            "seed": seed, "scale": scale, "max_users": users,
            "tracer": {"play_limit_s": PLAY_LIMIT_S},
        }

    def _warm_config(self, index: int) -> dict:
        return self._config(derive(self.seed, 3, index), 0.02, 4)

    def _request_plan(self, client: int, number: int) -> tuple[bool, dict]:
        """The ``number``-th request of ``client``: (fresh?, config)."""
        block = np.random.default_rng(
            derive(self.seed, 4, client, number // FRESH_EVERY)
        )
        if number % FRESH_EVERY == int(block.integers(FRESH_EVERY)):
            return True, self._config(
                derive(self.seed, 5, client, number), 0.01, 2
            )
        rng = np.random.default_rng(derive(self.seed, 6, client, number))
        return False, self.warm[int(rng.integers(len(self.warm)))]

    # -- HTTP ---------------------------------------------------------------

    def _http(self, method: str, path: str, body: dict | None = None,
              client: int = 0):
        """One request on a fresh connection (the server closes each)."""
        connection = http.client.HTTPConnection(
            *self._address, timeout=TIMEOUT_S
        )
        payload = json.dumps(body).encode() if body is not None else None
        connection.request(method, path, body=payload, headers={
            "content-type": "application/json",
            "x-client-id": f"bench-{client}",
        })
        return connection, connection.getresponse()

    def _get(self, path: str) -> bytes:
        connection, response = self._http("GET", path)
        try:
            data = response.read()
            if response.status != 200:
                raise RuntimeError(f"GET {path} -> {response.status}")
            return data
        finally:
            connection.close()

    def _round_trip(self, client: int, number: int, fresh: bool,
                    config: dict, parent: int | None = None) -> Reply:
        """submit -> events -> download, each a span when tracing."""
        tracer, errors = self.tracer, []
        started = time.perf_counter()
        with tracer.span("request", parent=parent, client=client, fresh=fresh):
            with tracer.span("submit"):
                t0 = time.perf_counter()
                connection, response = self._http(
                    "POST", "/v1/studies", config, client
                )
                document = json.loads(response.read() or b"{}")
                connection.close()
                submit_s = time.perf_counter() - t0
                if response.status not in (200, 201):
                    errors.append(f"POST -> {response.status}")
            job_id = document.get("job_id", "")
            with tracer.span("events"):
                t0 = time.perf_counter()
                connection, response = self._http(
                    "GET", f"/v1/jobs/{job_id}/events", client=client
                )
                events, first_event_s = _sse_frames(response, t0)
                connection.close()
            final = events[-1][1] if events else {}
            if not events or events[-1][0] != "done":
                errors.append(f"job {job_id}: stream ended without done")
            elif final.get("state") != "done":
                errors.append(f"job {job_id}: settled {final.get('state')}")
            with tracer.span("download"):
                t0 = time.perf_counter()
                connection, response = self._http(
                    "GET", f"/v1/jobs/{job_id}/study.csv", client=client
                )
                data = response.read()
                connection.close()
                csv_s = time.perf_counter() - t0
                if response.status != 200:
                    errors.append(f"study.csv -> {response.status}")
                    data = b""
        rows = max(0, data.count(b"\n") - 1)
        if not errors and rows != final.get("records"):
            errors.append(
                f"job {job_id}: {rows} CSV rows, manifest says "
                f"{final.get('records')}"
            )
        return Reply(
            client=client, number=number, fresh=fresh, started=started,
            ended=time.perf_counter(), submit_s=submit_s,
            first_event_s=first_event_s, csv_s=csv_s,
            rows=rows, csv=data, errors=errors,
        )

    # -- server lifetime ----------------------------------------------------

    def setup(self) -> None:
        """Boot the server and warm the repeat configs."""
        self._boots += 1
        cache = self.work / f"serve-cache-{self._boots}"
        self._server = subprocess.Popen(
            # -u: the listen announcement must not sit in a block buffer.
            [sys.executable, "-u", "-m", "repro.cli", "serve", "--port", "0",
             "--workers", str(SERVER_WORKERS), "--cache-dir", str(cache)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        # stderr is merged in, so a warning may come before the address.
        seen, match = [], None
        for line in self._server.stdout:
            seen.append(line)
            match = re.search(r"http://([\d.]+):(\d+)", line)
            if match:
                break
        if not match:
            raise RuntimeError(f"no listen announcement in {seen!r}")
        self._address = (match.group(1), int(match.group(2)))
        self.warm = [self._warm_config(i) for i in range(WARM_CONFIGS)]
        self.warm_csv = []
        for index, config in enumerate(self.warm):
            reply = self._round_trip(0, index, True, config)
            if reply.errors:
                raise RuntimeError(f"warm-up failed: {reply.errors}")
            self.warm_csv.append(reply.csv)

    def _stop_server(self) -> None:
        if self._server is None:
            return
        self._server.send_signal(signal.SIGTERM)
        try:
            self._exit_codes.append(self._server.wait(timeout=TIMEOUT_S))
        except subprocess.TimeoutExpired:
            self._server.kill()
            self._exit_codes.append(self._server.wait())
        self._server.stdout.close()
        self._server = None
        shutil.rmtree(
            self.work / f"serve-cache-{self._boots}", ignore_errors=True
        )

    discard_setup = teardown = _stop_server

    def live_pids(self) -> tuple[int, ...]:
        return (self._server.pid,) if self._server is not None else ()

    # -- the closed loop ----------------------------------------------------

    def _client(self, client: int, requests: int | None, deadline: float,
                parent: int | None, out: list) -> None:
        """One closed-loop client: the next request goes out when the
        last reply is in, until ``requests`` are done or ``deadline``."""
        try:
            number = 0
            while (
                number < requests if requests is not None
                else time.perf_counter() < deadline
            ):
                fresh, config = self._request_plan(client, number)
                out.append(
                    self._round_trip(client, number, fresh, config, parent)
                )
                number += 1
                if self.tracer.enabled and client == 0:
                    depth = json.loads(self._get("/v1/stats"))["queue_depth"]
                    self._queue_depth_max = max(self._queue_depth_max, depth)
        except Exception as exc:  # a dead client must fail the run, loudly
            out.append(exc)

    def _loop(self, requests: int | None = None, seconds: float = 0.0,
              parent: int | None = None) -> list[Reply]:
        outs = [[] for _ in range(CLIENTS)]
        deadline = time.perf_counter() + seconds
        threads = [
            threading.Thread(
                target=self._client,
                args=(c, requests, deadline, parent, outs[c]),
            )
            for c in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        replies = [r for out in outs for r in out]
        for reply in replies:
            if isinstance(reply, Exception):
                raise reply
        self.replies = sorted(replies, key=lambda r: (r.client, r.number))
        return self.replies

    def _digest(self) -> tuple[int, str]:
        """Bytes and sha256 of each client's first replies, in (client,
        sequence) order: thread interleaving cannot change it."""
        head = [r.csv for r in self.replies if r.number < DIGEST_REQUESTS]
        return sum(len(data) for data in head), sha256_hex(head)

    def timed(self, seconds: float) -> tuple[list[Batch], float, float]:
        """One continuous closed loop for the whole budget (stopping the
        clients at batch boundaries would idle the faster one)."""
        cpu_before = tree_cpu_s(self.live_pids())
        started = time.perf_counter()
        replies = self._loop(seconds=seconds)
        elapsed = time.perf_counter() - started
        cpu_s = tree_cpu_s(self.live_pids()) - cpu_before
        nbytes, digest = self._digest()
        return [Batch(
            plays=sum(r.rows for r in replies if not r.errors),
            attempted=len(replies),
            failed=sum(1 for r in replies if r.errors),
            csv_bytes=nbytes,
            csv_sha256=digest,
        )], elapsed, cpu_s

    # -- the gate -----------------------------------------------------------

    def verify(self) -> list[str]:
        errors = [e for reply in self.replies for e in reply.errors]
        by_config = {
            json.dumps(c, sort_keys=True): data
            for c, data in zip(self.warm, self.warm_csv)
        }
        for reply in self.replies:
            fresh, config = self._request_plan(reply.client, reply.number)
            if fresh != reply.fresh:
                errors.append("request plan is not reproducible")
            elif not fresh and (
                reply.csv != by_config[json.dumps(config, sort_keys=True)]
            ):
                errors.append("a repeat download differs from the first")
        direct = run_study(
            StudyConfig.from_dict(self.warm[0]), RuntimeConfig(workers=1)
        )
        if direct.dataset.to_csv_string().encode() != self.warm_csv[0]:
            errors.append("served CSV differs from a direct run_study")
        stats = json.loads(self._get("/v1/stats"))
        self._stats = stats
        self._stop_server()
        if any(code != 0 for code in self._exit_codes):
            errors.append(f"server exit codes on SIGTERM: {self._exit_codes}")
        return errors

    def _latencies(self, replies: list[Reply]) -> dict:
        """Percentiles with their sample counts (ms)."""
        fresh = [1000 * (r.ended - r.started) for r in replies if r.fresh]
        repeat = [1000 * (r.ended - r.started) for r in replies if not r.fresh]
        out = {"fresh_samples": len(fresh), "repeat_samples": len(repeat)}
        if fresh:
            out["fresh_ms_p50"] = percentile(fresh, 0.5)
            out["fresh_ms_p80"] = percentile(fresh, 0.8)
        if repeat:
            out["repeat_ms_p50"] = percentile(repeat, 0.5)
            out["repeat_ms_p90"] = percentile(repeat, 0.9)
        return out

    def extra_info(self) -> dict:
        return {
            **self._latencies(self.replies),
            "server_simulated": self._stats.get("simulated"),
            "server_cache": self._stats.get("cache"),
        }

    # -- traced run ---------------------------------------------------------

    def traced(self, quick: bool) -> tuple[dict, dict]:
        tracer = self.tracer
        requests = 8 if quick else TRACE_REQUESTS
        with tracer.span("workload", workload=self.name):
            with tracer.span("phase:setup"):
                self.setup()
            with tracer.span("phase:healthz"):
                probes = []
                for _ in range(HEALTHZ_PROBES):
                    t0 = time.perf_counter()
                    self._get("/healthz")
                    probes.append(1000 * (time.perf_counter() - t0))
            with tracer.span("phase:mix") as phase:
                cpu_before = tree_cpu_s(self.live_pids())
                t0 = time.perf_counter()
                replies = self._loop(requests=requests, parent=phase)
                mix_s = time.perf_counter() - t0
                cpu_s = tree_cpu_s(self.live_pids()) - cpu_before
            errors = self.verify()
        stats = self._stats

        def beside_fresh(reply: Reply) -> bool:
            return any(
                other.fresh and other.client != reply.client
                and other.started < reply.ended
                and reply.started < other.ended
                for other in replies
            )

        repeats = [r for r in replies if not r.fresh]
        idle = [1000 * (r.ended - r.started)
                for r in repeats if not beside_fresh(r)]
        busy = [1000 * (r.ended - r.started)
                for r in repeats if beside_fresh(r)]
        latency = self._latencies(replies)
        metrics = {
            "serve.healthz_ms_p50": percentile(probes, 0.5),
            "serve.submit_ms_p50": percentile(
                [1000 * r.submit_s for r in replies], 0.5),
            "serve.first_event_ms_p50": percentile(
                [1000 * r.first_event_s for r in replies], 0.5),
            "serve.csv_ms_p50": percentile(
                [1000 * r.csv_s for r in replies], 0.5),
            "serve.requests_per_s": len(replies) / mix_s,
            # Clients and server together, per delivered CSV row.
            "runtime.cpu_ms_per_play": (
                1000.0 * cpu_s / max(1, sum(r.rows for r in replies))
            ),
            "serve.http_errors": sum(1 for r in replies if r.errors),
            "serve.simulated": stats["simulated"],
            "serve.queue_depth_max": self._queue_depth_max,
            "sweep.cache_hits": stats["cache"]["hits"],
            "sweep.cache_stores": stats["cache"]["stores"],
        }
        for name in ("fresh_ms_p50", "fresh_ms_p80", "repeat_ms_p50",
                     "repeat_ms_p90"):
            if name in latency:
                metrics[f"serve.{name}"] = latency[name]
        if idle:
            metrics["serve.repeat_idle_ms_p50"] = percentile(idle, 0.5)
        if busy:
            metrics["serve.repeat_under_sim_ms_p50"] = percentile(busy, 0.5)
        nbytes, digest = self._digest()
        info = {
            "traced_plays": len(replies),
            **latency,
            "repeat_idle_samples": len(idle),
            "repeat_under_sim_samples": len(busy),
            "csv_bytes": nbytes,
            "csv_sha256": digest,
            "errors": errors,
        }
        return metrics, info
