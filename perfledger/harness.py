"""Shared machinery of the perf ledger: checkout layout, scratch space,
process-tree cost accounting, spans, and profile attribution.

Everything here observes the program from outside: clocks around calls
into public functions, ``os.times``/``getrusage``//proc for the process
tree, and a ``cProfile`` pass bucketed by ``repro.<package>``.
"""

from __future__ import annotations

import atexit
import contextlib
import cProfile
import gc
import hashlib
import itertools
import json
import math
import os
import platform
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Span dumps and result files land here (git-ignored).
OUT_DIR = BENCH_DIR / "out"

#: The layers of ISSUE 11, in attribution-table order.  The first
#: fifteen carry per-layer metrics; the rest appear in the table only.
LAYERS = (
    "sim", "net", "transport", "media", "server", "player", "abr", "core",
    "runtime", "analysis", "experiments", "sweep", "serve", "world",
    "validate", "quality", "pressure", "chaos", "rng", "units",
)
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def load_spec() -> dict:
    """``BENCHMARK.json``: the one list of metric names and units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def require_program() -> None:
    """Exit with status 2 (and no result line) when the program's source
    is absent — the benchmark cannot measure a checkout that holds
    nothing but itself."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfledger: no program to measure: {SRC / 'repro'} is missing",
            file=sys.stderr,
        )
        raise SystemExit(2)


def prepare_checkout() -> Path:
    """Make ``repro`` importable here and in child processes, and
    confine every temp file to a scratch directory inside the checkout,
    which is returned (and removed at exit)."""
    require_program()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = (
        f"{SRC}{os.pathsep}{inherited}" if inherited else str(SRC)
    )
    work_root = BENCH_DIR / ".work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{os.getpid()}-", dir=work_root))
    # run_study(aggregation="sketch") and the pool spill to the default
    # temp dir; keep that inside the checkout too.
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    atexit.register(shutil.rmtree, work, True)
    return work


@dataclass
class Batch:
    """What one timed batch of a workload delivered."""

    #: ``ClipRecord``s delivered to the caller (rows of the CSVs).
    plays: int
    #: Operations attempted: plays scheduled, records pushed, requests.
    attempted: int
    #: Attempted operations that went missing or answered with an error.
    failed: int
    csv_bytes: int
    csv_sha256: str


class Workload:
    """What the runner needs from a workload.  ``setup`` must be
    repeatable after ``discard_setup``; ``batch`` is one unit of timed
    work; ``verify`` is the correctness gate, run off the clock."""

    name = ""
    #: Set-ups per run; ``setup_s`` is their median.
    setup_repeats = 5

    def __init__(self, seed: int, work: Path, tracer: "Tracer") -> None:
        self.seed = seed
        self.work = work
        self.tracer = tracer

    def setup(self) -> None:
        raise NotImplementedError

    def discard_setup(self) -> None:
        pass

    def batch(self, index: int) -> Batch:
        raise NotImplementedError

    def live_pids(self) -> tuple[int, ...]:
        """Children still running whose CPU belongs to the workload."""
        return ()

    def timed(self, seconds: float) -> tuple[list[Batch], float, float]:
        """Whole batches until the budget is spent: (batches, timed
        seconds, CPU seconds of the process tree).  The clock stops
        between batches, where garbage is collected so that one batch's
        leftovers do not decide the next one's peak memory."""
        batches: list[Batch] = []
        elapsed = cpu = 0.0
        while True:
            gc.collect()
            cpu_before = tree_cpu_s(self.live_pids())
            started = time.perf_counter()
            batches.append(self.batch(len(batches)))
            elapsed += time.perf_counter() - started
            cpu += tree_cpu_s(self.live_pids()) - cpu_before
            # Stop where the total lands closest to the budget.
            if elapsed + 0.5 * elapsed / len(batches) >= seconds:
                return batches, elapsed, cpu

    def verify(self) -> list[str]:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def extra_info(self) -> dict:
        return {}

    def traced(self, quick: bool) -> tuple[dict, dict]:
        """The traced slice: (per-layer metrics, info)."""
        raise NotImplementedError


# -- small statistics ------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of a non-empty sample."""
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered) - 1e-9)
    return ordered[max(1, rank) - 1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) the way the acceptance check computes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def derive(seed: int, *keys: int) -> int:
    """A 31-bit seed for one generator of the benchmark, a pure
    function of ``--seed`` and the generator's keys."""
    state = np.random.SeedSequence([seed, *keys]).generate_state(1)
    return int(state[0]) & 0x7FFFFFFF


def sha256_hex(chunks) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk if isinstance(chunk, bytes) else chunk.encode())
    return digest.hexdigest()


# -- process-tree cost -----------------------------------------------------


def _proc_cpu_s(pid: int) -> float:
    """user+system CPU of a live process and the children it reaped."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return 0.0
    # Fields after the parenthesised command name; utime is field 14.
    fields = stat.rsplit(")", 1)[1].split()
    return sum(int(fields[i]) for i in (11, 12, 13, 14)) / _CLOCK_TICKS


def tree_cpu_s(live_pids: tuple[int, ...] = ()) -> float:
    """CPU seconds so far of this process, every child it has waited
    for, and the named still-running children (a server subprocess)."""
    times = os.times()
    own = times.user + times.system
    reaped = times.children_user + times.children_system
    return own + reaped + sum(_proc_cpu_s(pid) for pid in live_pids)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for
    descendant, in MB.  Call after every child has been reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


# -- spans -----------------------------------------------------------------


class Tracer:
    """In-memory spans: name, start, end, parent, and a shared trace id.

    Disabled (the timed runs) ``span`` is a no-op context manager.
    Spans nest per thread; a thread's root span names its parent
    explicitly.  ``dump`` writes JSONL with each span's self time
    (duration minus the part its children cover).
    """

    def __init__(self, enabled: bool, trace_id: str = "") -> None:
        self.enabled = enabled
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def span(self, name: str, parent: int | None = None, **attrs):
        if not self.enabled:
            yield None
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if parent is None and stack:
            parent = stack[-1]
        span_id = next(self._ids)
        record = {
            "id": span_id, "trace": self.trace_id, "parent": parent,
            "name": name, "start": time.perf_counter(), **attrs,
        }
        stack.append(span_id)
        try:
            yield span_id
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    @contextlib.contextmanager
    def timed(self, name: str, into: dict, key: str):
        """A span whose duration is also stored in ``into[key]`` (the
        timed runs need the number even though they keep no spans)."""
        with self.span(name):
            started = time.perf_counter()
            try:
                yield
            finally:
                into[key] = time.perf_counter() - started

    def record(
        self, name: str, start: float, end: float, parent: int | None,
        **attrs,
    ) -> int | None:
        """Add a span whose bounds were observed rather than entered
        (a play seen through ``on_record`` callbacks)."""
        if not self.enabled:
            return None
        span_id = next(self._ids)
        with self._lock:
            self.spans.append({
                "id": span_id, "trace": self.trace_id, "parent": parent,
                "name": name, "start": start, "end": end, **attrs,
            })
        return span_id

    def finished(self) -> list[dict]:
        """All spans with ``duration`` and ``self`` seconds filled in."""
        covered: dict[int, float] = {}
        for span in self.spans:
            span["duration"] = span["end"] - span["start"]
            if span["parent"] is not None:
                covered[span["parent"]] = (
                    covered.get(span["parent"], 0.0) + span["duration"]
                )
        for span in self.spans:
            # Children on other threads may overlap each other, so their
            # summed durations can exceed the parent: clamp at zero.
            span["self"] = max(
                0.0, span["duration"] - covered.get(span["id"], 0.0)
            )
        return sorted(self.spans, key=lambda s: s["start"])

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span in self.finished():
                handle.write(json.dumps(span) + "\n")


# -- profile attribution ---------------------------------------------------


def bucket_of(filename: str, function: str) -> str:
    """The layer (or foreign bucket) one profiled function belongs to."""
    if filename == "~":
        return "numpy" if "numpy" in function else "builtins"
    path = Path(filename)
    try:
        relative = path.relative_to(SRC / "repro")
    except ValueError:
        if BENCH_DIR in path.parents:
            return "bench"
        return "numpy" if "numpy" in path.parts else "stdlib"
    return relative.parts[0].removesuffix(".py")


def profiled(fn):
    """Run ``fn()`` under cProfile; returns (result, wall_s, buckets,
    calls) where ``buckets[b] = {"self_s", "calls"}`` sums every
    function's ``tottime``/``ncalls`` into its bucket and ``calls`` maps
    ``"<bucket>:<function>"`` to exact call counts for repro code."""
    profile = cProfile.Profile()
    started = time.perf_counter()
    result = profile.runcall(fn)
    wall = time.perf_counter() - started
    buckets: dict[str, dict] = {}
    calls: dict[str, int] = {}
    for (filename, _line, function), row in pstats.Stats(profile).stats.items():
        _primitive, ncalls, tottime, _cumulative, _callers = row
        bucket = bucket_of(filename, function)
        entry = buckets.setdefault(bucket, {"self_s": 0.0, "calls": 0})
        entry["self_s"] += tottime
        entry["calls"] += ncalls
        if bucket in LAYERS:
            key = f"{bucket}:{Path(filename).stem}.{function}"
            calls[key] = calls.get(key, 0) + ncalls
    return result, wall, buckets, calls


# -- fingerprint -----------------------------------------------------------


def src_lines() -> dict[str, int]:
    """Source lines per ``repro`` package (ROADMAP: the trend that the
    one-mechanism-per-job items are judged by)."""
    lines: dict[str, int] = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        relative = path.relative_to(SRC / "repro")
        bucket = relative.parts[0].removesuffix(".py")
        with open(path, encoding="utf-8") as handle:
            lines[bucket] = lines.get(bucket, 0) + sum(1 for _ in handle)
    lines["total"] = sum(lines.values())
    return lines


def fingerprint() -> dict:
    """Where the numbers were taken: enough to refuse a cross-machine
    comparison and to find the commit again."""
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": sha,
        "src_lines": src_lines(),
    }
