"""The three simulated-study workloads: ``rdt_study``, ``abr_bbr_study``
and ``scale_w2``.

Each timed batch is one whole study at its own seed derived from
``--seed`` (so a run averages several independent populations), driven
through `repro.runtime.run_study` and delivered as CSV.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from pathlib import Path

from repro.core.records import StudyDataset
from repro.core.realtracer import TracerConfig
from repro.core.study import Study, StudyConfig
from repro.experiments.base import ExperimentContext, all_figures
from repro.runtime import RuntimeConfig, run_study
from repro.world.scenarios import configured, get_scenario

from harness import (
    Batch,
    Tracer,
    Workload,
    derive,
    percentile,
    profiled,
    sha256_hex,
    tree_cpu_s,
)

#: Seconds of playout per clip.  The paper played a minute; ten seconds
#: keeps the RTSP/prebuffer/steady-state mix while letting a run cover
#: several hundred plays, which is what makes plays/s repeat across
#: seeds (per-play cost varies by ~0.7 of its mean).
PLAY_LIMIT_S = 10.0
#: Share of each user's playlist prefix that is played: one or two
#: clips per user.  Users, not plays, are the independent draws (a
#: user's plays share their connection), so a run is spent on more
#: users rather than on longer prefixes.
STUDY_SCALE = 0.03
#: Users per serial batch: the paper's whole roster.
SERIAL_USERS = 65
#: ``scale_w2``: the roster expanded past the paper's, two workers.
SCALE_W2_USERS = 130
SCALE_W2_SCALE = 0.03
SCALE_W2_WORKERS = 2
#: Traced slices (fixed work, so exact counts repeat), at a seed key no
#: timed batch uses.
TRACE_KEY = 1_000_003
TRACE_USERS = 32
TRACE_W2_USERS = 40

FIGURE_COUNT = 29

#: Layers whose profiled self time and call counts become ``T`` rows.
SELF_TIME_LAYERS = (
    "sim", "net", "transport", "media", "server", "player", "abr", "world",
    "core", "runtime", "analysis", "experiments",
)
CALL_COUNT_LAYERS = ("sim", "net", "transport")


def attribution_metrics(buckets: dict, calls: dict, plays: int) -> dict:
    """``T`` rows: profiled self time and exact call counts per play."""
    metrics = {}
    for layer in SELF_TIME_LAYERS:
        self_s = buckets.get(layer, {}).get("self_s", 0.0)
        metrics[f"{layer}.self_ms_per_play"] = 1000.0 * self_s / plays
    for layer in CALL_COUNT_LAYERS:
        count = buckets.get(layer, {}).get("calls", 0)
        metrics[f"{layer}.calls_per_play"] = count / plays
    metrics["net.link_sends_per_play"] = calls.get("net:link.send", 0) / plays
    return metrics


def attribution_table(buckets: dict, wall_s: float) -> dict:
    """Info: every bucket's share of profiled self time, and how much
    of the profiled wall clock the buckets account for."""
    total = sum(entry["self_s"] for entry in buckets.values())
    return {
        "profiled_wall_s": wall_s,
        "attributed_s": total,
        "coverage": total / wall_s if wall_s > 0 else 0.0,
        "share": {
            name: entry["self_s"] / total
            for name, entry in sorted(
                buckets.items(), key=lambda kv: -kv[1]["self_s"]
            )
        },
    }


def render_figures(
    ctx: ExperimentContext, skip: tuple[str, ...] = ()
) -> tuple[list, str, float]:
    """Every figure (but ``skip``) on ``ctx``'s backend: (results,
    slowest id, its ms)."""
    results = []
    slowest, slowest_ms = "", 0.0
    for figure in all_figures():
        if figure.figure_id in skip:
            continue
        started = time.perf_counter()
        results.append(figure.run(ctx))
        elapsed_ms = 1000.0 * (time.perf_counter() - started)
        if elapsed_ms > slowest_ms:
            slowest, slowest_ms = figure.figure_id, elapsed_ms
    return results, slowest, slowest_ms


class StudyWorkload(Workload):
    """``run_study(config, workers=1)`` then ``dataset.to_csv``."""

    def __init__(
        self, name: str, scenario: str | None, seed: int, work: Path,
        tracer: Tracer,
    ) -> None:
        super().__init__(seed, work, tracer)
        self.name = name
        self.scenario = scenario
        #: Finished runs, kept for the correctness gate after timing.
        self._done: list[dict] = []

    # -- inputs -------------------------------------------------------------

    def config(self, key: int, users: int = SERIAL_USERS) -> StudyConfig:
        config = StudyConfig(
            seed=derive(self.seed, key), scale=STUDY_SCALE, max_users=users,
        )
        if self.scenario is not None:
            config = configured(get_scenario(self.scenario), config)
        tracer = replace(config.tracer, play_limit_s=PLAY_LIMIT_S)
        return replace(config, tracer=tracer)

    # -- timed run ----------------------------------------------------------

    def setup(self) -> None:
        # What a caller pays before the first play: build the world once
        # (run_study rebuilds it per study; that cost is in the batches).
        Study(self.config(0))

    def _run(self, config: StudyConfig, tag: str) -> dict:
        result = run_study(config, RuntimeConfig(workers=1))
        path = self.work / f"{self.name}-{tag}.csv"
        result.dataset.to_csv(path)
        return {"config": config, "result": result, "path": path}

    def batch(self, index: int) -> Batch:
        run = self._run(self.config(index), str(index))
        self._done.append(run)
        result = run["result"]
        data = run["path"].read_bytes()
        attempted = result.plan.total_plays
        return Batch(
            plays=len(result.dataset),
            attempted=attempted,
            failed=max(0, attempted - len(result.dataset)),
            csv_bytes=len(data),
            csv_sha256=sha256_hex([data]),
        )

    def verify(self) -> list[str]:
        errors = []
        for index, run in enumerate(self._done):
            config, result, path = run["config"], run["result"], run["path"]
            where = f"{self.name} run {index}"
            scheduled = sum(plays for _user, plays in Study(config).schedule())
            if not result.complete:
                errors.append(f"{where}: run incomplete")
            if len(result.dataset) != scheduled:
                errors.append(
                    f"{where}: {len(result.dataset)} records, "
                    f"{scheduled} scheduled"
                )
            reread = StudyDataset.from_csv(path)
            if len(reread) != scheduled:
                errors.append(
                    f"{where}: CSV round trip gave {len(reread)} records"
                )
            if config.tracer.abr.enabled:
                stray = [r for r in reread if r.played and not r.is_abr]
                if stray:
                    errors.append(
                        f"{where}: {len(stray)} played records are not ABR"
                    )
                if not any(r.is_abr for r in reread):
                    errors.append(f"{where}: no ABR playback at all")
        return errors

    # -- traced run ---------------------------------------------------------

    def traced(self, quick: bool) -> tuple[dict, dict]:
        """Per-layer rows of a fixed slice: (metrics, info)."""
        config = self.config(TRACE_KEY, users=4 if quick else TRACE_USERS)
        tracer = self.tracer
        with tracer.span("workload", workload=self.name):
            with tracer.span("phase:run_study"):
                cpu_before = tree_cpu_s()
                started = time.perf_counter()
                run = self._run(config, "traced")
                engine_s = time.perf_counter() - started
                cpu_s = tree_cpu_s() - cpu_before
            self._done.append(run)
            result = run["result"]
            plays = len(result.dataset)

            with tracer.span("phase:bare_untraced"):
                gaps: list[float] = []
                last = [time.perf_counter()]

                def on_gap(_record) -> None:
                    now = time.perf_counter()
                    gaps.append(now - last[0])
                    last[0] = now

                started = time.perf_counter()
                Study(config).run_users(
                    None, on_record=on_gap, collect=False
                )
                bare_s = time.perf_counter() - started

            with tracer.span("phase:bare_traced") as phase:
                mark = [time.perf_counter()]

                def on_play(record) -> None:
                    now = time.perf_counter()
                    tracer.record(
                        "play", mark[0], now, phase,
                        user=record.user_id, outcome=record.outcome,
                    )
                    mark[0] = now

                study = Study(config)
                _none, traced_s, buckets, calls = profiled(
                    lambda: study.run_users(
                        None, on_record=on_play, collect=False
                    )
                )
        data = run["path"].read_bytes()
        metrics = attribution_metrics(buckets, calls, plays)
        metrics["core.play_ms_p50"] = 1000.0 * percentile(gaps, 0.5)
        metrics["core.play_ms_p95"] = 1000.0 * percentile(gaps, 0.95)
        metrics["runtime.serial_overhead_ms_per_play"] = (
            1000.0 * (engine_s - bare_s) / plays
        )
        metrics["runtime.cpu_ms_per_play"] = 1000.0 * cpu_s / plays
        metrics["trace.overhead_ratio"] = traced_s / bare_s
        info = {
            "traced_plays": plays,
            "untraced_ms_per_play": 1000.0 * bare_s / plays,
            "play_gap_samples": len(gaps),
            "attribution": attribution_table(buckets, traced_s),
            "csv_bytes": len(data),
            "csv_sha256": sha256_hex([data]),
            "errors": self.verify(),
        }
        return metrics, info


class ScaleW2Workload(StudyWorkload):
    """The ``repro figures --users N --aggregation sketch --workers 2``
    path: pool, shard journal, in-worker spill, out-of-core merge, then
    all figures from the aggregates and the out-of-core CSV."""

    def __init__(self, seed: int, work: Path, tracer: Tracer) -> None:
        super().__init__("scale_w2", None, seed, work, tracer)

    def config(self, key: int, users: int = SCALE_W2_USERS) -> StudyConfig:
        return StudyConfig(
            seed=derive(self.seed, key),
            scale=SCALE_W2_SCALE,
            max_users=users,
            aggregation="sketch",
            tracer=TracerConfig(play_limit_s=PLAY_LIMIT_S),
        )

    def _run(self, config: StudyConfig, tag: str) -> dict:
        """One full pass; the phases are spans in the traced run."""
        tracer = self.tracer
        out = self.work / f"{self.name}-{tag}"
        out.mkdir()
        with tracer.span("phase:run_study"):
            started = time.perf_counter()
            result = run_study(config, RuntimeConfig(
                workers=SCALE_W2_WORKERS, checkpoint_dir=out / "ckpt",
            ))
            engine_s = time.perf_counter() - started
        with tracer.span("phase:figures"):
            started = time.perf_counter()
            ctx = ExperimentContext(
                aggregates=result.aggregates, population=result.population,
                seed=config.seed, scale=config.scale,
            )
            figures, slowest, slowest_ms = render_figures(ctx)
            figures_s = time.perf_counter() - started
        with tracer.span("phase:aggregates_json"):
            (out / "aggregates.json").write_text(json.dumps(
                result.aggregates.report(), indent=2, sort_keys=True
            ) + "\n")
        with tracer.span("phase:csv_export"):
            path = out / "study.csv"
            result.dataset.to_csv(path)
        return {
            "config": config, "result": result, "path": path, "out": out,
            "figures": figures, "engine_s": engine_s, "figures_s": figures_s,
            "slowest": slowest, "slowest_ms": slowest_ms,
        }

    def verify(self) -> list[str]:
        errors = super().verify()
        for index, run in enumerate(self._done):
            where = f"{self.name} run {index}"
            result = run["result"]
            if list(result.failed_shards):
                errors.append(f"{where}: shards {result.failed_shards} failed")
            if result.aggregates.records != len(result.dataset):
                errors.append(
                    f"{where}: aggregates saw {result.aggregates.records} "
                    f"of {len(result.dataset)} records"
                )
            if len(run["figures"]) != FIGURE_COUNT:
                errors.append(
                    f"{where}: {len(run['figures'])} figures rendered"
                )
        return errors

    def traced(self, quick: bool) -> tuple[dict, dict]:
        config = self.config(TRACE_KEY, users=8 if quick else TRACE_W2_USERS)
        tracer = self.tracer
        with tracer.span("workload", workload=self.name):
            cpu_before = tree_cpu_s()
            run, traced_s, buckets, calls = profiled(
                lambda: self._run(config, "traced")
            )
            cpu_s = tree_cpu_s() - cpu_before
        self._done.append(run)
        result = run["result"]
        plays = len(result.dataset)
        telemetry = result.telemetry
        metrics = attribution_metrics(buckets, calls, plays)
        busy_s = sum(
            shard["elapsed_s"] for shard in result.manifest["shards"]
        )
        metrics["runtime.shard_busy_s"] = busy_s
        metrics["runtime.utilization"] = (
            busy_s / (telemetry.elapsed_s * SCALE_W2_WORKERS)
        )
        metrics["runtime.retries"] = telemetry.retries
        metrics["runtime.tail_s"] = run["engine_s"] - telemetry.elapsed_s
        # Parent (under cProfile here) plus the reaped pool workers.
        metrics["runtime.cpu_ms_per_play"] = 1000.0 * cpu_s / plays
        metrics["runtime.checkpoint_bytes"] = sum(
            p.stat().st_size
            for p in (run["out"] / "ckpt").rglob("*") if p.is_file()
        )
        metrics["experiments.figures_sketch_ms"] = 1000.0 * run["figures_s"]
        metrics["experiments.figure_max_ms"] = run["slowest_ms"]
        data = run["path"].read_bytes()
        info = {
            "traced_plays": plays,
            "slowest_figure": run["slowest"],
            # Workers are separate processes: the profile (and so every
            # T row) covers the parent only — plan, journal, merge,
            # figures, export.
            "attribution": attribution_table(buckets, traced_s),
            "csv_bytes": len(data),
            "csv_sha256": sha256_hex([data]),
        }
        return metrics, {**info, "errors": self.verify()}
