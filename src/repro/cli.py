"""Command-line interface.

Subcommands::

    repro play   --seed 42 [--connection "DSL/Cable"] [--trace]
    repro study  --scale 0.1 --out study.csv [--seed 2001]
                 [--workers 4] [--resume] [--checkpoint-dir DIR]
                 [--users 100000] [--aggregation exact|sketch]
                 [--scenario dash-abr]
    repro scenarios [--json]
    repro report --csv study.csv [--plots]
    repro figures --scale 1.0 --out results/ [--csv study.csv]
                 [--workers 4] [--resume] [--checkpoint-dir DIR]
                 [--users 100000] [--aggregation exact|sketch]
    repro validate --scale 0.1 [--workers 2] [--strict] [--skip-oracle]
    repro sweep  --spec sweep.toml [--workers 4] [--cache-dir .sweep-cache]
                 [--force] [--report report.json]
                 [--quarantine-threshold 0.05]
    repro chaos  [--plan faults.toml] [--scale 0.02] [--workers 2]
                 [--report chaos.json]
    repro serve  [--host 127.0.0.1] [--port 8050] [--workers 2]
                 [--cache-dir .serve-cache] [--queue-capacity 64]
                 [--max-disk-bytes 2G] [--max-cache-bytes 1G]
    repro cache  ls|gc --cache-dir DIR [--max-bytes 1G]

Byte-valued flags accept plain integers or K/M/G suffixes (``512M``).
``repro`` is installed as a console script; the module also runs via
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis import breakdowns
from repro.analysis.cdf import Cdf
from repro.analysis.plotting import ascii_bars, ascii_cdf
from repro.analysis.report import format_summary
from repro.analysis.stats import summarize
from repro.analysis.workload import format_workload, summarize_workload
from repro.core.records import StudyDataset
from repro.core.realtracer import RealTracer, TracerConfig
from repro.core.study import StudyConfig
from repro.rng import RngFactory
from repro.world.population import build_population


def _parse_bytes(text: str) -> int:
    """``"512"``, ``"512K"``, ``"64M"``, ``"2G"`` -> bytes."""
    raw = text.strip().upper().removesuffix("B")
    scale = 1
    for suffix, factor in (("K", 1 << 10), ("M", 1 << 20), ("G", 1 << 30)):
        if raw.endswith(suffix):
            raw, scale = raw[:-1], factor
            break
    try:
        value = int(float(raw) * scale)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a byte size: {text!r} (use 1048576, 512K, 64M, 2G)"
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError("byte sizes must be positive")
    return value


def _cmd_play(args: argparse.Namespace) -> int:
    rngs = RngFactory(args.seed)
    population = build_population(rngs)
    candidates = [
        u for u in population.users
        if (args.connection is None or u.connection.name == args.connection)
        and not u.rtsp_blocked
    ]
    if not candidates:
        print(f"no user with connection {args.connection!r}", file=sys.stderr)
        return 2
    user = candidates[0]
    site, clip = population.playlist[args.position % len(population.playlist)]
    print(f"playing {clip.url} from {site.name} as {user.user_id} "
          f"({user.connection.name}, {user.pc.name})")

    tracer = RealTracer(config=TracerConfig(sample_timeline=True))
    if args.trace:
        from repro.analysis.flows import format_profile, profile_all_flows
        from repro.net.tracelog import PacketTraceLogger

        loggers = []

        original_build = tracer._paths.build

        def traced_build(loop, *build_args, **build_kwargs):
            path = original_build(loop, *build_args, **build_kwargs)
            logger = PacketTraceLogger(loop)
            logger.attach_path(path)
            loggers.append(logger)
            return path

        tracer._paths.build = traced_build  # type: ignore[method-assign]

    record = tracer.play_clip(user, site, clip, rngs.child("cli-play"))
    print(f"\noutcome={record.outcome} protocol={record.protocol}")
    print(f"frame rate {record.measured_frame_rate:.1f} fps  "
          f"bandwidth {record.measured_bandwidth_bps / 1000:.0f} kbps  "
          f"jitter {record.jitter_ms:.0f} ms  "
          f"rebuffers {record.rebuffer_count}")
    if args.trace and loggers:
        print("\npacket-level flow profiles:")
        for flow_profile in profile_all_flows(loggers[-1].trace).values():
            print("  " + format_profile(flow_profile))
    return 0


def _cmd_study(args: argparse.Namespace) -> int:
    from repro.runtime import (
        RuntimeConfig, ThrottledProgressPrinter, run_study,
    )

    from repro.errors import CheckpointError

    config = StudyConfig(
        seed=args.seed,
        scale=args.scale,
        max_users=args.users,
        aggregation=args.aggregation,
    )
    if args.scenario is not None:
        from repro.errors import StudyError
        from repro.world.scenarios import configured, get_scenario

        try:
            config = configured(get_scenario(args.scenario), config)
        except StudyError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    checkpoint_dir = args.checkpoint_dir
    if checkpoint_dir is None:
        checkpoint_dir = Path(str(args.out) + ".ckpt")
    pressure = None
    if args.disk_budget is not None or args.memory_soft_bytes is not None:
        from repro.pressure import PressureConfig

        pressure = PressureConfig(
            max_disk_bytes=args.disk_budget,
            memory_soft_bytes=args.memory_soft_bytes,
        )
    try:
        runtime = RuntimeConfig(
            workers=args.workers,
            checkpoint_dir=checkpoint_dir,
            resume=args.resume,
            progress=None if args.quiet else ThrottledProgressPrinter(),
            handle_signals=True,
            pressure=pressure,
        )
        result = run_study(config, runtime)
    except (ValueError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Second signal (immediate stop) or a non-main-thread run.
        print(f"\ninterrupted — finished shards are journaled in "
              f"{checkpoint_dir}; rerun with --resume to continue",
              file=sys.stderr)
        return 130
    if result.interrupted:
        signal_name = result.manifest.get("interrupted_by", "signal")
        hint = "rerun with --resume to continue"
        if signal_name == "disk-budget":
            hint = ("free disk space or raise --disk-budget, then rerun "
                    "with --resume to continue")
        print(f"\ninterrupted by {signal_name} — checkpoint flushed; "
              f"finished shards are journaled in {checkpoint_dir}; "
              f"{hint}", file=sys.stderr)
        return 130
    telemetry = result.telemetry
    if not args.quiet:
        print(f"simulated {telemetry.simulated_plays} playbacks "
              f"(seed={args.seed}, scale={args.scale}, "
              f"workers={args.workers}) in {telemetry.elapsed_s:.0f}s "
              f"at {telemetry.plays_per_second():.1f} plays/s")
        if telemetry.pressure or telemetry.batch_shrinks:
            level = telemetry.pressure.get("level", "ok")
            used = telemetry.pressure.get("used_bytes", 0)
            cap = telemetry.pressure.get("max_bytes", 0)
            print(f"resource governance: disk {used}/{cap} bytes "
                  f"(level {level}), {telemetry.batch_shrinks} spill-batch "
                  f"shrinks, peak RSS {telemetry.memory_peak_bytes} bytes")
    result.dataset.to_csv(args.out)
    print(f"wrote {len(result.dataset)} records to {args.out} "
          f"(checkpoints + run manifest in {checkpoint_dir})")
    if result.aggregates is not None:
        aggregates_path = Path(str(args.out) + ".aggregates.json")
        aggregates_path.write_text(
            json.dumps(result.aggregates.report(), indent=2,
                       sort_keys=True) + "\n"
        )
        print(f"wrote streaming aggregates to {aggregates_path}")
    if result.failed_shards:
        print(f"WARNING: shards {list(result.failed_shards)} quarantined "
              f"after retries ({result.quarantined_fraction:.1%} of plays "
              f"lost); their records are missing", file=sys.stderr)
        return 1
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    dataset = StudyDataset.from_csv(args.csv)
    played = dataset.played()
    if len(played) == 0:
        print("no played records in dataset", file=sys.stderr)
        return 2
    fps = Cdf(played.values("measured_frame_rate"))
    print(format_summary("frame rate", summarize(fps.values), "fps"))
    print(f"  below 3 fps: {fps.fraction_below(3.0):.0%}; "
          f"15+ fps: {fps.fraction_at_least(15.0):.0%}")
    jitter_sample = dataset.with_jitter()
    if len(jitter_sample):
        jitter = Cdf([r.jitter_ms for r in jitter_sample])
        print(f"  jitter <= 50 ms: {jitter.at(50.0):.0%}; "
              f">= 300 ms: {jitter.fraction_at_least(300.0):.0%}")
    protocols = breakdowns.counts_by(played, lambda r: r.protocol)
    total = sum(protocols.values())
    shares = ", ".join(
        f"{name} {count / total:.0%}" for name, count in protocols.items()
    )
    print(f"  protocols: {shares}")
    print()
    print(format_workload(summarize_workload(dataset)))
    if args.plots:
        print()
        print(ascii_cdf(
            {"frame rate": fps}, x_max=30.0, x_label="fps",
        ))
        print()
        counts = breakdowns.counts_by(played, lambda r: r.user_country)
        print(ascii_bars(dict(counts), title="plays per country"))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    """Run a validated study + the serial-vs-parallel differential
    oracle; exit non-zero on any invariant violation or divergence."""
    import tempfile

    from repro.runtime import (
        RuntimeConfig, ThrottledProgressPrinter, run_study,
    )
    from repro.core.submission import SubmissionSink
    from repro.errors import ValidationError
    from repro.validate import ValidationConfig, run_differential_oracle

    validation = ValidationConfig(enabled=True, strict=args.strict)
    sink = SubmissionSink(validation=validation)
    config = StudyConfig(
        seed=args.seed, scale=args.scale, validation=validation
    )
    print(f"validated study: seed={args.seed} scale={args.scale} "
          f"workers={args.workers} strict={args.strict}")
    try:
        with tempfile.TemporaryDirectory(prefix="repro-validate-") as ckpt:
            result = run_study(
                config,
                RuntimeConfig(
                    workers=args.workers,
                    checkpoint_dir=ckpt,
                    progress=None if args.quiet else
                    ThrottledProgressPrinter(),
                ),
                sink=sink,
            )
    except ValidationError as exc:
        print(f"STRICT VALIDATION FAILED: {exc}", file=sys.stderr)
        return 1
    telemetry = result.telemetry
    sink_ledger = sink.ledger
    violations = telemetry.violation_total + (
        sink_ledger.total if sink_ledger is not None else 0
    )
    checks = telemetry.checks_run + (
        sink_ledger.checks_run if sink_ledger is not None else 0
    )
    print(f"  {len(result.dataset)} playbacks, {checks} invariant checks, "
          f"{violations} violation(s)")
    if violations:
        for invariant, count in sorted(telemetry.violations.items()):
            print(f"    {count:6d}  {invariant} (playback audits)")
        if sink_ledger is not None:
            for invariant, count in sorted(sink_ledger.counts.items()):
                print(f"    {count:6d}  {invariant} (sink ingestion)")

    oracle_ok = True
    if not args.skip_oracle:
        oracle = run_differential_oracle(
            StudyConfig(seed=args.seed, scale=args.oracle_scale),
            workers=args.workers,
        )
        oracle_ok = oracle.matched
        print(f"  {oracle}")

    if violations or not oracle_ok:
        print("validation FAILED", file=sys.stderr)
        return 1
    print("validation passed: all invariants held")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Run a declarative scenario sweep with the content-addressed
    study cache and print/write the claim-sensitivity report."""
    from repro.errors import SweepError
    from repro.sweep import (
        compare_sweep, format_sweep_report, load_spec, report_json,
        run_sweep,
    )

    try:
        spec = load_spec(args.spec)
    except SweepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cells = spec.cells()
    if not args.quiet:
        print(f"sweep {spec.name!r}: {len(cells)} cells, "
              f"workers={args.workers}, cache={args.cache_dir}"
              f"{' (forced)' if args.force else ''}")
    budget = None
    if args.disk_budget is not None:
        from repro.pressure import DiskBudget, du_bytes

        budget = DiskBudget(args.disk_budget)
        if args.cache_dir is not None:
            budget.seed("cache", du_bytes(args.cache_dir))
    try:
        result = run_sweep(
            spec,
            cache_dir=args.cache_dir,
            workers=args.workers,
            force=args.force,
            progress=None if args.quiet else print,
            quarantine_threshold=args.quarantine_threshold,
            max_cache_bytes=args.max_cache_bytes,
            budget=budget,
        )
    except SweepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    comparison = compare_sweep(result)
    if args.cache_dir is not None:
        manifest_path = Path(args.cache_dir) / "sweep_manifest.json"
        manifest_path.parent.mkdir(parents=True, exist_ok=True)
        manifest_path.write_text(
            json.dumps(result.manifest(), indent=2) + "\n"
        )
    if args.report is not None:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(report_json(comparison))
    print()
    print(format_sweep_report(comparison))
    if not args.quiet:
        print()
        # Corruption evictions and GC evictions are different events:
        # one is an integrity alarm, the other routine housekeeping.
        print(f"{result.misses} simulated, {result.hits} from cache "
              f"({len(result.evicted)} corruption-evicted, "
              f"{len(result.gc_evicted)} gc-evicted) "
              f"in {result.elapsed_s:.1f}s")
        if result.store_skips:
            print(f"{result.store_skips} cache store(s) skipped under "
                  f"disk pressure (results still computed)")
        if result.cache_counters is not None:
            counters = result.cache_counters
            print(f"cache traffic: {counters['hits']} hits, "
                  f"{counters['misses']} misses, "
                  f"{counters['stores']} stores, "
                  f"{counters['evicted']} corruption-evicted, "
                  f"{counters['gc_evicted']} gc-evicted")
        if args.report is not None:
            print(f"wrote {args.report}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Run the chaos matrix: the study under every fault of a plan,
    asserting recovery/quarantine/artifact guarantees per fault."""
    from repro.chaos import default_plan, load_plan
    from repro.chaos.matrix import run_chaos_matrix
    from repro.errors import ChaosError
    from repro.runtime import RuntimeConfig

    try:
        plan = load_plan(args.plan) if args.plan is not None \
            else default_plan()
    except ChaosError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not plan.faults:
        print(f"error: plan {plan.name!r} has no faults", file=sys.stderr)
        return 2
    try:
        # A worker.play fault at --workers 1 would never fire and the
        # matrix would pass vacuously; refuse before the golden run.
        RuntimeConfig(workers=args.workers, fault_plan=plan)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config = StudyConfig(seed=args.seed, scale=args.scale)
    report = run_chaos_matrix(
        plan,
        config,
        workers=args.workers,
        base_dir=args.base_dir,
        max_retries=args.max_retries,
        watchdog_deadline_s=args.watchdog_deadline,
        progress=None if args.quiet else print,
    )
    pressure_report = None
    if args.pressure_budget or args.shrink_to is not None:
        from repro.chaos.matrix import run_pressure_matrix

        pressure_report = run_pressure_matrix(
            config,
            budgets=(None, *args.pressure_budget),
            shrink_to=args.shrink_to,
            workers=1,
            progress=None if args.quiet else print,
        )
    payload = report.payload()
    if pressure_report is not None:
        payload["pressure"] = pressure_report.payload()
    if args.report is not None:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
    print()
    print(report.format())
    if pressure_report is not None:
        print()
        print(pressure_report.format())
    if not args.quiet and args.report is not None:
        print(f"wrote {args.report}")
    ok = report.ok and (pressure_report is None or pressure_report.ok)
    return 0 if ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the study-as-a-service HTTP front end until SIGTERM."""
    import asyncio

    from repro.chaos import load_plan
    from repro.errors import ChaosError
    from repro.serve import serve_forever

    plan = None
    if args.chaos_plan is not None:
        try:
            plan = load_plan(args.chaos_plan)
        except ChaosError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        asyncio.run(serve_forever(
            host=args.host,
            port=args.port,
            cache_dir=args.cache_dir,
            workers=args.workers,
            shard_workers=args.shard_workers,
            queue_capacity=args.queue_capacity,
            max_disk_bytes=args.max_disk_bytes,
            max_cache_bytes=args.max_cache_bytes,
            fault_plan=plan,
        ))
    except KeyboardInterrupt:
        # Second signal during the drain: the default handler wins.
        print("interrupted before the drain finished", file=sys.stderr)
        return 130
    except OSError as exc:  # port in use, bad host...
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    """Inspect (``ls``) or garbage-collect (``gc``) the study cache."""
    from repro.sweep.cache import StudyCache

    if not Path(args.cache_dir).is_dir():
        print(f"error: no cache directory {args.cache_dir}",
              file=sys.stderr)
        return 2
    cache = StudyCache(args.cache_dir)
    if args.cache_command == "ls":
        rows = cache.ls()
        if not rows:
            print(f"cache {args.cache_dir}: empty")
            return 0
        total = sum(row["bytes"] for row in rows)
        print(f"cache {args.cache_dir}: {len(rows)} entries, "
              f"{total} bytes (LRU first)")
        for row in rows:
            print(f"  {row['config_hash'][:16]}  {row['bytes']:>12d} B  "
                  f"{row['records']:>9d} records  "
                  f"last hit tick {row['last_hit_tick']}")
        return 0
    # gc
    if args.max_bytes is None:
        print("error: gc needs --max-bytes", file=sys.stderr)
        return 2
    summary = cache.gc(max_bytes=args.max_bytes)
    removed = summary["removed"]
    print(f"cache gc {args.cache_dir}: {summary['before_bytes']} -> "
          f"{summary['after_bytes']} bytes "
          f"(limit {summary['limit_bytes']}), "
          f"{len(removed)} entr{'y' if len(removed) == 1 else 'ies'} "
          f"evicted")
    for entry in removed:
        print(f"  evicted {entry['config_hash'][:16]} "
              f"({entry['bytes']} B, last hit tick "
              f"{entry['last_hit_tick']})")
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    """List the scenario registry: every named what-if world, with the
    transport stack its playbacks run over."""
    from repro.world.scenarios import SCENARIOS

    rows = []
    for scenario in SCENARIOS.values():
        config = scenario.configure(StudyConfig())
        abr = config.tracer.abr
        if abr.enabled:
            stack = f"HTTP/TCP DASH-ABR ({abr.pacing} pacing)"
        else:
            stack = "RTSP + RDT/UDP (TCP fallback)"
        rows.append({
            "name": scenario.name,
            "description": scenario.description,
            "stack": stack,
        })
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    name_w = max(len(r["name"]) for r in rows)
    stack_w = max(len(r["stack"]) for r in rows)
    for row in rows:
        print(f"{row['name']:<{name_w}}  {row['stack']:<{stack_w}}  "
              f"{row['description']}")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments import runner

    return runner.run(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RealVideo-performance study reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    play = sub.add_parser("play", help="play one clip through the stack")
    play.add_argument("--seed", type=int, default=42)
    play.add_argument("--connection", default=None,
                      choices=[None, "56k Modem", "DSL/Cable", "T1/LAN"])
    play.add_argument("--position", type=int, default=0,
                      help="playlist position of the clip")
    play.add_argument("--trace", action="store_true",
                      help="capture and summarize the packet trace")
    play.set_defaults(func=_cmd_play)

    study = sub.add_parser("study", help="run the measurement campaign")
    study.add_argument("--seed", type=int, default=2001)
    study.add_argument("--scale", type=float, default=1.0)
    study.add_argument("--out", type=Path, default=Path("study.csv"))
    study.add_argument("--workers", type=int, default=1,
                       help="worker processes (1: in-process serial)")
    study.add_argument("--users", type=int, default=None,
                       help="population size: truncate below the paper's "
                            "63 users, synthesize beyond it (million-user "
                            "studies pair this with --aggregation sketch)")
    study.add_argument("--aggregation", choices=["exact", "sketch"],
                       default="exact",
                       help="record path: 'exact' collects every record "
                            "in memory (byte-identical goldens); 'sketch' "
                            "streams shards to disk spills and folds "
                            "constant-memory quantile sketches, writing "
                            "<out>.aggregates.json")
    study.add_argument("--scenario", default=None,
                       help="run a named what-if scenario (see `repro "
                            "scenarios`) instead of the baseline world")
    study.add_argument("--checkpoint-dir", type=Path, default=None,
                       help="shard journal directory (default: <out>.ckpt)")
    study.add_argument("--resume", action="store_true",
                       help="skip shards already journaled in the "
                            "checkpoint directory")
    study.add_argument("--disk-budget", type=_parse_bytes, default=None,
                       metavar="BYTES",
                       help="total disk budget for checkpoints + spills "
                            "(plain bytes or K/M/G); soft pressure "
                            "degrades batch sizes and checkpoint cadence, "
                            "the hard watermark drains the run honestly")
    study.add_argument("--memory-soft-bytes", type=_parse_bytes,
                       default=None, metavar="BYTES",
                       help="per-worker RSS watermark: above it, sketch "
                            "spill batches halve (down to the minimum) "
                            "before the OOM killer gets a vote")
    study.add_argument("--quiet", action="store_true")
    study.set_defaults(func=_cmd_study)

    report = sub.add_parser("report", help="summarize a study CSV")
    report.add_argument("--csv", type=Path, required=True)
    report.add_argument("--plots", action="store_true",
                        help="include ASCII plots")
    report.set_defaults(func=_cmd_report)

    # The figure run declares its own options, shared with ``python -m
    # repro.experiments.runner``; imported here, not at module import,
    # to keep ``import repro.cli`` light.
    from repro.experiments import runner

    figures = sub.add_parser("figures", help="regenerate every paper figure")
    runner.add_arguments(figures)
    figures.set_defaults(func=_cmd_figures)

    scenarios = sub.add_parser(
        "scenarios",
        help="list the what-if scenario registry (name, transport "
             "stack, description)",
    )
    scenarios.add_argument("--json", action="store_true",
                           help="machine-readable output")
    scenarios.set_defaults(func=_cmd_scenarios)

    sweep = sub.add_parser(
        "sweep",
        help="run a declarative scenario sweep (cached, parallel) and "
             "report claim sensitivity",
    )
    sweep.add_argument("--spec", type=Path, required=True,
                       help="sweep spec file (.toml or .json)")
    sweep.add_argument("--workers", type=int, default=1,
                       help="worker processes per cell (repro.runtime)")
    sweep.add_argument("--cache-dir", type=Path, default=None,
                       help="content-addressed study cache directory")
    sweep.add_argument("--force", action="store_true",
                       help="re-simulate every cell even on a cache hit")
    sweep.add_argument("--report", type=Path, default=None,
                       help="also write the sensitivity report as JSON here")
    sweep.add_argument("--quarantine-threshold", type=float, default=0.05,
                       help="max fraction of a cell's plays lost to "
                            "quarantined shards before the sweep refuses "
                            "the cell (claims are N/A above it)")
    sweep.add_argument("--max-cache-bytes", type=_parse_bytes,
                       default=None, metavar="BYTES",
                       help="cap the study cache; LRU-by-last-hit entries "
                            "are garbage-collected after every store")
    sweep.add_argument("--disk-budget", type=_parse_bytes, default=None,
                       metavar="BYTES",
                       help="disk ledger for the sweep: soft pressure "
                            "skips new cache stores, the hard watermark "
                            "refuses uncached cells honestly")
    sweep.add_argument("--quiet", action="store_true")
    sweep.set_defaults(func=_cmd_sweep)

    chaos = sub.add_parser(
        "chaos",
        help="run the chaos matrix: inject each fault of a plan into a "
             "study run and assert the recovery guarantees",
    )
    chaos.add_argument("--plan", type=Path, default=None,
                       help="fault plan (.toml or .json); default: the "
                            "built-in plan covering every fault site")
    chaos.add_argument("--seed", type=int, default=2001)
    chaos.add_argument("--scale", type=float, default=0.02,
                       help="study scale per fault run (keep small: the "
                            "matrix runs the study twice per fault)")
    chaos.add_argument("--workers", type=int, default=2,
                       help="worker processes per study run")
    chaos.add_argument("--max-retries", type=int, default=2,
                       help="per-shard retry budget before quarantine")
    chaos.add_argument("--watchdog-deadline", type=float, default=2.0,
                       help="seconds without a heartbeat before a worker "
                            "is presumed hung and rescheduled")
    chaos.add_argument("--base-dir", type=Path, default=None,
                       help="keep per-fault checkpoint directories here "
                            "(default: a temp directory)")
    chaos.add_argument("--report", type=Path, default=None,
                       help="also write the matrix verdicts as JSON here")
    chaos.add_argument("--pressure-budget", type=_parse_bytes,
                       action="append", default=[], metavar="BYTES",
                       help="also run the resource-pressure matrix with "
                            "this disk budget (repeatable); every cell "
                            "must settle complete/degraded/refused with "
                            "clean artifacts")
    chaos.add_argument("--shrink-to", type=_parse_bytes, default=None,
                       metavar="BYTES",
                       help="add a pressure.disk chaos cell whose quota "
                            "shrinks to this mid-run")
    chaos.add_argument("--quiet", action="store_true")
    chaos.set_defaults(func=_cmd_chaos)

    serve = sub.add_parser(
        "serve",
        help="run the study-as-a-service HTTP front end (JSON API + "
             "SSE progress; simulations run in worker processes)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8050,
                       help="TCP port (0: pick a free one)")
    serve.add_argument("--workers", type=int, default=2,
                       help="concurrent simulations: one long-lived "
                            "simulation process per slot, started at boot")
    serve.add_argument("--shard-workers", type=int, default=1,
                       help="repro.runtime shard processes inside each "
                            "simulation (1: the slot's process runs it all)")
    serve.add_argument("--cache-dir", type=Path,
                       default=Path(".serve-cache"),
                       help="content-addressed study cache + checkpoint "
                            "root shared across restarts")
    serve.add_argument("--queue-capacity", type=int, default=64,
                       help="queued simulations before submissions get 429")
    serve.add_argument("--max-disk-bytes", type=_parse_bytes, default=None,
                       metavar="BYTES",
                       help="service-wide disk budget (cache + checkpoints "
                            "+ spills); soft pressure skips cache stores, "
                            "the hard watermark 429s new submissions with "
                            "Retry-After")
    serve.add_argument("--max-cache-bytes", type=_parse_bytes, default=None,
                       metavar="BYTES",
                       help="cap the study cache with LRU-by-last-hit GC")
    serve.add_argument("--chaos-plan", type=Path, default=None,
                       help="fault plan with serve.request faults to "
                            "inject (drop/stall)")
    serve.set_defaults(func=_cmd_serve)

    cache = sub.add_parser(
        "cache",
        help="inspect or garbage-collect the content-addressed study "
             "cache",
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_ls = cache_sub.add_parser(
        "ls", help="list entries, least-recently-hit first"
    )
    cache_ls.add_argument("--cache-dir", type=Path, required=True)
    cache_ls.set_defaults(func=_cmd_cache)
    cache_gc = cache_sub.add_parser(
        "gc", help="evict LRU entries until the cache fits --max-bytes"
    )
    cache_gc.add_argument("--cache-dir", type=Path, required=True)
    cache_gc.add_argument("--max-bytes", type=_parse_bytes, required=True,
                          metavar="BYTES",
                          help="target size (plain bytes or K/M/G)")
    cache_gc.set_defaults(func=_cmd_cache)

    validate = sub.add_parser(
        "validate",
        help="run a study with invariant checking + the serial-vs-"
             "parallel oracle",
    )
    validate.add_argument("--seed", type=int, default=2001)
    validate.add_argument("--scale", type=float, default=0.1,
                          help="study scale for the validated run "
                               "(0.1 is ~270 playbacks)")
    validate.add_argument("--workers", type=int, default=2)
    validate.add_argument("--strict", action="store_true",
                          help="abort on the first violation instead of "
                               "counting")
    validate.add_argument("--skip-oracle", action="store_true",
                          help="skip the serial-vs-parallel differential "
                               "oracle")
    validate.add_argument("--oracle-scale", type=float, default=0.02,
                          help="study scale for the oracle's two runs")
    validate.add_argument("--quiet", action="store_true")
    validate.set_defaults(func=_cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
