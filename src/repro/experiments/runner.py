"""Run every figure experiment and write the results.

Usage::

    python -m repro.experiments.runner [--scale 1.0] [--seed 2001]
        [--out results/] [--csv study.csv] [--workers 4]
        [--checkpoint-dir DIR] [--resume]
        [--users 100000] [--aggregation exact|sketch]

At scale 1.0 this reproduces the full campaign (~2,855 playbacks,
around 15-25 minutes on a laptop — less with ``--workers``); smaller
scales simulate a proportional slice of each user's plays.  The study
phase runs on `repro.runtime`, printing live plays/sec and an ETA, and
(with a checkpoint directory) can be killed and resumed with
``--resume`` without re-simulating finished shards.

``--aggregation sketch`` renders every figure from the streamed
:class:`~repro.analysis.streaming.StudyAggregates` instead of an
in-memory record list — pair with ``--users`` for populations that
never fit in RAM.  See EXPERIMENTS.md for the exactness contract.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.core.study import StudyConfig
from repro.errors import CheckpointError
from repro.experiments.base import ExperimentContext, all_figures
from repro.runtime import (
    RuntimeConfig,
    ThrottledProgressPrinter,
    run_study,
)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the figure run's options — once, for both
    ``python -m repro.experiments.runner`` and ``repro figures``."""
    parser.add_argument("--scale", type=float, default=1.0,
                        help="fraction of each user's plays to simulate")
    parser.add_argument("--seed", type=int, default=2001)
    parser.add_argument("--out", type=Path, default=Path("results"),
                        help="directory for figure text/json outputs")
    parser.add_argument("--csv", type=Path, default=None,
                        help="also write the raw dataset as CSV")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for the study run")
    parser.add_argument("--users", type=int, default=None,
                        help="population size: truncate below the paper's "
                             "63 users, synthesize beyond it (same RNG-keyed "
                             "expansion as `repro study --users`)")
    parser.add_argument("--scenario", default=None,
                        help="run a named what-if scenario (see `repro "
                             "scenarios`) instead of the baseline world")
    parser.add_argument("--aggregation", choices=["exact", "sketch"],
                        default="exact",
                        help="'exact' collects every record in memory; "
                             "'sketch' streams constant-memory aggregates "
                             "and renders the figures from them "
                             "(million-user studies)")
    parser.add_argument("--checkpoint-dir", type=Path, default=None,
                        help="journal shard results here (enables --resume)")
    parser.add_argument("--resume", action="store_true",
                        help="skip shards already in the checkpoint dir")
    parser.add_argument("--quiet", action="store_true")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate every figure of the RealVideo study."
    )
    add_arguments(parser)
    return run(parser.parse_args(argv))


def run(args: argparse.Namespace) -> int:
    """Run the study and write every figure for parsed ``args``."""
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
    if checkpoint_dir is None and args.resume:
        checkpoint_dir = args.out / "study.ckpt"
    if not args.quiet:
        print(f"running study (seed={args.seed}, scale={args.scale}, "
              f"workers={args.workers})...", flush=True)
    try:
        runtime = RuntimeConfig(
            workers=args.workers,
            checkpoint_dir=checkpoint_dir,
            resume=args.resume,
            progress=None if args.quiet else ThrottledProgressPrinter(),
            handle_signals=True,
        )
        result = run_study(config, runtime)
    except (ValueError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if result.interrupted:
        where = checkpoint_dir if checkpoint_dir is not None else (
            "a --checkpoint-dir (none was set; progress was not journaled)"
        )
        print(f"interrupted by {result.manifest.get('interrupted_by', 'signal')}"
              f" — finished shards are journaled in {where}; rerun with "
              f"--resume to continue", file=sys.stderr)
        return 130
    telemetry = result.telemetry
    if not args.quiet:
        print(
            f"study done: {len(result.dataset)} playbacks in "
            f"{telemetry.elapsed_s:.0f}s "
            f"({telemetry.plays_per_second():.1f} plays/s)",
            flush=True,
        )
    if result.failed_shards:
        print(f"WARNING: shards {list(result.failed_shards)} failed; "
              f"figures are computed without their records",
              file=sys.stderr)
    if args.aggregation == "sketch":
        # Figures come straight from the merged aggregates; the record
        # stream stays on disk and is only consulted for --csv.
        ctx = ExperimentContext(
            aggregates=result.aggregates,
            population=result.population,
            seed=args.seed,
            scale=args.scale,
        )
    else:
        ctx = ExperimentContext(
            dataset=result.dataset,
            population=result.population,
            seed=args.seed,
            scale=args.scale,
        )

    args.out.mkdir(parents=True, exist_ok=True)
    if args.csv is not None:
        result.dataset.to_csv(args.csv)
    (args.out / "run_manifest.json").write_text(
        json.dumps(result.manifest, indent=2)
    )
    if result.aggregates is not None:
        (args.out / "aggregates.json").write_text(
            json.dumps(result.aggregates.report(), indent=2,
                       sort_keys=True) + "\n"
        )

    summary = {}
    for figure in all_figures():
        fig_result = figure.run(ctx)
        summary[fig_result.figure_id] = fig_result.headline
        (args.out / f"{fig_result.figure_id}.txt").write_text(
            fig_result.text + "\n"
        )
        (args.out / f"{fig_result.figure_id}.json").write_text(
            json.dumps(
                {
                    "figure_id": fig_result.figure_id,
                    "title": fig_result.title,
                    "headline": fig_result.headline,
                    "series": fig_result.series,
                },
                indent=2,
            )
        )
        if not args.quiet:
            print()
            print(fig_result.text)
    (args.out / "summary.json").write_text(json.dumps(summary, indent=2))
    if not args.quiet:
        print(f"\nwrote {args.out}/fig*.txt, fig*.json, summary.json, "
              "run_manifest.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
