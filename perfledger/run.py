#!/usr/bin/env python3
"""The perf ledger: one command for every metric in ``BENCHMARK.json``.

One workload, one run (what the acceptance driver calls)::

    python3 perfledger/run.py --workload rdt_study --seed 7 --seconds 15 --trace 0

prints, as the last line of stdout, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

Every workload, for people (each in a fresh child interpreter)::

    python3 perfledger/run.py [--seed 2001] [--runs 3] [--trace] [--quick]
                              [--only WORKLOAD] [--out ledger.json]
    python3 perfledger/run.py --compare A.json B.json

See ``perfledger/README.md`` for what each row means.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402  (path set up above)

WORKLOADS = (
    "rdt_study", "abr_bbr_study", "scale_w2", "record_path", "serve_mix",
)
#: Cold-start probes per run; their median is the import share of
#: ``setup_s``.
IMPORT_PROBES = 5
QUICK_SECONDS = 2


def make_workload(name: str, seed: int, work: Path, tracer: harness.Tracer):
    if name == "rdt_study":
        from studies import StudyWorkload
        return StudyWorkload(name, None, seed, work, tracer)
    if name == "abr_bbr_study":
        from studies import StudyWorkload
        return StudyWorkload(name, "dash-abr-bbr", seed, work, tracer)
    if name == "scale_w2":
        from studies import ScaleW2Workload
        return ScaleW2Workload(seed, work, tracer)
    if name == "record_path":
        from record_path import RecordPathWorkload
        return RecordPathWorkload(seed, work, tracer)
    if name == "serve_mix":
        from serve_mix import ServeMixWorkload
        return ServeMixWorkload(seed, work, tracer)
    raise SystemExit(f"unknown workload {name!r} (known: {WORKLOADS})")


def import_seconds() -> float:
    """Cold start of an interpreter that imports the program: the part
    of set-up this process paid once and cannot repeat in place."""
    started = time.perf_counter()
    # No timeout: a timed wait polls in steps of up to 50 ms, which is a
    # sixth of what is being measured.
    subprocess.run([sys.executable, "-c", "import repro.cli"], check=True)
    return time.perf_counter() - started


# -- one workload, one run ---------------------------------------------------


def run_timed(workload, seconds: float) -> tuple[dict, dict]:
    """Tracing off: set up (several times), then work until the time
    budget is spent.  Returns (result line, info)."""
    setups = []
    for attempt in range(workload.setup_repeats):
        if attempt:
            workload.discard_setup()
        started = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - started)

    batches, elapsed, cpu_s = workload.timed(seconds)

    errors = workload.verify()
    workload.teardown()
    rss_mb = harness.peak_rss_mb()
    # Last, so the probe interpreters are not the "largest descendant".
    imports = [import_seconds() for _ in range(IMPORT_PROBES)]
    setup_s = statistics.median(imports) + statistics.median(setups)
    plays = sum(b.plays for b in batches)
    attempted = sum(b.attempted for b in batches)
    failed = sum(b.failed for b in batches)
    unit = {m["name"]: m["unit"] for m in harness.load_spec()["end_to_end"]}
    values = {
        "setup_s": setup_s,
        "plays_per_s": plays / elapsed,
        "peak_rss_mb": rss_mb,
    }
    line = {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit[name]} for name in unit
        },
    }
    info = {
        "workload": workload.name,
        "seed": workload.seed,
        "timed_s": elapsed,
        "batches": len(batches),
        "plays": plays,
        "cpu_s": cpu_s,
        # Info only: it did not repeat within a bound across run sets
        # (its per-layer row is runtime.cpu_ms_per_play).
        "cpu_ms_per_play": 1000.0 * cpu_s / plays,
        "setup_samples_s": {"import": imports, "workload": setups},
        # The first batch is always run, whatever the machine's speed:
        # its bytes are the cross-commit check that a speed-only change
        # left the simulated statistics alone.
        "csv_bytes": batches[0].csv_bytes,
        "csv_sha256": batches[0].csv_sha256,
        "errors": errors,
        **workload.extra_info(),
    }
    return line, info


def run_traced(workload, quick: bool) -> tuple[dict, dict]:
    """Tracing on: a fixed slice of the workload under spans and
    cProfile, plus the isolated layer drivers."""
    import layers

    spec = harness.load_spec()["per_layer"]
    measured, info = workload.traced(quick)
    # The workload's own reading of a row (the server's cache counters)
    # wins over the isolated driver's.
    produced = {**layers.run_all(workload.seed, workload.work, quick), **measured}
    errors = list(info.get("errors", ()))
    unknown = sorted(set(produced) - {m["name"] for m in spec})
    if unknown:
        errors.append(f"metrics not in BENCHMARK.json: {unknown}")
    spans = workload.tracer.finished()
    if any(s["end"] < s["start"] for s in spans):
        errors.append("a span ends before it starts")
    trace_path = harness.OUT_DIR / (
        f"trace-{workload.name}-{workload.seed}.jsonl"
    )
    workload.tracer.dump(trace_path)
    line = {
        "correct": not errors,
        "attempted": int(info.get("traced_plays", 1)) or 1,
        "failed": 0,
        "metrics": {
            # A layer that does no work on this workload reads 0: that
            # is the prediction "a change there moves nothing here".
            m["name"]: {
                "value": produced.get(m["name"], 0), "unit": m["unit"],
            }
            for m in spec
        },
    }
    info = {
        "workload": workload.name,
        "seed": workload.seed,
        "spans": len(spans),
        "trace_file": str(trace_path.relative_to(harness.ROOT)),
        "measured_here": sorted(produced),
        **info,
        "errors": errors,
    }
    return line, info


def run_one(args) -> int:
    work = harness.prepare_checkout()
    tracer = harness.Tracer(
        enabled=bool(args.trace), trace_id=f"{args.workload}-{args.seed}"
    )
    workload = make_workload(args.workload, args.seed, work, tracer)
    try:
        if args.trace:
            line, info = run_traced(workload, args.quick)
        else:
            line, info = run_timed(workload, args.seconds)
    finally:
        workload.teardown()  # never leave a server behind
    for error in info["errors"]:
        print(f"perfledger: {args.workload}: {error}", file=sys.stderr)
    print("#info " + json.dumps(info))
    print(json.dumps(line))
    return 0


# -- every workload, for people ----------------------------------------------


def _child(workload: str, seed: int, seconds: int, trace: int, quick: bool):
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--quick"] if quick else [])
    done = subprocess.run(
        command, cwd=harness.ROOT, capture_output=True, text=True,
        timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(
            f"{workload}: run exited {done.returncode} without a result"
        )
    info = next(
        (json.loads(text[6:]) for text in lines if text.startswith("#info ")),
        {},
    )
    return json.loads(lines[-1]), info


def summarize(runs: list[dict]) -> dict:
    summary = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        q1, median, q3 = harness.quartiles(values)
        summary[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median, "q1": q1, "q3": q3,
            "n": len(values), "values": values,
        }
    return summary


def run_all(args) -> int:
    spec = harness.load_spec()
    seconds = QUICK_SECONDS if args.quick else args.seconds
    names = [args.only] if args.only else list(WORKLOADS)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ledger = {
        "fingerprint": harness.fingerprint(),
        "seed": args.seed, "seconds": seconds, "quick": args.quick,
        "workloads": {},
    }
    ok = True
    for name in names:
        runs = []
        for offset in range(args.runs):
            line, info = _child(name, args.seed + offset, seconds, 0, args.quick)
            runs.append({"seed": args.seed + offset, **line, "info": info})
            ok = ok and line["correct"] and line["failed"] == 0
        entry = {"runs": runs, "summary": summarize(runs)}
        print(f"\n== {name}  ({args.runs} run(s), seed {args.seed}, "
              f"{seconds} s timed) ==")
        for metric, row in entry["summary"].items():
            meta = bounds[metric]
            print(
                f"  {metric:<22}{row['median']:>14.4f} {row['unit']:<8}"
                f" q1 {row['q1']:.4f} q3 {row['q3']:.4f} n={row['n']}"
                f"  ({meta['better']} is better, bound {meta['bound']})"
            )
        first = runs[0]
        print(f"  attempted {first['attempted']}  failed {first['failed']}"
              f"  correct {first['correct']}")
        for key in sorted(first["info"]):
            if key.endswith(("_p50", "_p80", "_p90", "_samples")) or key in (
                "csv_bytes", "csv_sha256", "plays", "batches",
            ):
                print(f"  info {key} = {first['info'][key]}")
        if args.trace:
            line, info = _child(name, args.seed, seconds, 1, args.quick)
            ok = ok and line["correct"]
            entry["traced"] = {**line, "info": info}
            print(f"  -- per-layer (traced run, {info.get('traced_plays')} "
                  "plays/records/requests) --")
            for metric, cell in line["metrics"].items():
                mark = "" if metric in info["measured_here"] else "  (no work here)"
                print(f"  {metric:<38}{cell['value']:>16.4f} {cell['unit']}{mark}")
            share = info.get("attribution", {}).get("share", {})
            if share:
                print("  profiled self-time share: " + ", ".join(
                    f"{bucket} {100 * part:.1f}%"
                    for bucket, part in share.items() if part >= 0.005
                ))
        ledger["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(ledger, indent=1) + "\n")
        print(f"\nwrote {args.out}")
    print("\nperfledger: " + ("all correct" if ok else "FAILED"))
    return 0 if ok else 1


# -- compare two ledgers -----------------------------------------------------


def compare(path_a: str, path_b: str) -> int:
    """Each workload x end-to-end metric in its own row: how much worse
    B's median is than A's, against the bound; ``unresolved`` where the
    run-to-run spread is wider than the bound."""
    spec = {m["name"]: m for m in harness.load_spec()["end_to_end"]}
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    if a["fingerprint"]["cpu_model"] != b["fingerprint"]["cpu_model"]:
        print("warning: the two ledgers come from different machines")
    regressed = False
    print(f"{'workload':<15}{'metric':<18}{'A':>12}{'B':>12}"
          f"{'worse by':>10}{'bound':>7}  verdict")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        for metric, meta in spec.items():
            row_a = a["workloads"][name]["summary"][metric]
            row_b = b["workloads"][name]["summary"][metric]
            sign = 1.0 if meta["better"] == "lower" else -1.0
            worse = sign * (row_b["median"] - row_a["median"]) / row_a["median"]
            spread = max(
                (row["q3"] - row["q1"]) / row["median"]
                for row in (row_a, row_b)
            )
            if meta["better"] == "lower":
                separated = max(row_b["values"]) < min(row_a["values"])
            else:
                separated = min(row_b["values"]) > max(row_a["values"])
            if spread > meta["bound"] and not separated:
                verdict = f"unresolved (spread {100 * spread:.1f}%)"
            elif worse > meta["bound"]:
                verdict, regressed = "REGRESSION", True
            else:
                verdict = "ok"
            print(f"{name:<15}{metric:<18}{row_a['median']:>12.4f}"
                  f"{row_b['median']:>12.4f}{100 * worse:>9.1f}%"
                  f"{meta['bound']:>7}  {verdict}")
        sha_a = {r["seed"]: r["info"].get("csv_sha256")
                 for r in a["workloads"][name]["runs"]}
        sha_b = {r["seed"]: r["info"].get("csv_sha256")
                 for r in b["workloads"][name]["runs"]}
        shared = sorted(set(sha_a) & set(sha_b))
        same = all(sha_a[s] == sha_b[s] for s in shared)
        print(f"{name:<15}csv_sha256 over {len(shared)} shared seed(s): "
              + ("identical" if same else "DIFFERENT"))
    return 1 if regressed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run this one workload in this process")
    parser.add_argument("--only", choices=WORKLOADS,
                        help="with no --workload: restrict to one workload")
    parser.add_argument("--seed", type=int, default=2001)
    parser.add_argument("--seconds", type=int, default=None,
                        help="timed phase (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="tiny slices: checks plumbing, not performance")
    parser.add_argument("--runs", type=int, default=1,
                        help="timed runs per workload, seeds seed..seed+N-1")
    parser.add_argument("--out", help="write the ledger JSON here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.seconds is None:
        args.seconds = harness.load_spec()["run_seconds"]
    if args.workload:
        return run_one(args)
    harness.require_program()
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
