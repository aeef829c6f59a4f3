"""``record_path``: the million-user data path with the kernel at zero.

Seeded synthetic records (``synth``) go through eight `SpillWriter`
shards with a per-shard `StudyAggregates`, are verified and merged,
exported out of core, rendered as the 28 record-backed figures on both
backends, and written and read back as CSV.  No packet is simulated, so
a kernel change predicts no movement here and `repro.core.spill`,
`repro.analysis` and `repro.experiments` do all the work.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path

from repro.analysis.streaming import StudyAggregates, user_base_ranks
from repro.core.records import StudyDataset
from repro.core.spill import ShardSpill, SpilledDataset, SpillWriter
from repro.experiments.base import ExperimentContext
from repro.validate.invariants import validate_record
from repro.validate.ledger import ValidationLedger

from harness import (
    Batch,
    Tracer,
    Workload,
    derive,
    profiled,
    sha256_hex,
    tree_cpu_s,
)
from studies import (
    attribution_metrics,
    attribution_table,
    render_figures,
)
from synth import synthetic_population, synthetic_records

USERS = 2000
PLAYS_PER_USER = 5
SHARDS = 8
TRACE_USERS = 1000
#: fig01 simulates one playback and reads no record: rendering it here
#: would put the kernel back on the one workload that must not feel it.
SIMULATED_FIGURES = ("fig01",)
RECORD_FIGURES = 28
#: Figures whose headline numbers are tallies, which both backends
#: must agree on exactly (CDF figures agree within sketch tolerance
#: past the exact limit; tier-1's parity battery owns that claim).
TALLY_FIGURES = ("fig07", "fig08", "fig09", "fig16")


class RecordPathWorkload(Workload):
    name = "record_path"

    def __init__(self, seed: int, work: Path, tracer: Tracer) -> None:
        super().__init__(seed, work, tracer)
        self.population = None
        self.records: list = []
        self._last: dict = {}

    # -- inputs -------------------------------------------------------------

    def _generate(self, users: int) -> None:
        self.population = synthetic_population(derive(self.seed, 1), users)
        self.records = synthetic_records(
            self.population, derive(self.seed, 2), PLAYS_PER_USER
        )

    def setup(self) -> None:
        self._generate(USERS)

    def discard_setup(self) -> None:
        self.population, self.records = None, []

    def extra_info(self) -> dict:
        return {"records_per_batch": len(self.records)}

    # -- the pipeline -------------------------------------------------------

    def _pipeline(self, tag: str) -> dict:
        """One pass over ``self.records``; returns what the gate checks
        and the seconds each phase took."""
        tracer = self.tracer
        records, population = self.records, self.population
        order = tuple(user.user_id for user in population.users)
        directory = self.work / f"spill-{tag}"
        phases: dict[str, float] = {}

        def phase(name: str):
            return tracer.timed(f"phase:{name}", phases, name)

        with phase("spill"):
            ranks = user_base_ranks(
                (user_id, PLAYS_PER_USER) for user_id in order
            )
            shard_of = {
                user_id: index * SHARDS // len(order)
                for index, user_id in enumerate(order)
            }
            writers = [SpillWriter(directory, s) for s in range(SHARDS)]
            parts = [
                StudyAggregates(user_base_rank=ranks) for _ in range(SHARDS)
            ]
            add_s = 0.0
            for record in records:
                shard = shard_of[record.user_id]
                writers[shard].add(record)
                started = time.perf_counter()
                parts[shard].add(record)
                add_s += time.perf_counter() - started
            spills = [ShardSpill(directory, w.finish()) for w in writers]
            for spill in spills:
                spill.verify()
            spill_bytes = sum(w.bytes_written for w in writers)
        phases["agg_add"] = add_s
        with phase("agg_roundtrip"):
            parts = [StudyAggregates.from_dict(p.to_dict()) for p in parts]
        with phase("agg_merge"):
            aggregates = parts[0]
            for part in parts[1:]:
                aggregates.merge(part)
        with phase("csv_export"):
            spilled = SpilledDataset(spills, order)
            streamed = "".join(spilled.iter_csv_chunks())
        with phase("figures_sketch"):
            sketch_figures, slow_a, slow_a_ms = render_figures(
                ExperimentContext(aggregates=aggregates, population=population),
                skip=SIMULATED_FIGURES,
            )
        with phase("figures_exact"):
            dataset = StudyDataset(records)
            exact_figures, slow_b, slow_b_ms = render_figures(
                ExperimentContext(dataset=dataset, population=population),
                skip=SIMULATED_FIGURES,
            )
        with phase("csv_write"):
            written = dataset.to_csv_string()
        with phase("csv_read"):
            reread = StudyDataset.from_csv_string(written)
        shutil.rmtree(directory)
        slowest, slowest_ms = max(
            (slow_a, slow_a_ms), (slow_b, slow_b_ms), key=lambda pair: pair[1]
        )
        return {
            "phases": phases, "streamed": streamed, "written": written,
            "reread": len(reread), "aggregates": aggregates,
            "sketch_figures": sketch_figures, "exact_figures": exact_figures,
            "spill_bytes": spill_bytes,
            "slowest": slowest, "slowest_ms": slowest_ms,
        }

    def batch(self, index: int) -> Batch:
        self._last = {}  # two passes' results must not be resident at once
        run = self._pipeline(str(index))
        self._last = run
        data = run["streamed"].encode()
        delivered = run["streamed"].count("\n") - 1
        return Batch(
            plays=delivered,
            attempted=len(self.records),
            failed=max(0, len(self.records) - delivered),
            csv_bytes=len(data),
            csv_sha256=sha256_hex([data]),
        )

    def verify(self) -> list[str]:
        run, errors = self._last, []
        ledger = ValidationLedger(strict=False, max_recorded=5)
        for record in self.records:
            validate_record(ledger, record)
        if ledger.summary():
            errors.append(f"synthetic records invalid: {ledger.summary()}")
        if run["streamed"] != run["written"]:
            errors.append("out-of-core CSV differs from the exact path's")
        if run["reread"] != len(self.records):
            errors.append(f"CSV read back {run['reread']} records")
        if run["aggregates"].records != len(self.records):
            errors.append(
                f"aggregates saw {run['aggregates'].records} records"
            )
        sketch = {f.figure_id: f for f in run["sketch_figures"]}
        exact = {f.figure_id: f for f in run["exact_figures"]}
        if len(sketch) != RECORD_FIGURES or len(exact) != RECORD_FIGURES:
            errors.append(
                f"{len(sketch)} sketch / {len(exact)} exact figures rendered"
            )
        for figure_id in TALLY_FIGURES:
            if sketch[figure_id].headline != exact[figure_id].headline:
                errors.append(f"{figure_id}: backends disagree on its tallies")
        return errors

    # -- traced run ---------------------------------------------------------

    def traced(self, quick: bool) -> tuple[dict, dict]:
        self._generate(100 if quick else TRACE_USERS)
        n = len(self.records)
        with self.tracer.span("workload", workload=self.name):
            with self.tracer.span("pass:untraced"):
                cpu_before = tree_cpu_s()
                started = time.perf_counter()
                self._pipeline("plain")
                plain_s = time.perf_counter() - started
                cpu_s = tree_cpu_s() - cpu_before
            with self.tracer.span("pass:traced"):
                run, traced_s, buckets, calls = profiled(
                    lambda: self._pipeline("traced")
                )
        self._last = run
        phases = run["phases"]
        metrics = attribution_metrics(buckets, calls, n)
        metrics.update({
            "core.spill_records_per_s": n / (phases["spill"] - phases["agg_add"]),
            "core.spill_mb_per_s": (
                run["spill_bytes"] / 1e6
                / (phases["spill"] - phases["agg_add"])
            ),
            "core.merge_records_per_s": n / phases["agg_merge"],
            "core.csv_export_records_per_s": n / phases["csv_export"],
            "core.csv_write_records_per_s": n / phases["csv_write"],
            "core.csv_read_records_per_s": n / phases["csv_read"],
            "analysis.agg_add_us_per_record": 1e6 * phases["agg_add"] / n,
            "analysis.agg_merge_ms": 1000.0 * phases["agg_merge"],
            "analysis.agg_roundtrip_ms": 1000.0 * phases["agg_roundtrip"],
            "experiments.figures_exact_ms": 1000.0 * phases["figures_exact"],
            "experiments.figures_sketch_ms": 1000.0 * phases["figures_sketch"],
            "experiments.figure_max_ms": run["slowest_ms"],
            "runtime.cpu_ms_per_play": 1000.0 * cpu_s / n,
            "trace.overhead_ratio": traced_s / plain_s,
        })
        data = run["streamed"].encode()
        info = {
            "traced_plays": n,
            "slowest_figure": run["slowest"],
            "attribution": attribution_table(buckets, traced_s),
            "csv_bytes": len(data),
            "csv_sha256": sha256_hex([data]),
            "errors": self.verify(),
        }
        return metrics, info
