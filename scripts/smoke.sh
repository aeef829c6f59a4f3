#!/usr/bin/env bash
# Tier-1 smoke: the full unit suite (golden-figure regression
# included), a quick throughput benchmark (a broadband UDP play, a
# two-timeline T1/LAN play and a dash-abr-bbr play, plays/s and
# scheduled events per play), the figure benchmarks' paper-shape
# checks on the default-scale bench study, the
# perf ledger's self-test (the harness that judges each PR is itself
# checked), a tiny parallel
# study through the repro.runtime engine (2 workers, checkpointed), a
# streaming (sketch-mode) study over an expanded population plus the
# memory-ceiling benchmark, the sketch-figures stage (all 29 figures
# rendered from streamed aggregates, headline JSON diffed against an
# exact-mode run), the ABR stack smoke (a tiny dash-abr study with
# figures + claim report, byte-stability diffed across backends, and a
# dash-abr-bbr study whose CSV must not move between 2 workers and 1),
# a strict-mode validated study (every repro.validate invariant must
# hold) plus the serial-vs-parallel oracle, the corrupted-checkpoint
# resume tests, and a 2x2 scenario sweep through repro.sweep (first
# run simulates + caches, rerun must be 100% cache hits with a
# byte-identical report), the chaos smoke (a hung worker, a real
# SIGTERM and a 3000-byte disk budget against one serial golden; every
# cell complete or refused; the same plan at --workers 1 must be
# refused with exit 2),
# the service smoke (a real `repro serve` round trip: POST, SSE,
# CSV download diffed against the direct run, SIGTERM drain), and the
# disk-pressure smoke (a budget-governed sketch study must degrade at
# the soft watermark yet export a byte-identical CSV).
# Run from the repo root:  bash scripts/smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== golden-figure regression =="
python -m pytest -x -q tests/test_goldens.py

echo "== quick throughput benchmark (DSL/Cable + T1/LAN + dash-abr-bbr) =="
python -m pytest -x -q --quick benchmarks/test_bench_throughput.py

echo "== figure benchmarks (paper shapes at the default bench scale) =="
python -m pytest -q benchmarks/test_bench_figures.py --benchmark-disable

echo "== perf ledger self-test =="
python -m pytest -q perfledger/test_ledger_selftest.py

echo "== parallel study smoke (2 workers) =="
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
python -m repro.cli study --seed 2001 --scale 0.02 --workers 2 \
    --out "$out/smoke.csv" --checkpoint-dir "$out/smoke.ckpt" --quiet

python - "$out" <<'EOF'
import json, sys
from pathlib import Path
out = Path(sys.argv[1])
from repro.core.records import StudyDataset
dataset = StudyDataset.from_csv(out / "smoke.csv")
assert len(dataset) > 0, "smoke study produced no records"
manifest = json.loads((out / "smoke.ckpt" / "run_manifest.json").read_text())
assert manifest["failed_shards"] == [], manifest["failed_shards"]
assert manifest["records"] == len(dataset)
print(f"smoke ok: {len(dataset)} records, "
      f"{manifest['plays_per_second']} plays/s, "
      f"{manifest['shard_count']} shards")
EOF

echo "== streaming study smoke (expanded population, sketch mode) =="
python -m repro.cli study --seed 2001 --scale 0.02 --users 300 \
    --aggregation sketch --workers 2 --out "$out/stream.csv" --quiet

python - "$out" <<'EOF'
import json, sys
from pathlib import Path
out = Path(sys.argv[1])
from repro.core.records import StudyDataset
dataset = StudyDataset.from_csv(out / "stream.csv")
assert len({r.user_id for r in dataset}) == 300, "population not expanded"
report = json.loads((out / "stream.csv.aggregates.json").read_text())
assert report["records"] == len(dataset), (report["records"], len(dataset))
assert sum(report["by_outcome"].values()) == len(dataset)
print(f"streaming smoke ok: {len(dataset)} records from 300 users, "
      f"{len(report['distributions'])} streamed distributions")
EOF

echo "== sketch figures smoke (29 figures, headline diff vs exact) =="
python -m repro.cli figures --seed 2001 --scale 0.02 \
    --out "$out/figs-exact" --quiet
python -m repro.cli figures --seed 2001 --scale 0.02 \
    --aggregation sketch --out "$out/figs-sketch" --quiet

python - "$out" <<'EOF'
import json, sys
from pathlib import Path
out = Path(sys.argv[1])
exact = json.loads((out / "figs-exact" / "summary.json").read_text())
sketch = json.loads((out / "figs-sketch" / "summary.json").read_text())
assert len(sketch) == 29, f"expected 29 figures, got {len(sketch)}"
assert sketch == exact, "sketch-mode figure headlines drifted from exact"
report = json.loads((out / "figs-sketch" / "aggregates.json").read_text())
assert report["records"] > 0
assert not (out / "figs-exact" / "aggregates.json").exists(), (
    "exact mode must not journal aggregates"
)
print(f"figures smoke ok: {len(sketch)} figures byte-equal across "
      f"backends over {report['records']} streamed records")
EOF

echo "== ABR stack smoke (dash-abr + dash-abr-bbr studies, figures, byte-stability) =="
python -m repro.cli study --seed 2001 --scale 0.02 --scenario dash-abr \
    --workers 2 --out "$out/abr.csv" --checkpoint-dir "$out/abr.ckpt" --quiet
python -m repro.cli figures --seed 2001 --scale 0.02 --scenario dash-abr \
    --out "$out/figs-abr" --quiet
python -m repro.cli figures --seed 2001 --scale 0.02 --scenario dash-abr \
    --aggregation sketch --out "$out/figs-abr-sketch" --quiet

python - "$out" <<'EOF'
import json, sys
from pathlib import Path
out = Path(sys.argv[1])
from repro.core.records import StudyDataset
from repro.experiments.claims import evaluate_claims
dataset = StudyDataset.from_csv(out / "abr.csv")
abr = [r for r in dataset if r.is_abr]
assert abr, "dash-abr study produced no ABR records"
assert all(r.protocol == "TCP" for r in abr)
verdicts = evaluate_claims(dataset)
assert len(verdicts) == 8
exact = json.loads((out / "figs-abr" / "summary.json").read_text())
sketch = json.loads((out / "figs-abr-sketch" / "summary.json").read_text())
assert len(exact) == 29, f"expected 29 figures, got {len(exact)}"
assert exact == sketch, "ABR figure headlines drifted across backends"
assert exact["fig29"].get("n") != 0.0, "fig29 empty on a dash-abr study"
print(f"abr smoke ok: {len(abr)} ABR records, 29 figures byte-equal "
      f"across backends, claims: "
      + ", ".join(f"{v.claim_id}={v.verdict}" for v in verdicts))
EOF

# the BBR-paced sender, outside pytest: worker count must not move a byte
python -m repro.cli study --seed 2001 --scale 0.02 --scenario dash-abr-bbr \
    --workers 2 --out "$out/bbr-w2.csv" --quiet
python -m repro.cli study --seed 2001 --scale 0.02 --scenario dash-abr-bbr \
    --workers 1 --out "$out/bbr-w1.csv" --quiet
cmp "$out/bbr-w1.csv" "$out/bbr-w2.csv"
echo "bbr smoke ok: dash-abr-bbr CSV byte-identical at workers 1 and 2"

echo "== streaming memory ceiling (peak bounded by batch, not records) =="
python -m pytest -x -q benchmarks/test_bench_memory.py

echo "== strict validated study (zero violations required) =="
python -m repro.cli validate --seed 2001 --scale 0.02 --workers 2 \
    --strict --oracle-scale 0.01 --quiet

echo "== corrupted-checkpoint resume =="
python -m pytest -x -q tests/test_runtime_engine.py -k CorruptCheckpointResume

echo "== sweep reproduces the golden figures =="
python -m pytest -x -q tests/test_sweep_goldens.py

echo "== 2x2 scenario sweep (cache cold, then 100% hits) =="
python -m repro.cli sweep --spec examples/sweeps/smoke.json \
    --cache-dir "$out/sweep-cache" --report "$out/sweep1.json" --quiet
python -m repro.cli sweep --spec examples/sweeps/smoke.json \
    --cache-dir "$out/sweep-cache" --report "$out/sweep2.json" --quiet

python - "$out" <<'EOF'
import json, sys
from pathlib import Path
out = Path(sys.argv[1])
manifest = json.loads((out / "sweep-cache" / "sweep_manifest.json").read_text())
assert manifest["cells"] == 4, manifest
assert manifest["cache_hits"] == 4, (
    f"sweep rerun was not fully cached: {manifest}"
)
assert manifest["cache_misses"] == 0 and manifest["cache_evicted"] == []
first = (out / "sweep1.json").read_bytes()
second = (out / "sweep2.json").read_bytes()
assert first == second, "cached sweep rerun changed the report bytes"
report = json.loads(first)
baseline = next(c for c in report["cells"] if c["is_baseline"])
assert baseline["cell_id"] == "baseline@s2001x0.02", baseline["cell_id"]
assert baseline["records"] > 0
assert all(v == 0.0 for v in baseline["ks"].values())
print(f"sweep smoke ok: {manifest['cells']} cells, rerun all hits, "
      f"baseline {baseline['cell_id']} with {baseline['records']} records")
EOF

echo "== chaos smoke (hung worker + SIGTERM + 3000-byte budget, one golden) =="
python -m repro.cli chaos --plan examples/chaos/smoke.json \
    --scale 0.02 --workers 2 --pressure-budget 3000 \
    --report "$out/chaos.json" --quiet

python - "$out" <<'EOF'
import json, re, sys
from pathlib import Path
out = Path(sys.argv[1])
report = json.loads((out / "chaos.json").read_text())
assert report["ok"] is True, report
assert re.fullmatch(r"[0-9a-f]{64}", report["golden_sha256"]), report
outcomes = report["outcomes"]
cells = [o["cell"] for o in outcomes]
assert len(outcomes) == 4, cells  # control, two faults, one budget
assert cells[0] == "control" and cells[-1] == "budget=3000B", cells
bad = [o for o in outcomes if o["status"] not in ("complete", "refused")]
assert not bad, bad
print("chaos smoke ok: golden " + report["golden_sha256"][:12] + "; "
      + ", ".join(f"{o['cell']} -> {o['status']}" for o in outcomes))
EOF

# worker.play faults need a worker process: in-process (--workers 1)
# the same plan must be refused, not vacuously "complete"
status=0
python -m repro.cli chaos --plan examples/chaos/smoke.json \
    --scale 0.02 --workers 1 --quiet 2> "$out/chaos-w1.err" || status=$?
if [ "$status" -ne 2 ] || ! grep -q "needs workers >= 2" "$out/chaos-w1.err"
then
    echo "chaos --workers 1 should exit 2 naming the fault; got $status:" >&2
    cat "$out/chaos-w1.err" >&2
    exit 1
fi
echo "chaos smoke ok: worker.play plan refused at --workers 1"

echo "== service smoke (serve, SSE, CSV diff, second fresh seed, SIGTERM drain) =="
# reuses the parallel-study stage's CSV as the direct-run reference
python scripts/serve_smoke.py "$out/serve-smoke" "$out/smoke.csv"

echo "== disk-pressure smoke (budgeted run degrades, bytes identical) =="
# reference: an unbudgeted sketch run, measured for its disk footprint
python -m repro.cli study --seed 2001 --scale 0.02 --aggregation sketch \
    --out "$out/pressure-ref.csv" --checkpoint-dir "$out/pressure-ref.ckpt" \
    --quiet
# budget sized so the finished journal lands between the soft and hard
# watermarks: the run must degrade — never refuse — and not move a byte
budget="$(python - "$out/pressure-ref.ckpt" <<'EOF'
import sys
from repro.pressure import du_bytes
print(int(du_bytes(sys.argv[1]) / 0.85))
EOF
)"
python -m repro.cli study --seed 2001 --scale 0.02 --aggregation sketch \
    --disk-budget "$budget" \
    --out "$out/pressure.csv" --checkpoint-dir "$out/pressure.ckpt" --quiet

python - "$out" <<'EOF'
import json, sys
from pathlib import Path
out = Path(sys.argv[1])
ref = (out / "pressure-ref.csv").read_bytes()
governed = (out / "pressure.csv").read_bytes()
assert governed == ref, "budgeted sketch run changed the CSV bytes"
manifest = json.loads(
    (out / "pressure.ckpt" / "run_manifest.json").read_text()
)
assert not manifest["interrupted"], manifest
pressure = manifest["pressure"]
assert pressure["level"] == "soft", pressure
print(f"pressure smoke ok: degraded at level {pressure['level']} "
      f"({pressure['used_bytes']}/{pressure['max_bytes']} bytes), "
      f"CSV byte-identical to the unbudgeted run")
EOF

echo "== smoke passed =="
