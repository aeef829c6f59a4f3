"""Self-test of the perf ledger (opt-in: tier-1's ``testpaths`` is
``tests``, so run it by path)::

    python -m pytest perfledger/test_ledger_selftest.py -q

It drives ``run.py --quick --trace`` twice at the default seed and once
at another, then checks what a later PR relies on: every metric named
in ``BENCHMARK.json`` is emitted with its unit, the exact counts repeat
between two runs of the same code, spans nest, and the seed reaches
the inputs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Per-layer rows that are counts of a deterministic simulation, not
#: clock readings: two runs of the same code must agree exactly.
EXACT_METRICS = (
    "sim.calls_per_play", "net.calls_per_play", "transport.calls_per_play",
    "net.link_sends_per_play", "transport.tcp_retransmits",
    "transport.bbr_retransmits",
)


def _quick(tmp_path_factory, seed: int, tag: str) -> dict:
    out = tmp_path_factory.mktemp("ledger") / f"{tag}.json"
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--quick", "--trace",
         "--seed", str(seed), "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=1200,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def first(tmp_path_factory) -> dict:
    return _quick(tmp_path_factory, 2001, "first")


@pytest.fixture(scope="module")
def second(tmp_path_factory) -> dict:
    return _quick(tmp_path_factory, 2001, "second")


@pytest.fixture(scope="module")
def other_seed(tmp_path_factory) -> dict:
    return _quick(tmp_path_factory, 7, "other")


def test_spec_is_well_formed():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in names
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(first, workload):
    entry = first["workloads"][workload]
    timed = entry["runs"][0]
    assert timed["correct"] and timed["failed"] == 0
    assert timed["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        cell = timed["metrics"][metric["name"]]
        assert cell["unit"] == metric["unit"]
        assert cell["value"] > 0, metric["name"]
    traced = entry["traced"]
    assert traced["correct"]
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert traced["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert set(traced["info"]["measured_here"]) <= set(traced["metrics"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat(first, second, workload):
    a, b = first["workloads"][workload], second["workloads"][workload]
    for name in EXACT_METRICS:
        assert (
            a["traced"]["metrics"][name]["value"]
            == b["traced"]["metrics"][name]["value"]
        ), name
    for run_a, run_b in (
        (a["runs"][0]["info"], b["runs"][0]["info"]),
        (a["traced"]["info"], b["traced"]["info"]),
    ):
        assert run_a["csv_bytes"] == run_b["csv_bytes"] > 0
        assert run_a["csv_sha256"] == run_b["csv_sha256"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_nest_and_self_times_are_non_negative(first, workload):
    path = ROOT / first["workloads"][workload]["traced"]["info"]["trace_file"]
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    by_id = {span["id"]: span for span in spans}
    assert len(by_id) == len(spans) > 0
    assert len({span["trace"] for span in spans}) == 1
    roots = [span for span in spans if span["parent"] is None]
    assert [span["name"] for span in roots] == ["workload"]
    for span in spans:
        assert span["end"] >= span["start"]
        assert span["self"] >= 0.0
        if span["parent"] is not None:
            parent = by_id[span["parent"]]
            assert parent["start"] <= span["start"]
            assert span["end"] <= parent["end"]


def test_layer_shares_sum_to_the_profiled_total(first):
    for workload in ("rdt_study", "abr_bbr_study", "record_path"):
        table = first["workloads"][workload]["traced"]["info"]["attribution"]
        assert abs(sum(table["share"].values()) - 1.0) < 1e-9
        # Within 5 % of the profiled wall clock (ISSUE 11's criterion).
        assert 0.95 <= table["coverage"] <= 1.05, (workload, table["coverage"])


def test_the_seed_reaches_every_workload(first, other_seed):
    for workload in WORKLOADS:
        a = first["workloads"][workload]["runs"][0]
        b = other_seed["workloads"][workload]["runs"][0]
        assert b["correct"] and b["failed"] == 0
        assert a["info"]["csv_sha256"] != b["info"]["csv_sha256"], workload


def test_ledger_carries_fingerprint_and_quartiles(first):
    fingerprint = first["fingerprint"]
    for key in ("nproc", "cpu_model", "python", "numpy", "git_sha",
                "src_lines"):
        assert key in fingerprint
    assert fingerprint["src_lines"]["total"] > 10_000
    summary = first["workloads"]["rdt_study"]["summary"]["plays_per_s"]
    assert summary["n"] == 1 and summary["q1"] <= summary["median"]


def test_compare_prints_a_row_per_workload_and_metric(
    first, second, tmp_path
):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(first))
    b.write_text(json.dumps(second))
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--compare", str(a),
         str(b)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    rows = [line.split() for line in done.stdout.splitlines()]
    for workload in WORKLOADS:
        metrics = {row[1] for row in rows if row and row[0] == workload}
        assert {m["name"] for m in SPEC["end_to_end"]} <= metrics
    assert "identical" in done.stdout
