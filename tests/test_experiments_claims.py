"""Executable claim predicates C1-C8.

``TestPinnedVerdicts`` holds every verdict, metric and note over real
studies and degenerate record sets against ``tests/data/claims_pin.json``.
Regenerate that file (only for a change that is supposed to move the
claims) with ``PYTHONPATH=src python -m tests.test_experiments_claims``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.records import ClipRecord, StudyDataset
from repro.core.study import Study
from repro.experiments.claims import (
    ALL_CLAIMS,
    FAIL,
    NOT_APPLICABLE,
    PASS,
    evaluate_claims,
)
from repro.sweep import SweepCell
from tests.test_experiments import _degenerate_variants


def record(**overrides) -> ClipRecord:
    base = dict(
        user_id="user001",
        user_country="US",
        user_state="MA",
        user_region="US/Canada",
        connection="DSL/Cable",
        pc_class="Pentium III / 256-512MB",
        server_name="US/CNN",
        server_country="US",
        server_region="US/Canada",
        clip_url="rtsp://us.cnn/clip00.rm",
        outcome="played",
        protocol="UDP",
        encoded_bandwidth_bps=225_000.0,
        encoded_frame_rate=24.0,
        measured_bandwidth_bps=210_000.0,
        measured_frame_rate=14.5,
        jitter_s=0.032,
        frames_displayed=870,
        frames_late=3,
        frames_lost=5,
        frames_thinned=0,
        rebuffer_count=0,
        rebuffer_total_s=0.0,
        initial_buffering_s=8.2,
        play_span_s=60.0,
        cpu_utilization=0.4,
        rating=-1,
    )
    base.update(overrides)
    return ClipRecord(**base)


class TestRegistry:
    def test_eight_claims_in_order(self):
        assert [c.claim_id for c in ALL_CLAIMS] == \
            [f"C{i}" for i in range(1, 9)]

    def test_evaluate_returns_one_verdict_per_claim(self):
        verdicts = evaluate_claims(StudyDataset([record()]))
        assert [v.claim_id for v in verdicts] == \
            [c.claim_id for c in ALL_CLAIMS]

    def test_empty_dataset_is_entirely_not_applicable(self):
        verdicts = evaluate_claims(StudyDataset())
        assert all(v.verdict == NOT_APPLICABLE for v in verdicts)
        assert all(v.note for v in verdicts)
        assert not any(v.passed for v in verdicts)


class TestAvailabilityC8:
    def _verdict(self, dataset):
        return next(
            v for v in evaluate_claims(dataset) if v.claim_id == "C8"
        )

    def test_ten_percent_unavailable_passes(self):
        records = [record() for _ in range(90)]
        records += [record(outcome="unavailable") for _ in range(10)]
        verdict = self._verdict(StudyDataset(records))
        assert verdict.verdict == PASS
        assert verdict.metrics["unavailable_fraction"] == pytest.approx(0.1)

    def test_half_unavailable_fails(self):
        records = [record() for _ in range(5)]
        records += [record(outcome="unavailable") for _ in range(5)]
        assert self._verdict(StudyDataset(records)).verdict == FAIL

    def test_control_failures_are_not_attempts(self):
        # 10 unavailable of 100 *reachable* attempts; the 50
        # control-failed records must not dilute the fraction.
        records = [record() for _ in range(90)]
        records += [record(outcome="unavailable") for _ in range(10)]
        records += [record(outcome="control_failed") for _ in range(50)]
        verdict = self._verdict(StudyDataset(records))
        assert verdict.metrics["unavailable_fraction"] == pytest.approx(0.1)


class TestRatingsC6:
    def _verdict(self, dataset):
        return next(
            v for v in evaluate_claims(dataset) if v.claim_id == "C6"
        )

    def test_uniform_ratings_pass(self):
        records = [
            record(rating=value) for value in range(11) for _ in range(2)
        ]
        assert self._verdict(StudyDataset(records)).verdict == PASS

    def test_degenerate_ratings_fail(self):
        records = [record(rating=9) for _ in range(20)]
        assert self._verdict(StudyDataset(records)).verdict == FAIL

    def test_too_few_ratings_not_applicable(self):
        records = [record(rating=5) for _ in range(9)]
        verdict = self._verdict(StudyDataset(records))
        assert verdict.verdict == NOT_APPLICABLE
        assert "too few" in verdict.note


class TestAccessClassesC2:
    def _verdict(self, dataset):
        return next(
            v for v in evaluate_claims(dataset) if v.claim_id == "C2"
        )

    def test_modem_clearly_worst_passes(self):
        records = []
        for _ in range(20):
            records.append(
                record(connection="56k Modem", measured_frame_rate=1.0)
            )
            records.append(
                record(connection="DSL/Cable", measured_frame_rate=12.0)
            )
            records.append(
                record(connection="T1/LAN", measured_frame_rate=13.0)
            )
        assert self._verdict(StudyDataset(records)).verdict == PASS

    def test_broadband_split_fails(self):
        # DSL far below T1 violates the "DSL ~ T1" half of the claim.
        records = []
        for _ in range(20):
            records.append(
                record(connection="56k Modem", measured_frame_rate=1.0)
            )
            records.append(
                record(connection="DSL/Cable", measured_frame_rate=2.0)
            )
            records.append(
                record(connection="T1/LAN", measured_frame_rate=13.0)
            )
        assert self._verdict(StudyDataset(records)).verdict == FAIL

    def test_missing_class_not_applicable(self):
        records = [record(connection="DSL/Cable") for _ in range(5)]
        assert self._verdict(StudyDataset(records)).verdict == \
            NOT_APPLICABLE


class TestQuarantineRefusal:
    """Above the quarantine threshold every claim refuses to judge."""

    def test_over_threshold_is_entirely_not_applicable(self):
        dataset = StudyDataset([record() for _ in range(50)])
        verdicts = evaluate_claims(dataset, quarantined_fraction=0.10)
        assert [v.verdict for v in verdicts] == \
            [NOT_APPLICABLE] * len(ALL_CLAIMS)
        assert all("quarantined" in v.note for v in verdicts)
        assert all("10.0%" in v.note for v in verdicts)

    def test_at_or_under_threshold_judges_normally(self):
        dataset = StudyDataset([record() for _ in range(50)])
        baseline = evaluate_claims(dataset)
        judged = evaluate_claims(dataset, quarantined_fraction=0.05)
        assert [v.verdict for v in judged] == \
            [v.verdict for v in baseline]

    def test_threshold_is_tunable(self):
        dataset = StudyDataset([record() for _ in range(50)])
        strict = evaluate_claims(
            dataset, quarantined_fraction=0.01,
            quarantine_threshold=0.0,
        )
        assert {v.verdict for v in strict} == {NOT_APPLICABLE}
        lax = evaluate_claims(
            dataset, quarantined_fraction=0.30,
            quarantine_threshold=0.5,
        )
        assert {v.verdict for v in lax} != {NOT_APPLICABLE}


PIN_PATH = Path(__file__).parent / "data" / "claims_pin.json"

#: Pinned studies: three stacks at four seeds, plus the golden seed at
#: the golden and benchmark scales.
PINNED_STUDIES = {
    cell.cell_id: cell
    for cell in [
        SweepCell(scenario, seed, 0.03)
        for seed in (2001, 7, 31, 1234)
        for scenario in ("baseline", "dash-abr-bbr", "all-broadband")
    ] + [SweepCell("baseline", 2001, 0.05), SweepCell("baseline", 2001, 0.15)]
}


def _claim_edge_sets() -> dict[str, list[ClipRecord]]:
    """Record sets on the edges of the n/a rules."""
    return {
        "c3-one-region": [
            record(measured_frame_rate=float(fps)) for fps in range(12)
        ],
        "c7-old-pcs-only": [
            record(pc_class=pc, measured_frame_rate=float(fps))
            for pc in ("Intel Pentium MMX / 24MB", "Pentium II / 32MB")
            for fps in range(6)
        ],
        "rated-9": [record(rating=rating) for rating in range(9)],
        "rated-10": [record(rating=rating) for rating in range(10)],
    }


def _record_sets() -> dict[str, list[ClipRecord]]:
    return {
        **{f"degenerate:{name}": records
           for name, records in sorted(_degenerate_variants().items())},
        **{f"edge:{name}": records
           for name, records in _claim_edge_sets().items()},
    }


PIN_CASES = [f"study:{cell_id}" for cell_id in PINNED_STUDIES] + list(
    _record_sets()
)


def _pinned_dataset(case: str) -> StudyDataset:
    if case.startswith("study:"):
        cell = PINNED_STUDIES[case.removeprefix("study:")]
        return Study(cell.study_config()).run()
    return StudyDataset(_record_sets()[case])


def _verdict_rows(verdicts) -> list:
    """Verdicts as JSON-exact rows, metric order included."""
    return [
        [v.claim_id, v.title, v.verdict, list(map(list, v.metrics.items())),
         v.note]
        for v in verdicts
    ]


class TestPinnedVerdicts:
    """Every verdict, title, metric (in order, bit-exact) and note."""

    @pytest.fixture(scope="class")
    def pins(self):
        return json.loads(PIN_PATH.read_text())

    def test_pins_cover_every_case(self, pins):
        assert list(pins) == PIN_CASES

    @pytest.mark.parametrize("case", [
        # the benchmark-scale study alone costs ~45 s: opt-in tier
        pytest.param(case, marks=pytest.mark.slow)
        if case.endswith("x0.15") else case
        for case in PIN_CASES
    ])
    def test_verdicts_match_pin(self, case, pins):
        rows = _verdict_rows(evaluate_claims(_pinned_dataset(case)))
        assert rows == pins[case], f"{case}: a claim verdict moved"


if __name__ == "__main__":
    PIN_PATH.write_text(json.dumps(
        {
            case: _verdict_rows(evaluate_claims(_pinned_dataset(case)))
            for case in PIN_CASES
        },
        indent=1,
    ) + "\n")
