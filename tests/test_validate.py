"""repro.validate: ledger mechanics, record checks, fault injection."""

import numpy as np
import pytest

from repro.core.realtracer import RealTracer
from repro.core.submission import SubmissionSink
from repro.errors import ValidationError
from repro.net.link import Link, LinkConfig
from repro.net.packet import Packet, PacketKind
from repro.rng import RngFactory
from repro.sim.engine import EventLoop
from repro.units import kbps
from repro.validate import (
    COUNTING,
    STRICT,
    ValidationConfig,
    ValidationLedger,
    audit_link,
    audit_path,
    audit_playback,
    validate_record,
)
from repro.world.population import build_population
from tests.test_core_records import record


class TestValidationLedger:
    def test_passing_checks_count_but_stay_clean(self):
        ledger = ValidationLedger()
        assert ledger.check(True, "x.y", "fine")
        assert ledger.checks_run == 1
        assert ledger.clean
        assert ledger.total == 0
        ledger.assert_clean()

    def test_failed_check_is_counted_with_detail(self):
        ledger = ValidationLedger()
        assert not ledger.check(False, "net.link.packet_conservation", "1 != 2")
        assert ledger.total == 1
        assert ledger.counts == {"net.link.packet_conservation": 1}
        assert ledger.violations[0].invariant == "net.link.packet_conservation"
        assert "1 != 2" in str(ledger.violations[0])
        with pytest.raises(ValidationError):
            ledger.assert_clean()

    def test_strict_ledger_raises_on_first_violation(self):
        ledger = ValidationLedger(strict=True)
        with pytest.raises(ValidationError, match="a.b"):
            ledger.check(False, "a.b", "boom")

    def test_detail_cap_does_not_cap_counts(self):
        ledger = ValidationLedger(max_recorded=3)
        for _ in range(10):
            ledger.check(False, "a.b")
        assert ledger.total == 10
        assert len(ledger.violations) == 3

    def test_merge_summary_accumulates_worker_counts(self):
        ledger = ValidationLedger()
        ledger.check(False, "a.b")
        ledger.merge_summary({"a.b": 2, "c.d": 1})
        ledger.merge_summary(None)
        assert ledger.summary() == {"a.b": 3, "c.d": 1}
        assert ledger.total == 4

    def test_format_report_sorts_worst_first(self):
        ledger = ValidationLedger()
        ledger.check(False, "rare")
        for _ in range(3):
            ledger.check(False, "common")
        report = ledger.format_report()
        assert report.index("common") < report.index("rare")
        assert "4 violation(s)" in report


class TestValidationConfig:
    def test_off_by_default(self):
        config = ValidationConfig()
        assert not config.enabled
        assert not config.strict

    def test_presets(self):
        assert COUNTING.enabled and not COUNTING.strict
        assert STRICT.enabled and STRICT.strict

    def test_max_recorded_validated(self):
        with pytest.raises(ValueError):
            ValidationConfig(max_recorded=0)


class TestValidateRecord:
    def _violations(self, **overrides):
        ledger = ValidationLedger()
        validate_record(ledger, record(**overrides))
        return ledger.summary()

    def test_honest_record_is_clean(self):
        assert self._violations() == {}

    def test_negative_jitter_flagged(self):
        assert "record.jitter_non_negative" in self._violations(jitter_s=-0.1)

    def test_unknown_outcome_flagged(self):
        assert "record.outcome_vocabulary" in self._violations(outcome="maybe")

    def test_fps_must_match_frames_over_span(self):
        bad = self._violations(
            frames_displayed=100, play_span_s=10.0, measured_frame_rate=25.0
        )
        assert "record.frame_rate_consistency" in bad

    def test_fps_above_nominal_cap_flagged(self):
        bad = self._violations(
            frames_displayed=4000, play_span_s=60.0, measured_frame_rate=4000 / 60.0
        )
        assert "record.frame_rate_nominal_cap" in bad

    def test_short_span_exempt_from_cap(self):
        clean = self._violations(
            frames_displayed=50,
            play_span_s=1.0,
            measured_frame_rate=50.0,
            jitter_s=0.0,
        )
        assert "record.frame_rate_nominal_cap" not in clean

    def test_unplayed_record_must_be_empty(self):
        bad = self._violations(outcome="unavailable", protocol="")
        assert "record.unplayed_has_no_playback" in bad

    def test_jitter_requires_three_frames(self):
        bad = self._violations(
            frames_displayed=2,
            measured_frame_rate=2 / 60.0,
            jitter_s=0.05,
        )
        assert "record.jitter_needs_frames" in bad


def _drive_link(loop, link, packets=20, drain=True):
    arrivals = []
    link.connect(arrivals.append)
    for seq in range(packets):
        link.send(Packet(kind=PacketKind.DATA, size=500, flow_id=1, seq=seq))
    if drain:
        loop.run()
    return arrivals


class TestFaultInjection:
    """Corrupting one counter must produce exactly the one matching
    violation — the audits localize, they don't cascade."""

    def _audited_link(self, loss=0.0):
        loop = EventLoop()
        link = Link(
            loop,
            LinkConfig(rate_bps=kbps(500), propagation_s=0.005,
                       queue_packets=4, random_loss=loss),
            np.random.default_rng(2001),
        )
        _drive_link(loop, link)
        return link

    def test_honest_link_audits_clean(self):
        link = self._audited_link(loss=0.1)
        ledger = ValidationLedger()
        audit_link(ledger, link)
        assert ledger.clean, ledger.format_report()

    def test_packet_ledger_corruption_reported_exactly(self):
        link = self._audited_link()
        link.stats.delivered += 1  # the injected fault
        ledger = ValidationLedger()
        audit_link(ledger, link)
        assert ledger.summary() == {"net.link.packet_conservation": 1}
        assert "delivered" in str(ledger.violations[0])

    def test_byte_ledger_corruption_reported_exactly(self):
        link = self._audited_link()
        link.stats.delivered_bytes -= 100
        ledger = ValidationLedger()
        audit_link(ledger, link)
        assert ledger.summary() == {"net.link.byte_conservation": 1}

    def test_queue_counter_corruption_reported_exactly(self):
        link = self._audited_link()
        link.queue.drops += 1
        ledger = ValidationLedger()
        audit_link(ledger, link)
        assert ledger.summary() == {
            "net.queue.offer_conservation": 1,
            "net.link.drop_accounting": 1,
        }

    def test_strict_audit_raises_on_injected_fault(self):
        link = self._audited_link()
        link.stats.delivered += 1
        ledger = ValidationLedger(strict=True)
        with pytest.raises(ValidationError, match="packet_conservation"):
            audit_link(ledger, link)


@pytest.fixture(scope="module")
def validated_playback():
    """One real end-to-end playback audited with a counting ledger."""
    rngs = RngFactory(77)
    population = build_population(rngs, playlist_length=6)
    tracer = RealTracer(validation=COUNTING)
    user = next(
        u for u in population.users
        if not u.rtsp_blocked and u.connection.name == "DSL/Cable"
    )
    site, clip = population.playlist[0]
    rec = tracer.play_clip(user, site, clip, rngs.child("validated"))
    return tracer, rec


class TestPlaybackAudit:
    def test_real_playback_is_clean(self, validated_playback):
        tracer, rec = validated_playback
        assert tracer.ledger is not None
        assert tracer.ledger.checks_run > 0
        assert tracer.ledger.clean, tracer.ledger.format_report()

    def test_validation_off_keeps_no_ledger(self):
        tracer = RealTracer()
        assert tracer.ledger is None


class TestSinkValidation:
    def test_sink_validates_at_ingestion(self):
        sink = SubmissionSink(validation=COUNTING)
        sink.submit(record())
        sink.submit(record(jitter_s=-1.0))
        assert sink.ledger is not None
        assert sink.ledger.summary() == {"record.jitter_non_negative": 1}
        assert len(sink.records) == 2

    def test_sink_without_validation_has_no_ledger(self):
        sink = SubmissionSink()
        sink.submit(record())
        assert sink.ledger is None

    def test_strict_sink_rejects_bad_record(self):
        sink = SubmissionSink(validation=STRICT)
        with pytest.raises(ValidationError):
            sink.submit(record(outcome="bogus", protocol=""))


class TestDifferentialOracle:
    def test_tiny_study_matches(self):
        """``repro validate``'s oracle: the chaos matrix with only its
        control cell, the serial golden against a 2-worker run."""
        from repro.chaos.matrix import run_chaos_matrix
        from repro.core.study import StudyConfig

        report = run_chaos_matrix(
            None, StudyConfig(seed=5, scale=0.01), workers=2,
            shard_count=None, budgets=(None,),
        )
        assert report.ok, report.format()
        [control] = report.outcomes
        assert (control.cell, control.status) == ("control", "complete")
        assert control.detail == "byte-identical"
