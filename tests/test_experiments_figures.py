"""Figure math validated on hand-crafted datasets.

The parametrized smoke tests (test_experiments.py) prove every figure
runs on a simulated study; these tests prove the *arithmetic* by
feeding synthetic records with known statistics.
"""

import pytest

from repro.core.records import StudyDataset
from repro.experiments.base import ExperimentContext, FigureResult, all_figures
from repro.rng import RngFactory
from repro.units import kbps
from repro.world.population import build_population
from tests.test_core_records import record


@pytest.fixture(scope="module")
def population():
    return build_population(RngFactory(0), playlist_length=5)


def render(figure_id: str, records, population) -> FigureResult:
    """The registered figure ``figure_id`` rendered over ``records``."""
    figure = next(f for f in all_figures() if f.figure_id == figure_id)
    return figure.run(ExperimentContext(
        dataset=StudyDataset(records),
        population=population,
        seed=0,
        scale=1.0,
    ))


class TestFig11Math:
    def test_fractions_exact(self, population):
        records = (
            [record(measured_frame_rate=1.0)] * 25
            + [record(measured_frame_rate=10.0)] * 50
            + [record(measured_frame_rate=20.0)] * 25
        )
        result = render("fig11", records, population)
        assert result.headline["fraction_below_3fps"] == pytest.approx(0.25)
        assert result.headline["fraction_at_least_15fps"] == pytest.approx(0.25)
        assert result.headline["mean_fps"] == pytest.approx(
            (25 * 1 + 50 * 10 + 25 * 20) / 100
        )

    def test_unplayed_excluded(self, population):
        records = [
            record(measured_frame_rate=10.0),
            record(outcome="unavailable", measured_frame_rate=0.0),
        ]
        result = render("fig11", records, population)
        assert result.headline["mean_fps"] == pytest.approx(10.0)


class TestFig16Math:
    def test_shares(self, population):
        records = [record(protocol="TCP")] * 44 + [record(protocol="UDP")] * 56
        result = render("fig16", records, population)
        assert result.headline["tcp_share"] == pytest.approx(0.44)
        assert result.headline["udp_share"] == pytest.approx(0.56)


class TestFig10Math:
    def test_per_server_and_overall(self, population):
        records = (
            [record(server_name="A")] * 9
            + [record(server_name="A", outcome="unavailable")]
            + [record(server_name="B")] * 5
            # control failures are excluded from this figure entirely
            + [record(server_name="B", outcome="control_failed")] * 5
        )
        result = render("fig10", records, population)
        assert result.headline["overall_unavailable"] == pytest.approx(1 / 15)
        assert result.headline["servers"] == 2.0


class TestFig20Math:
    def test_thresholds(self, population):
        records = (
            [record(jitter_s=0.010)] * 52
            + [record(jitter_s=0.100)] * 33
            + [record(jitter_s=0.500)] * 15
        )
        result = render("fig20", records, population)
        assert result.headline["fraction_imperceptible"] == pytest.approx(0.52)
        assert result.headline["fraction_unacceptable"] == pytest.approx(0.15)

    def test_zero_frame_records_excluded(self, population):
        records = [
            record(jitter_s=0.010),
            record(jitter_s=0.010),
            record(jitter_s=0.010),
            # A never-rendered play has no defined jitter:
            record(jitter_s=0.0, frames_displayed=0, measured_frame_rate=0.0),
        ]
        result = render("fig20", records, population)
        assert result.headline["fraction_imperceptible"] == 1.0


class TestFig26Math:
    def test_mean_and_uniformity(self, population):
        # A perfectly uniform rating sample 0..10.
        records = [record(rating=r) for r in range(11)] * 10
        result = render("fig26", records, population)
        assert result.headline["mean_rating"] == pytest.approx(5.0)
        assert result.headline["uniformity_deviation"] < 0.05

    def test_unrated_excluded(self, population):
        records = [record(rating=8)] * 3 + [record(rating=-1)] * 7
        result = render("fig26", records, population)
        assert result.headline["rated_count"] == 3.0
        assert result.headline["mean_rating"] == pytest.approx(8.0)


class TestFig27Math:
    def test_per_connection_means(self, population):
        records = (
            [record(connection="56k Modem", rating=3)] * 10
            + [record(connection="DSL/Cable", rating=6)] * 10
            + [record(connection="T1/LAN", rating=5)] * 10
        )
        result = render("fig27", records, population)
        assert result.headline["modem_mean"] == pytest.approx(3.0)
        assert result.headline["dsl_mean"] == pytest.approx(6.0)
        assert result.headline["modem_over_dsl"] == pytest.approx(0.5)


class TestFig28Math:
    def test_correlation_and_high_bw_floor(self, population):
        records = [
            record(measured_bandwidth_bps=kbps(50 + 40 * i), rating=2 + i % 7)
            for i in range(30)
        ] + [record(measured_bandwidth_bps=kbps(400), rating=9)] * 3
        result = render("fig28", records, population)
        assert -1.0 <= result.headline["global_correlation"] <= 1.0
        assert result.headline["min_rating_above_300k"] >= 2


class TestFig17Math:
    def test_gap_computed(self, population):
        records = (
            [record(protocol="TCP", measured_frame_rate=2.0)] * 28
            + [record(protocol="TCP", measured_frame_rate=12.0)] * 72
            + [record(protocol="UDP", measured_frame_rate=2.0)] * 22
            + [record(protocol="UDP", measured_frame_rate=12.0)] * 78
        )
        result = render("fig17", records, population)
        assert result.headline["tcp_below_3fps"] == pytest.approx(0.28)
        assert result.headline["udp_below_3fps"] == pytest.approx(0.22)


class TestFig12Math:
    def test_connection_keys_present(self, population):
        records = (
            [record(connection="56k Modem", measured_frame_rate=1.0)] * 6
            + [record(connection="DSL/Cable", measured_frame_rate=16.0)] * 6
            + [record(connection="T1/LAN", measured_frame_rate=16.0)] * 6
        )
        result = render("fig12", records, population)
        assert result.headline["56k_below_3fps"] == 1.0
        assert result.headline["dsl_at_least_15fps"] == 1.0
        assert result.headline["t1_at_least_15fps"] == 1.0


class TestFig25Math:
    def test_bins_split_correctly(self, population):
        records = (
            [record(measured_bandwidth_bps=kbps(5), jitter_s=0.8)] * 5
            + [record(measured_bandwidth_bps=kbps(50), jitter_s=0.1)] * 5
            + [record(measured_bandwidth_bps=kbps(300), jitter_s=0.01)] * 5
        )
        result = render("fig25", records, population)
        assert result.headline["low_bw_imperceptible"] == 0.0
        assert result.headline["high_bw_imperceptible"] == 1.0
