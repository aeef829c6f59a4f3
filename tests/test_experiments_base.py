"""The figure table's grids and result helpers."""

from repro.analysis.cdf import Cdf
from repro.experiments.figures import (
    BANDWIDTH_KBPS_GRID,
    FPS_GRID,
    JITTER_MS_GRID,
    RATING_GRID,
    cdf_figure,
    counts_figure,
)


class TestGrids:
    def test_fps_grid_covers_paper_thresholds(self):
        assert {3.0, 15.0, 24.0} <= set(FPS_GRID)

    def test_jitter_grid_covers_paper_thresholds(self):
        assert {50.0, 300.0} <= set(JITTER_MS_GRID)

    def test_grids_sorted(self):
        for grid in (FPS_GRID, JITTER_MS_GRID, BANDWIDTH_KBPS_GRID,
                     RATING_GRID):
            assert list(grid) == sorted(grid)

    def test_rating_grid_full_scale(self):
        assert RATING_GRID[0] == 0.0
        assert RATING_GRID[-1] == 10.0


class TestCdfHelpers:
    def test_cdf_figure_assembles_result(self):
        result = cdf_figure(
            "figXX",
            "Test Figure",
            {"a": Cdf([1, 2]), "b": Cdf([3, 4])},
            (1.0, 4.0),
            "unit",
            {"metric": 0.5},
        )
        assert result.figure_id == "figXX"
        assert set(result.series) == {"a", "b"}
        assert result.headline == {"metric": 0.5}
        assert "Test Figure" in result.text
        assert "unit" in result.text

    def test_counts_figure_assembles_result(self):
        result = counts_figure(
            "figYY", "Counts", {"x": 3, "y": 7}, {"total": 10.0}
        )
        assert result.series["counts"] == [(0.0, 3.0), (1.0, 7.0)]
        assert "Counts" in result.text
        assert "7" in result.text
