"""WeightedCdf rank semantics on the real figure grids (hypothesis).

The aggregates-backed figures answer every CDF query through
``WeightedCdf`` — a value→count histogram with inverted-CDF rank
arithmetic — where the dataset path used ``Cdf`` over the raw sample.
The figure grids (FPS, jitter, bandwidth, rating) are adversarial for
rank arithmetic: measurements pile up on exactly-equal atoms, so every
query lands on a tie.  These properties pin the weighted and exact
forms to each other on precisely those grids, including merge-order
invariance across arbitrary shard splits — the streaming merge tree
must never be able to reorder a figure's ranks.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cdf import Cdf, WeightedCdf
from repro.analysis.sketch import QuantileSketch
from repro.experiments.figures import (
    BANDWIDTH_KBPS_GRID,
    FPS_GRID,
    JITTER_MS_GRID,
    RATING_GRID,
)

GRIDS = {
    "fps": FPS_GRID,
    "jitter_ms": JITTER_MS_GRID,
    "bandwidth_kbps": BANDWIDTH_KBPS_GRID,
    "rating": RATING_GRID,
}


def grid_samples(grid):
    """Values drawn from a figure grid plus its midpoints: maximal ties
    on the atoms the figures query, plus probes strictly between them."""
    midpoints = tuple(
        (a + b) / 2.0 for a, b in zip(grid, grid[1:])
    )
    return st.lists(
        st.sampled_from(grid + midpoints), min_size=1, max_size=120
    )


def weighted_from(values) -> WeightedCdf:
    """The histogram form of a sample — what a collapsed-but-lossless
    aggregate hands the figures."""
    tally = Counter(values)
    atoms = sorted(tally)
    return WeightedCdf(atoms, [tally[v] for v in atoms])


any_grid = st.sampled_from(sorted(GRIDS))
quantiles = st.floats(min_value=0.001, max_value=1.0)


class TestRankSemantics:
    @given(st.data(), any_grid, quantiles)
    @settings(max_examples=200, deadline=None)
    def test_at_of_percentile_covers_the_quantile(self, data, grid_name, q):
        """The defining inverted-CDF property: the value reported for
        quantile ``q`` has at least ``q`` of the mass at or below it —
        and the weighted form agrees with the exact form bit-for-bit."""
        values = data.draw(grid_samples(GRIDS[grid_name]))
        weighted = weighted_from(values)
        reference = Cdf(values)
        assert weighted.at(weighted.percentile(q)) >= q
        assert weighted.percentile(q) == reference.percentile(q)
        assert weighted.at(weighted.percentile(q)) == reference.at(
            reference.percentile(q)
        )

    @given(st.data(), any_grid, quantiles)
    @settings(max_examples=200, deadline=None)
    def test_percentile_is_an_observed_value(self, data, grid_name, q):
        """Inverted-CDF quantiles are *sample* values, never
        interpolations — a rating quantile is an actual rating."""
        values = data.draw(grid_samples(GRIDS[grid_name]))
        assert weighted_from(values).percentile(q) in set(values)

    @given(st.data(), any_grid)
    @settings(max_examples=150, deadline=None)
    def test_rank_queries_match_cdf_on_every_grid_atom(
        self, data, grid_name
    ):
        """``at``/``fraction_below``/``fraction_at_least`` agree with
        the exact form at every grid line and every midpoint — the
        exact x positions the figure tables sample."""
        grid = GRIDS[grid_name]
        values = data.draw(grid_samples(grid))
        weighted = weighted_from(values)
        reference = Cdf(values)
        assert len(weighted) == len(reference)
        probes = list(grid) + [
            (a + b) / 2.0 for a, b in zip(grid, grid[1:])
        ]
        for x in probes:
            assert weighted.at(x) == reference.at(x)
            assert weighted.fraction_below(x) == reference.fraction_below(x)
            assert weighted.fraction_at_least(x) == (
                reference.fraction_at_least(x)
            )
        assert weighted.median == reference.median
        assert weighted.mean == pytest.approx(reference.mean)
        assert weighted.series(grid) == reference.series(grid)


class TestShardSplitInvariance:
    @given(
        st.data(),
        any_grid,
        st.randoms(use_true_random=False),
        quantiles,
    )
    @settings(max_examples=150, deadline=None)
    def test_exact_merge_tree_preserves_ranks(
        self, data, grid_name, shuffler, q
    ):
        """However a study is sharded (LPT, round-robin, adversarial),
        merging the per-shard sketches in any order answers rank
        queries identically to one serial pass — in the exact regime,
        bit-for-bit against ``Cdf`` of the whole sample."""
        grid = GRIDS[grid_name]
        pairs = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(grid), st.integers(0, 4)
                ),
                min_size=1,
                max_size=80,
            )
        )
        shards: dict[int, list[float]] = {}
        for value, shard_id in pairs:
            shards.setdefault(shard_id, []).append(value)
        order = list(shards.values())
        shuffler.shuffle(order)

        merged = QuantileSketch(exact_limit=4096)
        for shard_values in order:
            shard = QuantileSketch(exact_limit=4096)
            shard.add_many(shard_values)
            merged.merge(shard)
        assert merged.is_exact

        reference = Cdf([value for value, _shard in pairs])
        cdf = merged.to_cdf()
        assert cdf.percentile(q) == reference.percentile(q)
        for x in grid:
            assert cdf.at(x) == reference.at(x)

    @given(
        st.data(),
        any_grid,
        st.randoms(use_true_random=False),
        quantiles,
    )
    @settings(max_examples=100, deadline=None)
    def test_collapsed_merge_tree_is_order_free(
        self, data, grid_name, shuffler, q
    ):
        """Past the exact limit the ranks are approximate but still a
        pure function of the observed multiset: any shard permutation
        yields the same ``WeightedCdf`` answers."""
        grid = GRIDS[grid_name]
        shards = data.draw(
            st.lists(
                st.lists(st.sampled_from(grid), min_size=0, max_size=30),
                min_size=1,
                max_size=5,
            )
        )
        if not any(shards):
            return

        def build(order):
            merged = QuantileSketch(exact_limit=0)
            for shard_values in order:
                shard = QuantileSketch(exact_limit=0)
                shard.add_many(shard_values)
                merged.merge(shard)
            return merged.to_cdf()

        baseline = build(shards)
        shuffled = list(shards)
        shuffler.shuffle(shuffled)
        other = build(shuffled)
        assert other.percentile(q) == baseline.percentile(q)
        for x in grid:
            assert other.at(x) == baseline.at(x)
        assert other.mean == baseline.mean
        assert len(other) == len(baseline)
