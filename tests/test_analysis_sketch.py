"""The streaming sketches: exactness, tolerance, merge algebra.

S5 of the streaming record path: property tests pin (a) sketch
quantiles/means against their exact counterparts within a fixed
tolerance on adversarial distributions, and (b) merge
order-independence — the queryable state of a merged sketch is a pure
function of the observed multiset, never of how shards were paired or
ordered.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cdf import Cdf, WeightedCdf
from repro.analysis.sketch import (
    MIN_MAGNITUDE,
    QuantileSketch,
    StreamingCorrelation,
    StreamingMoments,
)
from repro.analysis.stats import correlation
from repro.errors import AnalysisError

#: Pinned sketch tolerance: binned quantiles are bin representatives,
#: each within ``relative_accuracy`` of anything its bin covers; 2x
#: leaves headroom for the representative sitting on the far side of
#: the true value.
QUANTILE_REL_TOL = 2.0

#: Study measurements (fps/bps/ms/ratings) are zero or a sane
#: magnitude; squaring a ~1e-160 co-moment underflows to subnormals
#: and makes *any* correlation implementation lose digits, so tiny
#: magnitudes are snapped to zero rather than asserted about.
measurements = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
).map(lambda v: 0.0 if abs(v) < 1e-9 else v)
quantiles = st.floats(min_value=0.001, max_value=1.0)


def canonical(sketch: QuantileSketch) -> tuple:
    """Order-free fingerprint of everything a sketch can answer."""
    if sketch.count == 0:
        return (0,)
    if sketch.is_exact:
        payload = tuple(sorted(sketch.to_dict()["values"]))
    else:
        payload = tuple(sorted(sketch.to_dict()["bins"].items()))
    return (
        sketch.count, sketch.minimum, sketch.maximum,
        sketch.is_exact, payload,
    )


class TestExactPhase:
    def test_is_the_sample_below_the_limit(self):
        sketch = QuantileSketch(exact_limit=10)
        sketch.add_many([3.0, 1.0, 2.0])
        assert sketch.is_exact
        cdf = sketch.to_cdf()
        assert isinstance(cdf, Cdf)
        assert cdf.percentile(0.5) == Cdf([1.0, 2.0, 3.0]).percentile(0.5)

    def test_collapses_exactly_past_the_limit(self):
        sketch = QuantileSketch(exact_limit=5)
        sketch.add_many(range(5))
        assert sketch.is_exact
        sketch.add(5.0)
        assert not sketch.is_exact
        assert sketch.count == 6
        assert isinstance(sketch.to_cdf(), WeightedCdf)

    def test_empty_sketch_refuses_queries(self):
        sketch = QuantileSketch()
        with pytest.raises(AnalysisError):
            sketch.to_cdf()
        with pytest.raises(AnalysisError):
            sketch.minimum

    def test_mismatched_parameters_refuse_to_merge(self):
        with pytest.raises(AnalysisError):
            QuantileSketch(exact_limit=8).merge(QuantileSketch(exact_limit=9))


class TestQuantileTolerance:
    @given(st.lists(measurements, min_size=1, max_size=300), quantiles)
    @settings(max_examples=200, deadline=None)
    def test_binned_quantiles_within_pinned_tolerance(self, values, q):
        sketch = QuantileSketch(exact_limit=0)  # force binning throughout
        sketch.add_many(values)
        exact = Cdf(values).percentile(q)
        approx = sketch.percentile(q)
        if abs(exact) <= MIN_MAGNITUDE:
            assert abs(approx) <= MIN_MAGNITUDE
        else:
            tolerance = QUANTILE_REL_TOL * sketch.relative_accuracy
            assert abs(approx - exact) <= tolerance * abs(exact)
            assert math.copysign(1.0, approx) == math.copysign(1.0, exact)

    @given(st.lists(measurements, min_size=1, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_exact_phase_quantiles_are_the_samples(self, values):
        sketch = QuantileSketch(exact_limit=1000)
        sketch.add_many(values)
        reference = Cdf(values)
        for q in (0.1, 0.25, 0.5, 0.75, 0.9, 1.0):
            assert sketch.percentile(q) == reference.percentile(q)

    def test_heavy_tailed_at_scale(self):
        rng = np.random.default_rng(7)
        values = rng.lognormal(mean=4.0, sigma=2.5, size=20_000)
        sketch = QuantileSketch(exact_limit=1024)
        sketch.add_many(values)
        assert not sketch.is_exact
        reference = Cdf(values)
        tolerance = QUANTILE_REL_TOL * sketch.relative_accuracy
        for q in (0.01, 0.1, 0.5, 0.9, 0.99, 0.999):
            exact = reference.percentile(q)
            assert abs(sketch.percentile(q) - exact) <= tolerance * exact

    def test_constant_distribution_is_recovered(self):
        sketch = QuantileSketch(exact_limit=4)
        sketch.add_many([42.0] * 100)
        assert not sketch.is_exact
        tolerance = QUANTILE_REL_TOL * sketch.relative_accuracy
        for q in (0.001, 0.5, 1.0):
            assert abs(sketch.percentile(q) - 42.0) <= tolerance * 42.0

    @given(st.lists(measurements, min_size=1, max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_min_max_are_exact_even_when_binned(self, values):
        sketch = QuantileSketch(exact_limit=0)
        sketch.add_many(values)
        assert sketch.minimum == min(values)
        assert sketch.maximum == max(values)


class TestWeightedCdfEquivalence:
    @given(
        st.lists(
            st.tuples(measurements, st.integers(min_value=1, max_value=9)),
            min_size=1,
            max_size=60,
        ),
        quantiles,
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_cdf_on_the_expanded_multiset(self, pairs, q):
        weighted = WeightedCdf(
            (value for value, _count in pairs),
            (count for _value, count in pairs),
        )
        expanded = [v for v, count in pairs for _ in range(count)]
        reference = Cdf(expanded)
        assert weighted.percentile(q) == reference.percentile(q)
        probe = expanded[len(expanded) // 2]
        assert weighted.at(probe) == reference.at(probe)
        assert weighted.mean == pytest.approx(reference.mean)


class TestMergeOrderIndependence:
    @given(
        st.lists(
            st.lists(measurements, min_size=0, max_size=40),
            min_size=1,
            max_size=6,
        ),
        st.randoms(use_true_random=False),
        st.integers(min_value=0, max_value=64),
    )
    @settings(max_examples=150, deadline=None)
    def test_any_shard_permutation_yields_the_same_sketch(
        self, shards, shuffler, exact_limit
    ):
        def build(order):
            merged = QuantileSketch(exact_limit=exact_limit)
            for shard_values in order:
                shard = QuantileSketch(exact_limit=exact_limit)
                shard.add_many(shard_values)
                merged.merge(shard)
            return merged

        baseline = build(shards)
        shuffled = list(shards)
        shuffler.shuffle(shuffled)
        assert canonical(build(shuffled)) == canonical(baseline)
        # The collapse threshold is order-independent too.
        total = sum(len(s) for s in shards)
        assert baseline.is_exact == (total <= exact_limit)

    @given(
        st.lists(
            st.lists(measurements, min_size=0, max_size=40),
            min_size=1,
            max_size=6,
        ),
        st.integers(min_value=0, max_value=64),
    )
    @settings(max_examples=100, deadline=None)
    def test_merge_equals_streaming_the_whole_sample(
        self, shards, exact_limit
    ):
        merged = QuantileSketch(exact_limit=exact_limit)
        for shard_values in shards:
            shard = QuantileSketch(exact_limit=exact_limit)
            shard.add_many(shard_values)
            merged.merge(shard)
        streamed = QuantileSketch(exact_limit=exact_limit)
        for shard_values in shards:
            streamed.add_many(shard_values)
        assert canonical(merged) == canonical(streamed)

    @given(st.lists(measurements, min_size=1, max_size=120))
    @settings(max_examples=100, deadline=None)
    def test_serialization_round_trip_preserves_state(self, values):
        sketch = QuantileSketch(exact_limit=16)
        sketch.add_many(values)
        import json

        restored = QuantileSketch.from_dict(
            json.loads(json.dumps(sketch.to_dict()))
        )
        assert canonical(restored) == canonical(sketch)


class TestStreamingMoments:
    @given(st.lists(measurements, min_size=1, max_size=300))
    @settings(max_examples=150, deadline=None)
    def test_matches_numpy_within_tolerance(self, values):
        moments = StreamingMoments()
        moments.add_many(values)
        scale = max(1.0, max(abs(v) for v in values))
        assert moments.count == len(values)
        assert abs(moments.mean - np.mean(values)) <= 1e-8 * scale
        assert abs(moments.variance - np.var(values)) <= 1e-6 * scale**2

    @given(
        st.lists(
            st.lists(measurements, min_size=0, max_size=60),
            min_size=2,
            max_size=5,
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_merge_is_order_insensitive(self, shards, shuffler):
        def build(order):
            merged = StreamingMoments()
            for shard_values in order:
                shard = StreamingMoments()
                shard.add_many(shard_values)
                merged.merge(shard)
            return merged

        baseline = build(shards)
        shuffled = list(shards)
        shuffler.shuffle(shuffled)
        other = build(shuffled)
        assert other.count == baseline.count
        if baseline.count:
            flat = [v for shard_values in shards for v in shard_values]
            scale = max(1.0, max(abs(v) for v in flat))
            assert abs(other.mean - baseline.mean) <= 1e-8 * scale
            assert (
                abs(other.variance - baseline.variance) <= 1e-6 * scale**2
            )


def correlation_tolerance(xs, ys) -> float:
    """How closely two correct Pearson implementations can be asked to
    agree on this data: 1e-6, plus the digits cancellation takes.

    Both centre the data on a mean that carries a rounding error of
    about ``eps * |x|``; measured against the spread that is
    ``eps * |x| / std(x)`` — the data's conditioning, ~1 for samples
    around zero, ~2e11 for 7.3e11 +- 4.  The factor 16 is headroom over
    the worst ratio seen (1.8, over 20,000 clustered streams of up to
    200 points).  Zero spread needs no allowance: both report exactly 0.
    """
    eps = float(np.finfo(float).eps)

    def conditioning(values) -> float:
        spread = float(np.std(values))
        return max(abs(v) for v in values) / spread if spread > 0.0 else 0.0

    return 1e-6 + 16.0 * eps * max(conditioning(xs), conditioning(ys))


class TestStreamingCorrelation:
    @staticmethod
    def check_against_batch(pairs):
        streaming = StreamingCorrelation()
        for x, y in pairs:
            streaming.add(x, y)
        xs, ys = [x for x, _y in pairs], [y for _x, y in pairs]
        assert streaming.correlation == pytest.approx(
            correlation(xs, ys), abs=correlation_tolerance(xs, ys)
        )

    @given(
        st.lists(
            st.tuples(measurements, measurements), min_size=2, max_size=200
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_batch_correlation(self, pairs):
        self.check_against_batch(pairs)

    @pytest.mark.parametrize("pairs", [
        # What hypothesis finds on some seeds: x clustered at 7.3e11
        # within a few units, y a 0/1 flag.  Exact r = -0.75592894...;
        # the Welford mean is off by an ulp of 7.3e11 (1.2e-4), so the
        # streaming value agrees to ~1e-6 and no closer.
        [(733007751709.0, 1.0), (733007751715.0, 0.0), (733007751723.0, 0.0)],
        [(366503875743.0, 1.0), (366503875747.0, 0.0), (366503875755.0, 0.0)],
        # 7.3e11 +- 4 on both axes, one value repeated.
        [(7.3e11 + dx, 7.3e11 + dy) for dx, dy in
         [(4, -4), (4, -3), (4, 0), (4, 2), (-4, 1), (-1, 4), (0, -2), (3, 3)]],
        # One value repeated throughout: zero spread, exactly 0.0 from
        # both, whatever the magnitude.
        [(7.3e11, 1.0), (7.3e11, 2.0), (7.3e11, 5.0)],
        [(0.1, 7.3e11 - 4), (0.1, 7.3e11), (0.1, 7.3e11 + 4)],
    ])
    def test_clustered_far_from_zero(self, pairs):
        self.check_against_batch(pairs)

    def test_tolerance_stays_tight_on_well_conditioned_data(self):
        """The allowance is for cancellation only: samples spread like
        study measurements are still held to 1e-6."""
        rng = np.random.default_rng(5)
        xs = rng.uniform(0.0, 30.0, size=200).tolist()
        ys = rng.uniform(0.0, 1e6, size=200).tolist()
        assert correlation_tolerance(xs, ys) < 1.001e-6
        assert correlation_tolerance([7.3e11 - 4, 7.3e11, 7.3e11 + 4], [0, 1, 0]) > 1e-4

    def test_refuses_below_two_points(self):
        streaming = StreamingCorrelation()
        streaming.add(1.0, 2.0)
        with pytest.raises(AnalysisError):
            streaming.correlation

    def test_zero_variance_reports_zero(self):
        streaming = StreamingCorrelation()
        for y in (1.0, 2.0, 3.0):
            streaming.add(5.0, y)
        assert streaming.correlation == 0.0

    def test_split_merge_matches_single_stream(self):
        rng = np.random.default_rng(11)
        xs = rng.normal(size=500)
        ys = 0.6 * xs + rng.normal(scale=0.5, size=500)
        whole = StreamingCorrelation()
        left, right = StreamingCorrelation(), StreamingCorrelation()
        for i, (x, y) in enumerate(zip(xs, ys)):
            whole.add(x, y)
            (left if i % 2 else right).add(x, y)
        left.merge(right)
        assert left.correlation == pytest.approx(whole.correlation, abs=1e-9)
