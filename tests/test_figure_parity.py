"""Sketch-vs-exact figure parity: the battery that pins the streaming
figure backend to the in-memory one.

Three regimes are pinned:

1. **Exact regime** (golden scale): every ``QuantileSketch`` in the
   merged :class:`~repro.analysis.streaming.StudyAggregates` holds
   fewer than ``exact_limit`` raw values, so the aggregates-backed
   figures must be **byte-identical** to the dataset-backed ones —
   same ``FigureResult.text``, same canonical JSON payload, and equal
   to the checked-in ``tests/goldens/figNN.json`` files.

2. **Collapsed regime** (``exact_limit=8`` forces every sketch into
   its log-binned representation): figures stay structurally intact
   (same headline keys), tally-derived numbers stay exact, and every
   fraction-CDF sample is bracketed by the exact CDF one grid step to
   either side — the "≤ 1 grid step" contract million-user runs rely
   on.

3. **No-dataset invariant**: ``aggregation="sketch"`` must render all
   figures without ever constructing a ``StudyDataset`` (the whole
   point of the streaming backend), pinned by poisoning
   ``StudyDataset.__init__``.

Above all three sits the **rendered surface**: what ``summary.json``,
``figNN.json``/``.txt`` and the serve tier's figures endpoint emit —
text, headlines in insertion order, series in order — hashed per
context, for the golden, sketch and collapsed contexts and every
degenerate record set on both backends.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import pytest

from repro.analysis.streaming import StudyAggregates
from repro.core.records import StudyDataset
from repro.experiments.base import ExperimentContext, all_figures
from repro.experiments.goldens import (
    canonical_json,
    figure_payload,
    golden_context,
    read_golden,
    sketch_golden_context,
)

GOLDEN_DIR = Path(__file__).parent / "goldens"

FIGURES = all_figures()
FIGURE_IDS = [figure.figure_id for figure in FIGURES]

#: Figures whose registries never consult the record backend.
POPULATION_ONLY = {"fig03_04"}

#: Paper-claim booleans (0.0/1.0 verdicts): a sketch collapse is
#: allowed to flip a verdict that sits on a threshold, so these are
#: pinned to the {0, 1} domain only.
_BOOLEAN_KEYS = {"strictly_friendly", "comparable"}

#: Key tokens marking means/medians/extremes/correlations of sketched
#: metrics: pinned to a 1%-of-magnitude band in the collapsed regime.
_VALUE_TOKENS = {
    "mean", "median", "max", "min", "kbps", "spread", "correlation",
    "over",
}

#: Key tokens marking exact tallies (counts, histogram CDFs, shares):
#: identical under any sketch collapse.
_TALLY_TOKENS = {
    "n", "count", "counts", "countries", "states", "servers", "total",
    "plays", "share", "none", "unavailable", "users", "clips",
}


def _classify(key: str) -> str:
    """``boolean`` | ``value`` | ``tally`` | ``other`` for a headline key."""
    if key in _BOOLEAN_KEYS:
        return "boolean"
    tokens = set(key.split("_"))
    if tokens & _VALUE_TOKENS:
        return "value"
    if tokens & _TALLY_TOKENS:
        return "tally"
    return "other"


@pytest.fixture(scope="module")
def exact_ctx():
    return golden_context()


@pytest.fixture(scope="module")
def sketch_ctx():
    return sketch_golden_context()


@pytest.fixture(scope="module")
def collapsed_ctx(exact_ctx):
    """The golden records streamed through deliberately tiny sketches.

    ``exact_limit=8`` forces every quantile sketch past its exact
    regime, exercising the log-binned merge/query paths the exact-
    regime parity tests cannot reach.
    """
    aggregates = StudyAggregates(exact_limit=8)
    aggregates.add_many(exact_ctx.dataset)
    aggregates.flush()
    return ExperimentContext(
        aggregates=aggregates,
        population=exact_ctx.population,
        seed=exact_ctx.seed,
        scale=exact_ctx.scale,
    )


# ---------------------------------------------------------------------------
# The rendered surface, pinned per context
# ---------------------------------------------------------------------------


def surface_digest(ctx: ExperimentContext) -> str:
    """sha256 over every figure exactly as the runner and the serve
    tier emit it: id, title, text, headline items in insertion order and
    series in order, floats by ``repr`` (which also pins their type)."""
    rendered = []
    for figure in FIGURES:
        result = figure.run(ctx)
        rendered.append((
            result.figure_id,
            result.title,
            result.text,
            list(result.headline.items()),
            list(result.series.items()),
        ))
    return hashlib.sha256(repr(rendered).encode()).hexdigest()


def degenerate_context(variant: str, backend: str) -> ExperimentContext:
    """One of ``tests/test_experiments.py``'s degenerate record sets on
    the ``exact`` or ``sketch`` backend."""
    from repro.rng import RngFactory
    from repro.world.population import build_population
    from tests.test_experiments import _degenerate_variants

    records = _degenerate_variants()[variant]
    population = build_population(RngFactory(0), playlist_length=5)
    if backend == "exact":
        return ExperimentContext(
            dataset=StudyDataset(records), population=population,
            seed=0, scale=1.0,
        )
    aggregates = StudyAggregates()
    aggregates.add_many(records)
    aggregates.flush()
    return ExperimentContext(
        aggregates=aggregates, population=population, seed=0, scale=1.0,
    )


#: Context -> surface digest.  The study contexts are this module's
#: fixtures; ``variant/backend`` ones come from `degenerate_context`.
#: A refactor must not move any; a change that is supposed to move
#: results regenerates them with `surface_digest`.
SURFACE_PINS = {
    "golden":
        "8e24c354a1ca96fccee4636510740ee6c2c1ffe6df40b00c2b609c40044a4728",
    "sketch":
        "8e24c354a1ca96fccee4636510740ee6c2c1ffe6df40b00c2b609c40044a4728",
    "collapsed":
        "bbc64c47235c88a4f3142af6d660f03f704383e02da9fd63ad2553d4b8c1bdd4",
    "abr-all-stall/exact":
        "837ac1bb488e34c1e69b76ea6e89586e11dda35f83411884ad737c63a0da1277",
    "abr-all-stall/sketch":
        "837ac1bb488e34c1e69b76ea6e89586e11dda35f83411884ad737c63a0da1277",
    "abr-one-level/exact":
        "e12d741c81fc0297683ca0ae2eef098973fc8425bef9cf5c477cb4181d4ebccb",
    "abr-one-level/sketch":
        "e12d741c81fc0297683ca0ae2eef098973fc8425bef9cf5c477cb4181d4ebccb",
    "all-unavailable/exact":
        "19f9254c7a9b96f80bae0c2edbd6a8155a26ac8e2760db28bc47baac954a3101",
    "all-unavailable/sketch":
        "19f9254c7a9b96f80bae0c2edbd6a8155a26ac8e2760db28bc47baac954a3101",
    "control-failures-only/exact":
        "92ca1aadfea1424e7cd54695605a9e42e8814230eea4de78a6776331bef63b05",
    "control-failures-only/sketch":
        "92ca1aadfea1424e7cd54695605a9e42e8814230eea4de78a6776331bef63b05",
    "empty/exact":
        "e4a53afe1131367bdf1d02f32b5607d2243b71994fad187f7ada9610a83379ae",
    "empty/sketch":
        "e4a53afe1131367bdf1d02f32b5607d2243b71994fad187f7ada9610a83379ae",
    "never-rated/exact":
        "6cb652ef90f42631fd0785eb0f812dbb5ec6b2888dff916566ae148edec6684a",
    "never-rated/sketch":
        "6cb652ef90f42631fd0785eb0f812dbb5ec6b2888dff916566ae148edec6684a",
    "no-jitter-samples/exact":
        "398369d120a1eecb19b925ffb2ce8d2d36e127b9cd4d0abf6b5d2c6ac1cfebd4",
    "no-jitter-samples/sketch":
        "398369d120a1eecb19b925ffb2ce8d2d36e127b9cd4d0abf6b5d2c6ac1cfebd4",
    "single-record/exact":
        "8095c5e0761bd5c1aa2398b119a64ba16313f021f8ac97010bf05e1f553f6d95",
    "single-record/sketch":
        "8095c5e0761bd5c1aa2398b119a64ba16313f021f8ac97010bf05e1f553f6d95",
    "single-unrated-tcp/exact":
        "a86c014145ea4bff94c441172de02502cc70a347821388a4a8e22fc38a1ec8d2",
    "single-unrated-tcp/sketch":
        "a86c014145ea4bff94c441172de02502cc70a347821388a4a8e22fc38a1ec8d2",
}
_FIXTURES = {
    "golden": "exact_ctx", "sketch": "sketch_ctx",
    "collapsed": "collapsed_ctx",
}


@pytest.mark.parametrize("context_id", list(SURFACE_PINS))
def test_rendered_surface_pinned(context_id, request):
    if context_id in _FIXTURES:
        ctx = request.getfixturevalue(_FIXTURES[context_id])
    else:
        ctx = degenerate_context(*context_id.split("/"))
    assert surface_digest(ctx) == SURFACE_PINS[context_id], (
        f"{context_id}: a figure's text, headline order/values or "
        "series moved"
    )


# ---------------------------------------------------------------------------
# Regime 1: exact-regime byte identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("figure", FIGURES, ids=FIGURE_IDS)
def test_sketch_text_byte_identical_to_exact(figure, exact_ctx, sketch_ctx):
    exact = figure.run(exact_ctx)
    sketch = figure.run(sketch_ctx)
    assert sketch.text == exact.text, (
        f"{figure.figure_id}: aggregates-backed rendering drifted from "
        "the dataset-backed one at golden scale, where every sketch is "
        "in its exact regime and the two must be byte-identical"
    )


@pytest.mark.parametrize("figure", FIGURES, ids=FIGURE_IDS)
def test_sketch_payload_byte_identical_to_exact(figure, exact_ctx, sketch_ctx):
    exact = canonical_json(figure_payload(figure.run(exact_ctx)))
    sketch = canonical_json(figure_payload(figure.run(sketch_ctx)))
    assert sketch == exact


@pytest.mark.parametrize("figure", FIGURES, ids=FIGURE_IDS)
def test_sketch_figure_matches_aggregates_golden(figure, sketch_ctx):
    """The sketch backend renders the exact backend's ``figNN.json``
    golden: one golden family for both."""
    recomputed = canonical_json(figure_payload(figure.run(sketch_ctx)))
    assert recomputed == read_golden(GOLDEN_DIR, figure.figure_id), (
        f"{figure.figure_id} (sketch backend) drifted from its golden.\n"
        "If this change is *supposed* to alter results, regenerate with "
        "scripts/regen_goldens.py and justify the shift in the commit."
    )


@pytest.mark.parametrize("figure", FIGURES, ids=FIGURE_IDS)
def test_serialization_roundtrip_renders_identically(figure, sketch_ctx):
    """``to_dict``/``from_dict`` must preserve figure rendering exactly
    (the serve tier ships aggregates as JSON between processes)."""
    original = figure.run(sketch_ctx)
    revived = StudyAggregates.from_dict(
        json.loads(json.dumps(sketch_ctx.aggregates.to_dict()))
    )
    roundtrip_ctx = ExperimentContext(
        aggregates=revived,
        population=sketch_ctx.population,
        seed=sketch_ctx.seed,
        scale=sketch_ctx.scale,
    )
    roundtrip = figure.run(roundtrip_ctx)
    assert roundtrip.text == original.text
    assert canonical_json(figure_payload(roundtrip)) == canonical_json(
        figure_payload(original)
    )


# ---------------------------------------------------------------------------
# Regime 2: collapsed sketches stay within one grid step
# ---------------------------------------------------------------------------


def _is_fraction_cdf(points) -> bool:
    """True for series whose y values are CDF fractions (in [0, 1],
    non-decreasing in x); counts/coded series are excluded — those are
    tally-derived and asserted exactly instead."""
    ys = [y for _, y in points]
    return (
        len(ys) > 1
        and all(0.0 <= y <= 1.0 for y in ys)
        and all(a <= b for a, b in zip(ys, ys[1:]))
    )


@pytest.mark.parametrize("figure", FIGURES, ids=FIGURE_IDS)
def test_collapsed_headline_keys_match(figure, exact_ctx, collapsed_ctx):
    exact = figure.run(exact_ctx)
    collapsed = figure.run(collapsed_ctx)
    assert set(collapsed.headline) == set(exact.headline), (
        f"{figure.figure_id}: collapsing the sketches changed the "
        "headline *structure*, not just the numbers"
    )
    for key, value in collapsed.headline.items():
        assert math.isfinite(value), f"{figure.figure_id}.{key} = {value}"


@pytest.mark.parametrize("figure", FIGURES, ids=FIGURE_IDS)
def test_collapsed_headlines_pinned_by_class(
    figure, exact_ctx, collapsed_ctx
):
    """Every headline key is pinned according to what produced it:

    - *tally* keys (counts, shares, histogram CDFs) never pass through
      a quantile sketch, so collapse must not move them at all;
    - *value* keys (means/medians/extremes/correlations of sketched
      metrics) stay in a 1%-of-magnitude band (worst observed drift at
      ``exact_limit=8`` is 0.54%, on a difference of means);
    - *boolean* paper verdicts may flip at a threshold but must stay
      in {0, 1};
    - everything else (at-threshold CDF fractions) is bounded by the
      largest value atom a small group can carry (observed max shift
      0.23 on a 31-record group).
    """
    exact = figure.run(exact_ctx).headline
    collapsed = figure.run(collapsed_ctx).headline
    for key, value in exact.items():
        found = collapsed[key]
        kind = _classify(key)
        label = f"{figure.figure_id}.{key} ({kind}): {found} vs {value}"
        if kind == "boolean":
            assert found in (0.0, 1.0), label
        elif kind == "value":
            assert abs(found - value) <= 0.01 * (1.0 + abs(value)), label
        elif kind == "tally":
            assert found == value, label
        else:
            assert abs(found - value) <= 0.30 * (1.0 + abs(value)), label


@pytest.mark.parametrize("figure", FIGURES, ids=FIGURE_IDS)
def test_collapsed_cdf_series_within_one_grid_step(
    figure, exact_ctx, collapsed_ctx
):
    """Every collapsed fraction-CDF sample must sit between the exact
    CDF's values one grid step to either side (ends extended to 0 and
    1) — a log-binned sketch can move mass *within* a bin, never past
    a neighboring grid line."""
    if figure.figure_id in POPULATION_ONLY:
        pytest.skip("population-only figure; no sketched series")
    exact = figure.run(exact_ctx).series
    collapsed = figure.run(collapsed_ctx).series
    checked = 0
    for name, exact_points in exact.items():
        collapsed_points = collapsed.get(name)
        if collapsed_points is None:
            continue
        if not _is_fraction_cdf(exact_points):
            continue
        if len(collapsed_points) != len(exact_points):
            # fig28's scatter collapses to binned points; lengths differ
            # by design and the headline band covers it instead.
            continue
        ys = [y for _, y in exact_points]
        for i, (x, y) in enumerate(collapsed_points):
            lo = ys[i - 1] if i > 0 else 0.0
            hi = ys[i + 1] if i + 1 < len(ys) else 1.0
            assert lo - 1e-9 <= y <= hi + 1e-9, (
                f"{figure.figure_id}.{name}@{x}: collapsed value {y} "
                f"escapes the one-grid-step bracket [{lo}, {hi}]"
            )
            checked += 1
    if not exact:
        pytest.skip(f"{figure.figure_id} has no series at golden scale")


@pytest.mark.parametrize("figure", FIGURES, ids=FIGURE_IDS)
def test_collapsed_tally_series_exact(figure, exact_ctx, collapsed_ctx):
    """Bar-chart series (play counts by country/state, protocol shares,
    coded availability) come from exact tallies: byte-equal under
    collapse."""
    exact = figure.run(exact_ctx).series
    collapsed = figure.run(collapsed_ctx).series
    for name, exact_points in exact.items():
        if _is_fraction_cdf(exact_points):
            continue
        collapsed_points = collapsed.get(name)
        if collapsed_points is None or len(collapsed_points) != len(
            exact_points
        ):
            continue  # fig28 scatter: representation differs by design
        if name == "scatter" or figure.figure_id == "fig28":
            continue
        assert collapsed_points == exact_points, (
            f"{figure.figure_id}.{name}: tally-derived series moved "
            "under sketch collapse"
        )


# ---------------------------------------------------------------------------
# Regime 3: sketch mode never builds a StudyDataset
# ---------------------------------------------------------------------------


def test_sketch_mode_never_constructs_study_dataset(monkeypatch):
    """The acceptance invariant: ``aggregation="sketch"`` renders all
    29 figures end-to-end without ever materializing a
    ``StudyDataset`` — pinned by making its constructor explode."""
    import repro.core.records as records
    from repro.core.study import StudyConfig
    from repro.runtime import RuntimeConfig, run_study

    def _poisoned_init(self, *args, **kwargs):
        raise AssertionError(
            "StudyDataset was constructed during a sketch-mode run"
        )

    monkeypatch.setattr(records.StudyDataset, "__init__", _poisoned_init)

    result = run_study(
        StudyConfig(seed=2001, scale=0.01, aggregation="sketch"),
        RuntimeConfig(workers=1),
    )
    assert result.aggregates is not None
    ctx = ExperimentContext(
        aggregates=result.aggregates,
        population=result.population,
        seed=2001,
        scale=0.01,
    )
    for figure in FIGURES:
        rendered = figure.run(ctx)
        assert rendered.figure_id == figure.figure_id
        assert rendered.text
