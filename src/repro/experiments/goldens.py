"""Golden-figure snapshots: byte-exact JSON pins for every figure.

A golden is the canonical JSON serialization of a figure's numeric
content (series and headline numbers) computed from a small pinned-seed
study.  ``tests/test_goldens.py`` recomputes every figure and compares
against the checked-in files **byte for byte**, which is what lets
hot-path optimizations prove they changed nothing: floats are
serialized with ``repr`` round-tripping, so even a last-ulp drift in
any figure fails the suite.

Regenerate deliberately with ``scripts/regen_goldens.py`` after a
change that is *supposed* to move results (and say why in the commit).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments.base import ExperimentContext, all_figures, make_context

#: The pinned study every golden is computed from.  Small enough to run
#: in tier-1 CI, large enough that all figures have data.
GOLDEN_SEED = 2001
GOLDEN_SCALE = 0.05

#: Bumped when the golden file layout (not the numbers) changes.
GOLDEN_FORMAT = 1


def figure_payload(result) -> dict:
    """The JSON-ready numeric content of a ``FigureResult``.

    The printable ``text`` rendering is deliberately excluded: goldens
    pin the numbers, not the table formatting.
    """
    return {
        "figure_id": result.figure_id,
        "title": result.title,
        "series": {
            name: [[float(x), float(y)] for x, y in points]
            for name, points in sorted(result.series.items())
        },
        "headline": {
            key: float(value)
            for key, value in sorted(result.headline.items())
        },
    }


def canonical_json(payload: dict) -> str:
    """Deterministic serialization used for both writing and diffing.

    ``json.dumps`` emits ``repr``-style shortest round-trip floats, so
    equal strings imply bit-equal doubles.
    """
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def golden_context() -> ExperimentContext:
    """Run the pinned golden study."""
    return make_context(seed=GOLDEN_SEED, scale=GOLDEN_SCALE)


def sketch_golden_context() -> ExperimentContext:
    """Run the pinned golden study in streaming (sketch) mode.

    The runtime shards the study, spills records out-of-core, and
    merges per-shard :class:`~repro.analysis.streaming.StudyAggregates`
    — the figure backend million-user studies use.  At golden scale
    every sketch stays in its exact regime, so figures rendered from
    this context must match the same ``figNN.json`` goldens byte for
    byte (pinned by ``tests/test_figure_parity.py``).
    """
    from repro.core.study import StudyConfig
    from repro.runtime import RuntimeConfig, run_study

    result = run_study(
        StudyConfig(
            seed=GOLDEN_SEED, scale=GOLDEN_SCALE, aggregation="sketch"
        ),
        RuntimeConfig(workers=1),
    )
    return ExperimentContext(
        aggregates=result.aggregates,
        population=result.population,
        seed=GOLDEN_SEED,
        scale=GOLDEN_SCALE,
    )


def write_goldens(ctx: ExperimentContext, directory: str | Path) -> list[Path]:
    """Compute every figure from ``ctx`` and write one golden per figure.

    Returns the written paths (``meta.json`` first).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta = {
        "format": GOLDEN_FORMAT,
        "seed": ctx.seed,
        "scale": ctx.scale,
        "records": len(ctx.dataset),
        "figures": [figure.figure_id for figure in all_figures()],
    }
    written = [directory / "meta.json"]
    written[0].write_text(canonical_json(meta))
    for figure in all_figures():
        payload = figure_payload(figure.run(ctx))
        path = directory / f"{figure.figure_id}.json"
        path.write_text(canonical_json(payload))
        written.append(path)
    return written


def read_golden(directory: str | Path, figure_id: str) -> str:
    """The stored canonical JSON text for one figure."""
    return (Path(directory) / f"{figure_id}.json").read_text()


def read_meta(directory: str | Path) -> dict:
    """The golden run's metadata (seed, scale, record count)."""
    return json.loads((Path(directory) / "meta.json").read_text())
