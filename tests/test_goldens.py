"""Golden-figure regression suite: every figure, byte-identical.

One pinned-seed study (seed 2001, scale 0.05) is simulated once per
test session; every registered figure is then recomputed and its
canonical JSON compared **character for character** against the
checked-in snapshot under ``tests/goldens/``.  Floats serialize with
shortest-round-trip ``repr``, so a passing suite proves the simulation
and analysis pipeline produce bit-identical numbers — the contract
that lets hot-path optimizations land without re-validating the paper
reproduction.

Regenerate deliberately with ``scripts/regen_goldens.py``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.base import all_figures
from repro.experiments.goldens import (
    GOLDEN_SCALE,
    GOLDEN_SEED,
    canonical_json,
    figure_payload,
    golden_context,
    read_golden,
    read_meta,
)

GOLDEN_DIR = Path(__file__).parent / "goldens"

FIGURES = all_figures()


@pytest.fixture(scope="session")
def golden_ctx():
    return golden_context()


def test_goldens_exist_for_every_figure():
    missing = [
        figure.figure_id
        for figure in FIGURES
        if not (GOLDEN_DIR / f"{figure.figure_id}.json").exists()
    ]
    assert not missing, (
        f"no golden for {missing}; run scripts/regen_goldens.py"
    )


def test_meta_matches_pinned_study(golden_ctx):
    meta = read_meta(GOLDEN_DIR)
    assert meta["seed"] == GOLDEN_SEED
    assert meta["scale"] == GOLDEN_SCALE
    assert meta["records"] == len(golden_ctx.dataset), (
        "the pinned study produced a different number of records than "
        "when the goldens were generated — the simulation changed"
    )
    assert meta["figures"] == [figure.figure_id for figure in FIGURES]


def test_no_orphan_goldens():
    known = {figure.figure_id for figure in FIGURES} | {"meta"}
    orphans = [
        path.name
        for path in GOLDEN_DIR.glob("*.json")
        if path.stem not in known
    ]
    assert not orphans, f"goldens without a figure: {orphans}"


@pytest.mark.parametrize(
    "figure", FIGURES, ids=[figure.figure_id for figure in FIGURES]
)
def test_figure_matches_golden(figure, golden_ctx):
    recomputed = canonical_json(figure_payload(figure.run(golden_ctx)))
    stored = read_golden(GOLDEN_DIR, figure.figure_id)
    assert recomputed == stored, (
        f"{figure.figure_id} drifted from its golden snapshot.\n"
        "If this change is *supposed* to alter results, regenerate with "
        "scripts/regen_goldens.py and justify the shift in the commit."
    )
