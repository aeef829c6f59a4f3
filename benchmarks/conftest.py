"""Shared study context for the figure benchmarks.

The study is simulated once per pytest session (scale configurable via
``REPRO_BENCH_SCALE``; the default 0.15 simulates ~430 playbacks in a
couple of minutes).  ``test_bench_figures.py`` then times each
figure's analysis over that dataset and asserts the paper's
qualitative shape.

``--quick`` shrinks the study to ``QUICK_SCALE`` and caps
pytest-benchmark at one round: it checks that the benchmarks run,
without producing publishable timings.  It does not check the shapes —
at that scale some fail for lack of data (fig08 sees 2 of the 8 server
countries, fig14 2 of the 5 server regions; fig10 and fig27 miss their
bands) — so a shape check runs at the default scale with
``--benchmark-disable`` instead.

At partial scale the assertions are deliberately loose: run
``python -m repro.experiments.runner --scale 1.0`` for the full
reproduction recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.base import ExperimentContext, make_context

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.15"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "2001"))

#: The ``--quick`` study scale: ~60 playbacks, well under a minute.
QUICK_SCALE = 0.05


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help=(
            "smoke mode: simulate the shared study at scale "
            f"{QUICK_SCALE} and run each benchmark for a single round"
        ),
    )


def pytest_configure(config: pytest.Config) -> None:
    if config.getoption("--quick", default=False):
        # One round, no warmup: assert correctness, skip the timing
        # statistics (pytest-benchmark reads these at fixture time).
        config.option.benchmark_min_rounds = 1
        config.option.benchmark_warmup = False


@pytest.fixture(scope="session")
def ablation_cache(tmp_path_factory):
    """Shared content-addressed study cache for the ablation benches.

    The ablations are thin wrappers over `repro.sweep` cells; sharing
    one cache means a cell that several benches reference (e.g. a
    common baseline) simulates once per session.
    """
    from repro.sweep import StudyCache

    return StudyCache(tmp_path_factory.mktemp("ablation-cache"))


@pytest.fixture(scope="session")
def ctx(request: pytest.FixtureRequest) -> ExperimentContext:
    scale = (
        QUICK_SCALE
        if request.config.getoption("--quick", default=False)
        else BENCH_SCALE
    )
    return make_context(seed=BENCH_SEED, scale=scale)
