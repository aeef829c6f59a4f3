"""Seeded synthetic ``ClipRecord`` streams for the record-path workload.

No packet simulation: records are drawn from the profiles of a
``build_population(max_users=...)`` world, so every group value a
figure breaks down by (country, state, connection, PC class, server
region, protocol, bandwidth bin) is one the real study emits, and
every record satisfies `repro.validate.invariants.validate_record`.
"""

from __future__ import annotations

import numpy as np

from repro.core.records import ClipRecord
from repro.rng import RngFactory
from repro.world.population import StudyPopulation, build_population

#: Share of attempts that find the clip unavailable / die at RTSP setup.
UNAVAILABLE_SHARE = 0.06
CONTROL_FAILED_SHARE = 0.03
#: Share of played records that carry a user rating.
RATED_SHARE = 0.2


def synthetic_population(seed: int, users: int) -> StudyPopulation:
    """The seeded world the synthetic records are drawn from."""
    return build_population(RngFactory(seed), max_users=users)


def synthetic_records(
    population: StudyPopulation, seed: int, plays_per_user: int
) -> list[ClipRecord]:
    """``plays_per_user`` records per user, in population order.

    Users stream contiguously (the order `Study.run_users` emits and
    `StudyAggregates`/`SpillWriter` expect); each user walks the first
    ``plays_per_user`` playlist entries.
    """
    rng = np.random.default_rng(seed)
    playlist = population.playlist[:plays_per_user]
    n = len(population.users) * len(playlist)
    fate = rng.random(n)
    uniform = rng.random((n, 6))
    ratings = rng.integers(0, 11, n)
    counts = rng.integers(0, 4, (n, 3))
    records = []
    i = 0
    for user in population.users:
        state = user.state if user.state is not None else ""
        for site, clip in playlist:
            common = dict(
                user_id=user.user_id,
                user_country=user.country.code,
                user_state=state,
                user_region=user.region.value,
                connection=user.connection.name,
                pc_class=user.pc.name,
                server_name=site.name,
                server_country=site.country.code,
                server_region=site.region.value,
                clip_url=clip.url,
            )
            u = uniform[i]
            if fate[i] < UNAVAILABLE_SHARE + CONTROL_FAILED_SHARE:
                records.append(_unplayed(
                    common, "unavailable" if fate[i] < UNAVAILABLE_SHARE
                    else "control_failed",
                ))
            else:
                encoded = min(
                    clip.ladder.highest.total_bps, user.client_max_bps
                )
                span = 60.0 * (0.5 + 0.5 * u[2])
                frames = int(span * 28.0 * u[1])
                rebuffers = int(counts[i][0])
                records.append(ClipRecord(
                    **common,
                    outcome="played",
                    protocol="TCP" if user.force_tcp else "UDP",
                    encoded_bandwidth_bps=float(encoded),
                    encoded_frame_rate=30.0,
                    measured_bandwidth_bps=float(encoded * (0.4 + 0.6 * u[0])),
                    measured_frame_rate=frames / span,
                    jitter_s=(
                        float(0.002 + 0.5 * u[3] ** 3) if frames >= 3 else 0.0
                    ),
                    frames_displayed=frames,
                    frames_late=int(counts[i][1]),
                    frames_lost=int(counts[i][2]),
                    frames_thinned=0,
                    rebuffer_count=rebuffers,
                    rebuffer_total_s=float(1.5 * rebuffers * u[4]),
                    initial_buffering_s=float(2.0 + 8.0 * u[4]),
                    play_span_s=float(span),
                    cpu_utilization=float(0.1 + 0.8 * u[5]),
                    rating=int(ratings[i]) if u[5] < RATED_SHARE else -1,
                ))
            i += 1
    return records


def _unplayed(common: dict, outcome: str) -> ClipRecord:
    return ClipRecord(
        **common,
        outcome=outcome,
        protocol="",
        encoded_bandwidth_bps=0.0,
        encoded_frame_rate=0.0,
        measured_bandwidth_bps=0.0,
        measured_frame_rate=0.0,
        jitter_s=0.0,
        frames_displayed=0,
        frames_late=0,
        frames_lost=0,
        frames_thinned=0,
        rebuffer_count=0,
        rebuffer_total_s=0.0,
        initial_buffering_s=-1.0,
        play_span_s=0.0,
        cpu_utilization=0.0,
        rating=-1,
    )
