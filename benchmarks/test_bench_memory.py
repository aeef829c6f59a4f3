"""Memory ceiling of the record path: exact vs streaming.

Not a paper figure — this pins the streaming record path's tentpole
guarantee: the spill/sketch pipeline's peak allocation is bounded by
the spill batch size, not the record count, while the in-memory
(exact) path necessarily scales O(records).  Both paths push the same
synthetic records (no packet simulation — this isolates record
handling), measured under ``tracemalloc``.
"""

from __future__ import annotations

import shutil
import time
import tracemalloc

from repro.analysis.streaming import StudyAggregates
from repro.core.records import ClipRecord, StudyDataset
from repro.core.spill import ShardSpill, SpilledDataset, SpillWriter

#: Small batch + early sketch collapse so "bounded by batch" and
#: "bounded by records" are far apart at a benchmark-friendly record
#: count (production defaults just move the crossover further out).
BATCH = 256
SKETCH_EXACT_LIMIT = 512
SHARDS = 4
PLAYS_PER_USER = 8


def _record(user_index: int, position: int) -> ClipRecord:
    played = position % 7 != 0
    return ClipRecord(
        user_id=f"user{user_index:03d}",
        user_country="US" if user_index % 3 else "DE",
        user_state="MA" if user_index % 3 else "",
        user_region="US" if user_index % 3 else "Europe",
        connection=("DSL/Cable", "56k Modem", "T1/LAN")[user_index % 3],
        pc_class="High-end",
        server_name=f"site{position % 5:02d}",
        server_country="US",
        server_region="US East",
        clip_url=f"rtsp://site{position % 5:02d}.example.com/clip{position:03d}.rm",
        outcome="played" if played else "unavailable",
        protocol=("UDP" if user_index % 2 else "TCP") if played else "",
        encoded_bandwidth_bps=225_000.0,
        encoded_frame_rate=15.0,
        measured_bandwidth_bps=180_000.0 + 1000.0 * (position % 40),
        measured_frame_rate=14.0 - 0.1 * (user_index % 30),
        jitter_s=0.001 * (1 + (user_index + position) % 90),
        frames_displayed=400 + position,
        frames_late=position % 9,
        frames_lost=position % 4,
        frames_thinned=0,
        rebuffer_count=position % 3,
        rebuffer_total_s=0.5 * (position % 3),
        initial_buffering_s=2.0 + 0.01 * position,
        play_span_s=60.0,
        cpu_utilization=0.2,
        rating=(user_index + position) % 11 if position % 5 == 0 else -1,
    )


def _user_order(n_users: int) -> list[str]:
    return [f"user{i:03d}" for i in range(1, n_users + 1)]


def _shard_users(n_users: int, shard_id: int) -> range:
    return range(1 + shard_id, n_users + 1, SHARDS)


def _run_exact(n_users: int) -> int:
    """Collect-then-merge, the way the exact engine path holds records."""
    shards = []
    for shard_id in range(SHARDS):
        dataset = StudyDataset()
        for user_index in _shard_users(n_users, shard_id):
            for position in range(PLAYS_PER_USER):
                dataset.append(_record(user_index, position))
        shards.append(dataset)
    merged = StudyDataset.merged_in_user_order(shards, _user_order(n_users))
    return len(merged.to_csv_string())


def _run_streaming(n_users: int, tmp_path) -> int:
    """Spill-then-stream, the way the sketch engine path holds records."""
    directory = tmp_path / f"spill-{n_users}"
    directory.mkdir()
    aggregates = StudyAggregates(exact_limit=SKETCH_EXACT_LIMIT)
    spills = []
    for shard_id in range(SHARDS):
        writer = SpillWriter(directory, shard_id, batch_size=BATCH)
        for user_index in _shard_users(n_users, shard_id):
            for position in range(PLAYS_PER_USER):
                record = _record(user_index, position)
                writer.add(record)
                aggregates.add(record)
        spills.append(ShardSpill(directory, writer.finish()))
    dataset = SpilledDataset(spills, _user_order(n_users))
    total = 0
    for chunk in dataset.iter_csv_chunks():
        total += len(chunk)
    return total


def _peak_of(fn) -> int:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_bench_streaming_memory_ceiling(benchmark, tmp_path, capsys):
    n_users = 1600  # x 8 plays each = 12.8k records across 4 shards
    exact_peak = _peak_of(lambda: _run_exact(n_users))
    streaming_peak = _peak_of(lambda: _run_streaming(n_users, tmp_path))

    # Same records, same CSV bytes — different residency class.
    assert streaming_peak < exact_peak / 1.5, (
        f"streaming peak {streaming_peak} not well below "
        f"exact peak {exact_peak}"
    )

    # Quadrupling the records must barely move the streaming ceiling:
    # residency is spill batches + collapsed sketches, not records.
    # The exact path would (and does, above) scale linearly here.
    big_peak = _peak_of(lambda: _run_streaming(4 * n_users, tmp_path))
    assert big_peak < 1.4 * streaming_peak, (
        f"streaming peak grew {streaming_peak} -> {big_peak} "
        f"on 4x records; the ceiling is leaking"
    )

    def once():
        shutil.rmtree(tmp_path / f"spill-{n_users}")
        return _run_streaming(n_users, tmp_path)

    started = time.perf_counter()
    benchmark.pedantic(once, rounds=1, iterations=1)
    elapsed = time.perf_counter() - started
    records = n_users * PLAYS_PER_USER
    with capsys.disabled():  # shown under -q too (scripts/smoke.sh)
        print(
            f"\nstreaming record path: {records / elapsed:,.0f} records/s "
            f"untraced ({records} records, spill + sketch + CSV); "
            f"tracemalloc peaks: exact {exact_peak / 1e6:.1f} MB, "
            f"streaming {streaming_peak / 1e6:.1f} MB, "
            f"4x records {big_peak / 1e6:.1f} MB"
        )
