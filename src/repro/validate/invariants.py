"""The invariant catalogue: conservation ledgers and record checks.

Every audit takes the run's :class:`~repro.validate.ledger.ValidationLedger`
first and records its checks under dotted invariant ids:

``net.link.*``
    Per-link packet and byte conservation —
    ``offered == delivered + dropped + in_flight + queued`` — plus
    queue-counter consistency (``offers == enqueued + drops``,
    ``enqueued == popped + len``).
``media.*``
    Frame conservation through the client stack —
    ``completed == late + after_stop + buffered`` at the playout
    boundary, ``pushed == offered_to_decoder + still_buffered``,
    ``offered == kept + thinned`` at the decoder — and the
    server-side bound ``frames_sent >= frames_observed``.
``transport.tcp.*`` / ``transport.udp.*``
    Sequence-number monotonicity (contiguous in-order TCP delivery,
    no duplicate UDP delivery), ack sanity, and backlog/byte
    bookkeeping.
``record.*``
    ClipRecord schema and cross-field constraints (outcome/protocol
    vocabulary, non-negative counters, jitter >= 0, frame rate
    consistent with ``frames_displayed / play_span`` and bounded by
    the codec's nominal maximum, bandwidth consistent with
    bytes/duration).

The audits read counters the stack maintains anyway (plus a handful of
cheap ones added for this purpose), so they run in microseconds per
playback — the simulation itself is 5-6 orders of magnitude slower.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.validate.config import ValidationConfig
from repro.validate.ledger import ValidationLedger

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.core.records import ClipRecord
    from repro.net.link import Link
    from repro.net.path import NetworkPath
    from repro.player.core import PlayerCore
    from repro.server.session import StreamingSession
    from repro.transport.stream import ReliableStream
    from repro.transport.udp import UdpFlow

#: The highest encoded frame rate any SureStream ladder produces
#: (``repro.media.codec._frame_rate_for_target``); no honest playback
#: can average above it.
NOMINAL_FPS_CAP = 30.0

#: Relative tolerance for float cross-checks that recompute a value
#: from its inputs (CSV round-trips go through repr, so drift is tiny).
REL_TOL = 1e-6

#: Only playbacks spanning at least this long are held to the nominal
#: frame-rate cap: a stop right after a catch-up display batch can
#: legitimately average high over a sub-second span.
FPS_CAP_MIN_SPAN_S = 5.0

_OUTCOMES = {"played", "unavailable", "control_failed"}
_PROTOCOLS = {"", "TCP", "UDP"}


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# -- net: per-hop packet and byte conservation ---------------------------


def audit_link(ledger: ValidationLedger, link: "Link", where: str = "") -> None:
    """Conservation at one hop: every packet offered to the link is
    delivered, dropped (queue or random loss), still queued, or still
    in flight (serializing/propagating when the loop stopped)."""
    stats = link.stats
    queue = link.queue
    name = where or link.config.name

    ledger.check(
        queue.offers == queue.enqueued + queue.drops,
        "net.queue.offer_conservation",
        f"{name}: offers={queue.offers} != enqueued={queue.enqueued} "
        f"+ drops={queue.drops}",
    )
    ledger.check(
        queue.enqueued == queue.popped + len(queue),
        "net.queue.occupancy_conservation",
        f"{name}: enqueued={queue.enqueued} != popped={queue.popped} "
        f"+ len={len(queue)}",
    )
    ledger.check(
        stats.offered == queue.offers,
        "net.link.offer_accounting",
        f"{name}: link offered={stats.offered} != queue offers={queue.offers}",
    )
    ledger.check(
        stats.queue_drops == queue.drops,
        "net.link.drop_accounting",
        f"{name}: link queue_drops={stats.queue_drops} != "
        f"queue drops={queue.drops}",
    )
    ledger.check(
        queue.popped
        == stats.delivered + stats.random_drops + stats.in_transit,
        "net.link.packet_conservation",
        f"{name}: popped={queue.popped} != delivered={stats.delivered} "
        f"+ random_drops={stats.random_drops} + in_flight={stats.in_transit}",
    )
    ledger.check(
        stats.offered_bytes
        == stats.delivered_bytes
        + stats.queue_dropped_bytes
        + stats.random_dropped_bytes
        + stats.in_transit_bytes
        + queue.queued_bytes,
        "net.link.byte_conservation",
        f"{name}: offered_bytes={stats.offered_bytes} != "
        f"delivered={stats.delivered_bytes} "
        f"+ queue_dropped={stats.queue_dropped_bytes} "
        f"+ random_dropped={stats.random_dropped_bytes} "
        f"+ in_flight={stats.in_transit_bytes} "
        f"+ queued={queue.queued_bytes}",
    )
    ledger.check(
        stats.in_transit >= 0 and stats.in_transit_bytes >= 0,
        "net.link.in_flight_non_negative",
        f"{name}: in_flight={stats.in_transit} "
        f"bytes={stats.in_transit_bytes}",
    )


def audit_path(ledger: ValidationLedger, path: "NetworkPath") -> None:
    """Audit every hop of a path, both directions."""
    for link in path.links:
        audit_link(ledger, link)


# -- media: frame conservation through the client stack -------------------


def audit_player(ledger: ValidationLedger, player: "PlayerCore") -> None:
    """Frames encoded = displayed + discarded + still-buffered."""
    reassembler = player.reassembler
    engine = player.engine
    buffer = engine.buffer
    decoder = player.decoder
    stats = player.stats

    ledger.check(
        reassembler.frames_completed
        == stats.frames_late + engine.frames_after_stop + buffer.frames_pushed,
        "media.playout.frame_conservation",
        f"completed={reassembler.frames_completed} != "
        f"late={stats.frames_late} + after_stop={engine.frames_after_stop} "
        f"+ pushed={buffer.frames_pushed}",
    )
    ledger.check(
        buffer.frames_pushed
        == decoder.frames_offered + len(buffer) + buffer.frames_dropped,
        "media.buffer.frame_conservation",
        f"pushed={buffer.frames_pushed} != "
        f"offered={decoder.frames_offered} + buffered={len(buffer)} "
        f"+ dropped={buffer.frames_dropped}",
    )
    ledger.check(
        decoder.frames_offered == decoder.frames_kept + decoder.frames_thinned,
        "media.decoder.frame_conservation",
        f"offered={decoder.frames_offered} != kept={decoder.frames_kept} "
        f"+ thinned={decoder.frames_thinned}",
    )
    ledger.check(
        stats.frames_displayed == decoder.frames_kept,
        "media.decoder.displayed_matches_kept",
        f"displayed={stats.frames_displayed} != kept={decoder.frames_kept}",
    )
    ledger.check(
        stats.frames_lost == reassembler.frames_expired_incomplete,
        "media.reassembly.lost_accounting",
        f"frames_lost={stats.frames_lost} != "
        f"expired={reassembler.frames_expired_incomplete}",
    )
    ledger.check(
        all(
            later >= earlier
            for earlier, later in zip(stats.frame_times, stats.frame_times[1:])
        ),
        "media.playout.display_clock_monotone",
        f"{stats.frames_displayed} display times not non-decreasing",
    )


def audit_session(
    ledger: ValidationLedger,
    session: "StreamingSession",
    player: "PlayerCore",
) -> None:
    """Server-side bound: the client cannot observe frames that were
    never sent.  Only meaningful when the data channel was not
    renegotiated mid-playback (a renegotiation discards the first
    session's frame numbering)."""
    if player.renegotiated:
        return
    reassembler = player.reassembler
    observed = (
        reassembler.frames_completed
        + reassembler.frames_expired_incomplete
        + reassembler.pending_frames
    )
    ledger.check(
        observed <= session.stats.frames_sent,
        "media.session.frames_observed_bound",
        f"observed={observed} > sent={session.stats.frames_sent}",
    )
    transport_bytes = None
    if session.tcp is not None:
        transport_bytes = session.tcp.stats.bytes_delivered
    elif session.udp is not None:
        transport_bytes = session.udp.stats.bytes_delivered
    if transport_bytes is not None:
        ledger.check(
            reassembler.bytes_received == transport_bytes,
            "media.session.byte_accounting",
            f"reassembled bytes={reassembler.bytes_received} != "
            f"transport delivered={transport_bytes}",
        )


# -- transport: sequence-number and backlog invariants --------------------


def audit_tcp(ledger: ValidationLedger, conn: "ReliableStream") -> None:
    """The stream core (under any congestion controller) delivers a
    contiguous in-order prefix; backlog bookkeeping must equal what is
    actually queued plus in flight."""
    stats = conn.stats
    ledger.check(
        stats.messages_delivered == conn._expected_seq,
        "transport.tcp.in_order_delivery",
        f"delivered={stats.messages_delivered} != "
        f"expected_seq={conn._expected_seq}",
    )
    ledger.check(
        conn._highest_acked < conn._next_seq,
        "transport.tcp.ack_bound",
        f"highest_acked={conn._highest_acked} >= next_seq={conn._next_seq}",
    )
    ledger.check(
        conn._expected_seq <= conn._next_seq,
        "transport.tcp.seq_monotone",
        f"receiver expected_seq={conn._expected_seq} > "
        f"sender next_seq={conn._next_seq}",
    )
    actual_backlog = sum(size for _payload, size in conn._send_queue) + sum(
        segment.size for segment in conn._in_flight.values()
    )
    ledger.check(
        conn.backlog_bytes == actual_backlog,
        "transport.tcp.backlog_conservation",
        f"backlog_bytes={conn.backlog_bytes} != queued+in_flight="
        f"{actual_backlog}",
    )
    ledger.check(
        stats.segments_retransmitted <= stats.segments_sent,
        "transport.tcp.retransmit_bound",
        f"retransmitted={stats.segments_retransmitted} > "
        f"sent={stats.segments_sent}",
    )


def audit_udp(ledger: ValidationLedger, flow: "UdpFlow") -> None:
    """UDP delivers each sequence number at most once; holes repaired
    cannot exceed holes detected; arrivals cannot exceed sends."""
    stats = flow.stats
    ledger.check(
        stats.datagrams_delivered == len(flow._seen),
        "transport.udp.unique_delivery",
        f"delivered={stats.datagrams_delivered} != "
        f"unique seqs={len(flow._seen)}",
    )
    ledger.check(
        flow._highest_seq < flow._next_seq,
        "transport.udp.seq_monotone",
        f"highest_seq={flow._highest_seq} >= next_seq={flow._next_seq}",
    )
    ledger.check(
        stats.holes_repaired <= stats.holes_detected,
        "transport.udp.repair_bound",
        f"repaired={stats.holes_repaired} > detected={stats.holes_detected}",
    )
    ledger.check(
        stats.datagrams_delivered + stats.duplicates_received
        <= stats.datagrams_sent,
        "transport.udp.arrival_bound",
        f"delivered={stats.datagrams_delivered} "
        f"+ duplicates={stats.duplicates_received} > "
        f"sent={stats.datagrams_sent}",
    )


# -- records: schema and cross-field constraints --------------------------


def validate_record(ledger: ValidationLedger, record: "ClipRecord") -> None:
    """Schema and cross-field constraints on one submitted record."""
    ledger.check(
        record.outcome in _OUTCOMES,
        "record.outcome_vocabulary",
        f"{record.user_id}/{record.clip_url}: outcome={record.outcome!r}",
    )
    ledger.check(
        record.protocol in _PROTOCOLS,
        "record.protocol_vocabulary",
        f"{record.user_id}/{record.clip_url}: protocol={record.protocol!r}",
    )
    ledger.check(
        record.jitter_s >= 0.0,
        "record.jitter_non_negative",
        f"{record.user_id}/{record.clip_url}: jitter_s={record.jitter_s}",
    )
    non_negative = (
        ("frames_displayed", record.frames_displayed),
        ("frames_late", record.frames_late),
        ("frames_lost", record.frames_lost),
        ("frames_thinned", record.frames_thinned),
        ("rebuffer_count", record.rebuffer_count),
        ("rebuffer_total_s", record.rebuffer_total_s),
        ("play_span_s", record.play_span_s),
        ("encoded_bandwidth_bps", record.encoded_bandwidth_bps),
        ("measured_bandwidth_bps", record.measured_bandwidth_bps),
        ("encoded_frame_rate", record.encoded_frame_rate),
        ("measured_frame_rate", record.measured_frame_rate),
        ("cpu_utilization", record.cpu_utilization),
        ("stall_count", record.stall_count),
        ("stall_seconds", record.stall_seconds),
        ("switch_count", record.switch_count),
    )
    for name, value in non_negative:
        ledger.check(
            value >= 0,
            "record.counter_non_negative",
            f"{record.user_id}/{record.clip_url}: {name}={value}",
        )
    ledger.check(
        record.rating == -1 or 0 <= record.rating <= 10,
        "record.rating_range",
        f"{record.user_id}/{record.clip_url}: rating={record.rating}",
    )
    ledger.check(
        record.initial_buffering_s >= 0.0 or record.initial_buffering_s == -1.0,
        "record.initial_buffering_domain",
        f"{record.user_id}/{record.clip_url}: "
        f"initial_buffering_s={record.initial_buffering_s}",
    )
    if not record.played:
        ledger.check(
            record.frames_displayed == 0
            and record.measured_frame_rate == 0.0
            and record.rating == -1,
            "record.unplayed_has_no_playback",
            f"{record.user_id}/{record.clip_url}: outcome={record.outcome} "
            f"but frames={record.frames_displayed} "
            f"fps={record.measured_frame_rate} rating={record.rating}",
        )
    if record.play_span_s > 0.0:
        ledger.check(
            _close(
                record.measured_frame_rate,
                record.frames_displayed / record.play_span_s,
            ),
            "record.frame_rate_consistency",
            f"{record.user_id}/{record.clip_url}: "
            f"fps={record.measured_frame_rate} != "
            f"{record.frames_displayed}/{record.play_span_s}",
        )
    else:
        ledger.check(
            record.measured_frame_rate == 0.0,
            "record.frame_rate_consistency",
            f"{record.user_id}/{record.clip_url}: "
            f"fps={record.measured_frame_rate} with zero play span",
        )
    if record.play_span_s >= FPS_CAP_MIN_SPAN_S:
        ledger.check(
            record.measured_frame_rate <= NOMINAL_FPS_CAP * (1 + REL_TOL),
            "record.frame_rate_nominal_cap",
            f"{record.user_id}/{record.clip_url}: "
            f"fps={record.measured_frame_rate} > cap={NOMINAL_FPS_CAP}",
        )
    ledger.check(
        record.mean_level >= 0.0 or record.mean_level == -1.0,
        "record.abr_mean_level_domain",
        f"{record.user_id}/{record.clip_url}: mean_level={record.mean_level}",
    )
    if not record.played:
        ledger.check(
            record.mean_level == -1.0,
            "record.unplayed_is_not_abr",
            f"{record.user_id}/{record.clip_url}: outcome={record.outcome} "
            f"but mean_level={record.mean_level}",
        )
    if record.frames_displayed < 3:
        ledger.check(
            record.jitter_s == 0.0,
            "record.jitter_needs_frames",
            f"{record.user_id}/{record.clip_url}: "
            f"jitter={record.jitter_s} with only "
            f"{record.frames_displayed} frames",
        )


# -- the per-playback composite audit -------------------------------------


def audit_playback(
    ledger: ValidationLedger,
    config: ValidationConfig,
    player: "PlayerCore",
    path: "NetworkPath",
    record: "ClipRecord",
) -> None:
    """Run every enabled audit for one finished playback."""
    if config.check_net:
        audit_path(ledger, path)
    if config.check_media:
        audit_player(ledger, player)
        if player.session is not None:
            audit_session(ledger, player.session, player)
    if config.check_transport and player.session is not None:
        if player.session.tcp is not None:
            audit_tcp(ledger, player.session.tcp)
        if player.session.udp is not None:
            audit_udp(ledger, player.session.udp)
    if config.check_records:
        validate_record(ledger, record)
        stats = player.stats
        if stats.stopped_at is not None:
            span = stats.stopped_at - stats.started_at
            expected_bps = (
                stats.bytes_received * 8.0 / span if span > 0.0 else 0.0
            )
            ledger.check(
                _close(record.measured_bandwidth_bps, expected_bps),
                "record.bandwidth_consistency",
                f"{record.user_id}/{record.clip_url}: "
                f"bandwidth={record.measured_bandwidth_bps} != "
                f"{stats.bytes_received}B*8/{span}s",
            )
