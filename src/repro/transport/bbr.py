"""A BBR-style paced sender.

:class:`BbrConnection` is a drop-in alternative to
:class:`~repro.transport.tcp.TcpConnection`: the same
:class:`~repro.transport.stream.ReliableStream` (segments, RTO,
cumulative ACKs, in-order receiver) — but the congestion controller is
model-based instead of loss-based:

* transmissions are **paced** at ``pacing_gain × btl_bw`` rather than
  released in cwnd-sized bursts,
* ``btl_bw`` is a windowed-max filter over per-ACK delivery-rate
  samples, ``min_rtt`` a windowed-min over RTT samples (BBRv1's two
  model parameters),
* STARTUP doubles the rate each RTT until the bandwidth estimate
  plateaus, DRAIN empties the startup queue, then PROBE_BW cycles its
  pacing gain around 1.0,
* packet loss triggers retransmission but **no rate collapse** — the
  defining BBRv1 behavior this repo ablates against Reno.

Simplifications, documented in ``docs/ABR.md``: no PROBE_RTT state
(sessions are short and app-limited pauses already drain the pipe),
and the windowed filters use fixed 10-second time windows instead of
round-trip counts.
"""

from __future__ import annotations

import operator
from collections import deque

from repro.net.path import NetworkPath
from repro.sim.engine import EventLoop, Timer
from repro.transport.base import MSS_BYTES
from repro.transport.stream import DUPACK_THRESHOLD, ReliableStream, _Segment

#: Initial congestion window, segments (modern RFC 6928 scale).
INITIAL_CWND = 10.0

#: RTT assumed before the first sample, for the initial pacing rate.
INITIAL_RTT_S = 0.5

#: STARTUP/DRAIN pacing gains (2/ln2 and its inverse).
STARTUP_GAIN = 2.885
DRAIN_GAIN = 1.0 / STARTUP_GAIN

#: PROBE_BW pacing-gain cycle: probe up, drain, then cruise.
PROBE_GAINS = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)

#: cwnd = CWND_GAIN × BDP outside STARTUP.
CWND_GAIN = 2.0

#: Floor on the congestion window, segments.
MIN_CWND = 4.0

#: Exit STARTUP after this many RTT rounds without ~25% bw growth.
FULL_BW_ROUNDS = 3
FULL_BW_GROWTH = 1.25

#: Time window of the btl_bw max filter and min_rtt min filter.
FILTER_WINDOW_S = 10.0


class _WindowedExtremum:
    """Max (or min) of the samples of the last ``FILTER_WINDOW_S``.

    A monotonic deque: a sample that is older *and* no better than a
    later one can never be the window's extremum again, so it is
    dropped from the back on insert and the head is always the answer —
    amortised O(1) per sample, a handful of samples resident.
    """

    __slots__ = ("_dominated", "_samples")

    def __init__(self, keep_max: bool) -> None:
        self._dominated = operator.le if keep_max else operator.ge
        self._samples: deque[tuple[float, float]] = deque()

    def add(self, now: float, value: float) -> None:
        samples = self._samples
        while samples and self._dominated(samples[-1][1], value):
            samples.pop()
        samples.append((now, value))

    def read(self, now: float, held: float) -> float:
        """The extremum of the window ending at ``now`` — or ``held``,
        the caller's current estimate, when no sample is that recent."""
        samples = self._samples
        horizon = now - FILTER_WINDOW_S
        while samples and samples[0][0] < horizon:
            samples.popleft()
        return samples[0][1] if samples else held


class BbrConnection(ReliableStream):
    """Reliable, BBR-paced server-to-client stream."""

    def __init__(self, loop: EventLoop, path: NetworkPath) -> None:
        super().__init__(loop, path, INITIAL_CWND)
        self._mode = "startup"
        self._delivered_bytes = 0
        self._bw_filter = _WindowedExtremum(keep_max=True)
        self._rtt_filter = _WindowedExtremum(keep_max=False)
        self._btl_bw = 0.0
        self._min_rtt = INITIAL_RTT_S
        self._full_bw = 0.0
        self._full_bw_rounds = 0
        self._round_start_seq = 0
        self._cycle_index = 0
        self._cycle_stamp = 0.0
        self._pacing_gain = STARTUP_GAIN
        self._cwnd_gain = STARTUP_GAIN
        self._pacing_rate_bps = (
            STARTUP_GAIN * INITIAL_CWND * MSS_BYTES * 8.0 / INITIAL_RTT_S
        )
        self._next_send_at = 0.0
        self._pacing_timer = Timer(loop, self._try_send)

    @property
    def delivery_rate_bps(self) -> float:
        """The btl_bw estimate (windowed-max delivery rate), bits/s."""
        return self._btl_bw

    @property
    def mode(self) -> str:
        """Current BBR state: ``startup``, ``drain`` or ``probe_bw``."""
        return self._mode

    # -- paced release ----------------------------------------------------

    def _may_send_now(self) -> bool:
        now = self._loop.now
        if now + 1e-12 < self._next_send_at:
            if not self._pacing_timer.armed:
                self._pacing_timer.start(self._next_send_at - now)
            return False
        return True

    def _on_segment_sent(self, segment: _Segment) -> None:
        segment.delivered_at_send = self._delivered_bytes
        gap = segment.size * 8.0 / max(1.0, self._pacing_rate_bps)
        self._next_send_at = max(segment.sent_at, self._next_send_at) + gap

    def _on_close(self) -> None:
        self._pacing_timer.cancel()

    # -- loss: repair, no rate collapse -----------------------------------

    def _on_dupack(self) -> bool:
        # Retransmit the hole after every three duplicate ACKs and
        # leave the model untouched (the lost segment simply
        # contributes no delivery-rate sample).  An RTO likewise only
        # repairs: there is no ``_on_rto`` override.
        if self._dupacks != DUPACK_THRESHOLD:
            return False
        self._dupacks = 0
        return True

    # -- the BBR model ----------------------------------------------------

    def _on_new_ack(self, acked: list[_Segment], now: float) -> None:
        for segment in acked:
            self._delivered_bytes += segment.size
            if not segment.retransmitted:
                # (The RTO estimator in the core has its own RTT
                # sample; the model uses the windowed-min filter.)
                rtt = now - segment.sent_at
                self._rtt_filter.add(now, rtt)
                if rtt > 0:
                    rate = (
                        (self._delivered_bytes - segment.delivered_at_send)
                        * 8.0
                        / rtt
                    )
                    self._bw_filter.add(now, rate)
        self._update_model(now)

    def _update_model(self, now: float) -> None:
        self._btl_bw = self._bw_filter.read(now, self._btl_bw)
        self._min_rtt = self._rtt_filter.read(now, self._min_rtt)

        if self._mode == "startup":
            # One "round" per cwnd of ACKed data: check bandwidth growth.
            if self._highest_acked >= self._round_start_seq:
                self._round_start_seq = self._next_seq
                if self._btl_bw > self._full_bw * FULL_BW_GROWTH:
                    self._full_bw = self._btl_bw
                    self._full_bw_rounds = 0
                else:
                    self._full_bw_rounds += 1
                    if self._full_bw_rounds >= FULL_BW_ROUNDS:
                        self._mode = "drain"
            self._pacing_gain = STARTUP_GAIN
            self._cwnd_gain = STARTUP_GAIN
        if self._mode == "drain":
            self._pacing_gain = DRAIN_GAIN
            self._cwnd_gain = CWND_GAIN
            if self._flight_bytes() <= self._bdp_bytes():
                self._mode = "probe_bw"
                self._cycle_index = 0
                self._cycle_stamp = now
        if self._mode == "probe_bw":
            cycle_span = max(self._min_rtt, 0.05)
            if now - self._cycle_stamp >= cycle_span:
                self._cycle_index = (self._cycle_index + 1) % len(PROBE_GAINS)
                self._cycle_stamp = now
            self._pacing_gain = PROBE_GAINS[self._cycle_index]
            self._cwnd_gain = CWND_GAIN

        if self._btl_bw > 0.0:
            self._pacing_rate_bps = self._pacing_gain * self._btl_bw
            bdp_segments = self._bdp_bytes() / MSS_BYTES
            self._cwnd = max(MIN_CWND, self._cwnd_gain * bdp_segments)

    def _bdp_bytes(self) -> float:
        return self._btl_bw * self._min_rtt / 8.0

    def _flight_bytes(self) -> int:
        return sum(segment.size for segment in self._in_flight.values())
