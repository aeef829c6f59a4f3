"""The discrete-event engine underlying every simulated playback.

Design notes
------------

* Events are ordered by ``(time, priority, sequence)``.  Priority breaks
  ties between events scheduled for the same instant (e.g. a packet
  arrival should be processed before a sampling timer reads state);
  sequence number preserves FIFO order among equal-priority events and
  makes the heap ordering total (callbacks are never compared).
* An :class:`Event` *is* its heap entry: a five-slot ``list`` subclass
  ``[time, priority, seq, callback, cancelled]``.  Heap comparisons are
  plain C-level list comparisons — no Python ``__lt__`` frames on the
  hottest path in the simulator — while the named fields stay mutable
  through properties, so a misbehaving callback that rewrites a heaped
  event's time is still visible to (and caught by) strict mode.
* :meth:`EventLoop.call_later` is the fire-and-forget fast path used by
  per-packet machinery (links): it pushes a bare list
  entry without constructing an :class:`Event` handle.  Bare entries
  and Events compare interchangeably on the heap.
* Cancellation is lazy: a cancelled event stays on the heap but is
  skipped when popped.  This keeps :meth:`EventLoop.schedule` and
  :meth:`Event.cancel` O(log n) / O(1).
* The loop is single-threaded and re-entrant-safe: callbacks may
  schedule and cancel other events freely.
* A :class:`Timeline` is a process too dense to heap (background
  traffic: thousands of arrivals per playback, none of which anything
  waits on).  It is attached with :meth:`EventLoop.attach` and owns its
  own schedule: the loop asks only when its next step is due
  (``next_time``) and, before dispatching an event at ``t``, has it
  ``advance(t)`` through every step due strictly before ``t`` —
  several timelines are merged in time order.  So whenever any code
  runs at ``loop.now``, every timeline step before that instant has
  already happened, exactly as if each had been an event; the cost on
  the dispatch path is one float compare per event.
* Strict mode (``EventLoop(strict=True)``) additionally asserts, on
  every scheduled and dispatched event, that times are finite, that the
  clock never moves backwards, and that the heap yields events in total
  ``(time, priority, seq)`` order.  A callback that mutates a heaped
  event's fields — or float drift that sneaks a NaN past the
  ``delay < 0`` guard — trips a :class:`~repro.errors.SimulationError`
  at the point of damage instead of silently time-warping the run.
  The strict checks live entirely off the non-strict dispatch loop:
  a permissive run pays nothing for them.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Protocol

from repro.errors import SimulationError

#: Default priority for ordinary events.
PRIORITY_NORMAL = 10

#: Priority for events that must run before normal events at the same
#: simulated instant (e.g. packet deliveries before samplers).
PRIORITY_HIGH = 0

#: Priority for events that must observe the state all normal events at
#: the same instant have produced (e.g. statistics samplers).
PRIORITY_LOW = 20

# Heap-entry slot indices (shared by Event and bare call_later entries).
_TIME = 0
_PRIORITY = 1
_SEQ = 2
_CALLBACK = 3
_CANCELLED = 4

_INF = math.inf


class Event(list):
    """A scheduled callback.  Returned by :meth:`EventLoop.schedule`.

    The event is its own heap entry (see module notes); the named
    fields are views onto the entry's slots.
    """

    __slots__ = ()

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[[], None],
    ) -> None:
        super().__init__((time, priority, seq, callback, False))

    @property
    def time(self) -> float:
        return self[_TIME]

    @time.setter
    def time(self, value: float) -> None:
        self[_TIME] = value

    @property
    def priority(self) -> int:
        return self[_PRIORITY]

    @priority.setter
    def priority(self, value: int) -> None:
        self[_PRIORITY] = value

    @property
    def seq(self) -> int:
        return self[_SEQ]

    @seq.setter
    def seq(self, value: int) -> None:
        self[_SEQ] = value

    @property
    def callback(self) -> Callable[[], None]:
        return self[_CALLBACK]

    @callback.setter
    def callback(self, value: Callable[[], None]) -> None:
        self[_CALLBACK] = value

    @property
    def cancelled(self) -> bool:
        return self[_CANCELLED]

    def cancel(self) -> None:
        """Prevent the callback from running.  Safe to call repeatedly."""
        self[_CANCELLED] = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self[_CANCELLED] else "pending"
        return f"Event(t={self[_TIME]:.6f}, prio={self[_PRIORITY]}, {state})"


class Timeline(Protocol):
    """A self-scheduling process the loop catches up instead of heaping.

    ``next_time`` is the finite instant of the next step.  ``advance``
    performs, in time order, every step due strictly before ``until``
    and leaves ``next_time`` at the first one that is not.  A step may
    change its own timeline's schedule only; one with nothing left to
    do detaches itself.
    """

    next_time: float

    def advance(self, until: float) -> None: ...


class EventLoop:
    """A single-threaded discrete-event loop with a simulated clock."""

    def __init__(self, strict: bool = False) -> None:
        self._heap: list[list] = []
        self._now = 0.0
        self._seq = 0
        self._running = False
        self._stopped = False
        self.strict = strict
        self._last_key: tuple[float, int, int] | None = None
        self._timelines: list[Timeline] = []
        #: Earliest ``next_time`` among attached timelines (inf: none).
        self._due = _INF

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def stopped(self) -> bool:
        """True once :meth:`stop` has been called."""
        return self._stopped

    @property
    def scheduled(self) -> int:
        """Events heaped so far, cancelled or not (timeline steps are
        not events and never count)."""
        return self._seq

    def stop(self) -> None:
        """Stop dispatching after the current callback returns.

        The flag is permanent for this loop: a driver that wires a
        completion callback to ``stop`` (the tracer does) can then use
        plain :meth:`run` without paying for a per-event predicate.
        Calling it before :meth:`run` makes the run return immediately.
        """
        self._stopped = True

    # -- timelines ------------------------------------------------------

    def attach(self, timeline: Timeline) -> None:
        """Have ``timeline`` caught up ahead of every later event."""
        if timeline in self._timelines:
            raise SimulationError(f"timeline already attached: {timeline!r}")
        if self.strict:
            self._check_timeline(timeline, self._now)
        self._timelines.append(timeline)
        if timeline.next_time < self._due:
            self._due = timeline.next_time

    def detach(self, timeline: Timeline) -> None:
        """Stop catching ``timeline`` up (a no-op if it is not attached)."""
        if timeline in self._timelines:
            self._timelines.remove(timeline)
            self._due = min(
                (other.next_time for other in self._timelines), default=_INF
            )

    def _check_timeline(self, timeline: Timeline, floor: float) -> None:
        """Strict-mode timeline assertions (finite, never backwards)."""
        time = timeline.next_time
        if not math.isfinite(time):
            raise SimulationError(
                f"timeline {timeline!r} reports non-finite next_time {time}"
            )
        if time < floor:
            raise SimulationError(
                f"timeline {timeline!r} went backwards: next_time={time} "
                f"< {floor}"
            )

    def _catch_up(self, limit: float) -> None:
        """Run every timeline step due strictly before ``limit``.

        The earliest timeline advances until the next one is due, so
        steps of different timelines interleave in time order (attach
        order at an exact tie) — they may share one random stream, and
        then draw order is the output.
        """
        timelines = self._timelines
        strict = self.strict
        while True:
            # The earliest timeline (attach order at a tie) and the
            # instant the next one is due.
            first = None
            due = then = _INF
            for timeline in timelines:
                if strict:
                    self._check_timeline(timeline, self._now)
                time = timeline.next_time
                if time < due:
                    first, due, then = timeline, time, due
                elif time < then:
                    then = time
            if not due < limit:
                self._due = due
                return
            if then > limit:
                then = limit
            elif then == due:
                # Two due at the same instant: the first takes just
                # that instant, then they re-merge.
                then = math.nextafter(then, _INF)
            first.advance(then)
            if strict and first in timelines:
                self._check_timeline(first, due)
                if first.next_time < then:
                    raise SimulationError(
                        f"timeline {first!r} stopped short of {then}: "
                        f"next_time={first.next_time}"
                    )

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: delay={delay}")
        if self.strict and not math.isfinite(delay):
            # NaN compares false to everything, so it slips past the
            # ``delay < 0`` guard and would poison the heap ordering.
            raise SimulationError(f"non-finite delay: {delay}")
        event = Event(self._now + delay, priority, self._seq, callback)
        self._seq += 1
        heapq.heappush(self._heap, event)
        return event

    def call_later(
        self,
        delay: float,
        callback: Callable[[], None],
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        """Schedule ``callback`` without returning a cancellation handle.

        The fire-and-forget twin of :meth:`schedule` for the per-packet
        hot path: it heaps a bare entry instead of constructing an
        :class:`Event`, which measurably matters at tens of thousands
        of packet events per playback.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: delay={delay}")
        if self.strict and not math.isfinite(delay):
            raise SimulationError(f"non-finite delay: {delay}")
        heapq.heappush(
            self._heap, [self._now + delay, priority, self._seq, callback, False]
        )
        self._seq += 1

    def call_at(
        self,
        time: float,
        callback: Callable[[], None],
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        """Fire-and-forget scheduling at an *absolute* simulated time.

        The absolute form matters for reproducibility: a caller that
        knows the exact instant an effect lands (a link that computed
        ``t + serialization + propagation``) must heap that float
        verbatim — round-tripping it through a relative delay
        (``time - now`` then ``now + delay``) can change the low bits.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past: time={time} < now={self._now}"
            )
        if self.strict and not math.isfinite(time):
            raise SimulationError(f"non-finite time: {time}")
        heapq.heappush(
            self._heap, [time, priority, self._seq, callback, False]
        )
        self._seq += 1

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule ``callback`` at an absolute simulated time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past: time={time} < now={self._now}"
            )
        return self.schedule(time - self._now, callback, priority)

    def _check_dispatch(self, entry: list) -> None:
        """Strict-mode dispatch assertions (clock and heap order)."""
        time = entry[_TIME]
        if not math.isfinite(time):
            raise SimulationError(f"dispatching non-finite event time: {entry!r}")
        if time < self._now:
            raise SimulationError(
                f"clock went backwards: event at t={time} "
                f"dispatched with now={self._now}"
            )
        key = (time, entry[_PRIORITY], entry[_SEQ])
        if self._last_key is not None and key < self._last_key:
            raise SimulationError(
                f"heap order violated: {key} dispatched after {self._last_key}"
            )
        self._last_key = key

    def run(self, until: float | None = None) -> None:
        """Run events until the heap drains or the clock passes ``until``.

        When ``until`` is given the clock is always advanced to exactly
        ``until`` on return, even if the heap drained earlier, so that
        periodic samplers and wall-clock assertions line up.
        """
        if self._running:
            raise SimulationError("event loop is already running")
        self._running = True
        heap = self._heap
        pop = heapq.heappop
        try:
            if until is None and not self.strict:
                # The common case: nothing to compare against, nothing
                # to verify — the tightest possible dispatch loop.
                while heap and not self._stopped:
                    entry = pop(heap)
                    if entry[_CANCELLED]:
                        continue
                    time = entry[_TIME]
                    if time > self._due:
                        self._catch_up(time)
                    self._now = time
                    entry[_CALLBACK]()
                return
            strict = self.strict
            while heap and not self._stopped:
                entry = heap[0]
                if entry[_CANCELLED]:
                    pop(heap)
                    continue
                time = entry[_TIME]
                if until is not None and time > until:
                    break
                pop(heap)
                if strict:
                    self._check_dispatch(entry)
                if time > self._due:
                    self._catch_up(time)
                self._now = time
                entry[_CALLBACK]()
            if until is not None and not self._stopped and until > self._now:
                if until > self._due:
                    self._catch_up(until)
                self._now = until
        finally:
            self._running = False

    def run_step(self) -> bool:
        """Run the single next pending event.  Returns False if none."""
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            if entry[_CANCELLED]:
                continue
            if self.strict:
                self._check_dispatch(entry)
            if entry[_TIME] > self._due:
                self._catch_up(entry[_TIME])
            self._now = entry[_TIME]
            entry[_CALLBACK]()
            return True
        return False

    def pending_count(self) -> int:
        """Number of scheduled, not-yet-cancelled events."""
        return sum(1 for entry in self._heap if not entry[_CANCELLED])


class Timer:
    """A restartable one-shot timer built on an :class:`EventLoop`.

    Transports use this for retransmission timeouts; the player uses it
    for rebuffering deadlines.
    """

    def __init__(self, loop: EventLoop, callback: Callable[[], None]) -> None:
        self._loop = loop
        self._callback = callback
        self._event: Event | None = None

    @property
    def armed(self) -> bool:
        """True when the timer is scheduled and not yet fired/cancelled."""
        return self._event is not None and not self._event.cancelled

    def start(self, delay: float) -> None:
        """(Re)arm the timer to fire ``delay`` seconds from now."""
        self.cancel()
        self._event = self._loop.schedule(delay, self._fire)

    def cancel(self) -> None:
        """Disarm the timer if armed."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._callback()
