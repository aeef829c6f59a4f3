"""Discrete-event engine semantics."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    EventLoop,
    Timer,
)


class TestScheduling:
    def test_clock_starts_at_zero(self, loop):
        assert loop.now == 0.0

    def test_events_run_in_time_order(self, loop):
        order = []
        loop.schedule(2.0, lambda: order.append("b"))
        loop.schedule(1.0, lambda: order.append("a"))
        loop.schedule(3.0, lambda: order.append("c"))
        loop.run()
        assert order == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self, loop):
        seen = []
        loop.schedule(1.5, lambda: seen.append(loop.now))
        loop.run()
        assert seen == [1.5]

    def test_negative_delay_rejected(self, loop):
        with pytest.raises(SimulationError):
            loop.schedule(-0.1, lambda: None)

    def test_schedule_at_absolute_time(self, loop):
        seen = []
        loop.schedule_at(2.5, lambda: seen.append(loop.now))
        loop.run()
        assert seen == [2.5]

    def test_schedule_at_past_rejected(self, loop):
        loop.schedule(1.0, lambda: None)
        loop.run()
        with pytest.raises(SimulationError):
            loop.schedule_at(0.5, lambda: None)

    def test_callbacks_can_schedule_more_events(self, loop):
        order = []

        def first():
            order.append("first")
            loop.schedule(1.0, lambda: order.append("second"))

        loop.schedule(1.0, first)
        loop.run()
        assert order == ["first", "second"]
        assert loop.now == 2.0


class TestPriorities:
    def test_priority_breaks_simultaneous_ties(self, loop):
        order = []
        loop.schedule(1.0, lambda: order.append("low"), priority=PRIORITY_LOW)
        loop.schedule(1.0, lambda: order.append("high"), priority=PRIORITY_HIGH)
        loop.schedule(1.0, lambda: order.append("normal"), priority=PRIORITY_NORMAL)
        loop.run()
        assert order == ["high", "normal", "low"]

    def test_fifo_within_same_priority(self, loop):
        order = []
        for i in range(5):
            loop.schedule(1.0, lambda i=i: order.append(i))
        loop.run()
        assert order == [0, 1, 2, 3, 4]


class TestCancellation:
    def test_cancelled_event_does_not_run(self, loop):
        ran = []
        event = loop.schedule(1.0, lambda: ran.append(1))
        event.cancel()
        loop.run()
        assert ran == []

    def test_cancel_is_idempotent(self, loop):
        event = loop.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        loop.run()

    def test_pending_count_skips_cancelled(self, loop):
        keep = loop.schedule(1.0, lambda: None)
        drop = loop.schedule(2.0, lambda: None)
        drop.cancel()
        assert loop.pending_count() == 1
        keep.cancel()
        assert loop.pending_count() == 0


class TestRunUntil:
    def test_stops_before_later_events(self, loop):
        ran = []
        loop.schedule(1.0, lambda: ran.append("early"))
        loop.schedule(5.0, lambda: ran.append("late"))
        loop.run(until=2.0)
        assert ran == ["early"]
        assert loop.now == 2.0

    def test_advances_clock_even_when_empty(self, loop):
        loop.run(until=10.0)
        assert loop.now == 10.0

    def test_remaining_events_run_on_next_call(self, loop):
        ran = []
        loop.schedule(5.0, lambda: ran.append("late"))
        loop.run(until=2.0)
        loop.run()
        assert ran == ["late"]

    def test_reentrant_run_rejected(self, loop):
        def nested():
            loop.run()

        loop.schedule(1.0, nested)
        with pytest.raises(SimulationError):
            loop.run()


class TestRunStep:
    def test_single_step(self, loop):
        ran = []
        loop.schedule(1.0, lambda: ran.append("a"))
        loop.schedule(2.0, lambda: ran.append("b"))
        assert loop.run_step() is True
        assert ran == ["a"]

    def test_empty_returns_false(self, loop):
        assert loop.run_step() is False

    def test_skips_cancelled(self, loop):
        ran = []
        event = loop.schedule(1.0, lambda: ran.append("x"))
        event.cancel()
        loop.schedule(2.0, lambda: ran.append("y"))
        assert loop.run_step() is True
        assert ran == ["y"]


class TestTimer:
    def test_fires_after_delay(self, loop):
        fired = []
        timer = Timer(loop, lambda: fired.append(loop.now))
        timer.start(3.0)
        loop.run()
        assert fired == [3.0]

    def test_restart_replaces_previous_deadline(self, loop):
        fired = []
        timer = Timer(loop, lambda: fired.append(loop.now))
        timer.start(3.0)
        timer.start(5.0)
        loop.run()
        assert fired == [5.0]

    def test_cancel_prevents_fire(self, loop):
        fired = []
        timer = Timer(loop, lambda: fired.append(1))
        timer.start(1.0)
        timer.cancel()
        loop.run()
        assert fired == []

    def test_armed_state(self, loop):
        timer = Timer(loop, lambda: None)
        assert not timer.armed
        timer.start(1.0)
        assert timer.armed
        loop.run()
        assert not timer.armed


class TestStrictMode:
    def test_misbehaving_callback_rewinding_event_time_is_caught(self):
        """A callback that mutates a heaped event's time into the past
        silently time-warps a permissive loop; strict mode raises at
        the point of damage."""
        loop = EventLoop(strict=True)
        victim = loop.schedule(5.0, lambda: None)

        def misbehave() -> None:
            victim.time = -10.0  # sabotage the heaped event

        loop.schedule(1.0, misbehave)
        with pytest.raises(SimulationError, match="clock went backwards"):
            loop.run()

    def test_permissive_loop_silently_time_warps(self):
        # The bug strict mode exists to catch: without it the clock
        # jumps backwards and nothing complains.
        loop = EventLoop()
        victim = loop.schedule(5.0, lambda: None)
        observed = []
        victim.callback = lambda: observed.append(loop.now)

        def misbehave() -> None:
            victim.time = 0.5

        loop.schedule(1.0, misbehave)
        loop.run()
        assert observed == [0.5]  # ran "before" the event at t=1.0

    def test_heap_order_violation_detected(self):
        loop = EventLoop(strict=True)
        first = loop.schedule(1.0, lambda: None)
        loop.schedule(2.0, lambda: None)

        def corrupt() -> None:
            # Shrink a *non-head* event's key after it was heaped: the
            # heap yields it late, out of total order.
            first.time = 10.0
            first.seq = -1

        loop.schedule(0.5, corrupt)
        with pytest.raises(SimulationError, match="heap order|clock went"):
            loop.run()

    def test_nan_delay_rejected_in_strict(self):
        loop = EventLoop(strict=True)
        with pytest.raises(SimulationError, match="non-finite"):
            loop.schedule(float("nan"), lambda: None)

    def test_inf_delay_rejected_in_strict(self):
        loop = EventLoop(strict=True)
        with pytest.raises(SimulationError, match="non-finite"):
            loop.schedule(float("inf"), lambda: None)

    def test_nan_slips_past_permissive_guard(self):
        # NaN compares false to 0, so the permissive loop accepts it —
        # exactly why strict mode checks finiteness.
        loop = EventLoop()
        loop.schedule(float("nan"), lambda: None)
        assert loop.pending_count() == 1

    def test_strict_run_step_checks_dispatch(self):
        loop = EventLoop(strict=True)
        victim = loop.schedule(5.0, lambda: None)
        loop.schedule(1.0, lambda: setattr(victim, "time", -1.0))
        assert loop.run_step() is True
        with pytest.raises(SimulationError):
            loop.run_step()

    def test_well_behaved_run_unaffected_by_strict(self):
        fired = []
        loop = EventLoop(strict=True)
        for delay in (3.0, 1.0, 2.0, 1.0, 0.0):
            loop.schedule(delay, lambda: fired.append(loop.now))
        loop.run()
        assert fired == sorted(fired)
        assert len(fired) == 5


class Ticker:
    """A minimal timeline: one step per ``period``, logged with the
    loop clock it ran under."""

    def __init__(self, log, name, period, first):
        self.log = log
        self.name = name
        self.period = period
        self.next_time = first

    def advance(self, until):
        while self.next_time < until:
            self.log.append((self.next_time, self.name))
            self.next_time += self.period


class TestTimelines:
    def _logged_event(self, loop, log, at):
        loop.schedule_at(at, lambda: log.append((loop.now, "event")))

    @pytest.mark.parametrize("strict", [False, True])
    def test_steps_run_ahead_of_every_later_event(self, strict):
        loop = EventLoop(strict=strict)
        log = []
        loop.attach(Ticker(log, "tick", period=1.0, first=0.5))
        self._logged_event(loop, log, 2.0)
        self._logged_event(loop, log, 3.25)
        loop.run()
        assert log == [
            (0.5, "tick"), (1.5, "tick"), (2.0, "event"),
            (2.5, "tick"), (3.25, "event"),
        ]
        # Steps are not events.
        assert loop.scheduled == 2

    def test_step_due_at_an_events_instant_waits_for_a_later_one(self):
        # "Strictly before": the tie goes to the heaped event.
        loop = EventLoop()
        log = []
        loop.attach(Ticker(log, "tick", period=1.0, first=1.0))
        self._logged_event(loop, log, 1.0)
        self._logged_event(loop, log, 1.5)
        loop.run()
        assert log == [(1.0, "event"), (1.0, "tick"), (1.5, "event")]

    @pytest.mark.parametrize("strict", [False, True])
    def test_two_timelines_merge_in_time_order(self, strict):
        loop = EventLoop(strict=strict)
        log = []
        loop.attach(Ticker(log, "slow", period=1.0, first=0.25))
        loop.attach(Ticker(log, "fast", period=0.5, first=0.5))
        self._logged_event(loop, log, 2.0)
        loop.run()
        assert log == [
            (0.25, "slow"), (0.5, "fast"), (1.0, "fast"), (1.25, "slow"),
            (1.5, "fast"), (2.0, "event"),
        ]

    def test_simultaneous_steps_go_in_attach_order(self):
        loop = EventLoop(strict=True)
        log = []
        loop.attach(Ticker(log, "a", period=1.0, first=1.0))
        loop.attach(Ticker(log, "b", period=0.5, first=1.0))
        loop.run(until=2.25)
        assert log == [
            (1.0, "a"), (1.0, "b"), (1.5, "b"), (2.0, "a"), (2.0, "b"),
        ]

    def test_run_until_catches_up_with_an_empty_heap(self):
        loop = EventLoop(strict=True)
        log = []
        ticker = Ticker(log, "tick", period=1.0, first=0.5)
        loop.attach(ticker)
        loop.run(until=3.0)
        assert [at for at, _ in log] == [0.5, 1.5, 2.5]
        assert loop.now == 3.0 and ticker.next_time == 3.5
        loop.run(until=4.0)
        assert len(log) == 4

    def test_run_without_until_does_not_invent_time(self):
        loop = EventLoop()
        log = []
        loop.attach(Ticker(log, "tick", period=1.0, first=0.5))
        loop.run()
        assert log == [] and loop.now == 0.0

    def test_run_step_honours_timelines(self):
        loop = EventLoop(strict=True)
        log = []
        loop.attach(Ticker(log, "tick", period=1.0, first=0.5))
        self._logged_event(loop, log, 1.0)
        self._logged_event(loop, log, 2.0)
        assert loop.run_step()
        assert log == [(0.5, "tick"), (1.0, "event")]
        assert loop.run_step()
        assert log[2:] == [(1.5, "tick"), (2.0, "event")]

    def test_timeline_attached_by_a_callback_joins_in(self):
        loop = EventLoop(strict=True)
        log = []
        loop.schedule_at(
            1.0, lambda: loop.attach(Ticker(log, "late", 1.0, first=1.25))
        )
        self._logged_event(loop, log, 3.0)
        loop.run()
        assert log == [(1.25, "late"), (2.25, "late"), (3.0, "event")]

    def test_detach_and_double_attach(self):
        loop = EventLoop()
        log = []
        ticker = Ticker(log, "tick", period=1.0, first=0.5)
        loop.attach(ticker)
        with pytest.raises(SimulationError, match="already attached"):
            loop.attach(ticker)
        loop.run(until=1.0)
        loop.detach(ticker)
        loop.detach(ticker)  # idempotent
        loop.run(until=5.0)
        assert log == [(0.5, "tick")]

    def test_timeline_may_detach_itself_mid_advance(self):
        loop = EventLoop(strict=True)
        log = []

        class Finite(Ticker):
            def advance(self, until):
                super().advance(min(until, 2.0))
                if self.next_time >= 2.0:
                    loop.detach(self)

        loop.attach(Finite(log, "finite", period=0.75, first=0.5))
        loop.attach(Ticker(log, "other", period=2.0, first=1.0))
        loop.run(until=4.0)
        assert log == [
            (0.5, "finite"), (1.0, "other"), (1.25, "finite"), (3.0, "other"),
        ]

    def test_strict_rejects_non_finite_next_time(self):
        loop = EventLoop(strict=True)
        with pytest.raises(SimulationError, match="non-finite"):
            loop.attach(Ticker([], "inf", 1.0, first=float("inf")))
        ticker = Ticker([], "nan-later", 1.0, first=0.5)
        loop.attach(ticker)
        ticker.period = float("nan")
        with pytest.raises(SimulationError, match="non-finite"):
            loop.run(until=2.0)

    def test_strict_rejects_next_time_behind_the_clock(self):
        loop = EventLoop(strict=True)
        loop.run(until=5.0)
        with pytest.raises(SimulationError, match="went backwards"):
            loop.attach(Ticker([], "stale", 1.0, first=4.0))
        ticker = Ticker([], "rewound", 1.0, first=5.5)
        loop.attach(ticker)
        ticker.next_time = 1.0  # behind loop.now
        with pytest.raises(SimulationError, match="went backwards"):
            loop.run(until=6.0)

    def test_strict_rejects_a_step_earlier_than_the_previous_one(self):
        loop = EventLoop(strict=True)

        class Rewinder(Ticker):
            def advance(self, until):
                self.next_time -= 0.125

        loop.attach(Rewinder([], "rewinder", 1.0, first=0.5))
        with pytest.raises(SimulationError, match="went backwards"):
            loop.run(until=2.0)

    def test_strict_rejects_a_timeline_that_stops_short(self):
        loop = EventLoop(strict=True)

        class Lazy(Ticker):
            def advance(self, until):
                pass

        loop.attach(Lazy([], "lazy", 1.0, first=0.5))
        with pytest.raises(SimulationError, match="stopped short"):
            loop.run(until=2.0)
