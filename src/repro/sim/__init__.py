"""Discrete-event simulation engine (S1).

A minimal but complete event loop: events are ``(time, priority, seq,
callback)`` tuples on a binary heap.  Components schedule callbacks and
periodic timers against a shared :class:`EventLoop`; the loop owns the
simulated clock.  Processes too dense to heap attach as a
:class:`Timeline` and are caught up ahead of each event instead.
"""

from repro.sim.engine import Event, EventLoop, Timeline, Timer

__all__ = ["Event", "EventLoop", "Timeline", "Timer"]
