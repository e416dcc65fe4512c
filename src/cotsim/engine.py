"""Discrete-event simulation substrate: a virtual clock and a queue of
calls.

Time is an integer number of microseconds since simulation start.  All
hardware latencies modeled elsewhere (4 ms injection period, 18 ms frame
repair, reload durations) are exact multiples of 1 us, so the clock never
accumulates floating-point drift.

An event is a call: `schedule(fire_at, action, *args)` makes the engine
call `action(*args)` with its clock at fire_at.  Events fire in order of
the key (fire time, time the event was scheduled, seq).  seq counts
schedule calls, so equal fire times break ties in scheduling order.  The
scheduling time is kept in that key only; an action that needs it gets
it as an argument (`cotsim.fpga.FpgaNode.after`).  The engine draws no
random numbers; a campaign's stream is seeded in `cotsim.injector`.

A periodic process whose ticks rarely do anything need not be an event
on every tick.  It registers as a watcher and keeps `watch_key` at the
key its next tick would have had as an event, with an order slot taken
by `reserve_slot` at the point where the previous tick would have
scheduled it, so the slot sorts exactly like that event's seq.  Before
running any event that sorts after the smallest watch key, the engine
moves the clock to that tick's time and calls its watcher's
`advance(bound)`, bound being the event's key or, if smaller, another
watcher's key; the watcher handles its ticks that sort before bound,
either by arithmetic or, when a tick has work to do, by running it then
and there.  So watchers run in key order, among themselves and among
the events.  See `cotsim.fpga.Scrubber` and `cotsim.fpga.WindowWatcher`.

Inputs known before a run starts (a campaign's injections) are not
events.  The caller applies them in time order, each after
`run_until(t, scheduled_before=1)`, which runs every event keyed before
(t, 1).  So an input at t sorts exactly like an event scheduled at time 0
after all the events then scheduled: after those that fire at t and were
scheduled at time 0, before every event scheduled later.  A watcher
tick keyed (t, 1, -1) sorts there too, after such an input; the
measurement windows' watcher uses it (`cotsim.fpga.WindowWatcher`).

Three shortcuts let inputs between two pieces of engine work cost no
engine call.  An input that nothing reads need not be applied at all.
One read only by events and by awake watchers may be buffered until just
before the next `run_until`, which calls no event and no awake watcher
that sorts before it.  And while `due` reports no key below (t, 1), that
call would only set the clock, so the caller may set `now` to t itself.
`due` moves only when the engine runs or an input acts on it (schedules
an event, moves a watch key or an `asleep` flag), so the caller reads it
again after either.

`due` leaves out a watcher that is `asleep`: its pending ticks schedule
nothing and read nothing that an input passing it changes.  An input
schedules nothing and reserves no order slot, so such a watcher can be
called after it: with wake=False, `run_until` leaves it uncalled unless
an event or an awake watcher is due before the bound.  Its next call,
before the next event, accounts for the ticks it passed and reserves the
slot the skipped call would have, with the clock at its tick's time,
which can be earlier than the last input (an asleep tick reads no
clock).  An input that changes what an asleep tick reads is applied
after `run_until` with wake=True, the default, whatever `due` reports.
`cotsim.harness.run_fpga` says which of its injections are which.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable


class SchedulingError(Exception):
    """Raised when an event is scheduled in the past."""


class SimEngine:
    """Single-threaded event loop with a microsecond clock that no event
    or input sees move backwards.

    `run_until` returns how many events it ran.  A watcher's ticks are
    not events and are not counted.  An event does not see its key.
    """

    def __init__(self):
        self.now = 0
        # (fire_at, scheduled_at, seq, action, args)
        self._heap: list[tuple[int, int, int, Callable, tuple]] = []
        self._seq = 0
        self._watchers: list = []

    # -- scheduling ---------------------------------------------------------

    def schedule(self, fire_at: int, action: Callable, *args) -> None:
        """Call `action(*args)` at `fire_at`, not before now."""
        if fire_at < self.now:
            raise SchedulingError(
                f"cannot schedule at t={fire_at} us (clock is {self.now} us)")
        seq = self._seq
        self._seq += 1
        heapq.heappush(self._heap, (fire_at, self.now, seq, action, args))

    def schedule_in(self, delay: int, action: Callable, *args) -> None:
        self.schedule(self.now + delay, action, *args)

    def reserve_slot(self) -> int:
        """An order slot that sorts like an event scheduled right now."""
        seq = self._seq
        self._seq += 1
        return seq

    def add_watcher(self, watcher) -> None:
        """Call `watcher.advance(bound)` whenever `watcher.watch_key`, a
        (time, scheduled_at, slot) key or None for nothing to watch, is
        the smallest watch key and sorts before the next event's key (or,
        at the end of `run_until`, its bound); `bound` is the smaller of
        that key and every other watcher's.  During the call the clock
        reads the watch key's time, which lies between the last event's
        time and bound's.  advance may schedule events, and must move
        watch_key up or to None.  `watcher.asleep` is read by `due` and
        by a run with wake=False (see the module docstring)."""
        self._watchers.append(watcher)

    # -- execution ----------------------------------------------------------

    def due(self) -> tuple:
        """The smallest key among the next event and the watchers that
        are not `asleep`; (inf,) when there is none.  Before an input at
        t, `run_until(t, scheduled_before=1, wake=False)` has work that
        cannot wait iff it sorts before (t, 1) (see the module
        docstring)."""
        due = self._heap[0][:3] if self._heap else (math.inf,)
        for watcher in self._watchers:
            key = watcher.watch_key
            if key is not None and not watcher.asleep:
                due = min(due, key)
        return due

    def run_until(self, t_end: int, scheduled_before: float = math.inf,
                  wake: bool = True) -> int:
        """Run every event keyed before (t_end, scheduled_before), by
        default every event with fire_at <= t_end; the clock ends at t_end.
        wake=False leaves asleep watchers due only before the bound
        uncalled (see the module docstring)."""
        if t_end < self.now:
            raise SchedulingError(
                f"run_until({t_end}) is in the past (clock is {self.now})")
        count = 0
        heap, watchers = self._heap, self._watchers
        heappop = heapq.heappop
        end = (t_end, scheduled_before, -math.inf)
        while True:
            bound = heap[0][:3] if heap and heap[0] < end else end
            first = None  # the watcher with the smallest key below bound
            for watcher in watchers:
                key = watcher.watch_key
                if key is not None and key < bound:
                    if first is None or key < first_key:
                        if first is not None:
                            bound = first_key
                        first, first_key = watcher, key
                    else:
                        bound = key
            if first is not None:
                if bound is end and not wake and first.asleep:
                    break
                self.now = first_key[0]
                first.advance(bound)  # it may schedule an event before bound
                continue
            if bound is end:
                break
            fire_at, _scheduled_at, _seq, action, args = heappop(heap)
            assert fire_at >= self.now, "clock would move backwards"
            self.now = fire_at
            action(*args)
            count += 1
        self.now = t_end
        return count
