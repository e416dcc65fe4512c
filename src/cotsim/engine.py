"""Discrete-event simulation substrate: virtual clock, event queue, seeded RNG streams.

Time is an integer number of microseconds since simulation start.  All
hardware latencies modeled elsewhere (4 ms injection period, 18 ms frame
repair, reload durations) are exact multiples of 1 us, so the clock never
accumulates floating-point drift.

Events fire in order of the key (fire time, time the event was scheduled,
order slot, seq).  seq counts schedule calls, and an ordinary event's
order slot is its own seq, so ordinary events fire by (fire time, seq):
equal fire times break ties in scheduling order.

A periodic process whose ticks rarely do anything need not be an event
on every tick.  It registers as a watcher and keeps `watch_key` at the
key its next tick would have had as an event; before handling any event
that sorts after that key, the engine calls the watcher's
`advance(bound)` with the event's key, so the watcher accounts for its
ticks at the point in the event order where they would have run.  An
order slot taken there with `reserve_slot` sorts exactly like the seq of
an event that tick would have scheduled.  See `cotsim.fpga.Scrubber`.

A run that knows many events up front (a campaign's injections, the
measurement windows) enqueues them with one `schedule_many` call.  It
gives the events consecutive seqs in list order, so each gets exactly the
key (fire time, now, seq, seq) that one `schedule` call per event, in the
same order, would give it, and they fire in the same order among
themselves and among all other events; only the heap is built once, by
`heapify`, instead of by one push per event.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from typing import Callable, NamedTuple, Optional

import numpy as np


class SchedulingError(Exception):
    """Raised when an event is scheduled in the past."""


class Event(NamedTuple):
    """A scheduled occurrence; see the module docstring for firing order."""

    fire_at: int
    target: str
    kind: str
    params: tuple = ()
    seq: int = -1


class SeededRng:
    """A seeded PCG64 random stream.

    The stream depends on `seed` alone: `label` is stored but does not
    enter the stream, so two instances with the same seed and different
    labels draw the same values.  For independent streams
    per purpose, derive the seed from a label with `SimEngine.fork_rng`
    (or `derive_stream_seed`).
    """

    def __init__(self, seed: int, label: str = ""):
        self.seed = seed
        self.label = label
        self.gen = np.random.Generator(np.random.PCG64(seed))

    def integers(self, low, high=None, size=None):
        return self.gen.integers(low, high, size=size)

    def random(self, size=None):
        return self.gen.random(size)

    def choice(self, seq, size=None, replace=True):
        return self.gen.choice(seq, size=size, replace=replace)

    def shuffle(self, seq):
        self.gen.shuffle(seq)


def derive_stream_seed(root_seed: int, label: str) -> int:
    """Deterministic child seed from (root seed, label)."""
    digest = hashlib.blake2b(
        f"{root_seed}:{label}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


class SimEngine:
    """Single-threaded event loop with a monotone microsecond clock.

    Handlers are registered per target id; an event with no registered
    handler is still counted as processed (useful for pure accounting
    tests).  Cancellation is lazy: cancelled ids are skipped on pop and
    not counted.
    """

    def __init__(self, seed: int = 0, log_events: bool = False):
        self.seed = seed
        self.now = 0
        self.processed = 0
        # (fire_at, scheduled_at, order slot, seq, event)
        self._heap: list[tuple[int, int, int, int, Event]] = []
        self._seq = 0
        self._watchers: list = []
        self._cancelled: set[int] = set()
        self._handlers: dict[str, Callable[[Event], None]] = {}
        self.event_log: Optional[list[str]] = [] if log_events else None

    # -- randomness ---------------------------------------------------------

    def fork_rng(self, label: str) -> SeededRng:
        """Child stream deterministically derived from (root seed, label)."""
        return SeededRng(derive_stream_seed(self.seed, label), label)

    # -- scheduling ---------------------------------------------------------

    def register(self, target: str, handler: Callable[[Event], None]) -> None:
        self._handlers[target] = handler

    def schedule(self, fire_at: int, target: str, kind: str,
                 params: tuple = (),
                 order: Optional[tuple[int, int]] = None) -> int:
        """Enqueue an event; returns an id usable for cancellation.

        order = (scheduled_at, slot) replaces the key's (now, seq) part.
        """
        if fire_at < self.now:
            raise SchedulingError(
                f"cannot schedule at t={fire_at} us (clock is {self.now} us)")
        seq = self._seq
        self._seq += 1
        scheduled_at, slot = (self.now, seq) if order is None else order
        ev = Event(fire_at, target, kind, params, seq)
        heapq.heappush(self._heap, (fire_at, scheduled_at, slot, seq, ev))
        return seq

    def schedule_many(self, target: str, kind: str,
                      timed_params: list[tuple[int, tuple]]) -> range:
        """Enqueue one event per (fire_at, params), in list order.

        The events get the keys, and the ids (returned as a range), that
        one `schedule` call each would give them; the heap is rebuilt
        once instead of pushed into per event.
        """
        now = self.now
        first = self._seq
        entries = []
        for seq, (fire_at, params) in enumerate(timed_params, first):
            if fire_at < now:
                raise SchedulingError(
                    f"cannot schedule at t={fire_at} us (clock is {now} us)")
            entries.append((fire_at, now, seq, seq,
                            Event(fire_at, target, kind, params, seq)))
        self._seq = first + len(entries)
        self._heap.extend(entries)
        heapq.heapify(self._heap)
        return range(first, self._seq)

    def schedule_in(self, delay: int, target: str, kind: str,
                    params: tuple = ()) -> int:
        return self.schedule(self.now + delay, target, kind, params)

    def reserve_slot(self) -> int:
        """An order slot that sorts like an event scheduled right now."""
        seq = self._seq
        self._seq += 1
        return seq

    def add_watcher(self, watcher) -> None:
        """Call `watcher.advance(bound)` whenever the next event's key
        `bound` (or (t_end, inf, inf) at the end of `run_until`) sorts
        after `watcher.watch_key`; None means nothing to watch.  advance
        may schedule events, and must leave watch_key at or above the
        key of the next event it wants to see handled."""
        self._watchers.append(watcher)

    def cancel(self, event_id: int) -> None:
        self._cancelled.add(event_id)

    def pending(self) -> int:
        return sum(1 for *_key, s, _e in self._heap
                   if s not in self._cancelled)

    # -- execution ----------------------------------------------------------

    def run_until(self, t_end: int) -> int:
        """Process all events with fire_at <= t_end; clock ends at t_end."""
        if t_end < self.now:
            raise SchedulingError(
                f"run_until({t_end}) is in the past (clock is {self.now})")
        count = 0
        heap, watchers, cancelled = self._heap, self._watchers, self._cancelled
        handlers, event_log = self._handlers, self.event_log
        heappop = heapq.heappop
        end = (t_end, math.inf, math.inf)
        while True:
            bound = heap[0][:3] if heap and heap[0][0] <= t_end else end
            for watcher in watchers:
                key = watcher.watch_key
                if key is not None and key < bound:
                    watcher.advance(bound)
                    break  # it may have scheduled an event before bound
            else:
                if bound is end:
                    break
                fire_at, _at, _slot, seq, ev = heappop(heap)
                if seq in cancelled:
                    cancelled.discard(seq)
                    continue
                assert fire_at >= self.now, "clock would move backwards"
                self.now = fire_at
                if event_log is not None:
                    event_log.append(f"{ev.fire_at} {ev.target} {ev.kind}")
                handler = handlers.get(ev.target)
                if handler is not None:
                    handler(ev)
                count += 1
        self.now = t_end
        self.processed += count
        return count
