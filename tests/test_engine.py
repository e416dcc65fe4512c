"""Event queue ordering and watcher tests."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from cotsim.engine import SimEngine, SchedulingError


def recorder(engine):
    """(seen, record): `record(name)` as an event appends (clock, name)."""
    seen = []

    def record(name):
        seen.append((engine.now, name))
    return seen, record


def test_events_fire_in_time_order():
    eng = SimEngine()
    seen, record = recorder(eng)
    eng.schedule(30, record, "c")
    eng.schedule(10, record, "a")
    eng.schedule(20, record, "b")
    eng.run_until(100)
    assert seen == [(10, "a"), (20, "b"), (30, "c")]
    assert eng.now == 100


def test_equal_timestamps_break_ties_by_insertion():
    eng = SimEngine()
    seen, record = recorder(eng)
    for name in "abcde":
        eng.schedule(5, record, name)
    eng.run_until(5)
    assert [k for _, k in seen] == list("abcde")


def test_handler_scheduling_during_run():
    eng = SimEngine()
    seen, record = recorder(eng)

    def ping():
        record("ping")
        eng.schedule_in(7, record, "pong")

    eng.schedule(3, ping)
    eng.run_until(50)
    assert seen == [(3, "ping"), (10, "pong")]


class Ticker:
    """A 10 us tick that is never an event, only a watcher.  Tick k in
    `busy` has work: it schedules `action("tick", k)` busy[k] us later,
    as a tick that starts a repair would."""

    asleep = False

    def __init__(self, eng, busy=None, action=None):
        self.eng = eng
        self.action = action
        self.busy = busy or {}
        self.ticks = 0
        self.clock = []  # (engine clock, tick time) at each advance
        self.watch_key = (10, 0, eng.reserve_slot())

    def advance(self, _bound):
        self.clock.append((self.eng.now, self.watch_key[0]))
        self.ticks += 1
        if self.ticks in self.busy:
            self.eng.schedule_in(self.busy[self.ticks], self.action,
                                 "tick", self.ticks)
        t = 10 * (self.ticks + 1)
        self.watch_key = (t, t - 10, self.eng.reserve_slot())


def test_watcher_advances_where_its_ticks_would_have_fired():
    eng = SimEngine()
    ticker = Ticker(eng)
    eng.add_watcher(ticker)
    seen = []
    for t in (5, 25, 30):
        eng.schedule(t, lambda: seen.append((eng.now, ticker.ticks)))
    assert eng.run_until(42) == 3
    # the tick at 30 was scheduled at 20, after the event at 30
    assert seen == [(5, 0), (25, 2), (30, 2)]
    assert ticker.ticks == 4


def test_watcher_advances_with_the_clock_at_its_tick():
    eng = SimEngine()
    seen, record = recorder(eng)
    ticker = Ticker(eng, busy={2: 0, 3: 5},
                    action=lambda *_tick: record("e"))
    eng.add_watcher(ticker)
    eng.schedule(17, record, "e")
    eng.run_until(33)
    assert ticker.clock == [(10, 10), (20, 20), (30, 30)]
    # an event a tick schedules at its own time fires right after it
    assert seen == [(17, "e"), (20, "e")]
    assert eng.now == 33
    eng.run_until(40)
    assert seen[-1] == (35, "e")
    assert ticker.clock[-1] == (40, 40)


def test_an_input_that_does_not_wake_passes_an_asleep_watcher():
    """wake=False leaves an asleep watcher due only before the bound
    uncalled; its next call catches up with the clock at each tick, so
    earlier than the input already applied."""
    eng = SimEngine()
    sleeper = Ticker(eng)
    sleeper.asleep = True
    eng.add_watcher(sleeper)
    eng.run_until(35, scheduled_before=1, wake=False)
    assert sleeper.clock == [] and eng.now == 35
    eng.run_until(35, scheduled_before=1)
    assert sleeper.clock == [(10, 10), (20, 20), (30, 30)]
    assert eng.now == 35


def test_an_asleep_watcher_runs_before_an_awake_one_due_first():
    eng = SimEngine()
    sleeper, awake = Ticker(eng), Ticker(eng)
    sleeper.asleep = True
    eng.add_watcher(sleeper)
    eng.add_watcher(awake)
    # the sleeper's tick at 10 sorts before the awake one's
    eng.run_until(15, scheduled_before=1, wake=False)
    assert sleeper.clock == awake.clock == [(10, 10)]
    # an event is due before 25: every tick before it runs first
    eng.schedule(22, lambda: None)
    eng.run_until(25, scheduled_before=1, wake=False)
    assert sleeper.clock == awake.clock == [(10, 10), (20, 20)]


def test_due_reports_the_first_key_with_and_without_asleep_watchers():
    eng = SimEngine()
    never = (math.inf,)
    assert eng.due() == never
    # an event at t sorts before an input at t, (t, 1)
    eng.schedule(7, print)
    assert eng.due() == (7, 0, 0)
    assert eng.due() < (7, 1)
    # a window tick at t sorts after it
    window = Ticker(eng)
    window.watch_key = (5, 1, -1)
    eng.add_watcher(window)
    assert eng.due() == (5, 1, -1)
    assert not eng.due() < (5, 1)
    # an asleep watcher is left out, however early its tick
    sleeper = Ticker(eng)
    sleeper.asleep = True
    sleeper.watch_key = (3, 0, 9)
    eng.add_watcher(sleeper)
    assert eng.due() == (5, 1, -1)
    sleeper.asleep = False
    assert eng.due() == (3, 0, 9)
    # a watcher with nothing to watch is left out
    window.watch_key = sleeper.watch_key = None
    assert eng.due() == (7, 0, 0)
    eng.run_until(7)
    assert eng.due() == never


def test_cannot_schedule_in_the_past():
    eng = SimEngine()
    eng.run_until(100)
    with pytest.raises(SchedulingError):
        eng.schedule(99, print, "late")
    with pytest.raises(SchedulingError):
        eng.run_until(50)


def test_event_log_replay_identical():
    def run():
        eng = SimEngine()
        rng = random.Random(42)
        log = []

        def tick():
            log.append(eng.now)
            if eng.now < 500:
                eng.schedule_in(rng.randrange(1, 20), tick)

        eng.schedule(0, tick)
        eng.run_until(1000)
        return log

    assert run() == run()


def test_run_until_scheduled_before_stops_at_later_scheduled_events():
    eng = SimEngine()
    seen, record = recorder(eng)
    eng.schedule(5, record, "at-0")
    eng.run_until(2)
    eng.schedule(5, record, "at-2")
    eng.schedule(4, record, "early")
    assert eng.run_until(5, scheduled_before=1) == 2
    assert seen == [(4, "early"), (5, "at-0")]
    assert eng.now == 5
    assert eng.run_until(5) == 1
    assert seen[-1] == (5, "at-2")


# one step of a scheduling script: (op, delays)
STEP = st.tuples(
    st.sampled_from(["one", "many", "reserve"]),
    st.lists(st.integers(0, 12), min_size=0, max_size=6))
# inputs at t >= 1, like a campaign's injections and windows
INPUTS = st.lists(st.tuples(st.integers(1, 45), STEP), max_size=25)
# ticks with work, and how long after the tick their event fires
BUSY = st.dictionaries(st.integers(1, 6), st.integers(0, 12), max_size=4)


def play(setup, inputs, busy, mode):
    """Run `setup` at time 0, then apply `inputs` in time order (ties in
    list order), each running one script step, with a ticker whose `busy`
    ticks schedule events.  Mode "events" schedules the inputs as events
    at time 0 after the setup; "bounded" applies each input after
    `run_until(t, scheduled_before=1)`; "skip" makes that call only when
    `due` reports a key below (t, 1), and otherwise sets the clock to t.
    An input schedules events, so "skip" reads `due` after every input.
    Every event and input records the clock and what the watcher has
    seen."""
    eng = SimEngine()
    seen = []

    def event(*params):
        seen.append((eng.now, params, ticker.ticks))

    ticker = Ticker(eng, busy, event)
    eng.add_watcher(ticker)

    def apply(label, step):
        op, delays = step
        seen.append((eng.now, label, ticker.ticks))
        times = [eng.now + d for d in delays]
        if op == "one" and times:
            eng.schedule(times[0], event, label)
        elif op == "many":
            for i, t in enumerate(times):
                eng.schedule(t, event, label, i)
        elif op == "reserve":
            eng.reserve_slot()

    for n, step in enumerate(setup):
        apply(("setup", n), step)
    inputs = sorted(inputs, key=lambda timed: timed[0])
    if mode == "events":
        for n, (t, step) in enumerate(inputs):
            eng.schedule(t, apply, ("input", n), step)
    else:
        for n, (t, step) in enumerate(inputs):
            if mode == "bounded" or eng.due() < (t, 1):
                eng.run_until(t, scheduled_before=1)
            else:
                eng.now = t
            apply(("input", n), step)
    eng.run_until(60)
    return seen, ticker.clock


@settings(max_examples=300, deadline=None)
@given(st.lists(STEP, max_size=8), INPUTS, BUSY)
def test_inputs_after_bounded_runs_fire_like_time_0_events(setup, inputs,
                                                           busy):
    events = play(setup, inputs, busy, "events")
    assert play(setup, inputs, busy, "bounded") == events
    assert play(setup, inputs, busy, "skip") == events


class Chain:
    """A periodic tick: tick k >= 1 falls at phase + (k - 1) * period, the
    first as if scheduled at time 0.  A tick in `busy` records (clock,
    name, k, every chain's tick count) and schedules a recording event
    busy[k] us later; the other ticks only count.  With `as_event` every
    tick is an event that schedules the next; otherwise the chain is a
    watcher that, like the scrubber, runs a busy tick on its own and
    accounts in one call for the idle ticks up to the bound."""

    def __init__(self, eng, name, period, phase, busy, seen, as_event):
        self.eng, self.name, self.busy, self.seen = eng, name, busy, seen
        self.period, self.phase = period, phase
        self.ticks = 0
        seen.chains.append(self)
        if as_event:
            eng.schedule(self.time(1), self.fire)
        else:
            self._key()
            eng.add_watcher(self)

    def time(self, k):
        return self.phase + (k - 1) * self.period if k else 0

    def _run(self, k):
        self.ticks = k
        if k in self.busy:
            self.seen.record(self.name, k)
            self.eng.schedule_in(self.busy[k], self.seen.record, self.name,
                                 -k)

    def fire(self):
        self._run(self.ticks + 1)
        self.eng.schedule(self.time(self.ticks + 1), self.fire)

    def advance(self, bound):
        k = self.ticks + 1
        self._run(k)
        # an idle tick sorts before bound if its (time, scheduled_at) is
        # below bound's: on a tie its slot, reserved from now on, is above
        if k not in self.busy:
            while self.ticks + 1 not in self.busy and \
                    (self.time(self.ticks + 1),
                     self.time(self.ticks)) < bound[:2]:
                self.ticks += 1
        self._key()

    def _key(self):
        k = self.ticks + 1
        self.watch_key = (self.time(k), self.time(k - 1),
                          self.eng.reserve_slot())


class Seen(list):
    """What the events and busy ticks saw, with every chain's count."""

    def __init__(self, eng):
        super().__init__()
        self.eng = eng
        self.chains = []

    def record(self, *what):
        self.append((self.eng.now, what,
                     tuple(c.ticks for c in self.chains)))


def play_chains(chains, events, as_event):
    eng = SimEngine()
    seen = Seen(eng)
    for name, (period, phase, busy) in enumerate(chains):
        Chain(eng, name, period, phase, busy, seen, as_event)
    for t, label in events:
        eng.schedule(t, seen.record, "event", label)
    eng.run_until(70)
    return seen


CHAIN = st.tuples(st.integers(1, 8), st.integers(1, 8),
                  st.dictionaries(st.integers(1, 12), st.integers(0, 9),
                                  max_size=5))


@settings(max_examples=300, deadline=None)
@given(CHAIN, st.one_of(CHAIN, st.integers(0, 3)),
       st.lists(st.tuples(st.integers(0, 60), st.integers(0, 5)),
                max_size=12))
def test_two_watchers_tick_in_key_order_like_events(first, second, events):
    """Two watcher chains, their ticks and the events interleave exactly
    as when every tick is an event.  An integer `second` gives the second
    chain the first one's period and phase and so ties every key but the
    slot."""
    if isinstance(second, int):
        second = (first[0], first[1], {k + second: d
                                       for k, d in first[2].items()})
    chains = [first, second]
    assert play_chains(chains, events, as_event=False) == \
        play_chains(chains, events, as_event=True)
