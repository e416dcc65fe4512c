"""Event queue ordering, cancellation and seeded stream tests."""

import pytest
from hypothesis import given, settings, strategies as st

from cotsim.engine import SimEngine, SchedulingError, SeededRng, \
    derive_stream_seed


def collect(engine):
    seen = []
    engine.register("t", lambda ev: seen.append((engine.now, ev.kind)))
    return seen


def test_events_fire_in_time_order():
    eng = SimEngine()
    seen = collect(eng)
    eng.schedule(30, "t", "c")
    eng.schedule(10, "t", "a")
    eng.schedule(20, "t", "b")
    eng.run_until(100)
    assert seen == [(10, "a"), (20, "b"), (30, "c")]
    assert eng.now == 100


def test_equal_timestamps_break_ties_by_insertion():
    eng = SimEngine()
    seen = collect(eng)
    for kind in "abcde":
        eng.schedule(5, "t", kind)
    eng.run_until(5)
    assert [k for _, k in seen] == list("abcde")


def test_handler_scheduling_during_run():
    eng = SimEngine()
    seen = []

    def handler(ev):
        seen.append((eng.now, ev.kind))
        if ev.kind == "ping":
            eng.schedule_in(7, "t", "pong")

    eng.register("t", handler)
    eng.schedule(3, "t", "ping")
    eng.run_until(50)
    assert seen == [(3, "ping"), (10, "pong")]


def test_cancellation_is_effective_and_lazy():
    eng = SimEngine()
    seen = collect(eng)
    keep = eng.schedule(10, "t", "keep")
    drop = eng.schedule(10, "t", "drop")
    eng.cancel(drop)
    assert eng.run_until(20) == 1
    assert seen == [(10, "keep")]
    assert keep != drop


def test_order_override_sorts_as_if_scheduled_earlier():
    eng = SimEngine()
    seen = collect(eng)
    slot = eng.reserve_slot()
    eng.schedule(100, "t", "scheduled-at-0")
    eng.run_until(50)
    eng.schedule(100, "t", "scheduled-at-50")
    eng.schedule(100, "t", "as-if-at-0", order=(0, slot))
    eng.run_until(100)
    assert [k for _, k in seen] == ["as-if-at-0", "scheduled-at-0",
                                    "scheduled-at-50"]


class Ticker:
    """A 10 us tick that is never an event, only a watcher."""

    def __init__(self, eng):
        self.eng = eng
        self.ticks = 0
        self.watch_key = (10, 0, eng.reserve_slot())

    def advance(self, _bound):
        self.ticks += 1
        t = 10 * (self.ticks + 1)
        self.watch_key = (t, t - 10, self.eng.reserve_slot())


def test_watcher_advances_where_its_ticks_would_have_fired():
    eng = SimEngine()
    ticker = Ticker(eng)
    eng.add_watcher(ticker)
    seen = []
    eng.register("t", lambda ev: seen.append((eng.now, ticker.ticks)))
    for t in (5, 25, 30):
        eng.schedule(t, "t", "e")
    assert eng.run_until(42) == 3
    # the tick at 30 was scheduled at 20, after the event at 30
    assert seen == [(5, 0), (25, 2), (30, 2)]
    assert ticker.ticks == 4


def test_cannot_schedule_in_the_past():
    eng = SimEngine()
    eng.run_until(100)
    with pytest.raises(SchedulingError):
        eng.schedule(99, "t", "late")
    with pytest.raises(SchedulingError):
        eng.run_until(50)


def test_processed_counts_exclude_cancelled():
    eng = SimEngine()
    eng.schedule(1, "t", "a")
    eng.cancel(eng.schedule(2, "t", "b"))
    eng.schedule(3, "t", "c")
    eng.run_until(10)
    assert eng.processed == 2


def test_event_log_replay_identical():
    def run():
        eng = SimEngine(seed=42)
        rng = eng.fork_rng("drive")
        log = []

        def handler(ev):
            log.append(f"{ev.fire_at} {ev.target} {ev.kind}")
            if eng.now < 500:
                eng.schedule_in(int(rng.integers(1, 20)), "t", "tick")

        eng.register("t", handler)
        eng.schedule(0, "t", "tick")
        eng.run_until(1000)
        return log

    assert run() == run()


def test_fork_rng_streams_are_independent_and_stable():
    eng = SimEngine(seed=7)
    a1 = eng.fork_rng("alpha").integers(0, 1 << 30, size=8).tolist()
    a2 = SimEngine(seed=7).fork_rng("alpha").integers(0, 1 << 30, size=8).tolist()
    b = eng.fork_rng("beta").integers(0, 1 << 30, size=8).tolist()
    assert a1 == a2
    assert a1 != b


def test_derive_stream_seed_depends_on_both_inputs():
    assert derive_stream_seed(1, "x") != derive_stream_seed(2, "x")
    assert derive_stream_seed(1, "x") != derive_stream_seed(1, "y")


def test_seeded_rng_reproducible():
    draws = SeededRng(99).integers(0, 1 << 30, size=5).tolist()
    assert draws == SeededRng(99).integers(0, 1 << 30, size=5).tolist()


def test_schedule_many_matches_schedule_calls():
    eng = SimEngine()
    seen = collect(eng)
    eng.run_until(5)
    ids = eng.schedule_many("t", "batch", [(9, ("a",)), (5, ("b",))])
    assert list(ids) == [0, 1]
    assert eng.schedule(5, "t", "after") == 2
    eng.run_until(9)
    assert seen == [(5, "batch"), (5, "after"), (9, "batch")]
    with pytest.raises(SchedulingError):
        eng.schedule_many("t", "late", [(10, ()), (8, ())])
    assert eng.schedule(10, "t", "next") == 3  # nothing was enqueued


# one step of a scheduling script: (op, delays, index)
STEPS = st.lists(st.tuples(
    st.sampled_from(["one", "many", "order", "reserve", "cancel", "run"]),
    st.lists(st.integers(0, 4), min_size=0, max_size=6),
    st.integers(0, 50)), max_size=25)


def play(steps, batched):
    """Run a script; `batched` enqueues each "many" step with one
    schedule_many call instead of one schedule call per event."""
    eng = SimEngine()
    seen = []
    eng.register("t", lambda ev: seen.append((eng.now, ev.params)))
    ids, slots = [], []
    for n, (op, delays, index) in enumerate(steps):
        times = [eng.now + d for d in delays]
        if op == "one" and times:
            ids.append(eng.schedule(times[0], "t", "e", (n,)))
        elif op == "many":
            timed = [(t, (n, i)) for i, t in enumerate(times)]
            if batched:
                ids.extend(eng.schedule_many("t", "e", timed))
            else:
                ids.extend(eng.schedule(t, "t", "e", p) for t, p in timed)
        elif op == "order" and times and slots:
            ids.append(eng.schedule(times[0], "t", "e", (n,),
                                    order=slots[index % len(slots)]))
        elif op == "reserve":
            slots.append((eng.now, eng.reserve_slot()))
        elif op == "cancel" and ids:
            eng.cancel(ids[index % len(ids)])
        elif op == "run":
            eng.run_until(eng.now + (delays[0] if delays else 0))
    eng.run_until(eng.now + 10)
    return seen, ids, eng.processed


@settings(max_examples=300, deadline=None)
@given(STEPS)
def test_schedule_many_fires_like_schedule_calls(steps):
    assert play(steps, batched=True) == play(steps, batched=False)
