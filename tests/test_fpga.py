"""FPGA node tests: configuration memory semantics, voting, the window
verdict against a sample-level FIR oracle, scrubbing and enhanced repair
against a per-word oracle, partial reconfiguration, ICAP arbitration and
watchdog reset."""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cotsim.config import (ARCHITECTURES, FRAME_BYTES, ComponentSpec,
                           make_architecture)
from cotsim.ecc import secded_decode
from cotsim.engine import SimEngine
from cotsim.fpga import (FRAME_BITS, ConfigMemory, FpgaNode, IcapArbiter,
                         IcapError, InvariantViolation, Scrubber,
                         VOTE_CORRECTED, VOTE_UNANIMOUS, VOTE_UNCORRECTABLE,
                         _down_below, corrupt_samples, reload_duration_us,
                         tmr_vote)


def small_memory():
    return ConfigMemory([
        ComponentSpec("app", frames=2, essential_bits=16, reloadable=True),
        ComponentSpec("ctrl", frames=1, essential_bits=4),
    ])


# -- FIR oracle -------------------------------------------------------------


def fir_filter(samples, coeffs) -> np.ndarray:
    """Streaming FIR with zero-padded history: out[n] = sum coeffs[k] x[n-k]."""
    samples = np.asarray(samples, dtype=np.int64)
    return np.convolve(samples, np.asarray(coeffs, dtype=np.int64)
                       )[: samples.size]


def fir_oracle(samples, coeffs):
    out = []
    for n in range(len(samples)):
        acc = 0
        for k, c in enumerate(coeffs):
            if n - k >= 0:
                acc += c * samples[n - k]
        out.append(acc)
    return out


def test_fir_matches_brute_force_oracle():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        samples = rng.integers(-100, 100, size=n)
        coeffs = rng.integers(-5, 6, size=int(rng.integers(1, 8)))
        got = fir_filter(samples, coeffs)
        assert got.tolist() == fir_oracle(samples.tolist(), coeffs.tolist())


def test_corrupt_samples_always_differs_and_replays():
    correct = fir_filter(np.arange(16), (1, 2, 1))
    bad = corrupt_samples(correct, tag=77)
    assert np.all(bad != correct)
    assert np.array_equal(bad, corrupt_samples(correct, tag=77))
    assert not np.array_equal(bad, corrupt_samples(correct, tag=78))


# -- voter ------------------------------------------------------------------


def test_vote_statuses():
    out, status = tmr_vote([1, 1, 1, 9], [1, 2, 1, 8], [1, 1, 2, 7])
    assert out.tolist() == [1, 1, 1, 9]
    assert status.tolist() == [VOTE_UNANIMOUS, VOTE_CORRECTED,
                               VOTE_CORRECTED, VOTE_UNCORRECTABLE]


def test_vote_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        tmr_vote([1, 2], [1], [1, 2])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9),
                          st.integers(0, 9)), min_size=1, max_size=32))
def test_vote_matches_counting_oracle(rows):
    a, b, c = (np.array(col) for col in zip(*rows))
    out, status = tmr_vote(a, b, c)
    for i, votes in enumerate(rows):
        counts = {v: votes.count(v) for v in votes}
        best = max(counts.values())
        if best >= 2:
            winner = next(v for v in votes if counts[v] >= 2)
            assert out[i] == winner
            assert status[i] != VOTE_UNCORRECTABLE
        else:
            assert out[i] == votes[0]
            assert status[i] == VOTE_UNCORRECTABLE


# -- configuration memory ---------------------------------------------------


def test_flip_tracking_and_health():
    mem = small_memory()
    assert mem.healthy("app") and mem.healthy("ctrl")
    frame, bit = mem.essential_bits("app")[0]
    mem.flip_bit(frame, bit)
    assert mem.flipped_essential["app"] == [(frame, bit)]  # essential
    assert mem.frame_owner[frame] == "app"
    assert not mem.healthy("app")
    assert frame in mem.dirty
    assert mem.frames[frame] != mem.golden[frame]
    # flipping the same bit back heals the component
    mem.flip_bit(frame, bit)
    assert mem.healthy("app")
    assert frame not in mem.dirty
    assert mem.frames[frame] == mem.golden[frame]


def test_non_essential_flip_dirties_without_breaking():
    mem = small_memory()
    essential = mem.essential_bits("app")
    frame = mem.comp_frames["app"].start
    bit = next(b for b in range(FRAME_BITS) if (frame, b) not in essential)
    mem.flip_bit(frame, bit)
    assert not any(mem.flipped_essential.values())
    assert mem.healthy("app")
    assert frame in mem.dirty


def test_restore_component_heals_all_frames():
    mem = small_memory()
    for frame, bit in mem.essential_bits("app")[:5]:
        mem.flip_bit(frame, bit)
    mem.restore_component("app")
    assert mem.healthy("app")
    assert all(f not in mem.dirty for f in mem.comp_frames["app"])
    assert mem.frames[0] == mem.golden[0]


def test_corruption_tag_tracks_flip_set():
    mem = small_memory()
    bits = mem.essential_bits("app")[:2]
    mem.flip_bit(*bits[0])
    tag1 = mem.corruption_tag("app")
    mem.flip_bit(*bits[1])
    tag2 = mem.corruption_tag("app")
    assert tag1 != tag2
    mem.flip_bit(*bits[1])
    assert mem.corruption_tag("app") == tag1


def golden_word(mem, frame, word):
    return mem.golden[frame] >> 32 * word & 0xFFFFFFFF


def read_word(mem, frame, word):
    return mem.frames[frame] >> 32 * word & 0xFFFFFFFF


def test_write_word_keeps_flip_tracking_exact():
    mem = small_memory()
    mem.flip_bit(0, 37)  # inside word 1
    mem.write_word(0, 1, golden_word(mem, 0, 1))
    assert 0 not in mem.dirty
    assert mem.frames[0] == mem.golden[0]


def old_essential(components):
    """The per-bit loop that used to place the essential bits."""
    essential, start = {}, 0
    for comp in components:
        region_bits = comp.frames * FRAME_BITS
        essential[comp.name] = frozenset(
            (start + g // FRAME_BITS, g % FRAME_BITS)
            for g in (i * region_bits // comp.essential_bits
                      for i in range(comp.essential_bits)))
        start += comp.frames
    return essential


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_golden_frames_and_essential_bits_match_the_old_generators(arch):
    components = make_architecture(arch).components
    mem = ConfigMemory(components)
    assert [g.to_bytes(FRAME_BYTES, "little") for g in mem.golden] == [
        bytes((index * 131 + i * 7) & 0xFF for i in range(FRAME_BYTES))
        for index in range(mem.n_frames)]
    assert type(mem.golden) is tuple
    assert all(type(g) is int for g in mem.golden)
    assert mem.frames == list(mem.golden)
    assert_essential_bits_match(mem, components)


def test_essential_bits_match_the_old_generator_on_odd_sizes():
    components = [ComponentSpec("a", frames=3, essential_bits=7),
                  ComponentSpec("b", frames=1, essential_bits=FRAME_BITS),
                  ComponentSpec("c", frames=2, essential_bits=1)] + DENSE
    assert_essential_bits_match(ConfigMemory(components), components)


def assert_essential_bits_match(mem, components):
    """essential_bits gives the old generator's addresses, sorted; the
    mask has exactly those bits set, and frame_owner agrees."""
    old = old_essential(components)
    assert {name: mem.essential_bits(name) for name in mem.components} == \
        {name: sorted(addrs) for name, addrs in old.items()}
    assert all(type(f) is int and type(b) is int
               for name in mem.components for f, b in mem.essential_bits(name))
    assert all(type(row) is int and 0 <= row < 1 << FRAME_BITS
               for row in mem.essential_mask)
    assert len(mem.essential_mask) == mem.n_frames
    assert set_bits(mem.essential_mask, mem.n_frames) == \
        sorted(set().union(*old.values()))
    assert all(mem.frame_owner[frame] == name
               for name, addrs in old.items() for frame, _ in addrs)


def set_bits(rows, n_frames) -> list[tuple[int, int]]:
    """Every (frame, bit) set in per-frame integers, in sorted order, read
    from their little-endian bytes: bit b of a frame is bit b % 8 of its
    byte b // 8."""
    data = b"".join(row.to_bytes(FRAME_BYTES, "little") for row in rows)
    bits = np.unpackbits(np.frombuffer(data, np.uint8),
                         bitorder="little").reshape(n_frames, FRAME_BITS)
    return [(int(f), int(b)) for f, b in zip(*np.nonzero(bits))]


def fresh_tag(marks) -> int:
    """corruption_tag computed from scratch, without the memo."""
    digest = hashlib.blake2b(repr(sorted(marks)).encode(),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


# about every 5th bit is essential, at every position within a byte;
# writes and flips stay in words 0-1 so that they collide, toggle back
# and restore each other's bits
DENSE = [ComponentSpec("app", frames=2, essential_bits=1200),
         ComponentSpec("ctrl", frames=1, essential_bits=600)]
MEMORY_OPS = st.lists(st.one_of(
    st.tuples(st.just("flip_bit"), st.integers(0, 2), st.integers(0, 63)),
    st.tuples(st.just("write"), st.integers(0, 2), st.integers(0, 1),
              st.one_of(st.integers(0, 255), st.integers(0, 2**32 - 1)),
              st.booleans()),
    st.tuples(st.just("restore_frame"), st.integers(0, 2)),
    st.tuples(st.just("restore_component"), st.sampled_from(["app", "ctrl"])),
    st.tuples(st.just("restore_all"))), max_size=40)


@settings(max_examples=200, deadline=None)
@given(MEMORY_OPS)
def test_config_memory_tracking_and_tag_memo(ops):
    """After every op, the derived views equal views recomputed from the
    frame bytes and golden alone."""
    mem = ConfigMemory(DENSE)
    essential = {name: set(mem.essential_bits(name))
                 for name in mem.components}
    for op, *args in ops:
        if op == "write":
            frame, word, mask, from_golden = args
            base = golden_word(mem, frame, word) if from_golden \
                else read_word(mem, frame, word)
            mem.write_word(frame, word, base ^ mask)
        elif op == "flip_bit":
            frame, bit = args
            owner = mem.frame_owner[frame]
            before = mem.changed[owner]
            mem.flip_bit(frame, bit)
            assert (mem.changed[owner] != before) == any(
                (frame, bit) in addrs for addrs in essential.values())
        else:
            getattr(mem, op)(*args)
        flipped = set_bits([f ^ g for f, g in zip(mem.frames, mem.golden)],
                           mem.n_frames)
        assert mem.dirty == {f for f, _ in flipped}
        for name in mem.components:
            marks = [addr for addr in flipped if addr in essential[name]]
            assert mem.flipped_essential[name] == marks  # sorted
            assert mem.corruption_tag(name) == fresh_tag(marks)
            assert mem.healthy(name) == (not marks)


# -- ICAP arbitration -------------------------------------------------------


def test_icap_fifo_and_exclusivity():
    icap = IcapArbiter()
    granted = []
    icap.acquire("cms", lambda: granted.append("cms"))
    assert icap.owner == "cms" and not icap.queue
    icap.acquire("dpr", lambda: granted.append("dpr"))
    assert icap.owner == "cms" and [o for o, _ in icap.queue] == ["dpr"]
    assert granted == ["cms"]
    icap.release("cms")
    assert granted == ["cms", "dpr"]
    assert icap.owner == "dpr" and not icap.queue
    icap.release("dpr")
    assert icap.owner is None
    assert icap.grants == 2 and icap.releases == 2


def test_icap_rejects_reentrant_and_foreign_release():
    icap = IcapArbiter()
    icap.acquire("cms", lambda: None)
    with pytest.raises(IcapError):
        icap.acquire("cms", lambda: None)
    with pytest.raises(IcapError):
        icap.release("dpr")


def test_double_grant_is_an_invariant_violation():
    icap = IcapArbiter()
    icap.acquire("cms", lambda: None)
    with pytest.raises(InvariantViolation):
        icap._grant("dpr", lambda: None)


# -- scrubber ---------------------------------------------------------------


def cms_node(**overrides):
    eng = SimEngine()
    node = FpgaNode(eng, make_architecture("CMS", **overrides))
    node.start()
    return eng, node


def run_until_detection(eng, node, deadline=1_000_000):
    while eng.now < deadline:
        eng.run_until(eng.now + node.arch.scan_period_us)
        if node.scrubber.repair_frame is not None:
            return eng.now
    raise AssertionError("scrubber never detected the damage")


def test_scrubber_repairs_frame_after_exact_latency():
    eng, node = cms_node()
    frame = node.mem.comp_frames["fir_0"].start
    node.mem.flip_bit(frame, 123)
    detected_at = run_until_detection(eng, node)
    eng.run_until(detected_at + 17_999)
    assert frame in node.mem.dirty
    eng.run_until(detected_at + 18_000)
    assert frame not in node.mem.dirty
    assert node.scrubber.report.repairs == 1
    assert node.icap.owner is None


def test_enhanced_repair_corrects_single_bit_per_word():
    eng, node = cms_node(scrub_mode="enhanced_repair")
    frame = node.mem.comp_frames["fir_0"].start
    node.mem.flip_bit(frame, 65)
    detected_at = run_until_detection(eng, node)
    eng.run_until(detected_at + 18_000)
    assert frame not in node.mem.dirty
    assert node.scrubber.report.repairs == 1
    assert node.scrubber.report.uncorrectable == 0


def test_enhanced_repair_flags_multibit_word_uncorrectable():
    eng, node = cms_node(scrub_mode="enhanced_repair")
    frame = node.mem.comp_frames["fir_0"].start
    node.mem.flip_bit(frame, 64)
    node.mem.flip_bit(frame, 70)  # same 32-bit word
    detected_at = run_until_detection(eng, node)
    eng.run_until(detected_at + 18_000)
    assert frame in node.mem.dirty
    assert node.scrubber.report.uncorrectable == 1
    # the scrubber remembers the signature and does not retry forever
    eng.run_until(detected_at + 200_000)
    assert node.scrubber.report.detections == 1


def test_scrubber_keeps_the_tick_grid_and_runs_no_tick_as_an_event():
    eng, node = cms_node()
    assert eng.run_until(1_000_000) == 0  # a clean memory needs no ticks
    assert node.scrubber.pointer == 10_000 % node.mem.n_frames
    frame = (node.scrubber.pointer + 5) % node.mem.n_frames
    node.mem.flip_bit(frame, 3)
    # the sixth tick after 1 s reaches the frame and starts its repair
    assert eng.run_until(1_000_599) == 0
    assert node.scrubber.report.detections == 0
    assert eng.run_until(1_000_600) == 0
    assert node.scrubber.repair_frame == frame
    assert node.scrubber.report.detections == 1
    # the repair ends 18 ms after that tick: the one event
    assert eng.run_until(1_018_599) == 0
    assert frame in node.mem.dirty
    assert eng.run_until(1_018_600) == 1
    assert frame not in node.mem.dirty


def test_damage_undone_between_two_ticks_is_never_detected():
    eng, node = cms_node()
    eng.run_until(1_000_020)
    frame = node.scrubber.pointer  # what the tick at 1,000,100 reads
    node.mem.flip_bit(frame, 3)
    eng.run_until(1_000_080)
    node.mem.flip_bit(frame, 3)
    assert eng.run_until(1_100_000) == 0
    assert node.scrubber.report.detections == 0
    assert node.scrubber.pointer == 11_000 % node.mem.n_frames


def test_a_plan_made_before_a_reset_never_runs_after_it():
    eng, node = cms_node()
    node.mem.flip_bit(5, 3)  # tick 6 of the chain would find it
    eng.run_until(50)
    node.full_reset()
    done = 50 + node.reset_duration_us()
    assert eng.run_until(done + 1_000) == 1  # the end of the reset
    assert node.scrubber.report.detections == 0
    # damage in the new chain is found on the new chain's tick grid
    frame = node.scrubber.pointer + 2
    node.mem.flip_bit(frame, 3)
    eng.run_until(done + 1_299)
    assert node.scrubber.report.detections == 0
    eng.run_until(done + 1_300)
    assert node.scrubber.repair_frame == frame
    assert node.scrubber.report.detections == 1


def test_skipped_ticks_still_send_heartbeats():
    eng = SimEngine()
    node = FpgaNode(eng, make_architecture("CMS+DPR+TMR+WD"))
    node.start()
    eng.run_until(1_234)
    node.wd.check()
    assert node.wd.last_heartbeat == 1_200
    node.mem.flip_bit(*node.mem.essential_bits("wd_link")[0])
    eng.run_until(5_555)
    node.wd.check()
    assert node.wd.last_heartbeat == 1_200  # the status link is down


def test_dead_controller_stops_scrubbing():
    eng, node = cms_node()
    for addr in node.mem.essential_bits("cms_ctrl")[:1]:
        node.mem.flip_bit(*addr)
    frame = node.mem.comp_frames["fir_0"].start
    node.mem.flip_bit(frame, 9)
    eng.run_until(500_000)
    assert frame in node.mem.dirty
    assert node.scrubber.report.detections == 0


# -- partial reconfiguration ------------------------------------------------


def test_reload_duration_is_ceiling_at_67_bytes_per_us():
    assert reload_duration_us(670_000) == 10_000
    assert reload_duration_us(67) == 1
    assert reload_duration_us(68) == 2
    assert reload_duration_us(1) == 1


def test_dpr_reload_restores_region_after_transfer():
    eng = SimEngine()
    node = FpgaNode(eng, make_architecture("DPR"))
    node.start()
    frame, bit = node.mem.essential_bits("fir_0")[0]
    node.mem.flip_bit(frame, bit)
    node.dpr.request_reload("fir_0")
    duration = reload_duration_us(
        node.mem.components["fir_0"].size_bytes())
    eng.run_until(duration - 1)
    assert not node.mem.healthy("fir_0")
    eng.run_until(duration)
    assert node.mem.healthy("fir_0")
    assert node.dpr.reloads == 1


def test_dpr_requests_dropped_when_controller_dead():
    eng = SimEngine()
    node = FpgaNode(eng, make_architecture("DPR"))
    node.start()
    for addr in node.mem.essential_bits("dpr_ctrl")[:1]:
        node.mem.flip_bit(*addr)
    node.dpr.request_reload("fir_0")
    assert node.dpr.active is None and not node.dpr.queue
    assert node.icap.owner is None


def test_non_reloadable_region_is_refused():
    eng = SimEngine()
    node = FpgaNode(eng, make_architecture("DPR"))
    node.start()
    node.dpr.request_reload("dpr_ctrl")
    assert node.dpr.active is None


# -- window verdict ---------------------------------------------------------


WINDOW_INPUT = (np.arange(32, dtype=np.int64) % 23) + 1
FIR_COEFFS = (1, 2, 3, 2, 1)
ALL_FIRS = ["fir_0", "fir_1", "fir_2"]
DATAPATH = ["voter_in", "fir_0", "fir_1", "fir_2", "voter_out"]


def through(node, name, data):
    """`data` after component `name`: unchanged if healthy, else corrupted."""
    mem = node.mem
    if mem.healthy(name):
        return data
    return corrupt_samples(np.asarray(data, dtype=np.int64),
                           fresh_tag(mem.flipped_essential[name]))


def reference_filter_outputs(node):
    """The golden output and each filter replica's output, from scratch."""
    golden = fir_filter(WINDOW_INPUT, FIR_COEFFS)
    if not node.arch.tmr:
        return golden, [through(node, "fir_0", golden)]
    voted_in = through(node, "voter_in", WINDOW_INPUT)
    return golden, [through(node, f"fir_{i}", fir_filter(voted_in, FIR_COEFFS))
                    for i in range(3)]


def reference_pipeline(node):
    """The sample-level datapath from scratch: every filter run, every mask
    drawn.  Returns (output == golden output, repair requests)."""
    golden, outs = reference_filter_outputs(node)
    if not node.arch.tmr:
        return np.array_equal(outs[0], golden), []
    voted, status = tmr_vote(*outs)
    requests = [f"fir_{i}" for i in range(3)
                if not np.array_equal(outs[i], voted)]
    if np.any(status == VOTE_UNCORRECTABLE):
        requests = list(ALL_FIRS)
    return np.array_equal(through(node, "voter_out", voted), golden), requests


def flip_first(node, *names):
    for name in names:
        node.mem.flip_bit(*node.mem.essential_bits(name)[0])


def test_tmr_masks_single_replica_and_requests_repair():
    node = FpgaNode(SimEngine(), make_architecture("TMR"))
    flip_first(node, "fir_1")
    assert node._datapath() == (True, ["fir_1"])
    assert reference_pipeline(node) == (True, ["fir_1"])


def test_tmr_two_bad_replicas_not_maskable():
    node = FpgaNode(SimEngine(), make_architecture("TMR"))
    flip_first(node, "fir_0", "fir_1")
    assert node._datapath() == (False, ALL_FIRS)
    assert reference_pipeline(node) == (False, ALL_FIRS)


# one_bad_output: at most one filter output differs from the golden one, so
# no coincidence between fault masks could bear on the verdict
@pytest.mark.parametrize("arch, faulty, verdict, one_bad_output", [
    ("No-FT", [], (True, []), True),
    ("No-FT", ["fir_0"], (False, []), True),
    ("TMR", [], (True, []), True),
    ("TMR", ["fir_1"], (True, ["fir_1"]), True),
    ("TMR", ["fir_2", "voter_out"], (False, ["fir_2"]), True),
    ("TMR", ["voter_out"], (False, []), True),
    ("TMR", ["fir_0", "fir_2"], (False, ALL_FIRS), False),
    ("TMR", ALL_FIRS, (False, ALL_FIRS), False),
    ("TMR", ["voter_in"], (False, []), False),
    ("TMR", ["voter_in", "fir_1"], (False, ["fir_1"]), False),
    # the uncorrectable vote emits fir_0's output, which is correct
    ("TMR", ["fir_1", "fir_2"], (True, ALL_FIRS), False),
])
def test_datapath_verdict_per_branch(arch, faulty, verdict, one_bad_output):
    node = FpgaNode(SimEngine(), make_architecture(arch))
    flip_first(node, *faulty)
    assert node._datapath() == verdict
    assert reference_pipeline(node) == verdict
    golden, outs = reference_filter_outputs(node)
    bad = sum(not np.array_equal(out, golden) for out in outs)
    assert (bad <= 1) == one_bad_output


def test_datapath_matches_the_oracle_on_every_health_pattern():
    patterns = [("No-FT", ()), ("No-FT", ("fir_0",))] + [
        ("TMR", tuple(name for name, bad in zip(DATAPATH, bits) if bad))
        for bits in itertools.product((False, True), repeat=len(DATAPATH))]
    for arch, faulty in patterns:
        node = FpgaNode(SimEngine(), make_architecture(arch))
        flip_first(node, *faulty)
        assert node._datapath() == reference_pipeline(node), (arch, faulty)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["No-FT", "TMR"]),
       st.lists(st.one_of(
           st.tuples(st.just("flip"), st.sampled_from(DATAPATH),
                     st.integers(0, 2)),
           st.tuples(st.just("restore"), st.sampled_from(DATAPATH)),
           st.tuples(st.just("restore_all"))), max_size=25))
def test_datapath_matches_the_pipeline(arch, ops):
    node = FpgaNode(SimEngine(), make_architecture(arch))
    mem = node.mem
    for op, *args in ops:
        if op == "restore_all":
            mem.restore_all()
        elif args[0] in mem.components:
            if op == "flip":
                mem.flip_bit(*mem.essential_bits(args[0])[args[1]])
            else:
                mem.restore_component(args[0])
        assert node._datapath() == reference_pipeline(node)


# -- health log and window watcher ------------------------------------------


def test_a_window_reads_the_last_log_entry_that_sorts_before_it():
    """A window at W reads entries placed before (W, 1): an injection or
    an event scheduled at time 0 that falls at W counts, an event
    scheduled later does not.  In reset a window is down."""
    node = FpgaNode(SimEngine(), make_architecture("No-FT"), window_us=100)
    node.health_log += [(100, 1, True, False, None),
                        (200, 0, True, False, None),
                        (250, 7, False, True, None),
                        (300, 0, False, False, "[('fir_0', 5)]")]
    node.health_log.append((500, 2, False, True, None))

    def wrong(t):
        digest = hashlib.blake2b(f"3:{t}:[('fir_0', 5)]".encode(),
                                 digest_size=8).digest()
        u = int.from_bytes(digest, "big") / 2**64
        return "down" if u < node.arch.app_down_fraction else "erroneous"

    assert node.evaluate_window(3, 600) == [
        "correct", "down", wrong(300), wrong(400), wrong(500), "correct"]


@pytest.mark.parametrize("fraction", [0.0, 1.0, 0.92, 0.5, 1e-300,
                                      0.1 + 0.2, 1 - 2**-53])
def test_the_down_bound_splits_digests_as_the_float_rule_does(fraction):
    """A digest maps to down iff int(d) / 2**64 < fraction; the bound is
    the first digest that does not."""
    bound = int.from_bytes(_down_below(fraction), "big")
    assert bound / 2**64 >= fraction
    assert bound == 0 or (bound - 1) / 2**64 < fraction


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_only_dpr_with_tmr_registers_a_window_watcher(arch):
    eng = SimEngine()
    node = FpgaNode(eng, make_architecture(arch), window_us=4_000)
    assert (node.windows is not None) == ("DPR+TMR" in arch)
    assert eng._watchers == [w for w in (node.scrubber, node.windows)
                             if w is not None]
    assert FpgaNode(SimEngine(), make_architecture(arch)).windows is None


def test_window_watcher_is_armed_only_while_a_fir_replica_needs_a_reload():
    eng = SimEngine()
    node = FpgaNode(eng, make_architecture("DPR+TMR"), window_us=1_000)
    node.start()
    windows, dpr = node.windows, node.dpr
    assert windows.watch_key is None
    # an injection at a window time comes before that window
    eng.run_until(3_000, scheduled_before=1)
    fir_1 = node.mem.essential_bits("fir_1")[0]
    node.mem.flip_bit(*fir_1)
    node.log_change()
    assert windows.watch_key == (3_000, 1, -1)
    assert windows.requests == ["fir_1"]
    eng.run_until(3_000)
    assert dpr.active == "fir_1"
    # the reload ends, fir_1 is healthy again, and nothing is requested
    eng.run_until(3_000 + reload_duration_us(
        node.mem.components["fir_1"].size_bytes()))
    assert node.mem.healthy("fir_1") and dpr.reloads == 1
    assert windows.watch_key is None
    # a dead DPR controller drops every request, so none arms the watcher
    node.mem.flip_bit(*node.mem.essential_bits("dpr_ctrl")[0])
    node.mem.flip_bit(*fir_1)
    node.log_change()
    assert not node.mem.healthy("fir_1") and windows.watch_key is None


# -- enhanced repair oracle -------------------------------------------------


def reference_enhanced_repair(scrubber, frame):
    """The enhanced repair as first written: numpy finds the damaged words,
    and each corrected word is written back on its own."""
    mem, report = scrubber.mem, scrubber.report
    def words(value):
        return np.frombuffer(value.to_bytes(FRAME_BYTES, "little"), "<u4")

    damaged_words = np.flatnonzero(
        words(mem.frames[frame]) != words(mem.golden[frame])).tolist()
    parity = mem.parity_store(frame)
    for w in damaged_words:
        value, status = secded_decode(read_word(mem, frame, w), parity[w])
        if status == "corrected":
            mem.write_word(frame, w, value)
    if frame in mem.dirty:
        report.uncorrectable += 1
        scrubber.known_uncorrectable[frame] = mem.frames[frame]
    else:
        report.repairs += 1
        scrubber.known_uncorrectable.pop(frame, None)


def repair_state(node, frame):
    mem, scrubber = node.mem, node.scrubber
    return (mem.frames[frame], mem.dirty, mem.flipped_essential,
            scrubber.report, scrubber.known_uncorrectable)


WORDS_PER_FRAME = FRAME_BYTES // 4
# one damage round: 1-3 flipped bits in each of up to 6 words; an empty
# round repairs the frame again as it is.  Words and bits are often drawn
# from a few low ones, so that rounds flip bits back, turn a double error
# into a single one, and hit 3-bit patterns that alias (bits 0-2 sit at
# code positions 3, 5 and 6, whose syndromes cancel)
DAMAGE = st.lists(st.tuples(
    st.integers(0, 3) | st.integers(0, WORDS_PER_FRAME - 1),
    st.sets(st.integers(0, 3) | st.integers(0, 31), min_size=1,
            max_size=3)), max_size=6)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 18), st.lists(DAMAGE, min_size=1, max_size=5))
def test_enhanced_repair_matches_the_per_word_reference(frame, rounds):
    """Repeated damage and repair of one frame leaves the same bytes,
    derived views, counters and uncorrectable signatures as the per-word
    repair."""
    nodes = [FpgaNode(SimEngine(), make_architecture("CMS+DPR+TMR+WD"))
             for _ in range(2)]
    assert nodes[0].mem.n_frames == 19
    for damage in rounds:
        for node in nodes:
            for word, bits in damage:
                for bit in bits:
                    node.mem.flip_bit(frame, 32 * word + bit)
        nodes[0].scrubber._enhanced_repair(frame)
        reference_enhanced_repair(nodes[1].scrubber, frame)
        assert repair_state(nodes[0], frame) == repair_state(nodes[1], frame)


# -- watchdog ---------------------------------------------------------------


def test_watchdog_resets_on_lost_heartbeat():
    eng = SimEngine()
    node = FpgaNode(eng, make_architecture("CMS+DPR+TMR+WD"))
    node.start()
    for addr in node.mem.essential_bits("cms_ctrl"):
        node.mem.flip_bit(*addr)
    eng.run_until(node.arch.wd_timeout_us * 2)
    assert node.epoch == 1
    eng.run_until(node.arch.wd_timeout_us * 2 + node.reset_duration_us())
    assert not node.in_reset
    assert node.mem.healthy("cms_ctrl")
    # the health log saw the reset start and end, and its last entry is a
    # correct output out of reset
    assert [entry[2] for entry in node.health_log].count(True) == 1
    assert node.health_log[-1][2:] == (False, True, None)


def test_reset_invalidates_stale_events():
    """A repair and a reload in flight when a full reset starts never
    finish: a stale finish would count work the new epoch did not do and
    release an ICAP grant it no longer holds (IcapError)."""
    eng = SimEngine()
    node = FpgaNode(eng, make_architecture("CMS+DPR+TMR+WD"))
    node.start()
    scrubber, dpr = node.scrubber, node.dpr
    frame, bit = node.mem.essential_bits("fir_1")[0]

    def put_in_flight():
        """Damage fir_1; the scrubber's repair of it holds the ICAP and a
        reload of fir_1 waits behind it.  Returns when the repair ends."""
        node.mem.flip_bit(frame, bit)
        detected_at = run_until_detection(eng, node)
        dpr.request_reload("fir_1")
        assert node.icap.owner == "cms" and dpr.active == "fir_1"
        return detected_at + node.arch.frame_repair_latency_us

    old_due = put_in_flight()
    epoch_before = node.epoch
    node.full_reset()
    assert node.epoch == epoch_before + 1
    eng.run_until(eng.now + node.reset_duration_us())
    assert not node.in_reset and node.mem.healthy("fir_1")
    new_due = put_in_flight()
    assert new_due > old_due
    reload_us = reload_duration_us(node.mem.components["fir_1"].size_bytes())
    # past the old repair's and the old reload's due times
    eng.run_until(old_due + reload_us)
    assert scrubber.report.repairs == 0 and dpr.reloads == 0
    assert frame in node.mem.dirty and node.icap.owner == "cms"
    # the new epoch's repair and reload finish on their own schedule
    eng.run_until(new_due)
    assert scrubber.report.repairs == 1 and node.mem.healthy("fir_1")
    assert node.icap.owner == "dpr" and dpr.reloads == 0
    eng.run_until(new_due + reload_us)
    assert dpr.reloads == 1 and node.icap.owner is None
    assert node.health_log[-1][2:] == (False, True, None)
