"""FPGA node tests: configuration memory semantics, voting, the window
verdict against a sample-level FIR oracle, scrubbing and enhanced repair
against a per-word oracle, partial reconfiguration, ICAP arbitration and
watchdog reset."""

import dataclasses
import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cotsim.config import (ARCHITECTURES, FRAME_BYTES, ComponentSpec,
                           make_architecture)
from cotsim.ecc import secded_decode, secded_encode
from cotsim.engine import SimEngine
from cotsim.fpga import (FRAME_BITS, ConfigMemory, FpgaNode, IcapArbiter,
                         InvariantViolation, Scrubber, layout_of,
                         VOTE_CORRECTED, VOTE_UNANIMOUS, VOTE_UNCORRECTABLE,
                         _down_below, corrupt_samples, reload_duration_us,
                         tmr_vote)


def reset_us(node) -> int:
    """How long a full reset keeps the node down."""
    return reload_duration_us(node.mem.layout.n_frames * FRAME_BYTES)


def essential_bits(layout, name) -> list[tuple[int, int]]:
    """Component `name`'s essential (frame, bit) addresses as Python
    ints, sorted, from `Layout.essential_addresses`."""
    frames, bits = layout.essential_addresses[name]
    return list(zip(frames.tolist(), bits.tolist()))


def contents(mem, frame) -> int:
    """Frame `frame`'s contents: its golden copy XOR its upset pattern."""
    return mem.layout.golden[frame] ^ mem.errors[frame]


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
    frame, bit = essential_bits(mem.layout, "app")[0]
    mem.flip_bit(frame, bit)
    assert mem.flipped_essential["app"] == [(frame, bit)]  # essential
    assert mem.layout.frame_owner[frame] == "app"
    assert not mem.healthy("app")
    assert mem.dirty >> frame & 1
    assert contents(mem, frame) != mem.layout.golden[frame]
    # flipping the same bit back heals the component
    mem.flip_bit(frame, bit)
    assert mem.healthy("app")
    assert not mem.dirty >> frame & 1
    assert contents(mem, frame) == mem.layout.golden[frame]


def test_non_essential_flip_dirties_without_breaking():
    mem = small_memory()
    essential = essential_bits(mem.layout, "app")
    frame = mem.layout.comp_frames["app"].start
    bit = next(b for b in range(FRAME_BITS) if (frame, b) not in essential)
    mem.flip_bit(frame, bit)
    assert not any(mem.flipped_essential.values())
    assert mem.healthy("app")
    assert mem.dirty >> frame & 1


def test_restore_component_heals_all_frames():
    mem = small_memory()
    for frame, bit in essential_bits(mem.layout, "app")[:5]:
        mem.flip_bit(frame, bit)
    mem.restore_component("app")
    assert mem.healthy("app")
    assert all(not mem.dirty >> f & 1 for f in mem.layout.comp_frames["app"])
    assert contents(mem, 0) == mem.layout.golden[0]


def test_corruption_tag_tracks_flip_set():
    mem = small_memory()
    bits = essential_bits(mem.layout, "app")[:2]
    mem.flip_bit(*bits[0])
    tag1 = mem.corruption_tag("app")
    mem.flip_bit(*bits[1])
    tag2 = mem.corruption_tag("app")
    assert tag1 != tag2
    mem.flip_bit(*bits[1])
    assert mem.corruption_tag("app") == tag1


def golden_word(mem, frame, word):
    return mem.layout.golden[frame] >> 32 * word & 0xFFFFFFFF


def read_word(mem, frame, word):
    return contents(mem, frame) >> 32 * word & 0xFFFFFFFF


def test_write_word_keeps_flip_tracking_exact():
    mem = small_memory()
    mem.flip_bit(0, 37)  # inside word 1
    mem.write_word(0, 1, golden_word(mem, 0, 1))
    assert not mem.dirty & 1
    assert contents(mem, 0) == mem.layout.golden[0]


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
    golden, n = mem.layout.golden, mem.layout.n_frames
    assert [g.to_bytes(FRAME_BYTES, "little") for g in golden] == [
        bytes((index * 131 + i * 7) & 0xFF for i in range(FRAME_BYTES))
        for index in range(n)]
    assert type(golden) is tuple
    assert all(type(g) is int for g in golden)
    assert mem.errors == [0] * n
    assert [contents(mem, f) for f in range(n)] == list(golden)
    assert_essential_bits_match(mem.layout, components)


def test_essential_bits_match_the_old_generator_on_odd_sizes():
    components = [ComponentSpec("a", frames=3, essential_bits=7),
                  ComponentSpec("b", frames=1, essential_bits=FRAME_BITS),
                  ComponentSpec("c", frames=2, essential_bits=1)] + DENSE
    assert_essential_bits_match(ConfigMemory(components).layout,
                                components)


def assert_essential_bits_match(layout, components):
    """`essential_addresses` gives the old generator's addresses, sorted;
    the mask has exactly those bits set, and frame_owner agrees."""
    old = old_essential(components)
    assert {name: essential_bits(layout, name)
            for name in layout.components} == \
        {name: sorted(addrs) for name, addrs in old.items()}
    assert all(type(f) is int and type(b) is int for name in layout.components
               for f, b in essential_bits(layout, name))
    assert all(type(row) is int and 0 <= row < 1 << FRAME_BITS
               for row in layout.essential_mask)
    assert len(layout.essential_mask) == layout.n_frames
    assert set_bits(layout.essential_mask, layout.n_frames) == \
        sorted(set().union(*old.values()))
    assert all(layout.frame_owner[frame] == name
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
    """After every op, the memory's contents equal a test-side model of
    the frame contents, which applies each op by value, and the derived
    views equal views recomputed from the model and golden alone, and so
    does the fault state the health log records."""
    mem = ConfigMemory(DENSE)
    layout = mem.layout
    golden, n = layout.golden, layout.n_frames
    model = list(golden)  # the frame contents, op by op
    essential = {name: set(essential_bits(layout, name))
                 for name in layout.components}
    for op, *args in ops:
        if op == "write":
            frame, word, mask, from_golden = args
            base = golden if from_golden else model
            value = (base[frame] >> 32 * word & 0xFFFFFFFF) ^ mask
            mem.write_word(frame, word, value)
            model[frame] &= ~(0xFFFFFFFF << 32 * word)
            model[frame] |= value << 32 * word
        elif op == "flip_bit":
            frame, bit = args
            before = mem.version
            mem.flip_bit(frame, bit)
            model[frame] ^= 1 << bit
            assert (mem.version != before) == any(
                (frame, bit) in addrs for addrs in essential.values())
        elif op == "restore_frame":
            mem.restore_frame(*args)
            model[args[0]] = golden[args[0]]
        else:  # restore_component(name) or restore_all()
            getattr(mem, op)(*args)
            for f in layout.comp_frames[args[0]] if args else range(n):
                model[f] = golden[f]
        assert [contents(mem, f) for f in range(n)] == model
        assert mem.dirty == sum(1 << f for f in range(n)
                                if model[f] != golden[f])
        flipped = set_bits([m ^ g for m, g in zip(model, golden)], n)
        unhealthy = []
        for name in mem.layout.components:
            marks = [addr for addr in flipped if addr in essential[name]]
            assert mem.flipped_essential[name] == marks  # sorted
            assert mem.corruption_tag(name) == fresh_tag(marks)
            assert mem.healthy(name) == (not marks)
            if marks:
                unhealthy.append((name, fresh_tag(marks)))
        assert mem.fault_state() == str(sorted(unhealthy))


# -- static layout ----------------------------------------------------------


def test_equal_component_lists_share_one_layout():
    """The layout is keyed by the components' fields, not by the list:
    architectures built apart share it, and each memory keeps its own
    mutable state over it."""
    one = ConfigMemory(make_architecture("CMS+DPR+TMR+WD").components)
    two = ConfigMemory(make_architecture("CMS+DPR+TMR+WD").components)
    assert one.layout is two.layout
    frame, bit = essential_bits(one.layout, "fir_0")[0]
    one.flip_bit(frame, bit)
    assert two.errors == [0] * two.layout.n_frames and two.healthy("fir_0")
    assert one.layout.golden[frame] == contents(two, frame) != \
        contents(one, frame)


def changed(spec: ComponentSpec, field: str) -> ComponentSpec:
    value = getattr(spec, field)
    return dataclasses.replace(spec, **{field: (
        not value if type(value) is bool else
        value + "x" if type(value) is str else value + 1)})


@pytest.mark.parametrize("index", [0, 1])
@pytest.mark.parametrize("field", ["name", "frames", "essential_bits",
                                   "reloadable"])
def test_a_list_differing_in_one_field_gets_its_own_layout(index, field):
    base = small_memory().layout
    components = list(base.components.values())
    components[index] = changed(components[index], field)
    assert ConfigMemory(components).layout is not base
    assert ConfigMemory(components).layout is layout_of(tuple(components))


def test_the_layout_cache_is_bounded():
    """Generated component lists cannot grow the cache without limit."""
    for n in range(1, 41):
        layout_of((ComponentSpec("app", frames=1, essential_bits=n),))
    info = layout_of.cache_info()
    assert info.maxsize == 16 and info.currsize == 16


def test_no_run_can_write_a_layout():
    """What a layout holds is immutable, so one run cannot change what a
    later run reads; the log texts are built once, read-only."""
    arch = make_architecture("CMS+DPR+TMR+WD")
    layout = ConfigMemory(arch.components).layout
    flags = layout.essential_flags
    with pytest.raises(ValueError, match="read-only"):
        flags[0] = not flags[0]
    with pytest.raises(ValueError, match="read-only"):
        flags[:] = False
    assert type(layout.log_texts) is tuple
    assert layout.log_texts is layout.log_texts
    for table in layout.log_texts:
        with pytest.raises(ValueError, match="read-only"):
            table[0] = b"x"
    for value in (layout.golden, layout.essential_mask, layout.frame_owner):
        assert type(value) is tuple
    assert type(layout.wakers) is frozenset


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_wakers_frames_hold_exactly_the_controller_and_link_bits(arch):
    """The essential addresses in the wakers' frames are the essential
    bits of cms_ctrl and wd_link, where present, and no others."""
    layout = ConfigMemory(make_architecture(arch).components).layout
    in_wakers = {(f, bit) for f in layout.wakers
                 for bit in range(FRAME_BITS)
                 if layout.essential_mask[f] >> bit & 1}
    assert in_wakers == {a for name in ("cms_ctrl", "wd_link")
                         if name in layout.components
                         for a in essential_bits(layout, name)}


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
    with pytest.raises(InvariantViolation):
        icap.acquire("cms", lambda: None)
    with pytest.raises(InvariantViolation):
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
    frame = node.mem.layout.comp_frames["fir_0"].start
    node.mem.flip_bit(frame, 123)
    detected_at = run_until_detection(eng, node)
    eng.run_until(detected_at + 17_999)
    assert node.mem.dirty >> frame & 1
    eng.run_until(detected_at + 18_000)
    assert not node.mem.dirty >> frame & 1
    assert node.scrubber.repairs == 1
    assert node.icap.owner is None


def test_enhanced_repair_corrects_single_bit_per_word():
    eng, node = cms_node(scrub_mode="enhanced_repair")
    frame = node.mem.layout.comp_frames["fir_0"].start
    node.mem.flip_bit(frame, 65)
    detected_at = run_until_detection(eng, node)
    eng.run_until(detected_at + 18_000)
    assert not node.mem.dirty >> frame & 1
    assert node.scrubber.repairs == 1
    assert node.scrubber.uncorrectable == 0


def test_enhanced_repair_flags_multibit_word_uncorrectable():
    eng, node = cms_node(scrub_mode="enhanced_repair")
    frame = node.mem.layout.comp_frames["fir_0"].start
    node.mem.flip_bit(frame, 64)
    node.mem.flip_bit(frame, 70)  # same 32-bit word
    detected_at = run_until_detection(eng, node)
    eng.run_until(detected_at + 18_000)
    assert node.mem.dirty >> frame & 1
    assert node.scrubber.uncorrectable == 1
    # the scrubber remembers the signature and does not retry forever
    eng.run_until(detected_at + 200_000)
    assert node.scrubber.detections == 1


def test_scrubber_keeps_the_tick_grid_and_runs_no_tick_as_an_event():
    eng, node = cms_node()
    assert eng.run_until(1_000_000) == 0  # a clean memory needs no ticks
    assert node.scrubber.pointer == 10_000 % node.mem.layout.n_frames
    frame = (node.scrubber.pointer + 5) % node.mem.layout.n_frames
    node.mem.flip_bit(frame, 3)
    # the sixth tick after 1 s reaches the frame and starts its repair
    assert eng.run_until(1_000_599) == 0
    assert node.scrubber.detections == 0
    assert eng.run_until(1_000_600) == 0
    assert node.scrubber.repair_frame == frame
    assert node.scrubber.detections == 1
    # the repair ends 18 ms after that tick: the one event
    assert eng.run_until(1_018_599) == 0
    assert node.mem.dirty >> frame & 1
    assert eng.run_until(1_018_600) == 1
    assert not node.mem.dirty >> frame & 1


def test_damage_undone_between_two_ticks_is_never_detected():
    eng, node = cms_node()
    eng.run_until(1_000_020)
    frame = node.scrubber.pointer  # what the tick at 1,000,100 reads
    node.mem.flip_bit(frame, 3)
    eng.run_until(1_000_080)
    node.mem.flip_bit(frame, 3)
    assert eng.run_until(1_100_000) == 0
    assert node.scrubber.detections == 0
    assert node.scrubber.pointer == 11_000 % node.mem.layout.n_frames


def test_a_plan_made_before_a_reset_never_runs_after_it():
    eng, node = cms_node()
    node.mem.flip_bit(5, 3)  # tick 6 of the chain would find it
    eng.run_until(50)
    node.full_reset()
    done = 50 + reset_us(node)
    assert eng.run_until(done + 1_000) == 1  # the end of the reset
    assert node.scrubber.detections == 0
    # damage in the new chain is found on the new chain's tick grid
    frame = node.scrubber.pointer + 2
    node.mem.flip_bit(frame, 3)
    eng.run_until(done + 1_299)
    assert node.scrubber.detections == 0
    eng.run_until(done + 1_300)
    assert node.scrubber.repair_frame == frame
    assert node.scrubber.detections == 1


def test_skipped_ticks_still_send_heartbeats():
    eng = SimEngine()
    node = FpgaNode(eng, make_architecture("CMS+DPR+TMR+WD"))
    node.start()
    eng.run_until(1_234)
    node.wd.check()
    assert node.wd.last_heartbeat == 1_200
    node.mem.flip_bit(*essential_bits(node.mem.layout, "wd_link")[0])
    eng.run_until(5_555)
    node.wd.check()
    assert node.wd.last_heartbeat == 1_200  # the status link is down


def test_dead_controller_stops_scrubbing():
    eng, node = cms_node()
    for addr in essential_bits(node.mem.layout, "cms_ctrl")[:1]:
        node.mem.flip_bit(*addr)
    frame = node.mem.layout.comp_frames["fir_0"].start
    node.mem.flip_bit(frame, 9)
    eng.run_until(500_000)
    assert node.mem.dirty >> frame & 1
    assert node.scrubber.detections == 0


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
    frame, bit = essential_bits(node.mem.layout, "fir_0")[0]
    node.mem.flip_bit(frame, bit)
    node.dpr.request_reload("fir_0")
    duration = reload_duration_us(
        node.mem.layout.components["fir_0"].size_bytes())
    eng.run_until(duration - 1)
    assert not node.mem.healthy("fir_0")
    eng.run_until(duration)
    assert node.mem.healthy("fir_0")
    assert node.dpr.reloads == 1


def test_dpr_requests_dropped_when_controller_dead():
    eng = SimEngine()
    node = FpgaNode(eng, make_architecture("DPR"))
    node.start()
    for addr in essential_bits(node.mem.layout, "dpr_ctrl")[:1]:
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
        node.mem.flip_bit(*essential_bits(node.mem.layout, name)[0])


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
        elif args[0] in mem.layout.components:
            if op == "flip":
                mem.flip_bit(*essential_bits(mem.layout, args[0])[args[1]])
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


BLANK_STATE = hashlib.blake2b(digest_size=8)


def message_and_cuts(size):
    """A message of `size` bytes and up to two cuts that split it into
    1-3 pieces."""
    return st.tuples(st.binary(min_size=size, max_size=size),
                     st.lists(st.integers(0, size), max_size=2))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4_096).flatmap(message_and_cuts))
@example((bytes(range(256)) * 8, [1, 2_047]))
@example((bytes(range(256)) * 8, [128, 1_024]))
@example((b"\xff" * 2_047, [2_047]))
@example((b"\xff" * 2_047, [0, 1_920]))
@example((b"", []))
def test_a_copied_blank_state_hashes_pieces_as_one_message(message_cuts):
    """`evaluate_window` feeds each window's message to a copy of one
    state in pieces: the digest is that of the whole message."""
    message, cuts = message_cuts
    cuts = [0, *sorted(cuts), len(message)]
    pieces = [message[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    h = BLANK_STATE.copy()
    for piece in pieces:
        h.update(piece)
    assert h.digest() == hashlib.blake2b(b"".join(pieces),
                                         digest_size=8).digest()


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
    fir_1 = essential_bits(node.mem.layout, "fir_1")[0]
    node.mem.flip_bit(*fir_1)
    node.log_change()
    assert windows.watch_key == (3_000, 1, -1)
    assert windows.requests == ["fir_1"]
    eng.run_until(3_000)
    assert dpr.active == "fir_1"
    # the reload ends, fir_1 is healthy again, and nothing is requested
    eng.run_until(3_000 + reload_duration_us(
        node.mem.layout.components["fir_1"].size_bytes()))
    assert node.mem.healthy("fir_1") and dpr.reloads == 1
    assert windows.watch_key is None
    # a dead DPR controller drops every request, so none arms the watcher
    node.mem.flip_bit(*essential_bits(node.mem.layout, "dpr_ctrl")[0])
    node.mem.flip_bit(*fir_1)
    node.log_change()
    assert not node.mem.healthy("fir_1") and windows.watch_key is None


# -- enhanced repair oracle -------------------------------------------------


def reference_enhanced_repair(scrubber, frame):
    """The enhanced repair as first written: numpy finds the damaged words,
    and each corrected word is written back on its own."""
    mem = scrubber.mem
    def words(value):
        return np.frombuffer(value.to_bytes(FRAME_BYTES, "little"), "<u4")

    damaged_words = np.flatnonzero(words(contents(mem, frame))
                                   != words(mem.layout.golden[frame])).tolist()
    for w in damaged_words:
        parity = secded_encode(golden_word(mem, frame, w))
        value, status = secded_decode(read_word(mem, frame, w), parity)
        if status == "corrected":
            mem.write_word(frame, w, value)
    if mem.dirty >> frame & 1:
        scrubber.uncorrectable += 1
        scrubber.known_uncorrectable[frame] = \
            contents(mem, frame) ^ mem.layout.golden[frame]
    else:
        scrubber.repairs += 1
        scrubber.known_uncorrectable.pop(frame, None)


def repair_state(node, frame):
    mem, scrubber = node.mem, node.scrubber
    return (contents(mem, frame), mem.dirty, mem.flipped_essential,
            scrubber.detections, scrubber.repairs, scrubber.uncorrectable,
            scrubber.known_uncorrectable)


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
    assert nodes[0].mem.layout.n_frames == 19
    for damage in rounds:
        for node in nodes:
            for word, bits in damage:
                for bit in bits:
                    node.mem.flip_bit(frame, 32 * word + bit)
        nodes[0].scrubber._enhanced_repair(frame)
        reference_enhanced_repair(nodes[1].scrubber, frame)
        assert repair_state(nodes[0], frame) == repair_state(nodes[1], frame)


def test_enhanced_repair_decodes_only_words_of_three_or_more_bits(
        monkeypatch):
    """One and two flipped bits have a fixed verdict (tests/test_ecc.py),
    so the repair neither decodes nor encodes parity for them; a decoded
    word's parity is encoded from its golden word."""
    node = FpgaNode(SimEngine(), make_architecture("CMS+DPR+TMR+WD"))
    mem, decoded, encoded = node.mem, [], []

    def decode(word, parity):
        decoded.append(word)
        return secded_decode(word, parity)

    def encode(word):
        encoded.append(word)
        return secded_encode(word)

    monkeypatch.setattr("cotsim.fpga.secded_decode", decode)
    monkeypatch.setattr("cotsim.fpga.secded_encode", encode)
    # word 0 has one flipped bit, word 1 two, word 2 three
    mem.flip_bits(3, 1 << 5 | 0b11 << 32 | 0b10101 << 64)
    node.scrubber._enhanced_repair(3)
    assert decoded == [(mem.layout.golden[3] >> 64 & 0xFFFFFFFF) ^ 0b10101]
    assert encoded == [golden_word(mem, 3, 2)]
    # the single is fixed, the double left as it is
    assert (contents(mem, 3) ^ mem.layout.golden[3]) & (1 << 64) - 1 == \
        0b11 << 32
    mem.flip_bits(7, 1 << 100 | 0b11 << 200)
    node.scrubber._enhanced_repair(7)
    assert len(decoded) == len(encoded) == 1
    assert contents(mem, 7) ^ mem.layout.golden[7] == 0b11 << 200


# -- scan plan oracle -------------------------------------------------------


def reference_plan(scrubber):
    """`Scrubber._plan` as first written: a scan of every dirty frame, here
    with the dirty frames found from the frames themselves."""
    if scrubber.asleep:
        return None
    mem, n = scrubber.mem, scrubber.mem.layout.n_frames
    golden = mem.layout.golden
    dirty = {f for f in range(n) if contents(mem, f) != golden[f]}
    ahead = min(((f - scrubber.pointer) % n for f in dirty
                 if scrubber.known_uncorrectable.get(f)
                 != contents(mem, f) ^ golden[f]), default=None)
    return None if ahead is None else scrubber.ticks_done + 1 + ahead


WD_FRAMES = 19  # CMS+DPR+TMR+WD; fir_0 holds frames 0 and 1
FRAMES = st.integers(0, 1) | st.integers(0, WD_FRAMES - 1)
POINTERS = st.sampled_from([0, WD_FRAMES - 1]) | st.integers(0, WD_FRAMES - 1)
# a damage round, then maybe a repair, which leaves a frame with a double
# error known uncorrectable; a later equal round flips it back to that
# error pattern, a reload to golden
PLAN_OPS = st.lists(st.one_of(
    st.tuples(st.just("damage"), FRAMES, DAMAGE, st.booleans()),
    st.tuples(st.just("reload"), st.sampled_from(
        ["fir_0", "fir_1", "fir_2", "voter_in", "voter_out"])),
    st.tuples(st.just("pointer"), POINTERS)), min_size=2, max_size=30)
DOUBLE = [(0, {0, 1})]


@settings(max_examples=200, deadline=None)
@given(POINTERS, st.integers(0, 10**6), PLAN_OPS)
# known uncorrectable, then changed (a candidate again), then flipped back
# to the recorded error pattern (excluded again)
@example(WD_FRAMES - 1, 0, [("damage", 1, DOUBLE, True),
                            ("damage", 1, [(3, {7})], False), ("pointer", 0),
                            ("damage", 1, [(3, {7})], False)])
# known uncorrectable, restored to golden by a reload, damaged again
@example(0, 5, [("damage", 0, DOUBLE, True), ("reload", "fir_0"),
                ("damage", 0, [(1, {2})], False), ("pointer", WD_FRAMES - 1)])
def test_plan_matches_the_scan_of_every_dirty_frame(pointer, ticks_done, ops):
    node = FpgaNode(SimEngine(), make_architecture("CMS+DPR+TMR+WD"))
    assert node.mem.layout.n_frames == WD_FRAMES
    scrubber = node.scrubber
    scrubber.pointer, scrubber.ticks_done = pointer, ticks_done
    assert scrubber._plan() is None
    for op, *args in ops:
        if op == "damage":
            frame, damage, repair = args
            for word, bits in damage:
                for bit in bits:
                    node.mem.flip_bit(frame, 32 * word + bit)
            if repair:
                scrubber._enhanced_repair(frame)
        elif op == "reload":
            node.mem.restore_component(*args)
        else:
            scrubber.pointer = args[0]
        assert scrubber._plan() == reference_plan(scrubber)


# -- watchdog ---------------------------------------------------------------


def test_watchdog_resets_on_lost_heartbeat():
    eng = SimEngine()
    node = FpgaNode(eng, make_architecture("CMS+DPR+TMR+WD"))
    node.start()
    for addr in essential_bits(node.mem.layout, "cms_ctrl"):
        node.mem.flip_bit(*addr)
    eng.run_until(node.arch.wd_timeout_us * 2)
    assert node.epoch == 1
    eng.run_until(node.arch.wd_timeout_us * 2 + reset_us(node))
    assert not node.in_reset
    assert node.mem.healthy("cms_ctrl")
    # the health log saw the reset start and end, and its last entry is a
    # correct output out of reset
    assert [entry[2] for entry in node.health_log].count(True) == 1
    assert node.health_log[-1][2:] == (False, True, None)


def test_reset_invalidates_stale_events():
    """A repair and a reload in flight when a full reset starts never
    finish: a stale finish would count work the new epoch did not do and
    release an ICAP grant it no longer holds (InvariantViolation)."""
    eng = SimEngine()
    node = FpgaNode(eng, make_architecture("CMS+DPR+TMR+WD"))
    node.start()
    scrubber, dpr = node.scrubber, node.dpr
    frame, bit = essential_bits(node.mem.layout, "fir_1")[0]

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
    eng.run_until(eng.now + reset_us(node))
    assert not node.in_reset and node.mem.healthy("fir_1")
    new_due = put_in_flight()
    assert new_due > old_due
    reload_us = reload_duration_us(
        node.mem.layout.components["fir_1"].size_bytes())
    # past the old repair's and the old reload's due times
    eng.run_until(old_due + reload_us)
    assert scrubber.repairs == 0 and dpr.reloads == 0
    assert node.mem.dirty >> frame & 1 and node.icap.owner == "cms"
    # the new epoch's repair and reload finish on their own schedule
    eng.run_until(new_due)
    assert scrubber.repairs == 1 and node.mem.healthy("fir_1")
    assert node.icap.owner == "dpr" and dpr.reloads == 0
    eng.run_until(new_due + reload_us)
    assert dpr.reloads == 1 and node.icap.owner is None
    assert node.health_log[-1][2:] == (False, True, None)
