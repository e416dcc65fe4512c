"""FPGA node tests: configuration memory semantics, FIR oracle, voting,
scrubbing, partial reconfiguration, ICAP arbitration and watchdog reset."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cotsim.config import (ARCHITECTURES, FRAME_BYTES, ComponentSpec,
                           make_architecture)
from cotsim.engine import SimEngine
from cotsim.fpga import (FRAME_BITS, ConfigMemory, FpgaNode, IcapArbiter,
                         IcapError, InvariantViolation, Scrubber,
                         VOTE_CORRECTED, VOTE_UNANIMOUS, VOTE_UNCORRECTABLE,
                         corrupt_samples, fir_filter, reload_duration_us,
                         tmr_vote)


def small_memory():
    return ConfigMemory([
        ComponentSpec("app", frames=2, essential_bits=16, reloadable=True),
        ComponentSpec("ctrl", frames=1, essential_bits=4),
    ])


# -- FIR oracle -------------------------------------------------------------


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


def test_fir_rejects_empty_coeffs():
    with pytest.raises(ValueError):
        fir_filter(np.arange(4), [])


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
    frame, bit = sorted(mem.essential["app"])[0]
    info = mem.flip_bit(frame, bit)
    assert info["essential"] and info["component"] == "app"
    assert not mem.healthy("app")
    assert mem.frame_dirty(frame)
    assert mem.frames[frame] != mem.golden[frame]
    # flipping the same bit back heals the component
    mem.flip_bit(frame, bit)
    assert mem.healthy("app")
    assert not mem.frame_dirty(frame)
    assert mem.frames[frame] == mem.golden[frame]


def test_non_essential_flip_dirties_without_breaking():
    mem = small_memory()
    essential = mem.essential["app"]
    frame = mem.comp_frames["app"].start
    bit = next(b for b in range(FRAME_BITS) if (frame, b) not in essential)
    info = mem.flip_bit(frame, bit)
    assert not info["essential"]
    assert mem.healthy("app")
    assert mem.frame_dirty(frame)


def test_restore_component_heals_all_frames():
    mem = small_memory()
    for frame, bit in sorted(mem.essential["app"])[:5]:
        mem.flip_bit(frame, bit)
    mem.restore_component("app")
    assert mem.healthy("app")
    assert all(not mem.frame_dirty(f) for f in mem.comp_frames["app"])
    assert bytes(mem.frames[0]) == mem.golden[0]


def test_corruption_tag_tracks_flip_set():
    mem = small_memory()
    bits = sorted(mem.essential["app"])[:2]
    mem.flip_bit(*bits[0])
    tag1 = mem.corruption_tag("app")
    mem.flip_bit(*bits[1])
    tag2 = mem.corruption_tag("app")
    assert tag1 != tag2
    mem.flip_bit(*bits[1])
    assert mem.corruption_tag("app") == tag1


def test_write_word_keeps_flip_tracking_exact():
    mem = small_memory()
    mem.flip_bit(0, 37)  # inside word 1
    golden = mem.golden_word(0, 1)
    mem.write_word(0, 1, golden)
    assert not mem.frame_dirty(0)
    assert bytes(mem.frames[0]) == mem.golden[0]


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
    assert mem.golden == [
        bytes((index * 131 + i * 7) & 0xFF for i in range(FRAME_BYTES))
        for index in range(mem.n_frames)]
    assert all(isinstance(g, bytes) for g in mem.golden)
    assert mem.frames == [bytearray(g) for g in mem.golden]
    assert mem.essential == old_essential(components)
    assert all(len(row) == FRAME_BYTES for row in mem.essential_mask)
    assert len(mem.essential_mask) == mem.n_frames
    assert set(set_bits(mem.essential_mask, mem.n_frames)) == \
        set().union(*mem.essential.values())
    assert all(mem.frame_owner[frame] == name
               for name, addrs in mem.essential.items() for frame, _ in addrs)


def test_essential_bits_match_the_old_generator_on_odd_sizes():
    components = [ComponentSpec("a", frames=3, essential_bits=7),
                  ComponentSpec("b", frames=1, essential_bits=FRAME_BITS),
                  ComponentSpec("c", frames=2, essential_bits=1)] + DENSE
    assert ConfigMemory(components).essential == old_essential(components)


def set_bits(rows, n_frames) -> list[tuple[int, int]]:
    """Every (frame, bit) set in per-frame byte strings, in sorted order;
    bit b of a frame is bit b % 8 of its byte b // 8."""
    bits = np.unpackbits(np.frombuffer(b"".join(rows), np.uint8),
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
    for op, *args in ops:
        if op == "write":
            frame, word, mask, from_golden = args
            base = mem.golden_word if from_golden else mem.read_word
            mem.write_word(frame, word, base(frame, word) ^ mask)
        elif op == "flip_bit":
            frame, bit = args
            info = mem.flip_bit(frame, bit)
            assert info["essential"] == any(
                (frame, bit) in addrs for addrs in mem.essential.values())
        else:
            getattr(mem, op)(*args)
        flipped = set_bits([bytes(a ^ b for a, b in zip(f, g))
                            for f, g in zip(mem.frames, mem.golden)],
                           mem.n_frames)
        assert mem.dirty == {f for f, _ in flipped}
        for name in mem.components:
            marks = [addr for addr in flipped if addr in mem.essential[name]]
            assert mem.flipped_essential[name] == marks  # sorted
            assert mem.corruption_tag(name) == fresh_tag(marks)
            assert mem.healthy(name) == (not marks)


# -- ICAP arbitration -------------------------------------------------------


def test_icap_fifo_and_exclusivity():
    icap = IcapArbiter()
    granted = []
    assert icap.acquire("cms", lambda: granted.append("cms")) == "grant"
    assert icap.acquire("dpr", lambda: granted.append("dpr")) == "queued"
    assert granted == ["cms"]
    icap.release("cms")
    assert granted == ["cms", "dpr"]
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
    assert node.mem.frame_dirty(frame)
    eng.run_until(detected_at + 18_000)
    assert not node.mem.frame_dirty(frame)
    assert node.scrubber.report.repairs == 1
    assert node.icap.owner is None


def test_enhanced_repair_corrects_single_bit_per_word():
    eng, node = cms_node(scrub_mode="enhanced_repair")
    frame = node.mem.comp_frames["fir_0"].start
    node.mem.flip_bit(frame, 65)
    detected_at = run_until_detection(eng, node)
    eng.run_until(detected_at + 18_000)
    assert not node.mem.frame_dirty(frame)
    assert node.scrubber.report.corrected_bits == 1


def test_enhanced_repair_flags_multibit_word_uncorrectable():
    eng, node = cms_node(scrub_mode="enhanced_repair")
    frame = node.mem.comp_frames["fir_0"].start
    node.mem.flip_bit(frame, 64)
    node.mem.flip_bit(frame, 70)  # same 32-bit word
    detected_at = run_until_detection(eng, node)
    eng.run_until(detected_at + 18_000)
    assert node.mem.frame_dirty(frame)
    assert node.scrubber.report.uncorrectable == 1
    # the scrubber remembers the signature and does not retry forever
    eng.run_until(detected_at + 200_000)
    assert node.scrubber.report.detections == 1


def test_scrubber_keeps_the_tick_grid_but_is_an_event_only_on_damage():
    eng, node = cms_node()
    assert eng.run_until(1_000_000) == 0  # a clean memory needs no ticks
    assert node.scrubber.pointer == 10_000 % node.mem.n_frames
    frame = (node.scrubber.pointer + 5) % node.mem.n_frames
    node.mem.flip_bit(frame, 3)
    # the sixth tick after 1 s reaches the frame: one event, the detection
    assert eng.run_until(1_000_600) == 1
    assert node.scrubber.repair_frame == frame
    assert node.scrubber.report.detections == 1


def test_skipped_ticks_still_send_heartbeats():
    eng = SimEngine()
    node = FpgaNode(eng, make_architecture("CMS+DPR+TMR+WD"))
    node.start()
    eng.run_until(1_234)
    node.wd.check()
    assert node.wd.last_heartbeat == 1_200
    node.mem.flip_bit(*sorted(node.mem.essential["wd_link"])[0])
    eng.run_until(5_555)
    node.wd.check()
    assert node.wd.last_heartbeat == 1_200  # the status link is down


def test_dead_controller_stops_scrubbing():
    eng, node = cms_node()
    for addr in sorted(node.mem.essential["cms_ctrl"])[:1]:
        node.mem.flip_bit(*addr)
    frame = node.mem.comp_frames["fir_0"].start
    node.mem.flip_bit(frame, 9)
    eng.run_until(500_000)
    assert node.mem.frame_dirty(frame)
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
    frame, bit = sorted(node.mem.essential["fir_0"])[0]
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
    for addr in sorted(node.mem.essential["dpr_ctrl"])[:1]:
        node.mem.flip_bit(*addr)
    node.dpr.request_reload("fir_0")
    assert node.dpr.dropped == 1
    assert node.dpr.active is None


def test_non_reloadable_region_is_refused():
    eng = SimEngine()
    node = FpgaNode(eng, make_architecture("DPR"))
    node.start()
    node.dpr.request_reload("dpr_ctrl")
    assert node.dpr.active is None


# -- TMR pipeline -----------------------------------------------------------


def test_tmr_masks_single_replica_and_requests_repair():
    eng = SimEngine()
    node = FpgaNode(eng, make_architecture("TMR"))
    node.start()
    frame, bit = sorted(node.mem.essential["fir_1"])[0]
    node.mem.flip_bit(frame, bit)
    out, requests = node.run_pipeline()
    assert np.array_equal(out, node.golden_output)
    assert requests == ["fir_1"]


def test_tmr_two_bad_replicas_not_maskable():
    eng = SimEngine()
    node = FpgaNode(eng, make_architecture("TMR"))
    node.start()
    for comp in ("fir_0", "fir_1"):
        node.mem.flip_bit(*sorted(node.mem.essential[comp])[0])
    out, requests = node.run_pipeline()
    assert not np.array_equal(out, node.golden_output)
    assert set(requests) == {"fir_0", "fir_1", "fir_2"}


def reference_pipeline(node):
    """run_pipeline from scratch: every filter run, every mask drawn."""
    mem, coeffs = node.mem, node.arch.fir_coeffs

    def through(name, data):
        if mem.healthy(name):
            return data
        return corrupt_samples(np.asarray(data, dtype=np.int64),
                               fresh_tag(mem.flipped_essential[name]))

    if not node.arch.tmr:
        return through("fir_0", fir_filter(node.window_input, coeffs)), []
    voted_in = through("voter_in", node.window_input)
    outs = [through(f"fir_{i}", fir_filter(voted_in, coeffs))
            for i in range(3)]
    voted, status = tmr_vote(*outs)
    requests = [f"fir_{i}" for i in range(3)
                if not np.array_equal(outs[i], voted)]
    if np.any(status == VOTE_UNCORRECTABLE):
        requests = ["fir_0", "fir_1", "fir_2"]
    return through("voter_out", voted), requests


DATAPATH = ["voter_in", "fir_0", "fir_1", "fir_2", "voter_out"]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["No-FT", "TMR"]),
       st.lists(st.tuples(st.sampled_from(DATAPATH), st.integers(0, 3)),
                max_size=20))
def test_memoized_pipeline_matches_reference(arch, flips):
    node = FpgaNode(SimEngine(), make_architecture(arch))
    for comp, k in flips:
        if comp in node.mem.essential:
            node.mem.flip_bit(*sorted(node.mem.essential[comp])[k])
        out, requests = node.run_pipeline()
        ref_out, ref_requests = reference_pipeline(node)
        assert np.array_equal(out, ref_out) and requests == ref_requests


def flip_first(node, *names):
    for name in names:
        node.mem.flip_bit(*sorted(node.mem.essential[name])[0])


def pipeline_verdict(node):
    output, requests = node.run_pipeline()
    return np.array_equal(output, node.golden_output), requests


ALL_FIRS = ["fir_0", "fir_1", "fir_2"]


@pytest.mark.parametrize("arch, faulty, verdict, decided_by_health", [
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
])
def test_datapath_verdict_per_branch(arch, faulty, verdict, decided_by_health):
    node = FpgaNode(SimEngine(), make_architecture(arch))
    flip_first(node, *faulty)
    assert pipeline_verdict(node) == verdict
    runs = []
    run_pipeline = node.run_pipeline
    node.run_pipeline = lambda: runs.append(1) or run_pipeline()
    assert node._datapath() == verdict
    assert runs == ([] if decided_by_health else [1])


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
        elif args[0] in mem.essential:
            if op == "flip":
                mem.flip_bit(*sorted(mem.essential[args[0]])[args[1]])
            else:
                mem.restore_component(args[0])
        assert node._datapath() == pipeline_verdict(node)


# -- watchdog ---------------------------------------------------------------


def test_watchdog_resets_on_lost_heartbeat():
    eng = SimEngine()
    node = FpgaNode(eng, make_architecture("CMS+DPR+TMR+WD"))
    node.start()
    for addr in sorted(node.mem.essential["cms_ctrl"]):
        node.mem.flip_bit(*addr)
    eng.run_until(node.arch.wd_timeout_us * 2)
    assert node.resets == 1
    eng.run_until(node.arch.wd_timeout_us * 2 + node.reset_duration_us())
    assert not node.in_reset
    assert node.mem.healthy("cms_ctrl")
    assert node.evaluate_window() == "correct"


def test_reset_invalidates_stale_events():
    eng = SimEngine()
    node = FpgaNode(eng, make_architecture("CMS+DPR+TMR+WD"))
    node.start()
    epoch_before = node.epoch
    node.full_reset("test")
    assert node.epoch == epoch_before + 1
    eng.run_until(2_000_000)
    assert not node.in_reset
    # periodic services keep running in the new epoch
    assert node.scrubber.pointer >= 0
    assert node.evaluate_window() == "correct"
