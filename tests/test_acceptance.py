"""End-to-end acceptance suite.

Each test checks one numbered criterion at its stated tolerance and prints
a single PASS/FAIL line.  Tolerances are pinned here, not imported from
the implementation.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from cotsim.config import ARCHITECTURES, CampaignConfig, make_architecture
from cotsim.crc import crc16_ccitt
from cotsim.engine import SimEngine
from cotsim.fpga import (FpgaNode, VOTE_UNCORRECTABLE, reload_duration_us,
                         tmr_vote)
from cotsim.harness import (fit_lambda, reliability_curve, run_fpga,
                            run_matrix, run_vpu_trial)
from cotsim.frame_link import PixelFrame, decode_frame, encode_frame
from cotsim import vpu
from cotsim.vpu import (VpuNode, error_rate, golden_output,
                        partition_workload)
from wire_bits import flip_wire_bit, total_bits


@contextmanager
def criterion(number, description, limit_s=None):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - started
    if limit_s is not None:
        assert elapsed < limit_s, \
            f"criterion {number} took {elapsed:.1f}s (limit {limit_s}s)"
    print(f"PASS criterion {number}: {description}")


# -- 1: CRC bit-exactness ---------------------------------------------------


def crc16_shift_register(data: bytes) -> int:
    reg = 0
    for byte in data:
        for i in range(8):
            bit = (byte >> (7 - i)) & 1
            msb = (reg >> 15) & 1
            reg = (reg << 1) & 0xFFFF
            if msb ^ bit:
                reg ^= 0x1021
    return reg


def test_criterion_1_crc_bit_exactness():
    with criterion(1, "CRC-16 matches the bit-serial oracle", limit_s=1.0):
        assert crc16_ccitt(b"123456789") == 0x31C3
        assert crc16_shift_register(b"123456789") == 0x31C3
        rng = np.random.default_rng(101)
        for _ in range(1000):
            n = int(rng.integers(0, 48))
            data = rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
            assert crc16_ccitt(data) == crc16_shift_register(data)


# -- 2: frame-link detection ------------------------------------------------


def _random_frame(rng, width, height, depth):
    pixels = rng.integers(0, 1 << depth, size=(height, width),
                          dtype=np.uint32)
    return PixelFrame(depth, pixels)


def _detected(wire):
    res = decode_frame(wire)
    return not res.crc_ok or not res.padding_ok


def test_criterion_2_frame_link_detection():
    with criterion(2, "frame round-trip plus single-bit and burst "
                      "detection", limit_s=30.0):
        rng = np.random.default_rng(202)
        for _ in range(1000):
            depth = int(rng.choice([8, 16, 24]))
            frame = _random_frame(rng, int(rng.integers(2, 20)),
                                  int(rng.integers(1, 20)), depth)
            res = decode_frame(encode_frame(frame))
            assert res.crc_ok and res.padding_ok
            assert np.array_equal(res.frame.pixels, frame.pixels)

        # exhaustive single-bit flips on 16x16 frames
        for depth in (8, 16, 24):
            frame = _random_frame(rng, 16, 16, depth)
            for pos in range(total_bits(encode_frame(frame))):
                wire = encode_frame(frame)
                flip_wire_bit(wire, pos)
                assert _detected(wire), (depth, pos)

        # sampled single-bit flips on a larger frame
        frame = _random_frame(rng, 64, 64, 16)
        total = total_bits(encode_frame(frame))
        for pos in rng.choice(total, size=500, replace=False):
            wire = encode_frame(frame)
            flip_wire_bit(wire, int(pos))
            assert _detected(wire)

        # bursts up to 16 bits, endpoints set, random interior
        for depth in (8, 16, 24):
            frame = _random_frame(rng, 8, 8, depth)
            total = total_bits(encode_frame(frame))
            for length in range(1, 17):
                for _ in range(30):
                    start = int(rng.integers(0, total - length + 1))
                    wire = encode_frame(frame)
                    flip_wire_bit(wire, start)
                    if length > 1:
                        flip_wire_bit(wire, start + length - 1)
                    for i in range(1, length - 1):
                        if int(rng.integers(0, 2)):
                            flip_wire_bit(wire, start + i)
                    assert _detected(wire), (depth, length, start)


# -- 3: voter truth table ---------------------------------------------------


def test_criterion_3_voter_truth_table():
    with criterion(3, "majority voter exhaustively correct on the "
                      "4-value alphabet"):
        for a in range(4):
            for b in range(4):
                for c in range(4):
                    out, status = tmr_vote([a], [b], [c])
                    votes = [a, b, c]
                    counts = {v: votes.count(v) for v in votes}
                    if max(counts.values()) >= 2:
                        expected = next(v for v in votes if counts[v] >= 2)
                        assert int(out[0]) == expected
                        assert status[0] != VOTE_UNCORRECTABLE
                    else:
                        assert int(out[0]) == a
                        assert status[0] == VOTE_UNCORRECTABLE


# -- 4: IMR/DMR zero-error guarantee ----------------------------------------


def test_criterion_4_imr_dmr_zero_error():
    with criterion(4, "IMR and DMR recover to zero error; bare runs err "
                      "within stripe-fraction bounds", limit_s=120.0):
        for ft in ("imr", "dmr"):
            for count in (3, 6, 9, 12):
                for seed in range(20):
                    for kernel in ("conv2d", "binning2d"):
                        rep = run_vpu_trial(kernel, ft, count, seed)
                        assert rep.error_rate == 0.0, \
                            (ft, count, seed, kernel, rep.error_rate)
        lower = (2 / 12) * 0.5
        upper = 3 / 12 + 8 / 256  # three stripes plus halo rows
        for seed in range(20):
            for kernel in ("conv2d", "binning2d"):
                rep = run_vpu_trial(kernel, "none", 3, seed)
                assert lower <= rep.error_rate <= upper, \
                    (kernel, seed, rep.error_rate)


# -- 5: NMR group property --------------------------------------------------


def test_criterion_5_nmr_group_property_and_latency():
    with criterion(5, "NMR masks one impairment per group, fails locally "
                      "on two, latency ratio in [2.8, 3.3]"):
        rng = np.random.default_rng(55)
        image = rng.integers(0, 1024, size=(256, 256)).astype(np.uint16)

        node = VpuNode(image, "conv2d")
        for w in (0, 3, 6, 9):  # one per group
            node.corrupt_instr(w, [(w, 0x3C)])
        out, _rep = node.nmr_run(3)
        assert error_rate(out, golden_output(node.golden_input,
                                             "conv2d")) == 0.0

        node = VpuNode(image, "conv2d")
        node.corrupt_instr(3, [(1, 0x11)])
        node.corrupt_instr(4, [(2, 0x22)])  # both in group 1
        out, rep = node.nmr_run(3)
        golden = golden_output(node.golden_input, "conv2d")
        assert error_rate(out, golden) > 0
        stripes = partition_workload(node.ddr_input, 4, halo=1)
        wrong_rows = np.unique(np.nonzero(out != golden)[0])
        group1_rows = set(range(stripes[1].row_start, stripes[1].row_end))
        assert set(wrong_rows) <= group1_rows and wrong_rows.size > 0

        for kernel in ("conv2d", "binning2d"):
            base = run_vpu_trial(kernel, "none", 0, seed=0).latency_us
            nmr = run_vpu_trial(kernel, "nmr", 0, seed=0).latency_us
            assert 2.8 <= nmr / base <= 3.3, (kernel, nmr / base)


# -- 6: Table-I ordering ----------------------------------------------------


def test_criterion_6_architecture_ordering():
    with criterion(6, "median correct% monotone over the 8 architectures, "
                      "WD strictly highest, No-FT calibrated", limit_s=300.0):
        result = run_matrix(list(ARCHITECTURES), list(range(10)),
                            CampaignConfig())
        correct = [row.correct_pct for row in result.rows]
        assert all(a <= b for a, b in zip(correct, correct[1:])), correct
        assert correct[-1] > max(correct[:-1])
        assert correct[0] < 5.0
        no_ft = result.rows[0]
        assert abs(no_ft.down_pct - 92.0) <= 3.0, no_ft
        assert abs(no_ft.erroneous_pct - 8.0) <= 3.0, no_ft


# -- 7: repair timing accounting --------------------------------------------


def test_criterion_7_repair_timing():
    with criterion(7, "18 ms frame repair, 10 ms reload of 670 KB, "
                      "reported overhead constants"):
        eng = SimEngine()
        node = FpgaNode(eng, make_architecture("CMS"))
        node.start()
        frame = node.mem.layout.comp_frames["fir_0"].start
        node.mem.flip_bit(frame, 11)
        # one scan cycle visits every frame
        for _ in range(node.mem.layout.n_frames):
            if node.scrubber.repair_frame is not None:
                break
            eng.run_until(eng.now + node.arch.scan_period_us)
        assert node.scrubber.repair_frame == frame, "not detected in a scan"
        detected_at = eng.now
        eng.run_until(detected_at + 18_000 - 1)
        assert node.mem.dirty >> frame & 1
        eng.run_until(detected_at + 18_000)
        assert not node.mem.dirty >> frame & 1

        assert reload_duration_us(670_000) == 10_000

        rep = run_vpu_trial("conv2d", "imr", 2, seed=0, size=64)
        assert rep.reschedule_us == 40_000
        assert 0 < rep.crc_check_us < 10_000


# -- 8: ICAP exclusivity ----------------------------------------------------


def test_criterion_8_icap_exclusivity():
    with criterion(8, "no double ICAP grant across >= 10^4 acquire/release "
                      "pairs"):
        eng = SimEngine()
        node = FpgaNode(eng, make_architecture("CMS+DPR+TMR"))
        node.start()
        comps = ["fir_0", "fir_1", "fir_2", "voter_in", "voter_out"]

        def stress(i):
            node.dpr.request_reload(comps[i % len(comps)])

        def dirt(i):
            node.mem.flip_bit(node.mem.layout.comp_frames["cms_ctrl"].start,
                              8 * (i % 50))

        for i in range(25_000):
            eng.schedule(10 + i * 15, stress, i)
        for i in range(5):
            eng.schedule(500 + i * 60_000, dirt, i)
        eng.run_until(400_000)  # a double grant raises InvariantViolation
        assert node.icap.grants >= 10_000
        assert node.icap.releases in (node.icap.grants,
                                      node.icap.grants - 1)


# -- 9: reliability model ---------------------------------------------------


def test_criterion_9_reliability_fit():
    with criterion(9, "lambda MLE within 10% on 10^4 synthetic samples, "
                      "R(t) closed form to 1e-12"):
        lam_true = 3.0
        rng = np.random.default_rng(909)
        spans = []
        for d in rng.exponential(1 / lam_true, size=10_000):
            spans.append((max(1, int(d * 1e6)), "correct"))
            spans.append((500, "down"))
        lam = fit_lambda(spans)
        assert abs(lam - lam_true) / lam_true < 0.10
        horizon = sum(us for us, _cls in spans) / 1e6
        times, curve = reliability_curve(lam, horizon)
        assert len(times) == 101 and times[0] == 0.0
        assert times[-1] == pytest.approx(horizon, rel=1e-12)
        for ts, r in zip(times, curve):
            assert abs(r - math.exp(-lam * ts)) <= 1e-12


# -- 10: determinism --------------------------------------------------------


def test_criterion_10_determinism():
    with criterion(10, "identical config and seed reproduce byte-identical "
                       "reports and mutation logs"):
        campaign = CampaignConfig(duration_us=1_000_000, period_us=4_000)
        for arch in ("No-FT", "CMS+DPR+TMR+WD"):
            rep1, log1 = run_fpga(arch, campaign, seed=6)
            rep2, log2 = run_fpga(arch, campaign, seed=6)
            assert rep1.to_json().encode() == rep2.to_json().encode()
            assert log1.decode().encode() == log2.decode().encode()
            assert rep1.mutation_digest == rep2.mutation_digest
