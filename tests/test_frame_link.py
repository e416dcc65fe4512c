"""Frame codec tests: round trips, bit flips, bursts and serialization
format."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cotsim.crc import crc16_ccitt
from cotsim.frame_link import (FrameError, PixelFrame, decode_frame,
                               encode_frame, serialize_pixels)
from wire_bits import flip_wire_bit, total_bits

DEPTHS = (8, 16, 24)


def random_frame(rng, width, height, depth):
    pixels = rng.integers(0, 1 << depth, size=(height, width),
                          dtype=np.uint32)
    return PixelFrame(depth, pixels)


def detected(result) -> bool:
    return not result.crc_ok or not result.padding_ok


# -- geometry validation ----------------------------------------------------


def test_rejects_bad_depth_and_size():
    with pytest.raises(FrameError):
        PixelFrame(12, np.zeros((4, 4)))
    with pytest.raises(FrameError):
        PixelFrame(8, np.zeros((4, 0)))
    # depth 8 needs two footer pixels for the 16-bit CRC
    with pytest.raises(FrameError):
        PixelFrame(8, np.zeros((4, 1)))
    PixelFrame(16, np.zeros((4, 1)))


@pytest.mark.parametrize("shape", [(4,), (2, 2, 2), (0, 0), (0, 4), (4, 0)])
def test_rejects_pixel_arrays_that_are_not_a_2d_image(shape):
    # width and height are the array's shape, so it must have both
    with pytest.raises(FrameError, match="not a 2-D image"):
        PixelFrame(16, np.zeros(shape, dtype=np.uint32))


def test_rejects_out_of_range_pixels():
    with pytest.raises(FrameError):
        PixelFrame(8, np.full((2, 2), 256))


# -- serialization ----------------------------------------------------------


def test_serialization_is_big_endian_row_major():
    frame = PixelFrame(16, np.array([[0x1234, 0xABCD]]))
    assert serialize_pixels(frame) == bytes([0x12, 0x34, 0xAB, 0xCD])
    frame24 = PixelFrame(24, np.array([[0x010203, 0xA0B0C0]]))
    assert serialize_pixels(frame24) == bytes(
        [0x01, 0x02, 0x03, 0xA0, 0xB0, 0xC0])


def test_footer_carries_crc_per_depth():
    rng = np.random.default_rng(0)
    for depth in DEPTHS:
        frame = random_frame(rng, 4, 3, depth)
        wire = encode_frame(frame)
        assert wire.rows.shape == (4, 4)
        crc = crc16_ccitt(serialize_pixels(frame))
        footer = wire.rows[-1]
        if depth == 8:
            assert (int(footer[0]), int(footer[1])) == (crc >> 8, crc & 0xFF)
            assert not footer[2:].any()
        else:
            assert int(footer[0]) == crc
            assert not footer[1:].any()


# -- round trip and corruption ----------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(DEPTHS), st.integers(2, 12), st.integers(1, 12),
       st.integers(0, 2**31))
def test_round_trip(depth, width, height, seed):
    rng = np.random.default_rng(seed)
    frame = random_frame(rng, width, height, depth)
    res = decode_frame(encode_frame(frame))
    assert res.crc_ok and res.padding_ok
    assert res.received_crc == res.computed_crc
    assert np.array_equal(res.frame.pixels, frame.pixels)


def test_every_single_bit_flip_detected_small_frames():
    rng = np.random.default_rng(11)
    for depth in DEPTHS:
        frame = random_frame(rng, 5, 4, depth)
        reference = encode_frame(frame)
        for pos in range(total_bits(reference)):
            wire = encode_frame(frame)
            flip_wire_bit(wire, pos)
            assert detected(decode_frame(wire)), (depth, pos)


def test_burst_errors_detected():
    rng = np.random.default_rng(12)
    for depth in DEPTHS:
        frame = random_frame(rng, 6, 6, depth)
        total = total_bits(encode_frame(frame))
        for length in range(1, 17):
            for _ in range(20):
                start = int(rng.integers(0, total - length + 1))
                pattern = [0] * length
                pattern[0] = pattern[-1] = 1
                for i in range(1, length - 1):
                    pattern[i] = int(rng.integers(0, 2))
                wire = encode_frame(frame)
                for i, bit in enumerate(pattern):
                    if bit:
                        flip_wire_bit(wire, start + i)
                assert detected(decode_frame(wire)), (depth, length, start)


def test_flip_in_padding_fails_padding_check_only():
    # (depth, footer pixel, bit of that pixel with 0 the LSB): the last
    # footer pixel is pure padding, so is depth 8's third, and the depth-24
    # CRC pixel holds the CRC in its low 16 bits only
    for depth, pixel, bit in [(16, 3, 0), (8, 2, 7), (8, 3, 0), (24, 0, 16),
                              (24, 0, 23)]:
        wire = encode_frame(PixelFrame(depth, np.zeros((2, 4),
                                                       dtype=np.uint32)))
        footer_start = wire.rows[:-1].size * depth
        flip_wire_bit(wire, footer_start + pixel * depth + depth - 1 - bit)
        res = decode_frame(wire)
        assert res.crc_ok, (depth, pixel, bit)
        assert not res.padding_ok, (depth, pixel, bit)


def test_flip_positions_validated():
    wire = encode_frame(PixelFrame(16, np.zeros((2, 2))))
    with pytest.raises(FrameError):
        flip_wire_bit(wire, total_bits(wire))
    with pytest.raises(FrameError):
        flip_wire_bit(wire, -1)


def test_double_flip_of_same_bit_restores_frame():
    rng = np.random.default_rng(3)
    frame = random_frame(rng, 4, 4, 24)
    wire = encode_frame(frame)
    flip_wire_bit(wire, 37)
    flip_wire_bit(wire, 37)
    assert decode_frame(wire).crc_ok
    assert np.array_equal(wire.rows, encode_frame(frame).rows)
