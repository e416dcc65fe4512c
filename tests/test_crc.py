"""Checksum tests against an independent bit-serial oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cotsim.crc import crc16_ccitt


def crc16_bit_serial(data: bytes) -> int:
    """Bit-serial shift register: poly 0x1021, register seeded at 0, no
    reflection."""
    reg = 0
    for byte in data:
        for i in range(8):
            bit = (byte >> (7 - i)) & 1
            msb = (reg >> 15) & 1
            reg = (reg << 1) & 0xFFFF
            if msb ^ bit:
                reg ^= 0x1021
    return reg


def test_check_value():
    assert crc16_ccitt(b"123456789") == 0x31C3
    assert crc16_bit_serial(b"123456789") == 0x31C3


def test_empty_and_single_byte():
    assert crc16_ccitt(b"") == 0x0000
    for b in range(256):
        data = bytes([b])
        assert crc16_ccitt(data) == crc16_bit_serial(data)


def test_random_strings_match_oracle():
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        n = int(rng.integers(0, 64))
        data = rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
        assert crc16_ccitt(data) == crc16_bit_serial(data)


@settings(deadline=None)
@given(st.binary(max_size=4096))
def test_matches_bit_serial_oracle_on_any_input(data):
    assert crc16_ccitt(data) == crc16_bit_serial(data)


def test_buffer_types_callers_pass_agree():
    data = bytes(range(256)) * 3
    want = crc16_ccitt(data)
    assert crc16_ccitt(bytearray(data)) == want
    assert crc16_ccitt(memoryview(data)) == want
    assert crc16_ccitt(np.frombuffer(data, dtype=np.uint8)) == want
    assert crc16_ccitt(np.frombuffer(data, dtype=np.uint8).copy()) == want


@given(st.binary(max_size=128))
def test_appending_crc_yields_zero(data):
    crc = crc16_ccitt(data)
    assert crc16_ccitt(data + crc.to_bytes(2, "big")) == 0


@given(st.binary(min_size=1, max_size=64),
       st.integers(min_value=0))
def test_single_bit_flip_always_detected(data, pos):
    pos %= len(data) * 8
    flipped = bytearray(data)
    flipped[pos // 8] ^= 1 << (7 - pos % 8)
    assert crc16_ccitt(bytes(flipped)) != crc16_ccitt(data)


def test_rejects_non_bytes():
    with pytest.raises(TypeError):
        crc16_ccitt("123456789")
