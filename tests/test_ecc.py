"""SECDED code tests: single-bit correction, double-bit detection."""

from itertools import combinations

import numpy as np
from hypothesis import given, settings, strategies as st

from cotsim import ecc
from cotsim.config import FRAME_BYTES, make_architecture
from cotsim.ecc import secded_encode, secded_decode
from cotsim.fpga import ConfigMemory

WORDS = [0x00000000, 0xFFFFFFFF, 0xDEADBEEF, 0x00000001, 0x80000000,
         0x55555555, 0xAAAAAAAA, 0x12345678]


def test_clean_words_decode_ok():
    for word in WORDS:
        parity = secded_encode(word)
        assert secded_decode(word, parity) == (word, "ok")


def test_every_single_data_bit_corrected():
    for word in WORDS:
        parity = secded_encode(word)
        for bit in range(32):
            got, status = secded_decode(word ^ (1 << bit), parity)
            assert status == "corrected"
            assert got == word


def test_parity_bit_flip_reported_without_touching_data():
    word = 0xCAFED00D
    parity = secded_encode(word)
    for bit in range(7):
        got, status = secded_decode(word, parity ^ (1 << bit))
        assert status == "corrected"
        assert got == word


def test_all_double_data_flips_detected():
    word = 0x0F0F0F0F
    parity = secded_encode(word)
    for b1, b2 in combinations(range(32), 2):
        corrupted = word ^ (1 << b1) ^ (1 << b2)
        got, status = secded_decode(corrupted, parity)
        assert status == "double"
        assert got == corrupted  # no silent miscorrection


def test_random_words_single_flip_roundtrip():
    rng = np.random.default_rng(5)
    for _ in range(200):
        word = int(rng.integers(0, 1 << 32))
        bit = int(rng.integers(0, 32))
        got, status = secded_decode(word ^ (1 << bit), secded_encode(word))
        assert (got, status) == (word, "corrected")


@given(st.integers(min_value=0, max_value=(1 << 32) - 1))
def test_encode_is_deterministic_and_seven_bits(word):
    parity = secded_encode(word)
    assert 0 <= parity < 128
    assert parity == secded_encode(word)


# -- per-bit reference ------------------------------------------------------
# The codec as first written: one dict entry per code position, each check
# and the overall parity XORed bit by bit.  The mask-driven codec must agree
# with it on every input.

_REF_PARITY = (1, 2, 4, 8, 16, 32)
_REF_DATA = [p for p in range(1, 40) if p & (p - 1)][:32]


def ref_encode(word):
    bits = {pos: (word >> i) & 1 for i, pos in enumerate(_REF_DATA)}
    parity = 0
    for i, k in enumerate(_REF_PARITY):
        p = 0
        for pos, b in list(bits.items()):
            if pos & k:
                p ^= b
        bits[k] = p
        parity |= p << i
    overall = 0
    for b in bits.values():
        overall ^= b
    return parity | overall << 6


def ref_decode(word, parity):
    bits = {pos: (word >> i) & 1 for i, pos in enumerate(_REF_DATA)}
    for i, k in enumerate(_REF_PARITY):
        bits[k] = (parity >> i) & 1
    syndrome = 0
    for k in _REF_PARITY:
        check = 0
        for pos, b in bits.items():
            if pos & k:
                check ^= b
        if check:
            syndrome |= k
    overall = (parity >> 6) & 1
    for b in bits.values():
        overall ^= b
    if syndrome == 0:
        return word, "ok" if overall == 0 else "corrected"
    if overall == 0:
        return word, "double"
    if syndrome in _REF_PARITY:
        return word, "corrected"
    if syndrome not in _REF_DATA:
        return word, "double"
    return word ^ (1 << _REF_DATA.index(syndrome)), "corrected"


def _flip(word, parity, position):
    """Flip bit `position` of the 39-bit (word, parity) codeword."""
    if position < 32:
        return word ^ (1 << position), parity
    return word, parity ^ (1 << (position - 32))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 32) - 1))
def test_codec_matches_per_bit_reference(word):
    parity = secded_encode(word)
    assert parity == ref_encode(word)
    assert secded_decode(word, parity) == ref_decode(word, parity)
    for b1 in range(39):
        w1, p1 = _flip(word, parity, b1)
        assert secded_decode(w1, p1) == ref_decode(w1, p1)
        for b2 in range(b1 + 1, 39):
            w2, p2 = _flip(w1, p1, b2)
            assert secded_decode(w2, p2) == ref_decode(w2, p2)


# -- byte tables and the parity store ---------------------------------------

# check j covers every data bit whose code position has bit j set
_REF_MASKS = [sum(1 << i for i, pos in enumerate(_REF_DATA) if pos & k)
              for k in _REF_PARITY]


def test_byte_tables_equal_the_mask_defined_checks():
    tables = (ecc._T0, ecc._T1, ecc._T2, ecc._T3)
    for lane, table in enumerate(tables):
        assert len(table) == 256
        for b in range(256):
            word = b << 8 * lane
            assert table[b] == sum(((word & mask).bit_count() & 1) << j
                                   for j, mask in enumerate(_REF_MASKS))


def test_parity_store_encodes_every_golden_word():
    mem = ConfigMemory(make_architecture("CMS+DPR+TMR+WD").components)
    for frame in range(mem.layout.n_frames):
        golden = mem.golden[frame].to_bytes(FRAME_BYTES, "little")
        assert mem.layout.parity_store(frame) == tuple(
            secded_encode(int.from_bytes(golden[i:i + 4], "little"))
            for i in range(0, len(golden), 4))
