"""SECDED code over 32-bit words: Hamming(38,32) plus an overall parity bit.

Used by the scrubber's algorithmic repair mode: one flipped bit per word
is correctable, two flipped bits are detected but not correctable.

Data bit i sits at code position _DATA_POSITIONS[i].  The Hamming check
at position 2**j covers every position with bit j set, so it is the
parity of the word ANDed with a precomputed column mask.
"""

from __future__ import annotations

_PARITY_POSITIONS = (1, 2, 4, 8, 16, 32)
_DATA_POSITIONS = [p for p in range(1, 40) if p & (p - 1)][:32]
_DATA_INDEX = {pos: i for i, pos in enumerate(_DATA_POSITIONS)}
_CHECK_MASKS = tuple(
    sum(1 << i for i, pos in enumerate(_DATA_POSITIONS) if pos & k)
    for k in _PARITY_POSITIONS)
_WORD_MASK = (1 << 32) - 1


def _checks(word: int) -> int:
    """The six Hamming check bits of a word, check j in bit j."""
    checks = 0
    for j, mask in enumerate(_CHECK_MASKS):
        checks |= ((word & mask).bit_count() & 1) << j
    return checks


def secded_encode(word: int) -> int:
    """Parity byte for a 32-bit word: bits 0..5 = Hamming checks, bit 6 = overall."""
    checks = _checks(word)
    overall = ((word & _WORD_MASK).bit_count() + checks.bit_count()) & 1
    return checks | overall << 6


def secded_decode(word: int, parity: int) -> tuple[int, str]:
    """Decode a possibly corrupted word against its stored parity byte.

    Returns (corrected word, status) with status one of:
    "ok", "corrected" (single-bit error fixed), "double" (uncorrectable).
    """
    # check j fails iff the code position 2**j is in the syndrome
    syndrome = _checks(word) ^ (parity & 0x3F)
    overall = ((word & _WORD_MASK).bit_count()
               + (parity & 0x7F).bit_count()) & 1

    if syndrome == 0:
        # overall != 0 means the overall parity bit itself flipped
        return word, "ok" if overall == 0 else "corrected"
    if overall == 0:
        return word, "double"
    if syndrome in _PARITY_POSITIONS:
        return word, "corrected"
    idx = _DATA_INDEX.get(syndrome)
    if idx is None:
        # multi-bit error aliasing onto an unused code position
        return word, "double"
    return word ^ (1 << idx), "corrected"
