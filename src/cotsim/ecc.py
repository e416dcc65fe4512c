"""SECDED code over 32-bit words: Hamming(38,32) plus an overall parity bit.

Used by the scrubber's algorithmic repair mode: one flipped bit per word
is correctable, two flipped bits are detected but not correctable.  The
code is linear (below), so against the parity of the word as written
the verdict depends only on which bits flipped; the scrubber decodes
only words with 3 or more, which the decoder may miscorrect.

Data bit i sits at code position _DATA_POSITIONS[i].  The Hamming check
at position 2**j covers every position with bit j set, so data bit i
alone sets exactly the checks whose bits are set in its position: its
checks are _DATA_POSITIONS[i].

The checks are linear over GF(2) (Hamming, 1950): the checks of a XOR b
are the checks of a XOR the checks of b.  So the checks of a word are
the XOR of the checks of its four bytes, each looked up in a 256-entry
table for its byte lane (table lookup as in Sarwate, 1988).  Each entry
is the XOR of the single-bit checks of its byte's set bits, built at
import from _DATA_POSITIONS, so the tables are exact, not an
approximation of the per-bit parities.
"""

from __future__ import annotations

_PARITY_POSITIONS = (1, 2, 4, 8, 16, 32)
_DATA_POSITIONS = [p for p in range(1, 40) if p & (p - 1)][:32]
_DATA_INDEX = {pos: i for i, pos in enumerate(_DATA_POSITIONS)}
_WORD_MASK = (1 << 32) - 1


def _byte_table(lane: int) -> tuple[int, ...]:
    """Checks of byte value b in byte `lane` of a word, for b in 0..255."""
    table = [0] * 256
    for b in range(1, 256):
        low = b & -b
        table[b] = table[b ^ low] ^ _DATA_POSITIONS[8 * lane
                                                    + low.bit_length() - 1]
    return tuple(table)


_T0, _T1, _T2, _T3 = (_byte_table(lane) for lane in range(4))


def _checks(word: int) -> int:
    """The six Hamming check bits of a word, check j in bit j."""
    return (_T0[word & 0xFF] ^ _T1[word >> 8 & 0xFF]
            ^ _T2[word >> 16 & 0xFF] ^ _T3[word >> 24 & 0xFF])


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
