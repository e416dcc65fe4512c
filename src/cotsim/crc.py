"""CRC-16-CCITT (XMODEM variant): poly 0x1021, init 0x0000, unreflected.

The checksum is the standard library's C `binascii.crc_hqx`, the CRC of
BinHex 4: the same polynomial 0x1021, shifted MSB-first with no input or
output reflection and no final XOR, with the register seeded by `init`.
Its check value over b"123456789" is 0x31C3, as for XMODEM.
"""

from binascii import crc_hqx

CRC16_INIT = 0x0000


def crc16_ccitt(data: bytes, init: int = CRC16_INIT) -> int:
    """MSB-first CRC over the bytes-like `data`, no input/output
    reflection, no final XOR; `init` is the 16-bit starting register."""
    if not 0 <= init <= 0xFFFF:
        raise ValueError(f"CRC init {init!r} is not a 16-bit value")
    return crc_hqx(data, init)
