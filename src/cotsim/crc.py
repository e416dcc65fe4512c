"""CRC-16-CCITT (XMODEM variant): poly 0x1021, init 0x0000, unreflected.

The checksum is the standard library's C `binascii.crc_hqx`, the CRC of
BinHex 4: the same polynomial 0x1021, shifted MSB-first with no input or
output reflection and no final XOR, with the register seeded at 0.
Its check value over b"123456789" is 0x31C3, as for XMODEM.
"""

from binascii import crc_hqx

def crc16_ccitt(data: bytes) -> int:
    """MSB-first CRC over the bytes-like `data`, register seeded at 0, no
    input/output reflection, no final XOR."""
    return crc_hqx(data, 0)
