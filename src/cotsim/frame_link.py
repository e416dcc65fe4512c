"""Fault-tolerant pixel-frame link: the CRC-16 footer codec.

A wire frame is the active image rows plus one footer row whose first
pixel(s) carry the CRC-16 of the serialized active area; the remaining
footer pixels are zero padding.  The canonical serialization is row-major
with per-pixel big-endian bytes (1, 2 or 3 bytes for depths 8/16/24).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cotsim.crc import crc16_ccitt

SUPPORTED_DEPTHS = (8, 16, 24)


class FrameError(ValueError):
    """Malformed frame geometry or pixel values."""


@dataclass
class PixelFrame:
    """Active image: (height, width) array of unsigned pixel values."""

    depth: int
    pixels: np.ndarray  # shape (height, width), dtype uint32

    def __post_init__(self):
        if self.depth not in SUPPORTED_DEPTHS:
            raise FrameError(f"unsupported depth {self.depth}")
        self.pixels = np.asarray(self.pixels, dtype=np.uint32)
        if self.pixels.ndim != 2 or self.pixels.size == 0:
            raise FrameError(f"pixel array of shape {self.pixels.shape} is "
                             f"not a 2-D image with at least one pixel")
        if self.depth == 8 and self.pixels.shape[1] < 2:
            raise FrameError("depth-8 footer needs width >= 2 to hold the CRC")
        if np.any(self.pixels >= (1 << self.depth)):
            raise FrameError(f"pixel value out of range for depth {self.depth}")


@dataclass
class FrameWire:
    """Serialized transport form: active rows followed by the footer row."""

    depth: int
    rows: np.ndarray  # shape (active height + 1, width), dtype uint32

    def total_bits(self) -> int:
        return self.rows.size * self.depth


@dataclass
class DecodeResult:
    frame: PixelFrame
    crc_ok: bool
    received_crc: int
    computed_crc: int
    padding_ok: bool


def serialize_pixels(frame: PixelFrame) -> bytes:
    """Row-major, per-pixel big-endian bytes of the active area only."""
    flat = np.asarray(frame.pixels, dtype=np.uint32).ravel()
    if frame.depth == 8:
        return flat.astype(np.uint8).tobytes()
    if frame.depth == 16:
        return flat.astype(">u2").tobytes()
    # depth 24: three big-endian bytes per pixel
    out = np.empty((flat.size, 3), dtype=np.uint8)
    out[:, 0] = (flat >> 16) & 0xFF
    out[:, 1] = (flat >> 8) & 0xFF
    out[:, 2] = flat & 0xFF
    return out.tobytes()


def _footer_row(width: int, depth: int, crc: int) -> np.ndarray:
    row = np.zeros(width, dtype=np.uint32)
    if depth == 8:
        row[0] = (crc >> 8) & 0xFF
        row[1] = crc & 0xFF
    else:
        # 16-bit pixel holds the CRC; 24-bit pixel holds it in the low 16 bits
        row[0] = crc
    return row


def _extract_crc(row: np.ndarray, depth: int) -> int:
    if depth == 8:
        return (int(row[0]) << 8) | int(row[1])
    return int(row[0]) & 0xFFFF


def _padding_clean(row: np.ndarray, depth: int) -> bool:
    if depth == 8:
        return not np.any(row[2:])
    if depth == 24 and int(row[0]) >> 16:
        return False
    return not np.any(row[1:])


def encode_frame(frame: PixelFrame) -> FrameWire:
    """Append the CRC footer row; active pixels are copied unchanged."""
    crc = crc16_ccitt(serialize_pixels(frame))
    rows = np.vstack([frame.pixels,
                      _footer_row(frame.pixels.shape[1], frame.depth, crc)])
    return FrameWire(frame.depth, rows)


def decode_frame(wire: FrameWire) -> DecodeResult:
    """Strip the footer, recompute the CRC and compare with the received one."""
    if wire.rows.shape[0] < 2:
        raise FrameError("wire has no footer row")
    active = wire.rows[:-1]
    footer = wire.rows[-1]
    frame = PixelFrame(wire.depth, active.copy())
    received = _extract_crc(footer, wire.depth)
    computed = crc16_ccitt(serialize_pixels(frame))
    return DecodeResult(
        frame=frame,
        crc_ok=computed == received,
        received_crc=received,
        computed_crc=computed,
        padding_ok=_padding_clean(footer, wire.depth),
    )


def flip_wire_bit(wire: FrameWire, bit_position: int) -> None:
    """Flip one bit of the canonical serialization, in place.

    Bit 0 is the MSB of the first pixel; bits run row-major through the
    footer row.
    """
    if not 0 <= bit_position < wire.total_bits():
        raise FrameError(f"bit position {bit_position} out of range")
    pixel_idx = bit_position // wire.depth
    bit_in_pixel = wire.depth - 1 - (bit_position % wire.depth)
    r, c = divmod(pixel_idx, wire.rows.shape[1])
    wire.rows[r, c] = np.uint32(int(wire.rows[r, c]) ^ (1 << bit_in_pixel))
