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

    width: int
    height: int
    depth: int
    pixels: np.ndarray  # shape (height, width), dtype uint32

    def __post_init__(self):
        if self.depth not in SUPPORTED_DEPTHS:
            raise FrameError(f"unsupported depth {self.depth}")
        if self.width < 1 or self.height < 1:
            raise FrameError("frame must have at least one pixel")
        if self.depth == 8 and self.width < 2:
            raise FrameError("depth-8 footer needs width >= 2 to hold the CRC")
        self.pixels = np.asarray(self.pixels, dtype=np.uint32)
        if self.pixels.shape != (self.height, self.width):
            raise FrameError(
                f"pixel array shape {self.pixels.shape} does not match "
                f"{self.height}x{self.width}")
        if np.any(self.pixels >= (1 << self.depth)):
            raise FrameError(f"pixel value out of range for depth {self.depth}")


@dataclass
class FrameWire:
    """Serialized transport form: active rows followed by the footer row."""

    width: int
    height: int  # active rows; the wire carries height + 1 rows
    depth: int
    rows: np.ndarray  # shape (height + 1, width), dtype uint32

    def total_bits(self) -> int:
        return (self.height + 1) * self.width * self.depth


@dataclass
class DecodeResult:
    frame: PixelFrame
    crc_ok: bool
    received_crc: int
    computed_crc: int
    padding_ok: bool


def serialize_pixels(frame: PixelFrame) -> bytes:
    """Row-major, per-pixel big-endian bytes of the active area only."""
    return _serialize_rows(frame.pixels, frame.depth)


def _serialize_rows(rows: np.ndarray, depth: int) -> bytes:
    flat = np.asarray(rows, dtype=np.uint32).ravel()
    if depth == 8:
        return flat.astype(np.uint8).tobytes()
    if depth == 16:
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
    rows = np.vstack([frame.pixels, _footer_row(frame.width, frame.depth, crc)])
    return FrameWire(frame.width, frame.height, frame.depth, rows)


def decode_frame(wire: FrameWire) -> DecodeResult:
    """Strip the footer, recompute the CRC and compare with the received one."""
    if wire.rows.shape[0] < 2:
        raise FrameError("wire has no footer row")
    active = wire.rows[:-1]
    footer = wire.rows[-1]
    frame = PixelFrame(wire.width, wire.rows.shape[0] - 1, wire.depth,
                       active.copy())
    received = _extract_crc(footer, wire.depth)
    computed = crc16_ccitt(serialize_pixels(frame))
    return DecodeResult(
        frame=frame,
        crc_ok=computed == received,
        received_crc=received,
        computed_crc=computed,
        padding_ok=_padding_clean(footer, wire.depth),
    )


def serialize_wire(wire: FrameWire) -> bytes:
    """All rows including footer, canonical byte order (corruption domain)."""
    return _serialize_rows(wire.rows, wire.depth)


def flip_wire_bit(wire: FrameWire, bit_position: int) -> None:
    """Flip one bit of the canonical serialization, in place.

    Bit 0 is the MSB of the first pixel; bits run row-major through the
    footer row.
    """
    if not 0 <= bit_position < wire.total_bits():
        raise FrameError(f"bit position {bit_position} out of range")
    pixel_idx = bit_position // wire.depth
    bit_in_pixel = wire.depth - 1 - (bit_position % wire.depth)
    r, c = divmod(pixel_idx, wire.width)
    wire.rows[r, c] = np.uint32(int(wire.rows[r, c]) ^ (1 << bit_in_pixel))


def dump_wire(wire: FrameWire) -> str:
    """Golden-test dump: header line then hex pixel rows, footer last."""
    digits = wire.depth // 4
    lines = [f"{wire.width} {wire.height} {wire.depth}"]
    for row in wire.rows:
        lines.append(" ".join(f"{int(p):0{digits}x}" for p in row))
    return "\n".join(lines) + "\n"
