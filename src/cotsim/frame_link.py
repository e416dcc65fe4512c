"""Fault-tolerant pixel-frame link: the CRC-16 footer codec.

A wire frame is the active image rows plus one footer row.  The CRC-16
of the serialized active area sits right-aligned and big-endian in the
footer's first ceil(16 / depth) pixels (`crc_pixels`: two at depth 8, one
at depths 16 and 24); every other footer bit is zero padding.  The
canonical serialization is row-major with per-pixel big-endian bytes (1,
2 or 3 bytes for depths 8/16/24).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cotsim.crc import crc16_ccitt

SUPPORTED_DEPTHS = (8, 16, 24)


class FrameError(ValueError):
    """Malformed frame geometry or pixel values."""


def crc_pixels(depth: int) -> int:
    """The number of footer pixels that hold the 16-bit CRC."""
    return -(-16 // depth)


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
        if self.pixels.shape[1] < crc_pixels(self.depth):
            raise FrameError(f"depth-{self.depth} footer needs width >= "
                             f"{crc_pixels(self.depth)} to hold the CRC")
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
    words = frame.pixels.astype(">u4").view(np.uint8).reshape(-1, 4)
    return words[:, 4 - frame.depth // 8:].tobytes()


def encode_frame(frame: PixelFrame) -> FrameWire:
    """Append the CRC footer row; active pixels are copied unchanged."""
    crc = crc16_ccitt(serialize_pixels(frame))
    depth, n = frame.depth, crc_pixels(frame.depth)
    footer = np.zeros(frame.pixels.shape[1], dtype=np.uint32)
    for i in range(n):
        footer[i] = (crc >> (n - 1 - i) * depth) & ((1 << depth) - 1)
    return FrameWire(depth, np.vstack([frame.pixels, footer]))


def decode_frame(wire: FrameWire) -> DecodeResult:
    """Strip the footer, recompute the CRC and compare with the received
    one; any set bit above the CRC or in a later footer pixel fails the
    padding check."""
    if wire.rows.shape[0] < 2:
        raise FrameError("wire has no footer row")
    frame = PixelFrame(wire.depth, wire.rows[:-1].copy())
    footer, n = wire.rows[-1], crc_pixels(wire.depth)
    value = 0  # the CRC pixels as one big-endian number
    for pixel in footer[:n]:
        value = value << wire.depth | int(pixel)
    received = value & 0xFFFF
    computed = crc16_ccitt(serialize_pixels(frame))
    return DecodeResult(
        frame=frame,
        crc_ok=computed == received,
        received_crc=received,
        computed_crc=computed,
        padding_ok=not value >> 16 and not footer[n:].any(),
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
