"""Bit flips on an encoded frame: how the frame-link tests and acceptance
criterion 2 corrupt a wire.  The link has no transport model, so nothing
in `cotsim` flips wire bits."""

import numpy as np

from cotsim.frame_link import FrameError, FrameWire


def total_bits(wire: FrameWire) -> int:
    """The length of the wire's canonical serialization, in bits."""
    return wire.rows.size * wire.depth


def flip_wire_bit(wire: FrameWire, bit_position: int) -> None:
    """Flip one bit of the canonical serialization, in place.

    Bit 0 is the MSB of the first pixel; bits run row-major through the
    footer row.
    """
    if not 0 <= bit_position < total_bits(wire):
        raise FrameError(f"bit position {bit_position} out of range")
    pixel_idx = bit_position // wire.depth
    bit_in_pixel = wire.depth - 1 - (bit_position % wire.depth)
    r, c = divmod(pixel_idx, wire.rows.shape[1])
    wire.rows[r, c] = np.uint32(int(wire.rows[r, c]) ^ (1 << bit_in_pixel))
