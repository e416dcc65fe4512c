"""Deterministic fault-injection simulator for a COTS FPGA+VPU co-processing payload."""

from cotsim.engine import SimEngine, Event, SchedulingError
from cotsim.crc import crc16_ccitt
from cotsim.frame_link import PixelFrame, FrameWire, encode_frame, decode_frame, serialize_pixels

__all__ = [
    "SimEngine",
    "Event",
    "SchedulingError",
    "crc16_ccitt",
    "PixelFrame",
    "FrameWire",
    "encode_frame",
    "decode_frame",
    "serialize_pixels",
]

__version__ = "0.1.0"
