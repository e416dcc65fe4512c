"""Fault-injection campaigns: schedule generation and mutation execution.

A campaign flips configuration-memory bits of the FPGA node:
`build_fpga_campaign` draws one (frame, bit) address per injection, as
arrays of frames, bits and essential flags in firing order, and
injection i fires at (i + 1) * period_us.  A run draws its addresses
from the PCG64 stream seeded with `derive_stream_seed(seed, "fpga-inj")`.
`inject_config_bit` executes one.  An essential injection executes at
its time, even while the node is in reset.  A non-essential one
executes before the next engine work if the node has a scrubber, the
one reader of non-essential bits, and is only logged otherwise
(`cotsim.harness.run_fpga`).  The memory's
`cotsim.fpga.Layout` fixes which bits are essential (`essential_flags`,
where the campaign flags its essential injections) and each frame's log
texts, so the mutation log is a function of the campaign: the bytes of
one line per injection, "<time_us> fpga_config_bit <frame>:<bit>
<effect>", the effect being the owning component if the bit is
essential, else "non_essential".  VPU trials corrupt their node directly
(`cotsim.harness.run_vpu_trial`); only the tests corrupt a frame on the
link (`tests/wire_bits.py`).
"""

from __future__ import annotations

import hashlib

import numpy as np

from cotsim.config import CampaignConfig
from cotsim.fpga import ConfigMemory, FRAME_BITS, number_texts


class CampaignError(ValueError):
    pass


# ---------------------------------------------------------------------------
# campaign construction


def derive_stream_seed(root_seed: int, label: str) -> int:
    """Deterministic child seed from (root seed, label)."""
    digest = hashlib.blake2b(
        f"{root_seed}:{label}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def build_fpga_campaign(cfg: CampaignConfig, mem: ConfigMemory,
                        rng: np.random.Generator
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The campaign's frames, bits and essential flags, one entry per
    injection in firing order.

    utilized_area mode samples uniformly over every bit of the enabled
    components' frames; components mode samples uniformly over the
    essential bits of the named components.  The addresses come from one
    vectorised draw, which yields the same values as one scalar
    `rng.integers(0, n)` per injection for these ranges (all below 2**32).
    """
    layout = mem.layout
    if cfg.target_mode == "components":
        pool = []
        for name in cfg.target_components:
            if name not in layout.components:
                raise CampaignError(f"unknown target component {name!r}")
            pool.append(layout.essential_addresses[name])
        if not sum(frames.size for frames, _bits in pool):
            raise CampaignError("empty target set")
        frames, bits = map(np.concatenate, zip(*pool))
        draws = rng.integers(0, frames.size, size=cfg.n_events())
        return frames[draws], bits[draws], np.ones(draws.size, dtype=bool)
    total = layout.n_frames * FRAME_BITS
    if total == 0:
        raise CampaignError("empty target set")
    draws = rng.integers(0, total, size=cfg.n_events())
    hit = layout.essential_flags[draws >> 3] >> (draws & 7) & 1 == 1
    frames, bits = np.divmod(draws, FRAME_BITS)
    return frames, bits, hit


# ---------------------------------------------------------------------------
# mutation execution


def mutation_log(cfg: CampaignConfig, mem: ConfigMemory, frames: np.ndarray,
                 bits: np.ndarray, essential: np.ndarray) -> bytes:
    """The log of the campaign's injections, as `build_fpga_campaign`
    returns them, rendered in one pass: each line is one record that
    gathers its time, its frame's prefix, its bit number and its frame's
    effect from NUL-padded text tables, and one mask over the records'
    bytes drops the padding."""
    prefix, effect = mem.layout.log_texts
    columns = {
        "time": number_texts(cfg.period_us, cfg.duration_us + 1,
                             cfg.period_us),
        "prefix": prefix[frames],
        "bit": number_texts(0, FRAME_BITS, 1)[bits],
        "effect": effect[2 * frames + essential]}
    rows = np.empty(len(frames), [(name, column.dtype)
                                  for name, column in columns.items()])
    for name, column in columns.items():
        rows[name] = column
    text = rows.view(np.uint8)
    return text[text != 0].tobytes()


def inject_config_bit(mem: ConfigMemory, address: tuple) -> None:
    """Flip the bit at `address`."""
    frame, bit = address
    if not (0 <= frame < mem.layout.n_frames and 0 <= bit < FRAME_BITS):
        raise CampaignError(f"address {address} outside configuration memory")
    mem.flip_bit(frame, bit)
