"""Fault-injection campaigns: schedule generation and mutation execution.

A campaign flips configuration-memory bits of the FPGA node:
`build_fpga_campaign` lists one (frame, bit) address per injection, and
injection i fires at (i + 1) * period_us.  A run draws its addresses
from the PCG64 stream seeded with `derive_stream_seed(seed, "fpga-inj")`.
`inject_config_bit` executes one.  Every injection executes, even while
the node is in reset: an essential one at its time, a non-essential one
before the next engine work (`cotsim.harness.run_fpga`).  The memory's
`cotsim.fpga.Layout` fixes which bits are essential (`essential_flags`,
where the campaign flags its essential injections) and each frame's log
texts, so the mutation log is a function of the campaign: one line per
injection, "<time_us> fpga_config_bit <frame>:<bit> <effect>", the
effect being the owning component if the bit is essential, else
"non_essential".  VPU trials corrupt their node directly
(`cotsim.harness.run_vpu_trial`); only the tests corrupt a frame on the
link (`tests/wire_bits.py`).
"""

from __future__ import annotations

import hashlib

import numpy as np

from cotsim.config import CampaignConfig
from cotsim.fpga import ConfigMemory, FRAME_BITS


class CampaignError(ValueError):
    pass


class MutationLog(list):
    """The mutation-log lines of one run, in execution order."""

    def text(self) -> str:
        return "\n".join(self) + "\n" if self else ""


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
                        ) -> tuple[list[tuple[int, int]], list[bool]]:
    """Resolve the campaign's (frame, bit) addresses, in firing order, and
    whether each flips an essential bit.

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
            pool.extend(layout.essential_bits(name))
        if not pool:
            raise CampaignError("empty target set")
        draws = rng.integers(0, len(pool), size=cfg.n_events()).tolist()
        return [pool[i] for i in draws], [True] * len(draws)
    total = layout.n_frames * FRAME_BITS
    if total == 0:
        raise CampaignError("empty target set")
    draws = rng.integers(0, total, size=cfg.n_events())
    hit = layout.essential_flags[draws >> 3] >> (draws & 7) & 1 == 1
    return [divmod(g, FRAME_BITS) for g in draws.tolist()], hit.tolist()


# ---------------------------------------------------------------------------
# mutation execution


def mutation_log(cfg: CampaignConfig, mem: ConfigMemory,
                 addresses: list[tuple[int, int]],
                 essential: list[bool]) -> MutationLog:
    """The log lines of the campaign's injections at `addresses`, flagged
    `essential` as `build_fpga_campaign` returns them, in firing order,
    from each frame's texts in the layout."""
    prefix, effect = mem.layout.log_prefix, mem.layout.log_effects
    return MutationLog(
        f"{t}{prefix[frame]}{bit}{effect[frame][hit]}"
        for t, (frame, bit), hit in zip(
            range(cfg.period_us, cfg.duration_us + 1, cfg.period_us),
            addresses, essential))


def inject_config_bit(mem: ConfigMemory, address: tuple) -> None:
    """Flip the bit at `address`."""
    frame, bit = address
    if not (0 <= frame < mem.layout.n_frames and 0 <= bit < FRAME_BITS):
        raise CampaignError(f"address {address} outside configuration memory")
    mem.flip_bit(frame, bit)
