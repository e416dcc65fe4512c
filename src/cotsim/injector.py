"""Fault-injection campaigns: schedule generation and mutation execution.

A campaign flips configuration-memory bits of the FPGA node, one bit per
event, and every executed event yields exactly one mutation record.  VPU
trials corrupt their node directly (`cotsim.harness.run_vpu_trial`), and
a frame on the link is corrupted with `cotsim.frame_link.flip_wire_bit`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from cotsim.config import CampaignConfig
from cotsim.engine import SeededRng
from cotsim.fpga import ConfigMemory, FRAME_BITS

FPGA_KIND = "fpga_config_bit"


class CampaignError(ValueError):
    pass


class InjectionEvent(NamedTuple):
    time_us: int
    kind: str
    address: tuple


@dataclass
class MutationRecord:
    time_us: int
    kind: str
    address: tuple
    effect: str  # component name or "non_essential"

    def line(self) -> str:
        addr = ":".join(map(str, self.address))
        return f"{self.time_us} {self.kind} {addr} {self.effect}"


class MutationLog:
    def __init__(self):
        self.records: list[MutationRecord] = []

    def add(self, record: MutationRecord) -> None:
        self.records.append(record)

    def text(self) -> str:
        return "\n".join(r.line() for r in self.records) + "\n" \
            if self.records else ""


# ---------------------------------------------------------------------------
# campaign construction


def build_fpga_campaign(cfg: CampaignConfig, mem: ConfigMemory,
                        rng: SeededRng) -> list[InjectionEvent]:
    """Resolve a schedule of configuration-bit addresses.

    utilized_area mode samples uniformly over every bit of the enabled
    components' frames; components mode samples uniformly over the
    essential bits of the named components.  Event i fires at
    (i + 1) * period_us.  The addresses come from one vectorised draw,
    which yields the same values as one scalar `rng.integers(0, n)` per
    event for these ranges (all below 2**32).
    """
    if cfg.target_mode == "components":
        pool = []
        for name in cfg.target_components:
            if name not in mem.essential:
                raise CampaignError(f"unknown target component {name!r}")
            pool.extend(sorted(mem.essential[name]))
        if not pool:
            raise CampaignError("empty target set")
        draws = rng.integers(0, len(pool), size=cfg.n_events()).tolist()
        addresses = [pool[i] for i in draws]
    elif cfg.target_mode == "utilized_area":
        total = mem.total_bits()
        if total == 0:
            raise CampaignError("empty target set")
        draws = rng.integers(0, total, size=cfg.n_events()).tolist()
        addresses = [divmod(g, FRAME_BITS) for g in draws]
    else:
        raise CampaignError(f"unknown target mode {cfg.target_mode!r}")
    period = cfg.period_us
    return [InjectionEvent((i + 1) * period, FPGA_KIND, address)
            for i, address in enumerate(addresses)]


# ---------------------------------------------------------------------------
# mutation execution


def inject_config_bit(mem: ConfigMemory, time_us: int,
                      address: tuple) -> MutationRecord:
    frame, bit = address
    if not (0 <= frame < mem.n_frames and 0 <= bit < FRAME_BITS):
        raise CampaignError(f"address {address} outside configuration memory")
    info = mem.flip_bit(frame, bit)
    effect = info["component"] if info["essential"] else "non_essential"
    return MutationRecord(time_us, FPGA_KIND, address, effect)
