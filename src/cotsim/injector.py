"""Fault-injection campaigns: schedule generation and mutation execution.

FPGA campaigns flip configuration-memory bits; VPU events corrupt DDR
input or worker instruction images; link events flip bits of a frame in
flight.  Every executed event yields exactly one mutation record
(possibly an explicit no-op).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from cotsim.config import CampaignConfig, FRAME_BYTES
from cotsim.engine import SeededRng
from cotsim.fpga import ConfigMemory, FRAME_BITS
from cotsim.frame_link import Link, flip_wire_bit

FPGA_KIND = "fpga_config_bit"
VPU_KINDS = ("vpu_ddr_input", "vpu_instr")
LINK_KIND = "link_bit"


class CampaignError(ValueError):
    pass


class InjectionEvent(NamedTuple):
    time_us: int
    kind: str
    address: tuple


@dataclass
class InjectionCampaign:
    seed: int
    duration_us: int
    events: list[InjectionEvent] = field(default_factory=list)


@dataclass
class MutationRecord:
    time_us: int
    kind: str
    address: tuple
    effect: str  # e.g. component name, "non_essential", "noop"

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
                        rng: SeededRng) -> InjectionCampaign:
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
    return InjectionCampaign(
        seed=rng.seed, duration_us=cfg.duration_us,
        events=[InjectionEvent((i + 1) * period, FPGA_KIND, address)
                for i, address in enumerate(addresses)])


def build_vpu_campaign(cfg: CampaignConfig, kinds: list[str],
                       rng: SeededRng) -> InjectionCampaign:
    """Schedule of VPU memory-corruption events with uniform kind choice."""
    for kind in kinds:
        if kind not in VPU_KINDS:
            raise CampaignError(f"unknown VPU injection kind {kind!r}")
    if not kinds:
        raise CampaignError("empty target set")
    campaign = InjectionCampaign(seed=rng.seed, duration_us=cfg.duration_us)
    for i in range(cfg.n_events()):
        t = (i + 1) * cfg.period_us
        kind = kinds[int(rng.integers(0, len(kinds)))]
        worker = int(rng.integers(0, 12))
        offset = int(rng.integers(0, 1 << 20))
        campaign.events.append(InjectionEvent(t, kind, (worker, offset)))
    return campaign


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


def burst_offsets(rng: SeededRng, region_len: int) -> list[tuple[int, int]]:
    """1-4 byte corruption burst: (offset, xor value) pairs."""
    start = int(rng.integers(0, region_len))
    length = int(rng.integers(1, 5))
    return [((start + i) % region_len, int(rng.integers(1, 256)))
            for i in range(length)]


def corrupt_vpu(event: InjectionEvent, vpu, rng: SeededRng) -> MutationRecord:
    """Apply one VPU corruption event; never touches golden copies."""
    worker, offset = event.address
    if event.kind == "vpu_instr":
        from cotsim.vpu import INSTR_BYTES
        vpu.corrupt_instr(worker, burst_offsets(rng, INSTR_BYTES))
        return MutationRecord(event.time_us, event.kind, event.address,
                              f"worker_{worker}")
    if event.kind == "vpu_ddr_input":
        flat = vpu.ddr_input.reshape(-1)
        for off, val in burst_offsets(rng, flat.size):
            flat[off] ^= val
        return MutationRecord(event.time_us, event.kind, event.address, "ddr")
    raise CampaignError(f"unknown VPU injection kind {event.kind!r}")


def corrupt_link_bit(link: Link, time_us: int, position: int,
                     ) -> MutationRecord:
    """Flip one bit of the first frame in flight; no-op if the link idle."""
    if not link.in_flight:
        return MutationRecord(time_us, LINK_KIND, (position,), "noop")
    wire = link.in_flight[0].wire
    flip_wire_bit(wire, position % wire.total_bits())
    return MutationRecord(time_us, LINK_KIND, (position,), link.name)
