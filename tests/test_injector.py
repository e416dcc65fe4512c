"""Injection campaign construction and mutation execution tests."""

import pytest

from cotsim.config import CampaignConfig, ComponentSpec, make_architecture
from cotsim.engine import SeededRng
from cotsim.fpga import FRAME_BITS, ConfigMemory
from cotsim.injector import (FPGA_KIND, CampaignError, InjectionEvent,
                             MutationLog, build_fpga_campaign,
                             inject_config_bit)


def memory():
    return ConfigMemory([
        ComponentSpec("app", frames=2, essential_bits=20),
        ComponentSpec("ctrl", frames=1, essential_bits=4),
    ])


def test_campaign_schedule_shape():
    cfg = CampaignConfig(duration_us=40_000, period_us=4_000)
    events = build_fpga_campaign(cfg, memory(), SeededRng(3))
    assert len(events) == 10
    assert [e.time_us for e in events] == \
        [4_000 * (i + 1) for i in range(10)]
    mem = memory()
    for e in events:
        frame, bit = e.address
        assert 0 <= frame < mem.n_frames
        assert 0 <= bit < FRAME_BITS


def test_campaign_is_deterministic_per_seed():
    cfg = CampaignConfig()
    one = build_fpga_campaign(cfg, memory(), SeededRng(9))
    two = build_fpga_campaign(cfg, memory(), SeededRng(9))
    other = build_fpga_campaign(cfg, memory(), SeededRng(10))
    assert one == two
    assert one != other


def test_components_mode_targets_essential_bits_only():
    cfg = CampaignConfig(duration_us=400_000, target_mode="components",
                         target_components=["ctrl"])
    mem = memory()
    events = build_fpga_campaign(cfg, mem, SeededRng(1))
    assert {e.address for e in events} <= mem.essential["ctrl"]


def test_bad_campaigns_rejected():
    mem = memory()
    with pytest.raises(CampaignError):
        build_fpga_campaign(CampaignConfig(target_mode="components",
                                           target_components=["nope"]),
                            mem, SeededRng(0))
    with pytest.raises(CampaignError):
        build_fpga_campaign(CampaignConfig(target_mode="components"),
                            mem, SeededRng(0))
    with pytest.raises(CampaignError):
        build_fpga_campaign(CampaignConfig(target_mode="per_module"),
                            mem, SeededRng(0))


def test_inject_config_bit_records_effect():
    mem = memory()
    log = MutationLog()
    essential = sorted(mem.essential["app"])[0]
    log.add(inject_config_bit(mem, 4_000, essential))
    assert not mem.healthy("app")
    non_essential = next(
        (0, b) for b in range(FRAME_BITS) if (0, b) not in mem.essential["app"])
    log.add(inject_config_bit(mem, 8_000, non_essential))
    lines = log.text().splitlines()
    assert lines[0].endswith("app")
    assert lines[1].endswith("non_essential")
    assert lines[0].startswith("4000 fpga_config_bit")
    with pytest.raises(CampaignError):
        inject_config_bit(mem, 0, (99, 0))


def scalar_campaign(cfg, mem, rng):
    """The campaign as one scalar draw per event."""
    pool = [addr for name in cfg.target_components
            for addr in sorted(mem.essential[name])]
    events = []
    for i in range(cfg.n_events()):
        if cfg.target_mode == "components":
            address = pool[int(rng.integers(0, len(pool)))]
        else:
            g = int(rng.integers(0, mem.total_bits()))
            address = (g // FRAME_BITS, g % FRAME_BITS)
        events.append(InjectionEvent((i + 1) * cfg.period_us, FPGA_KIND,
                                     address))
    return events


@pytest.mark.parametrize("frames,essential", [
    (1, 1), (1, 2), (1, 255), (1, 256), (1, 257), (3, 1000), (40, 65_537)])
@pytest.mark.parametrize("mode", ["components", "utilized_area"])
def test_vectorised_draw_matches_scalar_draws(frames, essential, mode):
    """One rng.integers(size=n) call must draw what n scalar calls draw."""
    mem = ConfigMemory([
        ComponentSpec("app", frames=frames, essential_bits=essential),
        ComponentSpec("ctrl", frames=1, essential_bits=3),
    ])
    cfg = CampaignConfig(duration_us=300_000, period_us=1_000,
                         target_mode=mode, target_components=["app"])
    for seed in (0, 1, 7, 2**40 + 3):
        events = build_fpga_campaign(cfg, mem, SeededRng(seed))
        assert events == scalar_campaign(cfg, mem, SeededRng(seed))
        assert all(type(f) is int and type(b) is int
                   for f, b in (e.address for e in events))
