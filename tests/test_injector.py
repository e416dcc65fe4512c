"""Injection campaign construction and mutation execution tests."""

import pytest

import numpy as np

from cotsim.config import CampaignConfig, ComponentSpec, make_architecture
from cotsim.fpga import FRAME_BITS, ConfigMemory
from cotsim.harness import run_fpga
from cotsim.injector import (CampaignError, MutationLog, build_fpga_campaign,
                             derive_stream_seed, inject_config_bit,
                             mutation_log)


def rng(seed):
    return np.random.default_rng(seed)


def memory():
    return ConfigMemory([
        ComponentSpec("app", frames=2, essential_bits=20),
        ComponentSpec("ctrl", frames=1, essential_bits=4),
    ])


def test_campaign_schedule_shape():
    cfg = CampaignConfig(duration_us=40_000, period_us=4_000)
    mem = memory()
    addresses, essential = build_fpga_campaign(cfg, mem, rng(3))
    assert len(addresses) == len(essential) == 10
    for frame, bit in addresses:
        assert 0 <= frame < mem.layout.n_frames
        assert 0 <= bit < FRAME_BITS


def test_campaign_is_deterministic_per_seed():
    cfg = CampaignConfig()
    one = build_fpga_campaign(cfg, memory(), rng(9))
    two = build_fpga_campaign(cfg, memory(), rng(9))
    other = build_fpga_campaign(cfg, memory(), rng(10))
    assert one == two
    assert one != other


def test_components_mode_targets_essential_bits_only():
    cfg = CampaignConfig(duration_us=400_000, target_mode="components",
                         target_components=["ctrl"])
    mem = memory()
    addresses, essential = build_fpga_campaign(cfg, mem, rng(1))
    assert set(addresses) <= set(mem.layout.essential_bits("ctrl"))
    assert essential == [True] * len(addresses)


def test_bad_campaigns_rejected():
    mem = memory()
    with pytest.raises(CampaignError):
        build_fpga_campaign(CampaignConfig(target_mode="components",
                                           target_components=["nope"]),
                            mem, rng(0))
    # an empty target list and an unknown target mode are rejected when
    # the campaign is built (tests/test_config.py); a target with no
    # essential bits still leaves nothing to draw from
    no_essential = ConfigMemory([ComponentSpec("app", frames=1,
                                               essential_bits=0)])
    with pytest.raises(CampaignError, match="empty target set"):
        build_fpga_campaign(CampaignConfig(target_mode="components",
                                           target_components=["app"]),
                            no_essential, rng(0))


def test_inject_config_bit_records_effect():
    mem = memory()
    assert MutationLog().text() == ""
    frame, bit = mem.layout.essential_bits("app")[0]
    inject_config_bit(mem, (frame, bit))
    assert not mem.healthy("app")
    non_essential = next(b for b in range(FRAME_BITS)
                         if (0, b) not in mem.layout.essential_bits("app"))
    inject_config_bit(mem, (0, non_essential))
    assert mem.dirty == 1 | 1 << frame
    log = mutation_log(CampaignConfig(duration_us=8_000, period_us=4_000),
                       mem, [(frame, bit), (0, non_essential)],
                       [True, False])
    assert log.text() == (f"4000 fpga_config_bit {frame}:{bit} app\n"
                          f"8000 fpga_config_bit 0:{non_essential} "
                          "non_essential\n")
    # an integer frame would silently widen where a byte array raised
    frames = list(mem.frames)
    for address in ((99, 0), (mem.layout.n_frames, 0), (-1, 0),
                    (0, FRAME_BITS), (0, -1)):
        with pytest.raises(CampaignError, match="outside configuration"):
            inject_config_bit(mem, address)
    assert mem.frames == frames
    assert all(f < 1 << FRAME_BITS for f in mem.frames)


def scalar_campaign(cfg, mem, rng):
    """The campaign as one scalar draw per injection."""
    pool = [addr for name in cfg.target_components
            for addr in mem.layout.essential_bits(name)]
    addresses = []
    for _ in range(cfg.n_events()):
        if cfg.target_mode == "components":
            addresses.append(pool[int(rng.integers(0, len(pool)))])
        else:
            g = int(rng.integers(0, mem.layout.n_frames * FRAME_BITS))
            addresses.append((g // FRAME_BITS, g % FRAME_BITS))
    return addresses


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
        addresses, flags = build_fpga_campaign(cfg, mem, rng(seed))
        assert addresses == scalar_campaign(cfg, mem, rng(seed))
        assert all(type(f) is int and type(b) is int for f, b in addresses)
        # the flags looked up from the draw are the masks' bits
        assert flags == [mem.layout.essential_mask[f] >> b & 1 == 1
                         for f, b in addresses]
        assert all(type(hit) is bool for hit in flags)


# -- the campaign's random stream -------------------------------------------


def stream(seed, label):
    return np.random.default_rng(derive_stream_seed(seed, label))


def test_campaign_streams_are_independent_and_stable():
    a1 = stream(7, "alpha").integers(0, 1 << 30, size=8).tolist()
    a2 = stream(7, "alpha").integers(0, 1 << 30, size=8).tolist()
    b = stream(7, "beta").integers(0, 1 << 30, size=8).tolist()
    assert a1 == a2
    assert a1 != b


def test_derive_stream_seed_depends_on_both_inputs():
    assert derive_stream_seed(1, "x") != derive_stream_seed(2, "x")
    assert derive_stream_seed(1, "x") != derive_stream_seed(1, "y")


def test_campaign_stream_is_pcg64_of_the_derived_seed():
    ref = np.random.Generator(np.random.PCG64(derive_stream_seed(99, "x")))
    rng = stream(99, "x")
    assert rng.integers(0, 1 << 30, size=5).tolist() == \
        ref.integers(0, 1 << 30, size=5).tolist()
    assert rng.choice(np.arange(16), size=4, replace=False).tolist() == \
        ref.choice(np.arange(16), size=4, replace=False).tolist()
    # a run draws its campaign from that stream under the label "fpga-inj"
    cfg = CampaignConfig(duration_us=200_000, period_us=4_000)
    mem = ConfigMemory(make_architecture("No-FT").components)
    pcg = np.random.Generator(
        np.random.PCG64(derive_stream_seed(3, "fpga-inj")))
    _report, log = run_fpga("No-FT", cfg, seed=3)
    assert log == mutation_log(cfg, mem, *build_fpga_campaign(cfg, mem, pcg))
