"""Injection campaign construction and mutation execution tests."""

import hashlib

import pytest

import numpy as np
from hypothesis import example, given, settings, strategies as st

from cotsim.config import (ARCHITECTURES, CampaignConfig, ComponentSpec,
                           make_architecture)
from cotsim.fpga import FRAME_BITS, ConfigMemory, _set_bits
from cotsim.harness import run_fpga
from cotsim.injector import (CampaignError, build_fpga_campaign,
                             derive_stream_seed, inject_config_bit,
                             mutation_log)
from test_fpga import essential_bits


def rng(seed):
    return np.random.default_rng(seed)


def memory():
    return ConfigMemory([
        ComponentSpec("app", frames=2, essential_bits=20),
        ComponentSpec("ctrl", frames=1, essential_bits=4),
    ])


def as_lists(campaign):
    """A campaign's frames, bits and essential flags as lists."""
    return tuple(column.tolist() for column in campaign)


def addresses(campaign):
    """A campaign's (frame, bit) addresses, in firing order."""
    frames, bits, _essential = as_lists(campaign)
    return list(zip(frames, bits))


def test_campaign_schedule_shape():
    cfg = CampaignConfig(duration_us=40_000, period_us=4_000)
    mem = memory()
    frames, bits, essential = build_fpga_campaign(cfg, mem, rng(3))
    assert len(frames) == len(bits) == len(essential) == 10
    for frame, bit in zip(frames.tolist(), bits.tolist()):
        assert 0 <= frame < mem.layout.n_frames
        assert 0 <= bit < FRAME_BITS


def test_campaign_is_deterministic_per_seed():
    cfg = CampaignConfig()
    one = as_lists(build_fpga_campaign(cfg, memory(), rng(9)))
    two = as_lists(build_fpga_campaign(cfg, memory(), rng(9)))
    other = as_lists(build_fpga_campaign(cfg, memory(), rng(10)))
    assert one == two
    assert one != other


def test_components_mode_targets_essential_bits_only():
    cfg = CampaignConfig(duration_us=400_000, target_mode="components",
                         target_components=["ctrl"])
    mem = memory()
    campaign = build_fpga_campaign(cfg, mem, rng(1))
    drawn = addresses(campaign)
    assert set(drawn) <= set(essential_bits(mem.layout, "ctrl"))
    assert as_lists(campaign)[2] == [True] * len(drawn)


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
    frame, bit = essential_bits(mem.layout, "app")[0]
    inject_config_bit(mem, (frame, bit))
    assert not mem.healthy("app")
    non_essential = next(b for b in range(FRAME_BITS)
                         if (0, b) not in essential_bits(mem.layout, "app"))
    inject_config_bit(mem, (0, non_essential))
    assert mem.dirty == 1 | 1 << frame
    log = mutation_log(CampaignConfig(duration_us=8_000, period_us=4_000),
                       mem, np.array([frame, 0]),
                       np.array([bit, non_essential]), np.array([True, False]))
    assert log.decode() == (f"4000 fpga_config_bit {frame}:{bit} app\n"
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
            for addr in essential_bits(mem.layout, name)]
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
        campaign = build_fpga_campaign(cfg, mem, rng(seed))
        drawn = addresses(campaign)
        assert drawn == scalar_campaign(cfg, mem, rng(seed))
        assert all(type(f) is int and type(b) is int for f, b in drawn)
        # the flags looked up from the draw are the masks' bits
        flags = as_lists(campaign)[2]
        assert flags == [mem.layout.essential_mask[f] >> b & 1 == 1
                         for f, b in drawn]
        assert all(type(hit) is bool for hit in flags)


def per_bit_pool(layout, names) -> list[tuple[int, int]]:
    """The components-mode pool as it was built in every run: each named
    component's frames decoded bit by bit from the essential masks."""
    return [(f, bit) for name in names for f in layout.comp_frames[name]
            for bit in _set_bits(layout.essential_mask[f])]


@pytest.mark.parametrize("arch", ARCHITECTURES)
@pytest.mark.parametrize("order", [1, -1])
def test_components_pool_equals_the_per_bit_decode(arch, order):
    """Each component's address arrays, built once per layout, are its
    per-bit decode in the same order, and a components-mode campaign
    over every component (in either order) draws the same frames and
    bits, of the same dtype, as indexing the decoded tuples did."""
    mem = ConfigMemory(make_architecture(arch).components)
    layout = mem.layout
    for name in layout.components:
        frames, bits = layout.essential_addresses[name]
        want = np.array(per_bit_pool(layout, [name])).reshape(-1, 2).T
        # one bool, so a failure does not diff thousands of tuples
        assert np.array_equal(frames, want[0]) and \
            np.array_equal(bits, want[1]), name
        assert not frames.flags.writeable and not bits.flags.writeable
    names = list(layout.components)[::order]
    cfg = CampaignConfig(period_us=1_000, target_mode="components",
                         target_components=names)
    pool = per_bit_pool(layout, names)
    draws = rng(5).integers(0, len(pool), size=cfg.n_events())
    old = np.array(pool).T[:, draws]
    frames, bits, essential = build_fpga_campaign(cfg, mem, rng(5))
    for column, want in zip((frames, bits), old):
        assert column.dtype == want.dtype
        assert np.array_equal(column, want)
    assert essential.all()


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


# -- the rendered mutation log ----------------------------------------------


def per_line_log(cfg, mem, frames, bits, essential) -> str:
    """The log as one f-string per line: the renderer that the one-pass
    `mutation_log` replaced, kept as its oracle."""
    prefix = tuple(f" fpga_config_bit {frame}:"
                   for frame in range(mem.layout.n_frames))
    effect = tuple((" non_essential", f" {owner}")
                   for owner in mem.layout.frame_owner)
    lines = [f"{t}{prefix[frame]}{bit}{effect[frame][hit]}"
             for t, frame, bit, hit in zip(
                 range(cfg.period_us, cfg.duration_us + 1, cfg.period_us),
                 frames.tolist(), bits.tolist(), essential.tolist())]
    return "\n".join(lines) + "\n" if lines else ""


def one_window(duration_us, period_us, targets=None):
    """A campaign of one window, in components mode if `targets`."""
    return CampaignConfig(
        duration_us=duration_us, period_us=period_us, window_us=duration_us,
        **({"target_mode": "components", "target_components": targets}
           if targets else {}))


@st.composite
def campaigns(draw):
    """(architecture, campaign) in either target mode, with at least ten
    injections, so that the time gains a digit within the run."""
    arch = draw(st.sampled_from(list(ARCHITECTURES)))
    period = draw(st.integers(1, 2_000))
    duration = (period * draw(st.integers(10, 2_000))
                + draw(st.integers(0, period - 1)))
    names = [c.name for c in make_architecture(arch).components]
    targets = draw(st.none() | st.lists(st.sampled_from(names), min_size=1,
                                        unique=True))
    return arch, one_window(duration, period, targets)


# CMS+DPR+TMR+WD has 19 frames
@example(("CMS+DPR+TMR+WD", one_window(14_000, 7)), 0,
         [(0, 18, 0, True), (1, 10, 3_231, False), (1_999, 9, 3_231, True),
          (1_998, 0, 0, False)])
@example(("CMS+DPR+TMR+WD",
          one_window(4_000_000, 1_000, ["cms_ctrl", "wd_link"])), 0, [])
@example(("TMR", one_window(5, 3)), 0, [])  # one injection
@example(("No-FT", one_window(5, 6)), 0, [])  # none
@settings(max_examples=200, deadline=None)
@given(campaigns(), st.integers(0, 2**32 - 1),
       st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 18),
                          st.integers(0, FRAME_BITS - 1), st.booleans()),
                max_size=4))
def test_mutation_log_renders_the_per_line_log(run, seed, edits):
    """`mutation_log` gives byte for byte the per-line log, for every
    architecture and target mode, times that gain digits, and addresses
    set by hand: each edit (i, frame, bit, hit) sets injection i modulo
    the count to frame modulo the frame count, bit and flag."""
    arch, campaign = run
    mem = ConfigMemory(make_architecture(arch).components)
    frames, bits, essential = build_fpga_campaign(campaign, mem, rng(seed))
    n = len(frames)
    for i, frame, bit, hit in edits if n else ():
        frames[i % n] = frame % mem.layout.n_frames
        bits[i % n], essential[i % n] = bit, hit
    log = mutation_log(campaign, mem, frames, bits, essential)
    assert type(log) is bytes
    assert log == per_line_log(campaign, mem, frames, bits,
                               essential).encode()
    assert log.count(b"\n") == n == campaign.n_events()


def test_a_campaign_without_injections_logs_nothing():
    """A period longer than the run draws no injection: the log is empty
    and the report's digest is that of no bytes."""
    for arch in ("No-FT", "CMS+DPR+TMR+WD"):
        for campaign in (one_window(4_000, 5_000),
                         one_window(4_000, 5_000, ["fir_0"])):
            report, log = run_fpga(arch, campaign, seed=0)
            assert log == b"" and log.decode() == ""
            assert report.mutation_digest == hashlib.sha256(b"").hexdigest()
