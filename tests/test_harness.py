"""Campaign harness tests: window classification, failure-rate fitting,
run reports and determinism."""

import dataclasses
import gc
import hashlib
import json
import math
import statistics
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cotsim import harness, vpu
from cotsim.config import ARCHITECTURES, CampaignConfig, make_architecture
from cotsim.ecc import secded_decode, secded_encode
from cotsim.engine import SimEngine
from cotsim.fpga import (FRAME_BITS, ConfigMemory, FpgaNode, Layout,
                         Scrubber, layout_of)
from cotsim.injector import (build_fpga_campaign, derive_stream_seed,
                             inject_config_bit, mutation_log)
from cotsim.harness import (CLASSES, VpuTableRow, emit_matrix, fit_lambda,
                            reliability_curve, run_fpga, run_matrix,
                            run_vpu_table, run_vpu_trial)
from test_fpga import contents
from test_vpu_lock import trial_digests


def merged_spans(classes, window_us):
    """Runs of equal window classes as (duration_us, class) spans."""
    spans = []
    for cls in classes:
        if spans and spans[-1][1] == cls:
            spans[-1] = (spans[-1][0] + window_us, cls)
        else:
            spans.append((window_us, cls))
    return spans


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(CLASSES), max_size=60),
       st.sampled_from([1, 7, 1_000, 4_000, 16_000]))
def test_timeline_merges_adjacent_windows(classes, window_us):
    """One span per window fits the same rate as the merged timeline."""
    windows = [(window_us, c) for c in classes]
    assert fit_lambda(windows) == fit_lambda(merged_spans(classes, window_us))
    assert merged_spans(["correct", "correct", "down", "down", "erroneous",
                         "correct"], 10) == [
        (20, "correct"), (20, "down"), (10, "erroneous"), (10, "correct")]


def test_fit_lambda_counts_correct_to_failed_transitions():
    lam = fit_lambda([(1_000_000, "correct"), (500_000, "down"),
                      (100_000, "erroneous"), (1_000_000, "correct"),
                      (100_000, "erroneous"), (400_000, "correct")])
    # 2 failures over 2.4 s of correct operation; down -> erroneous is
    # no new failure
    assert lam == pytest.approx(2 / 2.4)


def test_fit_lambda_requires_correct_time():
    assert fit_lambda([(100, "down")]) is None
    assert fit_lambda([]) is None


def test_fit_lambda_recovers_known_rate():
    lam_true = 2.0
    rng = np.random.default_rng(17)
    durations = rng.exponential(1 / lam_true, size=10_000)
    spans = []
    for d in durations:
        spans.append((max(1, int(d * 1e6)), "correct"))
        spans.append((1000, "down"))
    assert abs(fit_lambda(spans) - lam_true) / lam_true < 0.1


def test_reliability_closed_form():
    times, r = reliability_curve(0.5, 2.0)
    assert len(times) == len(r) == 101
    assert (times[0], r[0]) == (0.0, 1.0)
    assert times[-1] == 2.0
    assert r[-1] == pytest.approx(math.exp(-1.0), abs=1e-15)
    for t, value in zip(times, r):
        assert value == math.exp(-0.5 * t)


def short_campaign():
    return CampaignConfig(duration_us=200_000, period_us=4_000)


def test_run_fpga_report_fields():
    report, log = run_fpga("CMS", short_campaign(), seed=1)
    assert report.architecture == "CMS"
    assert len(report.window_classes) == 50
    assert report.down_pct + report.erroneous_pct + report.correct_pct \
        == pytest.approx(100.0)
    # injection i fires at (i + 1) * period_us
    assert [int(line.split()[0]) for line in log.splitlines()] == \
        [4_000 * (i + 1) for i in range(50)]
    payload = json.loads(report.to_json())
    assert payload["seed"] == 1


def test_report_json_is_the_asdict_text():
    """`to_json` dumps the report's own field dict instead of a deep copy;
    the text is the same."""
    campaign = CampaignConfig(duration_us=400_000, period_us=1_000)
    report, _log = run_fpga("CMS+DPR+TMR+WD", campaign, seed=0)
    assert report.to_json() == json.dumps(
        dataclasses.asdict(report), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("arch", list(ARCHITECTURES))
def test_report_json_splices_the_window_classes_into_the_dump(arch):
    """`to_json` renders the window classes itself and splices them into
    the dump of the other fields: byte for byte the indented dump of the
    whole field dict, for a report of every architecture, and with no
    window classes and no failure rate."""
    campaign = CampaignConfig(duration_us=400_000, period_us=1_000)
    report, _log = run_fpga(arch, campaign, seed=0)
    assert len(set(report.window_classes)) > 1
    bare = dataclasses.replace(report, window_classes=[], lam_per_s=None)
    for r in (report, bare):
        assert r.to_json() == json.dumps(vars(r), sort_keys=True,
                                         indent=2) + "\n"


# every class occurs in both runs, and for one class of each the share
# computed in another order (count / n * 100.0) differs in its last bit
@pytest.mark.parametrize("arch, window_us, seed", [("TMR", 4_000, 1),
                                                   ("CMS", 1_000, 0)])
def test_run_fpga_percentages_are_window_shares(arch, window_us, seed):
    campaign = CampaignConfig(duration_us=400_000, period_us=1_000,
                              window_us=window_us)
    report, _log = run_fpga(arch, campaign, seed=seed)
    classes = report.window_classes
    assert len(classes) == 400_000 // window_us
    assert all(c in classes for c in CLASSES)
    assert report.down_pct == 100.0 * classes.count("down") / len(classes)
    assert report.erroneous_pct == \
        100.0 * classes.count("erroneous") / len(classes)
    assert report.correct_pct == \
        100.0 * classes.count("correct") / len(classes)
    assert report.lam_per_s == fit_lambda(merged_spans(classes, window_us))


def test_run_fpga_repeat_is_byte_identical():
    rep1, log1 = run_fpga("CMS+DPR+TMR", short_campaign(), seed=3)
    rep2, log2 = run_fpga("CMS+DPR+TMR", short_campaign(), seed=3)
    assert rep1.to_json() == rep2.to_json()
    assert log1.decode() == log2.decode()
    rep3, _ = run_fpga("CMS+DPR+TMR", short_campaign(), seed=4)
    assert rep3.to_json() != rep1.to_json()


CAUSALITY_WINDOWS = 200  # of 4 ms: a 0.8 s full run


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(list(ARCHITECTURES)), st.integers(0, 2**32 - 1),
       st.integers(500, 8_000), st.integers(1, CAUSALITY_WINDOWS))
def test_a_run_cut_after_k_windows_is_a_prefix_of_the_full_run(
        arch, seed, period_us, k):
    """Causality: nothing after window k changes the first k windows'
    classes or the log of the injections up to them."""
    full = CampaignConfig(duration_us=CAUSALITY_WINDOWS * 4_000,
                          period_us=period_us, window_us=4_000)
    cut = dataclasses.replace(full, duration_us=k * 4_000)
    report, log = run_fpga(arch, full, seed)
    cut_report, cut_log = run_fpga(arch, cut, seed)
    assert cut_report.window_classes == report.window_classes[:k]
    assert cut_log.count(b"\n") == cut.n_events()
    assert cut_log == log[:len(cut_log)]


def test_run_fpga_accepts_prebuilt_config():
    arch = make_architecture("TMR", app_down_fraction=0.0)
    report, _log = run_fpga(arch, short_campaign(), seed=0)
    assert report.architecture == "TMR"
    # every wrong window is erroneous, none down
    assert report.down_pct == 0.0 < report.erroneous_pct


# the watchdog-reset campaign of tests/test_fpga_lock.py; its injections
# miss the 115 us resets, which those every 100 us hit
DEATHS = CampaignConfig(duration_us=2_000_000, period_us=2_000,
                        target_mode="components",
                        target_components=["cms_ctrl", "wd_link", "fir_0"])
FAST_DEATHS = dataclasses.replace(DEATHS, duration_us=600_000, period_us=100)


@pytest.mark.parametrize("arch, campaign, seed, in_reset", [
    ("CMS+DPR+TMR", CampaignConfig(period_us=1_000), 0, 0),
    ("TMR", CampaignConfig(duration_us=400_000, period_us=500,
                           target_mode="components",
                           target_components=["fir_1", "voter_in"]), 1, 0),
    ("CMS+DPR+TMR+WD", DEATHS, 0, 0),
    ("CMS+DPR+TMR+WD", FAST_DEATHS, 0, 3)])
def test_mutation_log_equals_the_executed_flips(monkeypatch, arch, campaign,
                                               seed, in_reset):
    """The log built from the campaign reads as if each essential line
    were written when its flip executed: `inject_config_bit` runs once
    per line whose effect is not non_essential, stamped with the
    engine's clock, and the owner's flipped essential bits change.
    `in_reset` of those flips execute while a watchdog reset is under
    way.  Which non-essential flips land, and when, is pinned by
    `test_engine_work_sees_the_frames_of_the_per_injection_loop`."""
    nodes, live = [], []

    class Recorded(harness.FpgaNode):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            nodes.append(self)

    def inject(mem, address):
        frame, bit = address
        owner = mem.layout.frame_owner[frame]
        before = list(mem.flipped_essential[owner])
        inject_config_bit(mem, address)
        changed = mem.flipped_essential[owner] != before
        live.append((f"{nodes[0].engine.now} fpga_config_bit {frame}:{bit} "
                     f"{owner if changed else 'non_essential'}\n",
                     nodes[0].in_reset))

    monkeypatch.setattr(harness, "FpgaNode", Recorded)
    monkeypatch.setattr(harness, "inject_config_bit", inject)
    report, log = run_fpga(arch, campaign, seed)
    lines = log.decode().splitlines()
    assert len(lines) == campaign.n_events()
    assert "".join(line for line, _ in live) == "".join(
        line + "\n" for line in lines if not line.endswith(" non_essential"))
    assert report.mutation_digest == \
        hashlib.sha256(log.decode().encode()).hexdigest()
    effects = {line.split()[-1] for line in lines}
    if campaign.target_mode == "components":
        assert effects == set(campaign.target_components)
    else:
        assert "non_essential" in effects and len(effects) > 1
    assert (report.resets > 0) == (arch == "CMS+DPR+TMR+WD")
    assert sum(during for _, during in live) == in_reset


# -- the live-window loop as an oracle --------------------------------------


def live_verdict(node, state_seed):
    """A window's verdict from the node as it is, raising the TMR vote's
    reload requests as it goes: the window input that `run_fpga` once
    applied at every window time."""
    if node.in_reset:
        return "down"
    correct, requests = node._datapath()
    if node.dpr is not None:
        for comp in requests:
            node.dpr.request_reload(comp)
    if correct:
        return "correct"
    mem = node.mem
    state = str(sorted((name, mem.corruption_tag(name))
                       for name in mem.layout.components
                       if not mem.healthy(name)))
    digest = hashlib.blake2b(
        f"{state_seed}:{node.engine.now}:{state}".encode(),
        digest_size=8).digest()
    u = int.from_bytes(digest, "big") / 2**64
    return "down" if u < node.arch.app_down_fraction else "erroneous"


def live_window_run(arch, campaign, seed):
    """`run_fpga` with every measurement window a live input: injections
    and windows in one time-ordered loop, an injection first at equal
    times, each after a bounded engine run that wakes every watcher, the
    asleep scrubber too.  The node has no window watcher; the windows
    raise the reload requests themselves."""
    engine = SimEngine()
    node = FpgaNode(engine, arch)
    node.start()
    rng = np.random.default_rng(derive_stream_seed(seed, "fpga-inj"))
    frames, bits, essential = build_fpga_campaign(campaign, node.mem, rng)
    log = mutation_log(campaign, node.mem, frames, bits, essential)
    end, period, window = (campaign.duration_us, campaign.period_us,
                           campaign.window_us)
    injections = [(t, 0, address) for t, address
                  in zip(range(period, end + 1, period),
                         zip(frames.tolist(), bits.tolist()))]
    windows = [(t, 1, None) for t in range(window, end + 1, window)]
    classes = []
    for t, is_window, address in sorted(injections + windows):
        engine.run_until(t, scheduled_before=1)
        if is_window:
            classes.append(live_verdict(node, seed))
        else:
            inject_config_bit(node.mem, address)
    engine.run_until(end)
    node.close()

    pct = {c: 100.0 * classes.count(c) / len(classes) for c in CLASSES}
    scrub = node.scrubber
    report = harness.RunReport(
        architecture=arch.name, seed=seed, duration_us=end, window_us=window,
        down_pct=pct["down"], erroneous_pct=pct["erroneous"],
        correct_pct=pct["correct"],
        lam_per_s=fit_lambda((window, c) for c in classes),
        resets=node.epoch,
        scrub_detections=scrub.detections if scrub else 0,
        scrub_repairs=scrub.repairs if scrub else 0,
        scrub_uncorrectable=scrub.uncorrectable if scrub else 0,
        dpr_reloads=node.dpr.reloads if node.dpr else 0,
        icap_grants=node.icap.grants,
        mutation_digest=hashlib.sha256(log.decode().encode()).hexdigest(),
        window_classes=classes)
    return report, log


@st.composite
def tie_heavy_runs(draw):
    """(arch, campaign, seed): any architecture; windows off the injection
    grid and injections off the window grid; scan periods, repair
    latencies and watchdog checks on the window grid; scan periods equal
    to the voter and FIR reload durations (7 and 13 us), with windows on
    the scan grid, so that the scrubber's ticks tie with reload ends and
    window ticks for the ICAP; components-mode campaigns that kill
    controllers and force watchdog resets."""
    window = draw(st.sampled_from([7, 13, 100, 300, 400, 1_000, 1_500]))
    arch = make_architecture(
        # the three with a window watcher, the watchdog's one most
        draw(st.sampled_from(ARCHITECTURES) | st.sampled_from(
            ["CMS+DPR+TMR+WD", "CMS+DPR+TMR+WD", "DPR+TMR",
             "CMS+DPR+TMR"])),
        scan_period_us=draw(st.sampled_from(
            [7, 13, 100, window // 2, window, 2 * window])),
        frame_repair_latency_us=draw(st.sampled_from(
            [0, 13, window, 3 * window, 18_000])),
        dpr_blind_period_us=draw(st.sampled_from([5 * window, 200_000])),
        wd_timeout_us=draw(st.sampled_from([2 * window, 2_000, 100_000])))
    names = [c.name for c in arch.components]
    targets = draw(st.none() | st.lists(
        st.sampled_from([n for n in ("cms_ctrl", "wd_link", "dpr_ctrl",
                                     "fir_0", "fir_1") if n in names]),
        min_size=1, max_size=3, unique=True))
    campaign = CampaignConfig(
        # 7 and 13 us windows run 14 and 7 times as many, so that some
        # injections land
        duration_us=window * draw(st.integers(10, 120)) * max(
            1, 100 // window),
        period_us=draw(st.sampled_from([100, 150, 250, 400, 700, 3_000])),
        window_us=window,
        **({"target_mode": "components", "target_components": targets}
           if targets else {}))
    return arch, campaign, draw(st.integers(0, 2**16))


@settings(max_examples=120, deadline=None)
@given(tie_heavy_runs())
def test_run_fpga_equals_the_live_window_loop(run):
    """Classifying windows after the run from the health log, with the
    window watcher raising the requests, gives the live-window loop's
    report and mutation log."""
    arch, campaign, seed = run
    report, log = run_fpga(arch, campaign, seed)
    expected, expected_log = live_window_run(arch, campaign, seed)
    assert report == expected
    assert log == expected_log


def frame_contents(mem) -> tuple[int, ...]:
    return tuple(contents(mem, f) for f in range(mem.layout.n_frames))


def engine_work_frames(run, *args):
    """(clock, frames) at every node event and every scrubber tick that
    finds damage during `run(*args)`, in order."""
    seen = []
    handle, step = FpgaNode._handle, Scrubber.step

    def seen_handle(self, *event):
        seen.append((self.engine.now, frame_contents(self.mem)))
        handle(self, *event)

    def seen_step(self):
        seen.append((self.node.engine.now, frame_contents(self.mem)))
        step(self)

    with mock.patch.object(FpgaNode, "_handle", seen_handle), \
            mock.patch.object(Scrubber, "step", seen_step):
        run(*args)
    return seen


@settings(max_examples=100, deadline=None)
@given(tie_heavy_runs())
def test_engine_work_sees_the_frames_of_the_per_injection_loop(run):
    """With CMS, `run_fpga` writes a non-essential flip just before the
    next engine run, not at its time; every event and every tick that
    finds damage still sees the frames of the live-window loop, which
    flips each injection at its time.  Without CMS it writes none, so
    engine work sees the live-window loop's essential bits, the only
    view of the frames that such a run reads."""
    arch = run[0]
    seen = engine_work_frames(run_fpga, *run)
    expected = engine_work_frames(live_window_run, *run)
    if not arch.cms:
        masks = layout_of(tuple(arch.components)).essential_mask
        seen, expected = (
            [(now, tuple(map(int.__and__, frames, masks)))
             for now, frames in work] for work in (seen, expected))
    assert seen == expected


def test_injections_pass_an_asleep_scrubber(monkeypatch):
    """While the scrubber repairs or its controller is dead, an injection
    that flips no essential bit of cms_ctrl or wd_link does not wake it.
    Woken before every injection, it would run 4,436 times here."""
    calls = 0
    advance = Scrubber.advance

    def counted(self, bound):
        nonlocal calls
        calls += 1
        advance(self, bound)

    monkeypatch.setattr(Scrubber, "advance", counted)
    report, _log = run_fpga("CMS", CampaignConfig(period_us=1_000), seed=0)
    assert report.scrub_detections > 0
    assert calls < 1_000


@pytest.mark.parametrize("target", ["cms_ctrl", "wd_link"])
def test_injections_into_what_an_asleep_scrubber_reads_wake_it(target):
    """An asleep tick stamps a heartbeat iff cms_ctrl and wd_link are
    healthy, so an injection into either wakes the scrubber before it
    lands.  With 1 ms repairs, a 100 us scan and a 2 ms watchdog, ticks
    accounted after such an injection instead would move the resets."""
    arch = make_architecture("CMS+DPR+TMR+WD", scan_period_us=100,
                             frame_repair_latency_us=1_000,
                             wd_timeout_us=2_000)
    campaign = CampaignConfig(duration_us=100_000, period_us=100,
                              window_us=1_000, target_mode="components",
                              target_components=[target, "fir_0"])
    report, log = run_fpga(arch, campaign, seed=0)
    assert (report, log) == live_window_run(arch, campaign, seed=0)
    assert report.resets > 0


@pytest.mark.parametrize("arch", ["CMS+DPR+TMR+WD", "No-FT"])
def test_run_fpga_runs_the_engine_only_when_something_is_due(monkeypatch,
                                                             arch):
    """The loop holds only the injections: it runs the engine before an
    injection only when an event or an awake watcher is due before it or
    the injection wakes the scrubber, and once to the end; the windows
    are classified in one call."""
    calls = {"run_until": 0, "evaluate_window": 0}

    def counted(cls, name):
        original = getattr(cls, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(cls, name, wrapper)

    counted(SimEngine, "run_until")
    counted(FpgaNode, "evaluate_window")
    campaign = CampaignConfig(duration_us=200_000, period_us=3_000,
                              window_us=1_000)
    report, _log = run_fpga(arch, campaign, seed=0)
    if arch == "No-FT":
        # schedules nothing and has no watcher: only the run to the end
        assert calls["run_until"] == 1
    else:
        assert 1 < calls["run_until"] < campaign.n_events()
    assert calls["evaluate_window"] == 1
    assert len(report.window_classes) == 200


def recorded_writes(monkeypatch, arch):
    """Run `arch` on the default campaign, seed 0.  Returns the number of
    essential lines in its mutation log, of all its lines, the number of
    `flip_bits` calls, and in order "inject" per `inject_config_bit`
    call, "run" per engine run and the frame of each `flip_bits` made
    outside injections and engine runs."""
    flips = 0
    trace, busy = [], []  # busy while an injection or the engine runs
    flip_bits, run_until = ConfigMemory.flip_bits, SimEngine.run_until

    def inject(mem, address):
        trace.append("inject")
        busy.append("inject")
        inject_config_bit(mem, address)
        busy.pop()

    def write(mem, frame, mask):
        nonlocal flips
        flips += 1
        if not busy:
            trace.append(frame)
        flip_bits(mem, frame, mask)

    def run(engine, *args, **kwargs):
        trace.append("run")
        busy.append("run")
        run_until(engine, *args, **kwargs)
        busy.pop()

    with monkeypatch.context() as patched:
        patched.setattr(harness, "inject_config_bit", inject)
        patched.setattr(ConfigMemory, "flip_bits", write)
        patched.setattr(SimEngine, "run_until", run)
        _report, log = run_fpga(arch, CampaignConfig(), seed=0)
    lines = log.decode().splitlines()
    essential = sum(not line.endswith(" non_essential") for line in lines)
    return essential, len(lines), flips, trace


def test_run_fpga_without_cms_flips_no_non_essential_bit(monkeypatch):
    """Without CMS nothing reads a non-essential bit: No-FT's only
    `flip_bits` calls are its essential injections', one
    `inject_config_bit` each."""
    essential, n_lines, flips, trace = recorded_writes(monkeypatch, "No-FT")
    assert 0 < trace.count("inject") == flips == essential < n_lines


def test_run_fpga_flips_non_essential_bits_once_per_frame(monkeypatch):
    """`inject_config_bit` runs once per essential injection.  With CMS
    the non-essential flips are buffered: the writes made outside
    injections and engine work come in blocks just before an engine run,
    one per frame at most, and are fewer than the non-essential
    injections."""
    essential, n_lines, _flips, trace = recorded_writes(monkeypatch, "CMS")
    assert 0 < trace.count("inject") == essential < n_lines
    writes = [entry for entry in trace if isinstance(entry, int)]
    assert 0 < len(writes) < n_lines - essential
    block = []
    for entry in trace:
        if isinstance(entry, int):
            block.append(entry)
            continue
        assert block == [] or entry == "run"
        assert len(set(block)) == len(block)
        block = []
    assert block == []


def relabel_non_essential(cfg, mem, rng):
    """`build_fpga_campaign`, with every non-essential injection moved to
    another non-essential address: one fixed cycle through all of them,
    so no address keeps its place."""
    frames, bits, essential = build_fpga_campaign(cfg, mem, rng)
    free = np.flatnonzero(np.unpackbits(mem.layout.essential_flags,
                                        bitorder="little") == 0)
    cycle = np.random.default_rng(0).permutation(free.size)
    image = np.empty_like(free)
    image[cycle] = free[np.roll(cycle, -1)]
    address = frames * FRAME_BITS + bits
    address[~essential] = image[np.searchsorted(free, address[~essential])]
    frames, bits = np.divmod(address, FRAME_BITS)
    return frames, bits, essential


def relabelled_run(monkeypatch, arch, campaign, seed):
    with monkeypatch.context() as patched:
        patched.setattr(harness, "build_fpga_campaign", relabel_non_essential)
        return run_fpga(arch, campaign, seed)


@pytest.mark.parametrize("campaign", [CampaignConfig(),
                                      CampaignConfig(period_us=1_000)],
                         ids=["default", "period_us=1000"])
@pytest.mark.parametrize("arch", [a for a in ARCHITECTURES
                                  if not make_architecture(a).cms])
def test_relabelling_non_essential_injections_moves_only_the_digest(
        monkeypatch, arch, campaign):
    """Without CMS nothing reads a non-essential bit, so moving every
    non-essential injection to another non-essential address changes
    the mutation log and nothing else of the report."""
    for seed in range(3):
        report, log = run_fpga(arch, campaign, seed)
        moved, moved_log = relabelled_run(monkeypatch, arch, campaign, seed)
        assert moved_log != log
        assert moved.mutation_digest != report.mutation_digest
        assert dataclasses.replace(
            moved, mutation_digest=report.mutation_digest) == report


@pytest.mark.parametrize("arch, campaign, seed", [
    ("CMS", CampaignConfig(), 0),
    ("CMS+DPR+TMR+WD", CampaignConfig(period_us=1_000), 1)],
    ids=["CMS-default-s0", "CMS+DPR+TMR+WD-period_us=1000-s1"])
def test_relabelling_non_essential_injections_moves_a_cms_run(
        monkeypatch, arch, campaign, seed):
    """The converse, so the relation above is not vacuous: the scrubber
    scans the dirty frames and repairs non-essential damage too, spending
    ICAP time on it.  Relabelled, correct% moves from 72.4 to 70.7 (CMS,
    default campaign) and from 67.2 to 64.8 (CMS+DPR+TMR+WD, period_us
    1000)."""
    report, _log = run_fpga(arch, campaign, seed)
    moved, _log = relabelled_run(monkeypatch, arch, campaign, seed)
    assert moved.correct_pct != report.correct_pct


def layout_state(layout: Layout) -> dict:
    """Every field of a layout, comparable with ==; the log texts, which
    are built on first use, as `log_texts` gives them."""
    state = {name: value.tolist() if isinstance(value, np.ndarray) else value
             for name, value in vars(layout).items() if name != "log_texts"}
    state["log_texts"] = [table.tolist() for table in layout.log_texts]
    return state


def test_cold_and_warm_layouts_give_identical_runs():
    """A run reads nothing that an earlier run left in the shared layouts.
    Every architecture runs on the default campaign and at period_us 1000
    over an empty cache, then again in reverse order over the warm one:
    reports and mutation logs are equal, and afterwards every cached
    layout equals one built fresh."""
    layout_of.cache_clear()
    cases = [(arch, campaign, seed) for arch in ARCHITECTURES
             for seed, campaign in enumerate(
                 (CampaignConfig(), CampaignConfig(period_us=1_000)))]

    def play(case):
        report, log = run_fpga(*case)
        return report.to_json(), log

    cold = [play(case) for case in cases]
    warm = [play(case) for case in reversed(cases)][::-1]
    assert cold == warm
    assert layout_of.cache_info().currsize == len(ARCHITECTURES)
    for arch in ARCHITECTURES:
        components = tuple(make_architecture(arch).components)
        cached = layout_of(components)
        assert not cached.essential_flags.flags.writeable
        assert layout_state(cached) == layout_state(Layout(components))


def test_each_decoded_word_encodes_its_parity_once(monkeypatch):
    """An enhanced repair encodes a word's parity where it decodes the
    word, at every call: the benchmark's two SECDED rows patch these
    names in `cotsim.fpga` and read equal, nonzero counts."""
    encoded, decoded = [], []

    def encode(word):
        encoded.append(word)
        return secded_encode(word)

    def decode(word, parity):
        decoded.append(word)
        return secded_decode(word, parity)

    monkeypatch.setattr("cotsim.fpga.secded_encode", encode)
    monkeypatch.setattr("cotsim.fpga.secded_decode", decode)
    run_fpga("CMS+DPR+TMR+WD", CampaignConfig(period_us=1_000), seed=0)
    assert len(encoded) == len(decoded) > 0


def closed_form_correct_pct(arch_name: str, campaign: CampaignConfig):
    """Expected correct% of an architecture without repair.  A component
    with e essential bits is healthy after k injections with probability
    (1 - e / total_bits)**k, ignoring bits flipped twice and taking the
    components as independent; the window verdict combines them by the
    datapath rule (see `cotsim.fpga`)."""
    arch = make_architecture(arch_name)
    total = sum(c.frames for c in arch.components) * FRAME_BITS
    windows = range(campaign.window_us, campaign.duration_us + 1,
                    campaign.window_us)
    correct = 0.0
    for t in windows:
        k = t // campaign.period_us  # an injection comes first at equal times
        h = {c.name: (1 - c.essential_bits / total) ** k
             for c in arch.components}
        if arch.tmr:
            fir_path = h["fir_0"] + h["fir_1"] * h["fir_2"] \
                - h["fir_0"] * h["fir_1"] * h["fir_2"]
            correct += h["voter_in"] * h["voter_out"] * fir_path
        else:
            correct += h["fir_0"]
    return 100.0 * correct / len(windows)


@pytest.mark.parametrize("arch", ["No-FT", "TMR"])
def test_no_repair_correct_pct_matches_the_closed_form(arch):
    campaign = CampaignConfig()
    pcts = [run_fpga(arch, campaign, seed)[0].correct_pct
            for seed in range(100)]
    se = statistics.stdev(pcts) / math.sqrt(len(pcts))
    predicted = closed_form_correct_pct(arch, campaign)
    assert abs(statistics.mean(pcts) - predicted) < 3 * se, \
        (statistics.mean(pcts), predicted, se)


@pytest.mark.parametrize("arch", ["CMS+DPR+TMR+WD", "No-FT"])
def test_run_fpga_frees_its_node_without_the_collector(monkeypatch, arch):
    """No reference cycle keeps a finished run's node graph alive."""
    nodes = []

    class Recorded(harness.FpgaNode):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            nodes.append(weakref.ref(self))

    monkeypatch.setattr(harness, "FpgaNode", Recorded)
    gc.collect()
    gc.disable()
    try:
        report, _log = run_fpga(arch, CampaignConfig(period_us=1_000), seed=0)
        assert len(nodes) == 1 and nodes[0]() is None
    finally:
        gc.enable()
    assert report.architecture == arch


def test_run_matrix_medians(tmp_path):
    result = run_matrix(["No-FT", "CMS"], [0, 1, 2], short_campaign())
    assert [r.architecture for r in result.rows] == ["No-FT", "CMS"]
    assert len(result.reports) == 6
    files = emit_matrix(result, str(tmp_path))
    assert (tmp_path / "matrix.csv").exists()
    assert (tmp_path / "run_CMS_s1.json").exists()
    assert len(files) == 8  # matrix + reliability + 6 run reports


def test_vpu_trial_rejects_unknown_technique():
    with pytest.raises(ValueError):
        run_vpu_trial("conv2d", "tmr", 3, seed=0)


def test_vpu_trial_reports_are_reproducible():
    a = run_vpu_trial("binning2d", "dmr", 6, seed=5, size=64)
    b = run_vpu_trial("binning2d", "dmr", 6, seed=5, size=64)
    assert a == b
    assert a.error_rate == 0.0
    assert a.impaired == b.impaired and len(a.impaired) == 6


KERNELS = ["conv2d", "binning2d"]
FTS = ["none", "imr", "dmr", "nmr"]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(KERNELS), st.sampled_from(FTS),
                          st.integers(0, 12), st.integers(0, 2)),
                min_size=1, max_size=6))
def test_vpu_trial_order_does_not_matter(calls):
    """A trial's report and the output it scores (the digests of
    tests/test_vpu_lock.py) do not depend on the trials run before it:
    each call of a sequence equals the same call made after the others."""
    seen = [trial_digests(*call) for call in calls]
    for call, digests in zip(calls, seen):
        assert trial_digests(*call) == digests


def test_vpu_table_equals_kernel_major_trials(monkeypatch):
    """The table gives the rows that standalone per-trial calls in
    kernel-major order give.  It runs seed by seed, so it computes each
    seed's goldens once."""
    seeds = [0, 1, 2]
    want = []
    for kernel in KERNELS:
        for ft in FTS:
            for count in (3, 6, 9, 12):
                rates = []
                for seed in seeds:
                    rates.append(
                        run_vpu_trial(kernel, ft, count, seed).error_rate)
                want.append(VpuTableRow(kernel, ft, count,
                                        min(rates), max(rates)))
    calls = counting_golden(monkeypatch)
    assert run_vpu_table(KERNELS, FTS, [3, 6, 9, 12], seeds) == want
    assert calls == KERNELS * len(seeds)


def test_shared_vpu_inputs_are_read_only():
    """A write to a seed's shared image, golden or verified tile raises
    instead of changing the input of the next trial at that seed."""
    image, _state, goldens, partitions = harness.seed_input(0, KERNELS, 64)
    assert list(goldens) == list(partitions) == KERNELS
    for kernel in KERNELS:
        assert len(partitions[kernel]) == vpu.N_WORKERS
        for array in (image, goldens[kernel],
                      *(tile.data for tile in partitions[kernel])):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1
            with pytest.raises(ValueError, match="read-only"):
                array += 1


def test_a_table_seed_seals_each_kernels_tiles_once(monkeypatch):
    """`seed_input` seals each kernel's 12 verified tiles once, 24 tile
    CRCs for the seed's 32 trials.  After that a trial computes a tile CRC
    only for a damaged DMR tile, one each (its restored copy holds the
    sealed bytes), and no seal again."""
    image = harness.seed_input(0, [])[0]
    seals = [tile.payload() for kernel in KERNELS
             for tile in vpu.partition_workload(image, vpu.N_WORKERS,
                                                *vpu.KERNELS[kernel])]
    payloads = []
    real = vpu.crc16_ccitt

    def counted(data):
        payloads.append(bytes(data))
        return real(data)

    monkeypatch.setattr(vpu, "crc16_ccitt", counted)
    counts = [3, 6, 9, 12]
    run_vpu_table(KERNELS, FTS, counts, [0])
    tiles = [p for p in payloads if len(p) != vpu.INSTR_BYTES]
    assert tiles[:len(seals)] == seals
    damaged = tiles[len(seals):]
    assert len(damaged) == len(KERNELS) * sum(counts)
    assert not set(damaged) & set(seals)


def test_a_crc16_collision_lets_a_damaged_dmr_tile_through(monkeypatch):
    """Criterion 4's limit: DMR finds a damaged tile by its CRC-16, so a
    damage whose CRC equals the tile's seal passes the check, and its
    worker computes on the wrong data.  At seed 3,266 this happens to
    tile 11 of conv2d DMR with 3 impaired cores.  A check that compared
    the tile's bytes with its verified tile would catch it, and the
    trial would score 0."""
    passed = []
    real = vpu.Tile.crc_ok

    def crc_ok(tile):
        ok = real(tile)
        if ok and not np.array_equal(tile.data, tile.verified.data):
            passed.append(tile.worker)
        return ok

    monkeypatch.setattr(vpu.Tile, "crc_ok", crc_ok)
    report = run_vpu_trial("conv2d", "dmr", 3, 3266)
    assert report.impaired == [0, 1, 11] and passed == [11]
    assert report.error_rate == 0.063018798828125
    passed.clear()
    [row] = run_vpu_table(["conv2d"], ["dmr"], [3], [3266])
    assert row.max_error == report.error_rate and passed == [11]


def counting_golden(monkeypatch) -> list[str]:
    """Patch `cotsim.harness.golden_output`, where the benchmark's tracer
    wraps it, to record the kernel of each call."""
    calls = []
    real = harness.golden_output

    def golden_output(image, kernel):
        calls.append(kernel)
        return real(image, kernel)

    monkeypatch.setattr(harness, "golden_output", golden_output)
    return calls


def play_vpu_rounds(seeds) -> None:
    """One `run_vpu_table` call per seed, as the benchmark's rounds make."""
    for seed in seeds:
        run_vpu_table(KERNELS, ["none", "imr"], [3, 6], [seed])


def test_a_seed_played_again_runs_golden_output_again(monkeypatch):
    """`bench/run.py --trace 1` plays seeds untraced, then the same seeds
    traced, in one process; the traced rounds must compute their goldens
    again, or the benchmark's `vpu.golden` layer rows would read 0.
    Within a seed, each kernel's golden is computed once for all its
    cells."""
    calls = counting_golden(monkeypatch)
    play_vpu_rounds([0, 1])
    assert calls == KERNELS * 2
    calls.clear()
    play_vpu_rounds([0, 1])
    assert len(calls) >= 1


def test_a_patched_golden_output_gets_goldens_of_its_own(monkeypatch):
    """The benchmark's fixture plays round 0 untraced, then round 0 again
    with the tracer's wrapper installed: the wrapper must run, because
    the table looks `golden_output` up in `cotsim.harness`."""
    play_vpu_rounds([0])
    calls = counting_golden(monkeypatch)
    play_vpu_rounds([0])
    assert calls == KERNELS
