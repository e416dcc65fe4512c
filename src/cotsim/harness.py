"""Campaign orchestration: runs architectures under injection campaigns,
classifies each measurement window as down, erroneous or correct, reads
a run's percentages and failure rate straight from those window classes,
aggregates error rates and timing overheads, and emits reports."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import statistics
from dataclasses import dataclass, field

import numpy as np

from cotsim.config import ArchConfig, CampaignConfig, make_architecture
from cotsim.engine import SimEngine
from cotsim.fpga import FpgaNode
from cotsim.injector import (build_fpga_campaign, derive_stream_seed,
                             inject_config_bit, mutation_log)
from cotsim import vpu as vpu_mod
from cotsim.vpu import (VpuNode, error_rate, golden_output,
                        CRC_CHECK_US)

CLASSES = ("down", "erroneous", "correct")


# ---------------------------------------------------------------------------
# failure rate and reliability


def fit_lambda(spans) -> float | None:
    """MLE failure rate, in failures per second of correct operation:
    correct->failed transitions over the correct time of consecutive
    (duration_us, class) spans; None when no time was correct."""
    correct_us = 0
    failures = 0
    prev = None
    for duration_us, cls in spans:
        if cls == "correct":
            correct_us += duration_us
        elif prev == "correct":
            failures += 1
        prev = cls
    return failures / (correct_us / 1e6) if correct_us else None


def reliability_curve(lam_per_s: float,
                      horizon_s: float) -> tuple[list[float], list[float]]:
    """R(t) = exp(-lambda t) at 101 evenly spaced t in [0, horizon]."""
    times = [horizon_s * i / 100 for i in range(101)]
    return times, [math.exp(-lam_per_s * t) for t in times]


# ---------------------------------------------------------------------------
# FPGA campaign run


@dataclass
class RunReport:
    architecture: str
    seed: int
    duration_us: int
    window_us: int
    down_pct: float
    erroneous_pct: float
    correct_pct: float
    lam_per_s: float | None
    resets: int
    scrub_detections: int
    scrub_repairs: int
    scrub_uncorrectable: int
    dpr_reloads: int
    icap_grants: int
    mutation_digest: str
    window_classes: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        """`json.dumps(vars(self), sort_keys=True, indent=2)` and a newline.
        An indented dump runs json's pure-Python encoder, so the long
        `window_classes` list, whose class names need no escaping, is
        rendered here and spliced into the dump of the other fields."""
        classes = self.window_classes
        listed = ('[\n    "' + '",\n    "'.join(classes) + '"\n  ]'
                  if classes else "[]")
        text = json.dumps({**vars(self), "window_classes": None},
                          sort_keys=True, indent=2)
        return text.replace('"window_classes": null',
                            '"window_classes": ' + listed, 1) + "\n"


def run_fpga(arch: str | ArchConfig, campaign: CampaignConfig,
             seed: int) -> tuple[RunReport, bytes]:
    """One architecture under one campaign; deterministic given (config, seed).

    One loop applies the injections that the node can observe, in time
    order, as the engine's inputs (`cotsim.engine` states the protocol).
    An essential flip lands at its time, even while the node is in
    reset.  One in a `Layout.wakers` frame changes what an asleep
    scrubber tick reads, so the engine runs, with wake=True, before it;
    before any other injection it runs only when `SimEngine.due` reports
    work.  A non-essential flip changes only its frame, and only the
    scrubber reads that: a restore XORs in the frame's error pattern,
    whose essential part is the same with or without it.  So without
    CMS a non-essential injection is logged but not applied; with CMS it
    is XORed into a per-frame mask that one `flip_bits` writes just
    before the next engine run.  After an engine run or an essential
    flip the loop logs the node's health (`log_change`, which can arm
    the window watcher) and reads `due` again; no other injection moves
    either.  The node classifies the windows from its health log after
    the run (`FpgaNode.evaluate_window`).  The loop reads the campaign's
    arrays as ints.  The mutation log follows from the campaign
    (`mutation_log`): its bytes are what the report's digest hashes and
    what `cotsim run` writes."""
    if isinstance(arch, str):
        arch = make_architecture(arch)
    engine = SimEngine()
    node = FpgaNode(engine, arch, campaign.window_us)
    try:
        node.start()
        mem, wakers = node.mem, node.mem.layout.wakers

        rng = np.random.default_rng(derive_stream_seed(seed, "fpga-inj"))
        frames, bits, essential = build_fpga_campaign(campaign, mem, rng)
        log = mutation_log(campaign, mem, frames, bits, essential)
        end, period = campaign.duration_us, campaign.period_us
        kept = np.flatnonzero(essential | arch.cms)  # what the node reads
        pending: dict[int, int] = {}  # frame -> non-essential flips

        def run_engine(t, **kwargs):
            for frame, mask in pending.items():
                mem.flip_bits(frame, mask)
            pending.clear()
            engine.run_until(t, **kwargs)

        due = engine.due()
        for t, frame, bit, hit in zip(((kept + 1) * period).tolist(),
                                      frames[kept].tolist(),
                                      bits[kept].tolist(),
                                      essential[kept].tolist()):
            wake = hit and frame in wakers
            ran = wake or due < (t, 1)
            if ran:
                run_engine(t, scheduled_before=1, wake=wake)
            if hit:
                engine.now = t
                inject_config_bit(mem, (frame, bit))
            else:
                pending[frame] = pending.get(frame, 0) ^ 1 << bit
            if ran or hit:
                node.log_change()  # may arm the window watcher
                due = engine.due()
        run_engine(end)
    finally:
        node.close()
    classes = node.evaluate_window(seed, end)

    pct = {c: 100.0 * classes.count(c) / len(classes) for c in CLASSES}
    scrub = node.scrubber
    report = RunReport(
        architecture=arch.name,
        seed=seed,
        duration_us=campaign.duration_us,
        window_us=campaign.window_us,
        down_pct=pct["down"],
        erroneous_pct=pct["erroneous"],
        correct_pct=pct["correct"],
        lam_per_s=fit_lambda((campaign.window_us, c) for c in classes),
        resets=node.epoch,
        scrub_detections=scrub.detections if scrub else 0,
        scrub_repairs=scrub.repairs if scrub else 0,
        scrub_uncorrectable=scrub.uncorrectable if scrub else 0,
        dpr_reloads=node.dpr.reloads if node.dpr else 0,
        icap_grants=node.icap.grants,
        mutation_digest=hashlib.sha256(log).hexdigest(),
        window_classes=classes,
    )
    return report, log


# ---------------------------------------------------------------------------
# run matrix


@dataclass
class MatrixRow:
    architecture: str
    down_pct: float
    erroneous_pct: float
    correct_pct: float
    lam_per_s: float | None


@dataclass
class MatrixResult:
    rows: list[MatrixRow]
    reports: list[RunReport]


def run_matrix(archs: list[str], seeds: list[int],
               campaign: CampaignConfig) -> MatrixResult:
    """One report per (architecture, seed) plus per-architecture medians."""
    reports = []
    rows = []
    for arch in archs:
        arch_reports = []
        for seed in seeds:
            rep, _log = run_fpga(arch, campaign, seed)
            arch_reports.append(rep)
            reports.append(rep)
        lams = [r.lam_per_s for r in arch_reports if r.lam_per_s is not None]
        rows.append(MatrixRow(
            architecture=arch,
            down_pct=statistics.median(r.down_pct for r in arch_reports),
            erroneous_pct=statistics.median(
                r.erroneous_pct for r in arch_reports),
            correct_pct=statistics.median(
                r.correct_pct for r in arch_reports),
            lam_per_s=statistics.median(lams) if lams else None,
        ))
    return MatrixResult(rows=rows, reports=reports)


# ---------------------------------------------------------------------------
# VPU trials


@dataclass
class VpuTrialReport:
    kernel: str
    ft: str  # none | imr | dmr | nmr
    impaired: list[int]
    error_rate: float
    latency_us: float
    crc_check_us: int
    reschedule_us: int
    flagged_pixels: int = 0


def seed_input(seed: int, kernels: list[str], size: int = 256) -> tuple:
    """What every trial at `seed` shares: the image drawn first from
    `np.random.default_rng(seed)`, the bit generator's state after that
    draw, and kernel -> golden output and kernel -> sealed verified
    partition (`vpu.sealed_partition`) dicts for `kernels`.  The arrays
    are read-only; the node's working copies are its own."""
    rng = np.random.default_rng(seed)
    image = rng.integers(0, 1024, size=(size, size)).astype(np.uint16)
    image.flags.writeable = False
    goldens, partitions = {}, {}
    for kernel in kernels:
        golden = goldens[kernel] = golden_output(image, kernel)
        golden.flags.writeable = False
        partitions[kernel] = vpu_mod.sealed_partition(image, kernel)
    return image, rng.bit_generator.state, goldens, partitions


def _impair_data(tiles, worker: int, rng: np.random.Generator) -> None:
    """Corrupt a random contiguous span covering at least half the tile."""
    flat = tiles[worker].data.reshape(-1)
    span = int(rng.integers(flat.size // 2, flat.size + 1))
    start = int(rng.integers(0, flat.size - span + 1))
    mask = rng.integers(1, 1 << 16, size=span).astype(np.uint16)
    flat[start:start + span] ^= mask


def run_vpu_trial(kernel: str, ft: str, n_impaired: int, seed: int,
                  size: int = 256, shared: tuple | None = None
                  ) -> VpuTrialReport:
    """One VPU benchmark execution with n_impaired randomly chosen cores.

    Each impaired core gets one fault, drawn in core order: DMR a data
    fault in the core's DMA tile, IMR and NMR a code fault (one corrupted
    instruction byte), and no technique ("none") one or the other by a
    coin flip.

    Every trial at one seed scores the same image, drawn first from
    `np.random.default_rng(seed)`, and its later draws continue that
    stream.  `shared` is `seed_input(seed, ...)`'s result, which
    `run_vpu_table` builds once for all the trials at one seed; without
    it the trial builds its own, of `size`."""
    if ft not in ("none", "imr", "dmr", "nmr"):
        raise ValueError(f"unknown FT technique {ft!r}")
    image, state, goldens, partitions = (shared
                                         or seed_input(seed, [kernel], size))
    golden = goldens[kernel]
    rng = np.random.default_rng(seed)
    rng.bit_generator.state = state
    node = VpuNode(image, kernel, golden, partitions[kernel])
    impaired = sorted(int(w) for w in rng.choice(
        np.arange(vpu_mod.N_WORKERS), size=n_impaired, replace=False))

    tiles = None if ft == "nmr" else node.dma_tiles()  # NMR cuts its own
    for w in impaired:
        if ft == "dmr" or (ft == "none" and not int(rng.integers(0, 2))):
            _impair_data(tiles, w, rng)
        else:
            node.corrupt_instr(w, [(int(rng.integers(0, 4096)),
                                    int(rng.integers(1, 256)))])
    if ft == "none":
        out, latency = node.run_plain(tiles)
    elif ft == "nmr":
        out, rep = node.nmr_run(3)
    else:
        out, rep = (node.imr_run if ft == "imr" else node.dmr_run)(tiles)
    return VpuTrialReport(
        kernel=kernel, ft=ft, impaired=impaired,
        error_rate=error_rate(out, golden),
        latency_us=latency if ft == "none" else rep.latency_us,
        crc_check_us=CRC_CHECK_US if ft in ("imr", "dmr") else 0,
        reschedule_us=rep.reschedule_us if ft in ("imr", "dmr") else 0,
        flagged_pixels=rep.flagged_pixels if ft == "nmr" else 0,
    )


@dataclass
class VpuTableRow:
    kernel: str
    ft: str
    n_impaired: int
    min_error: float
    max_error: float


def run_vpu_table(kernels: list[str], fts: list[str],
                  impaired_counts: list[int],
                  seeds: list[int]) -> list[VpuTableRow]:
    """Error-rate min/max per (kernel, technique, impaired-core count),
    in that order.  The trials run seed by seed, and each seed's image,
    goldens and partitions are built once for all its cells
    (`seed_input`)."""
    cells = [(kernel, ft, count) for kernel in kernels for ft in fts
             for count in impaired_counts]
    rates = [[] for _ in cells]
    for s in seeds:
        shared = seed_input(s, kernels)
        for cell, cell_rates in zip(cells, rates):
            cell_rates.append(
                run_vpu_trial(*cell, s, shared=shared).error_rate)
    return [VpuTableRow(*cell, min(cell_rates), max(cell_rates))
            for cell, cell_rates in zip(cells, rates)]


# ---------------------------------------------------------------------------
# report emission


def emit_matrix(result: MatrixResult, out_dir: str) -> list[str]:
    """Write per-run JSON, the aggregate CSV table, and reliability curves."""
    os.makedirs(out_dir, exist_ok=True)
    written = []

    path = os.path.join(out_dir, "matrix.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["architecture", "down_pct", "erroneous_pct",
                         "correct_pct", "lambda_per_s"])
        for row in result.rows:
            writer.writerow([
                row.architecture,
                f"{row.down_pct:.3f}", f"{row.erroneous_pct:.3f}",
                f"{row.correct_pct:.3f}",
                "" if row.lam_per_s is None else f"{row.lam_per_s:.6f}"])
    written.append(path)

    path = os.path.join(out_dir, "reliability.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["architecture", "t_s", "r"])
        for row in result.rows:
            if row.lam_per_s is None:
                continue
            horizon = result.reports[0].duration_us / 1e6
            for t, r in zip(*reliability_curve(row.lam_per_s, horizon)):
                writer.writerow([row.architecture, f"{t:.4f}", f"{r:.9f}"])
    written.append(path)

    for rep in result.reports:
        path = os.path.join(
            out_dir, f"run_{rep.architecture.replace('+', '_')}"
                     f"_s{rep.seed}.json")
        with open(path, "w") as fh:
            fh.write(rep.to_json())
        written.append(path)
    return written


def emit_vpu_table(rows: list[VpuTableRow], out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "vpu_error_rates.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kernel", "ft", "impaired", "min_error_pct",
                         "max_error_pct"])
        for row in rows:
            writer.writerow([row.kernel, row.ft, row.n_impaired,
                             f"{100 * row.min_error:.2f}",
                             f"{100 * row.max_error:.2f}"])
    return path
