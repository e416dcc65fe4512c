"""Campaign orchestration: runs architectures under injection campaigns,
classifies the functionality timeline, fits the failure rate, aggregates
error rates and timing overheads, and emits reports."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import statistics
from dataclasses import dataclass, field, asdict

import numpy as np

from cotsim.config import (ARCHITECTURES, ArchConfig, CampaignConfig,
                           make_architecture)
from cotsim.engine import SimEngine, SeededRng
from cotsim.fpga import FpgaNode, InvariantViolation
from cotsim.injector import (MutationLog, build_fpga_campaign,
                             inject_config_bit)
from cotsim import vpu as vpu_mod
from cotsim.vpu import (VpuNode, error_rate, golden_output,
                        CRC_CHECK_US, RESCHEDULE_US)

CLASSES = ("down", "erroneous", "correct")


class FitError(ValueError):
    """Failure-rate fit is undefined (no correct operation observed)."""


# ---------------------------------------------------------------------------
# timeline and reliability


@dataclass
class FunctionalityTimeline:
    """Partition of [0, duration] into down/erroneous/correct intervals."""

    intervals: list[tuple[int, int, str]]

    def duration_us(self) -> int:
        return self.intervals[-1][1] if self.intervals else 0

    def totals(self) -> dict[str, float]:
        time_per = {c: 0 for c in CLASSES}
        for start, end, cls in self.intervals:
            time_per[cls] += end - start
        total = self.duration_us() or 1
        return {c: 100.0 * time_per[c] / total for c in CLASSES}

    @classmethod
    def from_windows(cls, classes: list[str],
                     window_us: int) -> "FunctionalityTimeline":
        intervals = []
        for i, c in enumerate(classes):
            if intervals and intervals[-1][2] == c:
                start, _end, _ = intervals[-1]
                intervals[-1] = (start, (i + 1) * window_us, c)
            else:
                intervals.append((i * window_us, (i + 1) * window_us, c))
        return cls(intervals)


@dataclass
class ReliabilityModel:
    lam_per_s: float  # failures per second of correct operation
    curve_times_s: list[float]
    curve_r: list[float]


def fit_lambda(timeline: FunctionalityTimeline,
               curve_points: int = 101) -> ReliabilityModel:
    """MLE failure rate: correct->failed transitions per correct second."""
    correct_us = 0
    failures = 0
    prev = None
    for _start, _end, cls in timeline.intervals:
        if cls == "correct":
            correct_us += _end - _start
        elif prev == "correct":
            failures += 1
        prev = cls
    if correct_us == 0:
        raise FitError("no correct operation observed; rate undefined")
    lam = failures / (correct_us / 1e6)
    horizon = timeline.duration_us() / 1e6 or 1.0
    return ReliabilityModel(lam, *reliability_curve(lam, horizon,
                                                    curve_points))


def reliability(lam_per_s: float, t_s: float) -> float:
    return math.exp(-lam_per_s * t_s)


def reliability_curve(lam_per_s: float, horizon_s: float,
                      points: int = 101) -> tuple[list[float], list[float]]:
    """R(t) = exp(-lambda t) at `points` evenly spaced t in [0, horizon]."""
    times = [horizon_s * i / (points - 1) for i in range(points)]
    return times, [reliability(lam_per_s, t) for t in times]


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
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"


def run_fpga(arch: str | ArchConfig, campaign: CampaignConfig,
             seed: int) -> tuple[RunReport, MutationLog]:
    """One architecture under one campaign; deterministic given (config, seed)."""
    if isinstance(arch, str):
        arch = make_architecture(arch)
    engine = SimEngine(seed)
    node = FpgaNode(engine, arch)
    node.start()
    log = MutationLog()
    golden_before = _golden_digest(node)

    rng = engine.fork_rng("fpga-inj")
    injections = build_fpga_campaign(campaign, node.mem, rng)

    def on_inject(ev):
        inj = ev.params[0]
        log.add(inject_config_bit(node.mem, inj.time_us, inj.address))

    engine.register("injector", on_inject)
    engine.schedule_many("injector", "inject",
                         [(inj.time_us, (inj,)) for inj in injections])

    classes: list[str] = []

    def on_window(_ev):
        classes.append(node.evaluate_window(seed))

    engine.register("window", on_window)
    n_windows = campaign.duration_us // campaign.window_us
    engine.schedule_many("window", "evaluate",
                         [((k + 1) * campaign.window_us, ())
                          for k in range(n_windows)])

    engine.run_until(campaign.duration_us)

    if _golden_digest(node) != golden_before:
        raise InvariantViolation("golden configuration store was mutated")

    timeline = FunctionalityTimeline.from_windows(classes, campaign.window_us)
    totals = timeline.totals()
    try:
        lam = fit_lambda(timeline).lam_per_s
    except FitError:
        lam = None
    scrub = node.scrubber.report if node.scrubber else None
    report = RunReport(
        architecture=arch.name,
        seed=seed,
        duration_us=campaign.duration_us,
        window_us=campaign.window_us,
        down_pct=totals["down"],
        erroneous_pct=totals["erroneous"],
        correct_pct=totals["correct"],
        lam_per_s=lam,
        resets=node.resets,
        scrub_detections=scrub.detections if scrub else 0,
        scrub_repairs=scrub.repairs if scrub else 0,
        scrub_uncorrectable=scrub.uncorrectable if scrub else 0,
        dpr_reloads=node.dpr.reloads if node.dpr else 0,
        icap_grants=node.icap.grants,
        mutation_digest=hashlib.sha256(log.text().encode()).hexdigest(),
        window_classes=classes,
    )
    return report, log


def _golden_digest(node: FpgaNode) -> str:
    h = hashlib.sha256()
    for frame in node.mem.golden:
        h.update(frame)
    return h.hexdigest()


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


def _random_image(rng: SeededRng, size: int) -> np.ndarray:
    return rng.integers(0, 1024, size=(size, size)).astype(np.uint16)


def _impair_data(node: VpuNode, tiles, worker: int, rng: SeededRng) -> None:
    """Corrupt a random contiguous span covering at least half the tile."""
    flat = tiles[worker].data.reshape(-1)
    span = int(rng.integers(flat.size // 2, flat.size + 1))
    start = int(rng.integers(0, flat.size - span + 1))
    mask = rng.integers(1, 1 << 16, size=span).astype(np.uint16)
    flat[start:start + span] ^= mask


def run_vpu_trial(kernel: str, ft: str, n_impaired: int, seed: int,
                  size: int = 256) -> VpuTrialReport:
    """One VPU benchmark execution with n_impaired randomly chosen cores."""
    rng = SeededRng(seed, f"vpu-{kernel}-{ft}-{n_impaired}")
    image = _random_image(rng, size)
    node = VpuNode(image, kernel)
    golden = golden_output(node.golden_input, kernel)
    impaired = sorted(int(w) for w in rng.choice(
        np.arange(vpu_mod.N_WORKERS), size=n_impaired, replace=False))

    flagged = 0
    reschedule_us = 0
    if ft == "dmr":
        tiles = node.dma_tiles()
        for w in impaired:
            _impair_data(node, tiles, w, rng)
        out, rep = node.dmr_run(tiles)
        latency = rep.latency_us
        reschedule_us = rep.reschedule_us
    elif ft == "imr":
        for w in impaired:
            node.corrupt_instr(w, [(int(rng.integers(0, 4096)),
                                    int(rng.integers(1, 256)))])
        out, rep = node.imr_run()
        latency = rep.latency_us
        reschedule_us = rep.reschedule_us
    elif ft == "nmr":
        for w in impaired:
            node.corrupt_instr(w, [(int(rng.integers(0, 4096)),
                                    int(rng.integers(1, 256)))])
        out, rep = node.nmr_run(3)
        latency = rep.latency_us
        flagged = rep.flagged_pixels
    elif ft == "none":
        tiles = node.dma_tiles()
        for w in impaired:
            if int(rng.integers(0, 2)):
                node.corrupt_instr(w, [(int(rng.integers(0, 4096)),
                                        int(rng.integers(1, 256)))])
            else:
                _impair_data(node, tiles, w, rng)
        out, latency = node.run_plain(tiles)
    else:
        raise ValueError(f"unknown FT technique {ft!r}")

    return VpuTrialReport(
        kernel=kernel, ft=ft, impaired=impaired,
        error_rate=error_rate(out, golden),
        latency_us=latency,
        crc_check_us=CRC_CHECK_US if ft in ("imr", "dmr") else 0,
        reschedule_us=reschedule_us,
        flagged_pixels=flagged,
    )


@dataclass
class VpuTableRow:
    kernel: str
    ft: str
    n_impaired: int
    min_error: float
    max_error: float


def run_vpu_table(kernels: list[str], fts: list[str],
                  impaired_counts: list[int], seeds: list[int],
                  size: int = 256) -> list[VpuTableRow]:
    """Error-rate min/max per (kernel, technique, impaired-core count)."""
    rows = []
    for kernel in kernels:
        for ft in fts:
            for count in impaired_counts:
                rates = [run_vpu_trial(kernel, ft, count, s, size).error_rate
                         for s in seeds]
                rows.append(VpuTableRow(kernel, ft, count,
                                        min(rates), max(rates)))
    return rows


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
