"""The benchmark's workloads: what one round runs, how its outputs are
checked, and the pinned digests of those outputs.

A round is one seed of a workload, run through the same public harness
calls that `cotsim matrix` makes, and emitted into a scratch directory.
Round `s` of `fpga-matrix` writes exactly the files that
`cotsim matrix --seeds s:s+1` writes; round `s` of `vpu-table` writes the
`vpu_error_rates.csv` that `cotsim matrix --vpu --seeds s:s+1` adds.
"""

from __future__ import annotations

import hashlib
import json
import os

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

VPU_KERNELS = ("conv2d", "binning2d")
VPU_FTS = ("none", "imr", "dmr", "nmr")
VPU_IMPAIRED = (3, 6, 9, 12)


def digest_files(paths: list[str]) -> str:
    """sha256 over (file name, content) of every emitted file, by name."""
    h = hashlib.sha256()
    for path in sorted(paths, key=os.path.basename):
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


class FpgaWorkload:
    """All 8 architectures for one seed through `run_matrix`, then
    `emit_matrix`. One item is one (architecture, seed) `run_fpga` call."""

    item_fn = "run_fpga"

    def __init__(self, name: str, period_us: int | None = None):
        self.name = name
        self.period_us = period_us  # None: the default campaign's

    def prepare(self, harness) -> None:
        from cotsim.config import ARCHITECTURES, CampaignConfig
        self.harness = harness
        self.archs = list(ARCHITECTURES)
        self.campaign = (CampaignConfig() if self.period_us is None
                         else CampaignConfig(period_us=self.period_us))
        self.items_per_round = len(self.archs)

    @staticmethod
    def item_label(arch, _campaign, seed, *_rest) -> str:
        return f"{arch} s{seed}"

    def run_round(self, seed: int, out_dir: str) -> tuple[list[bool], list[str]]:
        """Returns one ok flag per item, in item order, and the files written."""
        result = self.harness.run_matrix(self.archs, [seed], self.campaign)
        written = self.harness.emit_matrix(result, out_dir)
        n_windows = self.campaign.duration_us // self.campaign.window_us
        ok = [abs(r.down_pct + r.erroneous_pct + r.correct_pct - 100.0) < 1e-9
              and len(r.window_classes) == n_windows
              for r in result.reports]
        return ok, written

    @staticmethod
    def detections(item_result) -> int:
        report, _log = item_result
        return report.scrub_detections


class VpuWorkload:
    """{conv2d, binning2d} x {none, imr, dmr, nmr} x {3, 6, 9, 12} impaired
    cores for one seed through `run_vpu_table`, then `emit_vpu_table`.
    One item is one `run_vpu_trial` call."""

    item_fn = "run_vpu_trial"

    def __init__(self, name: str):
        self.name = name
        self.items_per_round = len(VPU_KERNELS) * len(VPU_FTS) * len(VPU_IMPAIRED)

    def prepare(self, harness) -> None:
        self.harness = harness

    @staticmethod
    def item_label(kernel, ft, n_impaired, seed, *_rest) -> str:
        return f"{kernel}/{ft}/{n_impaired} s{seed}"

    def run_round(self, seed: int, out_dir: str) -> tuple[list[bool], list[str]]:
        rows = self.harness.run_vpu_table(list(VPU_KERNELS), list(VPU_FTS),
                                          list(VPU_IMPAIRED), [seed])
        written = [self.harness.emit_vpu_table(rows, out_dir)]
        # criterion 4: IMR and DMR recover to zero error by construction
        ok = [row.ft not in ("imr", "dmr") or row.max_error == 0
              for row in rows]
        return ok, written

    @staticmethod
    def detections(_item_result) -> int:
        return 0


# why each workload was chosen: BENCHMARK.json and README.md
WORKLOADS = {w.name: w for w in (
    FpgaWorkload("fpga-matrix"),
    FpgaWorkload("fpga-flux", period_us=1_000),
    VpuWorkload("vpu-table"),
)}


def load_reference() -> dict[str, list[str]]:
    """Pinned per-round digests, indexed by round seed from 0."""
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def reference_mismatches(digests: dict[int, str], pinned: list[str]) -> list[int]:
    """Seeds whose round digest differs from the pinned one."""
    return [s for s, d in sorted(digests.items())
            if s < len(pinned) and pinned[s] != d]
