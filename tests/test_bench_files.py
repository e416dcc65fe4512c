"""The committed `BENCH_*.json` files whose workloads carry their own
`pairs` state, per metric, each side's runs and the figures derived from
them.  These tests derive the figures again from the runs, so a file whose
summary disagrees with its own data fails Tier-1."""

import glob
import json
import os
import statistics

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROUNDING = 5e-5  # every figure is rounded to 4 decimals


def paired_workloads():
    for path in sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json"))):
        with open(path) as fh:
            workloads = json.load(fh)["workloads"]
        for name, workload in workloads.items():
            if "pairs" in workload:
                yield pytest.param(workload, id=f"{os.path.basename(path)}:"
                                                f"{name}")


def metrics(workload):
    return {name: m for name, m in workload.items()
            if isinstance(m, dict) and "parent" in m}


def test_some_committed_file_carries_pairs():
    assert len(list(paired_workloads())) >= 3


@pytest.mark.parametrize("workload", paired_workloads())
def test_workload_is_correct_and_has_every_pair(workload):
    assert workload["correct"] is True
    assert metrics(workload)
    for m in metrics(workload).values():
        assert len(m["parent"]["runs"]) == len(m["change"]["runs"]) \
            == workload["pairs"]


@pytest.mark.parametrize("workload", paired_workloads())
def test_each_median_is_the_median_of_its_runs(workload):
    # the runs and the median are each rounded once
    for m in metrics(workload).values():
        for side in (m["parent"], m["change"]):
            assert statistics.median(side["runs"]) == pytest.approx(
                side["median"], rel=0, abs=2 * ROUNDING + 1e-9)


@pytest.mark.parametrize("workload", paired_workloads())
def test_change_vs_parent_is_the_ratio_of_the_medians(workload):
    """The stated ratio lies within rounding of change / parent - 1 for
    some medians within rounding of the stated ones."""
    for m in metrics(workload).values():
        parent, change = m["parent"]["median"], m["change"]["median"]
        ratios = [(change + dc) / (parent + dp) - 1
                  for dc in (-ROUNDING, ROUNDING)
                  for dp in (-ROUNDING, ROUNDING)]
        assert min(ratios) - ROUNDING <= m["change_vs_parent"] \
            <= max(ratios) + ROUNDING


@pytest.mark.parametrize("workload", paired_workloads())
def test_pairs_change_better_counts_the_runs(workload):
    """Pair i is parent run i against change run i, and a tie is not
    better."""
    for m in metrics(workload).values():
        sign = 1 if m["better"] == "higher" else -1
        better = sum(sign * (c - p) > 0 for p, c in
                     zip(m["parent"]["runs"], m["change"]["runs"]))
        assert better == m["pairs_change_better"]
