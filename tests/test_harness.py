"""Campaign harness tests: timeline classification, failure-rate fitting,
run reports and determinism."""

import gc
import json
import math
import weakref

import numpy as np
import pytest

from cotsim import harness
from cotsim.config import CampaignConfig, make_architecture
from cotsim.harness import (FitError, FunctionalityTimeline, MatrixResult,
                            emit_matrix, fit_lambda, reliability, run_fpga,
                            run_matrix, run_vpu_trial)


def test_timeline_merges_adjacent_windows():
    tl = FunctionalityTimeline.from_windows(
        ["correct", "correct", "down", "down", "erroneous", "correct"], 10)
    assert tl.intervals == [(0, 20, "correct"), (20, 40, "down"),
                            (40, 50, "erroneous"), (50, 60, "correct")]
    totals = tl.totals()
    assert totals["correct"] == 50.0
    assert totals["down"] == pytest.approx(100 * 20 / 60)
    assert tl.duration_us() == 60


def test_fit_lambda_counts_correct_to_failed_transitions():
    tl = FunctionalityTimeline(intervals=[
        (0, 1_000_000, "correct"), (1_000_000, 1_500_000, "down"),
        (1_500_000, 2_500_000, "correct"), (2_500_000, 2_600_000, "erroneous"),
        (2_600_000, 3_000_000, "correct"),
    ])
    model = fit_lambda(tl)
    # 2 failures over 2.4 s of correct operation
    assert model.lam_per_s == pytest.approx(2 / 2.4)
    assert model.curve_r[0] == 1.0
    for t, r in zip(model.curve_times_s, model.curve_r):
        assert r == pytest.approx(math.exp(-model.lam_per_s * t), abs=1e-15)


def test_fit_lambda_requires_correct_time():
    tl = FunctionalityTimeline(intervals=[(0, 100, "down")])
    with pytest.raises(FitError):
        fit_lambda(tl)


def test_fit_lambda_recovers_known_rate():
    lam_true = 2.0
    rng = np.random.default_rng(17)
    durations = rng.exponential(1 / lam_true, size=10_000)
    intervals = []
    t = 0
    for d in durations:
        us = max(1, int(d * 1e6))
        intervals.append((t, t + us, "correct"))
        intervals.append((t + us, t + us + 1000, "down"))
        t += us + 1000
    model = fit_lambda(FunctionalityTimeline(intervals=intervals))
    assert abs(model.lam_per_s - lam_true) / lam_true < 0.1


def test_reliability_closed_form():
    assert reliability(0.5, 0.0) == 1.0
    assert reliability(0.5, 2.0) == pytest.approx(math.exp(-1.0), abs=1e-15)


def short_campaign():
    return CampaignConfig(duration_us=200_000, period_us=4_000)


def test_run_fpga_report_fields():
    report, log = run_fpga("CMS", short_campaign(), seed=1)
    assert report.architecture == "CMS"
    assert len(report.window_classes) == 50
    assert report.down_pct + report.erroneous_pct + report.correct_pct \
        == pytest.approx(100.0)
    # injection i fires at (i + 1) * period_us
    assert [int(line.split()[0]) for line in log] == \
        [4_000 * (i + 1) for i in range(50)]
    payload = json.loads(report.to_json())
    assert payload["seed"] == 1


def test_run_fpga_repeat_is_byte_identical():
    rep1, log1 = run_fpga("CMS+DPR+TMR", short_campaign(), seed=3)
    rep2, log2 = run_fpga("CMS+DPR+TMR", short_campaign(), seed=3)
    assert rep1.to_json() == rep2.to_json()
    assert log1.text() == log2.text()
    rep3, _ = run_fpga("CMS+DPR+TMR", short_campaign(), seed=4)
    assert rep3.to_json() != rep1.to_json()


def test_run_fpga_accepts_prebuilt_config():
    arch = make_architecture("TMR", window_samples=16)
    report, _log = run_fpga(arch, short_campaign(), seed=0)
    assert report.architecture == "TMR"


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
