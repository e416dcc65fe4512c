"""Tests of the benchmark itself: exact layer counts, nonzero layers, the
output lock and the refusal to run without sources. They check only what
stays true when cotsim gets faster; how many calls a layer makes is not
pinned, since a speed-up may change it.

    python3 -m pytest bench
"""

import os
import shutil
import subprocess
import sys

import pytest

import run
from layers import LAYER_METRICS, layer_metrics
from workloads import WORKLOADS, digest_files, load_reference

# the workload on which each layer metric does most of its work
MAIN_WORKLOAD = {
    "engine.": "fpga-matrix",
    "fpga.handle.": "fpga-matrix",
    "fpga.scrub_step.": "fpga-matrix",
    "fpga.scrub.": "fpga-matrix",
    "fpga.": "fpga-flux",
    "ecc.": "fpga-flux",
    "injector.": "fpga-flux",
    "harness.": "fpga-flux",
    "trace.": "fpga-flux",
    "crc.": "vpu-table",
    "vpu.": "vpu-table",
}

EXACT_COUNTS = ("engine.events", "fpga.scrub_step.calls", "ecc.decode.calls",
                "crc.bytes", "vpu.partition.calls", "injector.inject.calls")


def main_workload(metric: str) -> str:
    return next(w for prefix, w in MAIN_WORKLOAD.items()
                if metric.startswith(prefix))


@pytest.fixture(scope="module")
def passes():
    """Per workload: one untraced and two traced passes of round 0."""
    os.makedirs(run.OUT_DIR, exist_ok=True)
    harness = run.import_harness()
    out = {}
    for name, workload in WORKLOADS.items():
        workload.prepare(harness)
        plain, ok, wall = run.play(workload, [0])
        assert all(ok)
        traced = [run.traced_pass(workload, [0]) for _ in range(2)]
        out[name] = (plain, wall, traced)
    return out


def test_traced_digests_equal_untraced_and_reference(passes):
    reference = load_reference()
    for name, (plain, _wall, traced) in passes.items():
        assert plain[0] == reference[name][0], name
        for _tracer, digests, ok, _wall in traced:
            assert all(ok) and digests == plain, name


def test_exact_counts_repeat(passes):
    for name, (_plain, wall, traced) in passes.items():
        first, second = (layer_metrics(t[0], t[3] - wall) for t in traced)
        for metric in EXACT_COUNTS:
            assert first[metric] == second[metric], (name, metric)


def test_every_layer_metric_nonzero_where_it_works(passes):
    for metric in LAYER_METRICS:
        name = main_workload(metric)
        _plain, wall, traced = passes[name]
        tracer, _digests, _ok, traced_wall = traced[0]
        assert layer_metrics(tracer, traced_wall - wall)[metric] != 0, \
            (metric, name)


def test_rounds_match_cotsim_matrix(tmp_path):
    """Round 0 writes what `cotsim matrix --vpu --seeds 0:1` writes."""
    from cotsim.cli import main
    assert main(["matrix", "--vpu", "--seeds", "0:1",
                 "--out", str(tmp_path)]) == 0
    files = sorted(str(p) for p in tmp_path.iterdir())
    vpu_csv = [p for p in files if p.endswith("vpu_error_rates.csv")]
    fpga = [p for p in files if p not in vpu_csv]
    reference = load_reference()
    assert digest_files(fpga) == reference["fpga-matrix"][0]
    assert digest_files(vpu_csv) == reference["vpu-table"][0]


def test_tail_has_ten_items_beyond_it():
    durations = [float(i) for i in range(40)]
    value, pct = run.tail(durations)
    assert sum(d > value for d in durations) == 10 and pct == 75.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_refuses_to_run_without_sources(tmp_path):
    bench = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(bench, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fpga-matrix",
         "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
