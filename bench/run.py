"""cotsim benchmark: one workload, one process, one thread, closed loop.

    python3 bench/run.py --workload fpga-matrix [--seed 0] [--seconds 30] [--trace 0]

Run it from the root of a source checkout; it imports cotsim from `src/`
of that checkout and nothing else. Rounds run back to back, seed, seed+1,
..., until --seconds have passed; each round's emitted files are checked
and hashed (see workloads.py). With --trace 0 the last line of stdout is a
JSON object with the end-to-end metrics; with --trace 1 a fixed set of
rounds runs once untraced and once traced, and the metrics are the
per-layer ones (see layers.py). Exit code 2 means the benchmark could not
run; no result line is printed then.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext

from layers import LAYER_METRICS, Tracer, layer_metrics
from workloads import WORKLOADS, digest_files, load_reference, \
    reference_mismatches

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "bench", "out")

SETUP_PROBES = 10
# calibration time of the reference host; end-to-end times are reported as
# host time scaled to this speed (see README.md, "Host speed")
CALIB_REF_S = 0.005
# item time between two calibrations of the timed loop
CALIB_BLOCK_S = 0.25
TRACE_ROUNDS = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

perf_counter = time.perf_counter


class BenchError(Exception):
    """The benchmark cannot run here."""


def import_harness():
    """Import cotsim from this checkout's src/, never from anywhere else."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "cotsim", "__init__.py")):
        raise BenchError(f"no cotsim sources under {SRC}")
    sys.path.insert(0, SRC)
    import cotsim.harness as harness
    if not os.path.abspath(harness.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported cotsim from {harness.__file__}")
    return harness


def time_setup(workload: str) -> float:
    """Seconds from starting a fresh interpreter until it is ready to run
    the workload's first item."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--probe"]
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.communicate(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up probe exited with {proc.returncode}")
    return elapsed


def calibrate() -> float:
    """Seconds a fixed pure-Python loop that does not touch cotsim takes
    right now: the median of three tries, about 15 ms in all."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        x = 0
        table = {}
        for i in range(30_000):
            x = (x * 31 + i) & 0xFFFF
            table[i & 1023] = x
        times.append(perf_counter() - t0)
    return statistics.median(times)


def speed_factor(before: float, after: float) -> float:
    """Scale that turns host time measured between two calibrations into
    host time at the reference speed."""
    return CALIB_REF_S / ((before + after) / 2)


class ItemClock:
    """Times every item by wrapping the harness function that runs one, and
    calibrates the host after each block of at least CALIB_BLOCK_S of item
    time. Each item's time is scaled by the mean of the calibrations on
    either side of its block."""

    def __init__(self, harness, workload):
        self.harness = harness
        self.fn_name = workload.item_fn
        self.durations: list[float] = []
        self.scaled: list[float] = []
        self.calib: list[float] = []
        self.calib_s = 0.0  # host time spent calibrating
        self.block: list[float] = []

    def recalibrate(self) -> None:
        """Calibrate now and scale the items run since the last calibration."""
        t0 = perf_counter()
        self.calib.append(calibrate())
        self.calib_s += perf_counter() - t0
        if len(self.calib) > 1:
            factor = speed_factor(self.calib[-2], self.calib[-1])
            self.scaled += [d * factor for d in self.block]
        self.block = []

    def __enter__(self):
        self.original = getattr(self.harness, self.fn_name)
        original = self.original

        def timed_item(*args, **kwargs):
            t0 = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                self.durations.append(elapsed)
                self.block.append(elapsed)
                if sum(self.block) >= CALIB_BLOCK_S:
                    self.recalibrate()
        setattr(self.harness, self.fn_name, timed_item)
        self.recalibrate()
        return self

    def __exit__(self, *_exc):
        setattr(self.harness, self.fn_name, self.original)


def play(workload, seeds, tracer=None):
    """Run one round per seed, back to back.
    Returns ({seed: digest}, per-item ok flags, wall s)."""
    digests: dict[int, str] = {}
    ok: list[bool] = []
    t0 = perf_counter()
    for seed in seeds:
        out_dir = tempfile.mkdtemp(prefix="round-", dir=OUT_DIR)
        try:
            with tracer.span("round") if tracer else nullcontext():
                flags, written = workload.run_round(seed, out_dir)
            digests[seed] = digest_files(written)
        except Exception:  # a round that raises fails all of its items
            traceback.print_exc(file=sys.stderr)
            flags = [False] * workload.items_per_round
        finally:
            shutil.rmtree(out_dir)
        ok.extend(flags)
    return digests, ok, perf_counter() - t0


def tail(durations: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with at least ten
    items beyond it; the maximum when there are ten items or fewer."""
    ordered = sorted(durations)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def time_setup_batch(workload: str, n: int) -> tuple[list[float], list[float]]:
    """n set-up probes with a calibration before and after each one:
    (scaled, raw) seconds."""
    scaled, raw = [], []
    before = calibrate()
    for _ in range(n):
        raw.append(time_setup(workload))
        after = calibrate()
        scaled.append(raw[-1] * speed_factor(before, after))
        before = after
    return scaled, raw


def measure(workload, harness, args, record) -> tuple[dict, int, int]:
    """Untraced, time-bounded run: end-to-end metrics.

    The host is calibrated around every block of items (see ItemClock) and
    after every round. Item times are scaled per block; the rest of a
    round (emission, hashing) is scaled like the round's items."""
    # half the set-up probes before the timed loop and half after, so that
    # one slow host phase does not decide their median
    setup, setup_raw = time_setup_batch(workload.name, SETUP_PROBES // 2)
    digests: dict[int, str] = {}
    ok: list[bool] = []
    wall = scaled_wall = 0.0
    rounds = 0
    deadline = perf_counter() + args.seconds
    with ItemClock(harness, workload) as clock:
        for seed in itertools.count(args.seed):
            first = len(clock.durations)
            calib_s = clock.calib_s
            round_digests, round_ok, round_wall = play(workload, [seed])
            clock.recalibrate()
            round_wall -= clock.calib_s - calib_s
            item_wall = sum(clock.durations[first:])
            factor = (sum(clock.scaled[first:]) / item_wall if item_wall
                      else speed_factor(*clock.calib[-2:]))
            digests.update(round_digests)
            ok.extend(round_ok)
            wall += round_wall
            scaled_wall += round_wall * factor
            rounds += 1
            if perf_counter() >= deadline:
                break
    more, more_raw = time_setup_batch(workload.name, SETUP_PROBES // 2)
    setup += more
    setup_raw += more_raw
    item_s = clock.scaled

    attempted = len(ok)
    failed = ok.count(False)
    pinned = load_reference().get(workload.name, [])
    mismatched = reference_mismatches(digests, pinned)
    if mismatched:
        failed = attempted
    tail_s, tail_pct = tail(item_s)
    raw_tail_s, _ = tail(clock.durations)
    record.update(
        rounds=rounds, items=attempted, wall_s=wall,
        item_ms_tail_pct=tail_pct, calib_ms=[1000 * c for c in clock.calib],
        raw={"throughput": attempted / wall,
             "item_ms_p50": 1000 * statistics.median(clock.durations),
             "item_ms_tail": 1000 * raw_tail_s,
             "setup_s": statistics.median(setup_raw)},
        reference_checked=[s for s in digests if s < len(pinned)],
        reference_mismatches=mismatched, digests=digests)
    metrics = {
        "throughput": (attempted / scaled_wall, "items/s"),
        "item_ms_p50": (1000 * statistics.median(item_s), "ms"),
        "item_ms_tail": (1000 * tail_s, "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup), "s"),
        "ops_ok_frac": (1 - failed / attempted, "ratio"),
    }
    return metrics, attempted, failed


def traced_pass(workload, seeds):
    """Rounds with every layer wrapper installed: (tracer, digests, ok, wall)."""
    tracer = Tracer()
    with tracer.installed(workload):
        digests, ok, wall = play(workload, seeds, tracer=tracer)
    return tracer, digests, ok, wall


def trace(workload, harness, args, record) -> tuple[dict, int, int]:
    """A fixed set of rounds untraced, then traced: per-layer metrics."""
    seeds = range(args.seed, args.seed + TRACE_ROUNDS)
    plain, ok_plain, wall_plain = play(workload, seeds)
    tracer, traced, ok_traced, wall_traced = traced_pass(workload, seeds)
    ok = ok_plain + ok_traced
    attempted = len(ok)
    failed = ok.count(False)
    mismatched = reference_mismatches(
        plain, load_reference().get(workload.name, []))
    if mismatched or plain != traced:
        failed = attempted
    record.update(rounds=len(seeds), items=attempted, wall_s=wall_plain,
                  traced_wall_s=wall_traced, reference_mismatches=mismatched,
                  digests=plain, traced_digests_equal=plain == traced)
    with open(os.path.join(OUT_DIR, f"trace-{workload.name}-s{args.seed}.json"),
              "w") as fh:
        json.dump({"record": record, **tracer.dump()}, fh)
    values = layer_metrics(tracer, wall_traced - wall_plain)
    return ({name: (values[name], unit)
             for name, (unit, _better) in LAYER_METRICS.items()},
            attempted, failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    workload = WORKLOADS[args.workload]

    try:
        if args.probe:
            workload.prepare(import_harness())
            print("ready", flush=True)
            return 0
        harness = import_harness()
        import numpy
        record = {
            "workload": workload.name, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "loadavg_start": os.getloadavg(),
            "calib_ms_start": 1000 * calibrate(),
        }
        os.makedirs(OUT_DIR, exist_ok=True)
        workload.prepare(harness)
        run = trace if args.trace else measure
        metrics, attempted, failed = run(workload, harness, args, record)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record.update(loadavg_end=os.getloadavg(),
                  calib_ms_end=1000 * calibrate())

    raw = record.get("raw", {})
    for name, (value, unit) in metrics.items():
        unscaled = f"  (unscaled {raw[name]:.6g})" if name in raw else ""
        print(f"{name:34s} {value:14.6g} {unit}{unscaled}")
    if not args.trace:
        print(f"{'ops_failed_frac':34s} {failed / attempted:14.6g} ratio")
        print(f"item_ms_tail is p{record['item_ms_tail_pct']:.1f} "
              f"of n={attempted} items")
    print(json.dumps({"record": record}, default=str))
    with open(os.path.join(
            OUT_DIR, f"result-{workload.name}-s{args.seed}-t{args.trace}.json"),
            "w") as fh:
        json.dump({"record": record, "metrics": metrics}, fh, indent=1)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
