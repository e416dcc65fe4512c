"""Command-line entry points: single runs, run matrices, report conversion
and a quick self-verification of the codec/voter/recovery oracles."""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from cotsim.config import (ARCHITECTURES, CampaignConfig, load_campaign,
                           make_architecture)
from cotsim.crc import crc16_ccitt
from cotsim.ecc import secded_decode, secded_encode
from cotsim.fpga import InvariantViolation, tmr_vote
from cotsim.frame_link import PixelFrame, decode_frame, encode_frame
from cotsim.harness import emit_matrix, emit_vpu_table, run_fpga, run_matrix, \
    run_vpu_table

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INVARIANT = 2


def _parse_seeds(spec: str) -> list[int]:
    try:
        if ":" in spec:
            lo, hi = spec.split(":", 1)
            seeds = list(range(int(lo), int(hi)))
        else:
            seeds = [int(s) for s in spec.split(",") if s]
    except ValueError as exc:
        raise ValueError(f"--seeds {spec!r} is not lo:hi or a comma list "
                         f"of integers ({exc})") from None
    if not seeds:
        raise ValueError(f"--seeds {spec!r} selects no seed")
    if min(seeds) < 0 or len(set(seeds)) < len(seeds):
        raise ValueError(f"--seeds {spec!r}: seeds must be distinct and >= 0")
    return seeds


def _campaign(args) -> CampaignConfig:
    if args.campaign:
        return load_campaign(args.campaign)
    return CampaignConfig()


def _check_archs(campaign: CampaignConfig, archs: list[str]) -> None:
    """Every architecture must be known, and every components-mode target
    must exist in every architecture."""
    for arch in archs:
        names = {c.name for c in make_architecture(arch).components}
        if campaign.target_mode != "components":
            continue
        missing = [t for t in campaign.target_components if t not in names]
        if missing:
            raise ValueError(f"unknown target component {missing[0]!r} "
                             f"in architecture {arch}")


def cmd_run(args) -> int:
    campaign = _campaign(args)
    _check_archs(campaign, [args.arch])
    os.makedirs(args.out, exist_ok=True)  # fail before the run, not after
    report, log = run_fpga(args.arch, campaign, args.seed)
    with open(os.path.join(args.out, "report.json"), "w") as fh:
        fh.write(report.to_json())
    with open(os.path.join(args.out, "mutations.log"), "wb") as fh:
        fh.write(log)
    print(f"{report.architecture} seed={report.seed} "
          f"down={report.down_pct:.1f}% "
          f"erroneous={report.erroneous_pct:.1f}% "
          f"correct={report.correct_pct:.1f}%")
    return EXIT_OK


def cmd_matrix(args) -> int:
    campaign = _campaign(args)
    archs = list(ARCHITECTURES) if args.archs == "all" \
        else args.archs.split(",")
    if len(set(archs)) < len(archs):
        raise ValueError(f"--archs {args.archs!r}: architectures must be "
                         f"distinct")
    _check_archs(campaign, archs)
    seeds = _parse_seeds(args.seeds)
    os.makedirs(args.out, exist_ok=True)  # fail before the run, not after
    result = run_matrix(archs, seeds, campaign)
    written = emit_matrix(result, args.out)
    if args.vpu:
        written.append(emit_vpu_table(
            run_vpu_table(["conv2d", "binning2d"],
                          ["none", "imr", "dmr", "nmr"],
                          [3, 6, 9, 12], seeds),
            args.out))
    for row in result.rows:
        print(f"{row.architecture:18s} down={row.down_pct:6.2f}% "
              f"erroneous={row.erroneous_pct:6.2f}% "
              f"correct={row.correct_pct:6.2f}%")
    print(f"wrote {len(written)} files to {args.out}")
    return EXIT_OK


def cmd_report(args) -> int:
    reports, rows = [], []
    for name in sorted(os.listdir(args.inp)):
        if name.startswith("run_") and name.endswith(".json"):
            path = os.path.join(args.inp, name)
            try:
                with open(path) as fh:
                    rep = json.load(fh)
                if not isinstance(rep, dict):
                    raise TypeError("not a JSON object")
                rows.append([rep["architecture"], rep["seed"],
                             f"{rep['down_pct']:.3f}",
                             f"{rep['erroneous_pct']:.3f}",
                             f"{rep['correct_pct']:.3f}", rep["lam_per_s"]])
            except KeyError as exc:
                raise ValueError(f"{path}: missing field {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}: {exc}") from exc
            reports.append(rep)
    if not reports:
        print("no run reports found", file=sys.stderr)
        return EXIT_CONFIG
    if args.format == "json":
        json.dump(reports, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(["architecture", "seed", "down_pct", "erroneous_pct",
                         "correct_pct", "lambda_per_s"])
        writer.writerows(rows)
    return EXIT_OK


def cmd_verify(_args) -> int:
    """Quick oracle checks: checksum, codec round-trip, voter table, SECDED."""
    failures = []

    def check(name, ok):
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        if not ok:
            failures.append(name)

    check("crc16 check value", crc16_ccitt(b"123456789") == 0x31C3)
    check("crc16 empty input", crc16_ccitt(b"") == 0x0000)

    rng = np.random.default_rng(7)
    ok = True
    for depth in (8, 16, 24):
        pixels = rng.integers(0, 1 << depth, size=(6, 5), dtype=np.uint32)
        frame = PixelFrame(depth, pixels)
        res = decode_frame(encode_frame(frame))
        ok &= res.crc_ok and res.padding_ok and \
            bool(np.array_equal(res.frame.pixels, frame.pixels))
    check("frame round-trip", ok)

    ok = True
    for a in range(4):
        for b in range(4):
            for c in range(4):
                out, status = tmr_vote([a], [b], [c])
                if a == b or a == c:
                    ok &= out[0] == a
                elif b == c:
                    ok &= out[0] == b
                else:
                    ok &= out[0] == a and status[0] == 2
    check("majority voter truth table", ok)

    word = 0xDEADBEEF
    parity = secded_encode(word)
    check("secded single-bit correction", all(
        secded_decode(word ^ (1 << bit), parity) == (word, "corrected")
        for bit in range(32)))
    check("secded double-bit detection", all(
        secded_decode(word ^ (1 << b1) ^ (1 << b2), parity)[1] == "double"
        for b1 in range(32) for b2 in range(b1 + 1, 32)))

    return EXIT_OK if not failures else EXIT_INVARIANT


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cotsim",
        description="Fault-injection simulator for an FPGA+VPU payload")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="single architecture run")
    p.add_argument("--arch", required=True, choices=ARCHITECTURES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--campaign", help="campaign spec JSON")
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("matrix", help="architectures x seeds")
    p.add_argument("--archs", default="all",
                   help="comma list or 'all'")
    p.add_argument("--seeds", default="0:10", help="lo:hi or comma list")
    p.add_argument("--campaign", help="campaign spec JSON")
    p.add_argument("--vpu", action="store_true",
                   help="also run the VPU error-rate table")
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("report", help="convert stored run reports")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("verify", help="run the quick oracle checks")
    p.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # CampaignError is a ValueError; a draw too large for numpy, a MemoryError
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
