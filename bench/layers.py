"""Per-layer tracing of cotsim from outside the program.

Each wrapper is installed on the attribute its callers look up at call
time, not where the function is defined: `crc16_ccitt` is bound by name
in both `cotsim.fpga` and `cotsim.vpu`, `secded_*` in `cotsim.fpga`, and
`run_fpga`, `golden_output` and the injector calls in `cotsim.harness`.
Methods are patched on their class, so `FpgaNode._handle`, which a node
binds when it is built, must be patched before any node exists. A wrapper
in the wrong place never fires and its layer silently reads zero.

Hot calls (hundreds of thousands per round) are only aggregated: count,
total time, self time and an optional amount per (item, name). Full spans
(name, start, end, parent, item) are kept for coarse boundaries only:
rounds, items and report emission.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

perf_counter = time.perf_counter


def _events(_args, result):
    return result


def _crc_bytes(args, _result):
    return len(args[0])


def _tag_marks(args, _result):
    mem, name = args[0], args[1]
    return len(mem.flipped_essential[name])


# (span name, module the caller looks the name up in, attribute, amount)
HOT_CALLS = (
    ("engine.run", "cotsim.engine", "SimEngine.run_until", _events),
    ("engine.schedule", "cotsim.engine", "SimEngine.schedule", None),
    ("fpga.handle", "cotsim.fpga", "FpgaNode._handle", None),
    ("fpga.scrub_step", "cotsim.fpga", "Scrubber.step", None),
    ("fpga.scrub_repair", "cotsim.fpga", "Scrubber.finish_repair", None),
    ("fpga.dpr", "cotsim.fpga", "DprController.request_reload", None),
    ("fpga.dpr", "cotsim.fpga", "DprController.blind_step", None),
    ("fpga.dpr", "cotsim.fpga", "DprController.finish_reload", None),
    ("fpga.wd_check", "cotsim.fpga", "Watchdog.check", None),
    ("fpga.mem_write", "cotsim.fpga", "ConfigMemory.restore_frame", None),
    ("fpga.mem_write", "cotsim.fpga", "ConfigMemory.write_word", None),
    ("fpga.flip_bit", "cotsim.fpga", "ConfigMemory.flip_bit", None),
    ("fpga.window", "cotsim.fpga", "FpgaNode.evaluate_window", None),
    ("fpga.corruption_tag", "cotsim.fpga", "ConfigMemory.corruption_tag",
     _tag_marks),
    ("fpga.corrupt_samples", "cotsim.fpga", "corrupt_samples", None),
    ("fpga.tmr_vote", "cotsim.fpga", "tmr_vote", None),
    ("ecc.decode", "cotsim.fpga", "secded_decode", None),
    ("ecc.encode", "cotsim.fpga", "secded_encode", None),
    ("crc", "cotsim.fpga", "crc16_ccitt", _crc_bytes),
    ("crc", "cotsim.vpu", "crc16_ccitt", _crc_bytes),
    ("vpu.node_init", "cotsim.vpu", "VpuNode.__init__", None),
    ("vpu.partition", "cotsim.vpu", "partition_workload", None),
    ("vpu.kernel", "cotsim.vpu", "conv2d", None),
    ("vpu.kernel", "cotsim.vpu", "binning2d", None),
    ("vpu.worker_execute", "cotsim.vpu", "VpuNode.worker_execute", None),
    ("vpu.vote", "cotsim.vpu", "_pixel_majority", None),
    ("vpu.golden", "cotsim.harness", "golden_output", None),
    ("injector.build", "cotsim.harness", "build_fpga_campaign", None),
    ("injector.inject", "cotsim.harness", "inject_config_bit", None),
)

EMIT_CALLS = ("emit_matrix", "emit_vpu_table")


class Tracer:
    """Stack-based self-time accounting plus coarse spans, all in memory."""

    def __init__(self):
        self.t0 = perf_counter()
        self.stack: list[list[float]] = []  # child time of each open call
        self.item = -1  # current item id; -1 outside any item
        self.labels: list[str] = []
        # (item, name) -> [calls, total_s, self_s, amount]
        self.agg: dict[tuple[int, str], list] = {}
        self.spans: list[dict] = []
        self._open: list[int] = []

    def _timed(self, name, fn, amount=None):
        stack = self.stack
        agg = self.agg

        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                key = (self.item, name)
                rec = agg.get(key)
                if rec is None:
                    rec = agg[key] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child[0]
            if amount is not None:
                rec[3] += amount(args, result)
            return result
        return wrapper

    @contextmanager
    def span(self, name: str, label: str | None = None):
        """A coarse span; with a label it also starts a new item."""
        prev_item = self.item
        if label is not None:
            self.item = len(self.labels)
            self.labels.append(label)
        index = len(self.spans)
        self.spans.append({"name": name, "label": label, "item": self.item,
                           "parent": self._open[-1] if self._open else None,
                           "start_s": perf_counter() - self.t0})
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index]["end_s"] = perf_counter() - self.t0
            self._open.pop()
            self.item = prev_item

    def _coarse(self, name, fn, label_of=None, amount=None):
        timed = self._timed(name, fn, amount)

        def wrapper(*args, **kwargs):
            with self.span(name, label_of(*args) if label_of else None):
                return timed(*args, **kwargs)
        return wrapper

    @contextmanager
    def installed(self, workload):
        """Patch every traced call site for the duration of the block."""
        patches = [(name, mod, attr, self._timed, (amount,))
                   for name, mod, attr, amount in HOT_CALLS]
        patches.append(("harness.item", "cotsim.harness", workload.item_fn,
                        self._coarse,
                        (workload.item_label,
                         lambda _a, result: workload.detections(result))))
        patches += [("harness.emit", "cotsim.harness", fn, self._coarse, ())
                    for fn in EMIT_CALLS]
        undo = []
        try:
            for name, mod, attr, make, extra in patches:
                owner = importlib.import_module(mod)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf]
                setattr(owner, leaf, make(name, original, *extra))
                undo.append((owner, leaf, original))
            yield self
        finally:
            for owner, leaf, original in reversed(undo):
                setattr(owner, leaf, original)

    # -- results ------------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """[calls, total_s, self_s, amount] per name, summed over items."""
        out: dict[str, list] = {}
        for (_item, name), rec in self.agg.items():
            acc = out.setdefault(name, [0, 0.0, 0.0, 0])
            for i in range(4):
                acc[i] += rec[i]
        return out

    def per_item(self, name: str, field: int = 0) -> dict[str, float]:
        """One field of one name's aggregate, keyed by item label."""
        return {self.labels[item]: rec[field]
                for (item, n), rec in self.agg.items()
                if n == name and item >= 0}

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "per_item": [
                {"item": item, "label": self.labels[item] if item >= 0 else None,
                 "name": name, "calls": rec[0], "total_s": rec[1],
                 "self_s": rec[2], "amount": rec[3]}
                for (item, name), rec in sorted(self.agg.items())],
        }


CALLS, TOTAL, SELF, AMOUNT = range(4)

# name -> (unit, better); the order is the order they are printed
LAYER_METRICS = {
    "engine.events": ("count", "lower"),
    "engine.self_s": ("s", "lower"),
    "engine.us_per_event": ("us", "lower"),
    "fpga.handle.self_s": ("s", "lower"),
    "fpga.scrub_step.calls": ("count", "lower"),
    "fpga.scrub_step.self_s": ("s", "lower"),
    "fpga.scrub.useful_ratio": ("ratio", "higher"),
    "fpga.scrub_repair.calls": ("count", "lower"),
    "fpga.scrub_repair.self_s": ("s", "lower"),
    "fpga.dpr.self_s": ("s", "lower"),
    "fpga.wd_check.calls": ("count", "lower"),
    "fpga.mem_write.self_s": ("s", "lower"),
    "fpga.flip_bit.calls": ("count", "lower"),
    "fpga.window.calls": ("count", "lower"),
    "fpga.window.self_s": ("s", "lower"),
    "fpga.corruption_tag.calls": ("count", "lower"),
    "fpga.corruption_tag.self_s": ("s", "lower"),
    "fpga.corruption_tag.marks_mean": ("count", "lower"),
    "fpga.corrupt_samples.self_s": ("s", "lower"),
    "fpga.tmr_vote.self_s": ("s", "lower"),
    "ecc.decode.calls": ("count", "lower"),
    "ecc.decode.self_s": ("s", "lower"),
    "ecc.encode.calls": ("count", "lower"),
    "ecc.encode.self_s": ("s", "lower"),
    "crc.calls": ("count", "lower"),
    "crc.bytes": ("bytes", "lower"),
    "crc.self_s": ("s", "lower"),
    "crc.mb_per_s": ("MB/s", "higher"),
    "vpu.node_init.self_s": ("s", "lower"),
    "vpu.partition.calls": ("count", "lower"),
    "vpu.partition.self_s": ("s", "lower"),
    "vpu.kernel.self_s": ("s", "lower"),
    "vpu.worker_execute.calls": ("count", "lower"),
    "vpu.vote.self_s": ("s", "lower"),
    "vpu.golden.self_s": ("s", "lower"),
    "injector.build.self_s": ("s", "lower"),
    "injector.inject.calls": ("count", "lower"),
    "injector.inject.self_s": ("s", "lower"),
    "harness.item.self_s": ("s", "lower"),
    "harness.emit.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, overhead_s: float) -> dict[str, float]:
    """Every LAYER_METRICS value from one traced pass."""
    t = tracer.totals()

    def get(name, field):
        return t.get(name, [0, 0.0, 0.0, 0])[field]

    values = {
        "engine.events": get("engine.run", AMOUNT),
        "engine.self_s": get("engine.run", SELF) + get("engine.schedule", SELF),
        "fpga.scrub.useful_ratio": _ratio(get("harness.item", AMOUNT),
                                          get("fpga.scrub_step", CALLS)),
        "fpga.corruption_tag.marks_mean": _ratio(
            get("fpga.corruption_tag", AMOUNT),
            get("fpga.corruption_tag", CALLS)),
        "crc.bytes": get("crc", AMOUNT),
        "crc.mb_per_s": _ratio(get("crc", AMOUNT) / 1e6, get("crc", TOTAL)),
        "trace.overhead_s": overhead_s,
    }
    values["engine.us_per_event"] = _ratio(1e6 * values["engine.self_s"],
                                           values["engine.events"])
    for metric in LAYER_METRICS:
        if metric in values:
            continue
        name, _, field = metric.rpartition(".")
        values[metric] = get(name, {"calls": CALLS, "self_s": SELF}[field])
    return values
