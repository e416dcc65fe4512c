"""Simulated SoC-FPGA node: configuration memory with essential bits, a
streaming FIR accelerator, and the mitigation stack (scrubbing, partial
reconfiguration, triple modular redundancy, watchdog-triggered reset).

Fault semantics: a component is healthy iff none of its essential
configuration bits is currently flipped.  An unhealthy component's output
is the correct output XORed with a pseudo-random mask seeded by a
deterministic tag of the flipped-bit set, so replays are exact and
corruption is detectable by voting.  The mask draws every sample from
[1, 2**31), so it is nonzero in every sample: an unhealthy component never
emits its correct output in any sample of a window (which has at least
one), and a lone faulty TMR replica is outvoted in every sample.  Window
verdicts rely on this to follow from component health alone wherever
they can (see `FpgaNode._datapath`).
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from cotsim.config import ArchConfig, ComponentSpec, FRAME_BYTES, DPR_BYTES_PER_US
# unused here, but the benchmark's tracer looks the name up in this module
from cotsim.crc import crc16_ccitt  # noqa: F401
from cotsim.ecc import secded_encode, secded_decode
from cotsim.engine import SimEngine, Event

FRAME_BITS = FRAME_BYTES * 8
WORD_BYTES = 4


class IcapError(Exception):
    """Programming error in ICAP arbitration (re-entrant acquire)."""


class InvariantViolation(Exception):
    """A simulation invariant was broken (exit code 2 territory)."""


# ---------------------------------------------------------------------------
# configuration memory


def _no_hook() -> None:
    pass


_FRAME_RAMP = np.arange(FRAME_BYTES, dtype=np.int64) * 7


def _golden_frame(index: int) -> bytes:
    """Byte i of frame `index` is (index * 131 + i * 7) mod 256."""
    return ((_FRAME_RAMP + index * 131) & 0xFF).astype(np.uint8).tobytes()


class ConfigMemory:
    """Configuration frames plus a pristine golden copy.

    The frame bytes are the one source of truth.  Every write ends in
    `_update`, which keeps two derived views in step with them: `dirty`,
    the frames whose bytes differ from golden, and `flipped_essential`,
    each component's flipped essential bits as a sorted list of
    (frame, bit) marks, next to their `repr` texts so a tag never sorts
    or formats the whole set.  `version` bumps whenever a component's
    marks change, and `changed[name]` is the version at the last change
    of component `name`'s marks, which is what its memoized corruption
    tag (and the node's corruption mask) is keyed on.  `_update` ends by
    calling `after_write`, so the scrubber can replan.
    """

    def __init__(self, components: list[ComponentSpec]):
        self.components = {c.name: c for c in components}
        self.frame_owner: list[str] = []
        self.comp_frames: dict[str, range] = {}
        start = 0
        for comp in components:
            self.comp_frames[comp.name] = range(start, start + comp.frames)
            self.frame_owner.extend([comp.name] * comp.frames)
            start += comp.frames
        self.n_frames = start
        self.golden = [_golden_frame(i) for i in range(self.n_frames)]
        self.frames = [bytearray(g) for g in self.golden]
        # evenly spread essential bits across each component's region;
        # essential_mask[f] has frame f's essential bits set, bit b being
        # bit b % 8 of byte b // 8 as in flip_bit
        self.essential: dict[str, frozenset] = {}
        mask = np.zeros((self.n_frames, FRAME_BYTES), dtype=np.uint8)
        for comp in components:
            g = (np.arange(comp.essential_bits, dtype=np.int64)
                 * (comp.frames * FRAME_BITS) // comp.essential_bits)
            frames, bits = divmod(g, FRAME_BITS)
            frames += self.comp_frames[comp.name].start
            self.essential[comp.name] = frozenset(
                zip(frames.tolist(), bits.tolist()))
            np.bitwise_or.at(mask, (frames, bits // 8),
                             (1 << (bits % 8)).astype(np.uint8))
        self.essential_mask = [row.tobytes() for row in mask]
        self.dirty: set[int] = set()
        self.flipped_essential: dict[str, list] = {
            c.name: [] for c in components}
        self._mark_texts: dict[str, list[str]] = {
            c.name: [] for c in components}
        self._parity: dict[int, list[int]] = {}  # lazy per-frame ECC store
        self.version = 0
        self.changed: dict[str, int] = {c.name: 0 for c in components}
        self._tags: dict[str, tuple[int, int]] = {}  # name -> (changed, tag)
        self.after_write = _no_hook

    # -- mutation -----------------------------------------------------------

    def flip_bit(self, frame: int, bit: int) -> dict:
        """XOR one configuration bit; returns a mutation record."""
        byte, value = bit // 8, 1 << (bit % 8)
        self.frames[frame][byte] ^= value
        toggled = self.essential_mask[frame][byte] & value
        self._update(frame, byte * 8, toggled)
        return {"frame": frame, "bit": bit,
                "component": self.frame_owner[frame],
                "essential": toggled != 0}

    def restore_frame(self, frame: int) -> None:
        if frame not in self.dirty:
            return  # the bytes already equal the golden frame
        self.frames[frame][:] = self.golden[frame]
        self._update(frame)

    def restore_component(self, name: str) -> None:
        for f in self.comp_frames[name]:
            self.restore_frame(f)

    def restore_all(self) -> None:
        for f in range(self.n_frames):
            self.restore_frame(f)

    def write_word(self, frame: int, word: int, value: int) -> None:
        """Write a 32-bit little-endian word."""
        base = word * WORD_BYTES
        diff = self.read_word(frame, word) ^ value
        self.frames[frame][base:base + WORD_BYTES] = value.to_bytes(4, "little")
        essential = int.from_bytes(
            self.essential_mask[frame][base:base + WORD_BYTES], "little")
        self._update(frame, base * 8, diff & essential)

    def _update(self, frame: int, base: int = 0, toggled=None) -> None:
        """Bring the derived views in step after a write to `frame` that
        toggled essential bit base + k for each bit k set in `toggled`
        (None: the frame was restored to golden, clearing its marks)."""
        if self.frames[frame] == self.golden[frame]:
            self.dirty.discard(frame)
        else:
            self.dirty.add(frame)
        if toggled != 0:  # a restore, or some essential bits toggled
            comp = self.frame_owner[frame]
            marks = self.flipped_essential[comp]
            texts = self._mark_texts[comp]
            if toggled is None:
                lo = bisect_left(marks, (frame, 0))
                hi = bisect_left(marks, (frame + 1, 0))
                del marks[lo:hi], texts[lo:hi]
                changed = lo < hi
            else:
                changed = True
                while toggled:
                    low = toggled & -toggled
                    toggled ^= low
                    addr = (frame, base + low.bit_length() - 1)
                    i = bisect_left(marks, addr)
                    if i < len(marks) and marks[i] == addr:
                        del marks[i], texts[i]
                    else:
                        marks.insert(i, addr)
                        texts.insert(i, repr(addr))
            if changed:
                self.version += 1
                self.changed[comp] = self.version
        self.after_write()

    # -- queries ------------------------------------------------------------

    def read_word(self, frame: int, word: int) -> int:
        base = word * WORD_BYTES
        return int.from_bytes(self.frames[frame][base:base + WORD_BYTES],
                              "little")

    def golden_word(self, frame: int, word: int) -> int:
        base = word * WORD_BYTES
        return int.from_bytes(self.golden[frame][base:base + WORD_BYTES],
                              "little")

    def parity_store(self, frame: int) -> list[int]:
        if frame not in self._parity:
            self._parity[frame] = [
                secded_encode(self.golden_word(frame, w))
                for w in range(FRAME_BYTES // WORD_BYTES)]
        return self._parity[frame]

    def frame_dirty(self, frame: int) -> bool:
        return frame in self.dirty

    def healthy(self, name: str) -> bool:
        return not self.flipped_essential[name]

    def corruption_tag(self, name: str) -> int:
        """Deterministic 63-bit tag of the component's flipped essential
        bits (blake2b of `repr(sorted(marks))`), recomputed only after
        `changed[name]` moved."""
        memo = self._tags.get(name)
        if memo is None or memo[0] != self.changed[name]:
            text = "[" + ", ".join(self._mark_texts[name]) + "]"
            digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
            memo = self._tags[name] = (self.changed[name],
                                       int.from_bytes(digest, "big") >> 1)
        return memo[1]

    def total_bits(self) -> int:
        return self.n_frames * FRAME_BITS


# ---------------------------------------------------------------------------
# accelerator and voting


def fir_filter(samples: np.ndarray, coeffs) -> np.ndarray:
    """Streaming FIR with zero-padded history: out[n] = sum coeffs[k] x[n-k]."""
    coeffs = np.asarray(coeffs, dtype=np.int64)
    if coeffs.size == 0:
        raise ValueError("coefficient array must be non-empty")
    samples = np.asarray(samples, dtype=np.int64)
    return np.convolve(samples, coeffs)[: samples.size]


def corrupt_samples(correct: np.ndarray, tag: int) -> np.ndarray:
    """Deterministic corruption: XOR with a nonzero tag-seeded mask."""
    rng = np.random.Generator(np.random.PCG64(tag))
    mask = rng.integers(1, 1 << 31, size=correct.size, dtype=np.int64)
    return correct ^ mask


VOTE_UNANIMOUS = 0
VOTE_CORRECTED = 1
VOTE_UNCORRECTABLE = 2


def tmr_vote(a, b, c) -> tuple[np.ndarray, np.ndarray]:
    """Element-wise 2-of-3 majority.

    Status per element: unanimous, corrected, or uncorrectable (all three
    differ; the first input's value is emitted and flagged).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    c = np.asarray(c)
    if not (a.shape == b.shape == c.shape):
        raise ValueError("vote inputs must have equal length")
    ab = a == b
    ac = a == c
    bc = b == c
    out = np.where(ab | ac, a, np.where(bc, b, a))
    status = np.full(a.shape, VOTE_CORRECTED, dtype=np.int8)
    status[ab & ac] = VOTE_UNANIMOUS
    status[~(ab | ac | bc)] = VOTE_UNCORRECTABLE
    return out, status


# ---------------------------------------------------------------------------
# ICAP arbitration


class IcapArbiter:
    """Exclusive grant over the configuration access port, FIFO waiters."""

    def __init__(self):
        self.owner: str | None = None
        self.queue: deque = deque()
        self.grants = 0
        self.releases = 0

    def acquire(self, owner: str, on_grant) -> str:
        if self.owner == owner or any(o == owner for o, _ in self.queue):
            raise IcapError(f"re-entrant ICAP request by {owner!r}")
        if self.owner is None:
            self._grant(owner, on_grant)
            return "grant"
        self.queue.append((owner, on_grant))
        return "queued"

    def release(self, owner: str) -> None:
        if self.owner != owner:
            raise IcapError(f"{owner!r} released ICAP it does not hold")
        self.owner = None
        self.releases += 1
        if self.queue:
            nxt, cb = self.queue.popleft()
            self._grant(nxt, cb)

    def reset(self) -> None:
        self.owner = None
        self.queue.clear()

    def _grant(self, owner: str, on_grant) -> None:
        if self.owner is not None:
            raise InvariantViolation("double ICAP grant")
        self.owner = owner
        self.grants += 1
        on_grant()


# ---------------------------------------------------------------------------
# scrubber


@dataclass
class ScrubReport:
    detections: int = 0
    repairs: int = 0
    uncorrectable: int = 0
    corrected_bits: int = 0


class Scrubber:
    """Cyclic frame scan with per-frame repair through the ICAP.

    replace mode reloads the golden frame; enhanced_repair corrects up to
    one flipped bit per 32-bit word from the stored ECC, then compares
    the frame with golden, reporting (but not fixing) multi-bit words.

    The scan ticks every scan_period_us from the start of its chain (node
    start, and each reset_done), but only a tick that finds damage is an
    engine event (`step`).  As an event, tick k would have the key
    (t_k, t_k - scan_period_us, slot): scheduled by tick k - 1, after
    everything tick k - 1 scheduled itself.  The scrubber watches the
    engine (`SimEngine.add_watcher`): just before each event, `advance`
    accounts for the ticks that sort before it by arithmetic.  While the
    controller is functional, each tick sends a heartbeat stamped with
    its time and, while no repair is in progress, moves the pointer on by
    one frame; nothing else those ticks read changes between two events.
    The chain start, `advance` and `step` reserve the order slot of the
    next tick at the point where the last tick would have scheduled it,
    so a skipped tick sorts among same-time events exactly as a scheduled
    one would: the first tick of a chain before a campaign injection at
    the same time, a tick after a repair that the previous tick started
    and that ends at the same time.

    After every configuration write, finished repair, step and chain
    start, `replan` picks the first tick whose frame is dirty with
    contents not already known to be uncorrectable, and cancels the
    plan it replaces.  The planned tick becomes a cms_scan event once the
    tick before it is accounted and its key is known.
    """

    def __init__(self, node: "FpgaNode"):
        self.node = node
        self.mem = node.mem
        self.mode = node.arch.scrub_mode
        self.period = node.arch.scan_period_us
        self.pointer = 0
        self.repair_frame: int | None = None
        # frame -> its bytes when enhanced repair last left it dirty
        self.known_uncorrectable: dict[int, bytes] = {}
        self.report = ScrubReport()
        self.start: int | None = None  # tick 0 of the chain; None in reset
        self.ticks_done = 0  # ticks of the chain accounted so far
        self.watch_key: tuple | None = None  # key of tick ticks_done + 1
        self.plan: int | None = None  # index of the tick that will find damage
        self.plan_event: int | None = None  # its event id, once scheduled
        self.mem.after_write = self.replan
        node.engine.add_watcher(self)

    def functional(self) -> bool:
        return "cms_ctrl" not in self.mem.components or \
            self.mem.healthy("cms_ctrl")

    def start_chain(self) -> None:
        self.start = self.node.engine.now
        self.ticks_done = 0
        self._next_tick()
        self.replan()

    def _next_tick(self) -> None:
        """Key the next tick as if the last tick had just scheduled it."""
        t = self.start + (self.ticks_done + 1) * self.period
        self.watch_key = (t, t - self.period, self.node.engine.reserve_slot())
        if self.plan == self.ticks_done + 1:
            self._schedule_plan()

    def _schedule_plan(self) -> None:
        t, scheduled_at, slot = self.watch_key
        self.plan_event = self.node.engine.schedule(
            t, self.node.target, "cms_scan", (self.node.epoch,),
            order=(scheduled_at, slot))

    def advance(self, bound: tuple) -> None:
        """Account every tick that sorts before the event keyed `bound`."""
        fire_at, scheduled_at, _slot = bound
        # a tick sorts before bound if it fires earlier, or at the same
        # time and counts as scheduled (one period earlier) before bound
        # was; if both times tie, its slot (reserved from now on) is
        # above bound's.  The next tick keeps its older slot; the engine
        # calls only when that tick sorts before bound.
        last = (fire_at - self.start - 1) // self.period
        if (fire_at - self.start) % self.period == 0 and \
                fire_at - self.period < scheduled_at:
            last += 1
        last = max(last, self.ticks_done + 1)
        if self.plan is not None:
            last = min(last, self.plan - 1)
        skipped = last - self.ticks_done
        self.ticks_done = last
        if self.functional():
            self.node.heartbeat(self.start + last * self.period)
            if self.repair_frame is None:
                self.pointer = (self.pointer + skipped) % self.mem.n_frames
        self._next_tick()

    def replan(self) -> None:
        """Plan the next tick that will find damage."""
        plan = None
        if (self.start is not None and self.repair_frame is None
                and self.functional()):
            n, frames = self.mem.n_frames, self.mem.frames
            ahead = min(((f - self.pointer) % n for f in self.mem.dirty
                         if self.known_uncorrectable.get(f) != frames[f]),
                        default=None)
            if ahead is not None:
                plan = self.ticks_done + 1 + ahead
        if plan == self.plan:
            return
        self._drop_plan()
        self.plan = plan
        if plan == self.ticks_done + 1:
            self._schedule_plan()

    def _drop_plan(self) -> None:
        if self.plan_event is not None:
            self.node.engine.cancel(self.plan_event)
        self.plan = self.plan_event = None

    def step(self) -> None:
        """The planned scan tick: check the current frame, start a repair."""
        self.ticks_done += 1
        self.plan = self.plan_event = None
        if self.functional():
            self.node.heartbeat(self.node.engine.now)
            if self.repair_frame is None:
                self._scan_frame()
        self._next_tick()
        self.replan()

    def _scan_frame(self) -> None:
        frame = self.pointer
        self.pointer = (self.pointer + 1) % self.mem.n_frames
        if not self.mem.frame_dirty(frame) or \
                self.known_uncorrectable.get(frame) == self.mem.frames[frame]:
            return
        self.report.detections += 1
        self.repair_frame = frame
        self.node.icap.acquire("cms", self._on_grant)

    def _on_grant(self) -> None:
        self.node.engine.schedule_in(
            self.node.arch.frame_repair_latency_us, self.node.target,
            "cms_repair_done", (self.node.epoch, self.repair_frame))

    def finish_repair(self, frame: int) -> None:
        if self.mode == "replace":
            self.mem.restore_frame(frame)
            self.report.repairs += 1
        else:
            self._enhanced_repair(frame)
        self.repair_frame = None
        self.node.icap.release("cms")
        self.replan()

    def _enhanced_repair(self, frame: int) -> None:
        # golden never changes, so the words that differ from it are
        # exactly the words with flipped bits
        damaged_words = np.flatnonzero(
            np.frombuffer(self.mem.frames[frame], "<u4")
            != np.frombuffer(self.mem.golden[frame], "<u4")).tolist()
        parity = self.mem.parity_store(frame)
        for w in damaged_words:
            value, status = secded_decode(self.mem.read_word(frame, w),
                                          parity[w])
            if status == "corrected":
                self.mem.write_word(frame, w, value)
                self.report.corrected_bits += 1
        if self.mem.frame_dirty(frame):
            # still differs from golden: some word had more than one
            # flipped bit
            self.report.uncorrectable += 1
            self.known_uncorrectable[frame] = bytes(self.mem.frames[frame])
        else:
            self.report.repairs += 1
            self.known_uncorrectable.pop(frame, None)

    def reset(self) -> None:
        """End the tick chain; the node starts a new one at reset_done."""
        self._drop_plan()
        self.start = self.watch_key = None
        self.pointer = 0
        self.repair_frame = None
        self.known_uncorrectable.clear()


# ---------------------------------------------------------------------------
# partial reconfiguration


def reload_duration_us(region_bytes: int) -> int:
    """Reload time at the configuration-port throughput, ceil to 1 us."""
    return -(-region_bytes // DPR_BYTES_PER_US)


class DprController:
    """Reloads reconfigurable regions from the golden store.

    Requests queue FIFO; one reload at a time, holding the ICAP for the
    region transfer.  Without redundancy-based detection the controller
    also rotates blindly over the reloadable regions.
    """

    def __init__(self, node: "FpgaNode"):
        self.node = node
        self.mem = node.mem
        self.queue: deque[str] = deque()
        self.active: str | None = None
        self.rotation = [c.name for c in node.arch.components if c.reloadable]
        self.rotation_idx = 0
        self.reloads = 0
        self.dropped = 0

    def functional(self) -> bool:
        return "dpr_ctrl" not in self.mem.components or \
            self.mem.healthy("dpr_ctrl")

    def request_reload(self, comp: str) -> None:
        if not self.functional():
            self.dropped += 1
            return
        if comp == self.active or comp in self.queue:
            return
        if not self.mem.components[comp].reloadable:
            return
        self.queue.append(comp)
        self._pump()

    def blind_step(self) -> None:
        if not self.rotation:
            return
        comp = self.rotation[self.rotation_idx]
        self.rotation_idx = (self.rotation_idx + 1) % len(self.rotation)
        self.request_reload(comp)

    def _pump(self) -> None:
        if self.active is not None or not self.queue:
            return
        self.active = self.queue.popleft()
        self.node.icap.acquire("dpr", self._on_grant)

    def _on_grant(self) -> None:
        duration = reload_duration_us(
            self.mem.components[self.active].size_bytes())
        self.node.engine.schedule_in(
            duration, self.node.target, "dpr_reload_done",
            (self.node.epoch, self.active))

    def finish_reload(self, comp: str) -> None:
        self.mem.restore_component(comp)
        self.reloads += 1
        self.active = None
        self.node.icap.release("dpr")
        self._pump()

    def reset(self) -> None:
        self.queue.clear()
        self.active = None
        self.rotation_idx = 0


# ---------------------------------------------------------------------------
# watchdog


class Watchdog:
    """External supervisor: resets the node when heartbeats stop arriving."""

    def __init__(self, node: "FpgaNode"):
        self.node = node
        self.last_heartbeat = 0
        self.resets = 0

    def check(self) -> None:
        node = self.node
        if node.in_reset:
            return
        if node.engine.now - self.last_heartbeat > node.arch.wd_timeout_us:
            self.resets += 1
            node.full_reset("watchdog")


# ---------------------------------------------------------------------------
# node


class FpgaNode:
    """Event-driven FPGA model wired onto a simulation engine."""

    def __init__(self, engine: SimEngine, arch: ArchConfig,
                 target: str = "fpga"):
        self.engine = engine
        self.arch = arch
        self.target = target
        self.mem = ConfigMemory(arch.components)
        self.icap = IcapArbiter()
        self.scrubber = Scrubber(self) if arch.cms else None
        self.dpr = DprController(self) if arch.dpr else None
        self.wd = Watchdog(self) if arch.wd else None
        self.in_reset = False
        self.epoch = 0
        self.resets = 0
        self.window_input = (np.arange(arch.window_samples, dtype=np.int64)
                             % 23) + 1
        self.golden_output = fir_filter(self.window_input, arch.fir_coeffs)
        # corrupt_samples(zeros, tag) is the XOR mask of that tag
        self._zeros = np.zeros(arch.window_samples, dtype=np.int64)
        self._masks: dict[str, tuple[int, np.ndarray]] = {}  # (changed, mask)
        # (mem.version, reload requests, output correct?, unhealthy state
        # as the text the window hash formats)
        self._window: tuple | None = None
        engine.register(target, self._handle)

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        self._schedule_periodic()
        if self.wd is not None:
            self.wd.last_heartbeat = self.engine.now

    def _schedule_periodic(self) -> None:
        ep = self.epoch
        if self.scrubber is not None:
            self.scrubber.start_chain()
        if self.dpr is not None:
            self.engine.schedule_in(self.arch.dpr_blind_period_us, self.target,
                                    "dpr_blind", (ep,))
        if self.wd is not None:
            self.engine.schedule_in(self.arch.wd_timeout_us // 2, self.target,
                                    "wd_check", (ep,))

    def _handle(self, ev: Event) -> None:
        if ev.params and ev.params[0] != self.epoch:
            return  # stale event from before a full reset
        if ev.kind == "cms_scan":
            self.scrubber.step()
        elif ev.kind == "cms_repair_done":
            self.scrubber.finish_repair(ev.params[1])
        elif ev.kind == "dpr_blind":
            if not self.in_reset and self.dpr is not None:
                self.dpr.blind_step()
            self.engine.schedule_in(self.arch.dpr_blind_period_us, self.target,
                                    "dpr_blind", (self.epoch,))
        elif ev.kind == "dpr_reload_done":
            self.dpr.finish_reload(ev.params[1])
        elif ev.kind == "wd_check":
            self.wd.check()
            self.engine.schedule_in(self.arch.wd_timeout_us // 2, self.target,
                                    "wd_check", (self.epoch,))
        elif ev.kind == "reset_done":
            self._finish_reset()

    def heartbeat(self, at_us: int) -> None:
        if self.wd is None:
            return
        if "wd_link" in self.mem.components and not self.mem.healthy("wd_link"):
            return  # status channel itself corrupted: heartbeat lost
        self.wd.last_heartbeat = at_us

    # -- reset --------------------------------------------------------------

    def reset_duration_us(self) -> int:
        return reload_duration_us(self.mem.n_frames * FRAME_BYTES)

    def full_reset(self, reason: str) -> None:
        """Reboot from stored configuration: node is down for the reload."""
        if self.in_reset:
            return
        self.in_reset = True
        self.resets += 1
        self.epoch += 1  # invalidates every pending repair/reload/periodic
        self.icap.reset()
        if self.scrubber is not None:
            self.scrubber.reset()
        if self.dpr is not None:
            self.dpr.reset()
        self.engine.schedule_in(self.reset_duration_us(), self.target,
                                "reset_done", (self.epoch,))

    def _finish_reset(self) -> None:
        self.mem.restore_all()
        self.in_reset = False
        if self.wd is not None:
            self.wd.last_heartbeat = self.engine.now
        self._schedule_periodic()

    # -- datapath -----------------------------------------------------------

    def _through(self, comp: str, correct: np.ndarray) -> np.ndarray:
        """What `comp` emits when its correct output is `correct`."""
        if self.mem.healthy(comp):
            return correct
        memo = self._masks.get(comp)
        if memo is None or memo[0] != self.mem.changed[comp]:
            memo = self._masks[comp] = (
                self.mem.changed[comp],
                corrupt_samples(self._zeros, self.mem.corruption_tag(comp)))
        return correct ^ memo[1]

    def run_pipeline(self) -> tuple[np.ndarray, list[str]]:
        """One accelerator pass over the window input; returns (output,
        repair requests raised).

        With TMR the input is voted across three replicated paths, the
        three accelerator instances run, and the outputs are voted; a
        minority replica (or an uncorrectable vote) raises repair
        requests by name.  The three instances filter the same voted
        input, so the filter runs at most once, and not at all while the
        input voter is healthy.
        """
        if not self.arch.tmr:
            return self._through("fir_0", self.golden_output), []
        if self.mem.healthy("voter_in"):
            correct = self.golden_output
        else:
            correct = fir_filter(self._through("voter_in", self.window_input),
                                 self.arch.fir_coeffs)
        outs = [self._through(f"fir_{i}", correct) for i in range(3)]
        voted, status = tmr_vote(*outs)
        requests = [f"fir_{i}" for i in range(3)
                    if not np.array_equal(outs[i], voted)]
        if np.any(status == VOTE_UNCORRECTABLE):
            requests = ["fir_0", "fir_1", "fir_2"]
        final = self._through("voter_out", voted)
        return final, requests

    def _datapath(self) -> tuple[bool, list[str]]:
        """(output correct?, repair requests) of one `run_pipeline` pass.

        Exact without running the pipeline where component health alone
        decides: a mask is nonzero in every sample (see the module
        docstring), so without TMR the output is correct iff fir_0 is
        healthy, and with TMR, a healthy input voter and at most one
        faulty replica, that replica is outvoted in every sample and
        alone requested, and the output is correct iff the output voter
        is healthy.  Every other state runs the pipeline.
        """
        healthy = self.mem.healthy
        if not self.arch.tmr:
            return healthy("fir_0"), []
        if healthy("voter_in"):
            faulty = [f"fir_{i}" for i in range(3) if not healthy(f"fir_{i}")]
            if len(faulty) <= 1:
                return healthy("voter_out"), faulty
        output, requests = self.run_pipeline()
        return np.array_equal(output, self.golden_output), requests

    def evaluate_window(self, state_seed: int = 0) -> str:
        """Classify the node's current functionality: down/erroneous/correct.

        A wrong output maps to "down" (hang) or "erroneous" (garbage) as a
        deterministic pseudo-random function of the window time and the
        current fault state, calibrated by arch.app_down_fraction.  The
        datapath result depends only on the flipped essential bits, so it
        is recomputed only when `mem.version` changes.
        """
        if self.in_reset:
            return "down"
        if self._window is None or self._window[0] != self.mem.version:
            correct, requests = self._datapath()
            state = None if correct else str(sorted(
                (name, self.mem.corruption_tag(name))
                for name in self.mem.components
                if not self.mem.healthy(name)))
            self._window = (self.mem.version, requests, correct, state)
        _version, requests, correct, state = self._window
        if self.dpr is not None:
            for comp in requests:
                self.dpr.request_reload(comp)
        if correct:
            return "correct"
        digest = hashlib.blake2b(
            f"{state_seed}:{self.engine.now}:{state}".encode(),
            digest_size=8).digest()
        u = int.from_bytes(digest, "big") / 2**64
        return "down" if u < self.arch.app_down_fraction else "erroneous"
