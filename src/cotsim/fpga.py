"""Simulated SoC-FPGA node: configuration memory with essential bits, a
streaming FIR accelerator, and the mitigation stack (scrubbing, partial
reconfiguration, triple modular redundancy, watchdog-triggered reset).

Fault semantics: a component is healthy iff none of its essential
configuration bits is currently flipped.  An unhealthy component's output
is its correct output XORed with a mask that is nonzero in every sample
(`corrupt_samples`), so it never emits its correct output in any sample.
A window's verdict is therefore a function of component health alone
(`FpgaNode._datapath`).  Without TMR the output is correct iff fir_0 is
healthy.  With TMR it is correct iff voter_in and voter_out are healthy
and either fir_0 is healthy or fir_1 and fir_2 both are: a lone faulty
replica is outvoted in every sample, and with two or more faulty
replicas every sample's vote is uncorrectable and emits fir_0's output.
One faulty replica is requested for repair alone, two or more request
all three; voter_in's health does not change the requests.  The only
exception, masks that coincide in a sample (about 2**-31 per sample), is
defined away.

Measurement windows: health changes only at events and injections, so
the node logs each change (`FpgaNode.health_log`) and classifies every
window from the log after the run (`FpgaNode.evaluate_window`).  The
one thing a window did to the node, raising the TMR vote's reload
requests, is a watcher on the window grid (`WindowWatcher`).
"""

from __future__ import annotations

import functools
import hashlib
from bisect import bisect_left
from collections import deque
from itertools import accumulate

import numpy as np

from cotsim.config import ArchConfig, ComponentSpec, FRAME_BYTES, DPR_BYTES_PER_US
# unused here, but the benchmark's tracer looks the name up in this module
from cotsim.crc import crc16_ccitt  # noqa: F401
from cotsim.ecc import secded_encode, secded_decode
from cotsim.engine import SimEngine

FRAME_BITS = FRAME_BYTES * 8
FIR_REPLICAS = ("fir_0", "fir_1", "fir_2")  # TMR's datapath replicas
WORD_BITS = 32
WORD_MASK = (1 << WORD_BITS) - 1


class InvariantViolation(Exception):
    """A simulation invariant was broken (exit code 2 territory)."""


# ---------------------------------------------------------------------------
# configuration memory


def _frame_ints(rows: np.ndarray) -> tuple[int, ...]:
    """Each row of a (frames, FRAME_BYTES) uint8 array as one
    little-endian integer: bit b of the frame is bit b % 8 of byte b // 8."""
    return tuple(int.from_bytes(row.tobytes(), "little") for row in rows)


def text_table(texts) -> np.ndarray:
    """The byte strings `texts` as a read-only numpy bytes array, whose
    fixed width pads each with NULs (no text holds one)."""
    table = np.array(list(texts), dtype=bytes)
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=8)  # campaign and window times, bit numbers
def number_texts(start: int, stop: int, step: int) -> np.ndarray:
    """The decimal texts of range(start, stop, step) as a `text_table`."""
    return text_table(b"%d" % n for n in range(start, stop, step))


def _set_bits(mask: int):
    """The positions of the bits set in `mask`, lowest first."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


class Layout:
    """What a configuration memory fixes from its component list alone,
    built once per process per list (`layout_of`, keyed by every field of
    every component) and shared by every `ConfigMemory` over an equal one.
    No run writes it: its sequences are tuples, its flags and log texts
    read-only arrays.  Only a word write and an enhanced repair's decode
    read `golden`, each frame's golden contents.  `essential_mask` holds
    each frame's essential bits, and `essential_flags` packs them for a
    campaign's draw, bit g of the memory at bit g % 8 of byte g // 8;
    `essential_addresses` unpacks each component's.  `wakers` are the
    frames whose essential bits, when flipped, change what an asleep
    scrubber tick reads (`Scrubber`); `log_texts` are each frame's
    mutation-log texts, and `sorted_names` the component names in the
    order a fault state lists them."""

    def __init__(self, components: tuple[ComponentSpec, ...]):
        self.components = {c.name: c for c in components}
        ends = list(accumulate((c.frames for c in components), initial=0))
        self.n_frames = ends[-1]
        self.comp_frames = {c.name: range(lo, hi)
                            for c, lo, hi in zip(components, ends, ends[1:])}
        self.frame_owner = tuple(c.name for c in components
                                 for _ in range(c.frames))
        self.sorted_names = tuple(sorted(self.components))
        # byte i of golden frame f is (f * 131 + i * 7) mod 256
        ramp = (np.arange(self.n_frames, dtype=np.int64)[:, None] * 131
                + np.arange(FRAME_BYTES, dtype=np.int64) * 7)
        self.golden = _frame_ints((ramp & 0xFF).astype(np.uint8))
        # evenly spread essential bits across each component's region
        mask = np.zeros(self.n_frames * FRAME_BYTES, dtype=np.uint8)
        for comp, start in zip(components, ends):
            g = start * FRAME_BITS + (
                np.arange(comp.essential_bits, dtype=np.int64)
                * (comp.frames * FRAME_BITS) // comp.essential_bits)
            np.bitwise_or.at(mask, g // 8, (1 << g % 8).astype(np.uint8))
        self.essential_mask = _frame_ints(mask.reshape(-1, FRAME_BYTES))
        mask.flags.writeable = False
        self.essential_flags = mask
        self.wakers = frozenset(f for name in ("cms_ctrl", "wd_link")
                                if name in self.components
                                for f in self.comp_frames[name])

    @functools.cached_property
    def log_texts(self) -> tuple[np.ndarray, np.ndarray]:
        """Each frame's mutation-log texts as `text_table`s, built on
        first use: entry f of the first is " fpga_config_bit <f>:", entry
        2 * f + essential of the second the effect that ends the line."""
        return (text_table(b" fpga_config_bit %d:" % frame
                           for frame in range(self.n_frames)),
                text_table(text for owner in self.frame_owner for text in
                           (b" non_essential\n", f" {owner}\n".encode())))

    @functools.cached_property
    def essential_addresses(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Each component's essential addresses as read-only arrays of
        frames and bits, sorted, built on first use from
        `essential_flags`."""
        g = np.flatnonzero(np.unpackbits(self.essential_flags,
                                         bitorder="little"))
        frames, bits = np.divmod(g, FRAME_BITS)
        frames.flags.writeable = bits.flags.writeable = False
        cut = np.searchsorted(frames, [r.start for r in
                                       self.comp_frames.values()]).tolist()
        return {name: (frames[lo:hi], bits[lo:hi]) for name, lo, hi in
                zip(self.comp_frames, cut, cut[1:] + [len(g)])}


layout_of = functools.lru_cache(maxsize=16)(Layout)  # 8 architectures, 8 more


class ConfigMemory:
    """A run's configuration frames, over the `Layout` of what never changes,
    held as their upset patterns: `errors[f]` is frame f XOR golden, one
    little-endian integer of FRAME_BITS bits, all zero at construction.
    The errors are the one source of truth, and `flip_bits` is their one
    write, which every flip, word write and restore goes through.  It
    keeps two derived views in step: `dirty`, whose bit f is set iff
    errors[f] is nonzero, and `flipped_essential`, each component's
    flipped essential bits as a sorted list of (frame, bit) marks, next to
    their `repr` texts so a tag never sorts or formats the whole set.
    `version` bumps whenever a component's marks change.  One memo keeps
    each unhealthy component's piece of `fault_state`, the text of its
    name and corruption tag, and a change to its marks drops the piece."""

    def __init__(self, components: list[ComponentSpec]):
        self.layout = layout_of(tuple(components))
        self.errors = [0] * self.layout.n_frames
        self.dirty = 0  # bit f: errors[f] != 0
        self.flipped_essential = {n: [] for n in self.layout.components}
        self._mark_texts = {n: [] for n in self.layout.components}
        self.version = 0
        self._pieces: dict[str, str] = {}  # name -> repr((name, tag))

    # -- mutation -----------------------------------------------------------

    def flip_bits(self, frame: int, mask: int) -> None:
        """XOR `mask` into frame `frame`: the one write."""
        error = self.errors[frame] = self.errors[frame] ^ mask
        if error:
            self.dirty |= 1 << frame
        else:
            self.dirty &= ~(1 << frame)
        toggled = mask & self.layout.essential_mask[frame]
        if toggled:
            comp = self.layout.frame_owner[frame]
            marks = self.flipped_essential[comp]
            texts = self._mark_texts[comp]
            for bit in _set_bits(toggled):
                addr = (frame, bit)
                i = bisect_left(marks, addr)
                if i < len(marks) and marks[i] == addr:
                    del marks[i], texts[i]
                else:
                    marks.insert(i, addr)
                    texts.insert(i, repr(addr))
            self.version += 1
            self._pieces.pop(comp, None)

    def flip_bit(self, frame: int, bit: int) -> None:
        self.flip_bits(frame, 1 << bit)

    def restore_frame(self, frame: int) -> None:
        if self.errors[frame]:
            self.flip_bits(frame, self.errors[frame])

    def restore_component(self, name: str) -> None:
        for f in self.layout.comp_frames[name]:
            self.restore_frame(f)

    def restore_all(self) -> None:
        for f in _set_bits(self.dirty):
            self.restore_frame(f)

    # only tests write single words; the benchmark's tracer patches it
    def write_word(self, frame: int, word: int, value: int) -> None:
        """Write a 32-bit word: a value, so it reads the golden copy."""
        shift = word * WORD_BITS
        current = (self.layout.golden[frame] ^ self.errors[frame]) >> shift
        self.flip_bits(frame, ((current ^ value) & WORD_MASK) << shift)

    # -- queries ------------------------------------------------------------

    def healthy(self, name: str) -> bool:
        """No essential bit of component `name` is flipped."""
        return not self.flipped_essential[name]

    def corruption_tag(self, name: str) -> int:
        """Deterministic 63-bit tag of the component's flipped essential
        bits (blake2b of `repr(sorted(marks))`), computed on every call;
        `fault_state` calls it only when its piece memo misses."""
        text = "[" + ", ".join(self._mark_texts[name]) + "]"
        digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
        return int.from_bytes(digest, "big") >> 1

    def fault_state(self) -> str:
        """`str(sorted((n, corruption_tag(n)) for each unhealthy n))`,
        joined from the memoized pieces in `Layout.sorted_names` order."""
        pieces = []
        for name in self.layout.sorted_names:
            if self.flipped_essential[name]:
                piece = self._pieces.get(name)
                if piece is None:
                    piece = self._pieces[name] = repr(
                        (name, self.corruption_tag(name)))
                pieces.append(piece)
        return "[" + ", ".join(pieces) + "]"


# ---------------------------------------------------------------------------
# corruption and voting


# the fault model's definition: the test oracle draws its masks with it
def corrupt_samples(correct: np.ndarray, tag: int) -> np.ndarray:
    """Deterministic corruption: XOR with a nonzero tag-seeded mask."""
    rng = np.random.Generator(np.random.PCG64(tag))
    mask = rng.integers(1, 1 << 31, size=correct.size, dtype=np.int64)
    return correct ^ mask


VOTE_UNANIMOUS = 0
VOTE_CORRECTED = 1
VOTE_UNCORRECTABLE = 2


# off the datapath; criterion 3 and `cotsim verify` check the voter
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

    def acquire(self, owner: str, on_grant) -> None:
        if self.owner == owner or any(o == owner for o, _ in self.queue):
            raise InvariantViolation(f"re-entrant ICAP request by {owner!r}")
        if self.owner is None:
            self._grant(owner, on_grant)
        else:
            self.queue.append((owner, on_grant))

    def release(self, owner: str) -> None:
        if self.owner != owner:
            raise InvariantViolation(
                f"{owner!r} released ICAP it does not hold")
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


class Scrubber:
    """Cyclic frame scan with per-frame repair through the ICAP.

    replace mode reloads the golden frame; enhanced_repair corrects up to
    one flipped bit per 32-bit word and reports (but does not fix)
    multi-bit words, in one pass over the words of the frame's error
    pattern (`ConfigMemory.errors`) and one frame write
    (`ConfigMemory.flip_bits`).  The stored parity is the golden word's
    and SECDED is linear, so a word's verdict depends only on its error e:
    one bit is "corrected" to golden (the fix is e), two are "double".
    Only words with 3 or more flipped bits, which the decoder may
    miscorrect, go through `secded_decode`, as the word g ^ e against the
    parity encoded from its golden word g there; none is cached.

    The scan ticks every scan_period_us from the start of its chain (node
    start, and the end of each reset), and no tick is an engine event.  As
    an event, tick k would have the key (t_k, t_k - scan_period_us, slot):
    scheduled by tick k - 1, after everything tick k - 1 scheduled
    itself.  The scrubber keeps its next tick's key as `watch_key`
    (`SimEngine.add_watcher`), reserving the slot at the point where the
    last tick would have scheduled it, so a tick sorts among same-time
    events exactly as a scheduled one would: the first tick of a chain
    before a campaign injection at the same time, a tick after a repair
    that the previous tick started and that ends at the same time.

    Just before each event that sorts after the next tick, the engine
    calls `advance` with its clock at that tick.  If `_plan` says the
    tick finds damage, `advance` runs it (`step`); otherwise it accounts
    by arithmetic for the ticks before the event or before the planned
    one, whichever comes first.  While the controller is functional,
    each tick sends a heartbeat stamped with its time and, while no
    repair is in progress, moves the pointer on by one frame; nothing
    else those ticks read changes between two events.

    While a repair is in progress or the controller is dead, the
    scrubber is `asleep`: no tick finds damage or moves the pointer, and
    a tick reads only the health of cms_ctrl and wd_link, to stamp a
    heartbeat with its own time.  An input that passes it uncalled
    (`cotsim.engine`) is accounted for by the same arithmetic.
    """

    def __init__(self, node: "FpgaNode"):
        self.node = node
        self.mem = node.mem
        self.mode = node.arch.scrub_mode
        self.period = node.arch.scan_period_us
        self.pointer = 0
        self.repair_frame: int | None = None
        # frame -> its error pattern when enhanced repair last left it dirty
        self.known_uncorrectable: dict[int, int] = {}
        self.detections = 0
        self.repairs = 0
        self.uncorrectable = 0  # enhanced repairs that left the frame dirty
        self.start: int | None = None  # tick 0 of the chain
        self.ticks_done = 0  # ticks of the chain accounted so far
        # key of tick ticks_done + 1; None in reset
        self.watch_key: tuple | None = None
        node.engine.add_watcher(self)

    def start_chain(self) -> None:
        self.start = self.node.engine.now
        self.ticks_done = 0
        self._next_tick()

    def _next_tick(self) -> None:
        """Key the next tick as if the last tick had just scheduled it."""
        t = self.start + (self.ticks_done + 1) * self.period
        self.watch_key = (t, t - self.period, self.node.engine.reserve_slot())

    @property
    def asleep(self) -> bool:
        return self.repair_frame is not None or \
            not self.mem.healthy("cms_ctrl")

    def _plan(self) -> int | None:
        """The next tick that will find damage: the first whose frame is
        dirty with errors not already known to be uncorrectable, while
        the controller is functional and no repair is in progress (bit k
        of the candidates rotated right by the pointer: k ticks ahead)."""
        if self.asleep:
            return None
        m, errors = self.mem.dirty, self.mem.errors
        for f, error in self.known_uncorrectable.items():
            if errors[f] == error:
                m &= ~(1 << f)
        n, p = self.mem.layout.n_frames, self.pointer
        r = m >> p | m << (n - p) & ((1 << n) - 1)
        return self.ticks_done + (r & -r).bit_length() if r else None

    def advance(self, bound: tuple) -> None:
        """Run the next tick if it finds damage; otherwise account for
        every tick that sorts before the event keyed `bound` and before
        the one that will find damage."""
        plan = self._plan()
        if plan == self.ticks_done + 1:
            self.step()
            return
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
        if plan is not None:
            last = min(last, plan - 1)
        skipped = last - self.ticks_done
        self.ticks_done = last
        if self.mem.healthy("cms_ctrl"):
            self.node.heartbeat(self.start + last * self.period)
            if self.repair_frame is None:
                self.pointer = ((self.pointer + skipped)
                                % self.mem.layout.n_frames)
        self._next_tick()

    def step(self) -> None:
        """The tick that finds damage (`_plan`): detect the frame at the
        pointer and start its repair."""
        self.ticks_done += 1
        self.node.heartbeat(self.node.engine.now)
        self.repair_frame = self.pointer
        self.pointer = (self.pointer + 1) % self.mem.layout.n_frames
        self.detections += 1
        self.node.icap.acquire("cms", self._on_grant)
        self._next_tick()

    def _on_grant(self) -> None:
        self.node.after(self.node.arch.frame_repair_latency_us,
                        self.finish_repair, self.repair_frame)

    def finish_repair(self, frame: int) -> None:
        if self.mode == "replace":
            self.mem.restore_frame(frame)
            self.repairs += 1
        else:
            self._enhanced_repair(frame)
        self.repair_frame = None
        self.node.icap.release("cms")

    def _enhanced_repair(self, frame: int) -> None:
        damaged = self.mem.errors[frame]
        fix = 0  # every bit the repair flips, over the whole frame
        while damaged:  # highest damaged word first
            shift = (damaged.bit_length() - 1) // WORD_BITS * WORD_BITS
            error = damaged >> shift
            damaged &= (1 << shift) - 1
            weight = error.bit_count()
            if weight == 1:  # decodes "corrected", to golden
                fix ^= error << shift
            elif weight > 2:  # weight 2 decodes "double": no fix
                golden = self.mem.layout.golden[frame] >> shift & WORD_MASK
                word = golden ^ error
                value, status = secded_decode(word, secded_encode(golden))
                if status == "corrected":
                    fix ^= (value ^ word) << shift
        if fix:
            self.mem.flip_bits(frame, fix)
        left = self.mem.errors[frame]
        if left:  # still differs from golden: some word had 2+ flipped bits
            self.uncorrectable += 1
            self.known_uncorrectable[frame] = left
        else:
            self.repairs += 1
            self.known_uncorrectable.pop(frame, None)

    def reset(self) -> None:
        """End the tick chain; the node starts a new one after the reset."""
        self.watch_key = None
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
    region transfer.  In every DPR architecture the controller also
    rotates blindly over the reloadable regions, one request every
    dpr_blind_period_us (`FpgaNode.start`); with TMR the vote's reload
    requests come on top (`WindowWatcher`).
    """

    def __init__(self, node: "FpgaNode"):
        self.node = node
        self.mem = node.mem
        self.queue: deque[str] = deque()
        self.active: str | None = None
        # never empty: every architecture has fir_0
        self.rotation = [c.name for c in node.arch.components if c.reloadable]
        self.rotation_idx = 0
        self.reloads = 0

    def request_reload(self, comp: str) -> None:
        if (self.mem.healthy("dpr_ctrl") and comp in self.rotation
                and comp != self.active and comp not in self.queue):
            self.queue.append(comp)
            self._pump()

    def blind_step(self) -> None:
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
            self.mem.layout.components[self.active].size_bytes())
        self.node.after(duration, self.finish_reload, self.active)

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

    def check(self) -> None:
        node = self.node
        if node.engine.now - self.last_heartbeat > node.arch.wd_timeout_us:
            node.full_reset()


# ---------------------------------------------------------------------------
# measurement windows


def first_window_after(window_us: int, key: tuple) -> int:
    """The time of the first measurement window that sorts after `key`,
    an engine key.  A window at W (a positive multiple of window_us) sorts
    like an input at W, which the key (W, 1, -1) does: after the events
    at W scheduled at time 0 and an injection at W, before every event
    scheduled later (`cotsim.engine`)."""
    t = max(-(-key[0] // window_us), 1) * window_us
    return t + window_us if (t, 1, -1) <= key else t


class WindowWatcher:
    """The TMR vote's reload requests, raised at every measurement window
    as the window once raised them: the observer effect.

    The node's health log arms it (`arm`) while the requests are
    non-empty, `dpr_ctrl` is healthy and the node is not in reset, and
    it then ticks at every window.  A tick that queues no reload changes
    nothing, so the watcher does not try to skip such ticks.  It pays
    one call per window while armed, which shows only when window_us is
    far below period_us, and `evaluate_window` walks every window anyway."""

    asleep = False  # its ticks queue reloads

    def __init__(self, node: "FpgaNode", window_us: int):
        self.node = node
        self.window = window_us
        self.requests: list[str] = []
        self.watch_key: tuple | None = None
        node.engine.add_watcher(self)

    def arm(self, requests: list[str], key: tuple) -> None:
        """Raise `requests` at every window after `key`; none: disarm."""
        self.requests = requests
        self.watch_key = ((first_window_after(self.window, key), 1, -1)
                          if requests else None)

    def advance(self, _bound: tuple) -> None:
        for comp in self.requests:
            self.node.dpr.request_reload(comp)
        self.watch_key = (self.watch_key[0] + self.window, 1, -1)


# ---------------------------------------------------------------------------
# node


class FpgaNode:
    """Event-driven FPGA model wired onto a simulation engine.

    Every event of the node is a call scheduled with `after` and run by
    `_handle`, which drops it if a full reset came in between (the epoch
    moved).  The event carries the time it was scheduled at, which places
    its health-log entry.  Periodic work (the blind DPR rotation and the
    watchdog check) is a chain of such events (`_every`).

    `health_log` holds one entry per change of `mem.version` or
    `in_reset`, checked after each event and, through `log_change`, after
    each injection: (time, scheduled_at, in_reset, output correct?,
    `mem.fault_state()` if not, the text the window hash formats).  Its first
    entry is the healthy node at construction.  Given `window_us`, the
    node classifies its measurement windows from the log after the run
    (`evaluate_window`); with DPR and TMR it also registers a
    `WindowWatcher`, which raises the reload requests at each window."""

    def __init__(self, engine: SimEngine, arch: ArchConfig,
                 window_us: int | None = None):
        self.engine = engine
        self.arch = arch
        self.mem = ConfigMemory(arch.components)
        self.icap = IcapArbiter()
        self.scrubber = Scrubber(self) if arch.cms else None
        self.dpr = DprController(self) if arch.dpr else None
        self.wd = Watchdog(self) if arch.wd else None
        self.window_us = window_us
        self.windows = (WindowWatcher(self, window_us)
                        if window_us and arch.dpr and arch.tmr else None)
        self.in_reset = False
        self.epoch = 0  # the number of full resets so far
        self.health_log: list[tuple] = []
        self._logged: tuple | None = None  # (mem.version, in_reset)
        self.log_change()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Start the periodic chains: the scan, the blind DPR rotation and
        the watchdog check."""
        if self.scrubber is not None:
            self.scrubber.start_chain()
        if self.dpr is not None:
            self._every(self.arch.dpr_blind_period_us, self.dpr.blind_step)
        if self.wd is not None:
            self.wd.last_heartbeat = self.engine.now
            self._every(self.arch.wd_timeout_us // 2, self.wd.check)

    def close(self) -> None:
        """Drop the references that close cycles (node -> engine -> heap ->
        bound actions and watcher -> node, parts -> node), so a finished
        run is freed as soon as it is dropped.  The node's counts and
        reports stay readable; it cannot run again."""
        self.engine = None
        for part in (self.scrubber, self.dpr, self.wd, self.windows):
            if part is not None:
                part.node = None

    def after(self, delay: int, action, *args) -> None:
        """Call `action(*args)` `delay` us from now, unless a full reset
        comes first."""
        self.engine.schedule_in(delay, self._handle, self.epoch,
                                self.engine.now, action, args)

    def _handle(self, epoch: int, scheduled_at: int, action,
                args: tuple) -> None:
        if epoch == self.epoch:  # else stale: from before a full reset
            action(*args)
            self.log_change(scheduled_at)

    def _every(self, period: int, action) -> None:
        """Call `action()` every `period` us from now, until a full reset."""
        self.after(period, self._tick, period, action)

    def _tick(self, period: int, action) -> None:
        action()
        # in the epoch after the action, so a watchdog check that resets
        # keeps a chain beside `_finish_reset`'s; pinned outputs have both
        # (ROADMAP item 4)
        self.after(period, self._tick, period, action)

    def log_change(self, scheduled_at: int = 0) -> None:
        """Append a `health_log` entry if `mem.version` or `in_reset`
        moved since the last one, placed at the clock and `scheduled_at`
        (an injection counts as scheduled at time 0), and arm the window
        watcher from it."""
        mem = self.mem
        logged = (mem.version, self.in_reset)
        if logged == self._logged:
            return
        self._logged = logged
        if self.in_reset:
            correct, requests, state = False, [], None
        else:
            correct, requests = self._datapath()
            state = None if correct else mem.fault_state()
        now = self.engine.now
        self.health_log.append((now, scheduled_at, self.in_reset, correct,
                                state))
        if self.windows is not None:
            self.windows.arm(requests if mem.healthy("dpr_ctrl") else [],
                             (now, scheduled_at, 0))

    def heartbeat(self, at_us: int) -> None:
        # a corrupted status channel loses the heartbeat
        if self.wd is not None and self.mem.healthy("wd_link"):
            self.wd.last_heartbeat = at_us

    # -- reset --------------------------------------------------------------

    def full_reset(self) -> None:
        """Reboot from stored configuration: node is down for the reload."""
        if self.in_reset:
            return
        self.in_reset = True
        self.epoch += 1  # invalidates every pending repair/reload/periodic
        self.icap.reset()
        if self.scrubber is not None:
            self.scrubber.reset()
        if self.dpr is not None:
            self.dpr.reset()
        self.after(reload_duration_us(self.mem.layout.n_frames * FRAME_BYTES),
                   self._finish_reset)

    def _finish_reset(self) -> None:
        self.mem.restore_all()
        self.in_reset = False
        self.start()

    # -- datapath -----------------------------------------------------------

    def _datapath(self) -> tuple[bool, list[str]]:
        """(output correct?, repair requests), from component health alone
        (see the module docstring)."""
        healthy = self.mem.healthy
        if not self.arch.tmr:
            return healthy("fir_0"), []
        correct = healthy("voter_in") and healthy("voter_out") and (
            healthy("fir_0") or healthy("fir_1") and healthy("fir_2"))
        faulty = [name for name in FIR_REPLICAS if not healthy(name)]
        if len(faulty) > 1:  # every sample's vote is uncorrectable
            faulty = list(FIR_REPLICAS)
        return correct, faulty

    def evaluate_window(self, state_seed: int, end_us: int) -> list[str]:
        """Classify every window, at window_us, 2 window_us, ..., end_us,
        as down, erroneous or correct, in one merge of the windows with
        the health log after the run.

        A window reads the last entry that sorts before it
        (`first_window_after`).  In reset it is down.  A wrong output
        maps to "down" (hang) or "erroneous" (garbage) as a deterministic
        pseudo-random function of the window time and the entry's fault
        state, calibrated by arch.app_down_fraction: the blake2b of
        f"{state_seed}:{time}:{state}", bit for bit, fed in pieces to a
        copy of one state that has taken in f"{state_seed}:" (a copy
        skips a state set-up per window).
        """
        w, log = self.window_us, self.health_log
        n = end_us // w
        # the index of the first window that reads each entry
        starts = [first_window_after(w, (t, s, 0)) // w for t, s, *_ in log]
        times = number_texts(w, n * w + 1, w)  # window k's is times[k - 1]
        seeded = hashlib.blake2b(f"{state_seed}:".encode(), digest_size=8)
        down_below = _down_below(self.arch.app_down_fraction)
        classes: list[str] = []
        for (_t, _s, in_reset, correct, state), lo, hi in zip(
                log, starts, starts[1:] + [n + 1]):
            hi = min(hi, n + 1)
            if in_reset or correct:
                classes += ["down" if in_reset else "correct"] * (hi - lo)
                continue
            text = f":{state}".encode()
            for time in times[lo - 1:hi - 1].tolist():
                h = seeded.copy()
                h.update(time)
                h.update(text)
                classes.append("down" if h.digest() < down_below
                               else "erroneous")
        return classes


@functools.lru_cache(maxsize=16)  # one entry per app_down_fraction in use
def _down_below(fraction: float) -> bytes:
    """The 8-byte big-endian bound under which a window digest d maps to
    down, that is int(d) / 2**64 < fraction.  Rounded division by 2**64
    never decreases as d grows, so those digests are exactly the ones
    below the smallest x with x / 2**64 >= fraction."""
    lo, hi = 0, 2**64 - 1  # fraction <= 1.0 == (2**64 - 1) / 2**64
    while lo < hi:
        mid = (lo + hi) // 2
        if mid / 2**64 < fraction:
            lo = mid + 1
        else:
            hi = mid
    return lo.to_bytes(8, "big")
