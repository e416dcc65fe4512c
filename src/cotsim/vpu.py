"""Simulated VPU node: a supervisor core orchestrating 12 worker cores over
DDR plus a 2 MB scratchpad, with CRC-based instruction/data recovery and
N-modular redundancy.

Workers are logically parallel but executed sequentially in fixed id
order, so runs are deterministic.  Timing is synthetic: reports carry
latencies derived from configured per-task constants, not measurements.

Each kernel output is computed once per node.  The node holds the
whole-image reference output (`golden_output`) and the read-only input
it was computed from.  A worker whose tile holds exactly those input
rows (one array compare) takes the reference's rows for the tile; only
a tile whose data differs is run through the kernel.  This is exact,
bit for bit: both kernels are row-local (an output row reads only its
own input rows and their halo, zero padded only at the image edges) and
exact integer arithmetic, so an output pixel does not depend on the
tiling.  An NMR group with more than n // 2 unimpaired members emits
that output with no vote, since those members agree on every pixel.

A checksum is computed only where bytes differ from the copy it is of
(equal bytes, equal CRC).  Trials that share one image share its
verified partition (`sealed_partition`), cut and sealed once and
read-only; a node without one cuts its retained copy at the DMA and
seals a tile only where a check reads it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from cotsim.crc import crc16_ccitt

N_WORKERS = 12
CMX_BYTES = 2 * 1024 * 1024
INSTR_BYTES = 4096

# synthetic task-time constants (reported, not measured)
CRC_CHECK_US = 8_000
RESCHEDULE_US = 40_000
KERNEL_US_PER_PIXEL = 0.25
VOTE_US_PER_PIXEL = 0.01
DMA_US = 100


class VpuError(Exception):
    pass


class WorkloadError(VpuError):
    """Bad image geometry for the requested partitioning or kernel."""


# ---------------------------------------------------------------------------
# kernels


def conv2d(tile: np.ndarray, pad_top: bool, pad_bottom: bool) -> np.ndarray:
    """3x3 convolution with the [1,2,1] x [1,2,1] / 16 kernel over a
    halo-extended tile, as float64.

    The tile carries one real halo row on each side that is not a global
    image edge; pad_top/pad_bottom mark edge sides (zero padded there).
    Columns are always zero padded.  Output rows are the tile's own rows,
    halo excluded.  The integer sum (a row pass and a column pass over one
    zero-padded buffer) divided by 16 once is bit for bit the float
    convolution term by term: on uint16 pixels every float partial sum
    is an exact multiple of 1/16 below 2**20.  Other pixel types are
    rejected, not truncated.
    """
    tile = np.asarray(tile)
    if not np.can_cast(tile.dtype, np.uint16):
        raise WorkloadError(f"conv2d needs uint16 pixels, not {tile.dtype}")
    h, w = tile.shape
    top = int(pad_top)
    work = np.zeros((h + top + int(pad_bottom), w + 2), dtype=np.int32)
    if len(work) < 3:
        raise WorkloadError("tile is missing its halo rows")
    work[top:top + h, 1:-1] = tile
    rows = work[:, :-2] + work[:, 2:]
    rows += 2 * work[:, 1:-1]
    out = rows[:-2] + rows[2:]
    out += 2 * rows[1:-1]
    return out / 16


def binning2d(tile: np.ndarray) -> np.ndarray:
    """Averaging 2x2 binning: block mean rounded half-up to an integer
    pixel, taken exactly as (block sum + 2) >> 2.  Non-integer pixels are
    rejected, not truncated."""
    tile = np.asarray(tile)
    h, w = tile.shape
    if h % 2 or w % 2:
        raise WorkloadError(f"tile {h}x{w} not divisible by binning factor 2")
    if tile.dtype.kind not in "iu":
        raise WorkloadError(f"binning2d needs integer pixels, not {tile.dtype}")
    work = tile.astype(np.int64)
    out = work[0::2, 0::2] + work[0::2, 1::2]
    out += work[1::2, 0::2]
    out += work[1::2, 1::2]
    out += 2
    out >>= 2
    return out


# kernel name -> (halo rows per side, input rows per output row); binning
# stripes must hold whole 2x2 blocks
KERNELS = {"conv2d": (1, 1), "binning2d": (0, 2)}


def run_kernel(kernel_name: str, data: np.ndarray, pad_top: bool = True,
               pad_bottom: bool = True) -> np.ndarray:
    """The named kernel on `data`; conv2d zero pads the marked edges."""
    if kernel_name == "conv2d":
        return conv2d(data, pad_top, pad_bottom)
    return binning2d(data)


def golden_output(image: np.ndarray, kernel_name: str) -> np.ndarray:
    """The kernel's whole-image output, zero padded at every edge."""
    if kernel_name not in KERNELS:
        raise WorkloadError(f"unknown kernel {kernel_name!r}")
    return run_kernel(kernel_name, image)


# ---------------------------------------------------------------------------
# workload partitioning


@dataclass
class Tile:
    worker: int
    row_start: int
    row_end: int  # exclusive, output rows of the stripe
    halo: int
    data: np.ndarray  # input stripe including available halo rows
    verified: Tile | None = None  # the copy whose checksum it carries
    crc: int | None = None  # sealed when cut or when a check first reads it

    def payload(self) -> bytes:
        return np.ascontiguousarray(self.data, dtype=">u2").tobytes()

    def crc_ok(self) -> bool:
        """Check against the verified copy's checksum.  Equal bytes have
        equal CRCs, so a tile holding the copy's bytes computes none."""
        ref = self.verified
        if np.array_equal(self.data, ref.data):
            return True
        if ref.crc is None:
            ref.crc = crc16_ccitt(ref.payload())
        return crc16_ccitt(self.payload()) == ref.crc


def partition_workload(image: np.ndarray, workers: int, halo: int = 0,
                       row_unit: int = 1) -> list[Tile]:
    """Contiguous horizontal stripes, heights differing by at most one
    row_unit, with their halo rows duplicated."""
    if workers < 1:
        raise WorkloadError("need at least one worker")
    h = image.shape[0]
    if h % row_unit:
        raise WorkloadError(f"image height {h} not a multiple of {row_unit}")
    units = h // row_unit
    if units < workers:
        raise WorkloadError(f"image height {h} too small for {workers} workers")
    base, extra = divmod(units, workers)
    tiles = []
    row = 0
    for w in range(workers):
        height = (base + (1 if w < extra else 0)) * row_unit
        r0, r1 = row, row + height
        lo = max(0, r0 - halo)
        hi = min(h, r1 + halo)
        tile = Tile(worker=w, row_start=r0, row_end=r1, halo=halo,
                    data=image[lo:hi].copy())
        tiles.append(tile)
        row = r1
    return tiles


def sealed_partition(image: np.ndarray, kernel_name: str) -> tuple[Tile, ...]:
    """The kernel's 12-way DMA partition of `image`, cut once for every
    node that computes on it: each tile's data is read-only and its
    checksum is sealed now."""
    halo, unit = KERNELS[kernel_name]
    tiles = partition_workload(image, N_WORKERS, halo, unit)
    for tile in tiles:
        tile.data.flags.writeable = False
        tile.crc = crc16_ccitt(tile.payload())
    return tuple(tiles)


# ---------------------------------------------------------------------------
# fault surface helpers


def _instr_image(worker_id: int) -> bytes:
    return ((worker_id * 37 + np.arange(INSTR_BYTES) * 11) & 0xFF
            ).astype(np.uint8).tobytes()


# golden worker code and its CRC baselines, the same for every node
GOLDEN_INSTR = tuple(_instr_image(i) for i in range(N_WORKERS))
INSTR_CRC_BASELINE = tuple(crc16_ccitt(g) for g in GOLDEN_INSTR)


def _corruption_tag(payload: bytes) -> int:
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def _nonzero_bytes(bitgen: np.random.BitGenerator, n: int) -> np.ndarray:
    """`np.random.Generator(bitgen).integers(1, 256, size=n, dtype=np.uint8)`,
    bit for bit, from the raw stream.

    numpy draws bounded uint8 by Lemire's method from the 32-bit halves of
    each raw 64-bit draw, low half first, a byte at a time from the least
    significant.  For [1, 256) it rejects exactly the zero bytes and
    returns every other byte unchanged, so the draw is the nonzero bytes
    of the little-endian raw stream."""
    out = b""
    while len(out) < n:
        raw = bitgen.random_raw(-(-(n - len(out)) // 8))
        out += raw.astype("<u8", copy=False).tobytes().replace(b"\0", b"")
    return np.frombuffer(out, dtype=np.uint8, count=n)


def corrupt_stripe(stripe: np.ndarray, tag: int) -> np.ndarray:
    """XOR every byte of a copy of the stripe with a nonzero tag-seeded mask."""
    out = np.array(stripe, order="C")
    flat = out.reshape(-1).view(np.uint8)
    flat ^= _nonzero_bytes(np.random.PCG64(tag), flat.size)
    return out


@dataclass
class WorkerCore:
    id: int
    instr_mem: bytearray


@dataclass
class RecoveryReport:
    impaired: list[int] = field(default_factory=list)
    redispatched: list[int] = field(default_factory=list)
    degraded_mode: bool = False
    unrecoverable_input: bool = False
    crc_check_us: int = CRC_CHECK_US
    reschedule_us: int = 0
    latency_us: float = 0.0


@dataclass
class VoteReport:
    n: int
    groups: list[list[int]]
    unused: list[int]
    flagged_pixels: int = 0
    latency_us: float = 0.0


# ---------------------------------------------------------------------------
# node


class VpuNode:
    """Supervisor plus 12 workers with golden instruction/input copies.

    The golden worker code is the immutable, module-wide `GOLDEN_INSTR`;
    each node's workers run from fresh mutable copies of it.
    `golden_input` is the CRC-verified copy retained at reception, and
    DMR restores damaged tiles from it.  Tile checksums are of the
    verified partition: `partition`, the image's `sealed_partition`, if
    the caller has it, else `golden_input` cut at the DMA.  So
    corruption of the working DDR copy or of a CMX tile is caught by the
    per-tile check.

    `reference` is `golden_output` of the image as uint16, if the caller
    already has it; otherwise the node computes it.  Workers reuse its
    rows (see the module docstring), so it must not be changed later,
    nor must a read-only `image`, which the node keeps, uncopied, as
    the input the reference is of.
    """

    def __init__(self, image: np.ndarray, kernel_name: str,
                 reference: np.ndarray | None = None,
                 partition: tuple[Tile, ...] | None = None):
        if kernel_name not in KERNELS:
            raise WorkloadError(f"unknown kernel {kernel_name!r}")
        self.kernel_name = kernel_name
        self.halo, self.row_unit = KERNELS[kernel_name]
        self.workers = [WorkerCore(i, bytearray(g))
                        for i, g in enumerate(GOLDEN_INSTR)]
        image = np.asarray(image, dtype=np.uint16)
        if 2 * image.nbytes > CMX_BYTES:
            raise VpuError("workload does not fit the 2 MB scratchpad")
        self.ddr_input = image.copy()
        self.golden_input = image.copy()
        self._verified = partition
        # the input the reference is of, out of reach of any fault
        if image.flags.writeable:
            image = image.copy()
            image.flags.writeable = False
        self._ref_input = image
        if reference is None:
            reference = golden_output(image, kernel_name)
        self._ref_output = reference.view()
        self._ref_output.flags.writeable = False

    # -- fault surface ------------------------------------------------------

    def corrupt_instr(self, worker_id: int, offsets_values) -> None:
        mem = self.workers[worker_id].instr_mem
        for off, val in offsets_values:
            mem[off % INSTR_BYTES] ^= (val & 0xFF) or 0x01

    def worker_impaired(self, worker_id: int) -> bool:
        return self.workers[worker_id].instr_mem != GOLDEN_INSTR[worker_id]

    def restore_instr(self, worker_id: int) -> None:
        self.workers[worker_id].instr_mem[:] = GOLDEN_INSTR[worker_id]

    def _partition(self, image: np.ndarray, parts: int) -> list[Tile]:
        return partition_workload(image, parts, halo=self.halo,
                                  row_unit=self.row_unit)

    def dma_tiles(self) -> list[Tile]:
        """Partition the working DDR copy; each tile carries the checksum of
        its verified tile, so pre-DMA corruption is detectable downstream."""
        tiles = self._partition(self.ddr_input, N_WORKERS)
        verified = (self._verified
                    or self._partition(self.golden_input, N_WORKERS))
        for tile, ref in zip(tiles, verified):
            tile.verified = ref
        return tiles

    # -- execution ----------------------------------------------------------

    def _compute_tile(self, tile: Tile) -> np.ndarray:
        """The kernel's output for the tile: the reference rows if the tile
        is cut like the node's own and holds the reference's input rows,
        else the kernel run on the tile's data."""
        unit = self.row_unit
        lo, hi = tile.row_start - tile.halo, tile.row_end + tile.halo
        if (tile.halo == self.halo
                and tile.row_start % unit == 0 and tile.row_end % unit == 0
                and np.array_equal(tile.data, self._ref_input[max(lo, 0):hi])):
            return self._ref_output[tile.row_start // unit:
                                    tile.row_end // unit]
        return run_kernel(self.kernel_name, tile.data, lo < 0,
                          hi > self._ref_input.shape[0])

    def worker_execute(self, worker_id: int, tile: Tile) -> np.ndarray:
        """Run the kernel on one tile.

        Corrupted instructions garble the (otherwise correct) output via a
        deterministic mask; corrupted tile data is processed faithfully
        (garbage in, garbage out).
        """
        return self._emit(worker_id, self._compute_tile(tile))

    def _emit(self, worker_id: int, correct: np.ndarray) -> np.ndarray:
        """What the worker emits for a tile whose output is `correct`."""
        if not self.worker_impaired(worker_id):
            return correct
        tag = _corruption_tag(bytes(self.workers[worker_id].instr_mem))
        return corrupt_stripe(correct, tag)

    def _stripe_time_us(self, tile: Tile) -> float:
        return tile.data.size * KERNEL_US_PER_PIXEL

    def run_plain(self, tiles: list[Tile]) -> tuple[np.ndarray, float]:
        """12-way parallel run with no fault tolerance."""
        out = np.vstack([self.worker_execute(t.worker, t) for t in tiles])
        return out, max(self._stripe_time_us(t) for t in tiles) + DMA_US

    def _redispatch(self, tiles: list[Tile], outputs: dict[int, np.ndarray],
                    redo: list[Tile | None], functional: list[int],
                    report: RecoveryReport) -> np.ndarray:
        """Run redo[i] on stand-in functional[i % len(functional)] (None:
        nothing to run), fill in the report's timing and return the output
        assembled in tile order; `outputs` holds the other tiles' stripes."""
        if redo:
            report.reschedule_us = RESCHEDULE_US
        base_us = max(self._stripe_time_us(t) for t in tiles) + DMA_US
        # degraded mode runs the whole workload a second time
        redo_us = base_us if report.degraded_mode else 0.0
        for i, tile in enumerate(redo):
            if tile is not None:
                outputs[tile.worker] = self.worker_execute(
                    functional[i % len(functional)], tile)
                report.redispatched.append(tile.worker)
                redo_us = max(redo_us, self._stripe_time_us(tile))
        report.latency_us = (base_us + CRC_CHECK_US + report.reschedule_us
                             + redo_us)
        return np.vstack([outputs[t.worker] for t in tiles])

    # -- instruction memory recovery ---------------------------------------

    def imr_run(self, tiles: list[Tile]) -> tuple[np.ndarray, RecoveryReport]:
        """Detect corrupted worker code by CRC, re-dispatch its tiles to
        functional workers, then restore the code from the golden copy.
        With no functional worker left (degraded mode) the code is
        restored first and every tile runs again on its own worker."""
        report = RecoveryReport()
        # code equal to the golden copy has the baseline CRC
        impaired = report.impaired = [
            w.id for w in self.workers if self.worker_impaired(w.id)
            and crc16_ccitt(w.instr_mem) != INSTR_CRC_BASELINE[w.id]]
        functional = [w.id for w in self.workers if w.id not in impaired]
        moved = set(impaired)  # workers whose tiles go to stand-ins
        if not functional:
            for wid in impaired:
                self.restore_instr(wid)
            report.degraded_mode = True
            report.reschedule_us = RESCHEDULE_US
            moved = set()
        outputs = {t.worker: self.worker_execute(t.worker, t)
                   for t in tiles if t.worker not in moved}
        out = self._redispatch(tiles, outputs,
                               [t for t in tiles if t.worker in moved],
                               functional, report)
        for wid in impaired:
            self.restore_instr(wid)
        return out, report

    # -- data memory recovery ----------------------------------------------

    def dmr_run(self, tiles: list[Tile]) -> tuple[np.ndarray, RecoveryReport]:
        """Each worker checks its tile CRC before computing; corrupted
        tiles are restored from the retained verified input and
        rescheduled on the workers whose data passed; a restored tile is
        cut only for a corrupted one.  A tile whose restored data fails
        the check too runs as it is on its own worker, and keeps its
        place in the stand-in rotation."""
        report = RecoveryReport()
        bad = report.impaired = [t.worker for t in tiles if not t.crc_ok()]
        outputs = {t.worker: self.worker_execute(t.worker, t)
                   for t in tiles if t.worker not in bad}
        functional = [t.worker for t in tiles if t.worker not in bad] \
            or list(range(N_WORKERS))
        redo = []
        for wid in bad:
            ref = tiles[wid].verified
            tile = Tile(wid, ref.row_start, ref.row_end, ref.halo,
                        self.golden_input[max(0, ref.row_start - ref.halo):
                                          ref.row_end + ref.halo], ref)
            # restored data must match the checksum sealed at reception,
            # otherwise the retained copy itself has been corrupted
            if tile.crc_ok():
                redo.append(tile)
            else:
                report.unrecoverable_input = True
                outputs[wid] = self.worker_execute(wid, tiles[wid])
                redo.append(None)
        return self._redispatch(tiles, outputs, redo, functional,
                                report), report

    # -- N modular redundancy ----------------------------------------------

    @staticmethod
    def nmr_groups(n: int) -> tuple[list[list[int]], list[int]]:
        if n not in (1, 3, 5):
            raise VpuError(f"unsupported redundancy degree {n}")
        n_groups = N_WORKERS // n
        groups = [list(range(g * n, (g + 1) * n)) for g in range(n_groups)]
        used = n_groups * n
        return groups, list(range(used, N_WORKERS))

    def nmr_run(self, n: int) -> tuple[np.ndarray, VoteReport]:
        """Groups of n workers compute the same stripe; the supervisor
        votes per pixel on the outputs.  No rescheduling, no repair.

        A group with more than n // 2 unimpaired members emits the
        stripe's output unvoted: those members agree on every pixel, so
        the vote would return it with no pixel flagged."""
        groups, unused = self.nmr_groups(n)
        report = VoteReport(n=n, groups=groups, unused=unused)
        stripes = self._partition(self.ddr_input, len(groups))
        pieces = []
        flagged = 0
        for group, stripe in zip(groups, stripes):
            correct = self._compute_tile(stripe)
            if sum(not self.worker_impaired(w) for w in group) > n // 2:
                pieces.append(correct)
                continue
            voted, nflag = _pixel_majority(
                [self._emit(wid, correct) for wid in group])
            flagged += nflag
            pieces.append(voted)
        report.flagged_pixels = flagged
        out = np.vstack(pieces)
        stripe_time = max(self._stripe_time_us(s) for s in stripes)
        report.latency_us = stripe_time + DMA_US + out.size * VOTE_US_PER_PIXEL
        return out, report


def _pixel_majority(outputs: list[np.ndarray]) -> tuple[np.ndarray, int]:
    """Per-pixel majority over bit patterns; no-majority pixels fall back
    to member 0 and are flagged.

    Each member's count of members with its bit pattern (itself
    included) comes from pairwise equalities; a member whose count
    exceeds n // 2 holds the majority, and all such members agree."""
    n = len(outputs)
    itemsize = outputs[0].dtype.itemsize
    bits = [np.ascontiguousarray(o).view(f"<u{itemsize}") for o in outputs]
    counts = [np.ones(bits[0].shape, dtype=np.uint8) for _ in bits]
    for i in range(n):
        for j in range(i + 1, n):
            same = bits[i] == bits[j]
            counts[i] += same
            counts[j] += same
    voted = bits[0].copy()
    majority = counts[0] > n // 2
    for member, count in zip(bits[1:], counts[1:]):
        wins = count > n // 2
        np.copyto(voted, member, where=wins)
        majority |= wins
    return voted.view(outputs[0].dtype), int(np.count_nonzero(~majority))


def error_rate(output: np.ndarray, golden: np.ndarray) -> float:
    """Fraction of pixels differing from the golden image."""
    if output.shape != golden.shape:
        raise VpuError(f"shape mismatch {output.shape} vs {golden.shape}")
    return float(np.count_nonzero(output != golden)) / output.size
