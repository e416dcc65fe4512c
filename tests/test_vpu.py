"""VPU node tests: kernel oracles, workload partitioning, tile checksums,
raw-stream draws and the three recovery techniques."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from cotsim import vpu
from cotsim.crc import crc16_ccitt
from cotsim.vpu import (KERNELS, N_WORKERS, Tile, VpuNode, WorkloadError,
                        binning2d, conv2d, error_rate, golden_output,
                        partition_workload)

# conv2d's fixed weights, [1, 2, 1] x [1, 2, 1] / 16
CONV_WEIGHTS = np.outer([1, 2, 1], [1, 2, 1]) / 16


def conv_oracle(image, kernel):
    """Independent double-loop convolution with zero padding."""
    h, w = image.shape
    out = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            acc = 0.0
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    ii, jj = i + di, j + dj
                    if 0 <= ii < h and 0 <= jj < w:
                        acc += kernel[di + 1, dj + 1] * image[ii, jj]
            out[i, j] = acc
    return out


def test_conv2d_matches_double_loop_oracle():
    rng = np.random.default_rng(0)
    image = rng.integers(0, 1024, size=(8, 8)).astype(np.uint16)
    got = golden_output(image, "conv2d")
    want = conv_oracle(image, CONV_WEIGHTS)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def float_conv2d(tile, pad_top, pad_bottom):
    """The float convolution conv2d replaced: nine multiply-add passes of
    the weights over a zero-padded float64 copy of the tile."""
    work = np.asarray(tile, dtype=np.float64)
    if pad_top:
        work = np.vstack([np.zeros((1, work.shape[1])), work])
    if pad_bottom:
        work = np.vstack([work, np.zeros((1, work.shape[1]))])
    work = np.hstack([np.zeros((work.shape[0], 1)), work,
                      np.zeros((work.shape[0], 1))])
    out = np.zeros((work.shape[0] - 2, work.shape[1] - 2))
    for di in range(3):
        for dj in range(3):
            out += CONV_WEIGHTS[di, dj] * work[di:di + out.shape[0],
                                               dj:dj + out.shape[1]]
    return out


def float_binning2d(tile):
    """The float binning binning2d replaced: the block mean, rounded
    half-up."""
    h, w = tile.shape
    blocks = tile.reshape(h // 2, 2, w // 2, 2)
    means = blocks.astype(np.float64).mean(axis=(1, 3))
    return np.floor(means + 0.5).astype(np.int64)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 10), st.integers(1, 10), st.booleans(), st.booleans(),
       st.data())
@example(3, 4, False, False, None)  # one output row, no edge
@example(1, 2, True, True, None)
def test_integer_kernels_equal_the_float_kernels(rows, cols, pad_top,
                                                 pad_bottom, data):
    """Byte equality on any uint16 tile, full-scale pixels included."""
    shape = (rows, cols)
    tile = (np.full(shape, 65535, dtype=np.uint16) if data is None
            else data.draw(arrays(np.uint16, shape)))
    if rows + pad_top + pad_bottom >= 3:
        got = conv2d(tile, pad_top, pad_bottom)
        want = float_conv2d(tile, pad_top, pad_bottom)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    if rows % 2 == 0 and cols % 2 == 0:
        got, want = binning2d(tile), float_binning2d(tile)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_kernels_reject_non_integer_pixels(dtype):
    tile = np.full((4, 4), 0.5, dtype=dtype)
    with pytest.raises(WorkloadError):
        conv2d(tile, True, True)
    with pytest.raises(WorkloadError):
        binning2d(tile)


def test_conv2d_rejects_pixels_wider_than_uint16():
    with pytest.raises(WorkloadError):
        conv2d(np.full((4, 4), 1 << 28, dtype=np.int64), True, True)


def test_binning_matches_block_mean_oracle():
    image = np.array([[1, 2, 10, 10],
                      [3, 4, 10, 11],
                      [0, 0, 255, 255],
                      [0, 1, 255, 254]])
    got = binning2d(image)
    # block means 2.5, 10.25, 0.25, 254.75 rounded half-up
    assert got.tolist() == [[3, 10], [0, 255]]


def test_binning_rejects_odd_tiles():
    with pytest.raises(WorkloadError):
        binning2d(np.zeros((3, 4)))


def test_kernel_registry():
    # (halo rows, input rows per output row) of each kernel
    assert KERNELS == {"conv2d": (1, 1), "binning2d": (0, 2)}
    with pytest.raises(WorkloadError):
        golden_output(np.zeros((4, 4)), "fft")


# -- partitioning -----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(0, 1), st.integers(1, 2),
       st.integers(0, 2**31))
def test_partition_covers_image_once(workers, halo, row_unit, seed):
    rng = np.random.default_rng(seed)
    height = row_unit * int(rng.integers(workers, 40))
    image = rng.integers(0, 1024, size=(height, 8)).astype(np.uint16)
    tiles = partition_workload(image, workers, halo=halo, row_unit=row_unit)
    assert len(tiles) == workers
    assert tiles[0].row_start == 0 and tiles[-1].row_end == height
    heights = []
    for prev, cur in zip(tiles, tiles[1:]):
        assert cur.row_start == prev.row_end
    for t in tiles:
        heights.append(t.row_end - t.row_start)
        assert heights[-1] % row_unit == 0
        lo = max(0, t.row_start - halo)
        hi = min(height, t.row_end + halo)
        assert np.array_equal(t.data, image[lo:hi])
    assert max(heights) - min(heights) <= row_unit


def test_partition_rejects_bad_geometry():
    image = np.zeros((6, 4), dtype=np.uint16)
    with pytest.raises(WorkloadError):
        partition_workload(image, 0)
    with pytest.raises(WorkloadError):
        partition_workload(image, 12)  # fewer rows than workers
    with pytest.raises(WorkloadError):
        partition_workload(np.zeros((5, 4)), 2, row_unit=2)


def test_tile_crc_detects_any_change():
    image = np.arange(96, dtype=np.uint16).reshape(12, 8)
    tile, verified = (partition_workload(image, 4)[1] for _ in range(2))
    tile.verified = verified
    assert tile.crc_ok() and verified.crc is None  # equal bytes: no CRC
    tile.data[0, 0] ^= 1
    assert not tile.crc_ok()
    assert verified.crc == crc16_ccitt(verified.payload())


# -- reuse of the reference output -------------------------------------------


def run_kernel(kernel, tile, height):
    """The kernel run directly on one tile, as a worker would without the
    reference."""
    if kernel == "conv2d":
        return conv2d(tile.data, tile.row_start - tile.halo < 0,
                      tile.row_end + tile.halo > height)
    return binning2d(tile.data)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["conv2d", "binning2d"]), st.integers(12, 40),
       st.integers(1, 20), st.integers(0, 2**31))
def test_kernel_on_each_tile_equals_the_reference_rows(kernel, height, width,
                                                        seed):
    """Row-locality, bit for bit, for every tiling a node uses: the 12-way
    DMA and the NMR stripes of n = 1, 3 and 5 (12, 4 and 2 parts)."""
    halo, unit = KERNELS[kernel]
    height, width = height * unit, width * unit  # binning: whole blocks
    rng = np.random.default_rng(seed)
    image = rng.integers(0, 1 << 16, size=(height, width)).astype(np.uint16)
    reference = golden_output(image, kernel)
    for parts in (N_WORKERS, 4, 2):
        for tile in partition_workload(image, parts, halo=halo,
                                       row_unit=unit):
            rows = reference[tile.row_start // unit:tile.row_end // unit]
            direct = run_kernel(kernel, tile, height)
            assert direct.dtype == rows.dtype and direct.shape == rows.shape
            assert direct.tobytes() == rows.tobytes()


@pytest.mark.parametrize("kernel", ["conv2d", "binning2d"])
def test_a_tile_off_the_reference_input_gets_its_own_output(kernel):
    node = make_node(kernel)
    height = node.golden_input.shape[0]
    reference = golden_output(node.golden_input, kernel)
    halo, unit = KERNELS[kernel]
    tiles = node.dma_tiles()
    for tile in tiles:  # untouched tiles take the reference rows
        got = node.worker_execute(tile.worker, tile)
        assert got.tobytes() == reference[tile.row_start // unit:
                                          tile.row_end // unit].tobytes()
    tile = tiles[5]
    tile.data[2, 3] ^= 0x200  # one pixel, inside the tile's own rows
    got = node.worker_execute(5, tile)
    rows = reference[tile.row_start // unit:tile.row_end // unit]
    assert got.tobytes() == run_kernel(kernel, tile, height).tobytes()
    assert got.tobytes() != rows.tobytes()
    # the retained input is not what the reference was computed from
    node.golden_input[tiles[7].row_start, 0] ^= 0x200
    restored = partition_workload(node.golden_input, N_WORKERS,
                                  halo=halo, row_unit=unit)[7]
    got = node.worker_execute(7, restored)
    assert got.tobytes() == run_kernel(kernel, restored, height).tobytes()
    assert got.tobytes() != reference[restored.row_start // unit:
                                      restored.row_end // unit].tobytes()


def test_a_tile_cut_unlike_the_nodes_gets_its_own_output():
    node = make_node("conv2d")
    for tile in partition_workload(node.golden_input, N_WORKERS, halo=0):
        got = node.worker_execute(tile.worker, tile)  # no halo rows
        want = run_kernel("conv2d", tile, node.golden_input.shape[0])
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


# -- golden worker code -------------------------------------------------------


def instr_image_generator(worker_id):
    """The original per-byte generator the numpy image must match."""
    return bytes((worker_id * 37 + i * 11) & 0xFF
                 for i in range(vpu.INSTR_BYTES))


def test_instr_images_match_the_byte_generator():
    for w in range(N_WORKERS):
        assert vpu._instr_image(w) == instr_image_generator(w)
        assert vpu.GOLDEN_INSTR[w] == instr_image_generator(w)
        assert vpu.INSTR_CRC_BASELINE[w] == \
            crc16_ccitt(instr_image_generator(w))


def test_workers_get_fresh_mutable_copies():
    a, b = make_node(), make_node()
    a.corrupt_instr(4, [(7, 0xFF)])
    assert a.worker_impaired(4) and not b.worker_impaired(4)
    assert vpu.GOLDEN_INSTR[4] == instr_image_generator(4)
    a.restore_instr(4)
    assert not a.worker_impaired(4)


# -- raw-stream draws ----------------------------------------------------------


class CountingPCG64(np.random.PCG64):
    """PCG64 that counts its `random_raw` calls."""

    def __init__(self, seed):
        super().__init__(seed)
        self.raw_calls = 0

    def random_raw(self, size=None, output=True):
        self.raw_calls += 1
        return super().random_raw(size, output)


def nonzero_le_bytes(tag, n):
    """The first n nonzero bytes of PCG64(tag)'s raw 64-bit draws, each
    draw taken least significant byte first."""
    out = bytearray()
    bitgen = np.random.PCG64(tag)
    while len(out) < n:
        word = int(bitgen.random_raw())
        out += bytes(b for b in word.to_bytes(8, "little") if b)
    return bytes(out[:n])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**63 - 1),
       st.one_of(st.just(1), st.integers(1, 40).map(lambda k: 2 * k + 1),
                 st.integers(1, 5000)))
@example(0, 1)
def test_nonzero_bytes_equal_numpys_bounded_uint8_draw(tag, n):
    """The mask of corrupt_stripe, pinned to numpy's draw and to the
    raw stream's little-endian bytes; a numpy upgrade that changes
    either fails here."""
    got = vpu._nonzero_bytes(np.random.PCG64(tag), n)
    want = np.random.Generator(np.random.PCG64(tag)).integers(
        1, 256, size=n, dtype=np.uint8)
    assert got.dtype == np.uint8 and got.tobytes() == want.tobytes()
    assert got.tobytes() == nonzero_le_bytes(tag, n)


def test_nonzero_bytes_draw_again_when_a_zero_byte_falls_short():
    # the first tag whose first raw draw holds a zero byte: 8 bytes need
    # a second draw
    tag = next(t for t in range(100_000)
               if 0 in int(np.random.PCG64(t).random_raw()).to_bytes(8,
                                                                  "little"))
    bitgen = CountingPCG64(tag)
    got = vpu._nonzero_bytes(bitgen, 8)
    assert bitgen.raw_calls == 2 and 0 not in got
    want = np.random.Generator(np.random.PCG64(tag)).integers(
        1, 256, size=8, dtype=np.uint8)
    assert got.tobytes() == want.tobytes() == nonzero_le_bytes(tag, 8)


# -- plain execution --------------------------------------------------------


def make_node(kernel="conv2d", size=64, seed=0):
    rng = np.random.default_rng(seed)
    image = rng.integers(0, 1024, size=(size, size)).astype(np.uint16)
    return VpuNode(image, kernel)


@pytest.mark.parametrize("kernel", ["conv2d", "binning2d"])
def test_clean_run_equals_golden(kernel):
    node = make_node(kernel)
    out, latency = node.run_plain(node.dma_tiles())
    assert error_rate(out, golden_output(node.golden_input, kernel)) == 0.0
    assert latency > 0


def test_impaired_worker_garbles_only_its_stripe():
    node = make_node("conv2d")
    node.corrupt_instr(5, [(100, 0xFF)])
    assert node.worker_impaired(5)
    tiles = node.dma_tiles()
    out, _ = node.run_plain(tiles)
    golden = golden_output(node.golden_input, "conv2d")
    wrong_rows = np.unique(np.nonzero(out != golden)[0])
    t = tiles[5]
    assert set(wrong_rows) <= set(range(t.row_start, t.row_end))
    assert len(wrong_rows) > 0


def test_cmx_capacity_enforced():
    big = np.zeros((1024, 1024), dtype=np.uint16)  # 2 MB twice over
    with pytest.raises(vpu.VpuError):
        VpuNode(big, "conv2d")


# -- instruction memory recovery --------------------------------------------


def test_imr_recovers_and_restores_golden_code():
    node = make_node("conv2d")
    for w in (2, 7, 11):
        node.corrupt_instr(w, [(0, 0x80), (100, 0x01)])
    out, report = node.imr_run(node.dma_tiles())
    assert error_rate(out, golden_output(node.golden_input, "conv2d")) == 0.0
    assert report.impaired == [2, 7, 11]
    assert report.redispatched == [2, 7, 11]
    assert report.reschedule_us == vpu.RESCHEDULE_US
    for w in range(N_WORKERS):
        assert not node.worker_impaired(w)


def test_imr_no_faults_is_overhead_only():
    node = make_node("binning2d")
    out, report = node.imr_run(node.dma_tiles())
    assert report.impaired == [] and report.reschedule_us == 0
    assert error_rate(out, golden_output(node.golden_input, "binning2d")) == 0


def test_imr_all_workers_impaired_degraded_path():
    node = make_node("conv2d")
    for w in range(N_WORKERS):
        node.corrupt_instr(w, [(w, 0x5A)])
    out, report = node.imr_run(node.dma_tiles())
    assert report.degraded_mode
    assert error_rate(out, golden_output(node.golden_input, "conv2d")) == 0.0


@pytest.mark.parametrize("k", [1, 5, 11, 12])
def test_imr_runs_every_tile_exactly_once(monkeypatch, k):
    """An impaired worker's tile runs only on its stand-in (k < 12), or,
    with no functional worker left, once on its own restored worker."""
    node = make_node("conv2d")
    impaired = sorted((5 * i) % N_WORKERS for i in range(k))
    for w in impaired:
        node.corrupt_instr(w, [(w, 0x5A)])
    calls = []
    real = VpuNode.worker_execute

    def counted(self, worker_id, tile):
        calls.append((worker_id, tile.worker))
        return real(self, worker_id, tile)

    monkeypatch.setattr(VpuNode, "worker_execute", counted)
    out, report = node.imr_run(node.dma_tiles())
    assert len(calls) == N_WORKERS
    assert sorted(tile for _, tile in calls) == list(range(N_WORKERS))
    if k < N_WORKERS:
        assert not any(worker in impaired for worker, _ in calls)
        assert report.redispatched == impaired
    else:
        assert calls == [(w, w) for w in range(N_WORKERS)]
    assert error_rate(out, golden_output(node.golden_input, "conv2d")) == 0.0


def count_crcs(monkeypatch) -> list[int]:
    """Patch the CRC the node calls; return the list of payload sizes."""
    calls = []

    def counted(data):
        calls.append(len(data))
        return crc16_ccitt(data)

    monkeypatch.setattr(vpu, "crc16_ccitt", counted)
    return calls


@pytest.mark.parametrize("k", [0, 1, 5, 12])
def test_imr_computes_a_crc_only_for_impaired_workers(monkeypatch, k):
    """Code equal to the golden copy has the baseline CRC; only the k
    impaired workers' code is checked, and exactly they are flagged."""
    node = make_node("conv2d")
    impaired = sorted((5 * i) % N_WORKERS for i in range(k))
    for w in impaired:
        node.corrupt_instr(w, [(w, 0x5A)])
    calls = count_crcs(monkeypatch)
    _, report = node.imr_run(node.dma_tiles())
    assert calls == [vpu.INSTR_BYTES] * k
    assert report.impaired == impaired


# -- data memory recovery ---------------------------------------------------


def test_dmr_restores_corrupted_tiles():
    node = make_node("conv2d")
    tiles = node.dma_tiles()
    tiles[3].data[:, :] ^= 0x1F
    tiles[8].data[0, 0] ^= 1
    out, report = node.dmr_run(tiles)
    assert report.impaired == [3, 8]
    assert report.redispatched == [3, 8]
    assert not report.unrecoverable_input
    assert error_rate(out, golden_output(node.golden_input, "conv2d")) == 0.0


@pytest.mark.parametrize("damaged", [(), (3,), (0, 5, 11)])
def test_dmr_computes_a_crc_only_where_tile_bytes_differ(monkeypatch,
                                                          damaged):
    """An intact tile holds its verified copy's bytes and passes with no
    CRC; a damaged tile costs its own CRC and its copy's seal, and its
    restored copy, equal to the verified bytes, passes with none."""
    node = make_node("conv2d")
    calls = count_crcs(monkeypatch)
    tiles = node.dma_tiles()
    for w in damaged:
        tiles[w].data[0, 0] ^= 1
    out, report = node.dmr_run(tiles)
    assert len(calls) == 2 * len(damaged)
    assert report.impaired == list(damaged)
    assert not report.unrecoverable_input
    assert error_rate(out, golden_output(node.golden_input, "conv2d")) == 0.0


def test_dmr_detects_pre_dma_ddr_corruption():
    node = make_node("conv2d")
    node.ddr_input[10, :] ^= 0x33  # working copy damaged before the DMA
    tiles = node.dma_tiles()
    out, report = node.dmr_run(tiles)
    assert report.impaired  # checksum from the verified copy catches it
    assert error_rate(out, golden_output(node.golden_input, "conv2d")) == 0.0


def test_dmr_all_tiles_corrupted_still_recovers():
    node = make_node("binning2d")
    tiles = node.dma_tiles()
    for t in tiles:
        t.data[:, :] ^= 0x7
    out, report = node.dmr_run(tiles)
    assert len(report.impaired) == N_WORKERS
    assert error_rate(out, golden_output(node.golden_input, "binning2d")) == 0


def test_dmr_flags_unrecoverable_golden_input():
    node = make_node("conv2d")
    tiles = node.dma_tiles()
    tiles[0].data[0, 0] ^= 1
    node.golden_input[0, 0] ^= 1  # the retained copy is damaged too
    out, report = node.dmr_run(tiles)
    assert report.unrecoverable_input


def test_dmr_stand_in_rotation_counts_unrecoverable_tiles():
    """Bad tiles 0 (unrecoverable) and 3: tile 3 is the second bad tile,
    so it goes to stand-in functional[1], whose code is corrupted."""
    node = make_node("conv2d")
    tiles = node.dma_tiles()
    tiles[0].data[0, 0] ^= 1
    node.golden_input[0, 0] ^= 1  # the retained copy of tile 0 is damaged
    tiles[3].data[:, :] ^= 0x1F
    functional = [w for w in range(N_WORKERS) if w not in (0, 3)]
    node.corrupt_instr(functional[1], [(100, 0xFF)])
    restored = partition_workload(node.golden_input, N_WORKERS, halo=1)[3]
    garbled = node.worker_execute(functional[1], restored)
    out, report = node.dmr_run(tiles)
    assert report.unrecoverable_input and report.redispatched == [3]
    stripe = out[restored.row_start:restored.row_end]
    assert stripe.tobytes() == garbled.tobytes()
    assert stripe.tobytes() != golden_output(node.golden_input, "conv2d")[
        restored.row_start:restored.row_end].tobytes()


@pytest.mark.parametrize("damaged", [(), (3,), (0, 5, 11)])
def test_dmr_cuts_a_restored_tile_only_for_each_damaged_worker(monkeypatch,
                                                               damaged):
    node = make_node("conv2d")
    tiles = node.dma_tiles()
    for w in damaged:
        tiles[w].data[0, 0] ^= 1
    cut = []
    real_tile, real_partition = vpu.Tile, vpu.partition_workload

    def tile(worker, *rest):
        cut.append(worker)
        return real_tile(worker, *rest)

    def partition(*args, **kwargs):
        cut.append("partition")
        return real_partition(*args, **kwargs)

    monkeypatch.setattr(vpu, "Tile", tile)
    monkeypatch.setattr(vpu, "partition_workload", partition)
    out, report = node.dmr_run(tiles)
    assert cut == list(damaged) and report.redispatched == list(damaged)
    assert error_rate(out, golden_output(node.golden_input, "conv2d")) == 0.0


def test_a_node_on_a_sealed_partition_cuts_only_its_working_copy(
        monkeypatch):
    """A node given its read-only image's sealed partition keeps the image,
    uncopied, as its reference input, and its DMA cuts only the working
    DDR copy.  The tiles carry the seals, so a DMR run computes just the
    damaged tile's own CRC.  A writable image is copied."""
    image = make_node().golden_input
    node = VpuNode(image, "conv2d")
    assert not np.shares_memory(node._ref_input, image)
    image.flags.writeable = False
    partition = vpu.sealed_partition(image, "conv2d")
    for tile in partition:
        assert not tile.data.flags.writeable
        assert tile.crc == crc16_ccitt(tile.payload())
    node = VpuNode(image, "conv2d", partition=partition)
    assert node._ref_input is image
    cuts = []
    real = vpu.partition_workload
    monkeypatch.setattr(vpu, "partition_workload",
                        lambda *args, **kw: cuts.append(args[0]) or
                        real(*args, **kw))
    calls = count_crcs(monkeypatch)
    tiles = node.dma_tiles()
    assert len(cuts) == 1 and cuts[0] is node.ddr_input
    assert all(t.verified is ref for t, ref in zip(tiles, partition))
    tiles[4].data[0, 0] ^= 1
    out, report = node.dmr_run(tiles)
    assert calls == [len(tiles[4].payload())] and report.impaired == [4]
    assert error_rate(out, golden_output(image, "conv2d")) == 0.0


# -- N modular redundancy ---------------------------------------------------


def test_nmr_group_shapes():
    groups3, unused3 = VpuNode.nmr_groups(3)
    assert groups3 == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]]
    assert unused3 == []
    groups5, unused5 = VpuNode.nmr_groups(5)
    assert groups5 == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]
    assert unused5 == [10, 11]
    with pytest.raises(vpu.VpuError):
        VpuNode.nmr_groups(4)


@pytest.mark.parametrize("kernel", ["conv2d", "binning2d"])
def test_nmr_one_impairment_per_group_masked(kernel):
    node = make_node(kernel)
    for w in (0, 3, 6, 9):
        node.corrupt_instr(w, [(50, 0xAA)])
    out, report = node.nmr_run(3)
    assert error_rate(out, golden_output(node.golden_input, kernel)) == 0.0
    assert report.flagged_pixels == 0


def test_nmr_two_impairments_in_one_group_fail_locally():
    node = make_node("conv2d")
    node.corrupt_instr(0, [(1, 0x11)])
    node.corrupt_instr(1, [(2, 0x22)])
    out, report = node.nmr_run(3)
    golden = golden_output(node.golden_input, "conv2d")
    assert error_rate(out, golden) > 0
    assert report.flagged_pixels > 0
    stripes = partition_workload(node.ddr_input, 4, halo=1)
    wrong_rows = np.unique(np.nonzero(out != golden)[0])
    group0 = set(range(stripes[0].row_start, stripes[0].row_end))
    assert set(wrong_rows) <= group0


def test_nmr_n5_masks_two_impairments_per_group():
    node = make_node("binning2d")
    for w in (0, 1, 5, 6):
        node.corrupt_instr(w, [(3, 0x0F)])
    out, report = node.nmr_run(5)
    assert error_rate(out, golden_output(node.golden_input, "binning2d")) == 0
    assert report.unused == [10, 11]


def every_member_vote(node, n):
    """NMR as each member computing and the supervisor voting on every
    group: `_pixel_majority` over each member's `worker_execute`."""
    groups, _unused = node.nmr_groups(n)
    stripes = partition_workload(node.ddr_input, len(groups),
                                 halo=node.halo, row_unit=node.row_unit)
    votes = [vpu._pixel_majority([node.worker_execute(w, stripe)
                                  for w in group])
             for group, stripe in zip(groups, stripes)]
    return (np.vstack([voted for voted, _ in votes]),
            sum(flagged for _, flagged in votes))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["conv2d", "binning2d"]), st.sampled_from([1, 3, 5]),
       st.frozensets(st.integers(0, N_WORKERS - 1)))
# every count of impaired members per group, 0..n, for each n
@example("conv2d", 1, frozenset(range(0, N_WORKERS, 2)))
@example("binning2d", 3, frozenset({3, 6, 7, 9, 10, 11}))
@example("conv2d", 5, frozenset({5, 6, 7, 8, 9}))
@example("binning2d", 5, frozenset({0, 5, 6, 7, 8, 10}))
@example("conv2d", 5, frozenset({0, 1, 5, 6, 7, 11}))
def test_nmr_votes_only_where_a_vote_can_change_a_pixel(kernel, n, impaired):
    """`nmr_run` gives the output and flagged count of the every-member
    vote, and garbles and votes only in groups with at most n // 2
    unimpaired members."""
    node = make_node(kernel, size=48)
    for w in impaired:
        node.corrupt_instr(w, [(41 * w, 0xA5)])
    want, want_flagged = every_member_vote(node, n)
    groups, _unused = node.nmr_groups(n)
    outvoted = [g for g in groups
                if len(set(g) - impaired) <= n // 2]
    garbles, votes = [], []
    real_garble, real_vote = vpu.corrupt_stripe, vpu._pixel_majority
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vpu, "corrupt_stripe",
                   lambda *a: garbles.append(1) or real_garble(*a))
        mp.setattr(vpu, "_pixel_majority",
                   lambda outs: votes.append(1) or real_vote(outs))
        out, report = node.nmr_run(n)
    assert out.dtype == want.dtype and out.shape == want.shape
    assert out.tobytes() == want.tobytes()
    assert report.flagged_pixels == want_flagged
    assert len(votes) == len(outvoted)
    assert len(garbles) == sum(len(impaired & set(g)) for g in outvoted)


def sort_vote(outputs):
    """The sort-based vote: the per-pixel median of the bit patterns wins
    if more than half the members hold it, else member 0, flagged."""
    n = len(outputs)
    itemsize = outputs[0].dtype.itemsize
    stack = np.stack([o.view(f"<u{itemsize}") for o in outputs])
    median = np.sort(stack, axis=0)[n // 2]
    majority = (stack == median).sum(axis=0) > n // 2
    voted = np.where(majority, median, stack[0]).view(outputs[0].dtype)
    return voted, int(np.count_nonzero(~majority))


# bit patterns that equal-by-value comparisons would confuse or reject
VOTE_VALUES = {
    np.float64: [0.0, -0.0, np.nan, 1.5, 5e-324, np.inf],
    np.int64: [0, -1, 1, 2**62, -2**63, 7],
}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([1, 3, 5]), st.sampled_from([np.float64, np.int64]),
       st.data())
def test_pixel_majority_equals_the_sort_based_vote(n, dtype, data):
    # each pixel: free labels (ties, majorities) or n distinct labels
    pixel = st.one_of(
        st.lists(st.integers(0, 2), min_size=n, max_size=n),
        st.permutations(range(n)))
    cols = data.draw(st.integers(1, 4))
    labels = np.array(data.draw(st.lists(pixel, min_size=cols,
                                         max_size=3 * cols)))
    rows = len(labels) // cols
    labels = labels[:rows * cols].T.reshape(n, rows, cols)
    values = np.array(VOTE_VALUES[dtype], dtype=dtype)
    outputs = [values[member] for member in labels]
    voted, flagged = vpu._pixel_majority(outputs)
    want, want_flagged = sort_vote(outputs)
    assert voted.dtype == want.dtype and voted.shape == want.shape
    assert voted.tobytes() == want.tobytes() and flagged == want_flagged


def test_pixel_majority_flags_no_majority_and_ties():
    a, b, c, d, e = (np.array([v]) for v in (1.0, 2.0, 3.0, 4.0, 5.0))
    assert vpu._pixel_majority([a, b, c])[1] == 1  # all distinct
    voted, flagged = vpu._pixel_majority([c, a, a, b, b])  # 2-2-1 tie
    assert flagged == 1 and voted.tolist() == [3.0]
    voted, flagged = vpu._pixel_majority([d, a, a, e, a])
    assert flagged == 0 and voted.tolist() == [1.0]


def test_error_rate_shape_check():
    with pytest.raises(vpu.VpuError):
        error_rate(np.zeros((2, 2)), np.zeros((3, 3)))
