"""VPU node tests: kernel oracles, workload partitioning, tile checksums
and the three recovery techniques."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cotsim import vpu
from cotsim.crc import crc16_ccitt
from cotsim.vpu import (DEFAULT_CONV_KERNEL, N_WORKERS, Tile, VpuNode,
                        WorkloadError, binning2d, conv2d_reference,
                        error_rate, golden_output, kernel_halo,
                        kernel_row_unit, partition_workload)


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
    image = rng.integers(0, 1024, size=(8, 8)).astype(np.float64)
    got = conv2d_reference(image, DEFAULT_CONV_KERNEL)
    assert np.allclose(got, conv_oracle(image, DEFAULT_CONV_KERNEL),
                       atol=1e-12, rtol=0)


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
    assert kernel_halo("conv2d") == 1 and kernel_halo("binning2d") == 0
    assert kernel_row_unit("conv2d") == 1 and kernel_row_unit("binning2d") == 2
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
        assert t.crc == crc16_ccitt(t.payload())
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
    tile = partition_workload(image, 4)[1]
    assert tile.crc_ok()
    tile.data[0, 0] ^= 1
    assert not tile.crc_ok()


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


# -- plain execution --------------------------------------------------------


def make_node(kernel="conv2d", size=64, seed=0):
    rng = np.random.default_rng(seed)
    image = rng.integers(0, 1024, size=(size, size)).astype(np.uint16)
    return VpuNode(image, kernel)


@pytest.mark.parametrize("kernel", ["conv2d", "binning2d"])
def test_clean_run_equals_golden(kernel):
    node = make_node(kernel)
    out, latency = node.run_plain()
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
    out, report = node.imr_run()
    assert error_rate(out, golden_output(node.golden_input, "conv2d")) == 0.0
    assert report.impaired == [2, 7, 11]
    assert report.redispatched == [2, 7, 11]
    assert report.reschedule_us == vpu.RESCHEDULE_US
    for w in range(N_WORKERS):
        assert not node.worker_impaired(w)


def test_imr_no_faults_is_overhead_only():
    node = make_node("binning2d")
    out, report = node.imr_run()
    assert report.impaired == [] and report.reschedule_us == 0
    assert error_rate(out, golden_output(node.golden_input, "binning2d")) == 0


def test_imr_all_workers_impaired_degraded_path():
    node = make_node("conv2d")
    for w in range(N_WORKERS):
        node.corrupt_instr(w, [(w, 0x5A)])
    out, report = node.imr_run()
    assert report.degraded_mode
    assert error_rate(out, golden_output(node.golden_input, "conv2d")) == 0.0


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


def test_error_rate_shape_check():
    with pytest.raises(vpu.VpuError):
        error_rate(np.zeros((2, 2)), np.zeros((3, 3)))
