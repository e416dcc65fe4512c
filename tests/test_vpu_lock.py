"""Output lock for VPU trials and the IMR/DMR recovery paths.

`vpu_error_rates.csv` rounds error rates to two decimals and drops
latency, rescheduling and vote counts, so it cannot tell a changed trial
from an unchanged one. Each trial case here pins sha256 of
`repr(dataclasses.asdict(report))` and, separately, sha256 of the output
image the trial scored (dtype, shape and bytes). Each recovery case pins
the output, the whole `RecoveryReport` (`redispatched`,
`unrecoverable_input`, latencies) and the workers' instruction memories
after the run.

Regenerate only for an intended output change:

    PYTHONPATH=src python tests/test_vpu_lock.py
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from cotsim import harness
from cotsim.vpu import N_WORKERS, VpuNode

TRIAL_CASES = [(kernel, ft, n, seed)
               for kernel in ("conv2d", "binning2d")
               for ft in ("none", "imr", "dmr", "nmr")
               for n in (0, 3, 12)
               for seed in (0, 1)]


def _trial_id(kernel, ft, n, seed) -> str:
    return f"{kernel}-{ft}-n{n}-s{seed}"


def _array_bytes(a: np.ndarray) -> bytes:
    header = f"{a.dtype.str}{a.shape}".encode()
    return header + np.ascontiguousarray(a).tobytes()


def trial_digests(kernel, ft, n, seed) -> tuple[str, str]:
    """(report digest, output digest) of one `run_vpu_trial`."""
    outputs = []
    real = harness.error_rate

    def capture(output, golden):
        outputs.append(output)
        return real(output, golden)

    harness.error_rate = capture
    try:
        report = harness.run_vpu_trial(kernel, ft, n, seed)
    finally:
        harness.error_rate = real
    assert len(outputs) == 1
    return (hashlib.sha256(
                repr(dataclasses.asdict(report)).encode()).hexdigest(),
            hashlib.sha256(_array_bytes(outputs[0])).hexdigest())


def _fixture_node() -> tuple[VpuNode, list]:
    """The node of `test_dmr_flags_unrecoverable_golden_input`: tile 0
    damaged after the DMA, and the retained input damaged too."""
    rng = np.random.default_rng(0)
    image = rng.integers(0, 1024, size=(64, 64)).astype(np.uint16)
    node = VpuNode(image, "conv2d")
    tiles = node.dma_tiles()
    tiles[0].data[0, 0] ^= 1
    node.golden_input[0, 0] ^= 1
    return node, tiles


def _run_recovery(case: str):
    node, tiles = _fixture_node()
    if case == "dmr-unrecoverable":
        return node, node.dmr_run(tiles)
    if case == "dmr-recoverable":
        node.golden_input[0, 0] ^= 1  # undo: the retained copy is intact
        tiles[3].data[:, :] ^= 0x1F
        tiles[8].data[1, 2] ^= 4
        return node, node.dmr_run(tiles)
    if case == "imr-some":
        for w in (2, 7, 11):
            node.corrupt_instr(w, [(w * 100, 0x80), (4095, 0x01)])
        return node, node.imr_run(tiles)
    if case == "imr-all":
        for w in range(N_WORKERS):
            node.corrupt_instr(w, [(w, 0x5A)])
        return node, node.imr_run(tiles)
    raise KeyError(case)


RECOVERY_CASES = ["dmr-unrecoverable", "dmr-recoverable", "imr-some",
                  "imr-all"]


def recovery_digest(case: str) -> str:
    node, (out, report) = _run_recovery(case)
    h = hashlib.sha256(_array_bytes(out))
    h.update(repr(dataclasses.asdict(report)).encode())
    for worker in node.workers:
        h.update(bytes(worker.instr_mem))
    return h.hexdigest()


TRIAL_DIGESTS = {
    'conv2d-none-n0-s0': (
        '2bc9a80800a95716592f7c1393dc8cfb7af44d8893cd539225abb972c7e40b1e',
        'b9bb82d70b2f9c30791ac548618c52773df15fad75c08044be7d69c847a9aa01'),
    'conv2d-none-n0-s1': (
        '2bc9a80800a95716592f7c1393dc8cfb7af44d8893cd539225abb972c7e40b1e',
        '16a6e870de59b3e77716602c38a8d306d084b591c519bffb7cba76432b96956f'),
    'conv2d-none-n3-s0': (
        '962d50e02b0d95688c1d3f9500b391fdb49d3418b4ccf8b93966e2ffc592a8bd',
        '4e40b7a008117277042b9dc571c8de11b884415db6b114e5a02de610a0581bfe'),
    'conv2d-none-n3-s1': (
        'c0dd933e9fb0b05b1dfaff9e5c9c867d3097d0fd9d743f7c2855d417c34333f5',
        '6a615ec4c9931ef9b63a67dfcae6d2c866ceb9ce0a41d4710d2de2d10258f412'),
    'conv2d-none-n12-s0': (
        'c5e96ea752337f8f1ab302130e0c1581afcab2515857531ebfab19f600f5881d',
        'b8117c094e62c8171528a01bbcc81e7a6cb0c11665715cf44fb893ed4bd9126d'),
    'conv2d-none-n12-s1': (
        '3957900cc93cc9582d1a0d301606d2e495b54b319c0fe04682bd6700109fd174',
        '2cf1e7faa11ebe2758073a249ce572e41e27f6191c8784c7c76d4b7995cc0cb6'),
    'conv2d-imr-n0-s0': (
        'be4cc4f6a0cd30d61332d02f2f526b03bcb09c083f4d398640b9c3e6d8966dbd',
        'b9bb82d70b2f9c30791ac548618c52773df15fad75c08044be7d69c847a9aa01'),
    'conv2d-imr-n0-s1': (
        'be4cc4f6a0cd30d61332d02f2f526b03bcb09c083f4d398640b9c3e6d8966dbd',
        '16a6e870de59b3e77716602c38a8d306d084b591c519bffb7cba76432b96956f'),
    'conv2d-imr-n3-s0': (
        '76e7fa363bd0e0135cc33e4e8adc92c8f16132f70ef5416817fdca843ed2762a',
        'b9bb82d70b2f9c30791ac548618c52773df15fad75c08044be7d69c847a9aa01'),
    'conv2d-imr-n3-s1': (
        'a971d52b72bc10d536a31bcad869f239b55ae10da3675b406a72ae2255dc62ca',
        '16a6e870de59b3e77716602c38a8d306d084b591c519bffb7cba76432b96956f'),
    'conv2d-imr-n12-s0': (
        '0366ee5847e4a7f5d534a92c8f8ab69d04714fe8a40d7f59dd420777aed41ee4',
        'b9bb82d70b2f9c30791ac548618c52773df15fad75c08044be7d69c847a9aa01'),
    'conv2d-imr-n12-s1': (
        '0366ee5847e4a7f5d534a92c8f8ab69d04714fe8a40d7f59dd420777aed41ee4',
        '16a6e870de59b3e77716602c38a8d306d084b591c519bffb7cba76432b96956f'),
    'conv2d-dmr-n0-s0': (
        'b0b3d71ce69498dc5a41c226f3b9c32d5542969d80e702f8bec3f90533ecfc1d',
        'b9bb82d70b2f9c30791ac548618c52773df15fad75c08044be7d69c847a9aa01'),
    'conv2d-dmr-n0-s1': (
        'b0b3d71ce69498dc5a41c226f3b9c32d5542969d80e702f8bec3f90533ecfc1d',
        '16a6e870de59b3e77716602c38a8d306d084b591c519bffb7cba76432b96956f'),
    'conv2d-dmr-n3-s0': (
        '01b00d2c9e77443516b6061a0227dd58c72be17c6d7293c2e2c4a15181f95d04',
        'b9bb82d70b2f9c30791ac548618c52773df15fad75c08044be7d69c847a9aa01'),
    'conv2d-dmr-n3-s1': (
        '570447665484454dfc905d648b9102194ae6c610633b87727bde94d05f24fd24',
        '16a6e870de59b3e77716602c38a8d306d084b591c519bffb7cba76432b96956f'),
    'conv2d-dmr-n12-s0': (
        'a206246de31439c7d2a467870b4dc8b0eee465e6d41ea9fd8d8f0c8e9a321719',
        'b9bb82d70b2f9c30791ac548618c52773df15fad75c08044be7d69c847a9aa01'),
    'conv2d-dmr-n12-s1': (
        'a206246de31439c7d2a467870b4dc8b0eee465e6d41ea9fd8d8f0c8e9a321719',
        '16a6e870de59b3e77716602c38a8d306d084b591c519bffb7cba76432b96956f'),
    'conv2d-nmr-n0-s0': (
        '2e29aee6a8a939f29276c275233cf3d37da412ae7ec2d4cc0714daeee5e2b6f5',
        'b9bb82d70b2f9c30791ac548618c52773df15fad75c08044be7d69c847a9aa01'),
    'conv2d-nmr-n0-s1': (
        '2e29aee6a8a939f29276c275233cf3d37da412ae7ec2d4cc0714daeee5e2b6f5',
        '16a6e870de59b3e77716602c38a8d306d084b591c519bffb7cba76432b96956f'),
    'conv2d-nmr-n3-s0': (
        '4c639c701ce4bff249785e7c85c288c3047b857f7a160805a34edbf3c220e8f2',
        '5d119114d417a33142e90a6bec4b1103c4066605f36f3709ca1c63be4c3a67f9'),
    'conv2d-nmr-n3-s1': (
        'fffd1b6ca065239b6d70e55585d0e79d70c4e76b83b7abc68c8b5072ac43211d',
        '2c1a839578cc305fd273576a939c828b72dfc21dd1f4a0b318bd6e8cf9a73ed9'),
    'conv2d-nmr-n12-s0': (
        '40700c0578c784ad41f301e7b5222f56d79c2991a584a6200190be5e1a2017c4',
        'f85503a8abf7cb233e51800d20c2aa7bf46f1becfa22346acd0885dd41b47739'),
    'conv2d-nmr-n12-s1': (
        '40700c0578c784ad41f301e7b5222f56d79c2991a584a6200190be5e1a2017c4',
        '3e3a3cc16be8371e48b74593a661ca50f4cb626e302272d5337d09034c0d1e6d'),
    'binning2d-none-n0-s0': (
        'fdb741beae7b84e4cceb66741cce01b8d658c955a45abfb9b8be2d26de0a6e80',
        '87f0101c151ece64cf0e4acde6e182ffe0a7cd24d0dc5d418e1f757ada88cd56'),
    'binning2d-none-n0-s1': (
        'fdb741beae7b84e4cceb66741cce01b8d658c955a45abfb9b8be2d26de0a6e80',
        'f134145b5284b344f8fcc4c73be14df35c05422f2206374000ff2a19146eafa8'),
    'binning2d-none-n3-s0': (
        'a6f4f255b959b4bd5aa5be0fdb170cd7816578d60739e7e184da3b292a05f0a1',
        '747825e68377824695ebbb3ae6a3b111074567fff1f7416c0670601012243270'),
    'binning2d-none-n3-s1': (
        'b01007589fe9194328240c5af150b8ddd6320bdb7b47ac344532a5423cf8c9b5',
        '16bf0baf9839e76091340ef246ca7ef79cdd323dcce9e44f01eebd4811e57096'),
    'binning2d-none-n12-s0': (
        '19cfdb039c994038b8bb63c5417bc24a0da1431320e3126299315080b126389b',
        '3110a32ddf8696b2cd4dd42f51eb967b823fc14e13c5a403bd75a581fe9b7086'),
    'binning2d-none-n12-s1': (
        '4ab49678f8f94fe6b09163096d601629631169e53097f2c309f91d0538a89c72',
        'dc6f8c457adad1be88b2f89a23abfd90b721d9f0d42bf9d31ba1292788337d3e'),
    'binning2d-imr-n0-s0': (
        '5357ff5b8d76a77adc8cd03c567cdedb3a5df733c09a81a4280d4b5d3ab88edf',
        '87f0101c151ece64cf0e4acde6e182ffe0a7cd24d0dc5d418e1f757ada88cd56'),
    'binning2d-imr-n0-s1': (
        '5357ff5b8d76a77adc8cd03c567cdedb3a5df733c09a81a4280d4b5d3ab88edf',
        'f134145b5284b344f8fcc4c73be14df35c05422f2206374000ff2a19146eafa8'),
    'binning2d-imr-n3-s0': (
        '929d7d3873e41c70544ed60f2e4c4597258f73b8ea0361fccd33aa4f86bcab07',
        '87f0101c151ece64cf0e4acde6e182ffe0a7cd24d0dc5d418e1f757ada88cd56'),
    'binning2d-imr-n3-s1': (
        'e6ce4595e9e45717e8daeb17749d913f21ecdc9ba3310a66c782176e9f9b75e5',
        'f134145b5284b344f8fcc4c73be14df35c05422f2206374000ff2a19146eafa8'),
    'binning2d-imr-n12-s0': (
        '4d0e96ae69e7c9bedd00d22e38c8d685ad6ba6c28f6e1ff17928d4f91d27a116',
        '87f0101c151ece64cf0e4acde6e182ffe0a7cd24d0dc5d418e1f757ada88cd56'),
    'binning2d-imr-n12-s1': (
        '4d0e96ae69e7c9bedd00d22e38c8d685ad6ba6c28f6e1ff17928d4f91d27a116',
        'f134145b5284b344f8fcc4c73be14df35c05422f2206374000ff2a19146eafa8'),
    'binning2d-dmr-n0-s0': (
        '4d300bc263285b8cd4ba0fbcee5768a3cf59c6a14cbae6a2c57a9b329584e385',
        '87f0101c151ece64cf0e4acde6e182ffe0a7cd24d0dc5d418e1f757ada88cd56'),
    'binning2d-dmr-n0-s1': (
        '4d300bc263285b8cd4ba0fbcee5768a3cf59c6a14cbae6a2c57a9b329584e385',
        'f134145b5284b344f8fcc4c73be14df35c05422f2206374000ff2a19146eafa8'),
    'binning2d-dmr-n3-s0': (
        '3ff303ea315c52a89f698ce085222c4d2765950394c88783e3b65e98981dd5fb',
        '87f0101c151ece64cf0e4acde6e182ffe0a7cd24d0dc5d418e1f757ada88cd56'),
    'binning2d-dmr-n3-s1': (
        'd34fd26f45aa14314b08328b56a1d17de045bed18911a0b6478ea67e87ccab98',
        'f134145b5284b344f8fcc4c73be14df35c05422f2206374000ff2a19146eafa8'),
    'binning2d-dmr-n12-s0': (
        '450b74c87ac383cb4e8ffbb553a5d25cb85587cbd9986c1528965e3251bf6bfc',
        '87f0101c151ece64cf0e4acde6e182ffe0a7cd24d0dc5d418e1f757ada88cd56'),
    'binning2d-dmr-n12-s1': (
        '450b74c87ac383cb4e8ffbb553a5d25cb85587cbd9986c1528965e3251bf6bfc',
        'f134145b5284b344f8fcc4c73be14df35c05422f2206374000ff2a19146eafa8'),
    'binning2d-nmr-n0-s0': (
        '5df490740280a09f12ab3eff9428128fd6db3f4eb5b82af2e8387c233de42231',
        '87f0101c151ece64cf0e4acde6e182ffe0a7cd24d0dc5d418e1f757ada88cd56'),
    'binning2d-nmr-n0-s1': (
        '5df490740280a09f12ab3eff9428128fd6db3f4eb5b82af2e8387c233de42231',
        'f134145b5284b344f8fcc4c73be14df35c05422f2206374000ff2a19146eafa8'),
    'binning2d-nmr-n3-s0': (
        'c86e0fedd472313387778a8c0b413b2feed1b618a85a70a0f11363354b92f9f1',
        '4e0a6c69939e902c07b7207e0a06cfbd910393de7b591bb84be6c7a3035f0867'),
    'binning2d-nmr-n3-s1': (
        'a571171da878bd0413fd69fa885600541ae4d9a64253eb4c0d97338a6b685e46',
        'ed6f44dd1908847e7299374ff452111aaf2518d2f661f43f236e63da7b3e2203'),
    'binning2d-nmr-n12-s0': (
        'b68f06ee22ad726812a7fa70b6a5b468cff217cac7cdd4b4a05f1d03646f0676',
        '463b2018f20ece2ddb94c65a2b2f69f7c49b4a0ce052f3576589ba00fd2a287d'),
    'binning2d-nmr-n12-s1': (
        'b68f06ee22ad726812a7fa70b6a5b468cff217cac7cdd4b4a05f1d03646f0676',
        '014f09188e183635f4c34ff26ee47f5e1a6eed6de482b3fa913362fa9ad38871'),
}

RECOVERY_DIGESTS = {
    'dmr-unrecoverable':
        '1e301ab833d2bb3886c808d27c7b0cdabf4c3d2685bf6cb93b2f1249b2f99ae1',
    'dmr-recoverable':
        '82635aeec4a0e96c70d6058e35baa8ac990c8991dc478949a82fc6919bf53312',
    'imr-some':
        'b354034a026c871876e0d7452e0603c26c85d2965bc04036252fdf468255db03',
    'imr-all':
        '336ceffd884b9175b1ca9124e8e6004784d3f0cd6a68fe9dd1051a548653a225',
}


@pytest.mark.parametrize("kernel,ft,n,seed", TRIAL_CASES,
                         ids=[_trial_id(*c) for c in TRIAL_CASES])
def test_vpu_trial_lock(kernel, ft, n, seed):
    assert trial_digests(kernel, ft, n, seed) == \
        TRIAL_DIGESTS[_trial_id(kernel, ft, n, seed)]


@pytest.mark.parametrize("case", RECOVERY_CASES)
def test_vpu_recovery_lock(case):
    assert recovery_digest(case) == RECOVERY_DIGESTS[case]


def test_recovery_fixture_reports():
    """The locked fixture exercises the fields the lock is meant to cover."""
    _, (_, unrecoverable) = _run_recovery("dmr-unrecoverable")
    assert unrecoverable.unrecoverable_input
    assert unrecoverable.impaired == [0] and unrecoverable.redispatched == []
    _, (_, recoverable) = _run_recovery("dmr-recoverable")
    assert recoverable.redispatched == [0, 3, 8]
    _, (_, degraded) = _run_recovery("imr-all")
    assert degraded.degraded_mode


if __name__ == "__main__":
    print("TRIAL_DIGESTS = {")
    for case in TRIAL_CASES:
        report_d, output_d = trial_digests(*case)
        print(f"    {_trial_id(*case)!r}: (\n        {report_d!r},\n"
              f"        {output_d!r}),")
    print("}\n\nRECOVERY_DIGESTS = {")
    for case in RECOVERY_CASES:
        print(f"    {case!r}:\n        {recovery_digest(case)!r},")
    print("}")
