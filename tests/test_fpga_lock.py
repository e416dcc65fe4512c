"""Output lock for tie-heavy FPGA campaigns.

Each case pins sha256(report JSON + mutation log) of one run. The
campaigns put many events on the same microsecond: an injection every
scan tick (`period_us=100`), controller and watchdog-link deaths with
watchdog resets that cut repairs short, injections and windows during a
reset, enhanced repair with a fast injection rate, and scan periods
equal to the repair latency or to a region reload time. A change to event ordering or scrubber accounting
shows up here as a digest mismatch.

Regenerate only for an intended output change:

    PYTHONPATH=src python tests/test_fpga_lock.py
"""

import hashlib

import pytest

from cotsim.config import ARCHITECTURES, CampaignConfig, make_architecture
from cotsim.harness import run_fpga


def _cases():
    """(case id, architecture, campaign, seed) for every locked run."""
    tick = CampaignConfig(duration_us=400_000, period_us=100)
    for arch in ARCHITECTURES:
        for seed in (0, 1):
            yield f"tick-{arch}-s{seed}", arch, tick, seed
    deaths = CampaignConfig(duration_us=2_000_000, period_us=2_000,
                            target_mode="components",
                            target_components=["cms_ctrl", "wd_link", "fir_0"])
    for seed in (0, 1, 2):
        yield f"deaths-CMS+DPR+TMR+WD-s{seed}", "CMS+DPR+TMR+WD", deaths, seed
    # injections and windows that fall while a watchdog reset reloads the
    # node
    reset = CampaignConfig(duration_us=600_000, period_us=100, window_us=100,
                           target_mode="components",
                           target_components=["cms_ctrl", "wd_link", "fir_0"])
    for seed in (0, 1):
        yield f"reset-CMS+DPR+TMR+WD-s{seed}", "CMS+DPR+TMR+WD", reset, seed
    enhanced = CampaignConfig(period_us=500)
    for seed in (0, 1):
        yield (f"enhanced-CMS+DPR+TMR-s{seed}",
               make_architecture("CMS+DPR+TMR", scrub_mode="enhanced_repair"),
               enhanced, seed)
    # a scan tick at the same time as the end of a repair or a reload
    # that was started one scan period earlier
    coincide = CampaignConfig(duration_us=800_000, period_us=1_000)
    for seed in (0, 1):
        yield (f"coincide-repair-CMS-s{seed}",
               make_architecture("CMS", scan_period_us=18_000), coincide, seed)
    reload = CampaignConfig(duration_us=100_000, period_us=100,
                            window_us=1_000, target_mode="components",
                            target_components=["fir_0", "fir_1", "voter_in",
                                               "voter_out"])
    for seed in (0, 1):
        yield (f"coincide-reload-CMS+DPR+TMR-s{seed}",
               make_architecture("CMS+DPR+TMR", scan_period_us=13,
                                 frame_repair_latency_us=13), reload, seed)


CASES = list(_cases())


def run_digest(arch, campaign, seed) -> str:
    report, log = run_fpga(arch, campaign, seed)
    return hashlib.sha256(
        (report.to_json() + log.decode()).encode()).hexdigest()


DIGESTS = {
    'tick-No-FT-s0':
        'aa5c607a585bcd4443e2f58b0c78e1dc7a54aff73b376464b1f5db6465f4e89d',
    'tick-No-FT-s1':
        '9e4b62212f9116c4235a3ca284522685faa5cef689f0beaf697276a146cedd66',
    'tick-TMR-s0':
        'ac62bc26aaaf3f78eedb667909a703ad568e59178c249a2d0aba6e5cd4c92106',
    'tick-TMR-s1':
        '99113e57fbb4a671f7f6b71f83b8cc102511b53f8de25ed57fc435681df6fd3d',
    'tick-DPR-s0':
        'bed3f4e6f46b2cfd4f3282f5c2aae97ba6bfe8dae826121880611960bc7864a0',
    'tick-DPR-s1':
        '5dfa88e537484578ff5016f404146a7e3e6fc6a37a22c48aaa1a83f318d2bb7f',
    'tick-CMS-s0':
        '0db59099628a46d4002854ac5ca5493f79071ac416b7784a94379235fedb4f7b',
    'tick-CMS-s1':
        '300f4f72ac5086a98349345d5c9825f656983cc64fff32fef8c41ee1c521b449',
    'tick-DPR+TMR-s0':
        'f3d7333f08a4f7cef7570768b761f1cea9e4606f3a64ddcae250165098a93c7a',
    'tick-DPR+TMR-s1':
        '12e06417dad1b758d6ba46566d2ce14c17f7a34f2b4ca0c86a035253e0aae6ad',
    'tick-CMS+TMR-s0':
        '05713ef981a32b1adf468890db0811ad8d647d9c263093a03ba03cff538c86fb',
    'tick-CMS+TMR-s1':
        'bfc4a76151608f9507156d23ec722944f03cf7f841e7d6fa7d66e3f433a9dfb8',
    'tick-CMS+DPR+TMR-s0':
        'f28e1e3bae05df64226f7a5b9b09c448a9cf6350c9f34792976bfcb284ea2c4c',
    'tick-CMS+DPR+TMR-s1':
        '89e4a516ca5dc5a05358cb6e21b87937ea451110306ff1733ae1b6699433483f',
    'tick-CMS+DPR+TMR+WD-s0':
        '00f939f000657983ae855a0116f6f5e807385c13f2cd9c681db014c001c31def',
    'tick-CMS+DPR+TMR+WD-s1':
        '2078ca9aed57a3bbdf3870571cb2cd848fcedee204257c8be47d37fa98c0468d',
    'deaths-CMS+DPR+TMR+WD-s0':
        'e59e5c6c3b0cc806c162d82602e22a54303d03f041a2f2f60b07cac09f07d269',
    'deaths-CMS+DPR+TMR+WD-s1':
        '2df43580e40fa2b1f357262cb71d7d14ae2badf8d5508c7e1d929b6978b7afe0',
    'deaths-CMS+DPR+TMR+WD-s2':
        '7ab0f1500779bfc6dedd58c035db8fbb19bd9e6e721bff1d98229d85d4cf3159',
    'reset-CMS+DPR+TMR+WD-s0':
        '672da23aa20fb3882fed1fd6a857b63773a705d2b1bd45d8474ecfa45a3517a3',
    'reset-CMS+DPR+TMR+WD-s1':
        '79ac943c316628c42b7dd266bc271ef56f6641b7028dd8ba8b6ca4370478450a',
    'enhanced-CMS+DPR+TMR-s0':
        '7c9a70a1a8e892aa9cc7773c2b3bb96844531a0c7ad9f26a4f628d5105baa11c',
    'enhanced-CMS+DPR+TMR-s1':
        '0190324717a6f9811ab8a9f40af59766f1f500d5d752c99b8b4b847b0c348081',
    'coincide-repair-CMS-s0':
        'd03e4799e6158578a343c8d50fdd44d1dc0dbd183834238a93e6e093f9c37c56',
    'coincide-repair-CMS-s1':
        'd47b29cbed6e9f21920cf03abb0aa6862ab47df5f84a4c35fdd2a512f481b631',
    'coincide-reload-CMS+DPR+TMR-s0':
        '326448e32fbc3aa50a4d927ac1d4e8f368c383d3027a2c848c22f6db9733cbde',
    'coincide-reload-CMS+DPR+TMR-s1':
        '51831b0e71f8c417e09c07c875b285271dd7270067d25450bc5b100058b30512',
}


@pytest.mark.parametrize("case_id,arch,campaign,seed", CASES,
                         ids=[c[0] for c in CASES])
def test_fpga_output_lock(case_id, arch, campaign, seed):
    assert run_digest(arch, campaign, seed) == DIGESTS[case_id]


if __name__ == "__main__":
    for case_id, arch, campaign, seed in CASES:
        print(f"    {case_id!r}:\n        "
              f"{run_digest(arch, campaign, seed)!r},")
