"""Configuration validation: bad values fail where the config is built,
as an `error:` line and exit code 1 from the command line."""

import json

import pytest

from cotsim.cli import main
from cotsim.config import CampaignConfig, make_architecture


def run_with_campaign(tmp_path, capsys, **fields):
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(fields))
    code = main(["run", "--arch", "CMS", "--campaign", str(path),
                 "--out", str(tmp_path / "out")])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("fields, message", [
    ({"period_us": 0}, "period_us must be positive"),
    ({"window_us": 0}, "window_us must be positive"),
    ({"duration_us": -5}, "duration_us must be positive"),
    ({"duration_us": 10_000, "window_us": 3_000}, "whole number of windows"),
])
def test_bad_campaign_is_a_config_error(tmp_path, capsys, fields, message):
    code, err = run_with_campaign(tmp_path, capsys, **fields)
    assert code == 1
    assert err.startswith("error:") and message in err


# the clock counts whole microseconds; 2000.5 used to end in a numpy
# TypeError traceback from build_fpga_campaign
@pytest.mark.parametrize("fields", [
    {"period_us": 2000.5},
    {"period_us": 4000.0},
    {"duration_us": 4e6},
    {"window_us": "4000"},
    {"window_us": True},
])
def test_non_integer_times_are_a_config_error(tmp_path, capsys, fields):
    code, err = run_with_campaign(tmp_path, capsys, **fields)
    key = next(iter(fields))
    assert code == 1
    assert err.startswith(f"error: {key} must be a whole number")


def test_valid_campaign_still_runs(tmp_path, capsys):
    code, err = run_with_campaign(tmp_path, capsys, duration_us=12_000,
                                  window_us=3_000, period_us=1_000)
    assert (code, err) == (0, "")


@pytest.mark.parametrize("overrides, message", [
    ({"scrub_mode": "golden"}, "unknown scrub_mode"),
    ({"scan_period_us": 0}, "scan_period_us must be positive"),
    ({"scan_period_us": -100}, "scan_period_us must be positive"),
    ({"dpr_blind_period_us": 0}, "dpr_blind_period_us must be positive"),
    # wd_timeout_us // 2 == 0 would reschedule wd_check at the same
    # microsecond forever, so this is only validated, never run
    ({"wd_timeout_us": 1}, "wd_timeout_us must be at least 2"),
    # a window verdict needs at least one sample; the node build used to
    # fail inside numpy ("a cannot be empty")
    ({"window_samples": 0}, "window_samples must be positive"),
    ({"window_samples": -3}, "window_samples must be positive"),
    ({"fir_coeffs": ()}, "fir_coeffs must not be empty"),
    # used to end mid-run in a SchedulingError traceback on CMS
    ({"frame_repair_latency_us": -5}, "frame_repair_latency_us must not be"),
    # 1.5 used to turn every wrong window into "down" without a word
    ({"app_down_fraction": 1.5}, "app_down_fraction must be in"),
    ({"app_down_fraction": -0.1}, "app_down_fraction must be in"),
    ({"app_down_fraction": float("nan")}, "app_down_fraction must be in"),
])
def test_bad_architecture_is_rejected_when_built(overrides, message):
    with pytest.raises(ValueError, match=message):
        make_architecture("CMS+DPR+TMR+WD", **overrides)


@pytest.mark.parametrize("overrides", [
    {"window_samples": 1},
    {"fir_coeffs": (3,)},
    {"frame_repair_latency_us": 0},
    {"app_down_fraction": 0.0},
    {"app_down_fraction": 1.0},
])
def test_boundary_architecture_values_are_accepted(overrides):
    arch = make_architecture("CMS+DPR+TMR+WD", **overrides)
    for key, value in overrides.items():
        assert getattr(arch, key) == value


def test_architecture_overrides_still_apply():
    arch = make_architecture("CMS+DPR+TMR+WD", scan_period_us=50)
    assert arch.scan_period_us == 50
    assert arch.scrub_mode == "enhanced_repair"  # the WD default holds
    assert make_architecture("CMS", scrub_mode="enhanced_repair"
                             ).scrub_mode == "enhanced_repair"
    with pytest.raises(ValueError, match="unknown ArchConfig field"):
        make_architecture("CMS", no_such_field=1)


def test_campaign_defaults_are_valid():
    assert CampaignConfig().n_events() == 1_000
