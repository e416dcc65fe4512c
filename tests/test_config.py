"""Configuration validation: bad values fail where the config is built,
as an `error:` line and exit code 1 from the command line."""

import dataclasses
import json

import pytest

from cotsim.cli import main
from cotsim.config import (ARCHITECTURES, CALIBRATION, ArchConfig,
                           CampaignConfig, make_architecture)


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
    # wd_timeout_us // 2 == 0 would reschedule the watchdog check at the
    # same microsecond forever, so this is only validated, never run
    ({"wd_timeout_us": 1}, "wd_timeout_us must be at least 2"),
    # the window verdict follows from component health alone, so the
    # sample-level knobs are gone, whatever their value
    ({"window_samples": 0}, "unknown ArchConfig field 'window_samples'"),
    ({"window_samples": -3}, "unknown ArchConfig field 'window_samples'"),
    ({"fir_coeffs": ()}, "unknown ArchConfig field 'fir_coeffs'"),
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
    {"scan_period_us": 1},
    {"wd_timeout_us": 2},
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
    with pytest.raises(ValueError, match="unknown ArchConfig field"):
        make_architecture("TMR", fir_coeffs=(1, 2, 3, 2, 1))


# (frames, essential bits, reloadable) of every component
SIZES = {"fir_0": (2, 600, True), "fir_1": (2, 600, True),
         "fir_2": (2, 600, True), "voter_in": (1, 100, True),
         "voter_out": (1, 100, True), "cms_ctrl": (6, 30, False),
         "dpr_ctrl": (4, 30, False), "wd_link": (1, 8, False)}
TMR_PARTS = ["fir_0", "fir_1", "fir_2", "voter_in", "voter_out"]
# each name's (cms, dpr, tmr, wd, scrub_mode, components), as
# make_architecture built them when a caller could override each one
BUILT = {
    "No-FT": (False, False, False, False, "replace", ["fir_0"]),
    "TMR": (False, False, True, False, "replace", TMR_PARTS),
    "DPR": (False, True, False, False, "replace", ["fir_0", "dpr_ctrl"]),
    "CMS": (True, False, False, False, "replace", ["fir_0", "cms_ctrl"]),
    "DPR+TMR": (False, True, True, False, "replace",
                TMR_PARTS + ["dpr_ctrl"]),
    "CMS+TMR": (True, False, True, False, "replace",
                TMR_PARTS + ["cms_ctrl"]),
    "CMS+DPR+TMR": (True, True, True, False, "replace",
                    TMR_PARTS + ["cms_ctrl", "dpr_ctrl"]),
    "CMS+DPR+TMR+WD": (True, True, True, True, "enhanced_repair",
                       TMR_PARTS + ["cms_ctrl", "dpr_ctrl", "wd_link"]),
}


@pytest.mark.parametrize("name", ARCHITECTURES)
def test_the_name_fixes_techniques_components_and_scrub_mode(name):
    cms, dpr, tmr, wd, scrub_mode, parts = BUILT[name]
    arch = make_architecture(name)
    assert (arch.cms, arch.dpr, arch.tmr, arch.wd, arch.scrub_mode) == (
        cms, dpr, tmr, wd, scrub_mode)
    assert [(c.name, c.frames, c.essential_bits, c.reloadable)
            for c in arch.components] == [(p, *SIZES[p]) for p in parts]
    assert ArchConfig(name) == arch


def test_only_the_name_and_the_calibration_values_are_settable():
    assert [f.name for f in dataclasses.fields(ArchConfig) if f.init] == [
        "name", *CALIBRATION]
    with pytest.raises(ValueError, match="unknown architecture 'Foo'"):
        ArchConfig("Foo")


# each used to run and report the name with another design
@pytest.mark.parametrize("name, overrides", [
    ("No-FT", {"cms": True}),
    ("DPR+TMR", {"tmr": False}),
    ("CMS", {"wd": True}),
    ("TMR", {"components": []}),
    ("No-FT", {"name": "CMS+DPR+TMR+WD"}),
])
def test_what_the_name_fixes_cannot_be_overridden(name, overrides):
    key = next(iter(overrides))
    with pytest.raises(ValueError, match=f"field '{key}' is not a "
                                         f"calibration value"):
        make_architecture(name, **overrides)


@pytest.mark.parametrize("fields, message", [
    ({"target_mode": "per_module"}, "unknown target_mode 'per_module'"),
    ({"target_mode": ["components"]}, "unknown target_mode"),
    # used to end in a "TypeError: unhashable type" traceback
    ({"target_mode": "components", "target_components": [["x"]]},
     "target_components must be a list of component names"),
    # a string used to be read character by character: "unknown target
    # component 'c'"
    ({"target_mode": "components", "target_components": "cms_ctrl"},
     "target_components must be a list of component names"),
    ({"target_components": [1]},
     "target_components must be a list of component names"),
    # used to fail only at the first run, after matrix created --out
    ({"target_mode": "components", "target_components": []},
     "needs at least one target component"),
    ({"target_mode": "components"}, "needs at least one target component"),
    # used to run, drawing fir_0's bits twice as often
    ({"target_mode": "components",
      "target_components": ["fir_0", "fir_1", "fir_0"]},
     "target_components names 'fir_0' twice"),
])
def test_bad_campaign_targets_are_a_config_error(tmp_path, capsys, fields,
                                                 message):
    code, err = run_with_campaign(tmp_path, capsys, duration_us=100_000,
                                  **fields)
    assert code == 1
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()
    with pytest.raises(ValueError, match=message):
        CampaignConfig(**fields)


def test_campaign_defaults_are_valid():
    assert CampaignConfig().n_events() == 1_000
