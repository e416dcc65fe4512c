"""Command-line interface tests: subcommands and exit codes."""

import json
import os

import pytest

from cotsim import cli
from cotsim.cli import main


def small_campaign(tmp_path):
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps({"duration_us": 100_000, "period_us": 4_000}))
    return str(path)


def test_verify_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "PASS crc16 check value" in out
    assert "FAIL" not in out


def test_run_writes_report(tmp_path, capsys):
    campaign = small_campaign(tmp_path)
    out_dir = str(tmp_path / "out")
    code = main(["run", "--arch", "CMS", "--seed", "2",
                 "--campaign", campaign, "--out", out_dir])
    assert code == 0
    with open(os.path.join(out_dir, "report.json")) as fh:
        report = json.load(fh)
    assert report["architecture"] == "CMS"
    assert os.path.exists(os.path.join(out_dir, "mutations.log"))
    assert "CMS seed=2" in capsys.readouterr().out


def test_run_is_byte_identical_across_invocations(tmp_path):
    campaign = small_campaign(tmp_path)
    blobs = []
    for name in ("a", "b"):
        out_dir = str(tmp_path / name)
        assert main(["run", "--arch", "DPR+TMR", "--seed", "7",
                     "--campaign", campaign, "--out", out_dir]) == 0
        with open(os.path.join(out_dir, "report.json"), "rb") as fh:
            report = fh.read()
        with open(os.path.join(out_dir, "mutations.log"), "rb") as fh:
            blobs.append((report, fh.read()))
    assert blobs[0] == blobs[1]


def test_matrix_and_report_roundtrip(tmp_path, capsys):
    campaign = small_campaign(tmp_path)
    out_dir = str(tmp_path / "mat")
    code = main(["matrix", "--archs", "No-FT,CMS", "--seeds", "0:2",
                 "--campaign", campaign, "--out", out_dir])
    assert code == 0
    capsys.readouterr()
    assert main(["report", "--in", out_dir, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("architecture,seed")
    assert len(lines) == 5  # header + 2 archs x 2 seeds
    assert main(["report", "--in", out_dir, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 4


def test_config_errors_exit_one(tmp_path, capsys):
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        fh.write('{"no_such_field": 1}')
    assert main(["run", "--arch", "CMS", "--campaign", bad]) == 1
    assert main(["report", "--in", str(tmp_path)]) == 1
    missing = str(tmp_path / "missing.json")
    assert main(["run", "--arch", "CMS", "--campaign", missing]) == 1
    capsys.readouterr()


def test_an_oversized_campaign_is_an_error_line(tmp_path, capsys):
    """2.5e14 injections: numpy refuses to allocate the draw's arrays
    (1.78 PiB) before anything is simulated, and the run ends with one
    error line and exit code 1, not a traceback."""
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps({"duration_us": 1000000000000000000}))
    assert main(["run", "--arch", "CMS", "--campaign", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", [["run", "--arch", "CMS"],
                                     ["matrix", "--archs", "CMS",
                                      "--seeds", "0"]])
def test_a_failed_command_removes_the_out_it_made(tmp_path, capsys,
                                                  command):
    """`--out` is made before the run; when the run then fails (here the
    oversized campaign), the empty directory the command made goes, and
    one that was there before stays."""
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps({"duration_us": 1000000000000000000}))
    out = tmp_path / "new" / "out"
    assert main(command + ["--campaign", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
    out.mkdir()
    assert main(command + ["--campaign", str(path), "--out", str(out)]) == 1
    assert out.is_dir() and not list(out.iterdir())


def test_report_on_a_file_is_an_error_line(tmp_path, capsys):
    not_a_dir = tmp_path / "file.txt"
    not_a_dir.write_text("x")
    assert main(["report", "--in", str(not_a_dir)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_out_that_is_an_existing_file_is_an_error_line(tmp_path, capsys,
                                                      monkeypatch):
    def must_not_run(*_args, **_kwargs):
        raise AssertionError("simulated before checking --out")

    # the output directory is checked before anything is simulated
    monkeypatch.setattr(cli, "run_fpga", must_not_run)
    monkeypatch.setattr(cli, "run_matrix", must_not_run)
    campaign = small_campaign(tmp_path)
    occupied = tmp_path / "occupied"
    occupied.write_text("x")
    assert main(["run", "--arch", "No-FT", "--campaign", campaign,
                 "--out", str(occupied)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert main(["matrix", "--archs", "No-FT", "--seeds", "0",
                 "--campaign", campaign, "--out", str(occupied)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert occupied.read_text() == "x"


def test_empty_seed_selection_is_rejected(tmp_path, capsys):
    campaign = small_campaign(tmp_path)
    for spec in ("5:2", ",", "3:3"):
        assert main(["matrix", "--archs", "No-FT", "--seeds", spec,
                     "--campaign", campaign,
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--seeds" in err
    assert not (tmp_path / "out").exists()


def _matrix_rejected(tmp_path, capsys, monkeypatch, archs, seeds,
                     campaign=None) -> str:
    """Runs `cotsim matrix --vpu` with run functions that fail if called;
    returns its error output, which must be one error line."""
    def must_not_run(*_args, **_kwargs):
        raise AssertionError("simulated before the arguments were checked")

    monkeypatch.setattr(cli, "run_matrix", must_not_run)
    monkeypatch.setattr(cli, "run_vpu_table", must_not_run)
    assert main(["matrix", "--archs", archs, f"--seeds={seeds}", "--vpu",
                 "--campaign", campaign or small_campaign(tmp_path),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()
    return err


def _rejected_before_any_run(tmp_path, capsys, monkeypatch, spec) -> str:
    err = _matrix_rejected(tmp_path, capsys, monkeypatch, "No-FT", spec)
    assert err.startswith("error: --seeds")
    return err


@pytest.mark.parametrize("spec", ["0,0,1", "3,1,3", "-1:1", "-1,0", "2,-3"])
def test_duplicate_or_negative_seeds_are_rejected_before_any_run(
        tmp_path, capsys, monkeypatch, spec):
    _rejected_before_any_run(tmp_path, capsys, monkeypatch, spec)


@pytest.mark.parametrize("spec", ["a:3", "0,x", "0:", ":4", "1.5", "0:2:4"])
def test_non_integer_seeds_are_rejected_before_any_run(
        tmp_path, capsys, monkeypatch, spec):
    err = _rejected_before_any_run(tmp_path, capsys, monkeypatch, spec)
    assert "lo:hi or a comma list of integers" in err


@pytest.mark.parametrize("archs", ["CMS,CMS", "No-FT,TMR,No-FT"])
def test_duplicate_architectures_are_rejected_before_any_run(
        tmp_path, capsys, monkeypatch, archs):
    # a repeated architecture would overwrite its own run reports
    err = _matrix_rejected(tmp_path, capsys, monkeypatch, archs, "0:1")
    assert err.startswith(f"error: --archs {archs!r}")


@pytest.mark.parametrize("archs", ["Bogus", "CMS,Bogus"])
def test_unknown_architectures_are_rejected_before_out_exists(
        tmp_path, capsys, monkeypatch, archs):
    err = _matrix_rejected(tmp_path, capsys, monkeypatch, archs, "0:1")
    assert err.startswith("error: unknown architecture 'Bogus'")


def test_a_target_component_missing_from_an_architecture_is_rejected(
        tmp_path, capsys, monkeypatch):
    path = tmp_path / "targets.json"
    path.write_text(json.dumps({"duration_us": 100_000,
                                "target_mode": "components",
                                "target_components": ["cms_ctrl"]}))
    err = _matrix_rejected(tmp_path, capsys, monkeypatch, "CMS,No-FT", "0:2",
                           str(path))
    assert "'cms_ctrl'" in err and "No-FT" in err


def test_run_rejects_a_missing_target_component_before_out_exists(
        tmp_path, capsys, monkeypatch):
    path = tmp_path / "targets.json"
    path.write_text(json.dumps({"duration_us": 100_000,
                                "target_mode": "components",
                                "target_components": ["cms_ctrl"]}))

    def must_not_run(*_args, **_kwargs):
        raise AssertionError("simulated before the target was checked")

    monkeypatch.setattr(cli, "run_fpga", must_not_run)
    assert main(["run", "--arch", "No-FT", "--campaign", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == ("error: unknown target component 'cms_ctrl' "
                   "in architecture No-FT\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("targets", [[["x"]], "cms_ctrl", [],
                                     ["fir_0", "fir_1", "fir_0"]])
def test_bad_target_components_are_rejected_before_any_run(
        tmp_path, capsys, monkeypatch, targets):
    path = tmp_path / "targets.json"
    path.write_text(json.dumps({"duration_us": 100_000,
                                "target_mode": "components",
                                "target_components": targets}))
    err = _matrix_rejected(tmp_path, capsys, monkeypatch, "CMS", "0:2",
                           str(path))
    assert err.startswith("error: target_")

    def must_not_run(*_args, **_kwargs):
        raise AssertionError("simulated before the campaign was checked")

    monkeypatch.setattr(cli, "run_fpga", must_not_run)
    assert main(["run", "--arch", "CMS", "--campaign", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == err
    assert not (tmp_path / "out").exists()


def test_campaign_with_a_seed_is_a_config_error(tmp_path, capsys):
    # the run seed comes from --seed; a campaign seed used to be ignored
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps({"seed": 5, "duration_us": 100_000}))
    assert main(["run", "--arch", "CMS", "--campaign", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("content, message", [
    ("[1, 2]", "not a JSON object"),
    ('"text"', "not a JSON object"),
    ('{"architecture": "CMS", "seed": 0}', "missing field 'down_pct'"),
    ('{"architecture": "CMS", "seed": 0, "down_pct": "x", '
     '"erroneous_pct": 0, "correct_pct": 0, "lam_per_s": null}',
     "Unknown format code"),
    ("{not json", "Expecting property name"),
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_report_on_a_bad_run_file_is_an_error_line(tmp_path, capsys,
                                                   content, message, fmt):
    (tmp_path / "run_bad_s0.json").write_text(content)
    assert main(["report", "--in", str(tmp_path), "--format", fmt]) == 1
    captured = capsys.readouterr()
    path = str(tmp_path / "run_bad_s0.json")
    assert captured.err.startswith(f"error: {path}: ")
    assert message in captured.err
    assert captured.out == ""
