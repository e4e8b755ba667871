"""CLI subcommands, exit codes and output files."""

import json
import os

import pytest

from conftest import BREAKIN_TEXT, DEACTIVATE_TEXT
from sentinelsim import engine
from sentinelsim.cli import main


@pytest.fixture
def breakin_file(tmp_path):
    path = tmp_path / "breakin.scn"
    path.write_text(BREAKIN_TEXT, encoding="utf-8")
    return str(path)


def test_run_prints_report(breakin_file, capsys):
    assert main(["run", breakin_file]) == 0
    out = capsys.readouterr().out
    assert "INTRUSION\trecipients=owner,authorities" in out
    assert "final_mode: ARMED" in out


def test_run_writes_output_directory(breakin_file, tmp_path):
    out_dir = tmp_path / "out"
    assert main(["run", breakin_file, "--out", str(out_dir)]) == 0
    assert (out_dir / "report.txt").is_file()
    outbox = (out_dir / "outbox.log").read_text(encoding="utf-8").splitlines()
    assert len(outbox) == 2
    assert outbox[0].startswith("5000|INTRUSION|authorities,owner|-|")
    clip = out_dir / "clips" / "clip-0001.bin"
    assert clip.is_file()
    assert clip.stat().st_size == 1024


def test_run_structured_format(breakin_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main(
        ["run", breakin_file, "--out", str(out_dir), "--format", "structured"]
    )
    assert code == 0
    doc = json.loads((out_dir / "report.json").read_bytes())
    assert doc["outbox"]["PRESENCE"] == 1
    stdout_doc = json.loads(capsys.readouterr().out)
    assert stdout_doc == doc


def test_run_is_deterministic_across_invocations(breakin_file, tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        assert main(["run", breakin_file, "--seed", "9", "--out", str(d)]) == 0
    a = (dirs[0] / "report.txt").read_bytes()
    b = (dirs[1] / "report.txt").read_bytes()
    assert a == b
    assert (dirs[0] / "outbox.log").read_bytes() == (dirs[1] / "outbox.log").read_bytes()


def test_run_with_config_file(breakin_file, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"clip_duration_ms": 10000}), encoding="utf-8")
    assert main(["run", breakin_file, "--config", str(cfg)]) == 0
    assert "duration_ms=10000" in capsys.readouterr().out


def test_run_with_set_overrides(breakin_file, capsys):
    assert main(["run", breakin_file, "--set", "drop_probability=1.0"]) == 0
    out = capsys.readouterr().out
    assert "outbox.INTRUSION: 0" in out
    assert "DROP" in out


def test_bad_set_override(breakin_file, capsys):
    assert main(["run", breakin_file, "--set", "drop_probability"]) == 1
    assert "KEY=VALUE" in capsys.readouterr().err


def test_maildir_enabled_by_config(breakin_file, tmp_path):
    out_dir = tmp_path / "out"
    code = main(
        ["run", breakin_file, "--out", str(out_dir), "--set", "maildir=true"]
    )
    assert code == 0
    mails = sorted(os.listdir(out_dir / "maildir" / "new"))
    assert mails == ["000001.intrusion.eml", "000002.presence.eml"]


def test_missing_scenario_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.scn")]) == 1
    assert "error" in capsys.readouterr().err


def test_parse_errors_list_every_line(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("abc foo\n0 arm\nxyz bar\n", encoding="utf-8")
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line 1" in err
    assert "line 3" in err


def test_bad_config_file(breakin_file, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("not json", encoding="utf-8")
    assert main(["run", breakin_file, "--config", str(cfg)]) == 1
    assert "JSON" in capsys.readouterr().err


def test_unknown_config_file_key(breakin_file, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"warp_factor": 9}), encoding="utf-8")
    assert main(["run", breakin_file, "--config", str(cfg)]) == 1
    assert "unknown config key" in capsys.readouterr().err


def test_only_the_fully_layered_config_is_validated(tmp_path, capsys):
    # the file alone violates threshold <= max_range; the scenario fixes it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threshold_m": 9.0}), encoding="utf-8")
    sc = tmp_path / "wide.scn"
    sc.write_text("set max_range_m 10.0\n0 distance 8.0\n", encoding="utf-8")
    assert main(["run", str(sc), "--config", str(cfg)]) == 0
    assert "PRESENCE_TRIGGER" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_set_override_rejected(breakin_file, value, capsys):
    assert main(["run", breakin_file, "--set", f"speed_of_sound={value}"]) == 1
    captured = capsys.readouterr()
    assert "'speed_of_sound'" in captured.err and "finite" in captured.err
    assert captured.out == ""


def test_non_finite_scenario_set_line_rejected(tmp_path, capsys):
    sc = tmp_path / "nan.scn"
    sc.write_text("set threshold_m nan\n0 distance 3.5\n", encoding="utf-8")
    assert main(["run", str(sc)]) == 1
    err = capsys.readouterr().err
    assert "line 1" in err and "'threshold_m'" in err and "finite" in err


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400])
def test_non_finite_config_file_value_rejected(breakin_file, tmp_path, literal, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"max_range_m": %s}' % literal, encoding="utf-8")
    assert main(["run", breakin_file, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "'max_range_m'" in err and "finite" in err


def test_rerun_into_same_out_directory_rewrites_outbox(breakin_file, tmp_path):
    out_dir = tmp_path / "out"
    for _ in range(2):
        assert main(["run", breakin_file, "--out", str(out_dir)]) == 0
        outbox = (out_dir / "outbox.log").read_text(encoding="utf-8").splitlines()
        assert len(outbox) == 2


def test_rerun_into_same_out_directory_keeps_only_its_own_files(tmp_path):
    out_dir = tmp_path / "out"
    first = tmp_path / "breakin.scn"
    first.write_text(BREAKIN_TEXT, encoding="utf-8")
    second = tmp_path / "door.scn"
    second.write_text("0 arm\n5000 door open\n", encoding="utf-8")
    assert main(["run", str(first), "--out", str(out_dir), "--set", "maildir=true"]) == 0
    (out_dir / "notes.txt").write_text("mine", encoding="utf-8")
    assert main(["run", str(second), "--out", str(out_dir), "--format", "structured"]) == 0
    left = sorted(
        os.path.relpath(os.path.join(root, name), out_dir)
        for root, _dirs, files in os.walk(out_dir)
        for name in files
    )
    assert left == ["notes.txt", "outbox.log", "report.json"]
    assert len((out_dir / "outbox.log").read_text(encoding="utf-8").splitlines()) == 1


def test_overlapping_password_attempt_exits_one(tmp_path, capsys):
    sc = tmp_path / "double.scn"
    sc.write_text("0 mode_button\n6499 mode_button\n", encoding="utf-8")
    for command in ("validate", "run"):
        assert main([command, str(sc)]) == 1
        captured = capsys.readouterr()
        assert "mode_button at t=6499" in captured.err
        assert captured.out == ""
    sc.write_text("0 mode_button\n6500 mode_button\n", encoding="utf-8")
    assert main(["validate", str(sc)]) == 0
    assert main(["run", str(sc)]) == 0


def test_runtime_error_exits_two(breakin_file, monkeypatch, capsys):
    def broken_run(*args, **kwargs):
        raise RuntimeError("simulated internal fault")

    monkeypatch.setattr(engine, "run", broken_run)
    assert main(["run", breakin_file]) == 2
    assert "runtime error: simulated internal fault" in capsys.readouterr().err


def test_nan_distance_rejected_with_its_line(tmp_path, capsys):
    sc = tmp_path / "nan.scn"
    sc.write_text("0 arm\n1000 distance nan\n", encoding="utf-8")
    for command in ("validate", "run"):
        assert main([command, str(sc)]) == 1
        assert "line 2: distance must be >= 0, got nan" in capsys.readouterr().err


def test_data_rate_bps_is_an_unknown_key(breakin_file, capsys):
    assert main(["run", breakin_file, "--set", "data_rate_bps=250000"]) == 1
    assert "unknown config key 'data_rate_bps'" in capsys.readouterr().err


def test_validate_ok(tmp_path, capsys):
    path = tmp_path / "ok.scn"
    path.write_text(DEACTIVATE_TEXT, encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    assert "OK: " in capsys.readouterr().out


def test_validate_catches_semantic_problems(tmp_path, capsys):
    path = tmp_path / "far.scn"
    path.write_text("0 distance 99\n", encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    assert "max_range" in capsys.readouterr().err


def test_password_space(capsys):
    assert main(["password-space", "7"]) == 0
    assert capsys.readouterr().out.strip() == "128"


def test_password_space_out_of_range(capsys):
    assert main(["password-space", "0"]) == 1
    assert "pulse count" in capsys.readouterr().err


def test_password_space_not_a_number(capsys):
    assert main(["password-space", "seven"]) == 1


def test_version(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip().startswith("sentinelsim ")


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_shipped_scenarios_parse():
    root = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")
    for name in ("breakin.scn", "deactivate.scn"):
        assert main(["validate", os.path.join(root, name)]) == 0
