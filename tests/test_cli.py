"""CLI subcommands, exit codes and output files."""

import errno
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

from conftest import BREAKIN_TEXT, DEACTIVATE_TEXT
from sentinelsim import cli, controller, engine
from sentinelsim.cli import main
from sentinelsim.notify import LineFileSink, MaildirSink


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


def test_clip_placeholder_is_not_built_in_memory(breakin_file, tmp_path):
    size = 64 * 1024 * 1024
    out_dir = tmp_path / "out"
    tracemalloc.start()
    try:
        argv = ["run", breakin_file, "--set", f"clip_bytes={size}", "--out", str(out_dir)]
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024
    clip = out_dir / "clips" / "clip-0001.bin"
    assert clip.stat().st_size == size
    with open(clip, "rb") as fh:
        while chunk := fh.read(1 << 20):
            assert chunk == bytes(len(chunk))


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
    trees = []
    for name in ("a", "b"):
        root = tmp_path / name
        argv = ["run", breakin_file, "--seed", "9", "--set", "maildir=true", "--out", str(root)]
        assert main(argv) == 0
        trees.append({
            p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()
        })
    assert trees[0] == trees[1]
    paths = set(trees[0])
    assert {"report.txt", "outbox.log", "clips/clip-0001.bin"} <= paths
    assert any(p.startswith("maildir/new/") and p.endswith(".eml") for p in paths)


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


MAIL_BYTES = {
    "maildir/new/000001.intrusion.eml": (
        b"From: sentinelsim <noreply@sentinelsim.invalid>\n"
        b"To: owner <owner@example.com>, authorities <authorities@example.com>\n"
        b"Subject: [SENTINEL] INTRUSION at t=5000\n"
        b"X-Sim-Time-Ms: 5000\n"
        b"\n"
        b"Kind: INTRUSION\n"
        b"Simulation time: 5000 ms\n"
    ),
    "maildir/new/000002.presence.eml": (
        b"From: sentinelsim <noreply@sentinelsim.invalid>\n"
        b"To: owner <owner@example.com>, authorities <authorities@example.com>\n"
        b"Subject: [SENTINEL] PRESENCE at t=7000\n"
        b"X-Sim-Time-Ms: 7000\n"
        b"X-Clip-Id: clip-0001\n"
        b"\n"
        b"Kind: PRESENCE\n"
        b"Simulation time: 7000 ms\n"
        b"Clip: clip-0001\n"
    ),
    "outbox.log": (
        b"5000|INTRUSION|authorities,owner|-|[SENTINEL] INTRUSION at t=5000\n"
        b"7000|PRESENCE|authorities,owner|clip-0001|[SENTINEL] PRESENCE at t=7000\n"
    ),
}


def test_mail_files_are_pinned_byte_for_byte(breakin_file, tmp_path):
    out_dir = tmp_path / "out"
    argv = [
        "run", breakin_file, "--out", str(out_dir),
        "--set", "maildir=true", "--set", "presence_to_authorities=true",
    ]
    assert main(argv) == 0
    mail = sorted((out_dir / "maildir" / "new").iterdir())
    written = {
        p.relative_to(out_dir).as_posix(): p.read_bytes()
        for p in mail + [out_dir / "outbox.log"]
    }
    assert written == MAIL_BYTES


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


@pytest.mark.parametrize("bad_seed", ["-1", str(2**64)])
def test_out_of_range_seed_exits_one_before_touching_out(breakin_file, tmp_path, bad_seed, capsys):
    out_dir = tmp_path / "out"
    assert main(["run", breakin_file, "--out", str(out_dir)]) == 0
    before = (out_dir / "report.txt").read_bytes()
    capsys.readouterr()
    assert main(["run", breakin_file, "--seed", bad_seed, "--out", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert "--seed" in captured.err and bad_seed in captured.err
    assert captured.out == ""
    assert (out_dir / "report.txt").read_bytes() == before


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
    def broken_simulate(*args, **kwargs):
        raise RuntimeError("simulated internal fault")

    monkeypatch.setattr(engine, "simulate", broken_simulate)
    assert main(["run", breakin_file]) == 2
    err = capsys.readouterr().err
    assert "runtime error: RuntimeError: simulated internal fault" in err
    assert "in broken_simulate" in err


@pytest.mark.parametrize("error", [ValueError, KeyError])
def test_any_exception_inside_the_simulation_exits_two(breakin_file, error, monkeypatch, capsys):
    # a ValueError is an input problem only before the simulation starts
    def broken_transmit(*args):
        raise error("fault in transmit")

    monkeypatch.setattr(controller, "transmit", broken_transmit)
    assert main(["run", breakin_file]) == 2
    captured = capsys.readouterr()
    assert f"runtime error: {error.__name__}:" in captured.err
    assert "fault in transmit" in captured.err
    assert "test_cli.py:" in captured.err and "in broken_transmit" in captured.err
    assert captured.out == ""


def test_exit_two_leaves_no_file_the_run_wrote(breakin_file, tmp_path, monkeypatch, capsys):
    # by the clip's end the intrusion mail and its outbox line are written
    def broken_clip_done(self, done):
        raise KeyError("clip")

    handlers = {**controller.Controller._HANDLERS, controller.ClipDone: broken_clip_done}
    monkeypatch.setattr(controller.Controller, "_HANDLERS", handlers)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "notes.txt").write_text("mine", encoding="utf-8")
    argv = ["run", breakin_file, "--set", "maildir=true", "--out", str(out_dir)]
    assert main(argv) == 2
    assert "runtime error: KeyError: 'clip'" in capsys.readouterr().err
    left = sorted(p.relative_to(out_dir).as_posix() for p in out_dir.rglob("*"))
    assert left == ["notes.txt"]


def _out_dir_with_notes(tmp_path):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "notes.txt").write_text("mine", encoding="utf-8")
    return out_dir


def _files_under(out_dir):
    return sorted(p.relative_to(out_dir).as_posix() for p in out_dir.rglob("*"))


def test_simulation_writes_no_out_file(breakin_file, tmp_path, monkeypatch):
    out_dir = _out_dir_with_notes(tmp_path)
    simulate = engine.simulate
    seen = []

    def watched_simulate(*args, **kwargs):
        report = simulate(*args, **kwargs)
        seen.append(_files_under(out_dir))
        return report

    monkeypatch.setattr(engine, "simulate", watched_simulate)
    argv = ["run", breakin_file, "--set", "maildir=true", "--out", str(out_dir)]
    assert main(argv) == 0
    assert seen == [["notes.txt"]]
    assert {"report.txt", "outbox.log", "clips/clip-0001.bin"} <= set(_files_under(out_dir))
    assert len(list((out_dir / "maildir" / "new").iterdir())) == 2


@pytest.mark.parametrize("sink, named", [(LineFileSink, "outbox.log"), (MaildirSink, "maildir")])
def test_failed_sink_write_leaves_no_file_and_names_it(
    breakin_file, tmp_path, monkeypatch, capsys, sink, named
):
    deliver = sink.deliver
    calls = []

    def full_disk_deliver(self, notification):
        calls.append(notification)
        if len(calls) == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        deliver(self, notification)

    monkeypatch.setattr(sink, "deliver", full_disk_deliver)
    out_dir = _out_dir_with_notes(tmp_path)
    argv = ["run", breakin_file, "--set", "maildir=true", "--out", str(out_dir)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "error: cannot write " in captured.err
    assert named in captured.err and "No space left on device" in captured.err
    assert captured.out == ""
    assert _files_under(out_dir) == ["notes.txt"]


def test_failed_clip_write_leaves_no_file_and_names_it(breakin_file, tmp_path, monkeypatch, capsys):
    # as under a file-size limit: the clip file is made, then growing it fails
    def too_large_open(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        if str(path).endswith(".bin"):
            fh.close()
            raise OSError(errno.EFBIG, "File too large")
        return fh

    monkeypatch.setattr(cli, "open", too_large_open, raising=False)
    out_dir = _out_dir_with_notes(tmp_path)
    argv = ["run", breakin_file, "--set", "maildir=true", "--out", str(out_dir)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    clip = os.path.join(str(out_dir), "clips", "clip-0001.bin")
    assert f"error: cannot write {clip}: File too large" in captured.err
    assert captured.out == ""
    assert _files_under(out_dir) == ["notes.txt"]


def test_run_resolves_its_config_once(breakin_file, tmp_path, monkeypatch):
    calls = []
    resolve = engine.resolve_run_config

    def counting_resolve(*args, **kwargs):
        calls.append(args)
        return resolve(*args, **kwargs)

    monkeypatch.setattr(engine, "resolve_run_config", counting_resolve)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"maildir": True}), encoding="utf-8")
    out_dir = str(tmp_path / "out")
    argv = ["run", breakin_file, "--config", str(cfg), "--set", "latency_ms=5", "--out", out_dir]
    assert main(argv) == 0
    assert len(calls) == 1


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


def _python(*args) -> bytes:
    """Stdout of a new interpreter that imports sentinelsim from this tree."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, check=True).stdout


def test_parser_is_built_on_first_use_not_at_import():
    code = "import sentinelsim.cli as c; print(c.build_parser.cache_info().currsize)"
    assert _python("-c", code) == b"0\n"


def test_cached_parser_carries_nothing_between_calls(breakin_file, capsys):
    assert main(["run", breakin_file, "--set", "drop_probability=0.5", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert main(["run", breakin_file, "--format", "yaml"]) == 1  # a usage error
    capsys.readouterr()
    assert main(["run", breakin_file]) == 0
    third = capsys.readouterr().out
    assert cli.build_parser() is cli.build_parser()
    assert third != first
    assert third.encode("utf-8") == _python("-m", "sentinelsim.cli", "run", breakin_file)


def test_huge_clip_bytes_exits_one_before_the_run_and_writes_nothing(breakin_file, tmp_path, capsys):
    # 10^20 is past any file offset; fh.truncate once raised OverflowError on it
    out_dir = tmp_path / "out"
    argv = ["run", breakin_file, "--set", "clip_bytes=100000000000000000000", "--out", str(out_dir)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "clip_bytes" in captured.err and "Traceback" not in captured.err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize(
    "text, line",
    [
        (b"0 arm\n1000 distance 0.5\n\xff000 door open\n", 3),
        (b"0 arm\r\n# caf\xe9\r\n", 2),  # Latin-1, not UTF-8
        (b"0 arm\r1000 distance 0.5\r2000 door open \xc3\r", 3),  # parser splits on CR too
    ],
    ids=["lf", "crlf-latin-1", "cr"],
)
def test_non_utf8_scenario_names_its_file_and_line(tmp_path, command, text, line, capsys):
    path = tmp_path / "latin.scn"
    path.write_bytes(text)
    assert main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: line {line}: not UTF-8 text (")
    assert "Traceback" not in err
