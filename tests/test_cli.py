"""CLI subcommands, exit codes and output files."""

import contextlib
import errno
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BREAKIN_TEXT, DEACTIVATE_TEXT, LINE_BREAKS
from sentinelsim import cli, controller, engine
from sentinelsim.cli import main
from sentinelsim.config import SimConfig
from sentinelsim.notify import LineFileSink, MaildirSink
from sentinelsim.report import FORMATS, render_report
from sentinelsim.scenario import parse_scenario


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


def test_run_writes_the_rendered_bytes_to_stdout(monkeypatch):
    class Recorded(io.TextIOWrapper):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "scenarios", "breakin.scn")
    with open(path, encoding="utf-8") as fh:
        expected = render_report(engine.run(parse_scenario(fh.read(), name="breakin")), "text")
    writes, raw = [], io.BytesIO()
    stdout = Recorded(raw, encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["run", path]) == 0
    stdout.flush()
    assert raw.getvalue() == expected
    assert not any("final_mode" in text for text in writes)  # no str copy of the report
    # a text-only stream gets the same report, decoded
    with contextlib.redirect_stdout(io.StringIO()) as text:
        assert main(["run", path]) == 0
    assert text.getvalue() == expected.decode("utf-8")


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


@pytest.mark.parametrize(
    "text",
    ["[" * 10**5 + "]" * 10**5, '{"latency_ms": ' + "9" * 5000 + "}"],
    ids=["nested-past-the-recursion-limit", "int-past-the-digit-limit"],
)
def test_config_file_json_cannot_read_exits_one_naming_it(breakin_file, tmp_path, text, capsys):
    # json.loads raised RecursionError (a traceback) and a ValueError that named no file
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text, encoding="utf-8")
    assert main(["run", breakin_file, "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {cfg}: not valid JSON (")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert "Traceback" not in captured.err
    assert captured.out == ""


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
    def broken_clip_done(self, t, done):
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


def test_exit_two_names_the_innermost_frame_on_its_second_line(breakin_file, monkeypatch, capsys):
    def broken_clip_done(self, t, done):
        raise KeyError("clip")

    handlers = {**controller.Controller._HANDLERS, controller.ClipDone: broken_clip_done}
    monkeypatch.setattr(controller.Controller, "_HANDLERS", handlers)
    assert main(["run", breakin_file]) == 2
    line = broken_clip_done.__code__.co_firstlineno + 1
    assert capsys.readouterr().err.splitlines() == [
        "runtime error: KeyError: 'clip'",
        f"  at test_cli.py:{line} in broken_clip_done",
    ]


def _out_dir_with_notes(tmp_path, name="out"):
    out_dir = tmp_path / name
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


def test_a_fault_building_the_mail_exits_two_and_writes_nothing(
    breakin_file, tmp_path, monkeypatch, capsys
):
    # the mail is built from the finished report, still inside the simulate phase
    build = controller.build_notification
    calls = []

    def broken_build(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise KeyError("mail")
        return build(*args, **kwargs)

    monkeypatch.setattr(controller, "build_notification", broken_build)
    out_dir = _out_dir_with_notes(tmp_path)
    argv = ["run", breakin_file, "--set", "maildir=true", "--out", str(out_dir)]
    assert main(argv) == 2
    line = broken_build.__code__.co_firstlineno + 3  # the raise
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "runtime error: KeyError: 'mail'",
        f"  at test_cli.py:{line} in broken_build",
    ]
    assert captured.out == ""
    assert _files_under(out_dir) == ["notes.txt"]


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


@pytest.mark.parametrize("brk", ["", *LINE_BREAKS])
def test_failed_clip_write_leaves_no_file_and_names_it(
    breakin_file, tmp_path, monkeypatch, brk, capsys
):
    # as under a file-size limit: the clip file is made, then growing it fails
    def too_large_open(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        if str(path).endswith(".bin"):
            fh.close()
            raise OSError(errno.EFBIG, "File too large")
        return fh

    monkeypatch.setattr(cli, "open", too_large_open, raising=False)
    out_dir = _out_dir_with_notes(tmp_path, f"out{brk}final_mode: ARMED")
    argv = ["run", breakin_file, "--set", "maildir=true", "--out", str(out_dir)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    clip = os.path.join(str(out_dir), "clips", "clip-0001.bin")
    shown = repr(clip) if brk else clip  # a line break in the path: one stderr line still
    assert captured.err == f"error: cannot write {shown}: File too large\n"
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


def test_import_loads_no_dataclasses_inspect_or_traceback():
    # each adds to every run's start-up time; only a fresh interpreter shows what is loaded
    code = (
        "import sys, sentinelsim.cli; "
        "print(sorted({'dataclasses', 'inspect', 'traceback'} & set(sys.modules)))"
    )
    assert _python("-c", code) == b"[]\n"


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


@pytest.mark.parametrize("command", ["run", "validate"])
def test_non_utf8_scenario_file_name_is_refused_naming_it(tmp_path, command, capsys):
    # a non-UTF-8 byte in a file name arrives as a lone surrogate, which no report can hold
    path = tmp_path / "x\udcff.scn"
    path.write_bytes(BREAKIN_TEXT.encode("utf-8"))
    out_dir = tmp_path / "out"
    argv = [command, str(path)] + (["--out", str(out_dir)] if command == "run" else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {str(path)!r}: file name is not UTF-8 text\n"
    assert "\\udcff.scn'" in captured.err
    assert captured.out == ""
    assert not out_dir.exists()
    path.rename(tmp_path / "xÿ.scn")  # the same file under a UTF-8 name runs
    assert main([command, str(tmp_path / "xÿ.scn")]) == 0


@pytest.mark.parametrize("key", ["owner_email", "authorities_email"])
@pytest.mark.parametrize("brk", LINE_BREAKS)
def test_an_address_with_a_line_break_is_refused_naming_it(breakin_file, tmp_path, key, brk, capsys):
    # once written into every .eml as "To: owner <a@x" then a forged "Bcc: evil@x>" header
    out_dir = tmp_path / "out"
    argv = ["run", breakin_file, "--set", "maildir=true", "--set", f"{key}=a@x{brk}Bcc: evil@x"]
    assert main([*argv, "--out", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {key} must hold no line break\n"
    assert captured.out == ""
    assert _run_names_under(out_dir) == []


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("brk", LINE_BREAKS)
def test_a_scenario_name_with_a_line_break_is_refused_showing_it(tmp_path, command, brk, capsys):
    # the report's "scenario: <name>" line would otherwise be followed by a forged line
    name = f"x{brk}final_mode: ARMED"
    path = tmp_path / f"{name}.scn"
    path.write_bytes(BREAKIN_TEXT.encode("utf-8"))
    out_dir = tmp_path / "out"
    argv = [command, str(path)] + (["--out", str(out_dir)] if command == "run" else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: scenario name must hold no line break, got {name!r}\n"
    assert captured.out == ""
    assert _run_names_under(out_dir) == []


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("brk", LINE_BREAKS)
def test_a_scenario_name_with_a_line_break_is_refused_before_its_lines(tmp_path, command, brk, capsys):
    # a parse error prints the path, so the name is checked before the file is read
    name = f"x{brk}final_mode: ARMED"
    path = tmp_path / f"{name}.scn"
    path.write_bytes(b"0 arm\nbogus\n")
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: scenario name must hold no line break, got {name!r}\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("brk", ["", *LINE_BREAKS])
def test_a_scenario_error_is_one_line_whatever_the_directory_name(tmp_path, command, brk, capsys):
    # the name rule sees only the file's base name: a line break in a directory
    # once split the error, "error: .../dir" then "final_mode: ARMED/s.scn: line 2: ..."
    folder = tmp_path / f"dir{brk}final_mode: ARMED"
    folder.mkdir()
    path = str(folder / "s.scn")
    (folder / "s.scn").write_bytes(b"0 arm\nbogus\n")
    assert main([command, path]) == 1
    captured = capsys.readouterr()
    shown = repr(path) if brk else path  # a path without a line break prints as it is
    assert captured.err == f"error: {shown}: line 2: unknown directive 'bogus'\n"
    assert captured.out == ""


@pytest.mark.parametrize("brk", ["", *LINE_BREAKS])
@pytest.mark.parametrize(
    "data, message",
    [
        (b"not json", ": not valid JSON (Expecting value: line 1 column 1 (char 0))"),
        (b"[1]", ": config file must be a JSON object"),
        (b'{"latency_ms": 5,\n "x": "\xff"}', ": line 2: not UTF-8 text (invalid start byte)"),
    ],
    ids=["json", "not-an-object", "not-utf8"],
)
def test_a_config_file_error_is_one_line_whatever_its_path(
    breakin_file, tmp_path, brk, data, message, capsys
):
    folder = tmp_path / f"dir{brk}final_mode: ARMED"
    folder.mkdir()
    cfg = str(folder / "c.json")
    (folder / "c.json").write_bytes(data)
    out_dir = tmp_path / "out"
    assert main(["run", breakin_file, "--config", cfg, "--out", str(out_dir)]) == 1
    captured = capsys.readouterr()
    shown = repr(cfg) if brk else cfg
    assert captured.err == f"error: {shown}{message}\n"
    assert captured.out == ""
    assert _run_names_under(out_dir) == []


RUN_NAMES = ("report.txt", "report.json", "outbox.log", "clips", "maildir")


def _run_names_under(out_dir) -> list:
    return [name for name in RUN_NAMES if os.path.lexists(os.path.join(out_dir, name))]


def test_non_utf8_config_file_names_its_file_and_line(breakin_file, tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(b'{"latency_ms": 5,\n "owner_email": "\xff"}\n')
    seen = []
    load = cli.load_config_file
    monkeypatch.setattr(cli, "load_config_file", lambda path: seen.append(path) or load(path))
    out_dir = tmp_path / "out"
    assert main(["run", breakin_file, "--config", str(cfg), "--out", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {cfg}: line 2: not UTF-8 text (invalid start byte)\n"
    assert captured.out == ""
    assert _run_names_under(out_dir) == []
    assert seen == [str(cfg)]  # still read through cli.load_config_file, with its path


@pytest.mark.parametrize(
    "text, argv, message",
    [
        ("0 arm\n1_000 door open\n", [], "line 2: malformed time '1_000'"),
        ("٣ arm\n", [], "line 1: malformed time '٣'"),
        ("+5 arm\n", [], "line 1: malformed time '+5'"),
        ("0 arm\n-5 arm\n", [], "line 2: negative time -5"),
        ("set latency_ms 1_0\n", [], "line 1: bad value for 'latency_ms': expected an integer"),
        (BREAKIN_TEXT, ["--set", "latency_ms=1_0"], "bad value for 'latency_ms'"),
        (BREAKIN_TEXT, ["--set", "max_retries=٣"], "bad value for 'max_retries'"),
        (BREAKIN_TEXT, ["--seed", "1_0"], "argument --seed: invalid seed value: '1_0'"),
        (BREAKIN_TEXT, ["--seed", "٣"], "argument --seed"),
    ],
    ids=["time-underscore", "time-arabic-indic", "time-plus", "time-negative", "set-line",
         "set-flag", "set-flag-arabic-indic", "seed-underscore", "seed-arabic-indic"],
)
def test_integers_outside_the_grammar_exit_one_naming_where(tmp_path, text, argv, message, capsys):
    sc = tmp_path / "ints.scn"
    sc.write_text(text, encoding="utf-8")
    out_dir = tmp_path / "out"
    assert main(["run", str(sc), *argv, "--out", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert message in captured.err and "Traceback" not in captured.err
    if not argv:  # a scenario line is named with its file
        assert captured.err.startswith(f"error: {sc}: line ")
    assert captured.out == ""
    assert _run_names_under(out_dir) == []


def test_config_file_int_string_takes_the_integer_grammar(breakin_file, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"latency_ms": "1_0"}), encoding="utf-8")
    assert main(["run", breakin_file, "--config", str(cfg)]) == 1
    assert "bad value for 'latency_ms': expected an integer, got '1_0'" in capsys.readouterr().err
    cfg.write_text(json.dumps({"latency_ms": "10"}), encoding="utf-8")
    assert main(["run", breakin_file, "--config", str(cfg), "--set", "max_retries=0"]) == 0


@pytest.mark.parametrize(
    "text, argv, config, message",
    [
        ("0 distance 1_0.5\n", [], None, "line 1: malformed number '1_0.5'"),
        ("0 arm\n1 distance \uff11.5\n", [], None, "line 2: malformed number '\uff11.5'"),
        ("set threshold_m \uff12\n", [], None,
         "line 1: bad value for 'threshold_m': expected a number, got '\uff12'"),
        (BREAKIN_TEXT, ["--set", "threshold_m= 1.5"], None,
         "bad value for 'threshold_m': expected a number, got ' 1.5'"),
        (BREAKIN_TEXT, ["--set", "drop_probability=0_5"], None, "bad value for 'drop_probability'"),
        (BREAKIN_TEXT, [], {"speed_of_sound": "3_43"}, "bad value for 'speed_of_sound'"),
        (BREAKIN_TEXT, [], {"threshold_m": "1.5 "}, "bad value for 'threshold_m'"),
    ],
    ids=["line-underscore", "line-fullwidth", "set-line-fullwidth", "set-flag-padding",
         "set-flag-underscore", "config-underscore", "config-padding"],
)
def test_decimals_outside_the_grammar_exit_one_naming_where(tmp_path, text, argv, config, message,
                                                            capsys):
    # float() alone would take each of these: the decimal grammar is the integer one's
    sc = tmp_path / "decimals.scn"
    sc.write_text(text, encoding="utf-8")
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv = ["--config", str(path)]
    out_dir = tmp_path / "out"
    assert main(["run", str(sc), *argv, "--out", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert message in captured.err and "Traceback" not in captured.err
    if text != BREAKIN_TEXT:  # a scenario line is named with its file
        assert captured.err.startswith(f"error: {sc}: line ")
    assert captured.out == ""
    assert _run_names_under(out_dir) == []


@pytest.mark.parametrize(
    "argv, config, key",
    [
        (["--set", "maildir= true"], None, "maildir"),
        (["--set", "presence_to_authorities=yes "], None, "presence_to_authorities"),
        ([], {"maildir": " true"}, "maildir"),
        ([], {"presence_to_authorities": "off\n"}, "presence_to_authorities"),
    ],
    ids=["set-flag-leading", "set-flag-trailing", "config-leading", "config-newline"],
)
def test_padded_booleans_exit_one_naming_the_key(breakin_file, tmp_path, argv, config, key, capsys):
    # the words take any case, but a boolean's text takes no padding, as a number's takes none
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv = ["--config", str(path)]
    assert main(["run", breakin_file, *argv]) == 1
    captured = capsys.readouterr()
    assert f"bad value for '{key}': expected a boolean" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert main(["run", breakin_file, "--set", "presence_to_authorities=YeS"]) == 0


def test_password_space_takes_the_integer_grammar(capsys):
    assert main(["password-space", "1_0"]) == 1
    assert "argument n: invalid integer value: '1_0'" in capsys.readouterr().err


def test_unencodable_address_fails_the_write_phase_cleanly(breakin_file, tmp_path, capsys):
    # a non-UTF-8 byte in argv arrives as a lone surrogate, which no UTF-8 mail file can hold
    out_dir = _out_dir_with_notes(tmp_path)
    argv = ["run", breakin_file, "--set", "maildir=true", "--set", "owner_email=a\udcffb"]
    assert main([*argv, "--out", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {os.path.join(str(out_dir), 'maildir')}: ")
    assert "surrogates not allowed" in captured.err
    assert captured.out == ""
    assert _files_under(out_dir) == ["notes.txt"]
    assert main(argv) == 0  # without --out nothing holds the address


# -- every input runs or is refused: a property over cli.main ----------------

_KEYS = list(SimConfig._fields)
_EDGES = ["0", "-1", str(2**63), "1e308", "nan", "inf", "true", ""]
_BROKEN = [f"a@x{brk}Bcc: e@x" for brk in LINE_BREAKS]  # string texts that hold a line break
_KEY_TEXTS = {
    **{key: st.sampled_from(_EDGES) for key in _KEYS},
    "threshold_m": st.sampled_from(_EDGES + ["0.5", "1.5", "3"]),
    "drop_probability": st.sampled_from(_EDGES + ["0.5", "1", "1.0"]),
    "latency_ms": st.sampled_from(_EDGES + ["10", "007", "1_0", "٣"]),
    "max_retries": st.sampled_from(_EDGES + ["1", "8", "255", "256", "007"]),
    "clip_bytes": st.sampled_from(_EDGES + ["16", str(2**63 - 1)]),
    "clip_duration_ms": st.sampled_from(_EDGES + ["5000", "10000", "7_000"]),
    "password": st.sampled_from(_EDGES + ["1", "0110", "1" * 33]),
    "maildir": st.sampled_from(_EDGES + ["on", "false"]),
    "owner_email": st.sampled_from(_EDGES + ["o@x.example", "ü@x.example", "a\udcffb"] + _BROKEN),
    "authorities_email": st.sampled_from(_EDGES + _BROKEN),
}
_set_flags = st.lists(
    st.one_of(
        st.sampled_from(_KEYS).flatmap(lambda k: _KEY_TEXTS[k].map(f"{k}={{}}".format)),
        st.sampled_from(["latency_ms", "=5", "warp=9"]),
    ),
    max_size=3,
)
_json_values = st.one_of(
    st.integers(-1, 10**20), st.floats(), st.booleans(), st.none(), st.text(max_size=4),
    st.lists(st.integers(0, 3), max_size=2),
)
_config_texts = st.one_of(
    st.none(),
    st.sampled_from([b"not json", b"[1, 2]", b'{"latency_ms": \xff}', b"\xef\xbb\xbf{}"]),
    st.dictionaries(
        st.sampled_from(_KEYS + ["warp"]),
        st.one_of(_json_values, st.sampled_from(_EDGES)),
        max_size=3,
    ),
).map(lambda doc: doc if doc is None or isinstance(doc, bytes) else json.dumps(doc).encode())
_times = st.one_of(
    st.integers(0, 30000).map(str),
    st.sampled_from(["1_000", "٣", "-5", "+5", "1" * 40, str(2**64), "0x10", "1e3", "¹"]),
)
_event_words = st.sampled_from([
    "arm", "mode_button", "press_down", "press_up", "door open", "door close", "door ajar",
    "distance 0.5", "distance 3.5", "distance nan", "distance 1e999", "distance -1", "distance 0_5",
])
_scenario_lines = st.one_of(
    st.builds("{} {}".format, _times, _event_words),
    st.sampled_from(_KEYS).flatmap(lambda k: _KEY_TEXTS[k].map(f"set {k} {{}}".format)),
    st.sampled_from(["# a comment", "", "set", "arm"]),
).flatmap(lambda line: st.sampled_from([line, line + "  # note"]))


def _scenario_bytes(lines, bad, at) -> bytes:
    encoded = [line.encode("utf-8", "surrogateescape") for line in lines]
    encoded.insert(at, bad)  # a line of non-UTF-8 bytes, or an empty line
    return b"\n".join(encoded)


_scenario_files = st.builds(
    _scenario_bytes,
    st.lists(_scenario_lines, max_size=8),
    st.sampled_from([b"", b"", b"", b"\xff", b"caf\xe9"]),
    st.integers(0, 8),
)
_seeds = st.one_of(
    st.integers(0, 2**64 - 1).map(str),
    st.sampled_from(["0", "7", str(2**64 - 1)]),
    st.sampled_from(["-1", str(2**64), "1_0", "٣", "+3"]),
)


def _tree(root) -> dict:
    """An --out tree: file bytes, but a clip's size only (a huge one is sparse)."""
    tree = {}
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            if rel.startswith("clips"):
                tree[rel] = os.path.getsize(path)
            else:
                with open(path, "rb") as fh:
                    tree[rel] = fh.read()
    return tree


def _main_captured(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


@settings(max_examples=200, deadline=None)
@given(_scenario_files, _config_texts, _set_flags, _seeds, st.sampled_from(FORMATS))
def test_every_input_runs_or_is_refused(scenario, config, sets, seed, fmt):
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "s.scn")
        with open(path, "wb") as fh:
            fh.write(scenario)
        argv = ["run", path, "--seed", seed, "--format", fmt]
        if config is not None:
            argv += ["--config", os.path.join(root, "c.json")]
            with open(argv[-1], "wb") as fh:
                fh.write(config)
        for flag in sets:
            argv += ["--set", flag]
        first = os.path.join(root, "a")
        code, out, err = _main_captured([*argv, "--out", first])
        assert code in (0, 1), err
        if code == 1:
            assert "error: " in err and "Traceback" not in err
            assert out == ""
            assert _run_names_under(first) == []
            return
        assert err == ""
        again = os.path.join(root, "b")
        assert _main_captured([*argv, "--out", again]) == (0, out, "")
        assert _tree(again) == _tree(first)
