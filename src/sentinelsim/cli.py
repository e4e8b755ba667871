"""Command-line interface.

`run` has three phases with one failure rule each. Prepare reads and checks the inputs
(exit 1). Simulate runs the scenario and builds its mail, writing no file; any exception
in it is an internal fault (exit 2). Write puts every --out file in place or none (exit 1).
"""

from __future__ import annotations

import argparse
import functools
import os
import shutil
import sys
from typing import List, Optional

from . import __version__, engine, pulselock, rng
from .config import (
    ConfigError, SimConfig, apply_overrides, integer, load_config_file, read_text, shown,
)
from .controller import notifications
from .notify import LineFileSink, MaildirSink
from .report import FORMATS, render_report
from .scenario import Scenario, ScenarioError, parse_scenario

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


class _Parser(argparse.ArgumentParser):
    # usage problems are configuration problems, not runtime failures
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def seed(text: str) -> int:
    """The --seed type; argparse names it in a usage error, rng owns the range."""
    value = integer(text)
    try:
        rng.SplitMix64(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


@functools.cache  # built on the first main() call, not at import; parse_args keeps no state
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sentinelsim", description=__doc__)
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and render its report")
    run_p.add_argument("scenario", help="scenario file")
    run_p.add_argument("--seed", type=seed, default=0, help="RNG seed in [0, 2^64) (default 0)")
    run_p.add_argument("--config", help="JSON config file of overrides")
    run_p.add_argument("--out", help="directory for report, outbox log and clips")
    run_p.add_argument("--format", choices=FORMATS, default="text", help="report format")
    run_p.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="config override, highest precedence (repeatable)",
    )
    run_p.set_defaults(func=_cmd_run)

    val_p = sub.add_parser("validate", help="parse and sanity-check a scenario file")
    val_p.add_argument("scenario", help="scenario file")
    val_p.set_defaults(func=_cmd_validate)

    space_p = sub.add_parser(
        "password-space", help="print the candidate count for an n-pulse password"
    )
    space_p.add_argument("n", type=integer, help="pulse count")
    space_p.set_defaults(func=_cmd_password_space)

    return parser


def _parse_cli_overrides(pairs: List[str]) -> dict:
    overrides = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ConfigError(f"--set expects KEY=VALUE, got {pair!r}")
        overrides[key] = value
    return overrides


def _load_scenario(path: str):
    name = os.path.splitext(os.path.basename(path))[0]
    try:
        name.encode("utf-8")  # the report carries the name as UTF-8 text
    except UnicodeEncodeError:  # a lone surrogate: a non-UTF-8 byte in the file name
        # repr escapes the surrogate, so the message itself can be written out
        raise ValueError(f"{path!r}: file name is not UTF-8 text") from None
    Scenario(name=name)  # its name rule, before the file is read: a parse error prints the path
    return parse_scenario(read_text(path), name=name)


def _clear_out_dir(out: str) -> None:
    """Remove what an earlier run wrote under ``out``; leave other files alone."""
    os.makedirs(out, exist_ok=True)
    for name in ("report.txt", "report.json", "outbox.log", "clips", "maildir"):
        path = os.path.join(out, name)
        if os.path.isdir(path) and not os.path.islink(path):
            shutil.rmtree(path)
        elif os.path.lexists(path):
            os.remove(path)


def _write_out(out: str, fmt: str, rendered: bytes, report, cfg, mail) -> None:
    """Write every --out file of a finished run, or on a failed write none of them."""
    path = os.path.join(out, "report.json" if fmt == "structured" else "report.txt")
    try:
        with open(path, "wb") as fh:
            fh.write(rendered)
        path = os.path.join(out, "outbox.log")
        open(path, "w", encoding="utf-8").close()  # the sink appends
        sinks = [(path, LineFileSink(path))]
        if cfg.maildir:
            root = os.path.join(out, "maildir")
            sinks.append((root, MaildirSink(root, cfg.addresses())))
        for path, sink in sinks:  # each sink takes every mail, in the run's order
            for notification in mail:
                sink.deliver(notification)
        for job in report.clips:
            path = os.path.join(out, job.stored_ref)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "wb") as fh:
                fh.truncate(report.clip_bytes)  # zero bytes, never held in memory
    except (OSError, UnicodeEncodeError) as exc:  # the latter: an address no file can hold
        _clear_out_dir(out)
        name = shown(getattr(exc, "filename", None) or path)
        raise OSError(f"cannot write {name}: {getattr(exc, 'strerror', None) or exc}") from exc


def _cmd_run(args) -> int:
    scenario = _load_scenario(args.scenario)
    file_overrides = load_config_file(args.config) if args.config else {}
    # only the fully layered config is validated, inside engine.prepare
    base = apply_overrides(SimConfig(), file_overrides)
    cfg = engine.prepare(scenario, base, _parse_cli_overrides(args.overrides))
    if args.out:
        _clear_out_dir(args.out)

    try:
        report = engine.simulate(scenario, cfg, args.seed)
        mail = notifications(report.actions, report.clips, cfg) if args.out else ()
    except Exception as exc:
        tb = exc.__traceback__
        while tb.tb_next is not None:  # to the innermost frame
            tb = tb.tb_next
        code = tb.tb_frame.f_code
        where = f"{os.path.basename(code.co_filename)}:{tb.tb_lineno} in {code.co_name}"
        print(f"runtime error: {type(exc).__name__}: {exc}\n  at {where}", file=sys.stderr)
        return EXIT_RUNTIME
    rendered = render_report(report, args.format)

    if args.out:
        _write_out(args.out, args.format, rendered, report, cfg, mail)
    out = getattr(sys.stdout, "buffer", None)
    if out is None:  # a text-only stream, such as io.StringIO
        sys.stdout.write(rendered.decode("utf-8"))
    else:  # the report's bytes as they are, after any text already written
        sys.stdout.flush()
        out.write(rendered)
    return EXIT_OK


def _cmd_validate(args) -> int:
    scenario = _load_scenario(args.scenario)
    engine.prepare(scenario)
    print(f"OK: {len(scenario.events)} events, {len(scenario.overrides)} overrides")
    return EXIT_OK


def _cmd_password_space(args) -> int:
    print(pulselock.search_space(args.n))
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --version, --help or a usage error
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ScenarioError as exc:
        for line, msg in exc.errors:
            print(f"error: {shown(args.scenario)}: line {line}: {msg}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
