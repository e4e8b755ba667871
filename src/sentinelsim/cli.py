"""Command-line interface.

Exit codes: 0 on success, 1 for scenario or configuration problems
(including bad command-line usage), 2 for runtime failures inside a
simulation.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from typing import List, Optional

from . import __version__, engine, pulselock
from .config import ConfigError, SimConfig, apply_overrides, load_config_file
from .notify import LineFileSink, MaildirSink
from .report import FORMATS, render_report
from .scenario import ScenarioError, parse_scenario

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


class _Parser(argparse.ArgumentParser):
    # usage problems are configuration problems, not runtime failures
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sentinelsim", description=__doc__)
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and render its report")
    run_p.add_argument("scenario", help="scenario file")
    run_p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    run_p.add_argument("--config", help="JSON config file of overrides")
    run_p.add_argument("--out", help="directory for report, outbox log and clips")
    run_p.add_argument(
        "--format", choices=FORMATS, default="text", help="report format"
    )
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
    space_p.add_argument("n", type=int, help="pulse count")
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
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    name = os.path.splitext(os.path.basename(path))[0]
    return parse_scenario(text, name=name)


def _clear_out_dir(out: str) -> None:
    """Remove what an earlier run wrote under ``out``; leave other files alone."""
    os.makedirs(out, exist_ok=True)
    for name in ("report.txt", "report.json", "clips", "maildir"):
        path = os.path.join(out, name)
        if os.path.isdir(path) and not os.path.islink(path):
            shutil.rmtree(path)
        elif os.path.lexists(path):
            os.remove(path)


def _cmd_run(args) -> int:
    scenario = _load_scenario(args.scenario)
    file_overrides = load_config_file(args.config) if args.config else {}
    cli_overrides = _parse_cli_overrides(args.overrides)
    # only the fully layered config is validated, inside resolve_run_config
    base = apply_overrides(SimConfig(), file_overrides)
    cfg = engine.resolve_run_config(scenario, base, cli_overrides)

    extra_sinks = []
    if args.out:
        _clear_out_dir(args.out)
        outbox_path = os.path.join(args.out, "outbox.log")
        open(outbox_path, "w", encoding="utf-8").close()  # the sink appends
        extra_sinks.append(LineFileSink(outbox_path))
        if cfg.maildir:
            extra_sinks.append(
                MaildirSink(os.path.join(args.out, "maildir"), cfg.addresses())
            )

    report = engine.run(
        scenario,
        seed=args.seed,
        base_config=base,
        cli_overrides=cli_overrides,
        extra_sinks=extra_sinks,
    )
    rendered = render_report(report, args.format)

    if args.out:
        ext = "json" if args.format == "structured" else "txt"
        with open(os.path.join(args.out, f"report.{ext}"), "wb") as fh:
            fh.write(rendered)
        clip_dir = os.path.join(args.out, "clips")
        for job in report.clips:
            os.makedirs(clip_dir, exist_ok=True)
            with open(os.path.join(args.out, job.stored_ref), "wb") as fh:
                fh.write(b"\x00" * report.clip_bytes)

    sys.stdout.write(rendered.decode("utf-8"))
    return EXIT_OK


def _cmd_validate(args) -> int:
    scenario = _load_scenario(args.scenario)
    cfg = engine.resolve_run_config(scenario)
    engine.validate_events(scenario, cfg)
    print(
        f"OK: {len(scenario.events)} events, {len(scenario.overrides)} overrides"
    )
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
            print(f"error: line {line}: {msg}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
