"""Workload set-up, the timed operation of each workload, and output checks.

Each workload object is built by its constructor (the set-up that
``setup_s`` times). ``op(i)`` runs operation ``i`` and returns its raw
output; ``check(i, output)`` returns the problems found in that output and
the exact simulated counts it carries; ``file_checks()`` checks the files
the workload's program path writes, untimed. Only ``op`` is timed. Every call
into sentinelsim goes through a module attribute, so the tracer's wrappers
see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
from collections import Counter
from typing import Dict, Iterable, List, Tuple

from sentinelsim import config, engine, report, scenario

import gen

NOTIFICATION_KINDS = ("PRESENCE", "INTRUSION", "DEACTIVATION_FAILED", "DEACTIVATION_SUCCEEDED")

# Delivered/sent on long_stream must lie within this many standard
# deviations of the closed form 1 - p**(max_retries + 1).
BINOMIAL_Z = 5.0

# alert_storm operations rerun untimed with --out to check the files written
FILE_CHECKS = 16

Checked = Tuple[List[str], Dict[str, int]]


def read_actions(actions: Iterable[Tuple[str, str, str]], outbox: Dict[str, int], clips: int) -> Checked:
    """Exact simulated counts of one report, and where its summary disagrees
    with its own action log."""
    seen = Counter()
    attempts = 0
    for _component, action, details in actions:
        seen[action] += 1
        if action in ("RX", "DROP"):
            attempts += int(details.rsplit("attempts=", 1)[1])
    counts = {"actions": sum(seen.values())}
    for kind in NOTIFICATION_KINDS:
        counts[f"notifications.{kind}"] = outbox[kind]
    counts.update({
        "clips": clips,
        "presence_triggers": seen["PRESENCE_TRIGGER"],
        "link.frames": seen["TX"],
        "link.delivered": seen["RX"],
        "link.drops": seen["DROP"],
        "link.attempts": attempts,
        "link.retries": attempts - seen["TX"],
        "suppressed": seen["SUPPRESSED"],
        "password.accepted": seen["DEACTIVATION_SUCCEEDED"],
        "password.rejected": seen["DEACTIVATION_FAILED"],
    })
    problems = [
        f"outbox.{kind}={outbox[kind]} but {seen[kind]} {kind} actions"
        for kind in NOTIFICATION_KINDS
        if outbox[kind] != seen[kind]
    ]
    if clips != seen["START_RECORDING"]:
        problems.append(f"{clips} clips but {seen['START_RECORDING']} START_RECORDING actions")
    if seen["RX"] + seen["DROP"] != seen["TX"]:
        problems.append("RX + DROP actions do not add up to TX actions")
    return problems, counts


def read_text_report(data: bytes, name: str, seed: int) -> Checked:
    """Check a text report against its scenario and seed, and count it."""
    lines = data.decode("utf-8").split("\n")
    try:
        cut = lines.index("--- summary ---")
    except ValueError:
        return ["no summary section"], {}
    summary = {}
    for line in lines[cut + 1:]:
        key, sep, value = line.partition(": ")
        if sep and not key.startswith("clip "):
            summary[key] = value
    problems = []
    if summary.get("scenario") != name or summary.get("seed") != str(seed):
        problems.append(f"summary names {summary.get('scenario')}/{summary.get('seed')}, expected {name}/{seed}")
    outbox = {kind: int(summary.get(f"outbox.{kind}", -1)) for kind in NOTIFICATION_KINDS}
    actions = [line.split("\t", 3)[1:] for line in lines[:cut]]
    more, counts = read_actions(actions, outbox, int(summary.get("clips", -1)))
    return problems + more, counts


class SeedSweep:
    """parse -> run -> text render of small scenarios, one run seed per op."""

    def __init__(self, texts: List[tuple], seed: int, workdir: str):
        self.texts = texts
        self.seed = seed
        self.overrides = gen.SWEEP_OVERRIDES
        self.events = []
        for name, text in texts:
            parsed = scenario.parse_scenario(text, name=name)
            cfg = engine.resolve_run_config(parsed, None, self.overrides)
            engine.validate_events(parsed, cfg)
            self.events.append(len(parsed.events))
        self.cycle = len(texts)

    def events_of(self, i: int) -> int:
        return self.events[i % self.cycle]

    def op(self, i: int) -> bytes:
        name, text = self.texts[i % self.cycle]
        parsed = scenario.parse_scenario(text, name=name)
        result = engine.run(parsed, seed=gen.run_seed(self.seed, i), cli_overrides=self.overrides)
        return report.render_report(result, "text")

    def check(self, i: int, output: bytes) -> Checked:
        return read_text_report(output, self.texts[i % self.cycle][0], gen.run_seed(self.seed, i))

    def file_checks(self) -> Tuple[int, List[str]]:
        return 0, []  # the library path writes no files


class LongStream:
    """engine.run + text render of one scenario of ~10^5 events, parsed once."""

    def __init__(self, texts: List[tuple], seed: int, workdir: str):
        (name, text), = texts
        self.seed = seed
        self.overrides = gen.STREAM_OVERRIDES
        self.scenario = scenario.parse_scenario(text, name=name)
        self.cfg = engine.resolve_run_config(self.scenario, None, self.overrides)
        engine.validate_events(self.scenario, self.cfg)
        self.cycle = 1

    def events_of(self, i: int) -> int:
        return len(self.scenario.events)

    def op(self, i: int) -> bytes:
        result = engine.run(self.scenario, seed=gen.run_seed(self.seed, i), cli_overrides=self.overrides)
        return report.render_report(result, "text")

    def check(self, i: int, output: bytes) -> Checked:
        problems, counts = read_text_report(output, self.scenario.name, gen.run_seed(self.seed, i))
        sent = counts.get("link.frames", 0)
        if sent:
            p = self.cfg.drop_probability
            expected = 1.0 - p ** (self.cfg.max_retries + 1)
            ratio = counts["link.delivered"] / sent
            width = BINOMIAL_Z * math.sqrt(expected * (1.0 - expected) / sent)
            if abs(ratio - expected) > width:
                problems.append(
                    f"delivered/sent {ratio:.4f} outside {expected:.4f} +- {width:.4f} (n={sent})"
                )
        return problems, counts

    def file_checks(self) -> Tuple[int, List[str]]:
        return 0, []  # the library path writes no files


class AlertStorm:
    """``sentinelsim run <file> --config <file> --format structured`` in-process.

    The timed operation prints its report to a captured stdout and writes
    no files: creating files on the reference host's virtual ext4 disk cost
    20-350 us each and drifted upward within minutes, which no run length
    could steady. ``file_checks`` runs the first FILE_CHECKS operations
    again with a fresh ``--out`` directory each, untimed, and checks every
    file the CLI writes there.
    """

    def __init__(self, texts: List[tuple], seed: int, workdir: str):
        from sentinelsim import cli

        self.cli = cli
        self.seed = seed
        self.config_path = os.path.join(workdir, gen.STORM_CONFIG_FILE)
        self.out_root = os.path.join(workdir, "out")
        self.paths = [os.path.join(workdir, f"{name}.scn") for name, _text in texts]
        base = config.apply_overrides(config.SimConfig(), config.load_config_file(self.config_path))
        self.events = []
        for path, (name, _text) in zip(self.paths, texts):
            with open(path, encoding="utf-8") as fh:
                parsed = scenario.parse_scenario(fh.read(), name=name)
            cfg = engine.resolve_run_config(parsed, base)
            engine.validate_events(parsed, cfg)
            self.events.append(len(parsed.events))
        self.clip_bytes = base.clip_bytes
        self.cycle = len(texts)
        # stdout of the runs with --out, which the timed runs must repeat
        self.printed: Dict[int, bytes] = {}

    def events_of(self, i: int) -> int:
        return self.events[i % self.cycle]

    def _main(self, i: int, *extra: str):
        stdout, stderr = io.StringIO(), io.StringIO()
        argv = [
            "run", self.paths[i % self.cycle],
            "--seed", str(gen.run_seed(self.seed, i)),
            "--config", self.config_path,
            "--format", "structured",
            *extra,
        ]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = self.cli.main(argv)
        return code, stdout.getvalue(), stderr.getvalue()

    def op(self, i: int):
        return self._main(i)

    def check(self, i: int, output) -> Checked:
        code, stdout, stderr = output
        if code != 0:
            return [f"exit code {code}: {stderr.strip()}"], {}
        printed = stdout.encode("utf-8")
        problems = []
        if i in self.printed and self.printed[i] != printed:
            problems.append("stdout differs from the same run with --out")
        doc = json.loads(printed)
        actions = [(a["component"], a["action"], a["details"]) for a in doc["actions"]]
        more, counts = read_actions(actions, doc["outbox"], len(doc["clips"]))
        return problems + more, counts

    def file_checks(self) -> Tuple[int, List[str]]:
        """Run the first FILE_CHECKS operations with a fresh --out each and
        check the files."""
        problems = []
        for i in range(FILE_CHECKS):
            out = os.path.join(self.out_root, f"op-{i:04d}")
            try:
                code, stdout, stderr = self._main(i, "--out", out)
                if code != 0:
                    problems.append(f"--out op {i}: exit code {code}: {stderr.strip()}")
                    continue
                self.printed[i] = stdout.encode("utf-8")
                problems += [f"--out op {i}: {p}" for p in self._check_files(out, self.printed[i])]
            finally:
                shutil.rmtree(out, ignore_errors=True)
        return FILE_CHECKS, problems

    def _check_files(self, out: str, printed: bytes) -> List[str]:
        with open(os.path.join(out, "report.json"), "rb") as fh:
            problems = [] if fh.read() == printed else ["report.json differs from stdout"]
        doc = json.loads(printed)
        notes = sum(doc["outbox"].values())
        log_path = os.path.join(out, "outbox.log")
        lines = 0
        if os.path.exists(log_path):
            with open(log_path, "rb") as fh:
                lines = fh.read().count(b"\n")
        if lines != notes:
            problems.append(f"outbox.log has {lines} lines for {notes} notifications")
        new_dir = os.path.join(out, "maildir", "new")
        mails = len(os.listdir(new_dir)) if os.path.isdir(new_dir) else 0
        if mails != notes:
            problems.append(f"maildir/new holds {mails} files for {notes} notifications")
        for clip in doc["clips"]:
            path = os.path.join(out, clip["stored_ref"])
            size = os.path.getsize(path) if os.path.exists(path) else -1
            if size != self.clip_bytes or clip["bytes"] != self.clip_bytes:
                problems.append(f"{clip['stored_ref']} holds {size} bytes, expected {self.clip_bytes}")
        return problems


CLASSES = {"seed_sweep": SeedSweep, "long_stream": LongStream, "alert_storm": AlertStorm}

