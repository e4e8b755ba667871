"""Run reports and their text / structured renderings.

Rendering is deterministic: the same report always produces the same bytes,
so replays can be compared with a plain byte diff. The text form is the
action lines as the controller logged them, then the summary. The structured
form is JSON with sorted keys, a two-space indent, ASCII only (``\\uXXXX``
escapes) and a trailing newline, byte-identical to
``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``; it is written out
directly rather than through ``json.dumps``, whose indenting encoder is
pure Python, and reads the action lines through ``controller.action_fields``.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from typing import Dict, NamedTuple, Tuple

from .controller import RecordingJob, action_fields
from .events import collector_paused

FORMATS = ("text", "structured")


class RunReport(NamedTuple):
    """``actions`` holds the action lines as the controller writes them,
    ``<int>\\t<component>\\t<action>\\t<details>`` with no tab in the first three fields."""

    scenario: str
    seed: int
    rng_algorithm: str
    final_mode: str
    actions: Tuple[str, ...]
    outbox_counts: Dict[str, int]
    clips: Tuple[RecordingJob, ...]
    clip_bytes: int

    def summary_lines(self) -> list:
        lines = [
            "--- summary ---",
            f"scenario: {self.scenario}",
            f"seed: {self.seed}",
            f"rng: {self.rng_algorithm}",
            f"final_mode: {self.final_mode}",
        ]
        for kind in sorted(self.outbox_counts):
            lines.append(f"outbox.{kind}: {self.outbox_counts[kind]}")
        lines.append(f"clips: {len(self.clips)}")
        for job in self.clips:
            lines.append(
                f"clip {job.clip_id}: started_at={job.started_at} "
                f"duration_ms={job.duration_ms} ref={job.stored_ref} "
                f"bytes={self.clip_bytes}"
            )
        return lines


@collector_paused
def render_report(report: RunReport, fmt: str = "text") -> bytes:
    """Render to UTF-8 bytes in the requested format."""
    if fmt == "text":
        # "" is the final line break, without a copy of the joined text
        return "\n".join([*report.actions, *report.summary_lines(), ""]).encode("utf-8")
    if fmt == "structured":
        return _render_structured(report)
    raise ValueError(f"unknown report format {fmt!r}; expected one of {FORMATS}")


def _container(items: list, open_: str, close: str) -> str:
    if not items:
        return open_ + close
    return f"{open_}\n" + ",\n".join(items) + f"\n  {close}"


def _render_structured(report: RunReport) -> bytes:
    """Byte-identical to ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``,
    which tests/test_report.py keeps as the reference: keys in sorted order,
    strings through json's own C escaper, integers through ``int.__repr__``
    as json writes them (an action's ``t`` is its line's ``str(int)`` digits)."""
    enc = encode_basestring_ascii
    num = int.__repr__
    actions = [
        f'    {{\n      "action": {enc(action)},\n      "component": {enc(component)},'
        f'\n      "details": {enc(details)},\n      "t": {t}\n    }}'
        for t, component, action, details in action_fields(report.actions)
    ]
    size = num(report.clip_bytes)
    clips = [
        f'    {{\n      "bytes": {size},\n      "clip_id": {enc(job.clip_id)},'
        f'\n      "duration_ms": {num(job.duration_ms)},\n      "started_at": {num(job.started_at)},'
        f'\n      "stored_ref": {enc(job.stored_ref)}\n    }}'
        for job in report.clips
    ]
    outbox = [
        f"    {enc(kind)}: {num(count)}" for kind, count in sorted(report.outbox_counts.items())
    ]
    return (
        f'{{\n  "actions": {_container(actions, "[", "]")},'
        f'\n  "clips": {_container(clips, "[", "]")},'
        f'\n  "final_mode": {enc(report.final_mode)},'
        f'\n  "outbox": {_container(outbox, "{", "}")},'
        f'\n  "rng": {enc(report.rng_algorithm)},'
        f'\n  "scenario": {enc(report.scenario)},'
        f'\n  "seed": {num(report.seed)}\n}}\n'
    ).encode("ascii")
