"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces the public functions of each sentinelsim module
with wrappers, at the names the callers look them up by, and
``Tracer.uninstall`` puts the originals back. Untraced runs never call
``install``. Span names follow the OpenTelemetry habit of dotted
``<layer>.<operation>`` names; the layer is the sentinelsim module.

Every span records its id, its parent's id, the operation it belongs to,
its name and its start and end on the host clock. Calls, total time and
self time (span time minus the time covered by its child spans) are
aggregated for every span; full records are kept in memory up to a cap and
written out when the run ends.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

# (span_id, parent_id or -1, op_id, name, start_s, end_s)
Span = Tuple[int, int, int, str, float, float]

LAYERS = (
    "scenario", "config", "engine", "events", "controller", "sensors",
    "pulselock", "airframe", "notify", "report", "cli",
)

DISPATCH_KINDS = (
    "arm", "distance", "door_open", "door_close", "mode_button", "press_down",
    "press_up", "frame_arrival", "clip_done", "attempt_deadline",
)

# Every span name the tracer can emit, in report order.
SPAN_NAMES = (
    "scenario.parse_scenario",
    "config.resolve_run_config", "config.load_config_file", "config.apply_overrides",
    "engine.run", "engine.validate_events", "engine.build_controller",
    "events.push", "events.pop",
    *(f"controller.dispatch.{kind}" for kind in DISPATCH_KINDS),
    "sensors.echo_from_distance", "sensors.distance_from_echo", "sensors.presence_detect",
    "pulselock.begin_attempt", "pulselock.record_press", "pulselock.finalize",
    "airframe.transmit", "airframe.encode_frame", "airframe.decode_frame", "airframe.hex_dump",
    "notify.build_notification", "notify.dispatch",
    "notify.deliver.memory", "notify.deliver.linefile", "notify.deliver.maildir",
    "report.render.text", "report.render.structured",
    "cli.main",
)

COUNT_NAMES = (
    "scenario.bytes_parsed",
    "events.pushes", "events.pops", "events.max_depth",
    "sensors.samples", "sensors.triggers",
    "pulselock.attempts", "pulselock.accepted",
    "airframe.frames", "airframe.attempts", "airframe.retries", "airframe.drops",
    "airframe.delivered", "rng.draws",
    "notify.receipts_ok", "notify.receipts_failed",
    "report.bytes_out",
    "cli.nonzero_exits",
)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Self time per span name: each span's duration minus its children's.

    Children of one span run inside it and one after another (the program
    is single-threaded), so their durations add up to the part of the
    parent's interval they cover.
    """
    spans = list(spans)
    child_time: Dict[int, float] = {}
    for span_id, parent, _op, _name, start, end in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out: Dict[str, float] = {}
    for span_id, _parent, _op, name, start, end in spans:
        out[name] = out.get(name, 0.0) + (end - start) - child_time.get(span_id, 0.0)
    return out


class Tracer:
    """Span recorder. One per traced run; not thread-safe (the run is not)."""

    def __init__(self, span_cap: int = 50_000, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.span_cap = span_cap
        self.spans: List[Span] = []
        self.dropped = 0
        # name -> [calls, total_s, self_s]
        self.stats: Dict[str, List] = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        self.counts: Dict[str, int] = dict.fromkeys(COUNT_NAMES, 0)
        self.op_id = 0
        self._next_id = 0
        # open spans: [span_id, child_time_s]
        self._stack: List[list] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, after: Optional[Callable] = None):
        """Wrap fn in a span. ``name`` is a string or a function of the call's
        arguments; ``after(args, result)`` records counts at the boundary."""
        stack = self._stack
        stats = self.stats
        spans = self.spans
        clock = self.clock
        name_of = name if callable(name) else None

        def traced(*args, **kwargs):
            span_name = name_of(*args, **kwargs) if name_of else name
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                st = stats[span_name]
                st[0] += 1
                st[1] += duration
                st[2] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if len(spans) < self.span_cap:
                    spans.append((
                        span_id, parent[0] if parent is not None else -1,
                        self.op_id, span_name, start, end,
                    ))
                else:
                    self.dropped += 1
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name, after: Optional[Callable] = None) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- the sentinelsim layer boundaries -----------------------------------

    def install(self) -> None:
        """Wrap every layer boundary of sentinelsim at the names callers use.

        Modules that import a function by name (``from .x import f``) hold
        their own reference, so the wrapper goes where the call looks it up.
        """
        from sentinelsim import cli, controller, engine, events, notify, pulselock, report, scenario
        from sentinelsim.controller import AttemptDeadline, ClipDone, FrameArrival
        from sentinelsim.events import ScenarioEvent

        c = self.counts

        def on_parse(args, result):
            c["scenario.bytes_parsed"] += len(args[0])

        for owner in (scenario, cli):
            self.patch(owner, "parse_scenario", "scenario.parse_scenario", on_parse)

        self.patch(engine, "resolve_run_config", "config.resolve_run_config")
        self.patch(cli, "load_config_file", "config.load_config_file")
        for owner in (engine, cli):
            self.patch(owner, "apply_overrides", "config.apply_overrides")

        self.patch(engine, "run", "engine.run")
        self.patch(engine, "validate_events", "engine.validate_events")
        self.patch(engine, "build_controller", "engine.build_controller")

        def on_push(args, result):
            c["events.pushes"] += 1
            depth = len(args[0])
            if depth > c["events.max_depth"]:
                c["events.max_depth"] = depth

        def on_pop(args, result):
            c["events.pops"] += 1

        self.patch(events.EventQueue, "push", "events.push", on_push)
        self.patch(events.EventQueue, "pop", "events.pop", on_pop)

        kind_names = {
            kind: f"controller.dispatch.{kind.value}" for kind in events.EventKind
        }
        other_names = {
            FrameArrival: "controller.dispatch.frame_arrival",
            ClipDone: "controller.dispatch.clip_done",
            AttemptDeadline: "controller.dispatch.attempt_deadline",
        }

        def dispatch_name(_controller, item):
            if type(item) is ScenarioEvent:
                return kind_names[item.kind]
            return other_names[type(item)]

        self.patch(controller.Controller, "dispatch", dispatch_name)

        def on_presence(args, result):
            c["sensors.samples"] += 1
            c["sensors.triggers"] += bool(result)

        self.patch(controller, "echo_from_distance", "sensors.echo_from_distance")
        self.patch(controller, "distance_from_echo", "sensors.distance_from_echo")
        self.patch(controller, "presence_detect", "sensors.presence_detect", on_presence)

        def on_finalize(args, result):
            c["pulselock.attempts"] += 1
            c["pulselock.accepted"] += result.accepted

        self.patch(pulselock, "begin_attempt", "pulselock.begin_attempt")
        self.patch(pulselock.AttemptSession, "record_press", "pulselock.record_press")
        self.patch(pulselock.AttemptSession, "finalize", "pulselock.finalize", on_finalize)

        def on_transmit(args, result):
            # one uniform draw per attempt: the only RNG use in a run
            c["airframe.frames"] += 1
            c["airframe.attempts"] += result.attempts
            c["airframe.retries"] += result.attempts - 1
            c["rng.draws"] += result.attempts
            if result.delivered:
                c["airframe.delivered"] += 1
            else:
                c["airframe.drops"] += 1

        self.patch(controller, "transmit", "airframe.transmit", on_transmit)
        self.patch(controller, "encode_frame", "airframe.encode_frame")
        self.patch(controller, "decode_frame", "airframe.decode_frame")
        self.patch(controller, "hex_dump", "airframe.hex_dump")

        def on_dispatch(args, receipts):
            for receipt in receipts:
                c["notify.receipts_ok" if receipt.ok else "notify.receipts_failed"] += 1

        self.patch(controller, "build_notification", "notify.build_notification")
        self.patch(notify.Dispatcher, "dispatch", "notify.dispatch", on_dispatch)
        self.patch(notify.MemorySink, "deliver", "notify.deliver.memory")
        self.patch(notify.LineFileSink, "deliver", "notify.deliver.linefile")
        self.patch(notify.MaildirSink, "deliver", "notify.deliver.maildir")

        def render_name(_report, fmt="text"):
            return f"report.render.{fmt}"

        def on_render(args, result):
            c["report.bytes_out"] += len(result)

        for owner in (report, cli):
            self.patch(owner, "render_report", render_name, on_render)

        def on_main(args, code):
            c["cli.nonzero_exits"] += code != 0

        self.patch(cli, "main", "cli.main", on_main)

    # -- results -------------------------------------------------------------

    def layer_self(self) -> Dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, (_calls, _total, self_s) in self.stats.items():
            out[layer_of(name)] += self_s
        return out

    def span_table(self, ops: int) -> List[dict]:
        rows = []
        for name in SPAN_NAMES:
            calls, total, self_s = self.stats[name]
            rows.append({
                "span": name,
                "calls": calls,
                "total_ms": total * 1e3,
                "self_ms": self_s * 1e3,
                "self_ms_per_op": self_s * 1e3 / ops if ops else 0.0,
            })
        return rows

    def write(self, path: str, header: dict) -> None:
        """Write the header, then one JSON array per kept span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(header, spans_kept=len(self.spans), spans_dropped=self.dropped)) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
