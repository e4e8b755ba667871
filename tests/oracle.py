"""An independent model of a run, for checking report bytes.

A slow and plain restatement of the README's rules that shares no code with
the controller, the event queue, the link or the renderer. It shares only
``rng.SplitMix64`` (the seeded stream) and reads a validated ``SimConfig``.

- Every item, scenario event or follow-up, sits in one list kept sorted by
  (time, rank, order): scenario events have rank 0 and keep their scenario
  order; follow-ups have rank 1 and keep the order they were scheduled in.
  The earliest item is taken off the front, one at a time, and every item is
  handled: nothing is skipped.
- An attempt is decided at its end, by the first item at or after it.
- Each door opening draws from the link until an attempt gets through.
- Lines are formatted here, and ``report`` returns the report's bytes.
- Each notification is taken from the rule that sends it, as (at, kind,
  recipients, attachment), in the order the rules fire.

    report(scenario, seed, cfg)                  # text report bytes
    report(scenario, seed, cfg, "structured")    # structured report bytes
    outbox(scenario, seed, cfg)                  # the outbox.log bytes of --out
"""

from __future__ import annotations

import json
from bisect import insort

from sentinelsim.rng import SplitMix64

FRAME_HEX = "7E 02 01 02 FC"  # the door node's intruder alert, source id 2
OWNER, BOTH = ("owner",), ("owner", "authorities")
KINDS = ("DEACTIVATION_FAILED", "DEACTIVATION_SUCCEEDED", "INTRUSION", "PRESENCE")


class Refused(ValueError):
    """The scenario breaks a rule that ties it to its config."""


def check(events, cfg):
    """Distances within max_range_m; no mode_button while an attempt runs."""
    span = (len(cfg.password) - 1) * cfg.pulse_period_ms + cfg.press_window_ms
    last_button = None
    for at, kind, meters in events:
        if kind == "distance" and meters > cfg.max_range_m:
            raise Refused(f"distance {meters} beyond max_range_m")
        if kind == "mode_button":
            if last_button is not None and at < last_button + span:
                raise Refused(f"mode_button at {at} inside an attempt")
            last_button = at


def simulate(scenario, seed, cfg):
    """(actions, final mode, notification counts, clips, notifications) of one run."""
    events = [(ev.at, ev.kind.value, ev.meters) for ev in scenario.events]
    check(events, cfg)
    rng = SplitMix64(seed)
    # (at, rank, order, what, data)
    items = [(at, 0, i, kind, meters) for i, (at, kind, meters) in enumerate(events)]
    items.sort(key=lambda item: item[:3])
    scheduled = 0
    log = []
    counts = dict.fromkeys(KINDS, 0)
    clips = []
    notes = []  # (at, kind, recipients, attachment)
    state = {"armed": False, "door_open": False, "recording": None, "last_trigger": None}
    attempt = None  # [start, end, bits, stray]

    def schedule(at, what, data):
        nonlocal scheduled
        insort(items, (at, 1, scheduled, what, data), key=lambda item: item[:3])
        scheduled += 1

    def decide(attempt):
        start, end, bits, stray = attempt
        trace = "".join(bits)
        if not stray and trace == cfg.password:
            state["armed"] = False
            kind = "DEACTIVATION_SUCCEEDED"
        else:
            kind = "DEACTIVATION_FAILED"
        counts[kind] += 1
        notes.append((end, kind, OWNER, None))
        log.append((end, "controller", kind, f"trace={trace}"))

    while items:
        at, _rank, _order, what, data = items.pop(0)
        if attempt is not None and at >= attempt[1]:
            decide(attempt)
            attempt = None
        if what == "arm":
            state["armed"] = True
            log.append((at, "controller", "ARMED", "mode=armed"))
        elif what == "door_open":
            if state["door_open"]:
                continue
            state["door_open"] = True
            log.append((at, "link", "TX", f"src=door frame={FRAME_HEX}"))
            for k in range(1, cfg.max_retries + 2):
                if rng.random() >= cfg.drop_probability:
                    schedule(at + k * cfg.latency_ms, "arrival", k)
                    break
            else:
                log.append((at, "link", "DROP", f"frame={FRAME_HEX} attempts={cfg.max_retries + 1}"))
        elif what == "door_close":
            state["door_open"] = False
        elif what == "press_down":
            if attempt is not None:
                offset = at - attempt[0]
                pulse = offset // cfg.pulse_period_ms
                if (
                    offset >= 0
                    and pulse < len(cfg.password)
                    and offset - pulse * cfg.pulse_period_ms < cfg.press_window_ms
                ):
                    attempt[2][pulse] = "1"
                else:
                    attempt[3] = True
        elif what == "distance":
            # the sensor's round trip: distance -> echo time -> distance, clamped
            echo = 2.0 * data / cfg.speed_of_sound
            ranged = min(cfg.speed_of_sound * echo / 2.0, cfg.max_range_m)
            last = state["last_trigger"]
            if ranged >= cfg.threshold_m:
                continue
            if last is not None and at - last < cfg.retrigger_cooldown_ms:
                continue
            state["last_trigger"] = at
            log.append((at, "sensor", "PRESENCE_TRIGGER", f"source=ultrasonic distance_m={ranged + 0.0:.3f}"))
            if state["recording"] is None:
                clip = f"clip-{len(clips) + 1:04d}"
                clips.append((clip, at, cfg.clip_duration_ms, f"clips/{clip}.bin"))
                state["recording"] = clip
                log.append((at, "controller", "START_RECORDING",
                            f"clip={clip} duration_ms={cfg.clip_duration_ms}"))
                schedule(at + cfg.clip_duration_ms, "clip_done", clip)
        elif what == "mode_button":
            end = at + (len(cfg.password) - 1) * cfg.pulse_period_ms + cfg.press_window_ms
            attempt = [at, end, ["0"] * len(cfg.password), False]
            log.append((at, "controller", "ATTEMPT_BEGIN", f"n={len(cfg.password)} end_ms={end}"))
            schedule(end, "deadline", None)
        elif what == "arrival":
            log.append((at, "link", "RX", f"frame={FRAME_HEX} attempts={data}"))
            if state["armed"]:
                counts["INTRUSION"] += 1
                notes.append((at, "INTRUSION", BOTH, None))
                log.append((at, "controller", "INTRUSION", "recipients=owner,authorities"))
            else:
                log.append((at, "controller", "SUPPRESSED", "event=intruder_alert reason=disarmed"))
        elif what == "clip_done":
            if state["recording"] == data:
                state["recording"] = None
                counts["PRESENCE"] += 1
                to = BOTH if cfg.presence_to_authorities else OWNER
                notes.append((at, "PRESENCE", to, data))
                log.append((at, "controller", "PRESENCE", f"clip={data} recipients={','.join(to)}"))
        # press_up and a deadline change nothing
    mode = "ARMED" if state["armed"] else "DISARMED"
    return log, mode, counts, clips, notes


def outbox_line(note):
    """The README's outbox.log record of one notification: t|kind|recipients|attachment|subject."""
    at, kind, recipients, attachment = note
    return f"{at}|{kind}|{','.join(sorted(recipients))}|{attachment or '-'}|[SENTINEL] {kind} at t={at}"


def outbox(scenario, seed, cfg):
    """The outbox.log bytes of the run: one line per notification, in the order sent."""
    notes = simulate(scenario, seed, cfg)[4]
    return "".join(outbox_line(note) + "\n" for note in notes).encode("utf-8")


def report(scenario, seed, cfg, fmt="text"):
    """The report bytes the README specifies for one run."""
    log, mode, counts, clips, _notes = simulate(scenario, seed, cfg)
    if fmt == "structured":
        doc = {
            "actions": [
                {"action": action, "component": component, "details": details, "t": at}
                for at, component, action, details in log
            ],
            "clips": [
                {"bytes": cfg.clip_bytes, "clip_id": clip, "duration_ms": duration,
                 "started_at": started, "stored_ref": ref}
                for clip, started, duration, ref in clips
            ],
            "final_mode": mode,
            "outbox": counts,
            "rng": "splitmix64",
            "scenario": scenario.name,
            "seed": seed,
        }
        return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("ascii")
    lines = ["\t".join(map(str, action)) for action in log]
    lines += ["--- summary ---", f"scenario: {scenario.name}", f"seed: {seed}",
              "rng: splitmix64", f"final_mode: {mode}"]
    lines += [f"outbox.{kind}: {counts[kind]}" for kind in KINDS]
    lines.append(f"clips: {len(clips)}")
    lines += [
        f"clip {clip}: started_at={started} duration_ms={duration} ref={ref} bytes={cfg.clip_bytes}"
        for clip, started, duration, ref in clips
    ]
    return ("\n".join(lines) + "\n").encode("utf-8")
