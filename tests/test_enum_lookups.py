"""No Enum member or ``.value`` lookup on the per-event, per-draw and per-notification paths.

On Python 3.11, ``EnumType.__getattr__`` routes every ``EventKind.X`` lookup
through a slow attribute hook (many times the cost of a global), and a
member's ``value`` is a Python-level property. The functions below run once
per event, link draw or notification, so they compare against members bound once
at import and read ``_value_``, the plain attribute behind ``value``. This
test reads their source and fails on any such lookup creeping back in.
"""

import ast
import inspect
import textwrap

import pytest

from sentinelsim import controller, engine, events, notify, rng, scenario

ENUM_CLASSES = {"EventKind", "SystemMode", "NotificationKind", "FrameType"}

HOT_FUNCTIONS = {
    "events.ScenarioEvent.__new__": events.ScenarioEvent.__new__,
    "scenario._parse_event_line": scenario._parse_event_line,
    "scenario.parse_scenario": scenario.parse_scenario,
    "engine.validate_events": engine.validate_events,
    "controller.Controller.dispatch": controller.Controller.dispatch,
    "controller.Controller.run": controller.Controller.run,
    **{
        f"controller.Controller.{fn.__name__}": fn
        for fn in controller.Controller._HANDLERS.values()
    },
    "controller.Controller._decide_attempt": controller.Controller._decide_attempt,
    "controller.notifications": controller.notifications,
    "notify.Notification.__new__": notify.Notification.__new__,
    "notify.Notification.subject": notify.Notification.subject.fget,
    "notify.Notification.body": notify.Notification.body.fget,
    "notify.recipients_for": notify.recipients_for,
    "notify.build_notification": notify.build_notification,
    "notify.format_outbox_line": notify.format_outbox_line,
    "notify.MaildirSink.deliver": notify.MaildirSink.deliver,
    "notify.Dispatcher.dispatch": notify.Dispatcher.dispatch,
    "rng.SplitMix64.random": rng.SplitMix64.random,
    "rng.SplitMix64.first_at_least": rng.SplitMix64.first_at_least,
    "rng._decide_block": rng._decide_block,
}


def slow_lookups(source: str):
    """Each ``<Enum class>.<name>`` and ``.value`` attribute in ``source``, as text."""
    found = []
    for node in ast.walk(ast.parse(textwrap.dedent(source))):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        if node.attr == "value" or (isinstance(owner, ast.Name) and owner.id in ENUM_CLASSES):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def test_the_check_sees_each_kind_of_lookup():
    source = """
    def f(ev, n):
        if ev.kind is EventKind.ARM or n.kind.value == "x":
            return SystemMode.ARMED, NotificationKind.PRESENCE, FrameType.INTRUDER_ALERT
        return ev.kind._value_, ARMED
    """
    assert slow_lookups(source) == [
        "line 3: EventKind.ARM",
        "line 3: n.kind.value",
        "line 4: SystemMode.ARMED",
        "line 4: NotificationKind.PRESENCE",
        "line 4: FrameType.INTRUDER_ALERT",
    ]


@pytest.mark.parametrize("name", sorted(HOT_FUNCTIONS))
def test_no_enum_lookup_on_the_hot_path(name):
    assert slow_lookups(inspect.getsource(HOT_FUNCTIONS[name])) == []
