"""Scenario grammar, error reporting and config layering."""

import copy
import pathlib
import pickle
import re
import time
import tracemalloc
from collections.abc import Sequence
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LINE_BREAKS, event_rows, reference_parse_scenario, render_scenario
from sentinelsim import scenario as scenario_module
from sentinelsim.config import (
    ConfigError,
    SimConfig,
    apply_overrides,
    coerce_value,
)
from sentinelsim.engine import resolve_run_config
from sentinelsim.events import EventKind, ScenarioEvent
from sentinelsim.scenario import EventColumns, Scenario, ScenarioError, parse_scenario


class TestParse:
    def test_three_event_example(self):
        sc = parse_scenario("0 arm\n2000 distance 0.8\n5000 door open")
        assert len(sc.events) == 3
        assert sc.events.kinds == (
            EventKind.ARM,
            EventKind.DISTANCE_SAMPLE,
            EventKind.DOOR_OPEN,
        )
        assert sc.events.meters[1] == 0.8

    def test_unknown_directive_reports_line_one(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario("abc foo")
        assert err.value.errors == [(1, "malformed time 'abc'")]

    def test_set_and_event(self):
        sc = parse_scenario("set threshold_m 1.0\n0 arm")
        assert sc.overrides == {"threshold_m": 1.0}
        assert len(sc.events) == 1

    def test_comments_and_blank_lines_skipped(self):
        sc = parse_scenario("# header\n\n0 arm  # trailing comment\n")
        assert len(sc.events) == 1

    def test_all_bad_lines_reported(self):
        text = "abc foo\nset nope 1\n-5 arm\n0 distance x\n0 door sideways"
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        lines = [line for line, _ in err.value.errors]
        assert lines == [1, 2, 3, 4, 5]

    def test_negative_time_rejected(self):
        with pytest.raises(ScenarioError, match="negative time"):
            parse_scenario("-1 arm")

    def test_malformed_distance_rejected(self):
        with pytest.raises(ScenarioError, match="malformed number"):
            parse_scenario("0 distance abc")

    def test_negative_distance_rejected(self):
        with pytest.raises(ScenarioError, match=">= 0"):
            parse_scenario("0 distance -3")

    def test_extra_arguments_rejected(self):
        with pytest.raises(ScenarioError, match="no arguments"):
            parse_scenario("0 arm now")

    def test_unknown_set_key_rejected(self):
        with pytest.raises(ScenarioError, match="unknown config key"):
            parse_scenario("set warp_factor 9")

    def test_bad_set_value_rejected(self):
        with pytest.raises(ScenarioError, match="bad value"):
            parse_scenario("set latency_ms soon")

    def test_events_sorted_stably(self):
        sc = parse_scenario("5 door open\n5 door close\n1 arm")
        assert list(zip(sc.events.times, sc.events.kinds)) == [
            (1, EventKind.ARM),
            (5, EventKind.DOOR_OPEN),
            (5, EventKind.DOOR_CLOSE),
        ]

    def test_empty_text_is_empty_scenario(self):
        sc = parse_scenario("")
        assert sc == Scenario(name="scenario")


class TestRender:
    def test_round_trip_is_stable(self):
        text = (
            "set threshold_m 0.75\nset password 101\n"
            "0 arm\n2000 distance 0.8\n3000 mode_button\n"
            "3250 press_down\n3300 press_up\n5000 door open\n6000 door close"
        )
        first = parse_scenario(text, name="t")
        dumped = render_scenario(first)
        second = parse_scenario(dumped, name="t")
        assert first == second
        assert render_scenario(second) == dumped

    def test_hand_built_scenario_is_time_sorted_on_construction(self):
        events = (
            ScenarioEvent(at=3000, kind=EventKind.ARM),
            ScenarioEvent(at=1000, kind=EventKind.MODE_BUTTON),
            ScenarioEvent(at=1000, kind=EventKind.PRESS_DOWN),
            ScenarioEvent(at=0, kind=EventKind.DOOR_OPEN),
            ScenarioEvent(at=1000, kind=EventKind.PRESS_UP),
        )
        sc = Scenario(name="t", events=events)
        assert event_rows(sc) == [events[i] for i in (3, 1, 2, 4, 0)]
        assert parse_scenario(render_scenario(sc), name="t") == sc

    def test_overrides_cannot_change_a_frozen_scenario(self):
        given = {"latency_ms": 5}
        sc = Scenario(name="t", overrides=given)
        with pytest.raises(TypeError):
            sc.overrides["latency_ms"] = 7
        given["drop_probability"] = 0.5
        assert dict(sc.overrides) == {"latency_ms": 5}
        assert sc == Scenario(name="t", overrides={"latency_ms": 5})
        assert parse_scenario(render_scenario(sc), name="t") == sc

    @pytest.mark.parametrize("brk", LINE_BREAKS)
    def test_a_name_with_a_line_break_is_refused_naming_it(self, brk):
        # the report's header carries the name, so a line break would forge a line
        name = f"x{brk}final_mode: ARMED"
        message = rf"^scenario name must hold no line break, got {re.escape(repr(name))}$"
        with pytest.raises(ValueError, match=message):
            Scenario(name=name)
        with pytest.raises(ValueError, match=message):
            parse_scenario("0 arm", name=name)
        assert Scenario(name="x final_mode: ARMED").name == "x final_mode: ARMED"

    @pytest.mark.parametrize("name", [5, None, b"breakin", pathlib.PurePath("breakin")])
    def test_a_name_that_is_not_a_str_is_refused(self, name):
        # the structured render writes the name as a JSON string
        message = rf"^scenario name must be a str, got {re.escape(repr(name))}$"
        with pytest.raises(ValueError, match=message):
            Scenario(name=name)
        with pytest.raises(ValueError, match=message):
            parse_scenario("0 arm", name=name)

    @pytest.mark.parametrize("name", ["a\udcffb", "\ud800", "x\udfff"])
    def test_a_name_that_is_not_utf8_text_is_refused(self, name):
        # a lone surrogate: the text report, written as UTF-8, could not hold it
        message = rf"^scenario name must be UTF-8 text, got {re.escape(repr(name))}$"
        with pytest.raises(ValueError, match=message):
            Scenario(name=name)
        with pytest.raises(ValueError, match=message):
            parse_scenario("0 arm", name=name)
        assert Scenario(name="xÿ \U0001f512").name == "xÿ \U0001f512"

    def test_float_values_survive_exactly(self):
        sc = parse_scenario("0 distance 0.30000000000000004")
        again = parse_scenario(render_scenario(sc))
        assert again.events.meters[0] == sc.events.meters[0]


# Scenario lines built from the grammar's own words, so that generated text
# reaches every branch of the parser and not only the time check.
distance_tokens = st.one_of(
    st.sampled_from(["nan", "inf", "-0.0", "1e999", "0.30000000000000004"]),
    st.floats(min_value=0.0).map(repr),
)
event_lines = st.one_of(
    st.builds("{} distance {}".format, st.integers(0, 10**6), distance_tokens),
    st.builds(
        "{} {}".format, st.integers(0, 10**6),
        st.sampled_from(["arm", "mode_button", "press_down", "press_up", "door open", "door close"]),
    ),
)
set_lines = st.sampled_from([
    "set threshold_m 1.5", "set latency_ms 20", "set password 0101", "set maildir off",
    "set owner_email a@b.c", "set drop_probability 0.25", "set latency_ms 007",
])
scenario_texts = st.lists(st.one_of(event_lines, set_lines), max_size=12).map("\n".join)
bad_tokens = st.sampled_from(["-1", "-nan", "x", "1e3", "1_000", "٣", "set", "door", "#", "nope"])
any_texts = st.one_of(
    st.text(),
    st.lists(
        st.one_of(
            event_lines,
            set_lines,
            st.lists(st.one_of(st.text(max_size=5), bad_tokens, distance_tokens), max_size=4)
            .map(" ".join),
        ),
        max_size=8,
    ).map("\n".join),
)


class TestProperties:
    @given(any_texts)
    def test_parser_raises_only_scenario_error(self, text):
        try:
            parse_scenario(text)
        except ScenarioError:
            pass

    @given(scenario_texts)
    def test_render_then_parse_gives_the_same_scenario(self, text):
        try:
            scenario = parse_scenario(text, name="t")
        except ScenarioError:
            return
        dumped = render_scenario(scenario)
        assert parse_scenario(dumped, name="t") == scenario
        assert render_scenario(parse_scenario(dumped, name="t")) == dumped


# Plain event lines, which the compiled match takes, each with at most one
# part swapped for one that only looks plain and must reach the token path.
_ascii_blanks = st.text(st.sampled_from([" ", "\t"]), max_size=2)
_ascii_gaps = st.text(st.sampled_from([" ", "\t"]), min_size=1, max_size=2)
_other_gaps = st.sampled_from(["\xa0", "\u2003", " \xa0", "\u2003\t"])
_plain_times = st.one_of(
    st.integers(0, 30000).map(str),
    st.integers(0, 999).map("00{}".format),  # leading zeros
    st.just("9" * 18),
)
_odd_times = st.sampled_from(["1" * 19, "9" * 5000, "+5", "1_000", "٣", "-0", "-5", "0x10", "1e3"])
_plain_meters = st.sampled_from(["0.5", "3", ".5", "5.", "00.25", "1" * 400])
_odd_meters = st.sampled_from(["1e3", "inf", "nan", "-0", "-0.5", ".", "0_5", "1.2.3", "٣"])
_plain_words = st.one_of(
    st.sampled_from(["arm", "mode_button", "press_down", "press_up"]),
    st.builds("door{}{}".format, _ascii_gaps, st.sampled_from(["open", "close"])),
    st.builds("distance{}{}".format, _ascii_gaps, _plain_meters),
)
_odd_words = st.one_of(
    st.sampled_from(["jump", "ARM", "door", "distance", "arm now", "door open wide", "distance 1 2"]),
    st.builds("door{}{}".format, _other_gaps, st.sampled_from(["open", "close"])),
    st.builds("distance{}{}".format, _other_gaps, _plain_meters),
    st.builds("distance{}{}".format, _ascii_gaps, _odd_meters),
    st.just("door ajar"),
)
_LINE_PARTS = (  # (plain, odd) for: blanks, time, gap, event words, blanks
    (_ascii_blanks, _other_gaps),
    (_plain_times, _odd_times),
    (_ascii_gaps, _other_gaps),
    (_plain_words, _odd_words),
    (_ascii_blanks, _other_gaps),
)
_line_forms = st.one_of(  # about half the lines as built, the rest in or beside a comment
    st.just("{}"),
    st.sampled_from(["{}# note", "{} #", "# {}", "set latency_ms 5", "set", "arm", ""]),
)


@st.composite
def _edge_lines(draw):
    odd = draw(st.one_of(st.just(-1), st.integers(0, len(_LINE_PARTS) - 1)))  # swapped part
    line = "".join(draw(pair[i == odd]) for i, pair in enumerate(_LINE_PARTS))
    return draw(_line_forms).format(line)


_line_ends = st.sampled_from(["\n", "\r\n", "\r", "\v", "\x85", "\u2028"])
_edge_texts = st.lists(st.tuples(_edge_lines(), _line_ends), max_size=10).map(
    lambda pairs: "".join(line + end for line, end in pairs)
)


def _parsed(parse, text):
    """A parse's result as comparable data: the scenario, or the errors it raised."""
    try:
        scenario = parse(text, name="t")
    except ScenarioError as exc:
        return "errors", exc.errors
    return "scenario", scenario, repr(scenario)  # repr tells -0.0 from 0.0


# block sizes, in characters: one line a block, a few lines a block, and the module's own
BLOCKS = (1, 16, scenario_module._BLOCK)


def _blocks_of(size):
    return mock.patch.object(scenario_module, "_BLOCK", size)


@settings(max_examples=300)
@given(_edge_texts)
def test_fast_path_parses_as_the_token_path_does(text):
    expected = _parsed(reference_parse_scenario, text)
    for size in BLOCKS:  # patched here: a function-scoped fixture does not mix with @given
        with _blocks_of(size):
            assert _parsed(parse_scenario, text) == expected, size


_plain_texts = st.lists(  # every line a row of the block match: it builds their events
    st.builds("{}{}{}{}{}".format, *(plain for plain, _ in _LINE_PARTS)), max_size=12,
).map(lambda lines: "".join(line + "\n" for line in lines))


@given(_plain_texts, st.sampled_from(BLOCKS))
def test_the_block_path_builds_only_events_the_constructor_accepts(text, size):
    assert len(scenario_module._PLAIN_ROW.findall(text)) == text.count("\n")
    with _blocks_of(size):
        events = parse_scenario(text).events
    for at, kind, meters in zip(events.times, events.kinds, events.meters):
        ScenarioEvent(at, kind, meters)  # raises unless check_event accepts it
        assert type(at) is int
        assert meters is None or type(meters) is float
        assert (meters is None) == (kind is not EventKind.DISTANCE_SAMPLE)
    assert _parsed(parse_scenario, text) == _parsed(reference_parse_scenario, text)


_MANY = "0 arm\n5 distance 1.25\n" * 20  # 40 lines: several blocks of 64 characters
_SHIPPED = {
    name: (pathlib.Path(__file__).parents[1] / "scenarios" / name).read_text(encoding="utf-8")
    for name in ("breakin.scn", "deactivate.scn")
}
_DOOR = "door takes exactly one of: open, close"
_BLOCK_EDGES = {
    "bad line in the last block": (_MANY + "7 door ajar\n9 press_up\n", [(41, _DOOR)]),
    "no final line break": (_MANY + "9 door open", {}),
    "bad last line with no line break": (_MANY + "9 door", [(41, _DOOR)]),
    "crlf line ends": (_MANY.replace("\n", "\r\n") + "9 x\r\n", [(41, "unknown event 'x'")]),
    "a comment on every line": (_MANY.replace("\n", " # a\n") + "9 x # b\n",
                                [(41, "unknown event 'x'")]),
    "a bad line, then a line break alone": ("0 arm\nbogus\n\n", [(2, "unknown directive 'bogus'")]),
    "the same in a multi-block text": (_MANY + "bogus\n\n" + _MANY,
                                       [(41, "unknown directive 'bogus'")]),
    "next line": (_MANY + "1 arm\x852 arm\n" + "3 x\n", [(43, "unknown event 'x'")]),
    "line separator": (_MANY + "1 arm\u20282 arm\n" + "3 x\n", [(43, "unknown event 'x'")]),
    "vertical tab": (_MANY + "1 arm\x0b2 arm\n" + _MANY + "3 x\n", [(83, "unknown event 'x'")]),
    "lone carriage return": (_MANY + "1 arm\r2 arm\n" + _MANY + "3 x\n",
                             [(83, "unknown event 'x'")]),
    "a set line in a multi-block text": (_MANY + "set latency_ms 7\n" + _MANY, {"latency_ms": 7}),
    "the same, then a bad line": (_MANY + "set latency_ms 7\n" + _MANY + "3 x\n",
                                  [(82, "unknown event 'x'")]),
    "a blank line in a multi-block text": (_MANY + "\n" + _MANY + "3 x\n",
                                           [(82, "unknown event 'x'")]),
    # comments, trailing comments, blank lines and a set line, as shipped
    "breakin.scn": (_SHIPPED["breakin.scn"], {"threshold_m": 1.0}),
    "deactivate.scn": (_SHIPPED["deactivate.scn"], {}),
}


@pytest.mark.parametrize("text, expected", _BLOCK_EDGES.values(), ids=_BLOCK_EDGES)
@pytest.mark.parametrize("size", (1, 5, 16, 64, scenario_module._BLOCK))
def test_lines_across_block_boundaries_parse_as_the_token_path_does(size, text, expected):
    # expected: the errors a text raises, or the overrides of the scenario it gives
    with _blocks_of(size):
        parsed = _parsed(parse_scenario, text)
    assert parsed == _parsed(reference_parse_scenario, text)
    if isinstance(expected, list):
        assert parsed[:2] == ("errors", expected)
    else:
        assert parsed[0] == "scenario" and parsed[1].overrides == expected


@pytest.mark.parametrize("line, event", [
    ("7 arm", ScenarioEvent(7, EventKind.ARM)),
    ("\t007  door\tclose ", ScenarioEvent(7, EventKind.DOOR_CLOSE)),
    ("1 distance .5", ScenarioEvent(1, EventKind.DISTANCE_SAMPLE, 0.5)),
    ("1 distance 5.", ScenarioEvent(1, EventKind.DISTANCE_SAMPLE, 5.0)),
    ("9" * 18 + " press_up", ScenarioEvent(int("9" * 18), EventKind.PRESS_UP)),
])
def test_fast_path_takes_plain_event_lines(line, event):
    assert scenario_module._PLAIN_ROW.fullmatch(line + "\n") is not None
    assert event_rows(parse_scenario(line)) == [event]


@pytest.mark.parametrize("line", [
    "1" * 19 + " arm", "+5 arm", "1_000 arm", "٣ arm", "-0 arm", "1 arm # note",
    "1\xa0arm", "1 distance 1e3", "1 distance -0", "1 distance inf", "1 distance .",
    "1 door ajar", "1 arm 2",
])
def test_other_lines_take_the_token_path(line):
    assert scenario_module._PLAIN_ROW.fullmatch(line + "\n") is None


def test_parse_holds_under_3_mib_beside_the_text_and_its_scenario():
    # 10^5 lines: a list of every line would hold about 7 MiB, one block's rows some 600 KiB
    kinds = ("arm", "door open", "distance 1.25", "press_down", "press_up", "door close")
    text = "".join(f"{t} {kinds[t % 6]}\n" for t in range(100_000))
    tracemalloc.start()
    try:
        scenario = parse_scenario(text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(scenario.events) == 100_000
    assert peak - held < 3 * 2**20


def test_a_long_digit_run_that_fails_the_match_costs_linear_time():
    # a meters pattern that could split a digit run two ways retried it quadratically
    # (10^5 digits took minutes); this one takes milliseconds, so 5 s is a wide margin
    line = "1 distance " + "1" * 10**5 + "x"
    started = time.perf_counter()
    assert scenario_module._PLAIN_ROW.fullmatch(line + "\n") is None
    assert scenario_module._PLAIN_ROW.findall(line + "\n") == []
    with pytest.raises(ScenarioError, match="malformed number"):
        parse_scenario(line)
    assert time.perf_counter() - started < 5


def test_a_5000_digit_time_is_a_scenario_error_naming_the_line():
    # int() refuses over 4300 digits with a bare ValueError; the parse error must name line 2
    with pytest.raises(ScenarioError) as caught:
        parse_scenario("0 arm\n" + "1" * 5000 + " arm\n")
    [(line, message)] = caught.value.errors
    assert line == 2 and message.startswith("malformed time '1111")


class TestEventColumns:
    TEXT = "0 arm\n5 distance 1.25\n5 door open\n9 press_up\n"
    EVENTS = (
        ScenarioEvent(0, EventKind.ARM),
        ScenarioEvent(5, EventKind.DISTANCE_SAMPLE, 1.25),
        ScenarioEvent(5, EventKind.DOOR_OPEN),
        ScenarioEvent(9, EventKind.PRESS_UP),
    )

    def test_a_parsed_scenario_keeps_three_columns(self):
        events = parse_scenario(self.TEXT).events
        assert type(events) is EventColumns
        assert events.times == (0, 5, 5, 9)
        assert events.kinds == (EventKind.ARM, EventKind.DISTANCE_SAMPLE,
                                EventKind.DOOR_OPEN, EventKind.PRESS_UP)
        assert events.meters == (None, 1.25, None, None)
        assert events == Scenario(events=self.EVENTS).events

    def test_the_columns_are_no_sequence_of_events(self):
        # a run reads the three columns; the length counts events, nothing indexes them
        events = parse_scenario(self.TEXT).events
        assert not isinstance(events, Sequence) and len(events) == 4
        assert not hasattr(events, "__getitem__") and not hasattr(events, "__iter__")
        assert repr(events) == (
            "EventColumns(times=(0, 5, 5, 9), kinds=(<EventKind.ARM: 'arm'>, "
            "<EventKind.DISTANCE_SAMPLE: 'distance'>, <EventKind.DOOR_OPEN: 'door_open'>, "
            "<EventKind.PRESS_UP: 'press_up'>), meters=(None, 1.25, None, None))"
        )
        assert events != self.EVENTS and events != list(self.EVENTS)
        with pytest.raises(TypeError):
            hash(events)

    def test_columns_are_stored_as_tuples(self):
        times, kinds, meters = [0, 5, 5], [EventKind.ARM] * 3, [None] * 3
        columns = EventColumns(times, kinds, meters)
        times.append(9)
        assert (columns.times, columns.kinds, columns.meters) == ((0, 5, 5), (EventKind.ARM,) * 3,
                                                                  (None,) * 3)
        for name in ("times", "kinds", "meters"):
            with pytest.raises(AttributeError, match=f"cannot assign to or delete column '{name}'"):
                setattr(columns, name, ())
            with pytest.raises(AttributeError, match=f"cannot assign to or delete column '{name}'"):
                delattr(columns, name)
        assert len(columns) == 3

    def test_out_of_order_columns_sort_stably(self):
        columns = EventColumns(
            [9, 5, 0, 5], [EventKind.PRESS_UP, EventKind.DOOR_OPEN, EventKind.ARM,
                           EventKind.DISTANCE_SAMPLE], [None, None, None, 2],
        )
        assert columns.times == (0, 5, 5, 9)
        assert columns.kinds == (EventKind.ARM, EventKind.DOOR_OPEN,
                                 EventKind.DISTANCE_SAMPLE, EventKind.PRESS_UP)
        assert columns.meters == (None, None, 2, None)
        assert type(columns.meters[2]) is int  # a hand-built int stays an int

    def test_the_line_loop_checks_every_event(self):
        # a negative time and a NaN distance pass the tokens but not check_event
        with pytest.raises(ScenarioError) as caught:
            parse_scenario("0 arm # ok\n-5 arm\n3 distance nan\n")
        assert caught.value.errors == [(2, "negative time -5"), (3, "distance must be >= 0, got nan")]


    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trips_through_the_columns(self, protocol):
        scenario = Scenario("s", {"latency_ms": 5}, [*self.EVENTS, ScenarioEvent(
            3, EventKind.DISTANCE_SAMPLE, 2)])
        twin = pickle.loads(pickle.dumps(scenario, protocol))
        assert twin == scenario and type(twin.events) is EventColumns
        assert twin.events.meters == (None, 2, 1.25, None, None)
        assert type(twin.events.meters[1]) is int  # a hand-built int stays an int

    def test_copy_and_deepcopy_return_the_columns_themselves(self):
        # immutable all through, so a copy need not check or hold anything anew
        scenario = parse_scenario(self.TEXT)
        twin = copy.deepcopy(scenario)
        assert twin == scenario and twin.events is scenario.events
        assert copy.copy(scenario).events is scenario.events
        assert copy.copy(scenario.events) is copy.deepcopy(scenario.events) is scenario.events

    def test_copy_and_pickle_build_no_event(self):
        assert "ScenarioEvent" not in vars(scenario_module)  # the columns are all it holds
        scenario = parse_scenario(self.TEXT * 1000)
        for twin in (copy.deepcopy(scenario), pickle.loads(pickle.dumps(scenario))):
            assert twin.events.times == scenario.events.times
            assert twin.events.kinds == scenario.events.kinds
            assert twin.events.meters == scenario.events.meters

    @pytest.mark.parametrize("at, kind, meters", [
        (-5, EventKind.ARM, None),
        (5, EventKind.DISTANCE_SAMPLE, None),
        (5, EventKind.ARM, 1.0),
        (5.0, EventKind.ARM, None),
        (0.5, EventKind.ARM, None),
        (5, EventKind.DISTANCE_SAMPLE, float("nan")),
        (5, "arm", None),
    ])
    def test_a_tampered_payload_is_refused_as_construction_refuses_it(self, at, kind, meters):
        with pytest.raises(ValueError) as built:
            ScenarioEvent(at, kind, meters)
        columns = [0, at], [EventKind.ARM, kind], [None, meters]
        with pytest.raises(ValueError) as by_columns:
            EventColumns(*columns)
        with pytest.raises(ValueError) as by_rows:
            Scenario("s", {}, [(0, EventKind.ARM, None), (at, kind, meters)])
        # columns past the checks, as only a tampered pickle could hold them
        scenario = Scenario("s", {}, scenario_module._sorted_columns(*columns))
        with pytest.raises(ValueError) as loaded:
            pickle.loads(pickle.dumps(scenario))
        assert str(by_columns.value) == str(by_rows.value) == str(loaded.value) == str(built.value)

    def test_columns_of_unequal_length_are_refused(self):
        with pytest.raises(ValueError, match="^event columns must have one length$"):
            EventColumns([0, 1], [EventKind.ARM], [None])
        tampered = scenario_module._sorted_columns([0, 1], [EventKind.ARM], [None])
        with pytest.raises(ValueError, match="^event columns must have one length$"):
            pickle.loads(pickle.dumps(tampered))

    def test_rows_of_another_length_are_refused(self):
        # the error names the first row that is not (at, kind, meters), by index and value
        for rows, message in [
            (
                [(0, EventKind.ARM, None), (1, EventKind.ARM, None, 2)],
                "event 1 must be an (at, kind, meters) row, got (1, <EventKind.ARM: 'arm'>, None, 2)",
            ),
            ([(0, EventKind.ARM)], "event 0 must be an (at, kind, meters) row, got (0, <EventKind.ARM: 'arm'>)"),
        ]:
            with pytest.raises(ValueError) as info:
                Scenario("s", {}, rows)
            assert str(info.value) == message


def resolve(file_overrides=(), scenario_overrides=(), cli_overrides=()):
    """The CLI's layering: a config file's values under scenario and --set ones."""
    base = apply_overrides(SimConfig(), dict(file_overrides))
    scenario = Scenario(overrides=dict(scenario_overrides))
    return resolve_run_config(scenario, base, cli_overrides)


class TestConfigLayering:
    def test_defaults_are_valid(self):
        SimConfig().validate()

    def test_precedence_chain(self):
        cfg = resolve(
            file_overrides={"threshold_m": 2.0, "latency_ms": 10},
            scenario_overrides={"threshold_m": "1.5", "max_retries": "5"},
            cli_overrides={"threshold_m": "0.5"},
        )
        assert cfg.threshold_m == 0.5  # cli wins
        assert cfg.max_retries == 5  # scenario wins over defaults
        assert cfg.latency_ms == 10  # file wins over defaults

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            apply_overrides(SimConfig(), {"nope": 1})

    def test_text_coercion(self):
        assert coerce_value("drop_probability", "0.25") == 0.25
        assert coerce_value("presence_to_authorities", "true") is True
        assert coerce_value("presence_to_authorities", "off") is False
        assert coerce_value("max_retries", "3") == 3

    def test_typed_values_pass_through(self):
        assert coerce_value("drop_probability", 0.25) == 0.25
        assert coerce_value("latency_ms", 10) == 10
        assert coerce_value("threshold_m", 2) == 2.0

    def test_wrong_json_type_rejected(self):
        # a file's typed values keep their type until the resolved config is validated
        with pytest.raises(ConfigError, match="latency_ms must be an integer"):
            resolve(file_overrides={"latency_ms": 1.5})
        with pytest.raises(ConfigError, match="latency_ms must be an integer"):
            resolve(file_overrides={"latency_ms": True})

    def test_cross_field_validation(self):
        with pytest.raises(ConfigError, match="max_range_m"):
            resolve(scenario_overrides={"threshold_m": "9.0"})

    def test_clip_duration_bounds(self):
        with pytest.raises(ConfigError, match="clip_duration_ms"):
            resolve(scenario_overrides={"clip_duration_ms": "4999"})
        with pytest.raises(ConfigError, match="clip_duration_ms"):
            resolve(scenario_overrides={"clip_duration_ms": "10001"})
        resolve(scenario_overrides={"clip_duration_ms": "10000"})

    def test_password_validated(self):
        with pytest.raises(ConfigError):
            resolve(scenario_overrides={"password": "2101"})

    def test_drop_probability_bounds(self):
        with pytest.raises(ConfigError):
            resolve(scenario_overrides={"drop_probability": "1.01"})
