"""Event vocabulary and queue ordering."""

import copy
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sentinelsim.events import EventKind, EventQueue, ScenarioEvent


def ev(at, kind=EventKind.ARM, **kw):
    return ScenarioEvent(at=at, kind=kind, **kw)


class TestScenarioEvent:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="time"):
            ev(-1)

    @pytest.mark.parametrize("at", [0.5, 1000.0, True])
    def test_non_integer_time_rejected(self, at):
        with pytest.raises(ValueError, match="time must be an integer"):
            ev(at)

    def test_distance_requires_meters(self):
        with pytest.raises(ValueError, match="meters"):
            ScenarioEvent(at=0, kind=EventKind.DISTANCE_SAMPLE)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            ScenarioEvent(at=0, kind=EventKind.DISTANCE_SAMPLE, meters=-0.5)

    def test_meters_only_on_distance(self):
        with pytest.raises(ValueError, match="does not take"):
            ScenarioEvent(at=0, kind=EventKind.DOOR_OPEN, meters=1.0)

    @pytest.mark.parametrize("meters", ["1", True, [1]])
    def test_non_number_meters_rejected(self, meters):
        with pytest.raises(ValueError, match="meters must be a number"):
            ScenarioEvent(at=0, kind=EventKind.DISTANCE_SAMPLE, meters=meters)

    @pytest.mark.parametrize("meters", [0, 3, 0.0, 2.5])
    def test_int_and_float_meters_accepted(self, meters):
        assert ScenarioEvent(at=0, kind=EventKind.DISTANCE_SAMPLE, meters=meters).meters == meters

    @pytest.mark.parametrize("kind", ["arm", None, 0])
    def test_a_kind_that_is_not_an_event_kind_is_rejected(self, kind):
        # Controller.run would find no handler for it, after the run had begun
        with pytest.raises(ValueError, match=f"^kind must be an EventKind, got {kind!r}$"):
            ScenarioEvent(at=0, kind=kind)

    def test_large_times_supported(self):
        assert ev(2**32 - 1).at == 2**32 - 1


class TestScenarioEventRecord:
    def test_name_repr_and_value_equality(self):
        a = ScenarioEvent(5, EventKind.DISTANCE_SAMPLE, 0.5)
        assert type(a).__name__ == "ScenarioEvent"
        assert repr(a) == (
            "ScenarioEvent(at=5, kind=<EventKind.DISTANCE_SAMPLE: 'distance'>, meters=0.5)"
        )
        assert a == ScenarioEvent(at=5, kind=EventKind.DISTANCE_SAMPLE, meters=0.5)
        assert hash(a) == hash(ScenarioEvent(5, EventKind.DISTANCE_SAMPLE, 0.5))
        assert a != ScenarioEvent(5, EventKind.DISTANCE_SAMPLE, 0.25)

    def test_equality_with_another_type_is_left_to_it(self):
        # a named tuple, as every record is: equal to a plain tuple of the same values
        a = ScenarioEvent(5, EventKind.ARM)
        assert a.__eq__(5) is NotImplemented
        assert a.__eq__([5, EventKind.ARM, None]) is NotImplemented
        assert a == (5, EventKind.ARM, None) and a != 5
        assert a == ScenarioEvent(5, EventKind.ARM)

    def test_slotted(self):
        assert not hasattr(ev(0), "__dict__")

    @pytest.mark.parametrize("field", ["at", "kind", "meters"])
    def test_assigning_a_field_raises(self, field):
        e = ev(0)
        with pytest.raises(AttributeError):
            setattr(e, field, 1)
        with pytest.raises(AttributeError):
            delattr(e, field)
        assert e == ev(0)

    def test_no_new_attribute(self):
        e = ev(0)
        with pytest.raises(AttributeError):
            e.extra = 1
        assert not hasattr(e, "extra")

    @pytest.mark.parametrize("kind, meters", [
        (EventKind.ARM, None), (EventKind.DOOR_CLOSE, None), (EventKind.DISTANCE_SAMPLE, 0.5),
    ])
    def test_keyword_and_positional_calls_build_equal_events(self, kind, meters):
        by_position = ScenarioEvent(9, kind, meters)
        by_keyword = ScenarioEvent(meters=meters, kind=kind, at=9)
        assert by_position == by_keyword and hash(by_position) == hash(by_keyword)
        assert (by_position.at, by_position.kind, by_position.meters) == (9, kind, meters)

    @pytest.mark.parametrize(
        "round_trip",
        [copy.copy, copy.deepcopy, lambda e: pickle.loads(pickle.dumps(e))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copy_and_pickle_round_trip(self, round_trip):
        for e in (ev(3), ScenarioEvent(4, EventKind.DISTANCE_SAMPLE, 2.5)):
            again = round_trip(e)
            assert again == e and hash(again) == hash(e) and repr(again) == repr(e)
            with pytest.raises(AttributeError):
                again.at = 0

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_a_tampered_pickle_is_refused_as_construction_refuses_it(self, protocol):
        # built past __new__, as only a tampered pickle could hold it; protocols 0 and 1
        # would otherwise rebuild a tuple subclass without calling __new__
        tampered = tuple.__new__(ScenarioEvent, (-5, EventKind.ARM, None))
        with pytest.raises(ValueError, match="^negative time -5$"):
            pickle.loads(pickle.dumps(tampered, protocol))


def drain(q):
    """The queue's items, taken off it in time order."""
    return [q.pop() for _ in range(len(q))]


class TestEventQueue:
    def test_singleton(self):
        q = EventQueue()
        q.push(ev(0))
        assert len(q) == 1
        assert q.pop().at == 0
        assert not q

    def test_orders_by_time(self):
        q = EventQueue()
        q.push(ev(5))
        q.push(ev(3))
        assert [e.at for e in drain(q)] == [3, 5]

    def test_stable_tie_break(self):
        q = EventQueue()
        a = ev(7, EventKind.DOOR_OPEN)
        b = ev(7, EventKind.DOOR_CLOSE)
        q.push(a)
        q.push(b)
        assert list(drain(q)) == [a, b]

    def test_drain_matches_independent_stable_sort(self):
        rnd = random.Random(1234)
        events = [ev(rnd.randint(0, 500), EventKind.PRESS_UP) for _ in range(1000)]
        q = EventQueue()
        for e in events:
            q.push(e)
        drained = [id(e) for e in drain(q)]
        expected = [id(e) for e in sorted(events, key=lambda e: e.at)]
        assert drained == expected

    @given(st.lists(st.integers(min_value=0, max_value=50), max_size=200))
    def test_drain_is_stable_sort(self, times):
        events = [ev(t, EventKind.PRESS_UP) for t in times]
        q = EventQueue()
        for e in events:
            q.push(e)
        assert [id(e) for e in drain(q)] == [
            id(e) for e in sorted(events, key=lambda e: e.at)
        ]

    def test_every_event_visited_once(self):
        q = EventQueue()
        events = [ev(i % 3) for i in range(50)]
        for e in events:
            q.push(e)
        drained = list(drain(q))
        assert len(drained) == 50
        assert sorted(map(id, drained)) == sorted(map(id, events))
