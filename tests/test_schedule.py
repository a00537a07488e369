"""Unit tests for scheduled tasks and per-path schedules."""

import pytest

from repro.architecture import bus, hardware, programmable
from repro.conditions import Condition
from repro.graph.paths import AlternativePath
from repro.conditions import Conjunction
from repro.scheduling import PathSchedule, ScheduledTask

C = Condition("C")
PE1 = programmable("pe1")
PE2 = programmable("pe2")
HW = hardware("hw1")
BUS = bus("bus1")


def make_path():
    return AlternativePath(label=Conjunction.true(), active_processes=("P1", "P2", "P3"))


def make_schedule():
    tasks = {
        "P1": ScheduledTask("P1", 0.0, 4.0, PE1),
        "P2": ScheduledTask("P2", 4.0, 3.0, PE1),
        "P3": ScheduledTask("P3", 2.0, 5.0, PE2),
    }
    broadcasts = {C: ScheduledTask("cond:C", 4.0, 1.0, BUS, C)}
    return PathSchedule(make_path(), tasks, broadcasts, {C: 4.0}, {C: PE1})


class TestScheduledTask:
    def test_end_time(self):
        assert ScheduledTask("P1", 2.0, 3.0, PE1).end == 5.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            ScheduledTask("P1", -1.0, 3.0, PE1)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            ScheduledTask("P1", 1.0, -3.0, PE1)

    def test_broadcast_flag(self):
        assert ScheduledTask("cond:C", 0.0, 1.0, BUS, C).is_broadcast
        assert not ScheduledTask("P1", 0.0, 1.0, PE1).is_broadcast

    def test_str_mentions_pe(self):
        assert "pe1" in str(ScheduledTask("P1", 0.0, 3.0, PE1))


class TestPathSchedule:
    def test_delay_is_latest_end(self):
        assert make_schedule().delay == 7.0

    def test_empty_schedule_has_zero_delay(self):
        empty = PathSchedule(make_path(), {}, {}, {}, {})
        assert empty.delay == 0.0

    def test_start_and_end_lookup(self):
        schedule = make_schedule()
        assert schedule.start_of("P2") == 4.0
        assert schedule.end_of("P2") == 7.0
        assert "P2" in schedule and "missing" not in schedule

    def test_ordering_helpers(self):
        schedule = make_schedule()
        assert [t.name for t in schedule.tasks_in_order()] == ["P1", "P3", "P2"]
        names = [t.name for t in schedule.all_items_in_order()]
        assert names.index("P1") < names.index("cond:C")

    def test_tasks_on_pe(self):
        schedule = make_schedule()
        assert [t.name for t in schedule.tasks_on(PE1)] == ["P1", "P2"]
        assert [t.name for t in schedule.tasks_on(BUS)] == ["cond:C"]

    def test_condition_known_time_on_origin_and_elsewhere(self):
        schedule = make_schedule()
        assert schedule.condition_known_time(C, PE1) == 4.0  # origin processor
        assert schedule.condition_known_time(C, PE2) == 5.0  # after broadcast
        assert schedule.condition_known_time(C, None) == 5.0

    def test_condition_known_time_unknown_condition(self):
        with pytest.raises(KeyError):
            make_schedule().condition_known_time(Condition("Z"), PE1)

    def test_busy_intervals_only_for_sequential_elements(self):
        tasks = {
            "P1": ScheduledTask("P1", 0.0, 4.0, PE1),
            "H1": ScheduledTask("H1", 0.0, 9.0, HW),
        }
        schedule = PathSchedule(make_path(), tasks, {}, {}, {})
        intervals = schedule.busy_intervals()
        assert "pe1" in intervals and "hw1" not in intervals

    def test_validate_resources_detects_overlap(self):
        tasks = {
            "P1": ScheduledTask("P1", 0.0, 4.0, PE1),
            "P2": ScheduledTask("P2", 2.0, 4.0, PE1),
        }
        schedule = PathSchedule(make_path(), tasks, {}, {}, {})
        with pytest.raises(ValueError):
            schedule.validate_resources()

    def test_validate_resources_accepts_back_to_back(self):
        make_schedule().validate_resources()

    def test_zero_length_activity_occupies_nothing(self):
        # An activity occupies its element over [start, end), so a
        # zero-length one inside another's interval overlaps nothing.
        tasks = {
            "P1": ScheduledTask("P1", 0.0, 4.0, PE1),
            "P2": ScheduledTask("P2", 2.0, 0.0, PE1),
        }
        broadcasts = {C: ScheduledTask("cond:C", 3.0, 0.0, PE1, C)}
        schedule = PathSchedule(make_path(), tasks, broadcasts, {}, {})
        assert schedule.busy_intervals() == {"pe1": [(0.0, 4.0)]}
        schedule.validate_resources()

    def test_copy_is_independent(self):
        schedule = make_schedule()
        clone = schedule.copy()
        clone.tasks["P9"] = ScheduledTask("P9", 0.0, 1.0, PE2)
        assert "P9" not in schedule.tasks

    def test_repr(self):
        assert "delay=7" in repr(make_schedule())
