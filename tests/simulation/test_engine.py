"""Tests for the simulation engine's scheduling, ordering and run loop."""

import pytest

from repro.simulation import Process, SimulationEngine, SimulationError


class RecordingProcess(Process):
    """Schedules one event at its start time."""

    def __init__(self, at: float, log: list) -> None:
        self.at = at
        self.log = log

    def start(self, engine: SimulationEngine) -> None:
        engine.schedule_at(self.at, lambda: self.log.append(engine.now))


class TestScheduling:
    def test_relative_and_absolute_scheduling(self):
        engine = SimulationEngine()
        times = []
        engine.schedule(2.0, lambda: times.append(engine.now))
        engine.schedule_at(1.0, lambda: times.append(engine.now))
        engine.run(until=5.0)
        assert times == [1.0, 2.0]

    def test_scheduling_into_the_past_raises(self):
        engine = SimulationEngine()
        engine.run(until=2.0)
        with pytest.raises(SimulationError):
            engine.schedule_at(1.0, lambda: None)
        with pytest.raises(SimulationError):
            engine.schedule(-0.5, lambda: None)

    def test_negative_time_rejected_before_any_run(self):
        engine = SimulationEngine()
        with pytest.raises(SimulationError):
            engine.schedule_at(-1.0, lambda: None)
        with pytest.raises(SimulationError):
            engine.schedule(-1.0, lambda: None)
        engine.run(until=1.0)
        assert engine.events_processed == 0

    def test_periodic_events_repeat_until_horizon(self):
        engine = SimulationEngine()
        times = []
        engine.schedule_every(1.0, lambda: times.append(engine.now), start=0.0)
        engine.run(until=3.5)
        assert times == [0.0, 1.0, 2.0, 3.0]

    @pytest.mark.parametrize("interval", [0.0, -1.0])
    def test_periodic_interval_must_be_positive(self, interval):
        engine = SimulationEngine()
        with pytest.raises(SimulationError):
            engine.schedule_every(interval, lambda: None)


class TestOrdering:
    def test_fires_in_time_order(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule_at(3.0, lambda: fired.append("c"))
        engine.schedule_at(1.0, lambda: fired.append("a"))
        engine.schedule(2.0, lambda: fired.append("b"))
        engine.run(until=5.0)
        assert fired == ["a", "b", "c"]

    def test_same_time_ties_broken_by_priority_then_fifo(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule_at(1.0, lambda: fired.append("first"))
        engine.schedule(1.0, lambda: fired.append("second"))
        engine.schedule_at(1.0, lambda: fired.append("urgent"), priority=-1)
        engine.schedule_at(1.0, lambda: fired.append("last"), priority=5)
        engine.schedule_at(1.0, lambda: fired.append("third"))
        engine.run(until=1.0)
        assert fired == ["urgent", "first", "second", "third", "last"]

    def test_events_scheduled_while_running_keep_the_order(self):
        # An event scheduled for the current instant by a firing event
        # runs after every same-instant event of equal priority already
        # queued, and before those of a later priority.
        engine = SimulationEngine()
        fired = []

        def spawn() -> None:
            fired.append("spawn")
            engine.schedule(0.0, lambda: fired.append("spawned"))

        engine.schedule_at(1.0, spawn)
        engine.schedule_at(1.0, lambda: fired.append("queued"))
        engine.schedule_at(1.0, lambda: fired.append("late"), priority=1)
        engine.run(until=2.0)
        assert fired == ["spawn", "queued", "spawned", "late"]

    def test_order_is_deterministic_across_builds(self):
        def build() -> list[int]:
            engine = SimulationEngine()
            fired: list[int] = []
            for index in range(20):
                engine.schedule_at(
                    float(index % 3),
                    lambda index=index: fired.append(index),
                    priority=index % 2,
                )
            engine.run(until=3.0)
            return fired

        first = build()
        assert first == build()
        assert first == sorted(range(20), key=lambda i: (i % 3, i % 2, i))


class TestRunLoop:
    def test_events_at_the_horizon_still_fire(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule_at(3.0, lambda: fired.append("edge"))
        engine.run(until=3.0)
        assert fired == ["edge"]

    def test_events_beyond_the_horizon_stay_queued(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule_at(4.0, lambda: fired.append("late"))
        engine.run(until=3.0)
        assert fired == []
        assert engine.now == 3.0
        engine.run(until=5.0)
        assert fired == ["late"]

    def test_horizon_before_now_raises(self):
        engine = SimulationEngine()
        engine.run(until=2.0)
        with pytest.raises(SimulationError):
            engine.run(until=1.0)

    def test_events_processed_counter(self):
        engine = SimulationEngine()
        for index in range(5):
            engine.schedule_at(float(index), lambda: None)
        engine.run(until=10.0)
        assert engine.events_processed == 5


class TestProcesses:
    def test_processes_start_when_the_run_starts(self):
        engine = SimulationEngine()
        log = []
        engine.add_process(RecordingProcess(1.0, log))
        engine.add_process(RecordingProcess(2.0, log))
        engine.run(until=5.0)
        assert log == [1.0, 2.0]

    def test_process_added_between_runs_starts_with_the_next_run(self):
        engine = SimulationEngine()
        log = []
        engine.run(until=1.0)
        engine.add_process(RecordingProcess(2.0, log))
        engine.run(until=5.0)
        assert log == [2.0]

    def test_a_process_starts_once(self):
        engine = SimulationEngine()
        log = []
        engine.add_process(RecordingProcess(1.0, log))
        engine.run(until=2.0)
        engine.run(until=5.0)
        assert log == [1.0]

    def test_trace_is_shared_and_returned(self):
        engine = SimulationEngine()
        engine.schedule_at(1.0, lambda: engine.trace.record(engine.now, "tick"))
        trace = engine.run(until=2.0)
        assert trace is engine.trace
        assert trace.kinds() == {"tick": 1}
