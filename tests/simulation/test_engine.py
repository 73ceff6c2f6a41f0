"""Tests for the simulation engine's scheduling and run loop."""

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

    def test_periodic_events_repeat_until_horizon(self):
        engine = SimulationEngine()
        times = []
        engine.schedule_every(1.0, lambda: times.append(engine.now), start=0.0)
        engine.run(until=3.5)
        assert times == [0.0, 1.0, 2.0, 3.0]

    def test_periodic_interval_must_be_positive(self):
        engine = SimulationEngine()
        with pytest.raises(SimulationError):
            engine.schedule_every(0.0, lambda: None)

    def test_cancel_scheduled_event(self):
        engine = SimulationEngine()
        fired = []
        event = engine.schedule(1.0, lambda: fired.append("cancelled"))
        engine.schedule(2.0, lambda: fired.append("kept"))
        engine.cancel(event)
        engine.run(until=5.0)
        assert fired == ["kept"]

    def test_cancelling_a_fired_event_keeps_later_events(self):
        # Cancelling an event that already fired (twice) must not hide
        # an event scheduled afterwards from the run loop.
        engine = SimulationEngine()
        fired = []
        event = engine.schedule(1.0, lambda: fired.append("a"))
        engine.run(until=2.0)
        engine.cancel(event)
        engine.cancel(event)
        engine.schedule(1.0, lambda: fired.append("b"))
        assert len(engine.queue) == 1
        engine.run(until=5.0)
        assert fired == ["a", "b"]
        assert len(engine.queue) == 0


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

    def test_stop_halts_after_current_event(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule_at(1.0, lambda: (fired.append("a"), engine.stop()))
        engine.schedule_at(2.0, lambda: fired.append("b"))
        engine.run(until=10.0)
        assert fired == ["a"]

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

    def test_late_added_process_starts_immediately(self):
        engine = SimulationEngine()
        log = []
        engine.run(until=1.0)
        engine.add_process(RecordingProcess(2.0, log))
        engine.run(until=5.0)
        assert log == [2.0]

    def test_trace_is_shared_and_returned(self):
        engine = SimulationEngine()
        engine.schedule_at(1.0, lambda: engine.trace.record(engine.now, "tick"))
        trace = engine.run(until=2.0)
        assert trace is engine.trace
        assert trace.kinds() == {"tick": 1}
