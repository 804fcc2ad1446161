"""Discrete-event loop."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.engine import EventLoop


class TestScheduling:
    @pytest.mark.parametrize("time", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, time):
        loop = EventLoop()
        with pytest.raises(ValueError, match="time must be finite"):
            loop.schedule(time, lambda l: None)
        start = loop.reserve_sequences(1)
        with pytest.raises(ValueError, match="time must be finite"):
            loop.schedule_reserved(time, start, lambda l: None)
        assert loop.pending == 0

    def test_runs_in_time_order(self):
        loop = EventLoop()
        order = []
        loop.schedule(2.0, lambda l: order.append("b"))
        loop.schedule(1.0, lambda l: order.append("a"))
        loop.schedule(3.0, lambda l: order.append("c"))
        loop.run()
        assert order == ["a", "b", "c"]

    def test_ties_fifo(self):
        loop = EventLoop()
        order = []
        for tag in "xyz":
            loop.schedule(1.0, lambda l, t=tag: order.append(t))
        loop.run()
        assert order == ["x", "y", "z"]

    def test_clock_tracks_events(self):
        loop = EventLoop()
        times = []
        loop.schedule(1.5, lambda l: times.append(l.now))
        loop.schedule(4.0, lambda l: times.append(l.now))
        loop.run()
        assert times == [1.5, 4.0]
        assert loop.now == 4.0

    def test_past_scheduling_rejected(self):
        loop = EventLoop()
        loop.schedule(1.0, lambda l: None)
        loop.run()
        with pytest.raises(ValueError):
            loop.schedule(0.5, lambda l: None)

    def test_schedule_after(self):
        loop = EventLoop(start=2.0)
        fired = []
        loop.schedule_after(1.0, lambda l: fired.append(l.now))
        loop.run()
        assert fired == [3.0]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EventLoop().schedule_after(-1.0, lambda l: None)


class TestCascading:
    def test_events_schedule_events(self):
        loop = EventLoop()
        hits = []

        def ping(l):
            hits.append(l.now)
            if len(hits) < 5:
                l.schedule_after(1.0, ping)

        loop.schedule(0.0, ping)
        loop.run()
        assert hits == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_run_until_horizon(self):
        loop = EventLoop()

        def ping(l):
            l.schedule_after(1.0, ping)

        loop.schedule(0.0, ping)
        loop.run(until=3.5)
        assert loop.now == 3.5
        assert loop.pending == 1  # next ping still queued

    def test_max_events_guard(self):
        loop = EventLoop()

        def ping(l):
            l.schedule_after(0.1, ping)

        loop.schedule(0.0, ping)
        loop.run(max_events=10)
        assert loop.processed == 10

    def test_run_until_advances_idle_clock(self):
        loop = EventLoop()
        loop.run(until=7.0)
        assert loop.now == 7.0


class TestCancel:
    def test_cancelled_event_never_fires(self):
        loop = EventLoop()
        fired = []
        ev = loop.schedule(1.0, lambda l: fired.append("x"))
        assert loop.cancel(ev) is True
        loop.run()
        assert fired == []
        assert loop.cancelled == 1

    def test_cancel_updates_pending_immediately(self):
        loop = EventLoop()
        ev = loop.schedule(1.0, lambda l: None)
        loop.schedule(2.0, lambda l: None)
        assert loop.pending == 2
        loop.cancel(ev)
        assert loop.pending == 1  # lazy heap slot, but the count is live

    def test_cancel_twice_is_a_noop(self):
        loop = EventLoop()
        ev = loop.schedule(1.0, lambda l: None)
        assert loop.cancel(ev) is True
        assert loop.cancel(ev) is False
        assert loop.cancelled == 1

    def test_cancel_after_fire_returns_false(self):
        loop = EventLoop()
        ev = loop.schedule(1.0, lambda l: None)
        loop.run()
        assert loop.cancel(ev) is False
        assert loop.cancelled == 0

    def test_cancel_inside_callback(self):
        # A callback cancels later events — including one due at the very
        # same instant that has not popped yet (the assassin was scheduled
        # first, so FIFO tie-breaking pops it before the same-time victim).
        loop = EventLoop()
        fired = []
        v_late = loop.schedule(2.0, lambda l: fired.append("late"))

        def assassin(l):
            fired.append("assassin")
            assert l.cancel(v_now) is True
            assert l.cancel(v_late) is True

        loop.schedule(1.0, assassin)
        v_now = loop.schedule(1.0, lambda l: fired.append("same-instant"))
        loop.run()
        assert fired == ["assassin"]
        assert loop.cancelled == 2

    def test_cancelled_pop_moves_no_clock_and_no_budget(self):
        loop = EventLoop()
        hits = []
        ev = loop.schedule(5.0, lambda l: hits.append(l.now))
        loop.schedule(1.0, lambda l: hits.append(l.now))
        loop.cancel(ev)
        loop.run(max_events=1)
        # The cancelled slot at t=5 is skipped without charging the budget
        # or dragging the clock to 5.0.
        assert hits == [1.0]
        assert loop.now == 1.0
        assert loop.processed == 1

    def test_self_cancel_inside_own_callback_is_false(self):
        loop = EventLoop()
        results = []

        def selfish(l):
            results.append(l.cancel(ev))

        ev = loop.schedule(1.0, selfish)
        loop.run()
        assert results == [False]  # already popped: no longer live


class TestScheduleRepeating:
    def test_fires_on_the_grid_then_stops(self):
        loop = EventLoop()
        ticks = []
        loop.schedule_repeating(0.5, lambda l: ticks.append(l.now), until=2.0)
        loop.run()
        assert ticks == [0.5, 1.0, 1.5, 2.0]
        assert loop.pending == 0  # recurrence ends: the loop can drain

    def test_first_firing_is_one_interval_out(self):
        loop = EventLoop(start=3.0)
        ticks = []
        loop.schedule_repeating(1.0, lambda l: ticks.append(l.now), until=5.0)
        loop.run()
        assert ticks == [4.0, 5.0]

    def test_interleaves_with_ordinary_events(self):
        loop = EventLoop()
        log = []
        loop.schedule_repeating(1.0, lambda l: log.append(("tick", l.now)), until=3.0)
        loop.schedule(1.5, lambda l: log.append(("event", l.now)))
        loop.run()
        assert log == [
            ("tick", 1.0), ("event", 1.5), ("tick", 2.0), ("tick", 3.0)
        ]

    def test_zero_width_window_schedules_nothing(self):
        loop = EventLoop(start=1.0)
        out = loop.schedule_repeating(2.0, lambda l: None, until=1.5)
        assert out is None
        assert loop.pending == 0

    def test_rejects_bad_arguments(self):
        loop = EventLoop(start=1.0)
        with pytest.raises(ValueError):
            loop.schedule_repeating(0.0, lambda l: None, until=2.0)
        with pytest.raises(ValueError):
            loop.schedule_repeating(0.1, lambda l: None, until=0.5)

    def test_negative_interval_rejected(self):
        loop = EventLoop()
        with pytest.raises(ValueError):
            loop.schedule_repeating(-1.0, lambda l: None, until=5.0)


class TestHorizonEdge:
    """run(until=t) boundary semantics: inclusive, and cheap to cancel at."""

    def test_event_exactly_at_horizon_fires_and_clock_lands_on_it(self):
        loop = EventLoop()
        fired = []
        loop.schedule(2.0, lambda lp: fired.append(lp.now))
        end = loop.run(until=2.0)
        assert fired == [2.0]
        assert end == 2.0 and loop.now == 2.0

    def test_cancelled_event_at_horizon_costs_nothing(self):
        loop = EventLoop()
        ev = loop.schedule(2.0, lambda lp: (_ for _ in ()).throw(AssertionError))
        loop.cancel(ev)
        end = loop.run(until=2.0)
        # The cancelled pop advances neither the processed counter nor the
        # clock by itself; the horizon advance still lands the clock at t.
        assert loop.processed == 0
        assert end == 2.0 and loop.now == 2.0

    def test_mixed_live_and_cancelled_at_horizon(self):
        loop = EventLoop()
        fired = []
        dead = loop.schedule(2.0, lambda lp: fired.append("dead"))
        loop.schedule(2.0, lambda lp: fired.append("live"))
        loop.cancel(dead)
        end = loop.run(until=2.0)
        assert fired == ["live"]
        assert loop.processed == 1
        assert end == 2.0

    def test_event_beyond_horizon_stays_queued(self):
        loop = EventLoop()
        fired = []
        loop.schedule(2.0 + 1e-9, lambda lp: fired.append(lp.now))
        end = loop.run(until=2.0)
        assert fired == []
        assert end == 2.0 and loop.pending == 1
        loop.run()
        assert fired == [2.0 + 1e-9]

    def test_budget_counts_only_fired_events(self):
        loop = EventLoop()
        fired = []
        evs = [loop.schedule(1.0, lambda lp, i=i: fired.append(i)) for i in range(4)]
        loop.cancel(evs[0])
        loop.cancel(evs[2])
        loop.run(max_events=2)
        assert fired == [1, 3]


class TestTraceCursor:
    def _collect(self, loop, times):
        from repro.sim.engine import TraceCursor

        runs = []
        cur = TraceCursor(loop, times, lambda i, j: runs.append((loop.now, i, j)))
        cur.start()
        return cur, runs

    def test_runs_partition_the_trace(self):
        loop = EventLoop()
        times = [0.0, 0.0, 0.5, 1.0, 1.0, 1.0, 3.0]
        cur, runs = self._collect(loop, times)
        loop.run()
        assert runs == [(0.0, 0, 2), (0.5, 2, 3), (1.0, 3, 6), (3.0, 6, 7)]
        assert cur.exhausted

    def test_empty_trace_is_a_noop(self):
        loop = EventLoop()
        cur, runs = self._collect(loop, [])
        loop.run()
        assert runs == [] and cur.exhausted and loop.processed == 0

    def test_tie_order_matches_bulk_ingestion(self):
        """An event armed before ingestion beats same-time arrivals; one
        armed after ingestion (or mid-replay) loses to them — whether the
        whole trace is ingested by one ``schedule`` call per arrival or
        by the cursor."""
        from functools import partial

        from repro.sim.engine import TraceCursor

        times = [1.0, 1.0, 2.0, 2.0]

        def replay(cursor):
            loop = EventLoop()
            log = []
            loop.schedule(1.0, lambda lp: log.append("pre"))
            if cursor:
                def on_run(i, j):
                    for k in range(i, j):
                        log.append(("arrive", loop.now, k))
                        if k == 1:
                            loop.schedule(2.0, lambda lp: log.append("mid"))
                TraceCursor(loop, times, on_run).start()
            else:
                def arrive(lp, k):
                    log.append(("arrive", lp.now, k))
                    if k == 1:
                        lp.schedule(2.0, lambda l: log.append("mid"))
                for k, t in enumerate(times):
                    loop.schedule(t, partial(arrive, k=k))
            loop.schedule(2.0, lambda lp: log.append("post"))
            loop.run()
            return log

        assert replay(cursor=False) == replay(cursor=True)

    @pytest.mark.parametrize(
        "times, message",
        [
            ([5.0, math.nan, 1.0], r"arrival_s\[1\]=nan must be finite"),
            ([math.nan], r"arrival_s\[0\]=nan must be finite"),
            ([1.0, math.inf], r"arrival_s\[1\]=inf must be finite"),
        ],
        ids=["nan-hides-disorder", "nan-first", "inf"],
    )
    def test_check_arrival_order_rejects_non_finite(self, times, message):
        from repro.sim.engine import check_arrival_order

        with pytest.raises(ValueError, match=message):
            check_arrival_order(times, 0.0)

    def test_check_arrival_order_names_the_offending_index(self):
        from repro.sim.engine import check_arrival_order

        check_arrival_order([], 5.0)
        check_arrival_order([1.0, 1.0, 2.0], 1.0)
        with pytest.raises(ValueError, match=r"arrival_s\[0\]=0.5 precedes now=1.0"):
            check_arrival_order([0.5, 2.0], 1.0)
        with pytest.raises(
            ValueError, match=r"arrival_s\[2\]=0.5 precedes arrival_s\[1\]=2.0"
        ):
            check_arrival_order([1.0, 2.0, 0.5], 0.0)

    def test_reserved_seq_rejects_double_use_and_unreserved(self):
        loop = EventLoop()
        start = loop.reserve_sequences(2)
        loop.schedule_reserved(0.0, start, lambda lp: None)
        with pytest.raises(ValueError):
            loop.schedule_reserved(0.0, start, lambda lp: None)
        with pytest.raises(ValueError):
            loop.schedule_reserved(0.0, start + 10, lambda lp: None)

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
            max_size=60,
        ).map(sorted)
    )
    def test_cursor_matches_bulk_on_sorted_traces(self, times):
        from repro.sim.engine import TraceCursor

        loop_a, loop_b = EventLoop(), EventLoop()
        log_a, log_b = [], []
        for k, t in enumerate(times):
            loop_a.schedule(t, lambda l, k=k: log_a.append((l.now, k)))
        TraceCursor(
            loop_b,
            times,
            lambda i, j: log_b.extend((loop_b.now, k) for k in range(i, j)),
        ).start()
        loop_a.run()
        loop_b.run()
        assert log_a == log_b
        assert loop_a.now == loop_b.now


class TestUtilization:
    """The loop's self-accounting: events fired, idle runs, window stalls."""

    def test_fresh_loop_reports_zeros(self):
        util = EventLoop().utilization()
        assert util == {
            "events_fired": 0, "runs": 0, "idle_runs": 0,
            "window_stalls": 0, "cancelled": 0, "pending": 0,
        }

    def test_counts_events_and_runs(self):
        loop = EventLoop()
        for t in (0.1, 0.2, 0.3):
            loop.schedule(t, lambda lp: None)
        loop.run()
        util = loop.utilization()
        assert util["events_fired"] == 3
        assert util["runs"] == 1
        assert util["idle_runs"] == 0
        assert util["pending"] == 0

    def test_idle_run_on_empty_loop(self):
        loop = EventLoop()
        loop.run()
        assert loop.utilization()["idle_runs"] == 1
        assert loop.utilization()["window_stalls"] == 0
        assert loop.idle_runs == 1

    def test_window_stall_counts_bounded_empty_windows(self):
        """A bounded run firing nothing while work waits beyond it stalls."""
        loop = EventLoop()
        loop.schedule(5.0, lambda lp: None)
        loop.run(until=1.0)   # nothing in [0, 1]: a stall
        loop.run(until=2.0)   # still nothing: another
        util = loop.utilization()
        assert util["window_stalls"] == 2
        assert util["idle_runs"] == 2
        assert loop.window_stalls == 2
        loop.run()            # the event finally fires
        assert loop.utilization()["window_stalls"] == 2
        assert loop.utilization()["events_fired"] == 1

    def test_unbounded_empty_run_is_idle_not_stalled(self):
        loop = EventLoop()
        loop.schedule(1.0, lambda lp: None)
        loop.run()
        loop.run()   # drained: idle, but no window to stall on
        util = loop.utilization()
        assert util["idle_runs"] == 1
        assert util["window_stalls"] == 0

    def test_cancelled_events_surface(self):
        loop = EventLoop()
        event = loop.schedule(1.0, lambda lp: None)
        loop.cancel(event)
        loop.run()
        assert loop.utilization()["cancelled"] == 1


class TestInputChecks:
    """Bad run/reserve arguments raise, naming the field, before any work."""

    @pytest.mark.parametrize("until", [math.inf, math.nan, -1.0])
    def test_run_rejects_bad_until(self, until):
        loop = EventLoop()
        fired = []
        loop.schedule(1.0, lambda l: fired.append(l.now))
        with pytest.raises(ValueError, match="until must be finite"):
            loop.run(until=until)
        assert fired == [] and loop.now == 0.0
        assert loop.utilization()["runs"] == 0
        loop.run()
        assert fired == [1.0]

    @pytest.mark.parametrize("max_events", [-3, 1.5, True, math.nan])
    def test_run_rejects_bad_max_events(self, max_events):
        loop = EventLoop()
        loop.schedule(1.0, lambda l: None)
        with pytest.raises(ValueError, match="max_events must be an integer >= 0"):
            loop.run(max_events=max_events)
        assert loop.utilization()["idle_runs"] == 0
        assert loop.pending == 1

    def test_run_accepts_zero_budget(self):
        loop = EventLoop()
        loop.schedule(1.0, lambda l: None)
        loop.run(max_events=0)
        assert loop.pending == 1 and loop.processed == 0

    @pytest.mark.parametrize("n", [1.5, True, -1, math.nan])
    def test_reserve_sequences_rejects_non_counts(self, n):
        loop = EventLoop()
        with pytest.raises(ValueError, match="n must be an integer >= 0"):
            loop.reserve_sequences(n)
        assert loop.reserve_sequences(0) == 0
        ev = loop.schedule(0.0, lambda l: None)
        assert type(ev.seq) is int and ev.seq == 0


class TestDueNow:
    def test_empty_and_future_events_are_not_due(self):
        loop = EventLoop()
        assert not loop.due_now()
        loop.schedule(1.0, lambda l: None)
        assert not loop.due_now()

    def test_event_at_now_is_due(self):
        loop = EventLoop()
        seen = []
        loop.schedule(1.0, lambda l: seen.append(l.due_now()))
        loop.schedule(1.0, lambda l: seen.append(l.due_now()))
        loop.schedule(2.0, lambda l: seen.append(l.due_now()))
        loop.run()
        assert seen == [True, False, False]

    def test_cancelled_events_at_now_are_dropped(self):
        loop = EventLoop()
        seen = []
        dead = []
        loop.schedule(1.0, lambda l: (l.cancel(dead[0]), seen.append(l.due_now())))
        dead.append(loop.schedule(1.0, lambda l: seen.append("fired")))
        loop.run()
        assert seen == [False]
        assert loop.processed == 1 and loop.pending == 0
