"""Unit tests for the discrete-event simulator substrate."""

import pytest

from repro.errors import DeadlockError, SimTimeout, TaskCancelled
from repro.sim import Future, SimQueue, Simulator


@pytest.fixture
def sim():
    return Simulator(seed=42)


class TestEventQueue:
    def test_events_run_in_time_order(self, sim):
        log = []
        sim.schedule(5.0, log.append, "b")
        sim.schedule(1.0, log.append, "a")
        sim.schedule(9.0, log.append, "c")
        sim.run()
        assert log == ["a", "b", "c"]
        assert sim.now == 9.0

    def test_same_time_events_run_fifo(self, sim):
        log = []
        for tag in range(5):
            sim.schedule(1.0, log.append, tag)
        sim.run()
        assert log == [0, 1, 2, 3, 4]

    def test_cancelled_event_does_not_fire(self, sim):
        log = []
        ev = sim.schedule(1.0, log.append, "x")
        ev.cancel()
        sim.run()
        assert log == []

    def test_run_until_stops_clock(self, sim):
        log = []
        sim.schedule(10.0, log.append, "late")
        sim.run(until=5.0)
        assert log == []
        assert sim.now == 5.0
        sim.run()
        assert log == ["late"]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_determinism_same_seed(self):
        def trace(seed):
            s = Simulator(seed=seed)
            out = []

            def job():
                for _ in range(10):
                    yield s.rng.random() * 3
                    out.append(round(s.now, 9))

            s.run_task(job())
            return out

        assert trace(7) == trace(7)
        assert trace(7) != trace(8)


class TestFuture:
    def test_resolve_and_result(self, sim):
        fut = sim.create_future("f")
        assert not fut.done
        fut.resolve(13)
        assert fut.done and fut.result() == 13

    def test_fail_raises_on_result(self, sim):
        fut = sim.create_future("f")
        fut.fail(ValueError("boom"))
        with pytest.raises(ValueError):
            fut.result()

    def test_pending_result_raises(self, sim):
        with pytest.raises(RuntimeError):
            sim.create_future().result()

    def test_double_resolution_ignored(self, sim):
        fut = sim.create_future()
        fut.resolve(1)
        fut.resolve(2)
        fut.fail(ValueError())
        assert fut.result() == 1

    def test_callback_fires_immediately_when_done(self, sim):
        fut = sim.create_future()
        fut.resolve("v")
        seen = []
        fut.add_callback(lambda f: seen.append(f.result()))
        assert seen == ["v"]


class TestTasks:
    def test_task_sleeps_virtual_time(self, sim):
        def job():
            yield 3.0
            yield 2.0
            return sim.now

        assert sim.run_task(job()) == 5.0

    def test_task_blocks_on_future(self, sim):
        fut = sim.create_future()

        def job():
            value = yield fut
            return value * 2

        sim.schedule(4.0, fut.resolve, 21)
        assert sim.run_task(job()) == 42
        assert sim.now == 4.0

    def test_future_failure_raises_inside_task(self, sim):
        fut = sim.create_future()

        def job():
            try:
                yield fut
            except ValueError as exc:
                return f"caught {exc}"

        sim.schedule(1.0, fut.fail, ValueError("bad"))
        assert sim.run_task(job()) == "caught bad"

    def test_yield_from_subprocedure(self, sim):
        def inner(x):
            yield 1.0
            return x + 1

        def outer():
            a = yield from inner(1)
            b = yield from inner(a)
            return b

        assert sim.run_task(outer()) == 3
        assert sim.now == 2.0

    def test_task_waits_on_task(self, sim):
        def child():
            yield 5.0
            return "done"

        def parent():
            t = sim.spawn(child())
            result = yield t
            return result

        assert sim.run_task(parent()) == "done"

    def test_task_exception_propagates(self, sim):
        def job():
            yield 1.0
            raise RuntimeError("kernel panic")

        with pytest.raises(RuntimeError, match="kernel panic"):
            sim.run_task(job())

    def test_cancel_throws_into_generator(self, sim):
        cleaned = []

        def job():
            try:
                yield sim.create_future()  # blocks forever
            except TaskCancelled:
                cleaned.append(True)
                raise

        task = sim.spawn(job())
        sim.schedule(2.0, task.cancel)
        with pytest.raises(DeadlockError):
            # run_task on a *different* task would be cleaner; drive directly
            sim.run_task(job(), name="other")
        sim.run()
        assert cleaned == [True]
        assert task.finished

    def test_deadlock_detection(self, sim):
        def job():
            yield sim.create_future()  # nothing will resolve this

        with pytest.raises(DeadlockError):
            sim.run_task(job())

    def test_unsupported_yield_fails_task(self, sim):
        def job():
            yield "nonsense"

        with pytest.raises(TypeError):
            sim.run_task(job())


class TestTimeoutsAndGather:
    def test_with_timeout_expires(self, sim):
        fut = sim.create_future()

        def job():
            yield sim.with_timeout(fut, 5.0, "poll")

        with pytest.raises(SimTimeout):
            sim.run_task(job())
        assert sim.now == 5.0

    def test_with_timeout_resolves_in_time(self, sim):
        fut = sim.create_future()
        sim.schedule(2.0, fut.resolve, "ok")

        def job():
            return (yield sim.with_timeout(fut, 5.0))

        assert sim.run_task(job()) == "ok"

    def test_gather_collects_in_order(self, sim):
        futs = [sim.create_future(str(i)) for i in range(3)]
        sim.schedule(3.0, futs[0].resolve, "a")
        sim.schedule(1.0, futs[1].resolve, "b")
        sim.schedule(2.0, futs[2].resolve, "c")

        def job():
            return (yield sim.gather(futs))

        assert sim.run_task(job()) == ["a", "b", "c"]

    def test_gather_empty(self, sim):
        def job():
            return (yield sim.gather([]))

        assert sim.run_task(job()) == []

    def test_gather_fails_fast(self, sim):
        futs = [sim.create_future(), sim.create_future()]
        sim.schedule(1.0, futs[1].fail, ValueError("x"))

        def job():
            yield sim.gather(futs)

        with pytest.raises(ValueError):
            sim.run_task(job())


class TestSyncPrimitives:
    def test_queue_put_then_get(self, sim):
        q = SimQueue(sim)
        q.put("item")

        def job():
            return (yield from q.get())

        assert sim.run_task(job()) == "item"

    def test_queue_get_blocks_until_put(self, sim):
        q = SimQueue(sim)

        def job():
            return (yield from q.get())

        sim.schedule(7.0, q.put, "late")
        assert sim.run_task(job()) == "late"
        assert sim.now == 7.0

    def test_queue_fifo_wakeups(self, sim):
        q = SimQueue(sim)
        got = []

        def consumer(tag):
            item = yield from q.get()
            got.append((tag, item))

        sim.spawn(consumer("c1"))
        sim.spawn(consumer("c2"))
        sim.schedule(1.0, q.put, "x")
        sim.schedule(2.0, q.put, "y")
        sim.run()
        assert got == [("c1", "x"), ("c2", "y")]
