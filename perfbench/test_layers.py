"""Self-time arithmetic of the benchmark's outside-in tracer.

Run with ``PYTHONPATH=src python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import threading
import time
from types import SimpleNamespace

import pytest

from layers import Tracer, _extras, install, union_length


class ScriptedClock:
    """A clock whose readings are scripted per thread name."""

    def __init__(self, readings):
        self._readings = {name: list(values) for name, values in readings.items()}
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            return self._readings[threading.current_thread().name].pop(0)


def test_union_length_merges_overlaps_and_clips():
    assert union_length([(1.0, 3.0), (2.0, 5.0), (7.0, 9.0)], 0.0, 8.0) == pytest.approx(5.0)
    assert union_length([], 0.0, 1.0) == 0.0


def test_nested_calls_subtract_children_once():
    tracer = Tracer(clock=ScriptedClock({"MainThread": [0.0, 1.0, 3.0, 3.5, 3.75, 4.0]}))

    def inner():
        tracer.call("icp", lambda: None, (), {})

    def leaf():
        tracer.call("lang.kernel", lambda: None, (), {})

    def outer():
        inner()
        leaf()

    tracer.call("core.sampling", outer, (), {})
    assert tracer.self_s["icp"] == pytest.approx(2.0)
    assert tracer.self_s["lang.kernel"] == pytest.approx(0.25)
    assert tracer.self_s["core.sampling"] == pytest.approx(4.0 - 2.0 - 0.25)
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.attributed_s) == pytest.approx(4.0)
    assert dict(tracer.calls) == {"icp": 1, "lang.kernel": 1, "core.sampling": 1}


def test_reentrant_call_is_folded_into_the_open_span():
    tracer = Tracer(clock=ScriptedClock({"MainThread": [0.0, 5.0]}))

    def recurse(depth):
        if depth:
            tracer.call("icp", recurse, (depth - 1,), {})

    tracer.call("icp", recurse, (3,), {})
    assert tracer.calls["icp"] == 1
    assert tracer.self_s["icp"] == pytest.approx(5.0)
    assert tracer.attributed_s == pytest.approx(5.0)


def test_worker_thread_calls_are_children_of_the_map_that_started_them():
    # The map runs 0..6 in the caller; its two workers run 1..3 and 2..5.
    clock = ScriptedClock({"MainThread": [0.0, 6.0], "worker-a": [1.0, 3.0], "worker-b": [2.0, 5.0]})
    tracer = Tracer(clock=clock)

    def sample():
        tracer.call("core.sampling", lambda: None, (), {})

    def fake_map(fn, items):
        # Run the workers one after the other so the scripted clock decides
        # the (overlapping) intervals, not the scheduler.
        for name in ("worker-a", "worker-b"):
            thread = threading.Thread(target=fn, args=(None,), name=name)
            thread.start()
            thread.join(5.0)
            assert not thread.is_alive()

    def prepare(frame, args, kwargs):
        return (tracer.linked(frame, args[0]), args[1]), kwargs

    tracer.call("exec", fake_map, (lambda _: sample(), [1, 2]), {}, prepare=prepare)
    # The map's self time excludes the union of its workers' intervals (1..5).
    assert tracer.self_s["exec"] == pytest.approx(2.0)
    # Worker self time is thread-seconds: 2 + 3.
    assert tracer.self_s["core.sampling"] == pytest.approx(5.0)
    assert tracer.calls["core.sampling"] == 2
    # Only the caller's root span counts toward the operation's timeline.
    assert tracer.attributed_s == pytest.approx(6.0)


def test_samples_are_counted_where_the_sampling_layer_is_entered():
    # extend() -> Executor.map -> task -> hit_or_miss: the inner sampling
    # call sits below another layer, so it is a span of its own, but its
    # samples are already in extend()'s return value.
    tracer = Tracer()

    def task():
        result = SimpleNamespace(samples=10)
        return tracer.call("core.sampling", lambda: result, (), {}, **_extras(tracer, "hit_or_miss"))

    def extend():
        tracer.call("exec", task, (), {})
        return 10

    tracer.call("core.sampling", extend, (), {}, **_extras(tracer, "StratifiedSampler.extend"))
    assert tracer.calls["core.sampling"] == 2
    assert tracer.extras["core.sampling.samples"] == 10


def test_install_attributes_a_threaded_run_once_and_uninstalls(monkeypatch, tmp_path):
    monkeypatch.setenv("QCORAL_KERNEL_CACHE_DIR", str(tmp_path))
    import repro.core.montecarlo as montecarlo
    from repro import Session

    original = montecarlo.hit_or_miss
    tracer = Tracer()
    installation = install(tracer)
    try:
        assert montecarlo.hit_or_miss.__wrapped__ is original
        with Session(executor="thread", workers=2) as session:
            started = time.perf_counter()
            report = (
                session.quantify("x * x + y * y <= 1", {"x": (-1, 1), "y": (-1, 1)})
                .with_budget(400_000)
                .configure(stratified=False)
                .seed(3)
                .run()
            )
            wall = time.perf_counter() - started
    finally:
        installation.uninstall()
    assert montecarlo.hit_or_miss is original
    tasks = tracer.extras["exec.tasks"]
    assert tasks >= 2
    # Each task's hit_or_miss is one sampling entry, its samples counted once.
    assert tracer.calls["core.sampling"] == tasks
    assert tracer.extras["core.sampling.samples"] == report.total_samples
    assert all(value >= 0.0 for value in tracer.self_s.values())
    # Worker-thread spans hang below the map that started them, so the
    # operation's timeline is not counted once per worker.
    assert tracer.attributed_s <= wall
    assert tracer.extras["exec.busy_s"] <= tracer.extras["exec.capacity_s"]
