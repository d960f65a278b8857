"""Outside-in per-layer tracing: wrappers around the engine's public functions.

The benchmark measures each layer from outside the program.  ``install``
replaces every listed public function, at every name a caller looks it up
by (the defining module, each module that imported it by name, and the
class attribute for methods), with a wrapper that records one span per
call.  Nothing under ``src/`` is edited; ``uninstall`` restores the
originals.

Self time
---------
A span's *self time* is its duration minus the part of its interval that
its child spans cover:

* a wrapped call made while another wrapped call is open in the same thread
  is that call's child;
* a wrapped call made in a worker thread on behalf of a wrapped
  ``Executor.map`` is that map's child (the map hands its span to the
  worker along with each item).  Children in different threads may overlap,
  so the covered part is the *union* of their intervals;
* a wrapped call whose innermost open span in the same thread belongs to
  the same layer (a re-entrant call, or one public function of a layer
  calling another) is folded into that span: it is neither a new span nor
  a new call, so its time is attributed once.

Every instant of a *root* span (one with no parent) is therefore attributed
to exactly one span of the operation's own timeline: the root, a same-thread
descendant, or -- while a map waits -- the worker-thread spans it started.
``attributed_s`` is the summed duration of root spans.  Worker-thread self
time is thread-seconds: with two busy workers it exceeds the map's wall
time, and it reaches the operation's timeline only through the map's
covered interval.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: (layer, module, qualified name) of every wrapped public function, in
#: pipeline order.  ``Class.method`` wraps the method on the class and on
#: every subclass in the same module that overrides it.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("lang.parser", "repro.lang.parser", "parse_constraint_set"),
    ("lang.parser", "repro.symexec.parser", "parse_program"),
    ("lang.simplify", "repro.lang.simplify", "simplify_path_condition"),
    ("lang.analysis", "repro.lang.analysis", "group_constraints_by_block"),
    ("lang.kernel", "repro.lang.kernel", "get_kernel"),
    ("symexec", "repro.symexec.symbolic", "execute_program"),
    ("core.dependency", "repro.core.dependency", "compute_dependency_partition"),
    ("core.cache", "repro.core.cache", "EstimateCache.key_for"),
    ("icp", "repro.icp.solver", "ICPSolver.pave"),
    ("core.sampling", "repro.core.stratified", "StratifiedSampler.extend"),
    ("core.sampling", "repro.core.montecarlo", "hit_or_miss"),
    ("exec", "repro.exec.executor", "Executor.map"),
    ("exec", "repro.exec.scheduler", "execute_sampling_task"),
    ("core.composition", "repro.core.composition", "compose_disjoint_path_conditions"),
    ("core.composition", "repro.core.composition", "compose_independent_factors"),
    ("obs.diagnostics", "repro.obs.diagnostics", "diagnose_run"),
    ("store", "repro.store.backends", "EstimateStore.get"),
    ("store", "repro.store.backends", "EstimateStore.merge"),
    # Canonical store keys try every variable order of a factor; without
    # this layer they are most of a served request's unattributed time.
    ("store.keys", "repro.store.keys", "StoreContext.key_for"),
    ("obs.ledger", "repro.obs.ledger", "RunLedger.append"),
    ("api.report", "repro.api.report", "Report.from_qcoral"),
    ("api.report", "repro.api.report", "Report.to_dict"),
    ("serve", "repro.serve.wire", "parse_quantify_payload"),
    ("serve", "repro.serve.wire", "build_query"),
)

#: Every layer, in table order (the order metrics are reported in).
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))


class _Frame:
    """One open span."""

    __slots__ = ("layer", "start", "parent", "remote", "child_s", "remote_intervals", "workers")

    def __init__(self, layer: str, start: float, parent: Optional["_Frame"], remote: bool) -> None:
        self.layer = layer
        self.start = start
        self.parent = parent
        self.remote = remote
        self.child_s = 0.0
        self.remote_intervals: List[Tuple[float, float]] = []
        self.workers = 1

    def has_ancestor(self, layer: str) -> bool:
        frame = self.parent
        while frame is not None:
            if frame.layer == layer:
                return True
            frame = frame.parent
        return False


def union_length(intervals: Sequence[Tuple[float, float]], low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total = 0.0
    cursor = low
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, high)
        if end > start:
            total += end - start
            cursor = end
    return total


class Tracer:
    """Thread-safe span recorder that aggregates self time per layer."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.extras: Dict[str, float] = defaultdict(float)
        self.keys: set = set()
        self.attributed_s = 0.0

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, amount: float) -> None:
        """Add to an extra counter (thread-safe)."""
        with self._lock:
            self.extras[name] += amount

    def add_key(self, key: str) -> None:
        """Record a cache key, for the count of distinct keys (thread-safe)."""
        with self._lock:
            self.keys.add(key)

    def call(
        self,
        layer: str,
        fn: Callable,
        args: tuple,
        kwargs: dict,
        *,
        prepare: Optional[Callable[[_Frame, tuple, dict], Tuple[tuple, dict]]] = None,
        finish: Optional[Callable[[_Frame, Any, tuple, float], None]] = None,
        on_error: Optional[Callable[[BaseException], None]] = None,
    ) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span of ``layer``."""
        stack = self._stack()
        if stack and stack[-1].layer == layer:
            return fn(*args, **kwargs)
        if stack:
            parent, remote = stack[-1], False
        else:
            parent = getattr(self._local, "link", None)
            remote = parent is not None
        frame = _Frame(layer, self._clock(), parent, remote)
        if prepare is not None:
            args, kwargs = prepare(frame, args, kwargs)
        stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        except BaseException as error:
            if on_error is not None:
                on_error(error)
            raise
        finally:
            stack.pop()
            end = self._clock()
            duration = end - frame.start
            covered = frame.child_s + union_length(frame.remote_intervals, frame.start, end)
            with self._lock:
                self.self_s[layer] += duration - covered
                self.calls[layer] += 1
                if parent is None:
                    self.attributed_s += duration
                elif remote:
                    parent.remote_intervals.append((frame.start, end))
            if parent is not None and not remote:
                parent.child_s += duration
        if finish is not None:
            finish(frame, result, args, duration)
        return result

    def linked(self, frame: _Frame, fn: Callable) -> Callable:
        """``fn`` made to run as a child of ``frame`` in whichever thread calls it."""

        def run(item):
            previous = getattr(self._local, "link", None)
            self._local.link = frame
            try:
                return fn(item)
            finally:
                self._local.link = previous

        return run


# --------------------------------------------------------------------------- #
# Per-target extras: counts read from arguments and results at the boundary
# --------------------------------------------------------------------------- #
def _extras(tracer: Tracer, qualified: str) -> Dict[str, Callable]:
    hooks: Dict[str, Callable] = {}
    if qualified in ("parse_constraint_set", "parse_program"):

        def finish(frame, result, args, duration):
            if args and isinstance(args[0], str):
                tracer.add("lang.parser.bytes", len(args[0].encode("utf-8")))

        hooks["finish"] = finish
    elif qualified == "execute_program":
        hooks["finish"] = lambda frame, result, args, duration: tracer.add("symexec.paths", result.path_count)
    elif qualified == "EstimateCache.key_for":
        hooks["finish"] = lambda frame, result, args, duration: tracer.add_key(result)
    elif qualified == "ICPSolver.pave":

        def finish(frame, result, args, duration):
            tracer.add("icp.boxes", len(result.boxes))
            tracer.add("icp.contractions", result.contraction_passes)

        hooks["finish"] = finish
    elif qualified in ("StratifiedSampler.extend", "hit_or_miss"):
        # Samples are counted where the sampling layer is entered from
        # outside, so a hit_or_miss run by an executor task on behalf of
        # extend() is not counted twice.
        def finish(frame, result, args, duration):
            if not frame.has_ancestor("core.sampling"):
                tracer.add("core.sampling.samples", result if isinstance(result, int) else result.samples)

        hooks["finish"] = finish
    elif qualified == "Executor.map":

        def prepare(frame, args, kwargs):
            executor, fn, items = args[0], args[1], args[2]
            frame.workers = executor.workers
            if executor.kind != "process":  # worker processes are not traced
                fn = tracer.linked(frame, fn)
            return (executor, fn, items) + tuple(args[3:]), kwargs

        def finish(frame, result, args, duration):
            tracer.add("exec.capacity_s", frame.workers * duration)

        hooks["prepare"] = prepare
        hooks["finish"] = finish
    elif qualified == "execute_sampling_task":

        def finish(frame, result, args, duration):
            tracer.add("exec.tasks", 1)
            tracer.add("exec.busy_s", duration)

        hooks["finish"] = finish
    elif qualified == "EstimateStore.get":
        hooks["finish"] = lambda frame, result, args, duration: tracer.add("store.get_hits", result is not None)
    elif qualified == "EstimateStore.merge":
        hooks["finish"] = lambda frame, result, args, duration: tracer.add("store.merges", 1)
    elif qualified in ("parse_quantify_payload", "build_query"):
        hooks["on_error"] = lambda error: tracer.add("serve.rejects", 1)
    return hooks


def _wrap(tracer: Tracer, layer: str, fn: Callable, hooks: Dict[str, Callable]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(layer, fn, args, kwargs, **hooks)

    return wrapper


class Installation:
    """The set of patched attributes; ``uninstall`` puts the originals back."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._patches: List[Tuple[object, str, object]] = []
        self._kernel_before = kernel_counters()

    def patch(self, owner: object, name: str, value: object) -> None:
        self._patches.append((owner, name, owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def metrics(self) -> Dict[str, float]:
        """The per-layer numbers recorded since ``install``."""
        after = kernel_counters()
        return layer_metrics(self.tracer, {name: after[name] - self._kernel_before[name] for name in after})


def install(tracer: Tracer) -> Installation:
    """Wrap every target at every name its callers look it up by."""
    import importlib

    import repro  # noqa: F401  (loads the package the targets live in)

    for _, module_name, _ in TARGETS:
        importlib.import_module(module_name)
    # Modules that import targets by name.  A module loaded after the scan
    # below would still bind the wrappers, but uninstall() could not put its
    # references back, so they are loaded first.
    for extra in ("repro.core.qcoral", "repro.api.session", "repro.api.query", "repro.analysis.pipeline",
                  "repro.serve.app", "repro.cli", "repro.incremental.diff", "repro.core.importance"):
        importlib.import_module(extra)

    installation = Installation(tracer)
    for layer, module_name, qualified in TARGETS:
        module = sys.modules[module_name]
        hooks = _extras(tracer, qualified)
        if "." not in qualified:
            original = getattr(module, qualified)
            wrapper = _wrap(tracer, layer, original, hooks)
            for loaded in list(sys.modules.values()):
                if loaded is None or not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for name, value in list(vars(loaded).items()):
                    if value is original:
                        installation.patch(loaded, name, wrapper)
            continue
        class_name, method = qualified.split(".")
        base = getattr(module, class_name)
        classes = [
            cls
            for cls in vars(module).values()
            if inspect.isclass(cls) and issubclass(cls, base) and method in cls.__dict__
        ]
        for cls in classes:
            raw = cls.__dict__[method]
            if isinstance(raw, staticmethod):
                value = staticmethod(_wrap(tracer, layer, raw.__func__, hooks))
            elif isinstance(raw, classmethod):
                value = classmethod(_wrap(tracer, layer, raw.__func__, hooks))
            else:
                value = _wrap(tracer, layer, raw, hooks)
            installation.patch(cls, method, value)
    return installation


def layer_metrics(tracer: Tracer, kernel_delta: Dict[str, int]) -> Dict[str, float]:
    """One traced pass's per-layer numbers, keyed by metric name."""
    metrics: Dict[str, float] = {}
    with tracer._lock:
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = tracer.self_s.get(layer, 0.0)
            metrics[f"{layer}.calls"] = float(tracer.calls.get(layer, 0))
        for name in (
            "lang.parser.bytes",
            "symexec.paths",
            "icp.boxes",
            "icp.contractions",
            "core.sampling.samples",
            "exec.tasks",
            "exec.busy_s",
            "store.get_hits",
            "store.merges",
            "serve.rejects",
        ):
            metrics[name] = float(tracer.extras.get(name, 0.0))
        metrics["exec.wait_s"] = tracer.extras.get("exec.capacity_s", 0.0) - tracer.extras.get("exec.busy_s", 0.0)
        key_calls = tracer.calls.get("core.cache", 0)
        metrics["core.cache.distinct"] = float(len(tracer.keys))
        metrics["core.cache.reuse_ratio"] = 1.0 - len(tracer.keys) / key_calls if key_calls else 0.0
        metrics["attributed_s"] = tracer.attributed_s
    for name in ("codegens", "memory_hits", "disk_hits"):
        metrics[f"lang.kernel.{name}"] = float(kernel_delta.get(name, 0))
    return metrics


def kernel_counters() -> Dict[str, int]:
    """The kernel cache's process-wide counters (``kernel_cache_stats()``)."""
    from dataclasses import asdict

    from repro.lang.kernel import kernel_cache_stats

    return {name: value for name, value in asdict(kernel_cache_stats()).items() if isinstance(value, int)}
