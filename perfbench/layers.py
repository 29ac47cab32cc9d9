"""Layer attribution for the traced run.

The benchmark wraps the public functions of each layer from its own
files; nothing under ``src/`` is instrumented.  A wrapper is patched
where its callers look the name up: on the class for methods, and in
the calling module's namespace for functions imported by name (for
example ``repro.search.strategies`` imports ``sample_canonical``).

Per wrapped function the tracer keeps a call count and a self time:
the span's duration minus the part of it spent in other wrapped
functions it called.  Self times therefore add up, and a layer's share
of the traced wall is the sum of its functions' self times over it.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

# repro.core first: importing repro.search first is circular.
from repro.core.coscheduling import CoSchedulePredictor
from repro.core.predictor import PandiaPredictor
from repro.core.workload_desc import WorkloadDescriptionGenerator
import repro.search.strategies
import repro.sim.run
from repro.online import OnlineScheduler
from repro.rack.scheduler import RackScheduler
from repro.search import SearchEngine

#: The layers, named by module, in report order.
LAYERS = ("sim", "describe", "placement", "predictor", "joint", "search", "rack", "online")


@dataclass(frozen=True)
class Target:
    """One function to wrap; ``name`` starts with its layer."""

    name: str
    owner: Any  # the class or module the callers look ``attr`` up in
    attr: str
    #: ``observe(counters, args, result, before)`` adds per-call
    #: quantities to ``counters`` after the call returns.
    observe: Optional[Callable[..., None]] = None
    #: ``before(args)`` runs ahead of the call; its value reaches observe.
    before: Optional[Callable[[tuple], Any]] = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _joint(counters, args, result, _):
    counters["joint.threads"] += sum(job.placement.n_threads for job in args[1])
    counters["joint.iterations"] += result.iterations


def _batch_rows(counters, args, result, _):
    counters["predictor.rows"] += len(args[2])


def _admit_batch(counters, args, result, _):
    counters["rack.batch"] += len(args[3])


def _search_stats(args) -> Tuple[int, int, int]:
    stats = args[0].stats
    return stats.requests, stats.cache_hits, stats.evaluations


def _search_evaluate(counters, args, result, before):
    after = _search_stats(args)
    for key, new, old in zip(("requests", "cache_hits", "evaluations"), after, before):
        counters[f"search.{key}"] += new - old


def _online_run(counters, args, result, _):
    stats = result.stats
    counters["online.events"] += len(result.event_log) + stats.stale_events
    counters["online.stale_events"] += stats.stale_events
    counters["online.migrations"] += stats.migrations
    counters["online.deferrals"] += stats.deferrals


def targets(bench_module) -> List[Target]:
    """Every wrapped function; *bench_module* is the workloads module,
    which calls ``generate_machine_description`` and
    ``sample_canonical`` through its own namespace."""
    return [
        Target("sim.simulate", repro.sim.run, "simulate"),
        Target("describe.machine", bench_module, "generate_machine_description"),
        Target("describe.workload", WorkloadDescriptionGenerator, "generate"),
        Target("placement.sample_canonical", repro.search.strategies, "sample_canonical"),
        Target("placement.sample_canonical", bench_module, "sample_canonical"),
        Target("placement.enumerate_canonical", repro.search.strategies,
               "enumerate_canonical"),
        Target("predictor.predict_batch", PandiaPredictor, "predict_batch",
               observe=_batch_rows),
        Target("predictor.predict", PandiaPredictor, "predict"),
        Target("joint.predict", CoSchedulePredictor, "predict", observe=_joint),
        Target("search.search", SearchEngine, "search"),
        Target("search.evaluate", SearchEngine, "evaluate",
               observe=_search_evaluate, before=_search_stats),
        Target("rack.best_candidate", RackScheduler, "best_candidate"),
        Target("rack.admit_batch", RackScheduler, "admit_batch", observe=_admit_batch),
        Target("online.run", OnlineScheduler, "run", observe=_online_run),
    ]


class LayerTracer:
    """Counts calls and self time of the wrapped functions.

    Wrappers are patched in only inside :meth:`installed` and record
    only while the tracer is active; :meth:`paused` keeps the
    benchmark's own checks out of the figures.
    """

    def __init__(self, wrap: List[Target]) -> None:
        self.wrap = wrap
        self.active = False
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Calls entering a layer from outside it (or from the benchmark).
        self.entries: Counter = Counter()
        #: (caller, callee) -> calls, over wrapped functions.
        self.child_calls: Counter = Counter()
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[List] = []  # [name, layer, child seconds]

    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        originals = []
        try:
            for target in self.wrap:
                original = getattr(target.owner, target.attr)
                originals.append((target, original))
                setattr(target.owner, target.attr, self._wrapper(target, original))
            self.active = True
            yield self
        finally:
            self.active = False
            for target, original in reversed(originals):
                setattr(target.owner, target.attr, original)

    @contextmanager
    def paused(self) -> Iterator[None]:
        was_active, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was_active

    def _wrapper(self, target: Target, fn: Callable) -> Callable:
        name, layer = target.name, target.layer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            before = target.before(args) if target.before else None
            frame = [name, layer, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._stack.pop()
                self.calls[name] += 1
                self.self_s[name] += elapsed - frame[2]
                if parent is None:
                    self.entries[layer] += 1
                else:
                    parent[2] += elapsed
                    self.child_calls[parent[0], name] += 1
                    if parent[1] != layer:
                        self.entries[layer] += 1
            if target.observe:
                target.observe(self.counters, args, result, before)
            return result

        return traced

    def layer_self_s(self, layer: str) -> float:
        return sum(s for name, s in self.self_s.items() if name.startswith(layer + "."))


def _per(total: float, count: float, scale: float = 1.0) -> float:
    return scale * total / count if count else 0.0


def layer_metrics(
    tracer: LayerTracer, setup_wall_s: float, loop_wall_s: float, overhead_s: float
) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of a traced run (one set-up plus its passes).

    Shares are of the traced wall, ``setup_wall_s + loop_wall_s``;
    ``other.share_pct`` is time in no wrapped function (the benchmark's
    own code and unwrapped glue).  A layer the workload never calls
    reports zeros.
    """
    t, c, k = tracer, tracer.calls, tracer.counters
    self_s = t.self_s
    joint_calls = c["joint.predict"]
    rows = k["predictor.rows"]
    requests = k["search.requests"]
    events = k["online.events"]
    wall = setup_wall_s + loop_wall_s
    metrics: Dict[str, Tuple[float, str]] = {
        "joint.predict.calls": (joint_calls, "count"),
        "joint.predict.self_s": (self_s["joint.predict"], "s"),
        "joint.predict.us_per_call": (_per(self_s["joint.predict"], joint_calls, 1e6), "us"),
        "joint.predict.threads_mean": (_per(k["joint.threads"], joint_calls), "threads"),
        "joint.predict.iterations_mean": (
            _per(k["joint.iterations"], joint_calls), "iterations"),
        "rack.best_candidate.calls": (c["rack.best_candidate"], "count"),
        "rack.best_candidate.self_s": (self_s["rack.best_candidate"], "s"),
        "rack.candidates_per_call": (
            _per(t.child_calls["rack.best_candidate", "joint.predict"],
                 c["rack.best_candidate"]), "count"),
        "rack.admit_batch.calls": (c["rack.admit_batch"], "count"),
        "rack.admit_batch.batch_mean": (_per(k["rack.batch"], c["rack.admit_batch"]), "jobs"),
        "online.run.self_s": (self_s["online.run"], "s"),
        "online.events": (events, "count"),
        "online.stale_event_ratio": (_per(k["online.stale_events"], events), "ratio"),
        "online.migrations": (k["online.migrations"], "count"),
        "online.deferrals": (k["online.deferrals"], "count"),
        "predictor.predict_batch.calls": (c["predictor.predict_batch"], "count"),
        "predictor.predict_batch.rows": (rows, "count"),
        "predictor.predict_batch.self_s": (self_s["predictor.predict_batch"], "s"),
        "predictor.predict_batch.us_per_row": (
            _per(self_s["predictor.predict_batch"], rows, 1e6), "us"),
        "placement.sample_canonical.calls": (c["placement.sample_canonical"], "count"),
        "placement.sample_canonical.self_s": (self_s["placement.sample_canonical"], "s"),
        "search.calls": (t.entries["search"], "count"),
        "search.self_s": (t.layer_self_s("search"), "s"),
        "search.evaluations": (k["search.evaluations"], "count"),
        "search.cache_hit_ratio": (_per(k["search.cache_hits"], requests), "ratio"),
        "sim.simulate.calls": (c["sim.simulate"], "count"),
        "sim.simulate.self_s": (self_s["sim.simulate"], "s"),
        "sim.simulate.ms_per_call": (_per(self_s["sim.simulate"], c["sim.simulate"], 1e3), "ms"),
        "predictor.predict.calls": (c["predictor.predict"], "count"),
        "predictor.predict.self_s": (self_s["predictor.predict"], "s"),
        "describe.machine.calls": (c["describe.machine"], "count"),
        "describe.machine.self_s": (self_s["describe.machine"], "s"),
        "describe.workload.calls": (c["describe.workload"], "count"),
        "describe.workload.self_s": (self_s["describe.workload"], "s"),
        "trace.overhead_s": (overhead_s, "s"),
        "setup.share_pct": (_per(setup_wall_s, wall, 100.0), "%"),
    }
    attributed = 0.0
    for layer in LAYERS:
        layer_s = t.layer_self_s(layer)
        attributed += layer_s
        metrics[f"{layer}.share_pct"] = (_per(layer_s, wall, 100.0), "%")
    metrics["other.share_pct"] = (_per(wall - attributed, wall, 100.0), "%")
    return metrics
