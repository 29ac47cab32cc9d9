"""The benchmark's three workloads: ``online``, ``advise`` and ``validate``.

Each workload is a closed loop driven from one process with no pools:
the benchmark issues the next cycle only after the previous one has
returned.  A workload has three parts:

* ``setup(seed)`` prepares what a user prepares once (machine and
  workload descriptions, profiling, the arrival trace, placement
  samples).  Its wall time is ``setup_s``.
* ``cycle(inputs, k)`` performs the workload's ``k``-th distinct unit
  of work, for ``k`` below ``ops_per_pass``, and returns a
  :class:`Cycle`.  Only its operations are timed; building the
  comparable ``answer`` is not.  The benchmark repeats every ``k`` once
  per pass, and each repetition must give the same answer.
* ``check(inputs, cycle)`` runs the correctness checks on the cycle's
  payload, outside every timed section, and returns how many of the
  cycle's operations failed.
* ``quality(cycles)`` computes the workload's answer figures from the
  first pass.

Inputs come from the seed: the arrival traces (``online``), the query
order, placement samples and profiling noise (``advise``), the order
and the profiling and measurement noise (``validate``).  The same seed
gives the same answers.
"""

from __future__ import annotations

import random
import statistics
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Tuple

from repro.analysis.evaluation import EvaluationResult, evaluate_workload
from repro.core.description import DemandVector, WorkloadDescription
from repro.core.machine_desc import generate_machine_description
from repro.core.optimizer import rightsize
from repro.core.placement import sample_canonical
from repro.core.predictor import PandiaPredictor
from repro.core.workload_desc import WorkloadDescriptionGenerator
from repro.hardware import machines
from repro.online import OnlineScheduler, diurnal_trace
from repro.rack.model import Rack, RackMachine
from repro.search import ExhaustiveStrategy, SearchEngine
from repro.sim.noise import NO_NOISE, NoiseModel
from repro.workloads import catalog

#: Golden-equivalence tolerance between the batch kernel and scalar
#: ``PandiaPredictor.predict`` (seconds; the repo's own golden tests
#: use the same bound).
GOLDEN_TOLERANCE = 1e-12


@dataclass
class Cycle:
    """One closed-loop unit of work and what it produced."""

    units: int  # throughput units: decisions, queries or placements
    wall_s: float  # timed wall of the cycle's operations
    latencies_ms: List[float]  # one entry per timed operation
    attempted: int  # operations the checks cover
    answer: Any  # compared between the untraced and the traced run
    payload: Any  # what check() and quality() read; dropped after
    #: (wall, operations) of each stretch between the reference-kernel
    #: times taken inside the cycle (``probes``); empty for one stretch.
    segments: List[Tuple[float, int]] = field(default_factory=list)
    probes: List[float] = field(default_factory=list)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= GOLDEN_TOLERANCE


# -- online -----------------------------------------------------------------

#: Mean arrival rate of the diurnal trace, jobs per simulated second.
MEAN_RATE_PER_S = 1.5
#: Diurnal periods each trace spans, so it sees several load peaks.
PERIODS = 3
#: Traces per seed; cycle ``k`` replays trace ``k``.  Pooling several
#: traces keeps one trace's load pattern from setting the figures.
TRACES = 6
#: Seconds of replay between two times of the reference kernel inside a
#: cycle, so the short ``admit`` calls are scaled by the host's speed
#: close to them.
PROBE_EVERY_S = 0.2


def make_rack() -> Rack:
    """2x X3-2 + 2x TESTBOX, 96 hardware threads (the online fleet)."""
    nodes = []
    for prefix, machine_name in (("big", "X3-2"), ("small", "TESTBOX")):
        spec = machines.get(machine_name)
        md = generate_machine_description(spec, noise=NO_NOISE)
        nodes += [RackMachine(f"{prefix}-{i}", spec, md) for i in range(2)]
    return Rack(machines=tuple(nodes))


def make_pool() -> List[WorkloadDescription]:
    """Four job classes spanning the contention spectrum."""

    def wd(name, inst, dram, p, t1):
        return WorkloadDescription(
            name=name,
            machine_name="X3-2",
            t1=t1,
            demands=DemandVector(inst_rate=inst, cache_bw={"L1": 20.0}, dram_bw=dram),
            parallel_fraction=p,
            load_balance=0.8,
        )

    return [
        wd("mem", inst=2.0, dram=18.0, p=0.98, t1=20.0),
        wd("cpu", inst=6.0, dram=0.5, p=0.98, t1=8.0),
        wd("mid", inst=4.0, dram=6.0, p=0.98, t1=14.0),
        wd("wide", inst=4.0, dram=2.0, p=0.999, t1=30.0),
    ]


class Online:
    """``OnlineScheduler(policy="predicted-slowdown", migrate=True)``
    replaying one of ``TRACES`` seeded diurnal traces per cycle.

    The joint co-schedule kernel dominates: admission scoring,
    departure re-timing and migration re-auction all call it.  Solo
    predictions are memoised by the scheduler; the simulator is not
    called in the loop.
    Throughput counts committed decisions (placements and migrations).
    Latency is that of each ``admit`` call that places at least one
    job: an admit that places nothing (the fleet is full) returns in
    ~0.05 ms, is counted as a deferral, and would otherwise put the
    median on the edge between two latency groups.
    """

    name = "online"
    #: Times the reference kernel; set by the benchmark, None for no probes.
    probe = None

    def __init__(self, small: bool = False) -> None:
        self.n_jobs = 40 if small else 100
        self.ops_per_pass = 1 if small else TRACES

    def setup(self, seed: int):
        pool = make_pool()
        traces = [
            diurnal_trace(
                pool,
                n_jobs=self.n_jobs,
                mean_rate_per_s=MEAN_RATE_PER_S,
                period_s=self.n_jobs / MEAN_RATE_PER_S / PERIODS,
                seed=seed * TRACES + k,
            )
            for k in range(self.ops_per_pass)
        ]
        return make_rack(), traces

    def cycle(self, inputs, index: int) -> Cycle:
        rack, traces = inputs
        trace = traces[index]
        scheduler = OnlineScheduler(rack, policy="predicted-slowdown", migrate=True)
        admit = scheduler.policy.admit
        probe = self.probe
        latencies: List[float] = []
        segments: List[Tuple[float, int]] = []
        probes: List[float] = []
        # [start of the current stretch, its first latency, time spent
        # in probes]
        stretch = [0.0, 0, 0.0]

        def timed_admit(fleet, workloads):
            start = perf_counter()
            placed, pending = admit(fleet, workloads)
            end = perf_counter()
            if placed:
                latencies.append((end - start) * 1e3)
            if probe is not None and end - stretch[0] >= PROBE_EVERY_S:
                segments.append((end - stretch[0], len(latencies) - stretch[1]))
                probes.append(probe())
                resume = perf_counter()
                stretch[:] = [resume, len(latencies), stretch[2] + resume - end]
            return placed, pending

        scheduler.policy.admit = timed_admit
        start = stretch[0] = perf_counter()
        result = scheduler.run(trace)
        end = perf_counter()
        wall = end - start - stretch[2]
        if probes:
            segments.append((end - stretch[0], len(latencies) - stretch[1]))
        answer = tuple(
            (d.job_name, d.kind, d.time_s, d.machine_name, d.hw_thread_ids,
             d.predicted_total_s)
            for d in result.decisions
        )
        return Cycle(
            units=len(result.decisions),
            wall_s=wall,
            latencies_ms=latencies,
            attempted=len(trace),
            answer=answer,
            payload=(trace, result),
            segments=segments,
            probes=probes,
        )

    def check(self, inputs, cycle: Cycle) -> int:
        """Every job departs exactly once; one failure per job that does not."""
        trace, result = cycle.payload
        departed = Counter(c.name for c in result.completed)
        names = {job.name for job in trace.jobs}
        failed = sum(1 for name in names if departed.get(name) != 1)
        return failed + sum(1 for name in departed if name not in names)

    def quality(self, cycles: List[Cycle]) -> Dict[str, Tuple[float, str]]:
        """Slowdowns and migrations, averaged over the traces."""
        results = [cycle.payload[1] for cycle in cycles]
        return {
            "mean_slowdown": (statistics.mean(r.mean_slowdown for r in results), "x"),
            "p95_slowdown": (statistics.mean(r.p95_slowdown for r in results), "x"),
            "migrations": (statistics.mean(r.stats.migrations for r in results), "count"),
        }


# -- advise -----------------------------------------------------------------

#: X2-4 queries: a subset of the evaluation set.  Each costs ~10x an
#: X5-2 query, almost all of it in ``sample_canonical``.  Six of them
#: put p90 in the middle of their group rather than on its edge.
X2_4_WORKLOADS = ("MD", "CG", "EP", "Art", "IS", "Swim")


@dataclass
class _Target:
    machine_name: str
    md: Any
    description: WorkloadDescription


class Advise:
    """The ``pandia optimize`` default path, one query at a time.

    Each query builds a fresh ``PandiaPredictor`` and serial
    ``SearchEngine``, runs ``ExhaustiveStrategy(sample=400)`` and then
    ``rightsize(tolerance=0.05)``.  On X5-2 the solo batch kernel
    dominates; on X2-4 ``sample_canonical`` does (it builds every shape
    combo to sample 400).  Profiling every workload is set-up.
    A pass makes every query once, in an order drawn from the seed: the
    22 evaluation workloads on X5-2 and six of them on X2-4, which
    puts the median latency inside the X5-2 group and p90 in the middle
    of the X2-4 group.
    """

    name = "advise"

    def __init__(self, small: bool = False) -> None:
        self.x5_2_workloads = (
            ("MD", "CG") if small else tuple(w.name for w in catalog.evaluation_set())
        )
        self.x2_4_workloads = ("EP",) if small else X2_4_WORKLOADS
        self.ops_per_pass = len(self.x5_2_workloads) + len(self.x2_4_workloads)

    def setup(self, seed: int):
        noise = NoiseModel(seed=seed)
        targets = []
        for machine_name, names in (
            ("X5-2", self.x5_2_workloads),
            ("X2-4", self.x2_4_workloads),
        ):
            spec = machines.get(machine_name)
            md = generate_machine_description(spec, noise=noise)
            generator = WorkloadDescriptionGenerator(spec, md, noise=noise)
            targets += [
                _Target(machine_name, md, generator.generate(catalog.get(name)))
                for name in names
            ]
        random.Random(seed).shuffle(targets)
        return seed, targets

    def cycle(self, inputs, index: int) -> Cycle:
        """Query *index* of the seed's order."""
        seed, targets = inputs
        target = targets[index]
        start = perf_counter()
        predictor = PandiaPredictor(target.md)
        with SearchEngine(predictor) as engine:
            result = engine.search(
                target.description, ExhaustiveStrategy(sample=400, seed=seed)
            )
            placements = [r.placement for r in result.ranked]
            small, small_pred = rightsize(
                predictor, target.description, placements,
                tolerance=0.05, engine=engine,
            )
        wall = perf_counter() - start
        best, best_pred = result.best_placement, result.best_prediction
        return Cycle(
            units=1,
            wall_s=wall,
            latencies_ms=[wall * 1e3],
            attempted=1,
            answer=(target.machine_name, target.description.name, best.hw_thread_ids,
                    best_pred.predicted_time_s, small.hw_thread_ids,
                    small_pred.predicted_time_s),
            payload=(target, best, best_pred, small, small_pred),
        )

    def check(self, inputs, cycle: Cycle) -> int:
        """Advised and right-sized predictions equal scalar ``predict``."""
        target, best, best_pred, small, small_pred = cycle.payload
        scalar = PandiaPredictor(target.md)
        ok = True
        for placement, prediction in ((best, best_pred), (small, small_pred)):
            golden = scalar.predict(target.description, placement)
            ok = ok and _close(golden.predicted_time_s, prediction.predicted_time_s)
            ok = ok and _close(golden.speedup, prediction.speedup)
        return int(not ok)

    def quality(self, cycles: List[Cycle]) -> Dict[str, Tuple[float, str]]:
        saved = [
            1.0 - small.n_threads / best.n_threads
            for _, best, _, small, _ in (cycle.payload for cycle in cycles)
        ]
        return {"rightsize_threads_saved_pct": (100.0 * statistics.mean(saved), "%")}


# -- validate ---------------------------------------------------------------

#: The accuracy mix: compute-bound, memory-bound, NUMA-sensitive and
#: cache-sensitive workloads (Art is the heaviest to simulate).
VALIDATE_WORKLOADS = ("EP", "MD", "CG", "IS", "Sort-Join", "PageRank", "Art", "Swim")
#: Placements timed and predicted per workload and pass.
PLACEMENTS = 4
#: Seed of the placement samples.  One placement's simulation costs 3 to
#: 600 ms depending on its shape, so samples drawn from the run's seed
#: would make the seed, not the program, set the throughput.
SAMPLE_SEED = 0


class Validate:
    """Timed runs on the ground-truth simulator against Pandia predictions.

    Cycle ``k`` validates workload ``k`` on X5-2:
    ``WorkloadDescriptionGenerator.generate`` (six profiling runs), then
    ``evaluate_workload`` on a fixed ``sample_canonical`` set of
    ``PLACEMENTS`` placements.  ``simulate`` dominates.  Throughput
    counts placements, with profiling in the cycle's wall; the latency
    operation is one workload's validation.  The seed sets the profiling
    and measurement noise and the order of the workloads in a pass.
    """

    name = "validate"

    def __init__(self, small: bool = False) -> None:
        self.workloads = ("CG", "IS") if small else VALIDATE_WORKLOADS
        self.placements = 1 if small else PLACEMENTS
        self.ops_per_pass = len(self.workloads)

    def setup(self, seed: int):
        spec = machines.get("X5-2")
        noise = NoiseModel(seed=seed)
        md = generate_machine_description(spec, noise=noise)
        jobs = [
            (name, sample_canonical(spec.topology, self.placements, seed=SAMPLE_SEED + i))
            for i, name in enumerate(self.workloads)
        ]
        random.Random(seed).shuffle(jobs)
        return spec, noise, md, jobs

    def cycle(self, inputs, index: int) -> Cycle:
        spec, noise, md, jobs = inputs
        name, sample = jobs[index]
        start = perf_counter()
        workload = catalog.get(name)
        generator = WorkloadDescriptionGenerator(spec, md, noise=noise)
        description = generator.generate(workload)
        evaluation = evaluate_workload(
            spec, workload, description, PandiaPredictor(md), sample, noise=noise,
        )
        wall = perf_counter() - start
        outcomes = evaluation.outcomes
        return Cycle(
            units=len(outcomes),
            wall_s=wall,
            latencies_ms=[wall * 1e3],
            attempted=len(outcomes),
            answer=(description.name,
                    tuple((o.measured_time_s, o.predicted_time_s) for o in outcomes)),
            payload=(description, outcomes),
        )

    def check(self, inputs, cycle: Cycle) -> int:
        """``predict_batch`` over the sample equals the scalar predictions."""
        _, _, md, _ = inputs
        description, outcomes = cycle.payload
        batch = PandiaPredictor(md).predict_batch(
            description, [o.placement for o in outcomes]
        )
        return sum(
            not _close(b.predicted_time_s, o.predicted_time_s)
            for b, o in zip(batch, outcomes)
        )

    def quality(self, cycles: List[Cycle]) -> Dict[str, Tuple[float, str]]:
        """Figure-11 mean error and Section-6.1 regret over the mix."""
        evaluations = [
            EvaluationResult(description.name, "X5-2", outcomes)
            for description, outcomes in (cycle.payload for cycle in cycles)
        ]
        return {
            "pred_error_pct": (
                statistics.mean(e.errors().mean_error for e in evaluations), "%"),
            "regret_pct": (
                statistics.median(e.placement_regret_percent() for e in evaluations),
                "%"),
        }


WORKLOADS = {w.name: w for w in (Online, Advise, Validate)}
