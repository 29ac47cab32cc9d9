"""Co-scheduling prediction: multiple workloads sharing one machine.

The paper closes with: "We believe Pandia's prediction of resource
consumption as well as overall workload performance will let us handle
cases with multiple workloads sharing a machine" by "looking at their
total demands" (Sections 6.3 and 8).  This module implements that
extension: the Section-5 iterative predictor generalised to several
workloads at once.

Each workload keeps its own Amdahl speedup, utilisation baseline,
communication structure (intra-workload only) and load-balance coupling
(intra-workload only); what they share is the machine — all threads'
utilisation-scaled demands are summed on each resource, and a core
hosting threads of *different* workloads still switches to its measured
SMT aggregate capacity and incurs each workload's burstiness penalty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.amdahl import amdahl_speedup
from repro.core.description import WorkloadDescription
from repro.core.machine_desc import MachineDescription
from repro.core.placement import Placement
from repro.core.predictor import DAMPEN_AFTER, ResourceKey
from repro.errors import PlacementError, PredictionError
from repro.numa import dram_shares


@dataclass(frozen=True)
class CoScheduledWorkload:
    """One workload and the placement it is pinned to."""

    description: WorkloadDescription
    placement: Placement


@dataclass
class WorkloadOutcome:
    """Per-workload prediction within a co-schedule."""

    workload_name: str
    amdahl: float
    speedup: float
    predicted_time_s: float
    slowdowns: Tuple[float, ...]

    @property
    def relative_time(self) -> float:
        return 1.0 / self.speedup


@dataclass
class CoSchedulePrediction:
    """Joint prediction for a set of co-scheduled workloads."""

    outcomes: List[WorkloadOutcome]
    iterations: int
    converged: bool
    resource_loads: Dict[ResourceKey, float]
    resource_capacities: Dict[ResourceKey, float]

    def outcome_for(self, workload_name: str) -> WorkloadOutcome:
        for outcome in self.outcomes:
            if outcome.workload_name == workload_name:
                return outcome
        raise PredictionError(f"no outcome for workload {workload_name!r}")


class _JointThread:
    """Static per-thread state across the joint iteration."""

    __slots__ = ("job", "socket", "shared_core", "row")

    def __init__(self, job: int, socket: int, shared_core: bool, row: list) -> None:
        self.job = job
        self.socket = socket
        self.shared_core = shared_core
        self.row = row  # [(resource_key, demand_per_unit_utilisation)]


def _build_joint_threads(
    md: MachineDescription, jobs: Sequence[CoScheduledWorkload]
) -> Tuple[List[_JointThread], Dict[ResourceKey, float]]:
    topo = md.topology
    used: Dict[int, Tuple[int, int]] = {}
    per_core: Dict[int, int] = {}
    for j, job in enumerate(jobs):
        if job.placement.topology.shape() != topo.shape():
            raise PlacementError(
                f"workload {job.description.name} placed on a different machine shape"
            )
        for i, tid in enumerate(job.placement.hw_thread_ids):
            if tid in used:
                other = used[tid]
                raise PlacementError(
                    f"hardware thread {tid} claimed by workloads "
                    f"{jobs[other[0]].description.name} and {job.description.name}"
                )
            used[tid] = (j, i)
            core = topo.hw_thread(tid).core_id
            per_core[core] = per_core.get(core, 0) + 1

    capacities: Dict[ResourceKey, float] = {}
    threads: List[_JointThread] = []
    for j, job in enumerate(jobs):
        demands = job.description.demands
        active = job.placement.active_sockets()
        for tid in job.placement.hw_thread_ids:
            hw = topo.hw_thread(tid)
            row: list = []
            core_key: ResourceKey = ("core", hw.core_id)
            capacities[core_key] = md.core_capacity(per_core[hw.core_id])
            row.append((core_key, demands.inst_rate))
            for level, bw in demands.cache_bw.items():
                if bw <= 0 or level not in md.cache_link_bw:
                    continue
                link_key: ResourceKey = ("cache_link", (level, hw.core_id))
                capacities[link_key] = md.cache_link_bw[level]
                row.append((link_key, bw))
                agg = md.cache_agg_bw.get(level)
                if agg:
                    agg_key: ResourceKey = ("cache_agg", (level, hw.socket_id))
                    capacities[agg_key] = agg
                    row.append((agg_key, bw))
            if demands.dram_bw > 0:
                shares = dram_shares(
                    demands.numa_local_fraction, hw.socket_id, active
                )
                for node, share in shares.items():
                    traffic = demands.dram_bw * share
                    node_key: ResourceKey = ("dram", node)
                    capacities[node_key] = md.dram_bw_per_node
                    row.append((node_key, traffic))
                    if node != hw.socket_id:
                        link_key = ("link", topo.link_between(hw.socket_id, node))
                        capacities[link_key] = md.interconnect_bw
                        row.append((link_key, traffic))
            if demands.io_bw > 0 and md.nic_bw > 0:
                nic_key: ResourceKey = ("nic", 0)
                capacities[nic_key] = md.nic_bw
                row.append((nic_key, demands.io_bw))
            threads.append(
                _JointThread(
                    job=j,
                    socket=hw.socket_id,
                    shared_core=per_core[hw.core_id] > 1,
                    row=row,
                )
            )
    return threads, capacities


class CoSchedulePredictor:
    """Joint performance predictor for workloads sharing a machine."""

    def __init__(
        self,
        machine_description: MachineDescription,
        max_iterations: int = 500,
        tolerance: float = 1e-6,
    ) -> None:
        self.md = machine_description
        self.max_iterations = max_iterations
        self.tolerance = tolerance

    def predict(self, jobs: Sequence[CoScheduledWorkload]) -> CoSchedulePrediction:
        """Jointly predict every job's time on the shared machine.

        Traced as one ``predictor.joint`` span with a
        ``predictor.joint.iterations`` histogram; the untraced path pays
        one ``obs.enabled()`` check per call.
        """
        if not obs.enabled():
            return self._predict(jobs)
        tracer = obs.tracer()
        span = tracer.start(
            "predictor.joint",
            attrs={
                "jobs": len(jobs),
                "threads": sum(job.placement.n_threads for job in jobs),
            },
        )
        try:
            prediction = self._predict(jobs)
            span.attrs["iterations"] = prediction.iterations
            span.attrs["converged"] = prediction.converged
            obs.metrics().histogram("predictor.joint.iterations").observe(
                prediction.iterations
            )
            return prediction
        finally:
            tracer.end(span)

    def _predict(self, jobs: Sequence[CoScheduledWorkload]) -> CoSchedulePrediction:
        if not jobs:
            raise PredictionError("no workloads to co-schedule")
        threads, capacities = _build_joint_threads(self.md, jobs)
        n_total = len(threads)
        job_threads: List[List[int]] = [[] for _ in jobs]
        for pos, t in enumerate(threads):
            job_threads[t.job].append(pos)

        amdahls = [
            amdahl_speedup(job.description.parallel_fraction, job.placement.n_threads)
            for job in jobs
        ]
        f_initial = [
            amdahls[j] / jobs[j].placement.n_threads for j in range(len(jobs))
        ]
        f_start = [f_initial[t.job] for t in threads]

        prev: Optional[List[float]] = None
        cap: Optional[float] = None
        converged = False
        iterations = 0
        overall: List[float] = [1.0] * n_total

        for iteration in range(1, self.max_iterations + 1):
            iterations = iteration
            resource_s = self._resource_slowdowns(threads, capacities, f_start, jobs)
            overall = list(resource_s)
            f_cur = [f_initial[t.job] / s for t, s in zip(threads, overall)]

            # Intra-workload communication penalties.
            for j, job in enumerate(jobs):
                os_ = job.description.inter_socket_overhead
                if os_ <= 0 or len(job_threads[j]) < 2:
                    continue
                positions = job_threads[j]
                n_j = len(positions)
                work = [1.0 / overall[p] for p in positions]
                total = sum(work)
                weights = [w / total for w in work]
                l = job.description.load_balance
                for a, pos in enumerate(positions):
                    lock = sum(
                        os_
                        for b, q in enumerate(positions)
                        if b != a and threads[q].socket != threads[pos].socket
                    )
                    indep = n_j * sum(
                        weights[b] * os_
                        for b, q in enumerate(positions)
                        if b != a and threads[q].socket != threads[pos].socket
                    )
                    comm = l * indep + (1.0 - l) * lock
                    overall[pos] += comm * f_cur[pos]
                f_cur = [f_initial[t.job] / s for t, s in zip(threads, overall)]

            # Intra-workload load-balance penalties.
            for j, job in enumerate(jobs):
                positions = job_threads[j]
                l = job.description.load_balance
                worst = max(overall[p] for p in positions)
                for pos in positions:
                    overall[pos] = l * overall[pos] + (1.0 - l) * worst

            if cap is None:
                cap = max(overall)
            overall = [min(max(s, 1.0), cap) for s in overall]

            if prev is not None:
                delta = max(abs(a - b) for a, b in zip(overall, prev))
                if delta < self.tolerance:
                    converged = True
                    break
            prev = list(overall)

            ratios = [
                min(r / s, 1.0) for r, s in zip(resource_s, overall)
            ]
            f_next = [
                f_initial[t.job] * ratio for t, ratio in zip(threads, ratios)
            ]
            if iteration > DAMPEN_AFTER:
                f_next = [0.5 * (a + b) for a, b in zip(f_start, f_next)]
            f_start = f_next

        outcomes = []
        for j, job in enumerate(jobs):
            slowdowns = tuple(overall[p] for p in job_threads[j])
            mean_inverse = sum(1.0 / s for s in slowdowns) / len(slowdowns)
            speedup = amdahls[j] * mean_inverse
            outcomes.append(
                WorkloadOutcome(
                    workload_name=job.description.name,
                    amdahl=amdahls[j],
                    speedup=speedup,
                    predicted_time_s=job.description.t1 / speedup,
                    slowdowns=slowdowns,
                )
            )

        final_f = [f_initial[t.job] / s for t, s in zip(threads, overall)]
        loads: Dict[ResourceKey, float] = {key: 0.0 for key in capacities}
        for t, f in zip(threads, final_f):
            for key, demand in t.row:
                loads[key] += demand * f
        return CoSchedulePrediction(
            outcomes=outcomes,
            iterations=iterations,
            converged=converged,
            resource_loads=loads,
            resource_capacities=capacities,
        )

    def _resource_slowdowns(
        self,
        threads: Sequence[_JointThread],
        capacities: Dict[ResourceKey, float],
        f_start: Sequence[float],
        jobs: Sequence[CoScheduledWorkload],
    ) -> List[float]:
        loads: Dict[ResourceKey, float] = {key: 0.0 for key in capacities}
        for t, f in zip(threads, f_start):
            for key, demand in t.row:
                loads[key] += demand * f
        out: List[float] = []
        for t, f in zip(threads, f_start):
            worst = 1.0
            for key, _ in t.row:
                ratio = loads[key] / capacities[key]
                if ratio > worst:
                    worst = ratio
            b = jobs[t.job].description.burstiness
            if t.shared_core and b > 0:
                worst *= 1.0 + b * f
            out.append(worst)
        return out
