"""Greedy rack scheduler driven by joint Pandia predictions.

Workloads are placed longest-solo-first (classic LPT order).  For each
workload the scheduler enumerates candidate placements on every
machine's *free* hardware threads — one-thread-per-core first, SMT
contexts after, at a ladder of thread counts — and scores each
candidate by re-predicting the whole machine's co-schedule with the
candidate added.  The candidate minimising the predicted rack makespan
(tie-broken by the workload's own predicted time, then by footprint)
wins.

This uses exactly what the paper says makes Pandia suited to the job:
it predicts resource consumption, so the scheduler can see that a
second memory-bound workload on a socket will halve both, while a
compute-bound neighbour is free.

The decision core is deliberately reusable: ``admit_batch`` /
``best_candidate`` operate on a
:class:`~repro.rack.occupancy.FleetOccupancy` (empty for the offline
batch problem, partially occupied for the event-driven
:mod:`repro.online` service), so the online scheduler shares this exact
logic rather than reimplementing it — a cold-start arrival batch is
scheduled identically to an offline batch, which
``tests/online/test_batch_equivalence.py`` pins down.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.core.coscheduling import (
    CoSchedulePrediction,
    CoSchedulePredictor,
    CoScheduledWorkload,
    WorkloadOutcome,
)
from repro.core.description import WorkloadDescription
from repro.core.placement import Placement
from repro.core.predictor import PandiaPredictor
from repro.errors import ReproError
from repro.io.prediction_store import fingerprint_digest, machine_digest
from repro.rack.model import Assignment, Rack, RackMachine, RackSchedule
from repro.rack.occupancy import FleetOccupancy
from repro.search.canonical import workload_fingerprint
from repro.search.engine import SearchEngine


def free_context_placement(
    machine: RackMachine, occupied: Set[int], n_threads: int
) -> Optional[Placement]:
    """*n* threads on free contexts: cores first, SMT siblings after.

    Returns ``None`` when fewer than *n* contexts are free.  Asking for
    fewer than one thread is a caller bug and raises, naming the
    machine (use :func:`candidate_thread_counts` to enumerate feasible
    counts — it returns no candidates when nothing is free).
    """
    if n_threads < 1:
        raise ReproError(
            f"machine {machine.name}: a placement needs at least one thread, "
            f"got {n_threads}"
        )
    topo = machine.spec.topology
    order: List[int] = []
    for way in range(topo.threads_per_core):
        for core in topo.cores:
            tid = core.hw_thread_ids[way]
            if tid not in occupied:
                order.append(tid)
    if len(order) < n_threads:
        return None
    return Placement(topo, tuple(order[:n_threads]))


def candidate_thread_counts(free: int) -> List[int]:
    """The ladder of thread counts the scheduler tries: powers of two
    up to the free-context count, plus the full free set.

    Degenerate inputs degrade cleanly: zero free contexts yield no
    candidates (an empty list — the machine is simply skipped) and a
    single free context yields the ``[1]`` ladder.  A negative count is
    a caller accounting bug and raises.
    """
    if free < 0:
        raise ReproError(f"free-context count cannot be negative, got {free}")
    if free == 0:
        return []
    counts = []
    n = 1
    while n < free:
        counts.append(n)
        n *= 2
    counts.append(free)
    return counts


class RackScheduler:
    """Assigns a batch of profiled workloads to a rack.

    Besides the offline :meth:`schedule` entry point, the scheduler
    exposes its decision core — :meth:`solo_estimate`,
    :meth:`best_candidate`, :meth:`admit_batch` and
    :meth:`predict_machine` — over a caller-owned
    :class:`FleetOccupancy`, so event-driven schedulers reuse the exact
    same admission logic on a partially occupied fleet.
    """

    #: Relative tolerance under which two candidate fleet makespans are
    #: considered equal in :meth:`best_candidate`.  The predictor is an
    #: analytical model; differences this small are noise, and breaking
    #: the tie on the workload's own completion time avoids starving
    #: short jobs to protect an epsilon of makespan.
    MAKESPAN_SLACK = 1e-3

    def __init__(
        self,
        rack: Rack,
        *,
        store=None,
        surrogate=None,
    ) -> None:
        self.rack = rack
        self.store = store
        # A trained repro.surrogate model (or a path to one) pre-ranks
        # the fleet's machines in solo_estimate so only the likely-best
        # machine pays the exact fixed point; the estimate returned is
        # always exact-verified.
        if isinstance(surrogate, (str, os.PathLike)):
            from repro.io.surrogate import load_surrogate

            surrogate = load_surrogate(surrogate)
        self.surrogate = surrogate
        self._joint = {
            m.name: CoSchedulePredictor(m.description) for m in rack.machines
        }
        self._solo = {
            m.name: PandiaPredictor(m.description) for m in rack.machines
        }
        # Solo estimates go through search engines: racks of identical
        # nodes and repeated schedule() calls re-ask for the same
        # (workload, shape) predictions, which the cache absorbs.  The
        # shared store (if any) carries them across sessions.
        self._solo_search = {
            name: SearchEngine(predictor, store=store)
            for name, predictor in self._solo.items()
        }
        # Store digests, built lazily: machine digests hash the model
        # content (a re-measured node invalidates its records), joint
        # workload digests are name-free so renamed arrival-stream
        # clones share records.
        self._machine_digests: Dict[str, str] = {}
        self._joint_w_digests: Dict[Tuple, str] = {}
        # The solo reference placement depends only on the machine, so
        # build it once per machine instead of once per estimate.
        self._solo_placements = {
            m.name: free_context_placement(m, set(), m.n_hw_threads // 2 or 1)
            for m in rack.machines
        }
        # Arrival streams rename one profiled description per job
        # (job names must be unique); predictions do not read the name,
        # so solo estimates are memoised on the name-free fingerprint.
        self._solo_estimates: Dict[Tuple, float] = {}

    # -- public API ------------------------------------------------------

    def schedule(
        self,
        workloads: Sequence[WorkloadDescription],
        refinement_rounds: int = 1,
    ) -> RackSchedule:
        """Place every workload; raises if one cannot fit anywhere.

        Two phases: a fair-share greedy pass (each workload's thread
        count capped at its share of the remaining rack, so early
        arrivals cannot starve later ones), then *refinement_rounds*
        passes in which each workload is removed and re-placed without
        a cap, letting it grow into space the fair shares left over.
        """
        if not workloads:
            machines = ", ".join(m.name for m in self.rack.machines)
            raise ReproError(f"no workloads to schedule on rack [{machines}]")
        names = [w.name for w in workloads]
        if len(set(names)) != len(names):
            raise ReproError(f"duplicate workload names: {names}")

        with obs.span(
            "rack.schedule",
            workloads=len(workloads),
            machines=len(self.rack.machines),
        ):
            fleet = FleetOccupancy(self.rack)
            predicted_times: Dict[str, float] = {}
            self.admit_batch(
                fleet,
                predicted_times,
                workloads,
                refinement_rounds=refinement_rounds,
                strict=True,
            )
        schedule = RackSchedule(
            rack=self.rack,
            assignments=[
                Assignment(r.workload, r.machine_name, r.placement)
                for r in fleet.residents()
            ],
            predicted_times=predicted_times,
        )
        self.flush_store()
        return schedule

    # -- the shared decision core ----------------------------------------

    def admit_batch(
        self,
        fleet: FleetOccupancy,
        predicted_times: Dict[str, float],
        workloads: Sequence[WorkloadDescription],
        refinement_rounds: int = 1,
        strict: bool = True,
    ) -> Tuple[List[Assignment], List[WorkloadDescription]]:
        """Admit a batch of workloads onto a (possibly occupied) fleet.

        LPT order, fair-share caps against the fleet's *free* contexts,
        then ``refinement_rounds`` uncapped re-placement passes over the
        batch (never over pre-existing residents).  With ``strict`` a
        workload that fits nowhere raises; otherwise it is returned in
        the skipped list and the rest of the batch proceeds.

        Returns ``(placed, skipped)`` where *placed* holds the final
        assignment of every admitted workload in batch order.
        """
        with obs.span("rack.greedy", batch=len(workloads)) as greedy_span:
            ordered = sorted(workloads, key=self.solo_estimate, reverse=True)
            remaining = fleet.total_free_contexts()
            placed: List[WorkloadDescription] = []
            skipped: List[WorkloadDescription] = []
            skipped_names: Set[str] = set()
            for i, workload in enumerate(ordered):
                cap = max(1, remaining // (len(ordered) - i))
                try:
                    assignment, predictions = self.best_candidate(
                        fleet, predicted_times, workload, max_threads=cap
                    )
                except ReproError:
                    if strict:
                        raise
                    skipped.append(workload)
                    skipped_names.add(workload.name)
                    continue
                fleet.place(workload, assignment.machine_name, assignment.placement)
                predicted_times.update(predictions)
                remaining -= assignment.placement.n_threads
                placed.append(workload)
            if greedy_span is not None:
                greedy_span.attrs["free_threads_left"] = remaining

        for round_no in range(refinement_rounds):
            with obs.span("rack.refine", round=round_no + 1):
                for workload in ordered:
                    if workload.name in skipped_names:
                        continue
                    self._replace(fleet, predicted_times, workload)

        assignments = [
            Assignment(
                w,
                fleet.resident(w.name).machine_name,
                fleet.resident(w.name).placement,
            )
            for w in workloads
            if w.name not in skipped_names
        ]
        return assignments, skipped

    def best_candidate(
        self,
        fleet: FleetOccupancy,
        predicted_times: Dict[str, float],
        workload: WorkloadDescription,
        max_threads: Optional[int] = None,
    ) -> Tuple[Assignment, Dict[str, float]]:
        """The makespan-minimising (machine, placement) for *workload*.

        Enumerates the thread-count ladder on every machine's free
        contexts and scores each candidate by re-predicting that
        machine's co-schedule with the candidate added.  Selection is
        two-phase: find the minimum predicted fleet makespan, then —
        among candidates within ``MAKESPAN_SLACK`` (0.1%) of it — pick
        the one minimising the workload's own predicted time, then
        footprint.  The slack keeps a short job from sacrificing
        itself onto a starved placement just to avoid delaying an
        already-long co-runner by an epsilon the predictor cannot
        resolve anyway.  Returns the winning assignment plus the joint
        predictions of every workload on its machine.  Raises when no
        machine can host the workload, naming it.
        """
        candidates: List[Tuple[float, float, int, Assignment, Dict[str, float]]] = []

        for machine in self.rack.machines:
            occupied = fleet.occupied(machine.name)
            free = machine.n_hw_threads - len(occupied)
            if max_threads is not None:
                free = min(free, max_threads)
            if free < 1:
                continue
            resident = fleet.co_scheduled(machine.name)
            for n in candidate_thread_counts(free):
                placement = free_context_placement(machine, occupied, n)
                if placement is None:
                    continue
                jobs = resident + [CoScheduledWorkload(workload, placement)]
                joint = self._joint_predict(machine.name, jobs)
                predictions = {
                    o.workload_name: self._remaining_in(
                        fleet, o.workload_name, o.predicted_time_s
                    )
                    for o in joint.outcomes
                }
                makespan = self._makespan_with(predicted_times, predictions)
                candidates.append(
                    (
                        makespan,
                        predictions[workload.name],
                        n,
                        Assignment(workload, machine.name, placement),
                        predictions,
                    )
                )

        if not candidates:
            raise ReproError(
                f"workload {workload.name} does not fit on any rack machine"
            )
        floor = min(c[0] for c in candidates)
        cutoff = floor * (1.0 + self.MAKESPAN_SLACK)
        _, _, _, best_assignment, best_predictions = min(
            (c for c in candidates if c[0] <= cutoff),
            key=lambda c: (c[1], c[2], c[0]),
        )
        return best_assignment, best_predictions

    def predict_machine(
        self, machine_name: str, jobs: Sequence[CoScheduledWorkload]
    ):
        """Joint prediction of an explicit co-schedule on one machine."""
        return self._joint_predict(machine_name, jobs)

    def solo_estimate(self, workload: WorkloadDescription) -> float:
        """Predicted solo time on the workload's best single machine.

        Memoised on the name-free workload fingerprint: an arrival
        stream of jobs cloned from one profiled description costs one
        evaluation, not one per job.
        """
        memo_key = workload_fingerprint(workload)[1:]
        cached = self._solo_estimates.get(memo_key)
        if cached is not None:
            return cached
        candidates = [
            machine
            for machine in self.rack.machines
            if self._solo_placements[machine.name] is not None
        ]
        if not candidates:
            raise ReproError(f"workload {workload.name} fits on no rack machine")
        if self.surrogate is not None and len(candidates) > 1:
            candidates = self._surrogate_solo_prefilter(workload, candidates)
        best = float("inf")
        for machine in candidates:
            placement = self._solo_placements[machine.name]
            engine = self._solo_search[machine.name]
            best = min(best, engine.best(workload, [placement]).predicted_time_s)
        self._solo_estimates[memo_key] = best
        return best

    def _surrogate_solo_prefilter(
        self, workload: WorkloadDescription, candidates: List[RackMachine]
    ) -> List[RackMachine]:
        """The machine the surrogate expects to host *workload* fastest.

        Each machine's solo reference placement is scored by the
        surrogate; only the leader pays the exact fixed point.  If any
        machine's features fall outside the model's confidence envelope
        the whole fleet is exact-verified instead (counted as a
        ``surrogate_fallbacks`` on its engine's stats) — the estimate a
        caller sees is exact-verified either way.
        """
        from repro.surrogate.features import PlacementFeaturizer

        scores: List[Tuple[float, int]] = []
        for i, machine in enumerate(candidates):
            placement = self._solo_placements[machine.name]
            featurizer = PlacementFeaturizer(machine.description, workload)
            X = featurizer.matrix([placement])
            engine = self._solo_search[machine.name]
            if self.surrogate.confidence(X) < 0.3:
                engine.stats.inc("surrogate_fallbacks")
                return candidates
            engine.stats.inc("surrogate_scored")
            scores.append((float(self.surrogate.rank_scores(X)[0]), i))
        # Scores are log *relative* times; the workload's t1 is the
        # same description object on every machine, so relative order
        # equals predicted-seconds order.
        best_i = min(scores)[1]
        leader = candidates[best_i]
        self._solo_search[leader.name].stats.inc("surrogate_verified")
        return [leader]

    def flush_store(self) -> None:
        """Persist pending store records (no-op without a store)."""
        if self.store is not None:
            self.store.flush()

    # -- internals -------------------------------------------------------

    def _joint_predict(
        self, machine_name: str, jobs: Sequence[CoScheduledWorkload]
    ) -> CoSchedulePrediction:
        """One machine's joint prediction, through the store when set.

        Records are keyed name-free — each job contributes its
        fingerprint digest (name stripped, so arrival-stream clones of
        one profiled description share records) plus its concrete
        thread ids — and outcomes are re-labelled with the requesting
        jobs' names on a hit.  Without a store this is exactly
        ``CoSchedulePredictor.predict``.
        """
        if self.store is None:
            return self._joint[machine_name].predict(jobs)
        m_digest = self._machine_digests.get(machine_name)
        if m_digest is None:
            m_digest = self._machine_digests[machine_name] = machine_digest(
                self.rack.machine(machine_name).description
            )
        w_digests = []
        for job in jobs:
            nameless = workload_fingerprint(job.description)[1:]
            digest = self._joint_w_digests.get(nameless)
            if digest is None:
                digest = self._joint_w_digests[nameless] = fingerprint_digest(
                    nameless
                )
            w_digests.append(digest)
        entries = sorted(
            range(len(jobs)),
            key=lambda i: (w_digests[i], jobs[i].placement.hw_thread_ids),
        )
        key = tuple(
            (w_digests[i], tuple(jobs[i].placement.hw_thread_ids))
            for i in entries
        )
        stored = self.store.get_joint(m_digest, key)
        if stored is not None:
            outcomes: List[Optional[WorkloadOutcome]] = [None] * len(jobs)
            for pos, i in enumerate(entries):
                o = stored.outcomes[pos]
                outcomes[i] = WorkloadOutcome(
                    workload_name=jobs[i].description.name,
                    amdahl=o.amdahl,
                    speedup=o.speedup,
                    predicted_time_s=o.predicted_time_s,
                    slowdowns=o.slowdowns,
                )
            return CoSchedulePrediction(
                outcomes=outcomes,
                iterations=stored.iterations,
                converged=stored.converged,
                resource_loads=stored.resource_loads,
                resource_capacities=stored.resource_capacities,
            )
        prediction = self._joint[machine_name].predict(jobs)
        self.store.put_joint(m_digest, key, prediction, entries)
        return prediction

    def _replace(
        self,
        fleet: FleetOccupancy,
        predicted_times: Dict[str, float],
        workload: WorkloadDescription,
    ) -> None:
        """Remove one workload and re-place it greedily (uncapped)."""
        old = fleet.remove(workload.name)
        del predicted_times[workload.name]
        self._repredict_machine(fleet, predicted_times, old.machine_name)
        assignment, predictions = self.best_candidate(
            fleet, predicted_times, workload
        )
        fleet.place(workload, assignment.machine_name, assignment.placement)
        predicted_times.update(predictions)

    def _repredict_machine(
        self,
        fleet: FleetOccupancy,
        predicted_times: Dict[str, float],
        machine_name: str,
    ) -> None:
        """Refresh predictions for one machine's resident workloads."""
        resident = fleet.co_scheduled(machine_name)
        if not resident:
            return
        joint = self._joint_predict(machine_name, resident)
        for outcome in joint.outcomes:
            predicted_times[outcome.workload_name] = self._remaining_in(
                fleet, outcome.workload_name, outcome.predicted_time_s
            )

    @staticmethod
    def _remaining_in(
        fleet: FleetOccupancy, name: str, predicted_total_s: float
    ) -> float:
        """A prediction in *remaining*-seconds units.

        The decision core scores candidates by comparing times across
        workloads, which is only meaningful if they share an origin: a
        resident 90% through its run competes with its remaining tail,
        not its full duration.  Residents are scaled by their done
        fraction (time-driven callers advance it before admitting);
        workloads not yet resident — batch candidates — pass through
        unscaled, so for the offline scheduler (done == 0 everywhere)
        this is the identity.
        """
        if name in fleet:
            return (1.0 - fleet.resident(name).done_fraction) * predicted_total_s
        return predicted_total_s

    @staticmethod
    def _makespan_with(
        predicted_times: Dict[str, float],
        new_predictions: Dict[str, float],
    ) -> float:
        """Predicted fleet makespan with one machine's times refreshed."""
        times = dict(predicted_times)
        times.update(new_predictions)
        return max(times.values()) if times else 0.0
