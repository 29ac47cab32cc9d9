"""The Pandia performance predictor (paper Section 5).

Given a machine description, a workload description and a proposed
thread placement, predict the workload's performance.  The prediction
combines an Amdahl's-law speedup with per-thread slowdowns computed by
iterating three penalty calculations until stable (Figure 8):

1. **resource contention** — each thread is slowed by the largest
   oversubscription among the resources it touches, plus a burstiness
   penalty when it shares a core (Section 5.1);
2. **inter-socket communication** — the measured per-remote-peer
   overhead, interpolated between lock-step and work-weighted extremes
   by the load-balance factor (Section 5.2);
3. **load balancing** — threads are dragged toward the slowest thread
   to the degree the workload cannot rebalance (Section 5.3).

Thread-utilisation factors scale every demand ("a thread busy 50% of
the time demands 50% less") and carry information between iterations
(Section 5.4).  The worked example of Figures 7 and 9 is reproduced
number-for-number by the test suite.

Two evaluation paths share the model:

* :meth:`PandiaPredictor.predict` — one placement at a time, kept as
  the golden scalar reference;
* :meth:`PandiaPredictor.predict_batch` — the same fixed point run as
  masked NumPy operations over a whole placement population at once,
  with converged placements dropping out of further iterations.  The
  batch path must match the scalar path within 1e-12 on every field
  (``tests/core/test_predictor_batch.py``,
  ``tests/search/test_golden_equivalence.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.amdahl import amdahl_speedup
from repro.core.description import DemandVector, WorkloadDescription
from repro.core.machine_desc import MachineDescription
from repro.core.placement import Placement
from repro.errors import PredictionError
from repro.numa import dram_shares
from repro.obs.records import ConvergenceRecord
from repro.units import near_zero

ResourceKey = Tuple[str, Hashable]

#: Histogram bucket bounds for convergence residual magnitudes
#: (log decades spanning tolerance scales to first-iteration jumps).
RESIDUAL_BUCKETS = tuple(10.0 ** e for e in range(-9, 3))
#: Histogram bucket bounds for the batch kernel's per-iteration
#: active-set size (powers of two up to the chunk bound).
ALIVE_BUCKETS = tuple(2 ** e for e in range(0, 10))

#: Iteration count after which the dampening function engages
#: (Section 5.4: "To prevent oscillation a dampening function engages
#: after a 100 iterations").
DAMPEN_AFTER = 100

#: Placements evaluated per stacked population chunk in
#: :meth:`PandiaPredictor.predict_batch` — bounds the padded arrays to
#: a few tens of megabytes on the largest catalog machine.
BATCH_CHUNK = 512

#: Per-thread vector columns recorded for each scalar iteration, in
#: Figure 7 order.  These remain readable as attributes on
#: :class:`IterationTrace` for backwards compatibility.
_TRACE_VECTORS = (
    "resource_slowdown",  # after the burstiness penalty
    "comm_penalty",
    "balance_penalty",
    "overall_slowdown",
    "start_utilisation",
    "end_utilisation",
)


class IterationTrace(ConvergenceRecord):
    """Intermediate values of one predictor iteration (Figure 7 rows).

    An :class:`repro.obs.records.ConvergenceRecord` whose ``vectors``
    hold the six per-thread columns; the historical column attributes
    (``trace.overall_slowdown`` etc.) are thin aliases into ``vectors``
    kept for existing callers — new code should read
    ``record.vectors[...]`` or the scalar telemetry fields
    (``iteration``, ``max_residual``).
    """

    def __init__(
        self,
        iteration: int = 0,
        max_residual: float = math.inf,
        alive: int = 1,
        compacted: int = 0,
        vectors: Optional[Dict[str, Tuple[float, ...]]] = None,
        **columns: Sequence[float],
    ) -> None:
        merged: Dict[str, Tuple[float, ...]] = dict(vectors) if vectors else {}
        for name, values in columns.items():
            if name not in _TRACE_VECTORS:
                raise TypeError(f"unknown trace column {name!r}")
            merged[name] = tuple(values)
        super().__init__(
            iteration=iteration,
            max_residual=max_residual,
            alive=alive,
            compacted=compacted,
            vectors=merged,
        )

    def __getattr__(self, name: str):
        # Only reached for names not set in __init__: resolve the six
        # legacy column aliases out of .vectors, fail for the rest.
        if name in _TRACE_VECTORS:
            try:
                return self.__dict__["vectors"][name]
            except KeyError:
                pass
        raise AttributeError(name)


@dataclass
class Prediction:
    """Pandia's output for one (workload, machine, placement) triple."""

    workload_name: str
    machine_name: str
    placement: Placement
    amdahl: float
    speedup: float
    predicted_time_s: float
    slowdowns: Tuple[float, ...]
    utilisations: Tuple[float, ...]
    iterations: int
    converged: bool
    trace: List[IterationTrace] = field(default_factory=list)
    #: Predicted aggregate demand on each resource at convergence,
    #: alongside its capacity — Pandia "provides predictions of
    #: resource consumption as well as predictions of performance"
    #: (Section 6.3); this is what co-scheduling builds on.
    resource_loads: Dict[ResourceKey, float] = field(default_factory=dict)
    resource_capacities: Dict[ResourceKey, float] = field(default_factory=dict)

    def resource_utilisation(self) -> Dict[ResourceKey, float]:
        """Predicted load/capacity ratio per resource."""
        ratios: Dict[ResourceKey, float] = {}
        for key in self.resource_loads:
            capacity = self.resource_capacities.get(key, 0.0)
            if near_zero(capacity):
                raise PredictionError(
                    f"resource {key!r} has zero capacity; "
                    "cannot compute its utilisation"
                )
            ratios[key] = self.resource_loads[key] / capacity
        return ratios

    def bottleneck(self) -> Optional[ResourceKey]:
        """The most-utilised resource, or ``None`` if nothing is loaded."""
        ratios = self.resource_utilisation()
        if not ratios:
            return None
        return max(ratios, key=ratios.get)

    @property
    def convergence(self) -> List[IterationTrace]:
        """The per-iteration convergence records (alias of ``trace``,
        which is kept under its historical name)."""
        return self.trace

    @property
    def n_threads(self) -> int:
        return self.placement.n_threads

    @property
    def relative_time(self) -> float:
        """Predicted time relative to the single-thread run (r = 1/speedup)."""
        return 1.0 / self.speedup


def _demand_key(demands: DemandVector) -> Tuple[Hashable, ...]:
    """Hashable identity of every demand field the template reads."""
    return (
        demands.inst_rate,
        tuple(sorted(demands.cache_bw.items())),
        demands.dram_bw,
        demands.numa_local_fraction,
        demands.io_bw,
    )


class _DemandTemplate:
    """Per-(machine, workload) resource recipe.

    Everything about the demand rows that does *not* depend on the
    placement: which cache levels are actually demanded and measurable,
    and the capacity of each resource class.  Building this once per
    (machine, workload) — the predictor memoises it by demand-vector
    fingerprint — lets repeated searches skip re-deriving the capacity
    dictionaries for every placement.
    """

    __slots__ = (
        "inst_rate",
        "levels",
        "has_dram",
        "dram_bw",
        "local_fraction",
        "dram_cap",
        "interconnect_cap",
        "has_io",
        "io_bw",
        "nic_cap",
        "core_rate",
        "core_rate_smt",
        "n_cores",
        "n_sockets",
        "core_map",
        "socket_map",
        "key_core",
        "key_link",
        "key_agg",
        "key_dram",
        "key_pair",
        "agg_levels",
        "core_bundles",
        "sock_bundles",
        "sock_caps",
    )

    def __init__(self, md: MachineDescription, demands: DemandVector) -> None:
        self.inst_rate = demands.inst_rate
        #: (level, demand bw, per-core link capacity, aggregate capacity
        #: or None) for every level the workload demands and the machine
        #: measures — the same filter the per-thread rows applied.
        self.levels: Tuple[Tuple[str, float, float, Optional[float]], ...] = tuple(
            (level, bw, md.cache_link_bw[level], md.cache_agg_bw.get(level) or None)
            for level, bw in demands.cache_bw.items()
            if bw > 0 and level in md.cache_link_bw
        )
        self.has_dram = demands.dram_bw > 0
        self.dram_bw = demands.dram_bw
        self.local_fraction = demands.numa_local_fraction
        self.dram_cap = md.dram_bw_per_node
        self.interconnect_cap = md.interconnect_bw
        self.has_io = demands.io_bw > 0 and md.nic_bw > 0
        self.io_bw = demands.io_bw
        self.nic_cap = md.nic_bw
        self.core_rate = md.core_rate
        self.core_rate_smt = md.core_rate_smt

        # Topology lookups and pre-allocated resource keys, so building
        # one placement's demand rows never re-creates key tuples.
        topo = md.topology
        self.n_cores = topo.n_cores
        self.n_sockets = topo.n_sockets
        self.core_map = np.array(
            [topo.hw_thread(t).core_id for t in range(topo.n_hw_threads)],
            dtype=np.intp,
        )
        self.socket_map = np.array(
            [topo.hw_thread(t).socket_id for t in range(topo.n_hw_threads)],
            dtype=np.intp,
        )
        self.key_core: Tuple[ResourceKey, ...] = tuple(
            ("core", c) for c in range(self.n_cores)
        )
        self.key_link: Tuple[Tuple[ResourceKey, ...], ...] = tuple(
            tuple(("cache_link", (level, c)) for c in range(self.n_cores))
            for level, _bw, _link, _agg in self.levels
        )
        self.key_agg: Tuple[Tuple[ResourceKey, ...], ...] = tuple(
            tuple(("cache_agg", (level, s)) for s in range(self.n_sockets))
            for level, _bw, _link, _agg in self.levels
        )
        self.key_dram: Tuple[ResourceKey, ...] = tuple(
            ("dram", s) for s in range(self.n_sockets)
        )
        self.key_pair: Dict[Tuple[int, int], ResourceKey] = {
            pair: ("link", pair) for pair in topo.interconnect_links()
        }
        # Core-major / socket-major key bundles: all the keys one
        # occupied core (or active socket) contributes, pre-concatenated
        # so batch predictions assemble key lists with one chain() pass.
        # Dict equality is order-insensitive, so the batch path may
        # insert keys core-major while the scalar path goes class-major.
        n_levels = len(self.levels)
        self.core_bundles: Tuple[Tuple[ResourceKey, ...], ...] = tuple(
            (self.key_core[c],)
            + tuple(self.key_link[i][c] for i in range(n_levels))
            for c in range(self.n_cores)
        )
        self.agg_levels: Tuple[int, ...] = tuple(
            i for i, (_lv, _bw, _cap, agg) in enumerate(self.levels) if agg
        )
        self.sock_bundles: Tuple[Tuple[ResourceKey, ...], ...] = tuple(
            tuple(self.key_agg[i][s] for i in self.agg_levels)
            + ((self.key_dram[s],) if self.has_dram else ())
            for s in range(self.n_sockets)
        )
        self.sock_caps: Tuple[float, ...] = tuple(
            self.levels[i][3] for i in self.agg_levels
        ) + ((self.dram_cap,) if self.has_dram else ())


class _ThreadDemands:
    """Per-thread demand rows against the measured resource capacities.

    The dense demand matrix is assembled column-kind by column-kind with
    vectorised scatters (cores first, then cache links/aggregates, DRAM
    nodes, interconnect links, NIC) instead of one Python loop per
    thread; each matrix cell receives the same single contribution as
    the row-by-row build did, so the coefficients are bit-identical.
    """

    def __init__(
        self,
        md: MachineDescription,
        wd: WorkloadDescription,
        placement: Placement,
        template: Optional[_DemandTemplate] = None,
    ) -> None:
        t = template if template is not None else _DemandTemplate(md, wd.demands)
        ids = np.asarray(placement.hw_thread_ids, dtype=np.intp)
        core_ids = t.core_map[ids]
        socket_ids = t.socket_map[ids]
        n = ids.shape[0]

        core_counts = np.bincount(core_ids, minlength=t.n_cores)
        occupied = np.flatnonzero(core_counts)
        n_occ = occupied.size
        sock_counts = np.bincount(socket_ids, minlength=t.n_sockets)
        active_arr = np.flatnonzero(sock_counts)
        active = tuple(int(s) for s in active_arr)
        n_act = active_arr.size

        core_lut = np.zeros(t.n_cores, dtype=np.intp)
        core_lut[occupied] = np.arange(n_occ)
        cs = core_lut[core_ids]  # per-thread occupied-core slot
        sock_lut = np.zeros(t.n_sockets, dtype=np.intp)
        sock_lut[active_arr] = np.arange(n_act)
        ss = sock_lut[socket_ids]  # per-thread active-socket slot

        # Column layout: core columns first (so a thread's core column
        # index is also its occupied-core slot — the batch kernel relies
        # on this), then per level its link and aggregate columns, then
        # DRAM nodes, interconnect links and the NIC.
        occ_list = occupied.tolist()
        keys: List[ResourceKey] = [t.key_core[c] for c in occ_list]
        cap_blocks: List[np.ndarray] = [
            np.where(core_counts[occupied] > 1, t.core_rate_smt, t.core_rate)
        ]
        col = n_occ
        level_offsets: List[Tuple[int, Optional[int]]] = []
        for i, (_level, _bw, link_cap, agg_cap) in enumerate(t.levels):
            keys += [t.key_link[i][c] for c in occ_list]
            cap_blocks.append(np.full(n_occ, link_cap))
            link_off = col
            col += n_occ
            agg_off = None
            if agg_cap:
                keys += [t.key_agg[i][s] for s in active]
                cap_blocks.append(np.full(n_act, agg_cap))
                agg_off = col
                col += n_act
            level_offsets.append((link_off, agg_off))

        share_matrix = np.zeros((t.n_sockets, t.n_sockets))
        dram_off = None
        pair_list: List[Tuple[int, int]] = []
        pair_off = None
        if t.has_dram:
            shares = {s: dram_shares(t.local_fraction, s, active) for s in active}
            for s in active:
                for node, share in shares[s].items():
                    share_matrix[s, node] = share
            keys += [t.key_dram[s] for s in active]
            cap_blocks.append(np.full(n_act, t.dram_cap))
            dram_off = col
            col += n_act
            pair_list = [
                (active[i], active[j])
                for i in range(n_act)
                for j in range(i + 1, n_act)
            ]
            if pair_list:
                keys += [t.key_pair[p] for p in pair_list]
                cap_blocks.append(np.full(len(pair_list), t.interconnect_cap))
                pair_off = col
                col += len(pair_list)
        nic_off = None
        if t.has_io:
            keys.append(("nic", 0))
            cap_blocks.append(np.array([t.nic_cap]))
            nic_off = col
            col += 1

        coeffs = np.zeros((n, col))
        rows = np.arange(n)
        coeffs[rows, cs] = t.inst_rate
        for (_level, bw, _link_cap, _agg_cap), (link_off, agg_off) in zip(
            t.levels, level_offsets
        ):
            coeffs[rows, link_off + cs] = bw
            if agg_off is not None:
                coeffs[rows, agg_off + ss] = bw
        if t.has_dram:
            share_sub = share_matrix[np.ix_(active_arr, active_arr)]
            coeffs[:, dram_off : dram_off + n_act] = t.dram_bw * share_sub[ss]
            if pair_list:
                # Both directions load the same interconnect link; a
                # thread contributes its share toward the far socket.
                pair_vals = np.zeros((n_act, len(pair_list)))
                for j, (s, u) in enumerate(pair_list):
                    pair_vals[sock_lut[s], j] = t.dram_bw * share_matrix[s, u]
                    pair_vals[sock_lut[u], j] = t.dram_bw * share_matrix[u, s]
                coeffs[:, pair_off : pair_off + len(pair_list)] = pair_vals[ss]
        if nic_off is not None:
            coeffs[:, nic_off] = t.io_bw

        caps = np.concatenate(cap_blocks) if cap_blocks else np.zeros(0)
        self.capacities: Dict[ResourceKey, float] = dict(zip(keys, caps.tolist()))
        self._keys = keys
        self._caps = caps
        self._coeffs = coeffs
        self._used = coeffs > 0
        #: Public mask of threads sharing their core with another thread
        #: (Section 5.1's burstiness penalty); used by both the scalar
        #: and batch kernels.
        self.shared_core_mask = core_counts[core_ids] > 1
        self.socket_ids = socket_ids
        self.sock_counts = sock_counts
        self.core_cols = cs
        self.n_occupied_cores = n_occ
        self.active_sockets = active
        self.share_matrix = share_matrix

    def loads_array(self, utilisation: np.ndarray) -> np.ndarray:
        """Aggregate demand per resource (column order of ``keys``)."""
        return utilisation @ self._coeffs

    def loads(self, utilisation: Sequence[float]) -> Dict[ResourceKey, float]:
        """Aggregate demand on each resource, scaled by utilisation."""
        values = self.loads_array(np.asarray(utilisation, dtype=float))
        return dict(zip(self._keys, values.tolist()))

    def resource_slowdowns_array(self, utilisation: np.ndarray) -> np.ndarray:
        """Per-thread max oversubscription among its resources (>= 1)."""
        ratio = self.loads_array(utilisation) / self._caps
        worst = np.where(self._used, ratio[np.newaxis, :], 0.0).max(axis=1)
        return np.maximum(worst, 1.0)

    def resource_slowdowns(self, utilisation: Sequence[float]) -> List[float]:
        """List form of :meth:`resource_slowdowns_array`."""
        return [
            float(s)
            for s in self.resource_slowdowns_array(
                np.asarray(utilisation, dtype=float)
            )
        ]


class PandiaPredictor:
    """Performance predictor bound to one machine description."""

    def __init__(
        self,
        machine_description: MachineDescription,
        max_iterations: int = 500,
        tolerance: float = 1e-6,
    ) -> None:
        if max_iterations < 1:
            raise PredictionError(
                f"predictor for {machine_description.machine_name!r} needs "
                f"at least one iteration, got max_iterations={max_iterations}"
            )
        self.md = machine_description
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self._templates: Dict[Tuple[Hashable, ...], _DemandTemplate] = {}
        self._share_cache: Dict[Tuple[float, Tuple[int, ...]], np.ndarray] = {}

    # -- public API ------------------------------------------------------

    def predict(
        self,
        workload: WorkloadDescription,
        placement: Placement,
        keep_trace: bool = False,
    ) -> Prediction:
        """Predict the performance of *workload* under *placement*."""
        n = placement.n_threads
        p = workload.parallel_fraction
        amdahl = amdahl_speedup(p, n)
        f_initial = amdahl / n

        demands = self._thread_demands(workload, placement)
        lock_comm, remote_mask = self._communication_terms(workload, demands, n)

        f_start = np.full(n, f_initial)
        prev_overall: Optional[np.ndarray] = None
        slowdown_cap: Optional[float] = None
        trace: List[IterationTrace] = []
        converged = False
        iterations = 0

        # Telemetry is a single hoisted branch: the disabled path pays
        # one bool per call and nothing per iteration.
        obs_on = obs.enabled()
        if obs_on:
            _tracer = obs.tracer()
            _m = obs.metrics()
            res_hist = _m.histogram("predictor.residual", RESIDUAL_BUCKETS)
            _m.counter("predictor.predictions").inc()
            pspan = _tracer.start(
                "predictor.predict",
                attrs={
                    "workload": workload.name,
                    "machine": self.md.machine_name,
                    "threads": n,
                },
            )

        try:
            for iteration in range(1, self.max_iterations + 1):
                iterations = iteration
                resource, comm, balance, overall = self._one_iteration(
                    workload, demands, f_initial, f_start, lock_comm, remote_mask, n
                )

                # Bound all values between no slowdown and the maximum seen
                # on the first iteration (Section 5.4).
                if slowdown_cap is None:
                    slowdown_cap = float(overall.max())
                overall = np.clip(overall, 1.0, slowdown_cap)

                delta = math.inf
                if prev_overall is not None:
                    delta = float(np.max(np.abs(overall - prev_overall)))

                if keep_trace:
                    trace.append(
                        IterationTrace(
                            iteration=iteration,
                            max_residual=delta,
                            resource_slowdown=tuple(float(v) for v in resource),
                            comm_penalty=tuple(float(v) for v in comm),
                            balance_penalty=tuple(float(v) for v in balance),
                            overall_slowdown=tuple(float(v) for v in overall),
                            start_utilisation=tuple(float(v) for v in f_start),
                            end_utilisation=tuple(
                                float(v) for v in f_initial / overall
                            ),
                        )
                    )
                if obs_on and math.isfinite(delta):
                    res_hist.observe(delta)

                if delta < self.tolerance:
                    converged = True
                    prev_overall = overall
                    break
                prev_overall = overall

                # Feed the penalty ratio into the next iteration's starting
                # utilisation (Section 5.4).
                f_next = f_initial * np.minimum(resource / overall, 1.0)
                if iteration > DAMPEN_AFTER:
                    f_next = 0.5 * (f_start + f_next)
                f_start = f_next
        finally:
            if obs_on:
                _m.histogram("predictor.iterations").observe(iterations)
                pspan.attrs["iterations"] = iterations
                pspan.attrs["converged"] = converged
                _tracer.end(pspan)

        assert prev_overall is not None
        slowdowns = prev_overall
        speedup = amdahl * float(np.mean(1.0 / slowdowns))
        final_utilisation = f_initial / slowdowns
        loads = demands.loads(final_utilisation)
        return Prediction(
            workload_name=workload.name,
            machine_name=self.md.machine_name,
            placement=placement,
            amdahl=amdahl,
            speedup=speedup,
            predicted_time_s=workload.t1 / speedup,
            slowdowns=tuple(float(s) for s in slowdowns),
            utilisations=tuple(float(f) for f in final_utilisation),
            iterations=iterations,
            converged=converged,
            trace=trace,
            resource_loads=loads,
            resource_capacities=dict(demands.capacities),
        )

    def predict_batch(
        self,
        workload: WorkloadDescription,
        placements: Sequence[Placement],
    ) -> List[Prediction]:
        """Predict every placement in one vectorised fixed point.

        The whole population's demand state is stacked into padded
        arrays (threads padded to the chunk's maximum count with a
        validity mask) and Figure 8's three penalty steps run as masked
        NumPy operations over all placements at once.  Placements whose
        slowdowns stabilise drop out of further iterations (active-set
        convergence) while stragglers continue; the per-placement
        slowdown cap and dampening semantics match :meth:`predict`
        exactly, so results agree with the scalar path within 1e-12.

        Per-placement traces are not recorded — use :meth:`predict`
        with ``keep_trace=True`` to inspect a single placement's
        iterations.  With :mod:`repro.obs` enabled the kernel instead
        emits population-level convergence telemetry: a
        ``predictor.predict_batch`` span per chunk, a
        ``predictor.iteration`` span per fixed-point iteration (active
        rows, max residual, rows compacted), and the
        ``predictor.iterations`` / ``predictor.residual`` /
        ``predictor.batch.alive_rows`` histograms.
        """
        placements = list(placements)
        results: List[Prediction] = []
        for start in range(0, len(placements), BATCH_CHUNK):
            results.extend(
                self._predict_batch_chunk(
                    workload, placements[start : start + BATCH_CHUNK]
                )
            )
        return results

    def predict_time(self, workload: WorkloadDescription, placement: Placement) -> float:
        """Convenience: predicted absolute execution time in seconds."""
        return self.predict(workload, placement).predicted_time_s

    # -- internals ---------------------------------------------------------

    def _thread_demands(
        self, workload: WorkloadDescription, placement: Placement
    ) -> _ThreadDemands:
        """Demand rows for one placement, via the template cache."""
        return _ThreadDemands(
            self.md, workload, placement, template=self._demand_template(workload)
        )

    def _demand_template(self, workload: WorkloadDescription) -> _DemandTemplate:
        key = _demand_key(workload.demands)
        template = self._templates.get(key)
        if template is None:
            template = self._templates[key] = _DemandTemplate(
                self.md, workload.demands
            )
        return template

    @staticmethod
    def _communication_terms(
        workload: WorkloadDescription, demands: _ThreadDemands, n: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Lock-step comm costs and the thread-pair remoteness matrix."""
        os_ = workload.inter_socket_overhead
        sockets = np.array(demands.socket_ids)
        remote = sockets[:, np.newaxis] != sockets[np.newaxis, :]
        np.fill_diagonal(remote, False)
        lock = os_ * remote.sum(axis=1).astype(float) if os_ > 0 else np.zeros(n)
        return lock, remote

    def _one_iteration(
        self,
        workload: WorkloadDescription,
        demands: _ThreadDemands,
        f_initial: float,
        f_start: np.ndarray,
        lock_comm: np.ndarray,
        remote_mask: np.ndarray,
        n: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        b = workload.burstiness
        l = workload.load_balance
        os_ = workload.inter_socket_overhead

        # Step 1: slowdown from resource contention (Section 5.1),
        # plus the burstiness penalty for threads sharing a core.
        base = demands.resource_slowdowns_array(f_start)
        resource = np.where(
            demands.shared_core_mask, base * (1.0 + b * f_start), base
        )
        f_cur = f_initial / resource

        # Step 2: penalties for off-socket communication (Section 5.2).
        comm = np.zeros(n)
        overall = resource.copy()
        if os_ > 0 and lock_comm.any():
            work = 1.0 / resource
            weights = work / work.sum()
            independent = n * os_ * (remote_mask @ weights)
            comm_slowdown = l * independent + (1.0 - l) * lock_comm
            comm = comm_slowdown * f_cur
            overall = resource + comm
            f_cur = f_initial / overall

        # Step 3: penalties for poor load balancing (Section 5.3).
        worst = overall.max()
        target = l * overall + (1.0 - l) * worst
        balance = target - overall
        return resource, comm, balance, target

    # -- batch kernel ------------------------------------------------------


    def _share_matrix(
        self, template: _DemandTemplate, active: Tuple[int, ...]
    ) -> np.ndarray:
        """DRAM share matrix for one active-socket set, memoised.

        ``mat[s, d]`` is the fraction of a socket-``s`` thread's DRAM
        traffic that lands on node ``d`` — `lambda` to its own node, the
        remainder interleaved over the placement's active sockets.  Only
        a handful of active sets exist per machine, so every placement
        in a population reuses these.
        """
        key = (template.local_fraction, active)
        mat = self._share_cache.get(key)
        if mat is None:
            mat = np.zeros((template.n_sockets, template.n_sockets))
            for s in active:
                for node, fraction in dram_shares(
                    template.local_fraction, s, active
                ).items():
                    mat[s, node] = fraction
            self._share_cache[key] = mat
        return mat

    def _predict_batch_chunk(
        self,
        workload: WorkloadDescription,
        placements: List[Placement],
    ) -> List[Prediction]:
        """One stacked fixed point over a chunk of placements.

        The kernel works in a *slotted* column space instead of the
        scalar path's dense (thread x resource) matrix: per-core and
        per-socket utilisation sums are one weighted ``bincount`` over
        the flattened (placement, thread) grid, every resource class's
        oversubscription is a scaled gather of those sums, and resource
        classes that scale the same sum (core rate and per-core cache
        links; the per-socket cache aggregates) are folded into one
        coefficient before the gather.  The per-iteration working set is
        O(population x threads), not O(population x threads x
        resources).
        """
        if not placements:
            return []
        t = self._demand_template(workload)
        n_cores, n_sockets = t.n_cores, t.n_sockets
        pop = len(placements)
        p_frac = workload.parallel_fraction
        os_ = workload.inter_socket_overhead
        l = workload.load_balance
        b = workload.burstiness

        n_arr = np.array([p.n_threads for p in placements], dtype=np.intp)
        amdahl_arr = np.array([amdahl_speedup(p_frac, int(n)) for n in n_arr])
        f_init = amdahl_arr / n_arr
        n_max = int(n_arr.max())
        row = np.arange(pop)[:, None]
        valid = np.arange(n_max)[None, :] < n_arr[:, None]

        ids = np.zeros((pop, n_max), dtype=np.intp)
        for k, p in enumerate(placements):
            ids[k, : n_arr[k]] = p.hw_thread_ids
        core_ids = t.core_map[ids]
        sock_ids = t.socket_map[ids]

        # Per-placement per-core thread counts; padded threads fall in a
        # sentinel bin that is sliced away.
        core_sent = np.where(valid, core_ids, n_cores)
        counts = np.bincount(
            (row * (n_cores + 1) + core_sent).ravel(),
            minlength=pop * (n_cores + 1),
        ).reshape(pop, n_cores + 1)[:, :n_cores]
        occ_mask = counts > 0
        c_count = occ_mask.sum(axis=1)
        c_max = int(c_count.max())
        # A thread's core *slot* is its core's rank among the
        # placement's occupied cores (ascending core id) — the same
        # order the scalar path assigns core columns.
        slot_of_core = occ_mask.cumsum(axis=1) - 1
        flat_cores = (row * n_cores + core_ids).ravel()
        core_slot = np.where(
            valid, slot_of_core.ravel()[flat_cores].reshape(pop, n_max), 0
        )
        shared = valid & (counts.ravel()[flat_cores].reshape(pop, n_max) > 1)

        sock_sent = np.where(valid, sock_ids, n_sockets)
        sock_counts = np.bincount(
            (row * (n_sockets + 1) + sock_sent).ravel(),
            minlength=pop * (n_sockets + 1),
        ).reshape(pop, n_sockets + 1)[:, :n_sockets]
        active_mask = sock_counts > 0
        active_tuples = [
            tuple(s for s, on in enumerate(flags) if on)
            for flags in active_mask.tolist()
        ]
        sock_slot = np.where(valid, sock_ids, 0)

        # Per-core capacities in slot order (SMT rate when shared).
        rows_occ, cols_occ = np.nonzero(occ_mask)
        core_cap = np.ones((pop, c_max))
        core_cap[rows_occ, slot_of_core[rows_occ, cols_occ]] = np.where(
            counts[rows_occ, cols_occ] > 1, t.core_rate_smt, t.core_rate
        )

        share = np.zeros((pop, n_sockets, n_sockets))
        if t.has_dram:
            for k, act in enumerate(active_tuples):
                share[k] = self._share_matrix(t, act)

        flat_core0 = (row * c_max + core_slot).ravel()
        flat_sock0 = (row * n_sockets + sock_slot).ravel()
        # Row sums over the thread axis go through bincount (strictly
        # sequential accumulation), not ndarray.sum (pairwise, whose
        # grouping depends on the padded width) — so every placement's
        # result is bit-identical no matter which chunk it shares.
        rows_flat0 = np.repeat(np.arange(pop), n_max)

        lock = np.zeros((pop, n_max))
        if os_ > 0:
            own_counts = sock_counts.ravel()[flat_sock0].reshape(pop, n_max)
            lock = np.where(
                valid, os_ * (n_arr[:, None] - own_counts).astype(float), 0.0
            )
        has_comm = lock.any(axis=1)

        # Fold every resource class that scales the per-core sum into
        # one per-core coefficient (max over class ratios commutes with
        # the shared positive factor), and likewise for the per-socket
        # cache aggregates.
        core_coef = t.inst_rate / core_cap
        link_coef = max((bw / cap for _lv, bw, cap, _agg in t.levels), default=None)
        if link_coef is not None:
            core_coef = np.maximum(core_coef, link_coef)
        agg_coef = max(
            (bw / agg for _lv, bw, _cap, agg in t.levels if agg), default=None
        )

        pairs = list(t.key_pair)
        has_dram = t.has_dram
        if has_dram:
            dram_mask = share > 0  # (pop, thread socket, node)
        if has_dram and pairs:
            pair_u = np.array([u for u, _ in pairs], dtype=np.intp)
            pair_v = np.array([v for _, v in pairs], dtype=np.intp)
            # Each link carries both directions' remote DRAM traffic;
            # the coefficients fold the share matrix in once.
            link_coef_u = t.dram_bw * share[:, pair_u, pair_v]
            link_coef_v = t.dram_bw * share[:, pair_v, pair_u]
            # A thread on socket s loads pair (u, v) iff s is an
            # endpoint and its share toward the far end is nonzero.
            sock_range = np.arange(n_sockets)
            link_mask = (
                (sock_range[None, :, None] == pair_u[None, None, :])
                & (link_coef_u > 0)[:, None, :]
            ) | (
                (sock_range[None, :, None] == pair_v[None, None, :])
                & (link_coef_v > 0)[:, None, :]
            )

        # -- the fixed point, over the shrinking active set ----------------
        alive = np.arange(pop)
        iterations = np.zeros(pop, dtype=int)
        converged = np.zeros(pop, dtype=bool)
        final = np.zeros((pop, n_max))
        f_init_a, n_a = f_init, n_arr
        valid_a, shared_a = valid, shared
        core_slot_a, sock_slot_a = core_slot, sock_slot
        core_coef_a, lock_a, has_comm_a = core_coef, lock, has_comm
        share_a = share
        if has_dram:
            dram_mask_a = dram_mask
            if pairs:
                link_coef_u_a, link_coef_v_a = link_coef_u, link_coef_v
                link_mask_a = link_mask
        f = np.where(valid, f_init[:, None], 0.0)
        flat_core, flat_sock = flat_core0, flat_sock0
        rows_flat = rows_flat0
        prev: Optional[np.ndarray] = None
        cap_vec: Optional[np.ndarray] = None
        overall = f  # placeholder; overwritten before use

        # Telemetry: one hoisted branch; when disabled the loop body
        # pays a single `if obs_on` check per iteration and no per-row
        # work, keeping the kernel within noise of the uninstrumented
        # build (tests/obs/test_overhead.py).
        obs_on = obs.enabled()
        if obs_on:
            _tracer = obs.tracer()
            _m = obs.metrics()
            alive_hist = _m.histogram("predictor.batch.alive_rows", ALIVE_BUCKETS)
            res_hist = _m.histogram("predictor.residual", RESIDUAL_BUCKETS)
            compactions = _m.counter("predictor.batch.compactions")
            _m.counter("predictor.batch.chunks").inc()
            chunk_span = _tracer.start(
                "predictor.predict_batch",
                attrs={
                    "workload": workload.name,
                    "machine": self.md.machine_name,
                    "population": pop,
                },
            )
            convergence: List[ConvergenceRecord] = []

            def _end_iteration(it_span, iteration, cur, delta_max, retired):
                alive_hist.observe(cur)
                if math.isfinite(delta_max):
                    res_hist.observe(delta_max)
                if retired:
                    compactions.inc()
                convergence.append(
                    ConvergenceRecord(
                        iteration=iteration,
                        max_residual=delta_max,
                        alive=cur,
                        compacted=retired,
                    )
                )
                it_span.attrs["max_residual"] = delta_max
                it_span.attrs["compacted"] = retired
                _tracer.end(it_span)

        for iteration in range(1, self.max_iterations + 1):
            iterations[alive] = iteration
            cur = alive.size
            if obs_on:
                it_span = _tracer.start(
                    "predictor.iteration",
                    attrs={"iteration": iteration, "alive": cur},
                )
                delta_max, retired = math.inf, 0

            # Step 1: resource contention + burstiness.  Padded threads
            # carry f = 0, so they contribute nothing to any sum.
            fs_core = np.bincount(
                flat_core, weights=f.ravel(), minlength=cur * c_max
            ).reshape(cur, c_max)
            fs_sock = np.bincount(
                flat_sock, weights=f.ravel(), minlength=cur * n_sockets
            ).reshape(cur, n_sockets)
            worst = (core_coef_a * fs_core).ravel()[flat_core].reshape(cur, n_max)
            sock_stat = None
            if agg_coef is not None:
                sock_stat = agg_coef * fs_sock
            if has_dram:
                dram_load = t.dram_bw * (fs_sock[:, :, None] * share_a).sum(axis=1)
                dram_worst = np.where(
                    dram_mask_a, (dram_load / t.dram_cap)[:, None, :], 0.0
                ).max(axis=2)
                sock_stat = (
                    dram_worst
                    if sock_stat is None
                    else np.maximum(sock_stat, dram_worst)
                )
                if pairs:
                    link_ratio = (
                        link_coef_u_a * fs_sock[:, pair_u]
                        + link_coef_v_a * fs_sock[:, pair_v]
                    ) / t.interconnect_cap
                    link_worst = np.where(
                        link_mask_a, link_ratio[:, None, :], 0.0
                    ).max(axis=2)
                    sock_stat = np.maximum(sock_stat, link_worst)
            if sock_stat is not None:
                worst = np.maximum(
                    worst, sock_stat.ravel()[flat_sock].reshape(cur, n_max)
                )
            if t.has_io:
                f_total = np.bincount(rows_flat, weights=f.ravel(), minlength=cur)
                worst = np.maximum(worst, (t.io_bw * f_total / t.nic_cap)[:, None])
            base = np.maximum(worst, 1.0)
            resource = np.where(shared_a, base * (1.0 + b * f), base)
            f_cur = f_init_a[:, None] / resource

            # Step 2: inter-socket communication.
            if os_ > 0 and has_comm_a.any():
                work = np.where(valid_a, 1.0 / resource, 0.0)
                work_total = np.bincount(
                    rows_flat, weights=work.ravel(), minlength=cur
                )
                weights = work / work_total[:, None]
                w_total = np.bincount(
                    rows_flat, weights=weights.ravel(), minlength=cur
                )
                w_sock = np.bincount(
                    flat_sock, weights=weights.ravel(), minlength=cur * n_sockets
                ).reshape(cur, n_sockets)
                remote_w = w_total[:, None] - w_sock.ravel()[flat_sock].reshape(
                    cur, n_max
                )
                independent = n_a[:, None] * os_ * remote_w
                comm = (l * independent + (1.0 - l) * lock_a) * f_cur
                overall = np.where(has_comm_a[:, None], resource + comm, resource)
            else:
                overall = resource

            # Step 3: load balancing, then the first-iteration cap.
            peak = np.where(valid_a, overall, -np.inf).max(axis=1)
            overall = l * overall + (1.0 - l) * peak[:, None]
            if cap_vec is None:
                cap_vec = np.where(valid_a, overall, -np.inf).max(axis=1)
            overall = np.clip(overall, 1.0, cap_vec[:, None])

            if prev is not None:
                delta = np.where(valid_a, np.abs(overall - prev), 0.0).max(axis=1)
                if obs_on:
                    delta_max = float(delta.max())
                done = delta < self.tolerance
                if done.any():
                    if obs_on:
                        retired = int(np.count_nonzero(done))
                    finished = alive[done]
                    converged[finished] = True
                    final[finished] = overall[done]
                    keep = ~done
                    alive = alive[keep]
                    if not alive.size:
                        if obs_on:
                            _end_iteration(it_span, iteration, cur, delta_max, retired)
                        break
                    valid_a, shared_a = valid_a[keep], shared_a[keep]
                    core_slot_a, sock_slot_a = core_slot_a[keep], sock_slot_a[keep]
                    core_coef_a, lock_a = core_coef_a[keep], lock_a[keep]
                    has_comm_a, cap_vec = has_comm_a[keep], cap_vec[keep]
                    f_init_a, n_a = f_init_a[keep], n_a[keep]
                    share_a = share_a[keep]
                    if has_dram:
                        dram_mask_a = dram_mask_a[keep]
                        if pairs:
                            link_coef_u_a = link_coef_u_a[keep]
                            link_coef_v_a = link_coef_v_a[keep]
                            link_mask_a = link_mask_a[keep]
                    resource, overall, f = resource[keep], overall[keep], f[keep]
                    live_row = np.arange(alive.size)[:, None]
                    flat_core = (live_row * c_max + core_slot_a).ravel()
                    flat_sock = (live_row * n_sockets + sock_slot_a).ravel()
                    rows_flat = np.repeat(np.arange(alive.size), n_max)
            prev = overall

            f_next = f_init_a[:, None] * np.minimum(resource / overall, 1.0)
            if iteration > DAMPEN_AFTER:
                f_next = 0.5 * (f + f_next)
            f = np.where(valid_a, f_next, 0.0)
            if obs_on:
                _end_iteration(it_span, iteration, cur, delta_max, retired)

        if alive.size:  # stragglers that hit max_iterations
            final[alive] = overall

        if obs_on:
            _m.histogram("predictor.iterations").observe_many(
                int(v) for v in iterations
            )
            chunk_span.attrs["iterations_max"] = int(iterations.max())
            chunk_span.attrs["converged_rows"] = int(np.count_nonzero(converged))
            chunk_span.attrs["convergence"] = [r.to_dict() for r in convergence]
            _tracer.end(chunk_span)

        # -- converged utilisations and resource loads, whole chunk --------
        futil = np.where(valid, f_init[:, None] / np.where(valid, final, 1.0), 0.0)
        fs_core_fin = np.bincount(
            flat_core0, weights=futil.ravel(), minlength=pop * c_max
        ).reshape(pop, c_max)
        fs_sock_fin = np.bincount(
            flat_sock0, weights=futil.ravel(), minlength=pop * n_sockets
        ).reshape(pop, n_sockets)
        n_levels = len(t.levels)
        caps_cm = np.empty((pop, c_max, 1 + n_levels))
        caps_cm[:, :, 0] = core_cap
        loads_cm = np.empty((pop, c_max, 1 + n_levels))
        loads_cm[:, :, 0] = t.inst_rate * fs_core_fin
        for i, (_lv, bw, link_cap, _agg) in enumerate(t.levels):
            caps_cm[:, :, 1 + i] = link_cap
            loads_cm[:, :, 1 + i] = bw * fs_core_fin
        n_sclass = len(t.sock_caps)
        if n_sclass:
            loads_sm = np.empty((pop, n_sockets, n_sclass))
            for j, i in enumerate(t.agg_levels):
                loads_sm[:, :, j] = t.levels[i][1] * fs_sock_fin
        if has_dram:
            dram_loads = t.dram_bw * (fs_sock_fin[:, :, None] * share).sum(axis=1)
            loads_sm[:, :, n_sclass - 1] = dram_loads
            if pairs:
                pair_loads = (
                    link_coef_u * fs_sock_fin[:, pair_u]
                    + link_coef_v * fs_sock_fin[:, pair_v]
                )
                pair_active = active_mask[:, pair_u] & active_mask[:, pair_v]
        if t.has_io:
            nic_loads = t.io_bw * np.bincount(
                rows_flat0, weights=futil.ravel(), minlength=pop
            )
        occ_cols = np.split(cols_occ, np.cumsum(c_count)[:-1])
        inv = np.where(valid, 1.0 / np.where(valid, final, 1.0), 0.0)
        inv_total = np.bincount(rows_flat0, weights=inv.ravel(), minlength=pop)
        speedup_arr = amdahl_arr * (inv_total / n_arr)
        time_arr = workload.t1 / speedup_arr
        core_bundles, sock_bundles = t.core_bundles, t.sock_bundles
        sock_caps_list = list(t.sock_caps)

        results: List[Prediction] = []
        for k, placement in enumerate(placements):
            n = int(n_arr[k])
            ck = int(c_count[k])
            act = active_tuples[k]
            occ = occ_cols[k].tolist()
            keys: List[ResourceKey] = list(
                chain.from_iterable(map(core_bundles.__getitem__, occ))
            )
            caps_list: List[float] = caps_cm[k, :ck].ravel().tolist()
            loads_list: List[float] = loads_cm[k, :ck].ravel().tolist()
            if n_sclass:
                keys += chain.from_iterable(map(sock_bundles.__getitem__, act))
                caps_list += sock_caps_list * len(act)
                loads_list += loads_sm[k, act, :].ravel().tolist()
            if has_dram:
                if len(act) > 1:
                    sel = [j for j in range(len(pairs)) if pair_active[k, j]]
                    keys += [t.key_pair[pairs[j]] for j in sel]
                    caps_list += [t.interconnect_cap] * len(sel)
                    loads_list += pair_loads[k].take(sel).tolist()
            if t.has_io:
                keys.append(("nic", 0))
                caps_list.append(t.nic_cap)
                loads_list.append(float(nic_loads[k]))

            results.append(
                Prediction(
                    workload_name=workload.name,
                    machine_name=self.md.machine_name,
                    placement=placement,
                    amdahl=float(amdahl_arr[k]),
                    speedup=float(speedup_arr[k]),
                    predicted_time_s=float(time_arr[k]),
                    slowdowns=tuple(final[k, :n].tolist()),
                    utilisations=tuple(futil[k, :n].tolist()),
                    iterations=int(iterations[k]),
                    converged=bool(converged[k]),
                    trace=[],
                    resource_loads=dict(zip(keys, loads_list)),
                    resource_capacities=dict(zip(keys, caps_list)),
                )
            )
        return results
