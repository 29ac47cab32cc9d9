"""Golden regression: the fast search path equals the naive serial loop.

For every machine in the catalog and four catalog workloads (Art is the
memory-contended one with the longest fixed-point settle), the cached
engine and a prediction-store hit must both return the same best
placement and the same predicted times (within 1e-12) as
:func:`repro.core.optimizer.rank_placements_serial` — the pre-engine
implementation kept verbatim as the reference.

The engine's miss path now runs the batched kernel
(:meth:`PandiaPredictor.predict_batch`), whose guarantee is numeric —
everything within 1e-12 of the scalar path — rather than bit-exact.
Distinct placements whose scalar predicted times coincide exactly may
therefore swap rank order; the order checks here accept a swap only
inside such a sub-tolerance tie.  ``TestBatchMatchesScalar`` checks
the kernel itself field by field.
"""

from __future__ import annotations

import pytest

from repro.core.machine_desc import generate_machine_description
from repro.core.optimizer import rank_placements, rank_placements_serial
from repro.core.placement import sample_canonical
from repro.core.predictor import PandiaPredictor
from repro.core.sweep import sweep_placements
from repro.core.workload_desc import WorkloadDescriptionGenerator
from repro.hardware import machines
from repro.io import PredictionStore
from repro.search import SearchEngine, canonical_key
from repro.sim.noise import NO_NOISE
from repro.workloads import catalog

MACHINES = machines.names()
WORKLOADS = ("MD", "CG", "EP", "Art")
TOLERANCE = 1e-12

_CACHE = {}


def _setup(machine_name):
    """(spec, predictor, {workload: description}) — cached per machine."""
    if machine_name not in _CACHE:
        spec = machines.get(machine_name)
        md = generate_machine_description(spec, noise=NO_NOISE)
        gen = WorkloadDescriptionGenerator(spec, md, noise=NO_NOISE)
        descriptions = {w: gen.generate(catalog.get(w)) for w in WORKLOADS}
        _CACHE[machine_name] = (spec, PandiaPredictor(md), descriptions)
    return _CACHE[machine_name]


def _candidates(spec):
    """Sweep placements plus a canonical sample, one per symmetry class.

    Duplicate-free so the serial loop and the deduplicating engine
    predict the exact same concrete placements — the strict golden case.
    """
    topo = spec.topology
    unique = {}
    for placement in sweep_placements(topo) + sample_canonical(topo, 30, seed=1):
        unique.setdefault(canonical_key(placement), placement)
    return list(unique.values())


def _assert_rank_matches(ranked, golden, label):
    """Rank-for-rank equality, modulo swaps inside sub-tolerance ties.

    Every rank must carry the golden predicted time (1e-12); placement
    identity is additionally required wherever the golden ranking is
    locally untied, so only genuine ties may reorder.
    """
    assert len(ranked) == len(golden), label
    times = [r.predicted_time_s for r in golden]
    for i, (ours, ref) in enumerate(zip(ranked, golden)):
        assert abs(ours.predicted_time_s - ref.predicted_time_s) <= TOLERANCE, label
        tied = (i > 0 and times[i] - times[i - 1] <= TOLERANCE) or (
            i + 1 < len(times) and times[i + 1] - times[i] <= TOLERANCE
        )
        if not tied:
            assert ours.placement == ref.placement, (
                f"{label}: placements diverged at untied rank {i}"
            )


@pytest.mark.parametrize("machine_name", MACHINES)
@pytest.mark.parametrize("workload_name", WORKLOADS)
class TestGoldenEquivalence:
    def test_parallel_cached_search_matches_serial_loop(
        self, machine_name, workload_name, tmp_path
    ):
        """Engine miss path, cache hit and store hit all match the loop."""
        spec, predictor, descriptions = _setup(machine_name)
        workload = descriptions[workload_name]
        placements = _candidates(spec)

        golden = rank_placements_serial(predictor, workload, placements)

        with SearchEngine(predictor, store=PredictionStore(tmp_path)) as engine:
            fast = rank_placements(predictor, workload, placements, engine=engine)
            # A second pass must be answered from the cache, unchanged.
            again = rank_placements(predictor, workload, placements, engine=engine)
            assert engine.stats.cache_hits >= len(placements)

        # A fresh engine over the flushed store answers every class from
        # disk without running the predictor.
        with SearchEngine(predictor, store=PredictionStore(tmp_path)) as engine:
            stored = rank_placements(predictor, workload, placements, engine=engine)
            assert engine.stats.store_hits == len(placements)
            assert engine.stats.evaluations == 0

        for label, ranked in (("fast", fast), ("cached", again), ("store", stored)):
            _assert_rank_matches(
                ranked, golden, f"{label} on {machine_name}/{workload_name}"
            )


class TestSymmetricDuplicates:
    """With symmetric duplicates in the input, times still match.

    Two concrete placements of one symmetry class may differ in the
    last float bit under the serial loop (summation order), so the
    guarantee is shape- and time-level: same best symmetry class, and
    rank-for-rank predicted times within 1e-12.
    """

    def test_duplicate_heavy_input(self):
        spec, predictor, descriptions = _setup("TESTBOX")
        workload = descriptions["CG"]
        topo = spec.topology
        placements = sweep_placements(topo) + sample_canonical(topo, 30, seed=1)
        assert len({canonical_key(p) for p in placements}) < len(placements)

        golden = rank_placements_serial(predictor, workload, placements)
        with SearchEngine(predictor) as engine:
            fast = rank_placements(predictor, workload, placements, engine=engine)

        assert len(fast) == len(golden)
        assert canonical_key(fast[0].placement) == canonical_key(golden[0].placement)
        for ours, ref in zip(fast, golden):
            assert abs(ours.predicted_time_s - ref.predicted_time_s) <= TOLERANCE


@pytest.mark.parametrize("machine_name", MACHINES)
@pytest.mark.parametrize("workload_name", WORKLOADS)
class TestBatchMatchesScalar:
    """The batched kernel against the scalar golden reference, field by
    field, for every catalog machine and workload."""

    def test_predict_batch_matches_predict(self, machine_name, workload_name):
        spec, predictor, descriptions = _setup(machine_name)
        workload = descriptions[workload_name]
        placements = _candidates(spec)

        batched = predictor.predict_batch(workload, placements)
        assert len(batched) == len(placements)
        for placement, ours in zip(placements, batched):
            ref = predictor.predict(workload, placement)
            ctx = f"{machine_name}/{workload_name}/{placement.sort_key()}"
            assert ours.iterations == ref.iterations, ctx
            assert ours.converged is ref.converged, ctx
            assert abs(ours.predicted_time_s - ref.predicted_time_s) <= TOLERANCE, ctx
            assert abs(ours.speedup - ref.speedup) <= TOLERANCE, ctx
            assert abs(ours.amdahl - ref.amdahl) <= TOLERANCE, ctx
            assert len(ours.slowdowns) == len(ref.slowdowns), ctx
            for a, b in zip(ours.slowdowns, ref.slowdowns):
                assert abs(a - b) <= TOLERANCE, ctx
            for a, b in zip(ours.utilisations, ref.utilisations):
                assert abs(a - b) <= TOLERANCE, ctx
            assert ours.resource_capacities == ref.resource_capacities, ctx
            assert ours.resource_loads.keys() == ref.resource_loads.keys(), ctx
            for key, load in ref.resource_loads.items():
                assert abs(ours.resource_loads[key] - load) <= 1e-9, (ctx, key)
