"""Property-based tests for the placement-search engine.

Pinned invariants:

* canonicalisation is idempotent and socket-permutation invariant;
* ``cache_hits + cache_misses == requests`` and
  ``evaluations == cache_misses`` for any request sequence, even with
  LRU eviction.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings, strategies as st

from repro.core.description import DemandVector, WorkloadDescription
from repro.core.placement import from_shapes
from repro.hardware.topology import MachineTopology
from repro.search import (
    SearchEngine,
    canonical_key,
    canonical_representative,
    workload_fingerprint,
)

TOPO = MachineTopology(2, 4, 2)

shapes = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda s: sum(s) <= 4),
    min_size=2,
    max_size=2,
).filter(lambda pair: sum(sum(s) for s in pair) > 0)


# -- canonicalisation -------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(pair=shapes)
def test_canonicalisation_is_idempotent(pair):
    placement = from_shapes(TOPO, pair)
    key = canonical_key(placement)
    representative = canonical_representative(TOPO, key)
    assert canonical_key(representative) == key


@settings(max_examples=100, deadline=None)
@given(pair=shapes)
def test_symmetric_placements_share_a_key(pair):
    forward = from_shapes(TOPO, pair)
    for permutation in itertools.permutations(pair):
        assert canonical_key(from_shapes(TOPO, list(permutation))) == canonical_key(
            forward
        )


@settings(max_examples=50, deadline=None)
@given(pair=shapes)
def test_fingerprint_tracks_model_parameters(pair):
    del pair  # fingerprints are placement-independent
    base = WorkloadDescription(
        name="w",
        machine_name="M",
        t1=10.0,
        demands=DemandVector(inst_rate=1.0),
        parallel_fraction=0.9,
    )
    same = WorkloadDescription(
        name="w",
        machine_name="M",
        t1=10.0,
        demands=DemandVector(inst_rate=1.0),
        parallel_fraction=0.9,
    )
    changed = WorkloadDescription(
        name="w",
        machine_name="M",
        t1=10.0,
        demands=DemandVector(inst_rate=1.0),
        parallel_fraction=0.8,
    )
    assert workload_fingerprint(base) == workload_fingerprint(same)
    assert workload_fingerprint(base) != workload_fingerprint(changed)


# -- cache accounting -------------------------------------------------------


class CountingPredictor:
    """Duck-typed predictor: constant-time predictions, call counting."""

    def __init__(self):
        self.calls = 0

    def predict(self, workload, placement):
        self.calls += 1
        from repro.core.predictor import Prediction

        return Prediction(
            workload_name=workload.name,
            machine_name="stub",
            placement=placement,
            amdahl=1.0,
            speedup=1.0,
            predicted_time_s=float(placement.n_threads),
            slowdowns=(1.0,),
            utilisations=(1.0,),
            iterations=1,
            converged=True,
        )


def _stub_workload():
    return WorkloadDescription(
        name="stub",
        machine_name="stub",
        t1=1.0,
        demands=DemandVector(inst_rate=1.0),
        parallel_fraction=1.0,
    )


@settings(max_examples=60, deadline=None)
@given(
    batches=st.lists(
        st.lists(shapes, min_size=1, max_size=6), min_size=1, max_size=4
    ),
    cache_size=st.integers(1, 8),
)
def test_hits_plus_misses_equals_requests(batches, cache_size):
    predictor = CountingPredictor()
    engine = SearchEngine(predictor, cache_size=cache_size)
    workload = _stub_workload()
    total = 0
    for batch in batches:
        placements = [from_shapes(TOPO, pair) for pair in batch]
        engine.evaluate(workload, placements)
        total += len(placements)
    stats = engine.stats
    assert stats.requests == total
    assert stats.cache_hits + stats.cache_misses == stats.requests
    assert stats.evaluations == stats.cache_misses == predictor.calls
    assert 0.0 <= stats.dedup_ratio <= 1.0


def test_repeat_lookups_are_hits():
    predictor = CountingPredictor()
    engine = SearchEngine(predictor)
    workload = _stub_workload()
    placements = [from_shapes(TOPO, [(2, 0), (0, 0)])] * 5
    engine.evaluate(workload, placements)
    engine.evaluate(workload, placements)
    assert engine.stats.requests == 10
    assert engine.stats.evaluations == 1
    assert engine.stats.cache_hits == 9
