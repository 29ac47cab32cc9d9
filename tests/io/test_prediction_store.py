"""Round-trip, corruption, and atomicity coverage for PredictionStore."""

from __future__ import annotations

import json

import pytest

from repro.core.coscheduling import CoSchedulePredictor
from repro.core.machine_desc import generate_machine_description
from repro.core.predictor import PandiaPredictor
from repro.core.sweep import sweep_placements
from repro.core.workload_desc import WorkloadDescriptionGenerator
from repro.errors import ModelError, ReproError
from repro.hardware import machines
from repro.io import PredictionStore, fingerprint_digest, machine_digest
from repro.io.prediction_store import STORE_VERSION
from repro.search import SearchEngine
from repro.search.canonical import canonical_key, workload_fingerprint
from repro.sim.noise import NO_NOISE
from repro.workloads import catalog


@pytest.fixture(scope="module")
def env():
    spec = machines.get("TESTBOX")
    md = generate_machine_description(spec, noise=NO_NOISE)
    gen = WorkloadDescriptionGenerator(spec, md, noise=NO_NOISE)
    workload = gen.generate(catalog.get("MD"))
    predictor = PandiaPredictor(md)
    placement = sweep_placements(spec.topology)[-1]
    prediction = predictor.predict(workload, placement)
    return spec, md, workload, predictor, placement, prediction


def _ids(md, workload):
    return machine_digest(md), fingerprint_digest(workload_fingerprint(workload))


class TestSoloRoundTrip:
    def test_round_trip_in_memory(self, env, tmp_path):
        spec, md, workload, predictor, placement, prediction = env
        m_digest, w_digest = _ids(md, workload)
        key = canonical_key(placement)
        store = PredictionStore(tmp_path)
        assert store.get_prediction(m_digest, w_digest, key, placement) is None
        store.put_prediction(m_digest, w_digest, key, prediction)
        got = store.get_prediction(m_digest, w_digest, key, placement)
        assert got is not None
        assert got.predicted_time_s == prediction.predicted_time_s
        assert got.slowdowns == prediction.slowdowns
        assert got.utilisations == prediction.utilisations
        assert got.iterations == prediction.iterations
        assert got.converged is prediction.converged
        assert got.resource_loads == prediction.resource_loads
        assert got.resource_capacities == prediction.resource_capacities

    def test_round_trip_across_sessions(self, env, tmp_path):
        spec, md, workload, predictor, placement, prediction = env
        m_digest, w_digest = _ids(md, workload)
        key = canonical_key(placement)
        with PredictionStore(tmp_path) as store:
            store.put_prediction(m_digest, w_digest, key, prediction)
        # A fresh instance over the same root sees the flushed record.
        reread = PredictionStore(tmp_path)
        got = reread.get_prediction(m_digest, w_digest, key, placement)
        assert got is not None
        assert got.predicted_time_s == prediction.predicted_time_s
        assert got.slowdowns == prediction.slowdowns

    def test_rebuilds_onto_requested_placement(self, env, tmp_path):
        spec, md, workload, predictor, placement, prediction = env
        m_digest, w_digest = _ids(md, workload)
        key = canonical_key(placement)
        store = PredictionStore(tmp_path)
        store.put_prediction(m_digest, w_digest, key, prediction)
        # Any concrete placement may be passed at lookup; the record
        # answers for the whole symmetry class.
        got = store.get_prediction(m_digest, w_digest, key, placement)
        assert got.placement == placement
        assert got.trace == []


class TestOlderRecordFormat:
    """Shards written before the trajectory field was dropped."""

    def test_records_with_trajectory_field_still_hit(self, env, tmp_path):
        spec, md, workload, predictor, placement, prediction = env
        m_digest, w_digest = _ids(md, workload)
        key = canonical_key(placement)
        with PredictionStore(tmp_path) as store:
            store.put_prediction(m_digest, w_digest, key, prediction)
            path = store.shard_path(m_digest, w_digest)
        data = json.loads(path.read_text())
        record = data["solo"][repr(key)]
        assert "final_f_norm" not in record  # new records omit the field
        # The older writer stored the normalised starting utilisation
        # of the stopping iteration alongside every record.
        record["final_f_norm"] = [1.0] * len(prediction.slowdowns)
        assert data["version"] == STORE_VERSION
        path.write_text(json.dumps(data))

        got = PredictionStore(tmp_path).get_prediction(
            m_digest, w_digest, key, placement
        )
        assert got is not None
        assert got.predicted_time_s == prediction.predicted_time_s
        assert got.speedup == prediction.speedup
        assert got.amdahl == prediction.amdahl
        assert got.slowdowns == prediction.slowdowns
        assert got.utilisations == prediction.utilisations
        assert got.iterations == prediction.iterations
        assert got.converged is prediction.converged
        assert got.resource_loads == prediction.resource_loads
        assert got.resource_capacities == prediction.resource_capacities

    def test_engine_counts_older_records_as_store_hits(self, env, tmp_path):
        spec, md, workload, predictor, placement, prediction = env
        with SearchEngine(predictor, store=PredictionStore(tmp_path)) as engine:
            fresh = engine.evaluate(workload, [placement])[0].prediction
        shards = list(tmp_path.rglob("*.json"))
        assert len(shards) == 1
        for path in shards:
            data = json.loads(path.read_text())
            for record in data["solo"].values():
                record["final_f_norm"] = [0.5] * len(record["slowdowns"])
            path.write_text(json.dumps(data))

        with SearchEngine(predictor, store=PredictionStore(tmp_path)) as engine:
            hit = engine.evaluate(workload, [placement])[0].prediction
            assert engine.stats.store_hits == 1
            assert engine.stats.evaluations == 0
        assert hit.predicted_time_s == fresh.predicted_time_s
        assert hit.slowdowns == fresh.slowdowns


class TestJointRoundTrip:
    def test_round_trip(self, env, tmp_path):
        spec, md, workload, predictor, placement, prediction = env
        sweeps = sweep_placements(spec.topology)
        half = [p for p in sweeps if 1 < p.n_threads <= spec.topology.n_cores // 2]
        p1 = half[0]
        used = set(p1.hw_thread_ids)
        all_tids = [
            t
            for t in range(spec.topology.n_hw_threads)
            if t not in used
        ]
        from repro.core.coscheduling import CoScheduledWorkload
        from repro.core.placement import Placement

        p2 = Placement(spec.topology, tuple(all_tids[: p1.n_threads]))
        gen = WorkloadDescriptionGenerator(spec, md, noise=NO_NOISE)
        w2 = gen.generate(catalog.get("CG"))
        joint = CoSchedulePredictor(md)
        jobs = [
            CoScheduledWorkload(workload, p1),
            CoScheduledWorkload(w2, p2),
        ]
        pred = joint.predict(jobs)

        m_digest = machine_digest(md)
        digests = [
            fingerprint_digest(workload_fingerprint(j.description)[1:])
            for j in jobs
        ]
        order = sorted(
            range(len(jobs)),
            key=lambda i: (digests[i], jobs[i].placement.hw_thread_ids),
        )
        key = tuple(
            (digests[i], tuple(jobs[i].placement.hw_thread_ids)) for i in order
        )

        with PredictionStore(tmp_path) as store:
            assert store.get_joint(m_digest, key) is None
            store.put_joint(m_digest, key, pred, order)
        got = PredictionStore(tmp_path).get_joint(m_digest, key)
        assert got is not None
        assert got.iterations == pred.iterations
        assert got.converged is pred.converged
        # Outcomes come back in key order; match them up by name.
        by_name = {o.workload_name: o for o in got.outcomes}
        for original in pred.outcomes:
            stored = by_name[original.workload_name]
            assert stored.predicted_time_s == original.predicted_time_s
            assert stored.slowdowns == original.slowdowns


class TestCorruption:
    def _seeded_store(self, env, tmp_path):
        spec, md, workload, predictor, placement, prediction = env
        m_digest, w_digest = _ids(md, workload)
        key = canonical_key(placement)
        with PredictionStore(tmp_path) as store:
            store.put_prediction(m_digest, w_digest, key, prediction)
        return m_digest, w_digest, key, store.shard_path(m_digest, w_digest)

    @pytest.mark.parametrize(
        "payload",
        [
            "{ not json",
            '{"version": 1, "solo"',  # truncated mid-stream
            '[1, 2, 3]',  # wrong root type
            '{"version": 1}',  # right version, missing namespaces
        ],
    )
    def test_corrupt_shard_names_path(self, env, tmp_path, payload):
        m_digest, w_digest, key, path = self._seeded_store(env, tmp_path)
        path.write_text(payload)
        store = PredictionStore(tmp_path)
        with pytest.raises(ModelError) as excinfo:
            store.get_prediction(m_digest, w_digest, key, env[4])
        assert str(path) in str(excinfo.value)
        assert isinstance(excinfo.value, ReproError)

    def test_version_mismatch_is_stale_not_corrupt(self, env, tmp_path):
        m_digest, w_digest, key, path = self._seeded_store(env, tmp_path)
        data = json.loads(path.read_text())
        data["version"] = STORE_VERSION + 1
        path.write_text(json.dumps(data))
        store = PredictionStore(tmp_path)
        # An old/new schema is a cache miss for the whole shard.
        assert store.get_prediction(m_digest, w_digest, key, env[4]) is None


class TestFlush:
    def test_flush_is_atomic_no_tmp_left_behind(self, env, tmp_path):
        spec, md, workload, predictor, placement, prediction = env
        m_digest, w_digest = _ids(md, workload)
        store = PredictionStore(tmp_path)
        store.put_prediction(m_digest, w_digest, canonical_key(placement), prediction)
        store.flush()
        leftovers = list(tmp_path.rglob("*.tmp"))
        assert leftovers == []
        assert store.shard_path(m_digest, w_digest).exists()

    def test_flush_without_writes_is_noop(self, tmp_path):
        store = PredictionStore(tmp_path / "empty")
        store.flush()
        assert not (tmp_path / "empty").exists()

    def test_reflush_only_writes_dirty_shards(self, env, tmp_path):
        spec, md, workload, predictor, placement, prediction = env
        m_digest, w_digest = _ids(md, workload)
        store = PredictionStore(tmp_path)
        store.put_prediction(m_digest, w_digest, canonical_key(placement), prediction)
        store.flush()
        path = store.shard_path(m_digest, w_digest)
        before = path.stat().st_mtime_ns
        store.flush()  # nothing dirty: file untouched
        assert path.stat().st_mtime_ns == before


class TestDigests:
    def test_machine_digest_tracks_description(self, env):
        spec, md, workload, *_ = env
        assert machine_digest(md) == machine_digest(md)
        other_spec = machines.get("FIG3")
        other = generate_machine_description(other_spec, noise=NO_NOISE)
        assert machine_digest(md) != machine_digest(other)

    def test_fingerprint_digest_is_stable(self, env):
        _, _, workload, *_ = env
        fp = workload_fingerprint(workload)
        assert fingerprint_digest(fp) == fingerprint_digest(fp)
        assert fingerprint_digest(fp) != fingerprint_digest(fp[1:])
